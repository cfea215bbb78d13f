"""Power-spectrum models and the spectral length scales derived from them.

The model is an isotropic power law ``P(k) = amplitude * k**alpha``,
optionally truncated by intrinsic cutoffs ``k_low_cutoff`` (P = 0 below) and
``k_high_cutoff`` (P = 0 above).  From P(k) we compute the moments

    sigma_n^2 = int dk  mu_d(k) k^(2n) P(k) W^2(k Rs),

with measure mu_3(k) = k^2 / (2 pi^2) in three dimensions and the analogous
mu_2(k) = k / (2 pi) in two, and Gaussian smoothing window
W(k Rs) = exp(-k^2 Rs^2 / 2).  The derived scales are the correlation length
r_c = sigma_0 / sigma_1 and the packing fraction q = (L / r_c)^d, roughly the
number of r_c-sized structures fitting into a box of side L.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import DegenerateFieldError, DivergenceError, DomainError

@dataclass(frozen=True)
class PowerSpectrumModel:
    """Isotropic power-law spectrum with optional intrinsic cutoffs.

    ``classify()`` distinguishes spectra whose only scales are observational
    (type 1) from spectra carrying intrinsic cutoff scales (type 2); the two
    types scale differently with box size and smoothing length.
    """

    amplitude: float = 1.0
    alpha: float = 0.0
    k_low_cutoff: float | None = None
    k_high_cutoff: float | None = None

    def __post_init__(self) -> None:
        for name, tp in get_type_hints(PowerSpectrumModel).items():
            object.__setattr__(self, name, check_type(name, getattr(self, name), tp, DomainError))
        for f in fields(self):
            val = getattr(self, f.name)
            if val is not None and not math.isfinite(val):
                raise DomainError(f"{f.name} must be finite, got {val}")
        if self.amplitude < 0:
            raise DomainError(f"amplitude must be >= 0, got {self.amplitude}")
        for name in ("k_low_cutoff", "k_high_cutoff"):
            val = getattr(self, name)
            if val is not None and val <= 0:
                raise DomainError(f"{name} must be positive, got {val}")
        if (
            self.k_low_cutoff is not None
            and self.k_high_cutoff is not None
            and not self.k_low_cutoff < self.k_high_cutoff
        ):
            raise DomainError("k_low_cutoff must be < k_high_cutoff")

    def classify(self) -> int:
        """Return 2 if any intrinsic cutoff is present, else 1."""
        if self.k_low_cutoff is not None or self.k_high_cutoff is not None:
            return 2
        return 1


@dataclass(frozen=True)
class SpectralParams:
    """Spectral scales of a (smoothed, windowed) field.

    ``r_c = sigma0 / sigma1`` and ``q = (L / r_c)**dim``.
    """

    sigma0: float
    sigma1: float
    r_c: float
    q: float


def check_type(name: str, value, tp, error: type[Exception]):
    """Raise ``error`` unless ``value`` has the annotated type ``tp``; return its Python form.

    An int passes as a float, a numpy scalar as its Python type, and a tuple,
    list or 1-D array of such numbers as a ``tuple[float, ...]``; a bool is
    no number.  A number comes back as the annotation's ``int`` or ``float``,
    and a sequence as a tuple of them, so equal values print and hash alike.
    """

    def fits(v, t) -> bool:
        if get_origin(t) is tuple:
            flat = isinstance(v, (tuple, list)) or isinstance(v, np.ndarray) and v.ndim == 1
            return flat and all(fits(x, get_args(t)[0]) for x in v)
        if get_args(t):  # a union
            return any(fits(v, a) for a in get_args(t))
        if isinstance(v, bool):
            return t is bool
        return isinstance(v, {int: numbers.Integral, float: numbers.Real}.get(t, t))

    def form(v, t):
        if get_origin(t) is tuple:
            return tuple(form(x, get_args(t)[0]) for x in v)
        if get_args(t):  # a union: the form of the first member that v fits
            return form(v, next(a for a in get_args(t) if fits(v, a)))
        return t(v) if t in (int, float) else v

    if not fits(value, tp):
        raise error(f"{name} must be {tp.__name__ if isinstance(tp, type) else tp}, got {value!r}")
    return form(value, tp)


def check_rs(rs: float) -> None:
    """Require a smoothing length that is finite and >= 0."""
    if not (math.isfinite(rs) and rs >= 0):
        raise DomainError(f"smoothing length must be finite and >= 0, got {rs}")


def eval_power(model: PowerSpectrumModel, k):
    """Evaluate P(k); zero outside the cutoff window.  Requires k > 0."""
    karr = np.asarray(k, dtype=float)
    if not np.all(karr > 0):  # NaN fails it too
        raise DomainError("eval_power requires k > 0")
    out = model.amplitude * karr**model.alpha
    if model.k_low_cutoff is not None:
        out = np.where(karr < model.k_low_cutoff, 0.0, out)
    if model.k_high_cutoff is not None:
        out = np.where(karr > model.k_high_cutoff, 0.0, out)
    return out if out.ndim else float(out)


def spectral_moment(
    model: PowerSpectrumModel,
    n: int,
    rs: float,
    kmin: float,
    kmax: float,
    dim: int,
) -> float:
    """Compute sigma_n^2 of the smoothed field in closed form.

    The integrand is A k^p exp(-k^2 rs^2), p = d - 1 + 2n + alpha, times the
    measure's constant: a power law at rs = 0, and for rs > 0, with
    t = (k rs)^2, int t^(a-1) e^(-t) dt / (2 rs^(p+1)) with a = (p + 1) / 2.

    Parameters
    ----------
    model : PowerSpectrumModel
    n : int
        Moment order (0 for the field variance, 1 for the gradient variance).
    rs : float
        Gaussian smoothing length; the window enters squared,
        W^2 = exp(-k^2 rs^2).
    kmin, kmax : float
        Integration limits; ``kmax`` may be ``math.inf``.
    dim : int
        2 or 3; selects the measure k/(2 pi) or k^2/(2 pi^2).

    Returns
    -------
    float
        sigma_n^2, non-negative.

    Raises
    ------
    DivergenceError
        If the integral diverges at either limit (power-law growth not tamed
        by a cutoff or by the smoothing window).
    DomainError
        On a bad argument, or if sigma_n^2 or a factor of it overflows a float.
        A value below the float range comes back as 0.0.
    """
    if dim not in (2, 3):
        raise DomainError(f"dim must be 2 or 3, got {dim}")
    if n < 0:
        raise DomainError("moment order n must be >= 0")
    check_rs(rs)
    if not kmin < kmax:
        raise DomainError(f"require kmin < kmax, got [{kmin}, {kmax}]")
    if kmin < 0:
        raise DomainError("kmin must be >= 0")

    lo = kmin
    hi = kmax
    if model.k_low_cutoff is not None:
        lo = max(lo, model.k_low_cutoff)
    if model.k_high_cutoff is not None:
        hi = min(hi, model.k_high_cutoff)
    if not lo < hi or model.amplitude == 0.0:
        return 0.0

    # integrand ~ k^p * exp(-k^2 rs^2) near the limits
    p = dim - 1 + 2 * n + model.alpha
    if lo == 0.0 and p <= -1:
        raise DivergenceError(
            f"sigma_{n}^2 diverges at the lower limit k -> 0 "
            f"(integrand ~ k^{p:g} with kmin = 0)"
        )
    if math.isinf(hi) and rs == 0.0 and p >= -1:
        raise DivergenceError(
            f"sigma_{n}^2 diverges at the upper limit k -> inf "
            f"(integrand ~ k^{p:g} with rs = 0 and no high cutoff)"
        )

    coef = 1.0 / (2.0 * math.pi**2) if dim == 3 else 1.0 / (2.0 * math.pi)
    try:  # Python floats: an overflow raises or shows as inf, never as a numpy warning
        x1 = hi * rs * (hi * rs)  # t = (k rs)^2 by products: a squared 1e200 is inf
        if rs == 0.0 or x1 < 2.0**-53:  # the window exp(-t) is 1 to double precision
            value = _power_band(p + 1, lo, hi)
        else:
            value = _gamma_band((p + 1) / 2, lo * rs * (lo * rs), x1) * rs ** -(p + 1) / 2
        value *= coef * model.amplitude
    except ArithmeticError:
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(
            f"sigma_{n}^2 or a factor of it overflows a float (alpha = {model.alpha}, rs = {rs})"
        )
    return value


def _power_band(s: float, x0: float, x1: float) -> float:
    """int_{x0}^{x1} t^(s-1) dt = (x1^s - x0^s) / s, for 0 <= x0 <= x1 <= inf.

    Between finite ends > 0 it is span x^s expm1(z) / z, with span =
    log(x1 / x0), z = -|s| span and x the end of the larger power: exact as s
    nears 0, where it is span.
    """
    if x0 == 0.0 or math.isinf(x1):  # the power vanishes at one end: nothing cancels
        return (x1**s - x0**s) / s
    span = math.log(x1) - math.log(x0)
    z = -abs(s) * span
    return span * (x1 if s > 0 else x0) ** s * (math.expm1(z) / z if z else 1.0)


def _upper_gamma(a: float, x: float) -> float:
    """Gamma(a, x) for a <= 0 and x >= 1 from Legendre's continued fraction,
    whose 80 levels give it to 2e-13 at every x >= 1 and -5000 <= a <= 0."""
    f = 0.0
    for i in range(80, 0, -1):
        f = i * (i - a) / (x + 2 * i + 1 - a - f)
    return x**a * math.exp(-x) / (x + 1 - a - f)


def _gamma_band(a: float, x0: float, x1: float) -> float:
    """int_{x0}^{x1} t^(a-1) e^(-t) dt for 0 <= x0 <= x1 <= inf, with x0 > 0 when a <= 0.

    Over t <= 1 it is the series of e^-t, whose terms are `_power_band`s that
    no integer a makes singular; 20 terms leave under e / 20! of the sum.
    Over t >= 1 it is `_upper_gamma` at the ends for a <= 0, and for a > 0
    Gamma(a) times a difference of regularized incomplete Gamma functions:
    the lower ones when the band starts below the median, else the upper
    ones, so no two values near 1 cancel.
    """
    near = 0.0
    if x0 < 1.0:
        top = min(x1, 1.0)
        near = sum((-1) ** k * _power_band(a + k, x0, top) / math.factorial(k) for k in range(20))
        x0 = 1.0
    if x1 <= x0:
        return near
    if a <= 0:
        return near + _upper_gamma(a, x0) - _upper_gamma(a, x1)
    from scipy import special  # loaded on first use: the ensemble path never needs it

    q0 = special.gammaincc(a, x0)
    if q0 > 0.5:
        far = special.gammainc(a, x1) - special.gammainc(a, x0)
    else:
        far = q0 - special.gammaincc(a, x1)
    return near + float(special.gamma(a)) * float(far)


def packing_fraction(r_c: float, L: float, dim: int) -> float:
    """Number of r_c-sized structures fitting in a d-dimensional box: (L/r_c)^d."""
    if not (r_c > 0 and L > 0):
        raise DomainError("packing_fraction requires r_c > 0 and L > 0")
    if dim not in (2, 3):
        raise DomainError(f"dim must be 2 or 3, got {dim}")
    try:
        return (L / r_c) ** dim
    except OverflowError as exc:  # a Python float power raises where numpy gives inf
        raise DomainError(f"(L / r_c)^{dim} overflows a float (L = {L}, r_c = {r_c})") from exc


def spectral_params(
    model: PowerSpectrumModel,
    rs: float,
    L: float,
    dim: int,
    kmax: float | None = None,
) -> SpectralParams:
    """Bundle sigma0, sigma1, r_c and q for one observation setup.

    The finite field of view enters as a hard low cutoff kmin = 2 pi / L, and
    L = inf is the plane; the high cutoff is the intrinsic one, the
    caller-supplied ``kmax`` cap (e.g. a grid Nyquist frequency pi * N / L), or
    the smoothing window, whichever bites first.
    """
    if not L > 0:
        raise DomainError(f"box size L must be > 0, got {L}")
    kmin = 0.0 if math.isinf(L) else 2.0 * math.pi / L
    hi = math.inf if kmax is None else kmax
    s0 = spectral_moment(model, 0, rs, kmin, hi, dim)
    s1 = spectral_moment(model, 1, rs, kmin, hi, dim)
    # zero at amplitude 0, or when the window leaves the band below the float range
    if s0 == 0.0:
        raise DegenerateFieldError("sigma_0^2 = 0: field has no variance")
    if s1 == 0.0:
        raise DegenerateFieldError("sigma_1^2 = 0: field has no gradient scale")
    r_c = math.sqrt(s0 / s1)
    q = math.inf if math.isinf(L) else packing_fraction(r_c, L, dim)
    return SpectralParams(sigma0=math.sqrt(s0), sigma1=math.sqrt(s1), r_c=r_c, q=q)
