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

#: relative tolerance of the adaptive moment quadrature
QUAD_RTOL = 1e-8


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
    """Compute sigma_n^2 of the smoothed field by adaptive quadrature.

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
    if math.isinf(hi):
        if rs == 0.0:
            if p >= -1:
                raise DivergenceError(
                    f"sigma_{n}^2 diverges at the upper limit k -> inf "
                    f"(integrand ~ k^{p:g} with rs = 0 and no high cutoff)"
                )
        else:
            # Gaussian window decays fast; truncate where the integrand has
            # dropped below ~1e-16 of its peak.
            hi = (math.sqrt(max(p, 0.0)) + 7.0) / rs
            if hi <= lo:
                return 0.0

    coef = 1.0 / (2.0 * math.pi**2) if dim == 3 else 1.0 / (2.0 * math.pi)
    amp = model.amplitude
    rs2 = rs * rs

    def integrand(k: float) -> float:
        return amp * k**p * math.exp(-k * k * rs2)

    from scipy import integrate  # loaded on first use: the ensemble path never integrates

    value, _ = integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=QUAD_RTOL, limit=200)
    return coef * value


def packing_fraction(r_c: float, L: float, dim: int) -> float:
    """Number of r_c-sized structures fitting in a d-dimensional box: (L/r_c)^d."""
    if not (r_c > 0 and L > 0):
        raise DomainError("packing_fraction requires r_c > 0 and L > 0")
    if dim not in (2, 3):
        raise DomainError(f"dim must be 2 or 3, got {dim}")
    return (L / r_c) ** dim


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
    if s1 == 0.0:
        raise DegenerateFieldError("sigma_1^2 = 0: field has no gradient scale")
    r_c = math.sqrt(s0 / s1)
    q = math.inf if math.isinf(L) else packing_fraction(r_c, L, dim)
    return SpectralParams(sigma0=math.sqrt(s0), sigma1=math.sqrt(s1), r_c=r_c, q=q)
