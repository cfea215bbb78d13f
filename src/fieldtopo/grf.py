"""Periodic Gaussian random field synthesis, smoothing and field I/O.

Fields are realized by spectral synthesis on the real-FFT half lattice
(``numpy.fft.rfftn`` and its inverse): white Gaussian noise is drawn in real
space, transformed, and each Fourier mode is scaled by
sqrt(P(|k|) N^d / L^d) so that the sample variance reproduces the integral of
the power spectrum over the box modes.  Gaussian smoothing is fused into the
same pass, so a smoothed realization costs one forward and one inverse
transform, and its values are a C-contiguous float64 array.  The k = 0
amplitude is zeroed, giving exactly zero-mean realizations.  Identical inputs
give bit-identical fields within one FFT implementation.

The synthesis gain depends only on (model, side, L, dim, rs), so it is
computed once per configuration and kept, read-only, for the next call (one
entry: an ensemble draws every realization from one configuration).  The
forward transform writes into one half-lattice buffer that the gain then
scales in place, the white noise is released before the inverse transform,
and the inverse runs through that buffer in place, so a realization peaks
at the buffer and the output field: about 2.15 field-sized arrays.
"""

from __future__ import annotations

import functools
import json
import math
import struct
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DomainError, FormatError
from .spectrum import PowerSpectrumModel, check_rs, check_type, eval_power

_MAGIC = b"EXTF"
_VERSION = 1
_HEADER = struct.Struct("<4sHHI20x")  # magic, version, dim, side, 20 zero bytes: 32 bytes

Seed = int | Sequence[int]


@dataclass
class FieldGrid:
    """A real scalar field sampled on a periodic square or cubic lattice.

    Values of the wrong shape raise `ConfigError`, and values that are not
    all finite raise `DomainError`.
    """

    dim: int
    side: int
    L: float
    values: np.ndarray
    seed: Seed
    rs_applied: float = 0.0

    def __post_init__(self) -> None:
        # the seed is left as given: `check_type` reads no Sequence[int]
        for name, tp in (("dim", int), ("side", int), ("L", float), ("rs_applied", float)):
            setattr(self, name, check_type(name, getattr(self, name), tp, ConfigError))
        expected = (self.side,) * self.dim
        if self.values.shape != expected:
            raise ConfigError(
                f"values shape {self.values.shape} does not match {expected}"
            )
        if not np.isfinite(self.values).all():
            raise DomainError(f"the field is not finite (L = {self.L}, side = {self.side})")


class FieldMoments(NamedTuple):
    mean: float
    sigma0: float
    sigma1: float


def _k_squared(side: int, L: float, dim: int, drop_nyquist: bool = False) -> np.ndarray:
    """|k|^2 on the real-FFT half lattice, shaped (side, ..., side // 2 + 1).

    Every axis but the last runs over the ``fftfreq`` modes; the last is the
    ``rfftfreq`` half axis 0 ... side // 2.  With ``drop_nyquist`` each axis
    adds 0 at its own Nyquist index (see `sample_moments`); an odd side has
    no Nyquist index, so then nothing is dropped.
    """
    k2 = 0.0
    for axis in range(dim):
        freq = np.fft.rfftfreq if axis == dim - 1 else np.fft.fftfreq
        k = 2.0 * np.pi * freq(side, d=L / side)
        if drop_nyquist and side % 2 == 0:
            k[side // 2] = 0.0
        k2 = k2 + (k * k).reshape([-1 if i == axis else 1 for i in range(dim)])
    return k2


def _forward(values: np.ndarray) -> np.ndarray:
    """``rfftn`` of a real field, written into one fresh half-lattice buffer."""
    half = values.shape[:-1] + (values.shape[-1] // 2 + 1,)
    return np.fft.rfftn(values, out=np.empty(half, dtype=complex))


@functools.lru_cache(maxsize=1)
def _synthesis_gain(
    model: PowerSpectrumModel, side: int, L: float, dim: int, rs: float
) -> np.ndarray:
    """The read-only half-lattice gain sqrt(P(|k|) N^d / L^d) exp(-k^2 rs^2 / 2).

    The k = 0 entry is 0.  A box volume L^d that overflows a float raises
    `DomainError`; a gain that overflows shows as non-finite entries.
    """
    try:
        volume = float(L) ** dim  # a Python float power: np.errstate does not cover it
    except OverflowError as exc:
        raise DomainError(f"the box volume L^{dim} overflows a float (L = {L})") from exc
    with np.errstate(all="ignore"):
        k2 = _k_squared(side, L, dim)
        gain = np.zeros_like(k2)
        live = k2 > 0
        gain[live] = np.sqrt(eval_power(model, np.sqrt(k2[live])) * side**dim / volume)
        gain *= np.exp(-0.5 * k2 * rs * rs)
    gain.flags.writeable = False
    return gain


def _filter(spec: np.ndarray, gain: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Scale half-lattice modes in place by a real gain; return the real field of ``shape``.

    The inverse transform is ``irfftn``'s, axis by axis in its order: ``ifft``
    over each leading axis in place, then ``irfft`` over the half axis into
    the field, so it allocates no complex temporary.
    """
    spec *= gain
    for axis in range(len(shape) - 1):
        np.fft.ifft(spec, axis=axis, out=spec)
    return np.fft.irfft(spec, n=shape[-1], axis=-1)


def generate(
    model: PowerSpectrumModel,
    side: int,
    L: float,
    dim: int,
    seed: Seed,
    rs: float = 0.0,
) -> FieldGrid:
    """Draw one periodic Gaussian realization of the given spectrum, smoothed by ``rs``.

    One real-FFT pass: the white noise is transformed with ``rfftn``, each
    mode of the half lattice is scaled by sqrt(P(|k|) N^d / L^d) and by the
    Gaussian window exp(-k^2 rs^2 / 2), and ``irfftn``'s inverse, run in
    place, returns the field as a C-contiguous float64 array.  The result
    equals ``smooth(generate(..., rs=0), rs)`` to rounding.

    Parameters
    ----------
    model : PowerSpectrumModel
    side : int
        Pixels per axis; an int that is a power of two >= 32, else `ConfigError`.
        A grid that numpy cannot allocate raises `DomainError`.
    L : float
        Physical box size; a real number, finite and > 0.  A box whose volume
        L^d overflows a float, or a field that is not all finite (the
        amplitude or side^d / L^d overflowed), raises `DomainError`.
    dim : int
        The int 2 or 3.
    seed : int or sequence of int
        Seeds the generator: an integer >= 0 or a non-empty tuple or list of
        them, else `DomainError`; an ensemble should pass (master_seed, index)
        so realizations are reproducible independently of scheduling.  The
        field stores it as a Python int or a tuple of them.
    rs : float
        Gaussian smoothing length, a real number, finite and >= 0; 0 leaves the
        field unsmoothed.  A dim, L or rs outside these raises `DomainError`.
    """
    dim = check_type("dim", dim, int, DomainError)
    if dim not in (2, 3):
        raise DomainError(f"dim must be 2 or 3, got {dim}")
    side = check_type("side", side, int, ConfigError)
    if side < 32 or side & (side - 1) != 0:
        raise ConfigError(f"grid side must be a power of two >= 32, got {side}")
    L = check_type("L", L, float, DomainError)
    if not (math.isfinite(L) and L > 0):
        raise DomainError(f"box size must be finite and positive, got {L}")
    rs = check_type("rs", rs, float, DomainError)
    check_rs(rs)
    parts = seed if isinstance(seed, (tuple, list)) else (seed,)
    if not parts or not all(
        isinstance(p, (int, np.integer)) and not isinstance(p, bool) and p >= 0 for p in parts
    ):
        raise DomainError(f"seed must be an int >= 0 or a non-empty list of them, got {seed!r}")
    seed = tuple(map(int, parts)) if isinstance(seed, (tuple, list)) else int(seed)

    rng = np.random.default_rng(seed)
    try:
        white = rng.standard_normal((side,) * dim)
    except (ValueError, MemoryError) as exc:  # numpy refuses a grid it cannot allocate
        raise DomainError(f"cannot allocate a {dim}D grid of side {side}: {exc}") from exc
    spec = _forward(white)
    del white  # freed before the inverse transform allocates its buffers
    gain = _synthesis_gain(model, side, L, dim, rs)
    with np.errstate(all="ignore"):  # an overflow gives a non-finite field: FieldGrid refuses it
        values = _filter(spec, gain, (side,) * dim)
    return FieldGrid(dim=dim, side=side, L=L, values=values, seed=seed, rs_applied=rs)


def smooth(field: FieldGrid, rs: float) -> FieldGrid:
    """Convolve a stored field with a Gaussian kernel of scale ``rs`` (in Fourier space).

    The k = 0 mode is untouched, so the mean is preserved; rs = 0 returns an
    identical copy.  Repeated smoothing composes in quadrature:
    smooth(smooth(f, a), b) == smooth(f, sqrt(a^2 + b^2)).  A field drawn by
    `generate` takes its smoothing there, in the same transform pass.
    """
    check_rs(rs)
    if rs == 0.0:
        return replace(field, values=field.values.copy())
    with np.errstate(over="ignore"):  # an overflowing k^2 rs^2 gives the window 0 there
        window = np.exp(-0.5 * _k_squared(field.side, field.L, field.dim) * rs * rs)
    values = _filter(_forward(field.values), window, field.values.shape)
    total = float(np.hypot(field.rs_applied, rs))
    return replace(field, values=values, rs_applied=total)


def sample_sigma0(field: FieldGrid) -> float:
    """The standard deviation of a field's samples.  One that is not finite,
    as finite samples near the float range make it, raises `DomainError`."""
    with np.errstate(over="ignore", invalid="ignore"):
        sigma0 = float(field.values.std())
    if not math.isfinite(sigma0):
        raise DomainError(f"sigma0 overflows a float, or a sample is not finite ({sigma0})")
    return sigma0


def sample_moments(field: FieldGrid) -> FieldMoments:
    """Empirical mean, standard deviation and RMS gradient of one realization.

    The mean and sigma0 are taken in real space.  The gradient is spectral
    (modes multiplied by i k), so by Parseval sigma1^2 is the sum over the
    modes of |k|^2 |F_k|^2 / N^2, read off one ``rfftn``: the columns of the
    half axis past the first stand for two modes each, except the last one
    of an even side.  There, and at every other Nyquist index of an even
    axis d, the mode carries no d-gradient: i k_d F_k is anti-Hermitian
    there, so the real gradient field has no such mode.  An odd side has no
    Nyquist index.  A sigma0 that overflows a float (see `sample_sigma0`), or
    a sigma1 that does, as a tiny box's wavenumbers make it, raises `DomainError`.
    """
    values = field.values
    sigma0 = sample_sigma0(field)  # first: a finite sigma0 leaves the mean finite too
    mean = float(values.mean())
    # square the spectrum in place: re^2 and im^2 alternate in its float view
    v = _forward(values).view(float)
    np.multiply(v, v, out=v)
    power = v[..., 0::2] + v[..., 1::2]
    del v
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows as sigma1 below
        # the weight of each half-axis column is 1 or 2, so folding it into k2
        # changes no product
        k2 = _k_squared(field.side, field.L, field.dim, drop_nyquist=True)
        k2[..., 1 : None if field.side % 2 else -1] *= 2.0
        power *= k2
        sigma1 = math.sqrt(float(np.sum(power))) / values.size
    if not math.isfinite(sigma1):
        raise DomainError(f"sigma1 overflows a float (L = {field.L}, side = {field.side})")
    return FieldMoments(mean=mean, sigma0=sigma0, sigma1=sigma1)


def save_field(field: FieldGrid, path: str | Path) -> None:
    """Write the binary field dump plus its JSON sidecar.

    Layout: 32-byte header (magic ``EXTF``, version u16, dim u16, side u32,
    zero padding), then the samples as little-endian float64 in row-major
    order.  Box size, applied smoothing and seed go to ``<path>.json``.
    """
    path = Path(path)
    sidecar = {"L": field.L, "rs_applied": field.rs_applied, "seed": field.seed}
    # built before either file opens, so a value JSON refuses leaves no file behind
    sidecar_text = json.dumps(sidecar, indent=2, sort_keys=True) + "\n"
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, field.dim, field.side))
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())
    path.with_name(path.name + ".json").write_text(sidecar_text)


def load_field(path: str | Path) -> FieldGrid:
    """Read a binary field dump written by :func:`save_field`.

    A missing sidecar is tolerated (L defaults to the grid side, seed to -1).
    A wrong-sized body, an empty grid, a sample that is not finite, or a
    sidecar whose L is not finite and > 0 or whose ``rs_applied`` is not finite
    and >= 0, raises `FormatError`.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise FormatError(f"{path}: truncated header")
        magic, version, dim, side = _HEADER.unpack(raw)
        if magic != _MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        if version != _VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        if dim not in (2, 3):
            raise FormatError(f"{path}: bad dimension {dim}")
        if side == 0:
            raise FormatError(f"{path}: empty grid (side 0)")
        body = fh.read()
    if len(body) != 8 * side**dim:
        raise FormatError(f"{path}: expected {side**dim} samples, found {len(body)} bytes")
    values = np.frombuffer(body, dtype="<f8").reshape((side,) * dim).copy()

    L, rs_applied, seed = float(side), 0.0, -1
    sidecar_path = path.with_name(path.name + ".json")
    if sidecar_path.exists():
        with open(sidecar_path) as fh:
            try:
                sidecar = json.load(fh)
                if not isinstance(sidecar, dict):
                    raise ValueError("not a JSON object")
                L = float(sidecar.get("L", L))
                if not (math.isfinite(L) and L > 0):
                    raise ValueError(f"box size L must be finite and > 0, got {L}")
                rs_applied = float(sidecar.get("rs_applied", 0.0))
                check_rs(rs_applied)
            except (ValueError, TypeError, DomainError) as exc:
                raise FormatError(f"{sidecar_path}: malformed sidecar: {exc}") from exc
        seed = sidecar.get("seed", -1)
        if isinstance(seed, list):
            seed = tuple(seed)
    try:
        return FieldGrid(dim=dim, side=side, L=L, values=values, seed=seed, rs_applied=rs_applied)
    except DomainError as exc:  # a non-finite sample
        raise FormatError(f"{path}: {exc}") from exc
