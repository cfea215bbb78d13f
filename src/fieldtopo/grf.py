"""Periodic Gaussian random field synthesis, smoothing and field I/O.

Fields are realized by spectral synthesis: white Gaussian noise is drawn in
real space, transformed, and each Fourier mode is scaled by
sqrt(P(|k|) N^d / L^d) so that the sample variance reproduces the integral of
the power spectrum over the box modes.  The k = 0 amplitude is zeroed, giving
exactly zero-mean realizations.  Identical inputs give bit-identical fields.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DomainError, FormatError
from .spectrum import PowerSpectrumModel, eval_power

_MAGIC = b"EXTF"
_VERSION = 1
_HEADER = struct.Struct("<4sHHI")  # magic, version, dim, side; padded to 32 bytes
_HEADER_SIZE = 32

Seed = int | Sequence[int]


@dataclass
class FieldGrid:
    """A real scalar field sampled on a periodic square or cubic lattice."""

    dim: int
    side: int
    L: float
    values: np.ndarray
    seed: Seed
    rs_applied: float = 0.0

    def __post_init__(self) -> None:
        expected = (self.side,) * self.dim
        if self.values.shape != expected:
            raise ConfigError(
                f"values shape {self.values.shape} does not match {expected}"
            )

    @property
    def pixel_size(self) -> float:
        return self.L / self.side


class FieldMoments(NamedTuple):
    mean: float
    sigma0: float
    sigma1: float


def _k_squared(side: int, L: float, dim: int) -> np.ndarray:
    """|k|^2 on the FFT mode lattice, broadcast to the full grid shape."""
    k1 = 2.0 * np.pi * np.fft.fftfreq(side, d=L / side)
    axes = []
    for d in range(dim):
        shape = [1] * dim
        shape[d] = side
        axes.append((k1**2).reshape(shape))
    out = axes[0]
    for a in axes[1:]:
        out = out + a
    return out


def generate(
    model: PowerSpectrumModel, side: int, L: float, dim: int, seed: Seed
) -> FieldGrid:
    """Draw one periodic Gaussian realization of the given spectrum.

    Parameters
    ----------
    model : PowerSpectrumModel
    side : int
        Pixels per axis; must be a power of two >= 32.
    L : float
        Physical box size.
    dim : int
        2 or 3.
    seed : int or sequence of int
        Seeds the generator; an ensemble should pass (master_seed, index) so
        realizations are reproducible independently of scheduling.
    """
    if dim not in (2, 3):
        raise DomainError(f"dim must be 2 or 3, got {dim}")
    if side < 32 or side & (side - 1) != 0:
        raise ConfigError(f"grid side must be a power of two >= 32, got {side}")
    if L <= 0:
        raise DomainError(f"box size must be positive, got {L}")

    rng = np.random.default_rng(seed)
    white = rng.standard_normal((side,) * dim)

    k2 = _k_squared(side, L, dim)
    amp = np.zeros_like(k2)
    mask = k2 > 0
    amp[mask] = np.sqrt(eval_power(model, np.sqrt(k2[mask])) * side**dim / L**dim)

    values = np.fft.ifftn(np.fft.fftn(white) * amp).real
    return FieldGrid(dim=dim, side=side, L=L, values=values, seed=seed, rs_applied=0.0)


def smooth(field: FieldGrid, rs: float) -> FieldGrid:
    """Convolve with a Gaussian kernel of scale ``rs`` (in Fourier space).

    The k = 0 mode is untouched, so the mean is preserved; rs = 0 returns an
    identical copy.  Repeated smoothing composes in quadrature:
    smooth(smooth(f, a), b) == smooth(f, sqrt(a^2 + b^2)).
    """
    if rs < 0:
        raise DomainError(f"smoothing length must be >= 0, got {rs}")
    if rs == 0.0:
        return replace(field, values=field.values.copy())
    k2 = _k_squared(field.side, field.L, field.dim)
    window = np.exp(-0.5 * k2 * rs * rs)
    values = np.fft.ifftn(np.fft.fftn(field.values) * window).real
    total = float(np.hypot(field.rs_applied, rs))
    return replace(field, values=values, rs_applied=total)


def sample_moments(field: FieldGrid) -> FieldMoments:
    """Empirical mean, standard deviation and RMS gradient of one realization.

    The gradient is taken spectrally (modes multiplied by i k), consistent
    with the periodic synthesis.
    """
    values = field.values
    mean = float(values.mean())
    sigma0 = float(values.std())
    spec = np.fft.fftn(values)
    k1 = 2.0 * np.pi * np.fft.fftfreq(field.side, d=field.pixel_size)
    grad_sq = np.zeros_like(values)
    for d in range(field.dim):
        shape = [1] * field.dim
        shape[d] = field.side
        g = np.fft.ifftn(spec * (1j * k1.reshape(shape))).real
        grad_sq += g * g
    sigma1 = float(np.sqrt(grad_sq.mean()))
    return FieldMoments(mean=mean, sigma0=sigma0, sigma1=sigma1)


def save_field(field: FieldGrid, path: str | Path) -> None:
    """Write the binary field dump plus its JSON sidecar.

    Layout: 32-byte header (magic ``EXTF``, version u16, dim u16, side u32,
    zero padding), then the samples as little-endian float64 in row-major
    order.  Box size, applied smoothing and seed go to ``<path>.json``.
    """
    path = Path(path)
    header = _HEADER.pack(_MAGIC, _VERSION, field.dim, field.side)
    header += b"\x00" * (_HEADER_SIZE - len(header))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())
    sidecar = {
        "L": field.L,
        "rs_applied": field.rs_applied,
        "seed": list(field.seed) if isinstance(field.seed, (tuple, list)) else field.seed,
    }
    with open(path.with_name(path.name + ".json"), "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_field(path: str | Path) -> FieldGrid:
    """Read a binary field dump written by :func:`save_field`.

    A missing sidecar is tolerated (L defaults to the grid side, seed to -1).
    """
    path = Path(path)
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER_SIZE)
        if len(raw) < _HEADER_SIZE:
            raise FormatError(f"{path}: truncated header")
        magic, version, dim, side = _HEADER.unpack(raw[: _HEADER.size])
        if magic != _MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        if version != _VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        if dim not in (2, 3):
            raise FormatError(f"{path}: bad dimension {dim}")
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != side**dim:
        raise FormatError(
            f"{path}: expected {side**dim} samples, found {data.size}"
        )
    n_bad = data.size - np.count_nonzero(np.isfinite(data))
    if n_bad:
        raise FormatError(f"{path}: {n_bad} non-finite samples")
    values = data.reshape((side,) * dim).copy()

    L, rs_applied, seed = float(side), 0.0, -1
    sidecar_path = path.with_name(path.name + ".json")
    if sidecar_path.exists():
        with open(sidecar_path) as fh:
            try:
                sidecar = json.load(fh)
                if not isinstance(sidecar, dict):
                    raise ValueError("not a JSON object")
                L = float(sidecar.get("L", L))
                rs_applied = float(sidecar.get("rs_applied", 0.0))
            except (ValueError, TypeError) as exc:
                raise FormatError(f"{sidecar_path}: malformed sidecar: {exc}") from exc
        seed = sidecar.get("seed", -1)
        if isinstance(seed, list):
            seed = tuple(seed)
    return FieldGrid(dim=dim, side=side, L=L, values=values, seed=seed, rs_applied=rs_applied)
