"""Periodic lattice fields and the spectral helpers built on them.

Fields live on a periodic lattice with a power-of-two number of points per
axis, which keeps the dyadic frequency shells used by the Hoelder proxy norm
exact.  The spectral convention throughout the package is the plain FFT pair:
forward transform unscaled, inverse scaled by 1/N.  The public helpers use
the full complex spectrum; the proxy norm and the solver transform real
fields on the half spectrum (``_real_transform``), whose last axis keeps
the frequencies 0..n/2.

All value types here are immutable; operations return new objects and are
safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "MollifierSpec",
    "spectral_transform",
    "spectral_inverse",
    "holder_proxy_norm",
    "mollify",
    "l2_norm",
]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Periodic lattice: ``dim`` axes, ``n`` points per axis, period ``extent``."""

    dim: int
    n: int
    extent: tuple[float, ...]

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if not _is_power_of_two(self.n) or self.n < 8:
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")
        ext = self.extent
        if isinstance(ext, (int, float)):
            ext = (float(ext),) * self.dim
        ext = tuple(float(e) for e in ext)
        if len(ext) != self.dim or any(e <= 0 for e in ext):
            raise ValueError(f"extent must be {self.dim} positive lengths, got {self.extent}")
        object.__setattr__(self, "extent", ext)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def total_points(self) -> int:
        return self.n**self.dim

    @property
    def cell_volume(self) -> float:
        return math.prod(e / self.n for e in self.extent)

    @property
    def volume(self) -> float:
        return math.prod(self.extent)

    def spacing(self, axis: int = 0) -> float:
        return self.extent[axis] / self.n

    def axes(self) -> list[np.ndarray]:
        """Cell coordinates per axis (left endpoints)."""
        return [np.arange(self.n) * self.spacing(i) for i in range(self.dim)]

    def frequencies(self) -> list[np.ndarray]:
        """Integer frequency per axis in FFT order, in [-n/2, n/2)."""
        k = np.arange(self.n)
        k[k > self.n // 2] -= self.n
        return [k.copy() for _ in range(self.dim)]

    def wavenumbers_sq(self) -> np.ndarray:
        """|2 pi k / L|^2 on the full mode grid (heat symbol)."""
        out = np.zeros(self.shape)
        for axis, (k, ext) in enumerate(zip(self.frequencies(), self.extent)):
            shape = [1] * self.dim
            shape[axis] = self.n
            out = out + (2.0 * np.pi * k.reshape(shape) / ext) ** 2
        return out


@dataclass(frozen=True)
class Field:
    """Real lattice function with ``m >= 1`` components, shape (m, n, ..)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim == self.grid.dim:
            vals = vals[None]
        if vals.shape[1:] != self.grid.shape or vals.ndim != self.grid.dim + 1:
            raise ValueError(f"values shape {vals.shape} incompatible with grid {self.grid.shape}")
        if vals.shape[0] < 1:
            raise ValueError("need at least one component")
        if not np.isfinite(vals).all():
            raise ValueError("field values must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @classmethod
    def zeros(cls, grid: Grid, m: int = 1) -> "Field":
        return cls(grid, np.zeros((m,) + grid.shape))

    @classmethod
    def constant(cls, grid: Grid, value: float, m: int = 1) -> "Field":
        return cls(grid, np.full((m,) + grid.shape, float(value)))

    @classmethod
    def from_function(cls, grid: Grid, fn, m: int = 1) -> "Field":
        """Sample ``fn(*coords)`` on the lattice; fn may return (m, ...) or (...)."""
        mesh = np.meshgrid(*grid.axes(), indexing="ij")
        vals = np.asarray(fn(*mesh), dtype=np.float64)
        if vals.ndim == grid.dim:
            vals = np.broadcast_to(vals[None], (m,) + grid.shape)
        return cls(grid, vals)

    def __add__(self, other: "Field") -> "Field":
        self._check_compat(other)
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        self._check_compat(other)
        return Field(self.grid, self.values - other.values)

    def __mul__(self, c: float) -> "Field":
        return Field(self.grid, self.values * float(c))

    __rmul__ = __mul__

    def _check_compat(self, other: "Field"):
        if other.grid != self.grid or other.m != self.m:
            raise ValueError("fields live on different grids or component counts")


@dataclass(frozen=True)
class MollifierSpec:
    """Smoothing kernel acting as a Fourier multiplier; only 'gaussian' is shipped."""

    kind: str = "gaussian"

    def __post_init__(self):
        if self.kind != "gaussian":
            raise ValueError(f"unknown mollifier kind {self.kind!r}")

    def multiplier(self, grid: Grid, eps: float) -> np.ndarray:
        """Mode-space damping factors for scale ``eps``."""
        arg = np.zeros(grid.shape)
        for axis, (k, ext) in enumerate(zip(grid.frequencies(), grid.extent)):
            shape = [1] * grid.dim
            shape[axis] = grid.n
            arg = arg + (2.0 * np.pi * k.reshape(shape) * eps / ext) ** 2
        return np.exp(-0.5 * arg)


def _spatial_axes(grid: Grid) -> tuple[int, ...]:
    return tuple(range(-grid.dim, 0))


def spectral_transform(f: Field) -> np.ndarray:
    """Forward FFT of every component, unscaled."""
    return np.fft.fftn(f.values, axes=_spatial_axes(f.grid))


def spectral_inverse(modes: np.ndarray, grid: Grid) -> Field:
    """Inverse FFT (scaled by 1/N); imaginary round-off is discarded."""
    modes = np.asarray(modes)
    if modes.ndim == grid.dim:
        modes = modes[None]
    vals = np.fft.ifftn(modes, axes=_spatial_axes(grid)).real
    return Field(grid, vals)


def _half_spectrum(a: np.ndarray, n: int) -> np.ndarray:
    """The entries of a full-spectrum array (last axis in FFT order) that a
    real transform keeps: frequencies 0..n/2 on the last axis."""
    return a[..., :n // 2 + 1]


def _real_transform(values: np.ndarray, grid: Grid, out: np.ndarray | None = None) -> np.ndarray:
    """Forward transform of real fields over the trailing grid axes, unscaled,
    on the half spectrum; written into ``out`` when given (same bits)."""
    if grid.dim == 1:
        return np.fft.rfft(values, axis=-1, out=out)
    return np.fft.rfftn(values, axes=_spatial_axes(grid), out=out)


def _real_inverse(modes: np.ndarray, grid: Grid, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of ``_real_transform`` (scaled by 1/N): real fields on the grid,
    written into ``out`` when given (same bits)."""
    if grid.dim == 1:
        return np.fft.irfft(modes, n=grid.n, axis=-1, out=out)
    return np.fft.irfftn(modes, s=grid.shape, axes=_spatial_axes(grid), out=out)


@lru_cache(maxsize=32)
def _dyadic_masks(dim: int, n: int) -> np.ndarray:
    """Boolean shell masks on the half spectrum, shape (n_shells, .., n//2 + 1):
    shell 0 is |k| <= 1, shell j is 2^(j-1) < |k| <= 2^j in the max norm."""
    k = np.arange(n)
    k[k > n // 2] -= n
    mag = np.abs(k)
    if dim == 2:
        mag = np.maximum(mag[:, None], mag[None, :])
    mag = _half_spectrum(mag, n)
    n_shells = int(math.log2(n // 2)) + 1
    masks = np.zeros((n_shells,) + mag.shape, dtype=bool)
    masks[0] = mag <= 1
    for j in range(1, n_shells):
        masks[j] = (mag > 2 ** (j - 1)) & (mag <= 2**j)
    return masks


def holder_proxy_norm(f: Field, alpha: float) -> float:
    """Dyadic-shell proxy for the C^alpha norm.

    Splits the modes into shells of comparable frequency, weights shell j by
    2^(j*alpha) and returns the largest weighted block sup-norm.  Exactly
    homogeneous of degree one, and within a constant of the sup-norm of any
    single harmonic at alpha = 0.
    """
    if abs(alpha) >= 2:
        raise ValueError(f"|alpha| must be < 2, got {alpha}")
    grid = f.grid
    masks = _dyadic_masks(grid.dim, grid.n)
    modes = _real_transform(f.values, grid)
    # one batched inverse transform over (shell, component) pairs
    stacked = masks[:, None, ...] * modes[None, ...]
    blocks = _real_inverse(stacked, grid)
    return float(_weighted_block_sup(blocks[None], _shell_weights(alpha, masks.shape[0]))[0])


def _shell_weights(alpha: float, n_shells: int) -> np.ndarray:
    return 2.0 ** (alpha * np.arange(n_shells))


def _weighted_block_sup(blocks: np.ndarray, weights: np.ndarray,
                        out: np.ndarray | None = None) -> np.ndarray:
    """Proxy norm of each row of real shell blocks (B, n_shells, m, *grid): the
    largest over shells j of weights[j] times the block's sup-norm, shape (B,).
    ``out``, a contiguous array of the blocks' shape, holds the weighted
    entries when given.

    Rounding is monotone, so a positive weight times a block's largest entry
    is the largest of its weighted entries, bit for bit: each row is reduced
    in one pass."""
    weighted = np.abs(blocks, out=out)
    weighted *= weights.reshape((-1,) + (1,) * (blocks.ndim - 2))
    return weighted.reshape(blocks.shape[0], -1).max(axis=1)


def mollify(f: Field, eps: float, kernel: MollifierSpec = MollifierSpec()) -> Field:
    """Apply the smoothing multiplier at scale ``eps``; eps = 0 is the identity."""
    if eps < 0:
        raise ValueError("eps must be >= 0")
    if eps == 0.0:
        return f
    mult = kernel.multiplier(f.grid, eps)
    return spectral_inverse(spectral_transform(f) * mult, f.grid)


def l2_norm(f: Field) -> float:
    """Cell-volume weighted L2 norm over all components."""
    return math.sqrt(f.grid.cell_volume * float(np.sum(f.values * f.values)))
