"""Periodic lattice fields and the spectral helpers built on them.

Fields live on a periodic lattice with a power-of-two number of points per
axis, which keeps the dyadic frequency shells used by the Hoelder proxy norm
exact.  The spectral convention throughout the package is the plain FFT pair:
forward transform unscaled, inverse scaled by 1/N.  The public helpers use
the full complex spectrum; the proxy norm and the solver transform real
fields on the half spectrum (``_transforms``), whose last axis keeps the
frequencies 0..n/2.  They call numpy's pocketfft gufuncs directly once
a check on first use finds them bit-identical to the public wrappers, and
the wrappers on any mismatch or error.

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
        # the largest |2 pi k / L|^2 (k = n/2 on every axis) as wavenumbers_sq rounds it
        top = [2.0 * math.pi * (self.n // 2) * 1.0 / e for e in ext if 0 < e < math.inf]
        if (len(ext) != self.dim or len(top) != self.dim or not sum(k * k for k in top) < math.inf
                or not 0 < math.prod(e / self.n for e in ext) < math.inf):
            raise ValueError(f"extent must be {self.dim} finite lengths > 0 with a finite cell "
                             f"volume > 0 and finite squared wavenumbers over n = {self.n}, "
                             f"got {self.extent}")
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
        """Integer frequency per axis in FFT order, in (-n/2, n/2]: the
        Nyquist mode is +n/2, so n = 8 gives 0, 1, 2, 3, 4, -3, -2, -1."""
        k = np.arange(self.n)
        k[k > self.n // 2] -= self.n
        return [k.copy() for _ in range(self.dim)]

    def wavenumbers_sq(self) -> np.ndarray:
        """|2 pi k / L|^2 on the full mode grid (heat symbol)."""
        return _scaled_wavenumbers_sq(self, 1.0)


def _scaled_wavenumbers_sq(grid: Grid, scale: float) -> np.ndarray:
    """|2 pi k scale / L|^2 summed over the axes, on the full mode grid."""
    out = np.zeros(grid.shape)
    for axis, (k, ext) in enumerate(zip(grid.frequencies(), grid.extent)):
        shape = [1] * grid.dim
        shape[axis] = grid.n
        out = out + (2.0 * np.pi * k.reshape(shape) * scale / ext) ** 2
    return out


def _mode_phase(grid: Grid, mode: float = 1) -> np.ndarray:
    """2 pi mode (x_1/L_1 + .. + x_d/L_d) at the lattice points: the phase of
    the cosine mode ``mode`` along the diagonal."""
    coords = np.meshgrid(*grid.axes(), indexing="ij")
    return sum(2.0 * np.pi * mode * c / e for c, e in zip(coords, grid.extent))


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


def _gaussian_multiplier(grid: Grid, eps: float) -> np.ndarray:
    """Mode-space damping factors of the Gaussian mollifier at scale ``eps``
    (exp(-inf) = 0, the exact limit, for a square past the largest double)."""
    with np.errstate(over="ignore"):
        return np.exp(-0.5 * _scaled_wavenumbers_sq(grid, eps))


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


_PUBLIC = (lambda values, grid, out: np.fft.rfftn(values, axes=_spatial_axes(grid), out=out),
           lambda modes, grid, out, scratch=None: np.fft.irfftn(modes, grid.shape,
                                                                _spatial_axes(grid), out=out))


def _gufunc_pair() -> tuple:
    """The real transforms as the pocketfft gufunc calls of ``np.fft.rfftn`` and
    ``irfftn`` (n even), with the same operands and scale factors.  The
    inverse takes ``scratch`` for a 2D inverse's complex pass: an array like
    ``modes``, or ``modes`` itself when the caller is done with them."""
    from numpy.fft import _pocketfft_umath as pfu
    # the scale factors as 0-d arrays (n is a power of two): the same doubles,
    # without a conversion per call
    one, inv_n = np.array(1.0), {2**k: np.array(2.0**-k) for k in range(3, 31)}

    def forward(values, grid, out):
        if out is None:
            out = np.empty_like(values, shape=values.shape[:-1] + (grid.n // 2 + 1,), dtype=complex)
        pfu.rfft_n_even(values, one, out=out)
        return out if grid.dim == 1 else pfu.fft(out, one, axes=[(-2,), (), (-2,)], out=out)

    def inverse(modes, grid, out, scratch=None):
        fct = inv_n.get(grid.n, 1 / grid.n)
        if grid.dim == 2:
            scratch = np.empty_like(modes) if scratch is None else scratch
            modes = pfu.ifft(modes, fct, axes=[(-2,), (), (-2,)], out=scratch)
        if out is None:
            out = np.empty_like(modes, shape=modes.shape[:-1] + (grid.n,), dtype=float)
        return pfu.irfft(modes, fct, out=out)

    return forward, inverse


@lru_cache(maxsize=1)
def _transforms() -> tuple:
    """(forward, inverse)(array, grid, out): the real transforms over the grid
    axes onto and off the half spectrum, the inverse scaled by 1/N, into
    ``out`` when given (same bits).  The gufunc pair if it gives the wrappers'
    bits on small 1D and 2D batches, else (mismatch or error) ``_PUBLIC``."""
    try:
        direct = _gufunc_pair()
        for grid in (Grid(1, 8, 1.0), Grid(2, 8, 1.0)):
            x = np.cos(np.arange(3 * grid.total_points) * 0.7).reshape((3, 1) + grid.shape)
            modes = direct[0](x, grid, None)
            if not (np.array_equal(modes, _PUBLIC[0](x, grid, None)) and np.array_equal(
                    direct[1](modes, grid, None), _PUBLIC[1](modes, grid, None))):
                return _PUBLIC
        return direct
    except Exception:
        return _PUBLIC


@lru_cache(maxsize=32)
def _dyadic_masks(dim: int, n: int) -> np.ndarray:
    """Boolean shell masks on the half spectrum, shape (n_shells, .., n//2 + 1):
    shell 0 is |k| <= 1, shell j is 2^(j-1) < |k| <= 2^j in the max norm."""
    mag = np.abs(Grid(dim, n, 1.0).frequencies()[0])
    if dim == 2:
        mag = np.maximum(mag[:, None], mag[None, :])
    mag = mag[..., :n // 2 + 1]
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
    return float(_ProxyNorms(f.grid, alpha, f.values.shape, 1)(f.values[None])[0])


class _ProxyNorms:
    """``holder_proxy_norm`` at exponent ``alpha`` of each of up to ``n``
    states (B, m, *grid) of one shape per call, shape (B,), in one batched
    inverse transform over (state, shell, component) triples, with its
    transform buffers and transforms bound once: a caller that norms many
    batches keeps one.  A call on fewer states uses the leading rows of every
    buffer, which gives each state the bits it has alone.  A finite state whose
    norm overflows (to NaN, from inf - inf) is given +inf, over any bound."""

    def __init__(self, grid: Grid, alpha: float, shape: tuple, n: int):
        if abs(alpha) >= 2:
            raise ValueError(f"|alpha| must be < 2, got {alpha}")
        masks = _dyadic_masks(grid.dim, grid.n)
        half = shape[:-1] + (grid.n // 2 + 1,)
        self.grid, self.weights = grid, _shell_weights(alpha, masks.shape[0])
        self.forward, self.inverse = _transforms()
        # a complex copy of the masks multiplies the same bits without a cast per call
        self.masks = masks[:, None, ...].astype(complex)
        self.modes = np.empty((n,) + half, dtype=complex)
        self.shells = np.empty((n,) + masks.shape[:1] + half, dtype=complex)
        self.blocks = np.empty((n,) + masks.shape[:1] + shape)

    def __call__(self, values: np.ndarray) -> np.ndarray:
        k = values.shape[0]
        modes = self.forward(values, self.grid, self.modes[:k])
        shells = np.multiply(self.masks, modes[:, None, ...], out=self.shells[:k])
        blocks = self.inverse(shells, self.grid, self.blocks[:k], shells)
        norms = _weighted_block_sup(blocks, self.weights)
        if np.isnan(norms).any():
            norms[np.isnan(norms) & np.isfinite(values).reshape(k, -1).all(axis=1)] = math.inf
        return norms


def _shell_weights(alpha: float, n_shells: int) -> np.ndarray:
    return 2.0 ** (alpha * np.arange(n_shells))


def _weighted_block_sup(blocks: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Proxy norm of each row of real shell blocks (B, n_shells, m, *grid): the
    largest over shells j of weights[j] times the block's sup-norm, shape (B,).
    The weighted entries overwrite ``blocks``.

    Rounding is monotone, so a positive weight times a block's largest entry
    is the largest of its weighted entries, bit for bit: each row is reduced
    in one pass."""
    weighted = np.abs(blocks, out=blocks)
    weighted *= weights.reshape((-1,) + (1,) * (blocks.ndim - 2))
    return weighted.reshape(blocks.shape[0], -1).max(axis=1)


def mollify(f: Field, eps: float) -> Field:
    """Apply the Gaussian smoothing multiplier at scale ``eps``; eps = 0 is the identity."""
    if eps < 0:
        raise ValueError("eps must be >= 0")
    if eps == 0.0:
        return f
    mult = _gaussian_multiplier(f.grid, eps)
    return spectral_inverse(spectral_transform(f) * mult, f.grid)


def l2_norm(f: Field) -> float:
    """Cell-volume weighted L2 norm over all components."""
    return math.sqrt(f.grid.cell_volume * float(np.sum(f.values * f.values)))
