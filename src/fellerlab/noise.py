"""Space-time white noise paths, shifts, splices and exponential weights.

A :class:`NoisePath` stores the integrated noise increment of every time slice
as a spatial field; entry (k, c, x) is the increment of component c in cell x
over [t_k, t_{k+1}), distributed N(0, dt / cell_volume).

Randomness is counter-based: slice k of stream ``stream`` under ``seed`` is
drawn from its own Philox block (key = (seed, stream), counter offset k), so a
path is reproducible slice by slice whatever other paths are drawn beside it
or in what batch, a prefix of slices is the same whatever the path length,
and increments over disjoint time windows come from independent counter
blocks.

A :class:`ShiftPath` is a deterministic direction for shifting the noise: a
time grid of spatial fields with the units of noise density (field per unit
time), paired against increments through the cell-volume weighted L2 product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import Field, Grid

__all__ = [
    "NoisePath",
    "ShiftPath",
    "sample_white_noise",
    "zero_noise_path",
    "apply_shift",
    "splice",
    "cm_norm_sq",
    "noise_pairing",
    "log_girsanov_weight",
    "girsanov_weight",
]

_TIME_SNAP = 1e-9
_LOG_WEIGHT_CLAMP = 709.0  # exp() overflow threshold for float64


def _snap_index(time: float, dt: float, n_max: int, what: str = "time") -> int:
    k = time / dt
    kr = round(k)
    if abs(k - kr) > _TIME_SNAP or kr < 0 or kr > n_max:
        raise ValueError(f"{what} {time} is not on the dt={dt} grid of {n_max} steps")
    return int(kr)


@dataclass(frozen=True)
class NoisePath:
    grid: Grid
    dt: float
    increments: np.ndarray  # (K, m) + grid.shape
    seed_info: tuple[int, int] | None = None

    def __post_init__(self):
        inc = np.asarray(self.increments, dtype=np.float64)
        if inc.ndim != self.grid.dim + 2 or inc.shape[2:] != self.grid.shape:
            raise ValueError(f"increments shape {inc.shape} incompatible with grid")
        inc = inc.copy()
        inc.setflags(write=False)
        object.__setattr__(self, "increments", inc)

    @property
    def n_steps(self) -> int:
        return self.increments.shape[0]

    @property
    def m(self) -> int:
        return self.increments.shape[1]

    @property
    def t_max(self) -> float:
        return self.n_steps * self.dt

    def time_index(self, time: float) -> int:
        return _snap_index(time, self.dt, self.n_steps)


@dataclass(frozen=True)
class ShiftPath:
    grid: Grid
    dt: float
    values: np.ndarray  # (K, m) + grid.shape, noise-density units

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != self.grid.dim + 2 or vals.shape[2:] != self.grid.shape:
            raise ValueError(f"values shape {vals.shape} incompatible with grid")
        if not np.isfinite(vals).all():
            raise ValueError("shift values must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]

    def time_index(self, time: float) -> int:
        return _snap_index(time, self.dt, self.n_steps)

    @classmethod
    def zeros(cls, grid: Grid, m: int, n_steps: int, dt: float) -> "ShiftPath":
        return cls(grid, dt, np.zeros((n_steps, m) + grid.shape))

    def restrict(self, s: float) -> "ShiftPath":
        """Zero out every slice at or after time ``s`` (restriction to [0, s))."""
        k = self.time_index(s)
        vals = self.values.copy()
        vals[k:] = 0.0
        return ShiftPath(self.grid, self.dt, vals)

    def slice_field(self, k: int) -> Field:
        return Field(self.grid, self.values[k])


class _SliceStreams:
    """Philox generator reseated at counter block (0, k, 0, 0) per slice k,
    so each slice owns a disjoint 2^64-block range of one keyed stream."""

    def __init__(self, seed: int, stream: int):
        self.key = np.array([seed & (2**64 - 1), stream & (2**64 - 1)], dtype=np.uint64)
        self.bitgen = np.random.Philox(key=self.key)
        self.gen = np.random.Generator(self.bitgen)
        self._template = self.bitgen.state

    def at_slice(self, k: int) -> np.random.Generator:
        state = dict(self._template)
        state["state"] = {"counter": np.array([0, k, 0, 0], dtype=np.uint64), "key": self.key}
        state["buffer_pos"] = 4
        state["has_uint32"] = 0
        state["uinteger"] = 0
        self.bitgen.state = state
        return self.gen


def _check_path(m: int, n_steps: int, dt: float):
    if n_steps * dt < 1.0 - 1e-12:
        raise ValueError(f"path must cover [0, 1]: n_steps*dt = {n_steps * dt} < 1")
    if m < 1 or n_steps < 1 or dt <= 0:
        raise ValueError("need m >= 1, n_steps >= 1, dt > 0")


def _draw_increments(grid: Grid, m: int, n_slices: int, dt: float, seed: int,
                     stream: int) -> np.ndarray:
    """The first ``n_slices`` increments, shape (n_slices, m) + grid.shape, of
    the path ``sample_white_noise`` draws for (seed, stream).  Each slice has
    its own counter block, so a prefix does not depend on the path length."""
    sigma = math.sqrt(dt / grid.cell_volume)
    shape = (m,) + grid.shape
    streams = _SliceStreams(seed, stream)
    inc = np.empty((n_slices,) + shape)
    for k in range(n_slices):
        inc[k] = streams.at_slice(k).standard_normal(shape)
    inc *= sigma
    return inc


class _SliceSource:
    """The increments of several streams, drawn one slice at a time:
    ``src[j, rows]`` is slice j of the streams at positions ``rows`` (an index
    array or a slice), shape (n_rows, m) + grid.shape, bit-identical to the
    same entries of ``_draw_increments`` (own counter block per slice, and
    scaling is elementwise).  ``shape`` is that of the stacked array
    (n_slices, n_streams, m) + grid.shape, which is never built."""

    def __init__(self, grid: Grid, m: int, n_slices: int, dt: float, seed: int,
                 streams: range):
        self.shape = (n_slices, len(streams), m) + grid.shape
        self._sigma = math.sqrt(dt / grid.cell_volume)
        self._streams = [_SliceStreams(seed, j) for j in streams]

    def __getitem__(self, key) -> np.ndarray:
        k, rows = key
        picked = np.arange(len(self._streams))[rows]
        inc = np.empty((picked.size,) + self.shape[2:])
        for i, b in enumerate(picked):
            inc[i] = self._streams[b].at_slice(k).standard_normal(self.shape[2:])
        inc *= self._sigma
        return inc


def sample_white_noise(
    grid: Grid, m: int, n_steps: int, dt: float, seed: int, stream: int = 0
) -> NoisePath:
    """Draw a white-noise path on [0, n_steps * dt].

    The path must reach time one (n_steps * dt >= 1) because every flow map in
    the lab is defined on [0, 1].  Increment entries are i.i.d.
    N(0, dt / cell_volume) per component; identical (seed, stream) give
    bit-identical paths.
    """
    _check_path(m, n_steps, dt)
    return NoisePath(grid, dt, _draw_increments(grid, m, n_steps, dt, seed, stream),
                     seed_info=(seed, stream))


def zero_noise_path(grid: Grid, m: int, n_steps: int, dt: float) -> NoisePath:
    """The deterministic zero path (useful for noiseless dynamics)."""
    return NoisePath(grid, dt, np.zeros((n_steps, m) + grid.shape))


def apply_shift(w: NoisePath, h: ShiftPath) -> NoisePath:
    """Translate the noise by h: increment k gains h(t_k) * dt."""
    if w.grid != h.grid or w.dt != h.dt or w.increments.shape != h.values.shape:
        raise ValueError("noise and shift have mismatched shapes")
    return NoisePath(w.grid, w.dt, w.increments + h.values * w.dt, seed_info=w.seed_info)


def splice(w_a: NoisePath, w_b: NoisePath, s: float) -> NoisePath:
    """Increments of ``w_a`` before time s, of ``w_b`` from s on."""
    if w_a.grid != w_b.grid or w_a.dt != w_b.dt or w_a.increments.shape != w_b.increments.shape:
        raise ValueError("paths have mismatched shapes")
    k = w_a.time_index(s)
    inc = np.concatenate([w_a.increments[:k], w_b.increments[k:]], axis=0)
    return NoisePath(w_a.grid, w_a.dt, inc)


def cm_norm_sq(h: ShiftPath) -> float:
    """Squared Cameron-Martin norm: sum_k ||h(t_k)||_{L2}^2 dt."""
    vol = h.grid.cell_volume
    return float(vol * h.dt * np.sum(h.values * h.values))


def noise_pairing(h: ShiftPath, w: NoisePath) -> float:
    """The stochastic pairing sum_k <h(t_k), dW_k>_{L2}."""
    if w.increments.shape != h.values.shape:
        raise ValueError("noise and shift have mismatched shapes")
    return float(h.grid.cell_volume * np.sum(h.values * w.increments))


def log_girsanov_weight(w: NoisePath, h: ShiftPath) -> float:
    """log of the exponential martingale weight for the shift h."""
    return -noise_pairing(h, w) - 0.5 * cm_norm_sq(h)


def girsanov_weight(w: NoisePath, h: ShiftPath) -> float:
    """Exponential martingale weight, normalised so that reweighting the
    shifted path reproduces unshifted expectations.  Always positive; the
    exponent is clamped at the float64 overflow threshold."""
    return math.exp(min(log_girsanov_weight(w, h), _LOG_WEIGHT_CLAMP))
