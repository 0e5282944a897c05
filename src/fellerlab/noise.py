"""Space-time white noise paths, shifts, splices and exponential weights.

A :class:`NoisePath` stores the integrated noise increment of every time slice
as a spatial field; entry (k, c, x) is the increment of component c in cell x
over [t_k, t_{k+1}), distributed N(0, dt / cell_volume).

Randomness is counter-based: slice k of stream ``stream`` under ``seed`` is
drawn from its own Philox block (key = (seed, stream), counter offset k), so a
path is reproducible slice by slice whatever other paths are drawn beside it
or in what batch, a prefix of slices is the same whatever the path length,
and increments over disjoint time windows come from independent counter
blocks.  ``_SliceSource`` is the one drawer: whole paths, stacked streams
and slice-at-a-time reads all come from it.

A :class:`ShiftPath` is a deterministic direction for shifting the noise: a
time grid of spatial fields with the units of noise density (field per unit
time), paired against increments through the cell-volume weighted L2 product.

Each path rule has one home: ``_Path``, the body both path types share, checks
the dt (``_check_dt``: > 0, finite, with a finite 1/dt) and the array, and
``_check_pair`` a pair of paths; ``_snap_index`` is the one place a time is
divided by dt and rounded; ``_check_path`` settles a path to draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import Grid

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


def _snap_index(time: float, dt: float, n_max: int) -> int:
    """The k in [0, n_max] with time = k * dt, up to _TIME_SNAP; a non-finite k is on no grid."""
    k = time / dt
    kr = round(k) if math.isfinite(k) else -1
    if abs(k - kr) > _TIME_SNAP or kr < 0 or kr > n_max:
        raise ValueError(f"time {time} is not on the dt={dt} grid of {n_max} steps")
    return kr


def _check_dt(dt: float):
    if not (0.0 < dt < math.inf and 1.0 / float(dt) < math.inf):
        raise ValueError(f"need dt > 0 and finite with a finite 1/dt, got dt={dt}")


@dataclass(frozen=True)
class _Path:
    """A read-only float array of shape (K, m) + grid.shape in the field named
    ``_ARRAY``, one slice per step of ``dt``."""

    grid: Grid
    dt: float
    _ARRAY = ""
    _FINITE = ""  # when set, the message for non-finite entries

    def __post_init__(self):
        _check_dt(self.dt)
        arr = np.asarray(getattr(self, self._ARRAY), dtype=np.float64)
        if arr.ndim != self.grid.dim + 2 or arr.shape[2:] != self.grid.shape:
            raise ValueError(f"{self._ARRAY} shape {arr.shape} incompatible with grid")
        if self._FINITE and not np.isfinite(arr).all():
            raise ValueError(self._FINITE)
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, self._ARRAY, arr)

    @property
    def n_steps(self) -> int:
        return getattr(self, self._ARRAY).shape[0]

    @property
    def m(self) -> int:
        return getattr(self, self._ARRAY).shape[1]

    def time_index(self, time: float) -> int:
        return _snap_index(time, self.dt, self.n_steps)

    def _check_pair(self, other: "_Path", message: str):
        """Reject ``other`` unless it has this path's grid, dt and shape."""
        if (self.grid, self.dt, self.n_steps, self.m) != (other.grid, other.dt,
                                                          other.n_steps, other.m):
            raise ValueError(message)


@dataclass(frozen=True)
class NoisePath(_Path):
    increments: np.ndarray  # (K, m) + grid.shape
    seed_info: tuple[int, int] | None = None
    _ARRAY = "increments"


@dataclass(frozen=True)
class ShiftPath(_Path):
    values: np.ndarray  # (K, m) + grid.shape, noise-density units
    _ARRAY = "values"
    _FINITE = "shift values must be finite"

    @classmethod
    def zeros(cls, grid: Grid, m: int, n_steps: int, dt: float) -> "ShiftPath":
        return cls(grid, dt, np.zeros((n_steps, m) + grid.shape))

    def restrict(self, s: float) -> "ShiftPath":
        """Zero out every slice at or after time ``s`` (restriction to [0, s))."""
        k = self.time_index(s)
        vals = self.values.copy()
        vals[k:] = 0.0
        return ShiftPath(self.grid, self.dt, vals)


class _SliceStreams:
    """Philox generator reseated at counter block (0, k, 0, 0) per slice k,
    so each slice owns a disjoint 2^64-block range of one keyed stream."""

    def __init__(self, seed: int, stream: int):
        key = np.array([seed & (2**64 - 1), stream & (2**64 - 1)], dtype=np.uint64)
        self.bitgen = np.random.Philox(key=key)
        self.gen = np.random.Generator(self.bitgen)
        # one state to reseat from: counter (0, k, 0, 0), key, buffer spent
        self._state = self.bitgen.state
        self._state.update(buffer_pos=4, has_uint32=0, uinteger=0)
        self._state["state"] = {"counter": np.zeros(4, dtype=np.uint64), "key": key}
        self._counter = self._state["state"]["counter"]

    def at_slice(self, k: int) -> np.random.Generator:
        self._counter[1] = k  # the setter copies the counter, so it can be rewritten
        self.bitgen.state = self._state
        return self.gen


def _check_path(m: int, n_steps: int | None, dt: float) -> int:
    """The slice count of a path to draw: ``n_steps``, or round(1/dt) if None."""
    _check_dt(dt)
    if n_steps is None:
        n_steps = round(1.0 / dt)
    if n_steps * dt < 1.0 - 1e-12:
        raise ValueError(f"path must cover [0, 1]: n_steps*dt = {n_steps * dt} < 1")
    if m < 1 or n_steps < 1:
        raise ValueError("need m >= 1 and n_steps >= 1")
    return n_steps


class _SliceSource:
    """The first ``n_slices`` increments of several streams; the one noise
    drawer.  ``drawn()`` is the stacked array, shape ``shape`` = (n_slices,
    n_streams, m) + grid.shape; ``src[j, rows]`` is slice j of the streams at
    positions ``rows`` (an index array or a slice), drawn on demand and
    bit-identical to those entries of ``drawn()``: each slice has its own
    counter block, and scaling is elementwise."""

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
            self._streams[b].at_slice(k).standard_normal(out=inc[i])
        inc *= self._sigma
        return inc

    def drawn(self) -> np.ndarray:
        inc = np.empty(self.shape)
        for i, streams in enumerate(self._streams):
            for k in range(self.shape[0]):
                streams.at_slice(k).standard_normal(out=inc[k, i])
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
    source = _SliceSource(grid, m, n_steps, dt, seed, range(stream, stream + 1))
    return NoisePath(grid, dt, source.drawn()[:, 0], seed_info=(seed, stream))


def zero_noise_path(grid: Grid, m: int, n_steps: int, dt: float) -> NoisePath:
    """The deterministic zero path (useful for noiseless dynamics)."""
    return NoisePath(grid, dt, np.zeros((n_steps, m) + grid.shape))


def apply_shift(w: NoisePath, h: ShiftPath) -> NoisePath:
    """Translate the noise by h: increment k gains h(t_k) * dt."""
    w._check_pair(h, "noise and shift have mismatched shapes")
    return NoisePath(w.grid, w.dt, w.increments + h.values * w.dt, seed_info=w.seed_info)


def splice(w_a: NoisePath, w_b: NoisePath, s: float) -> NoisePath:
    """Increments of ``w_a`` before time s, of ``w_b`` from s on."""
    w_a._check_pair(w_b, "paths have mismatched shapes")
    k = w_a.time_index(s)
    inc = np.concatenate([w_a.increments[:k], w_b.increments[k:]], axis=0)
    return NoisePath(w_a.grid, w_a.dt, inc)


def cm_norm_sq(h: ShiftPath) -> float:
    """Squared Cameron-Martin norm: sum_k ||h(t_k)||_{L2}^2 dt."""
    vol = h.grid.cell_volume
    return float(vol * h.dt * np.sum(h.values * h.values))


def noise_pairing(h: ShiftPath, w: NoisePath) -> float:
    """The stochastic pairing sum_k <h(t_k), dW_k>_{L2}."""
    w._check_pair(h, "noise and shift have mismatched shapes")
    return float(h.grid.cell_volume * np.sum(h.values * w.increments))


def log_girsanov_weight(w: NoisePath, h: ShiftPath) -> float:
    """log of the exponential martingale weight for the shift h."""
    return -noise_pairing(h, w) - 0.5 * cm_norm_sq(h)


def girsanov_weight(w: NoisePath, h: ShiftPath) -> float:
    """Exponential martingale weight, normalised so that reweighting the
    shifted path reproduces unshifted expectations.  Always positive; the
    exponent is clamped at the float64 overflow threshold."""
    return math.exp(min(log_girsanov_weight(w, h), _LOG_WEIGHT_CLAMP))
