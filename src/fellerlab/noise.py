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
and slice-at-a-time reads all come from it, through one Philox generator
per source that is reseated for every slice.  The reseat writes the key
word, the counter and the buffer position straight into numpy's
``philox_state`` (``_SliceStreamsInPlace``), and numpy's C sampler
``random_standard_normal_fill`` fills the slice at its address, with no
state dict and no ``Generator`` call in between.  Both are looked up when
the first source is made, behind a one-time self-check
(``_slice_streams``): the state words must read back what the public state
setter wrote, and draws at m = 1, m = 2 and in 2D, at slices 0, 1 and
2^33 + 5, must have the bits of the setter plus
``Generator.standard_normal``.  On any mismatch or error the drawer is
that public path (``_SliceStreams``), which draws the same slices, so a
numpy that moves its private layout costs only speed.

A :class:`ShiftPath` is a deterministic direction for shifting the noise: a
time grid of spatial fields with the units of noise density (field per unit
time), paired against increments through the cell-volume weighted L2 product.

Each path rule has one home: ``_Path``, the body both path types share, checks
the dt (``_check_dt``: > 0, finite, with a finite 1/dt) and the array, and
``_check_pair`` a pair of paths; ``_snap_index`` is the one place a time is
divided by dt and rounded; ``_check_path`` settles a path to draw.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from functools import lru_cache, partial

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

    def _check_pair(self, other, message: str):
        """Reject ``other``, a path or a trajectory, unless it has this path's
        grid, dt and m and, if a path, its slice count."""
        if (self.grid, self.dt, self.m) != (other.grid, other.dt, other.m) or (
                isinstance(other, _Path) and self.n_steps != other.n_steps):
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
    """The slices of one seed's keyed Philox streams, through numpy's public
    interface: slice k of stream j is the generator at key (seed, j) and
    counter block (0, k, 0, 0) with its buffer spent, reseated by the state
    setter and filled by ``Generator.standard_normal``, so each slice owns a
    disjoint 2^64-block range of its stream."""

    def __init__(self, seed: int):
        self.bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
        self._gen = np.random.Generator(self.bitgen)
        self._state = self.bitgen.state  # counter 0, key (seed, 0): rewritten per slice
        self._state.update(buffer_pos=4, has_uint32=0, uinteger=0)

    def fill(self, pairs: list, out: np.ndarray):
        """Row i of ``out``, shape (len(pairs),) + the slice shape, gets slice
        k of stream j for the i-th pair (j, k) of ``pairs``."""
        block = self._state["state"]  # the setter copies it, so it can be rewritten
        for row, (j, k) in zip(out, pairs):
            block["key"][1], block["counter"][1] = j, k
            self.bitgen.state = self._state
            self._gen.standard_normal(out=row)


class _SliceStreamsInPlace:
    """``_SliceStreams`` reseated in place and filled by numpy's C sampler:
    each slice writes key word 1, counter words 0 and 1 and buffer_pos = 4
    straight into the ``philox_state`` (counter words 2 and 3 stay 0: a slice
    never draws the 2^64 blocks a carry into them takes) and calls
    ``random_standard_normal_fill``, the function behind
    ``Generator.standard_normal``, at the row's address."""

    def __init__(self, normal_fill, seed: int):
        self.bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
        self._counter, self._key, self._pos = _state_words(self.bitgen)
        self._bitgen_t, self._normal_fill = self.bitgen.ctypes.bit_generator, normal_fill

    def fill(self, pairs: list, out: np.ndarray):
        """``_SliceStreams.fill``, into a C-contiguous float64 ``out``."""
        if out.dtype != np.float64 or not out.flags.c_contiguous or len(out) != len(pairs):
            raise ValueError("need a C-contiguous float64 array of one row per pair")
        counter, key, pos = self._counter, self._key, self._pos
        normal_fill, bitgen_t = self._normal_fill, self._bitgen_t
        count = math.prod(out.shape[1:])
        # ctypes objects as arguments skip a conversion per call; the row pointer moves in place
        n, row, step = ctypes.c_ssize_t(count), ctypes.c_void_p(out.ctypes.data), 8 * count
        for j, k in pairs:
            key[1], counter[0], counter[1], pos.value = j, 0, k, 4
            normal_fill(bitgen_t, n, row)
            row.value += step


def _state_words(bitgen) -> tuple:
    """The counter (4 words) and key (2 words) of a Philox ``philox_state``,
    reached through its first two pointers, and its buffer_pos, the int at
    offset 16."""
    state = bitgen.ctypes.state_address
    counter, key = (ctypes.c_void_p.from_address(state + at).value for at in (0, 8))
    return ((ctypes.c_uint64 * 4).from_address(counter), (ctypes.c_uint64 * 2).from_address(key),
            ctypes.c_int.from_address(state + 16))


# the self-check's draws: m = 1, m = 2 and a 2D slice at slices 0, 1 and
# 2^33 + 5 of two streams, 2,688 normals that take the ziggurat's rejection branch
_CHECK_SHAPES = ((64,), (2, 64), (1, 16, 16))
_CHECK_PAIRS = [(j, k) for k in (0, 1, 2**33 + 5) for j in (0, 3)]


@lru_cache(maxsize=1)
def _slice_streams():
    """The drawer class: ``_SliceStreamsInPlace`` bound to numpy's C sampler
    if its state words read back what the public setter wrote and its draws
    of ``_CHECK_SHAPES`` at ``_CHECK_PAIRS`` have the public path's bits,
    else (mismatch or error) ``_SliceStreams``."""
    try:
        from numpy.random import _generator
        normal_fill = ctypes.PyDLL(_generator.__file__).random_standard_normal_fill
        normal_fill.argtypes = (ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_void_p)
        normal_fill.restype = None
        probe = np.random.Philox()
        words = ([2**60, 2**61, 3 * 2**60, 2**62], [5, 2**63 + 7], 3)
        probe.state = {"bit_generator": "Philox", "buffer": np.zeros(4, dtype=np.uint64),
                       "buffer_pos": words[2], "has_uint32": 0, "uinteger": 0,
                       "state": {"counter": np.array(words[0], dtype=np.uint64),
                                 "key": np.array(words[1], dtype=np.uint64)}}
        counter, key, pos = _state_words(probe)
        if (list(counter), list(key), pos.value) != words:
            return _SliceStreams
        in_place = partial(_SliceStreamsInPlace, normal_fill)
        for shape in _CHECK_SHAPES:
            drawn = [np.empty((len(_CHECK_PAIRS),) + shape) for _ in range(2)]
            for streams, out in zip((in_place, _SliceStreams), drawn):
                streams(11).fill(_CHECK_PAIRS, out)
            if not np.array_equal(*drawn):
                return _SliceStreams
        return in_place
    except Exception:
        return _SliceStreams


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
    counter block, and scaling is elementwise.  The seed and every stream
    lie in [0, 2**64), the range of a key word, so no two alias."""

    def __init__(self, grid: Grid, m: int, n_slices: int, dt: float, seed: int,
                 streams: range):
        for value in (seed, *streams[:1], *streams[-1:]):
            if not 0 <= value < 2**64:
                raise ValueError(f"seed and stream must lie in [0, 2**64), got {value}")
        self.shape = (n_slices, len(streams), m) + grid.shape
        self._sigma = math.sqrt(dt / grid.cell_volume)
        self._ids = np.arange(streams.start, streams.stop, streams.step, dtype=object)
        self._streams = _slice_streams()(seed)

    def __getitem__(self, key) -> np.ndarray:
        k, rows = key
        if not 0 <= k < 2**64:
            raise IndexError(f"slice {k} is outside [0, 2**64)")
        picked = self._ids[rows].tolist()
        inc = np.empty((len(picked),) + self.shape[2:])
        self._streams.fill([(j, k) for j in picked], inc)
        inc *= self._sigma
        return inc

    def drawn(self) -> np.ndarray:
        inc = np.empty(self.shape)
        ids = self._ids.tolist()
        self._streams.fill([(j, k) for k in range(self.shape[0]) for j in ids],
                           inc.reshape((-1,) + self.shape[2:]))
        inc *= self._sigma
        return inc


def sample_white_noise(
    grid: Grid, m: int, n_steps: int, dt: float, seed: int, stream: int = 0
) -> NoisePath:
    """Draw a white-noise path on [0, n_steps * dt].

    The path must reach time one (n_steps * dt >= 1) because every flow map in
    the lab is defined on [0, 1].  Increment entries are i.i.d.
    N(0, dt / cell_volume) per component; identical (seed, stream), each in
    [0, 2**64), give bit-identical paths.
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
