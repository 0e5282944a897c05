"""Flow maps for the supported equations, with blow-up handled as data.

The stepper is exponential Euler: the heat part is applied exactly through
mode multipliers exp(-|2 pi k / L|^2 dt), the drift explicitly, and the noise
increment (spatially mollified at the equation's eps) is injected after the
linear flow:

    u_{k+1} = E (u_k + dt F(u_k)) + G(u_k) * smooth(dW_k)

Blow-up is detected through a running monitor (the dyadic Hoelder proxy at
the equation's monitor exponent) and through non-finite values; once a
trajectory is dead it stays dead, and evolving the dead state returns the
dead state for any input.

Everything here is deterministic: two evolutions from identical inputs agree
bit for bit, which is what makes the semigroup and noise-locality checks
exact rather than approximate.  The stepper runs B paths at once along a
leading batch axis; ``evolve`` is its batch of one, and every row of a batch
is bit-identical to that row evolved alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .equations import EquationSpec
from .grids import (Field, Grid, MollifierSpec, holder_proxy_norm, _dyadic_masks,
                    _spatial_axes)
from .noise import NoisePath, _snap_index

__all__ = [
    "DEAD",
    "DeadState",
    "FlowOutcome",
    "evolve",
    "r_monitor",
    "check_semigroup",
]


class DeadState:
    """Absorbing state of blown-up trajectories; a singleton, ``DEAD``."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "DEAD"


DEAD = DeadState()


class _Workspace:
    """Precomputed mode-space data for one (grid, dt, equation) combination.

    Every method acts on arrays with any number of leading batch axes before
    the (m, *grid) field axes."""

    def __init__(self, grid: Grid, dt: float, kind: str, eps: float, monitor_eta: float,
                 mollifier: MollifierSpec):
        self.grid = grid
        self.dt = dt
        self.axes = _spatial_axes(grid)
        if grid.dim == 1:
            self.fft = lambda a: np.fft.fft(a, axis=-1)
            self.ifft = lambda a: np.fft.ifft(a, axis=-1)
        else:
            self.fft = lambda a: np.fft.fftn(a, axes=self.axes)
            self.ifft = lambda a: np.fft.ifftn(a, axes=self.axes)
        lam = grid.wavenumbers_sq()
        self.decay = np.exp(-lam * dt)
        self.moll = None if eps == 0.0 else mollifier.multiplier(grid, eps)
        self.shell_masks = _dyadic_masks(grid.dim, grid.n)
        self.shell_weights = 2.0 ** (monitor_eta * np.arange(self.shell_masks.shape[0]))
        self._shell_sel = self.shell_masks[:, None, ...]
        if kind == "kpz1d":
            k = grid.frequencies()[0]
            self.deriv = (1j * 2.0 * np.pi / grid.extent[0]) * k
            self.dealias = np.abs(k) <= grid.n // 3
        else:
            self.deriv = None
            self.dealias = None

    def heat_step(self, arr: np.ndarray) -> np.ndarray:
        return self.ifft(self.fft(arr) * self.decay).real

    def smooth_increment(self, dw: np.ndarray) -> np.ndarray:
        if self.moll is None:
            return dw
        return self.ifft(self.fft(dw) * self.moll).real

    def dealiased_gradient(self, u: np.ndarray) -> np.ndarray:
        modes = np.fft.fft(u, axis=-1)
        return np.fft.ifft(modes * (self.deriv * self.dealias), axis=-1).real

    def monitor(self, u: np.ndarray) -> np.ndarray:
        """Running-monitor integrand of each row of u (B, m, *grid): the
        dyadic proxy norm at monitor_eta, shape (B,)."""
        blocks = self.ifft(self._shell_sel * self.fft(u)[:, None, ...]).real
        n_shells = self.shell_masks.shape[0]
        sup = np.abs(blocks).reshape(u.shape[0], n_shells, -1).max(axis=2)
        return (self.shell_weights * sup).max(axis=1)


@lru_cache(maxsize=32)
def _workspace(grid: Grid, dt: float, kind: str, eps: float, monitor_eta: float,
               mollifier: MollifierSpec) -> _Workspace:
    return _Workspace(grid, dt, kind, eps, monitor_eta, mollifier)


def get_workspace(grid: Grid, dt: float, spec: EquationSpec) -> _Workspace:
    return _workspace(grid, dt, spec.kind, spec.eps, spec.monitor_eta, spec.mollifier)


@dataclass(frozen=True)
class FlowOutcome:
    """Result of one evolution: a trajectory with its monitor trace, or death.

    ``fields`` holds the states at every visited grid time that was still
    alive (shape (J+1, m, spatial)); ``noise_terms`` the mollified increments
    actually injected (shape (J, m, spatial)), kept so linearizations can be
    replayed along the exact same path.
    """

    grid: Grid
    m: int
    s: float
    t: float
    dt: float
    alive: bool
    blow_up_time: float | None
    reason: str | None
    fields: np.ndarray
    monitor_trace: np.ndarray
    noise_terms: np.ndarray

    def __post_init__(self):
        for name in ("fields", "monitor_trace", "noise_terms"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_stored(self) -> int:
        return self.fields.shape[0]

    def time_index(self, time: float) -> int:
        k = (time - self.s) / self.dt
        kr = round(k)
        if abs(k - kr) > 1e-9 or kr < 0 or kr >= self.n_stored:
            raise ValueError(f"time {time} not stored on [{self.s}, {self.t}]")
        return int(kr)

    def field_at(self, time: float) -> Field:
        return Field(self.grid, self.fields[self.time_index(time)])

    @property
    def final(self) -> Field:
        if not self.alive:
            raise ValueError("dead trajectory has no final state")
        return Field(self.grid, self.fields[-1])

    @property
    def final_or_dead(self):
        return self.final if self.alive else DEAD


@dataclass(frozen=True)
class _Paths:
    """B trajectories evolved together, stored time-major.

    Row b holds states ``fields[:n_stored[b], b]``, monitor values
    ``trace[:n_stored[b], b]`` and injected noise ``noise[:n_noise[b], b]``;
    entries past those counts are zero.  A dead row records its reason and
    the step count at which it died (its blow-up time is s + death_step * dt).
    A final-state-only batch keeps one entry per row, its last stored state
    and monitor value, and no noise; the counts are those of the full batch.
    """

    fields: np.ndarray  # (J+1, B, m, *grid)
    trace: np.ndarray  # (J+1, B)
    noise: np.ndarray  # (J, B, m, *grid)
    n_stored: np.ndarray  # (B,)
    n_noise: np.ndarray  # (B,)
    death_step: np.ndarray  # (B,)
    reasons: list

    @property
    def alive(self) -> np.ndarray:
        return np.array([r is None for r in self.reasons])

    def final(self, b: int) -> np.ndarray:
        """Row b's last stored state (the state before death for a dead row)."""
        return self.fields[min(self.n_stored[b], self.fields.shape[0]) - 1, b]

    @classmethod
    def of(cls, outcome: FlowOutcome) -> "_Paths":
        """One stored evolution as a batch of one."""
        return cls(outcome.fields[:, None], outcome.monitor_trace[:, None],
                   outcome.noise_terms[:, None], np.array([outcome.n_stored]),
                   np.array([outcome.noise_terms.shape[0]]), np.zeros(1, dtype=int),
                   [outcome.reason])

    def rows(self, sl: slice) -> "_Paths":
        """The rows under ``sl``, as views."""
        return _Paths(self.fields[:, sl], self.trace[:, sl], self.noise[:, sl], self.n_stored[sl],
                      self.n_noise[sl], self.death_step[sl], self.reasons[sl])

    def outcome(self, b: int, grid: Grid, s: float, t: float, dt: float) -> FlowOutcome:
        reason = self.reasons[b]
        died_at = None if reason is None else s + int(self.death_step[b]) * dt
        return FlowOutcome(grid=grid, m=self.fields.shape[2], s=s, t=t, dt=dt,
                           alive=reason is None, blow_up_time=died_at, reason=reason, fields=self.fields[:self.n_stored[b], b],
                           monitor_trace=self.trace[:self.n_stored[b], b],
                           noise_terms=self.noise[:self.n_noise[b], b])


def _check_state(u0: Field, grid: Grid, m: int, spec: EquationSpec):
    """Reject an initial state that does not fit the noise grid or the equation."""
    if u0.grid != grid or u0.m != m:
        raise ValueError("initial state incompatible with the noise path")
    if grid.dim != spec.dim or m != spec.m:
        raise ValueError(f"{spec.kind} expects dim={spec.dim}, m={spec.m}")


def _evolve_batch(u0: np.ndarray, increments, spec: EquationSpec, ws: _Workspace,
                  final_only: bool = False) -> _Paths:
    """Evolve B initial states u0 (B, m, *grid) along their own increments
    (J, B, m, *grid), one step per increment slice.

    ``increments`` is read only as ``increments[j, rows]`` and through its
    ``shape``: an array, or a source that draws slice j of the given rows on
    demand (``noise._SliceSource``).  With ``final_only`` the batch keeps
    only each row's last state and monitor value instead of the trajectory.

    A row that dies leaves the active set and the other rows go on; every
    numpy call acts on each row exactly as it would on that row alone, so row
    b is bit-identical to a batch of one.
    """
    n_rows = u0.shape[0]
    n_steps = increments.shape[0]
    dt, g_min = ws.dt, spec.g_min
    n_kept = 1 if final_only else n_steps + 1
    fields = np.zeros((n_kept,) + u0.shape)
    trace = np.zeros((n_kept, n_rows))
    noise = np.zeros(((0 if final_only else n_steps),) + u0.shape)
    n_stored = np.full(n_rows, n_steps + 1)
    n_noise = np.full(n_rows, n_steps)
    death_step = np.zeros(n_rows, dtype=int)
    reasons = [None] * n_rows

    rows = np.arange(n_rows)
    sel = slice(None)  # basic-slice stand-in for ``rows`` while no row has died
    u = np.array(u0, dtype=np.float64)
    fields[0] = u
    r = ws.monitor(u)
    trace[0] = r

    def drop(mask, step, reason, stored, injected):
        """Retire the active rows under ``mask``; returns the survivors' mask."""
        nonlocal rows, sel, u, r
        for b in rows[mask]:
            reasons[b] = reason
            death_step[b], n_stored[b], n_noise[b] = step, stored, injected
        keep = ~mask
        rows, u, r = rows[keep], u[keep], r[keep]
        sel = rows
        return keep

    # each check tests the whole batch first and splits by row only on a hit
    if r.max() > spec.r_blowup:
        drop(r > spec.r_blowup, 0, "monitor_threshold", 1, 0)
    for j in range(n_steps):
        if rows.size == 0:
            break
        g = spec.g_values(u)
        if g is not None and g.min() < g_min:
            g = g[drop(g.reshape(rows.size, -1).min(axis=1) < g_min, j, "nondegenerate",
                       j + 1, j)]
            if rows.size == 0:
                break
        dwe = ws.smooth_increment(increments[j, sel])
        f_drift = spec.drift(u, ws)
        gain = dwe if g is None else g * dwe
        u = ws.heat_step(u + dt * f_drift) + gain
        if not final_only:
            noise[j, sel] = dwe
        if not np.isfinite(u).all():
            finite = np.isfinite(u).reshape(rows.size, -1).all(axis=1)
            drop(~finite, j + 1, "non_finite", j + 1, j + 1)
            if rows.size == 0:
                break
        r = np.maximum(r, ws.monitor(u))
        if r.max() > spec.r_blowup:
            drop(r > spec.r_blowup, j + 1, "monitor_threshold", j + 1, j + 1)
        at = 0 if final_only else j + 1
        fields[at, sel] = u
        trace[at, sel] = r
    return _Paths(fields, trace, noise, n_stored, n_noise, death_step, reasons)


def _step_range(s: float, t: float, dt: float, n_steps: int) -> tuple[int, int]:
    """Slice indices of s and t on a noise grid of n_steps slices of dt,
    checked as ``evolve`` needs them: on the grid, s <= t <= 1."""
    k_s = _snap_index(s, dt, n_steps)
    k_t = _snap_index(t, dt, n_steps)
    if k_s > k_t:
        raise ValueError(f"need s <= t, got s={s}, t={t}")
    if t > 1.0 + 1e-12:
        raise ValueError(f"flow maps are defined up to time 1, got t={t}")
    return k_s, k_t


def evolve(u0, w: NoisePath, s: float, t: float, spec: EquationSpec) -> FlowOutcome:
    """Run the flow map from time s to time t along the noise ``w``.

    ``u0`` may be a Field or the DEAD state; evolving DEAD yields DEAD.
    Both s and t must sit on the noise grid, with s <= t <= 1.
    """
    k_s, k_t = _step_range(s, t, w.dt, w.n_steps)
    grid, dt = w.grid, w.dt
    shape = (w.m,) + grid.shape

    if isinstance(u0, DeadState):
        empty = np.zeros((0,) + shape)
        return FlowOutcome(grid=grid, m=w.m, s=s, t=t, dt=dt, alive=False,
                           blow_up_time=s, reason="dead_input", fields=empty,
                           monitor_trace=np.zeros(0), noise_terms=empty)

    if not isinstance(u0, Field):
        raise TypeError(f"u0 must be a Field or DEAD, got {type(u0)!r}")
    _check_state(u0, grid, w.m, spec)

    ws = get_workspace(grid, dt, spec)
    paths = _evolve_batch(u0.values[None], w.increments[k_s:k_t, None], spec, ws)
    return paths.outcome(0, grid, s, t, dt)


def r_monitor(outcome: FlowOutcome, time: float, eta: float) -> float:
    """Running maximum of the Hoelder proxy at exponent ``eta`` up to ``time``.

    Nondecreasing in ``time``; +inf once the trajectory is dead.
    """
    if not outcome.alive and outcome.blow_up_time is not None and time >= outcome.blow_up_time - 1e-12:
        return math.inf
    k = round((time - outcome.s) / outcome.dt)
    if abs((time - outcome.s) / outcome.dt - k) > 1e-9 or k < 0:
        raise ValueError(f"time {time} off the trajectory grid")
    if k >= outcome.n_stored:
        raise ValueError(f"time {time} beyond the stored trajectory")
    k = int(k)
    vals = [holder_proxy_norm(Field(outcome.grid, outcome.fields[j]), eta) for j in range(k + 1)]
    return float(max(vals))


def check_semigroup(u0, w: NoisePath, s: float, t: float, r: float, spec: EquationSpec) -> float:
    """Max deviation between the one-shot flow s -> r and the composition
    through t.  Deterministic stepping makes this exactly zero, including the
    dead-absorption cases."""
    if not (s <= t <= r):
        raise ValueError("need s <= t <= r")
    whole = evolve(u0, w, s, r, spec)
    first = evolve(u0, w, s, t, spec)
    second = evolve(first.final_or_dead, w, t, r, spec)
    if not whole.alive and not second.alive:
        return 0.0
    if whole.alive != second.alive:
        return math.inf
    return float(np.max(np.abs(whole.final.values - second.final.values)))
