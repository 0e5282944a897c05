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

Each step makes one batched forward and one batched inverse transform
(``_Workspace.transform``): u_k, u_k + dt F(u_k) and dW_k go forward
together, and the monitor's shell blocks of u_k, the heat step and the
mollified increment come back together.  kpz1d makes two of each, since
its drift needs the gradient of u_k first: one pass for the shell blocks,
the gradient and the increment, one for the heat step.  The stepper can
carry the tangent flow

    x_{k+1} = E (x_k + dt DF(u_k) x_k) + DG(u_k) x_k * smooth(dW_k)

in the same transforms (its heat input, and for kpz1d its gradient, ride
beside the state's).  It is the only tangent loop: the linearizations in
``tangent`` and ``shift`` replay a stored path by evolving it again from a
stored state along the same raw increments, with the tangent carried.

The fields are real, so the transforms are real-to-complex (``rfft``,
``rfftn``): modes are kept on the half spectrum, frequencies 0..n/2 on the
last axis, and so is every multiplier.  That halves the transform work of
the full complex FFT.  The cubic drifts are products of doubles, ``u * u * u``:
numpy evaluates ``u**3`` through a power loop chosen at run time for the
CPU, whose last bit on mixed-sign input depends on that choice, while a
product is rounded the same way on every IEEE machine.

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
                    _half_spectrum, _real_inverse, _real_transform, _shell_weights,
                    _weighted_block_sup)
from .noise import NoisePath, _snap_index

__all__ = [
    "DEAD",
    "DeadState",
    "FlowOutcome",
    "NondegeneracyError",
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


class NondegeneracyError(ValueError):
    """Raised when the noise coefficient drops below its configured floor."""


class _Workspace:
    """Precomputed mode-space data for one (grid, dt, equation) combination.

    Fields are real, so their modes are kept on the half spectrum
    (``grids._real_transform``), and so is every multiplier."""

    def __init__(self, grid: Grid, dt: float, kind: str, eps: float, monitor_eta: float,
                 mollifier: MollifierSpec):
        self.grid = grid
        self.dt = dt
        half = lambda a: _half_spectrum(a, grid.n)
        self.decay = half(np.exp(-grid.wavenumbers_sq() * dt))
        self.moll = None if eps == 0.0 else half(mollifier.multiplier(grid, eps))
        self.shell_masks = _dyadic_masks(grid.dim, grid.n)
        self.shell_weights = _shell_weights(monitor_eta, self.shell_masks.shape[0])
        # complex copies of the masks and multipliers multiply the same bits
        # without a cast on every call
        self._shell_sel = self.shell_masks[:, None, ...].astype(complex)
        self.gradient = None  # dealiased derivative multiplier, for kpz1d's drift
        if kind == "kpz1d":
            k = half(grid.frequencies()[0])
            self.gradient = ((1j * 2.0 * np.pi / grid.extent[0]) * k) * (np.abs(k) <= grid.n // 3)
        self._stacks = {}

    def _stacked(self, names: tuple) -> np.ndarray:
        """The multipliers called ``names``, stacked to multiply (B, k, m, *grid) modes."""
        if names not in self._stacks:
            stack = np.stack([getattr(self, name) for name in names]).astype(complex)
            self._stacks[names] = stack[:, None, ...]
        return self._stacks[names]

    def transform(self, parts, monitor: bool = False):
        """Fourier multipliers applied to several fields in one batched forward
        and one batched inverse real transform.

        ``parts`` is a list of (array, multiplier name) pairs, the arrays of
        shape (B, m, *grid) and the names those of this workspace's
        multipliers ('decay', 'moll', 'gradient').  An array with a multiplier
        comes back as the real inverse transform of its modes times the
        multiplier; one without (or whose multiplier is None) comes back as it
        is, and None as None.  With ``monitor`` parts[0] is transformed too and
        the first result is its dyadic proxy norm at monitor_eta per row;
        without it the first result is None.
        """
        results = [a for a, _ in parts]
        scaled = [(i, name) for i, (a, name) in enumerate(parts)
                  if a is not None and name is not None and getattr(self, name) is not None]
        unscaled = [0] if monitor and (not scaled or scaled[0][0] != 0) else []
        order = unscaled + [i for i, _ in scaled]
        if not order:
            return None, results
        lead = parts[order[0]][0]
        stacked = np.empty((lead.shape[0], len(order)) + lead.shape[1:])
        for k, i in enumerate(order):
            stacked[:, k] = parts[i][0]
        modes = _real_transform(stacked, self.grid)
        n_shells = self.shell_masks.shape[0] if monitor else 0
        out = np.empty((modes.shape[0], n_shells + len(scaled)) + modes.shape[2:], dtype=complex)
        if monitor:
            np.multiply(self._shell_sel, modes[:, :1], out=out[:, :n_shells])
        if scaled:
            np.multiply(modes[:, len(unscaled):], self._stacked(tuple(n for _, n in scaled)),
                        out=out[:, n_shells:])
        real = _real_inverse(out, self.grid)
        for slot, (i, _) in enumerate(scaled, n_shells):
            results[i] = real[:, slot]
        norms = _weighted_block_sup(real[:, :n_shells], self.shell_weights) if monitor else None
        return norms, results


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
    alive (shape (J+1, m, spatial)); ``noise_terms`` a read-only view, not a
    copy, of the raw noise increments of the steps taken (J of them for a
    live trajectory, shape (J, m, spatial)), so linearizations can evolve
    the exact same path again.
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

    Row b holds states ``fields[:n_stored[b], b]`` and monitor values
    ``trace[:n_stored[b], b]``; entries past that count are zero.  A dead row
    records its reason and the step count at which it died (its blow-up time
    is s + death_step * dt); a live row took every step.  A final-state-only
    batch keeps one entry per row, its last stored state and monitor value;
    the counts are those of the full batch.  The noise stays with the caller.
    """

    fields: np.ndarray  # (J+1, B, m, *grid)
    trace: np.ndarray  # (J+1, B)
    n_stored: np.ndarray  # (B,)
    death_step: np.ndarray  # (B,)
    reasons: list
    tangent: np.ndarray | None = None  # (J+1, B, m, *grid)

    @property
    def alive(self) -> np.ndarray:
        return np.array([r is None for r in self.reasons])

    def final(self, b: int) -> np.ndarray:
        """Row b's last stored state (the state before death for a dead row)."""
        return self.fields[min(self.n_stored[b], self.fields.shape[0]) - 1, b]

    def rows(self, sl: slice) -> "_Paths":
        """The rows under ``sl``, as views."""
        return _Paths(self.fields[:, sl], self.trace[:, sl], self.n_stored[sl],
                      self.death_step[sl], self.reasons[sl],
                      None if self.tangent is None else self.tangent[:, sl])

    def outcome(self, b: int, grid: Grid, s: float, t: float, dt: float,
                increments: np.ndarray) -> FlowOutcome:
        """Row b, evolved along ``increments`` (J, m, *grid), as an evolution
        from s to t.  From a final-state-only batch the outcome holds just the
        row's last state and monitor value."""
        reason = self.reasons[b]
        taken = self.n_stored[b] - 1 if reason is None else int(self.death_step[b])
        died_at = None if reason is None else s + taken * dt
        return FlowOutcome(grid=grid, m=self.fields.shape[2], s=s, t=t, dt=dt,
                           alive=reason is None, blow_up_time=died_at, reason=reason,
                           fields=self.fields[:self.n_stored[b], b],
                           monitor_trace=self.trace[:self.n_stored[b], b],
                           noise_terms=increments[:taken])


def _check_state(u0: Field, grid: Grid, m: int, spec: EquationSpec):
    """Reject an initial state that does not fit the noise grid or the equation."""
    if u0.grid != grid or u0.m != m:
        raise ValueError("initial state incompatible with the noise path")
    if grid.dim != spec.dim or m != spec.m:
        raise ValueError(f"{spec.kind} expects dim={spec.dim}, m={spec.m}")


def _step_transforms(u, x, dw, spec: EquationSpec, ws: _Workspace):
    """The transforms of one step from the states u (B, m, *grid): the monitor
    integrand of u, the heat steps of u + dt f(u) and of the tangent input
    (None when x is None) and the smoothed increment of dw.  Without dw only
    the monitor integrand is computed.

    A pointwise drift takes one batched forward and one batched inverse
    transform; kpz1d's drift needs the gradient first, so it takes two."""
    if dw is None:
        return ws.transform([(u, None)], monitor=True)[0], None, None, None
    du = dx = None
    if ws.gradient is not None:
        mon, (du, dx, dwe) = ws.transform([(u, "gradient"), (x, "gradient"), (dw, "moll")],
                                          monitor=True)
    pre = u + ws.dt * spec.drift(u, du)
    x_in = None if x is None else x + ws.dt * spec.drift_jvp(u, x, du, dx)
    if ws.gradient is not None:
        _, (heat, heat_x) = ws.transform([(pre, "decay"), (x_in, "decay")])
    else:
        mon, (_, heat, heat_x, dwe) = ws.transform(
            [(u, None), (pre, "decay"), (x_in, "decay"), (dw, "moll")], monitor=True)
    return mon, heat, heat_x, dwe


def _evolve_batch(u0: np.ndarray, increments, spec: EquationSpec, ws: _Workspace,
                  final_only: bool = False, x0: np.ndarray | None = None,
                  inject: np.ndarray | None = None) -> _Paths:
    """Evolve B initial states u0 (B, m, *grid) along their own increments
    (J, B, m, *grid), one step per increment slice.

    ``increments`` is read only as ``increments[j, rows]`` and through its
    ``shape``: an array, or a source that draws slice j of the given rows on
    demand (``noise._SliceSource``).  With ``final_only`` the batch keeps
    only each row's last state and monitor value instead of the trajectory.
    With a tangent ``x0`` (B, m, *grid) the batch also carries the tangent
    flow from x0 along each path, in the same transforms as the states.
    ``inject`` (J, B, m, *grid), smoothed shift slices h_j, makes that the
    inhomogeneous flow: after step j the tangent gains G(u_j) h_j dt (h_j dt
    under additive noise).

    Step j transforms u_j once: its modes give u_j's monitor value as well as
    the next state, so u_j is checked and stored at step j, and u_J after
    the loop.  A row that dies leaves the active set and the other rows go
    on; every numpy call acts on each row exactly as it would on that row
    alone, so row b is bit-identical to a batch of one.
    """
    n_rows = u0.shape[0]
    n_steps = increments.shape[0]
    g_min = spec.g_min
    n_kept = 1 if final_only else n_steps + 1
    fields = np.zeros((n_kept,) + u0.shape)
    tangent = None if x0 is None else np.zeros_like(fields)
    trace = np.zeros((n_kept, n_rows))
    n_stored = np.full(n_rows, n_steps + 1)
    death_step = np.zeros(n_rows, dtype=int)
    reasons = [None] * n_rows

    rows = np.arange(n_rows)
    sel = slice(None)  # basic-slice stand-in for ``rows`` while no row has died
    u = np.array(u0, dtype=np.float64)
    x = None if x0 is None else np.array(x0, dtype=np.float64)
    r = None
    step = ()  # the current step's per-row transforms

    def drop(mask, at, reason, stored):
        """Retire the active rows under ``mask``; returns the survivors' mask."""
        nonlocal rows, sel, u, x, r, step
        for b in rows[mask]:
            reasons[b] = reason
            death_step[b], n_stored[b] = at, stored
        keep = ~mask
        rows, u, r = rows[keep], u[keep], r[keep]
        x = None if x is None else x[keep]
        step = [None if a is None else a[keep] for a in step]
        sel = rows
        return keep

    def store(j):
        at = 0 if final_only else j
        fields[at, sel] = u
        trace[at, sel] = r
        if x is not None:
            tangent[at, sel] = x

    # each check tests the whole batch first and splits by row only on a hit
    for j in range(n_steps + 1):
        if rows.size == 0:
            break
        last = j == n_steps
        # rows that die below at step j were transformed too; drop() discards
        # their results with them
        mon, *step = _step_transforms(u, x, None if last else increments[j, sel], spec, ws)
        r = mon if r is None else np.maximum(r, mon)
        if j == 0:
            store(0)  # u_0 is kept even when it trips the monitor; a later u_j is not
        if r.max() > spec.r_blowup:
            drop(r > spec.r_blowup, j, "monitor_threshold", max(j, 1))
            if rows.size == 0:
                break
        if j > 0:
            store(j)
        if last:
            break
        g = spec.g_values(u)
        if g is not None and g.min() < g_min:
            g = g[drop(g.reshape(rows.size, -1).min(axis=1) < g_min, j, "nondegenerate",
                       j + 1)]
            if rows.size == 0:
                break
        heat, heat_x, dwe = step
        if x is not None:
            dg = spec.dg_values(u)
            x = heat_x if dg is None else heat_x + dg * x * dwe
            if inject is not None:
                h_j = inject[j, sel]
                x = x + (h_j if g is None else g * h_j) * ws.dt
        u = heat + (dwe if g is None else g * dwe)
        if not np.isfinite(u).all():
            finite = np.isfinite(u).reshape(rows.size, -1).all(axis=1)
            drop(~finite, j + 1, "non_finite", j + 1)
    return _Paths(fields, trace, n_stored, death_step, reasons, tangent)


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
    increments = w.increments[k_s:k_t]
    paths = _evolve_batch(u0.values[None], increments[:, None], spec, ws)
    return paths.outcome(0, grid, s, t, dt, increments)


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
