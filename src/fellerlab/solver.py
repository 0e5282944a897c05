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

Each step makes one batched forward and one batched inverse transform:
u_k, u_k + dt F(u_k) and dW_k go forward together, and the monitor's shell
blocks of u_k, the heat step and the mollified increment come back
together.  kpz1d makes two of each, since its drift needs the gradient of
u_k first: one pass for the shell blocks, the gradient and the increment,
one for the heat step.  The stepper can carry the tangent flow

    x_{k+1} = E (x_k + dt DF(u_k) x_k) + DG(u_k) x_k * smooth(dW_k)

in the same transforms (its heat input, and for kpz1d its gradient, ride
beside the state's), and can add a shift slice, smoothed beside dW_k, to
it.  It is the only tangent loop: the linearizations in ``tangent`` and
``shift`` replay a stored path by evolving it again from a stored state
along the same raw increments, with the tangent carried.

Each evolve lays its step out once (``_StepPlan``): the slot of every
field in the stacked transforms and its multiplier, and buffers for the
forward input, the modes, the multiplied modes, the inverse output and
the monitor's reduction.  Fields are written straight into their slots,
and the transforms write into the buffers (``out=``); rows that die leave
the leading rows of every buffer to the survivors.  At batch size one a
step is mostly numpy call overhead, which this keeps to the calls the
arithmetic needs.  Every transform and product gets the operands it would
get on fresh arrays, so no bit changes.

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


class _Pass:
    """One batched forward and one batched inverse real transform over a fixed
    stack of fields, with buffers allocated once for up to ``n_rows`` rows.

    The caller writes the fields of each row into ``inputs(n)`` (n, n_in, m,
    *grid): ``n_plain`` fields without a multiplier, then one per multiplier
    in ``names`` ('decay', 'moll', 'gradient' of the workspace).  With
    ``monitor`` field 0 also comes back as the monitor's dyadic shell blocks,
    ahead of the multiplied fields.  A run
    on fewer rows uses the leading rows of every buffer, so its arrays are
    laid out as fresh ones would be and every transform and product has the
    same operands as on a batch of that size.
    """

    def __init__(self, ws: _Workspace, n_rows: int, field_shape: tuple, names: tuple,
                 monitor: bool, n_plain: int = 0):
        half = field_shape[:-1] + (ws.grid.n // 2 + 1,)
        self.ws, self.n_plain = ws, n_plain
        self.n_shells = ws.shell_masks.shape[0] if monitor else 0
        n_in, n_out = n_plain + len(names), self.n_shells + len(names)
        self.fwd = np.empty((n_rows, n_in) + field_shape)
        self.modes = np.empty((n_rows, n_in) + half, dtype=complex)
        self.scaled = np.empty((n_rows, n_out) + half, dtype=complex)
        self.real = np.empty((n_rows, n_out) + field_shape)
        self.sup = np.empty((n_rows, self.n_shells) + field_shape)
        self.mult = ws._stacked(names)
        self.views = self._views(n_rows, n_in, n_out)

    def _views(self, n: int, n_in: int, n_out: int) -> tuple:
        fwd, modes = self.fwd[:n, :n_in], self.modes[:n, :n_in]
        scaled, real, k = self.scaled[:n, :n_out], self.real[:n, :n_out], self.n_shells
        return (fwd, modes, scaled, real, modes[:, :1], scaled[:, :k], modes[:, self.n_plain:],
                scaled[:, k:], real[:, :k], self.sup[:n])

    def inputs(self, n: int) -> np.ndarray:
        """The forward buffer's first n rows, laid out for the next ``run``."""
        if self.views[0].shape[0] != n:
            self.views = self._views(n, self.fwd.shape[1], self.real.shape[1])
        return self.views[0]

    def run(self, monitor_only: bool = False):
        """Transform the rows of the last ``inputs``: the monitor value per row
        (None without a monitor) and the inverse buffer's rows (n, n_out, m,
        *grid), a view the next run overwrites.  ``monitor_only`` transforms
        field 0 for its shell blocks alone."""
        ws, views = self.ws, self.views
        if monitor_only:
            views = self._views(views[0].shape[0], 1, self.n_shells)
        fwd, modes, scaled, real, head, shells, tail, scaled_tail, blocks, sup = views
        _real_transform(fwd, ws.grid, out=modes)
        if self.n_shells:
            np.multiply(ws._shell_sel, head, out=shells)
        if not monitor_only:
            np.multiply(tail, self.mult, out=scaled_tail)
        _real_inverse(scaled, ws.grid, out=real)
        if not self.n_shells:
            return None, real
        return _weighted_block_sup(blocks, ws.shell_weights, sup), real


class _StepPlan:
    """The spectral step of one evolve, laid out once for its equation and for
    whether a tangent and an inject ride along.

    A pointwise drift takes one pass: u_k (for the monitor), u_k + dt F(u_k),
    the tangent input, dW_k and the inject slice go forward together, and
    u_k's shell blocks, the two heat steps and the two smoothed slices come
    back together.  kpz1d's drift needs the gradient of u_k first, so it
    takes two: u_k (monitor and gradient), the tangent (gradient), dW_k and
    the inject slice, then the two heat inputs.  Without a mollifier the
    noise and inject slices are used as they are and skip the transforms.
    Each field is written straight into its slot of the forward buffer.

    Every output is a view into a pass's inverse buffer and holds only until
    that pass runs again: a caller that keeps one across steps copies it.
    """

    def __init__(self, ws: _Workspace, spec: EquationSpec, n_rows: int, field_shape: tuple,
                 tangent: bool, inject: bool):
        self.ws, self.spec, self.tangent = ws, spec, tangent
        self.n_noise = (1 + inject) if ws.moll is not None else 0  # smoothed slices
        noise = ("moll",) * self.n_noise
        heat = ("decay",) * (1 + tangent)
        if ws.gradient is None:  # u_k goes forward for the monitor alone
            self.passes = (_Pass(ws, n_rows, field_shape, heat + noise, True, n_plain=1),)
        else:
            grads = ("gradient",) * (1 + tangent)
            self.passes = (_Pass(ws, n_rows, field_shape, grads + noise, True),
                           _Pass(ws, n_rows, field_shape, heat, False))

    def monitor(self, u: np.ndarray) -> np.ndarray:
        """The monitor value of each row of the states u (B, m, *grid)."""
        first = self.passes[0]
        first.inputs(u.shape[0])[:, 0] = u
        return first.run(monitor_only=True)[0]

    def step(self, u, x, dw, h):
        """The transforms of one step from the states u (B, m, *grid): the
        monitor value of u, the heat steps of u + dt f(u) and of the tangent
        input (None without a tangent), and the smoothed increment dw and
        inject slice h (None without an inject)."""
        spec, dt, n, t = self.spec, self.ws.dt, u.shape[0], self.tangent
        first = self.passes[0]
        fwd = first.inputs(n)
        fwd[:, 0] = u
        pointwise = len(self.passes) == 1
        if pointwise:
            np.add(u, dt * spec.drift(u), out=fwd[:, 1])
            if x is not None:
                np.add(x, dt * spec.drift_jvp(u, x), out=fwd[:, 2])
        elif x is not None:
            fwd[:, 1] = x
        at = pointwise + 1 + t  # the noise slots follow the state and tangent inputs
        if self.n_noise:
            fwd[:, at] = dw
        if self.n_noise > 1:
            fwd[:, at + 1] = h
        mon, real = first.run()
        k = first.n_shells  # outputs: shells, then one per multiplied input
        dwe = real[:, k + 1 + t] if self.n_noise else dw
        he = real[:, k + 2 + t] if self.n_noise > 1 else h
        if not pointwise:
            du, dx = real[:, k], real[:, k + 1] if x is not None else None
            second = self.passes[1]
            fwd = second.inputs(n)
            np.add(u, dt * spec.drift(u, du), out=fwd[:, 0])
            if x is not None:
                np.add(x, dt * spec.drift_jvp(u, x, du, dx), out=fwd[:, 1])
            real, k = second.run()[1], 0
        return mon, real[:, k], real[:, k + 1] if x is not None else None, dwe, he


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
    ``inject`` (J, B, m, *grid), raw shift slices h_j read as
    ``inject[j, rows]``, makes that the inhomogeneous flow: after step j the
    tangent gains G(u_j) smooth(h_j) dt (smooth(h_j) dt under additive
    noise), each slice smoothed in its step's forward transform.

    One ``_StepPlan`` per call holds the step's transform buffers.  Step j
    transforms u_j once: its modes give u_j's monitor value as well as
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
    plan = _StepPlan(ws, spec, n_rows, u0.shape[1:], x0 is not None, inject is not None)

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
        if last:
            mon = plan.monitor(u)
        else:
            mon, *step = plan.step(u, x, increments[j, sel],
                                   None if inject is None else inject[j, sel])
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
        g, dg = spec.noise_coefficients(u, derivative=x is not None)
        if g is not None and g.min() < g_min:
            keep = drop(g.reshape(rows.size, -1).min(axis=1) < g_min, j, "nondegenerate", j + 1)
            g, dg = g[keep], None if dg is None else dg[keep]
            if rows.size == 0:
                break
        heat, heat_x, dwe, he = step
        if x is not None:
            # heat_x is a view the next step's transforms overwrite
            x = heat_x.copy() if dg is None else heat_x + dg * x * dwe
            if inject is not None:
                x = x + (he if g is None else g * he) * ws.dt
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
