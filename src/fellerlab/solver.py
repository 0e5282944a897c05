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
u_k + dt F(u_k) and dW_k go forward together, and the heat step and the
mollified increment come back together.  kpz1d makes two of each, since
its drift needs the gradient of u_k first: one pass for the gradient and
the increment, one for the heat step.  The stepper can carry the tangent
flow

    x_{k+1} = E (x_k + dt DF(u_k) x_k) + DG(u_k) x_k * smooth(dW_k)

in the same transforms (its heat input, and for kpz1d its gradient, ride
beside the state's), and can add a shift slice, smoothed beside dW_k, to
it.  It is the only tangent loop: the linearizations in ``tangent`` and
``shift`` replay a stored path by evolving it again from a stored state
along the same raw increments, with the tangent carried.

A path dies at its first state that fails a check, and that depends only
on the path's past, so the steps do not check: they write their states
into a buffer, and a block of states is checked at once after it is
stepped.  The monitor of the whole block is one batched proxy norm
(``grids._ProxyNorms``, its buffers allocated once per evolve, inverting
only the shell blocks that can hold a state's maximum), G and finiteness
one test each; rows that died in the block leave at its end, and what
they computed past their death is discarded.  Given the running monitor of
an earlier evolve, an evolve continues it: a split evolve has the whole's bits.

Each evolve lays its step out once (``_StepPlan``) and binds it once per
row count: the bound step zips over a block's state and tangent slots,
writing each next state and tangent into the next slot, and the spec's
kernels write the drift and G into the plan's buffers, u*u shared.  Rows
that die leave the leading rows of every buffer to the survivors.  At
batch size one a step is mostly numpy call overhead, which this keeps to
the calls the arithmetic needs.  Every transform and product gets the
operands it would get on fresh arrays, so no bit changes.

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

import numpy as np

from .equations import EquationSpec
from .grids import (Field, Grid, _ProxyNorms, _dyadic_masks, _gaussian_multiplier,
                    _transforms)
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
        return _snap_index(time - self.s, self.dt, self.n_stored - 1)

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
    batch keeps one state per row, its last, and the whole trace; the counts
    are those of the full batch.  The noise stays with the caller.
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
        row's last state, with its whole monitor trace."""
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


def _pass(grid: Grid, n_rows: int, field_shape: tuple, mults: tuple):
    """One batched forward and inverse real transform over a fixed stack of
    fields, buffers and transforms bound once for up to ``n_rows`` rows:
    ``bind(n)`` -> (fwd, real, run), a view per field slot (one per
    half-spectrum multiplier in ``mults``) of the forward and the inverse
    buffer's first n rows, and ``run()``, which transforms fwd, multiplies the
    modes by the multipliers in place (they are then the 2D inverse's scratch)
    and transforms back.  Fewer rows use the leading rows of every buffer, so
    every transform and product has the operands of a fresh batch that size."""
    half = field_shape[:-1] + (grid.n // 2 + 1,)
    fwd = np.empty((n_rows, len(mults)) + field_shape)
    modes = np.empty((n_rows, len(mults)) + half, dtype=complex)
    real = np.empty_like(fwd)
    mult = np.stack(mults).astype(complex)[:, None]
    forward, inverse = _transforms()

    def bind(n: int) -> tuple:
        f, m, r = fwd[:n], modes[:n], real[:n]

        def run():
            forward(f, grid, m)
            np.multiply(m, mult, m)
            inverse(m, grid, r, m)
        return list(f.swapaxes(0, 1)), list(r.swapaxes(0, 1)), run
    return bind


class _StepPlan:
    """The spectral step of one evolve, laid out once for its equation and for
    whether a tangent and an inject ride along, over the block slots
    ``states`` (T+1, B, m, *grid) and ``xs`` (the tangent's, or None).

    A pointwise drift takes one pass: u_k + dt F(u_k), the tangent input,
    dW_k and the inject slice go forward together, and the two heat steps
    and the two smoothed slices come back together.  kpz1d's drift needs
    the gradient of u_k first, so it takes two: u_k and the tangent (for
    their gradients), dW_k and the inject slice, then the two heat inputs.
    Without a mollifier the noise and inject slices are used as they are
    and skip the transforms.  Each field is written straight into its slot
    of the forward buffer.  The multipliers (heat decay, mollifier and
    kpz1d's dealiased gradient) are built here, on the half spectrum; the
    drift and G are the spec's kernels, run on buffers of the plan.
    """

    def __init__(self, grid: Grid, dt: float, spec: EquationSpec, states: np.ndarray,
                 xs: np.ndarray | None, increments, inject):
        half = lambda a: a[..., :grid.n // 2 + 1]
        self.dt, self.states, self.xs = dt, states, xs
        self.increments, self.inject = increments, inject
        self.drift, self.noise = spec._drift_kernel(), spec._noise_kernel()
        n_rows, field_shape = states.shape[1], states.shape[2:]
        moll = () if spec.eps == 0.0 else (half(_gaussian_multiplier(grid, spec.eps)),)
        noise = moll * (1 + (inject is not None))  # one multiplier per smoothed slice
        self.n_noise, fields = len(noise), 1 + (xs is not None)
        heat = (half(np.exp(-grid.wavenumbers_sq() * dt)),) * fields
        if spec.kind != "kpz1d":
            self.passes = (_pass(grid, n_rows, field_shape, heat + noise),)
        else:
            k = half(grid.frequencies()[0])
            grad = ((1j * 2.0 * np.pi / grid.extent[0]) * k) * (np.abs(k) <= grid.n // 3)
            self.passes = (_pass(grid, n_rows, field_shape, (grad,) * fields + noise),
                           _pass(grid, n_rows, field_shape, heat))
        self.buffers = np.empty((5, n_rows) + field_shape)

    def bind(self, n: int, sel):
        """The step of the block's first n rows along the increments' rows
        ``sel``: ``run(j0, count)`` takes steps j0..j0+count-1 from slots
        0..count-1, each writing the next state and tangent into the next slot."""
        dt = np.array(self.dt)  # a 0-d array multiplies like the float, without a conversion
        drift, noise, inject, increments = self.drift, self.noise, self.inject, self.increments
        add, mul, copy = np.add, np.multiply, np.copyto
        tangent, smoothed, pointwise = self.xs is not None, self.n_noise, len(self.passes) == 1
        states = self.states[:, :n]
        xs = self.xs[:, :n] if tangent else states  # read and written only with a tangent
        # u*u, scratch, and the kernels' outputs (the pointwise kernels use two)
        uu, t, out = self.buffers[0, :n], self.buffers[1, :n], tuple(self.buffers[2:, :n])
        passes = [p(n) for p in self.passes]
        (fwd, real, first), (in_heat, heat, heat_pass) = passes[0], passes[-1]
        at = 1 + tangent  # the noise slots follow the state and tangent inputs
        in_dw, in_h, *_ = fwd[at:] + [None] * 2
        dw_smooth, h_smooth, *_ = real[at:] + [None] * 2
        in_x, heat_x, dx = (in_heat[1], heat[1], real[1]) if tangent else (None,) * 3

        def run(j0: int, count: int):
            for u, x, u_next, x_next, j in zip(states, xs, states[1:], xs[1:],
                                               range(j0, j0 + count)):
                dwe = increments[j, sel]
                he = None if inject is None else inject[j, sel]
                if smoothed:  # the raw slices go forward, and come back smoothed
                    copy(in_dw, dwe)
                    dwe = dw_smooth
                    if he is not None:
                        copy(in_h, he)
                        he = h_smooth
                if pointwise:
                    sq = mul(u, u, uu)
                    f, d = drift(u, sq, out, tangent)
                    if tangent:
                        d = mul(d, x, out[1])
                else:  # kpz1d: the gradients of u and x first
                    copy(fwd[0], u)
                    if tangent:
                        copy(fwd[1], x)
                    first()
                    f, d = drift(real[0], dx, out, tangent)
                add(u, mul(dt, f, out[0]), in_heat[0])
                if tangent:
                    add(x, mul(dt, d, out[1]), in_x)
                heat_pass()
                g, dg = (None, None) if noise is None else noise(u, sq, out, tangent)
                if tangent:
                    if dg is None:
                        copy(x_next, heat_x)
                    else:
                        add(heat_x, mul(mul(dg, x, t), dwe, t), x_next)
                    if he is not None:
                        add(x_next, mul(he if g is None else mul(g, he, t), dt, t), x_next)
                add(heat[0], dwe if g is None else mul(g, dwe, t), u_next)
        return run


# bytes of shell blocks that one block check norms at once (``_ProxyNorms``
# has room for one real block per dyadic shell of each state): a block holds
# as many states as fit, at least one and at most the whole path
_CHECK_BYTES = 1 << 18


def _evolve_batch(u0: np.ndarray, increments, spec: EquationSpec, grid: Grid, dt: float,
                  final_only: bool = False, x0: np.ndarray | None = None,
                  inject: np.ndarray | None = None, r0: np.ndarray | None = None) -> _Paths:
    """Evolve B initial states u0 (B, m, *grid) along their own increments
    (J, B, m, *grid), one step of dt per increment slice.

    ``increments`` is read only as ``increments[j, rows]`` and through its
    ``shape``: an array, or a source that draws slice j of the given rows on
    demand (``noise._SliceSource``).  With ``final_only`` the batch keeps
    only each row's last state (and tangent), but all its monitor values;
    ``r0`` (B,) continues an earlier evolve's running monitor.
    With a tangent ``x0`` (B, m, *grid) the batch also carries the tangent
    flow from x0 along each path, in the same transforms as the states.
    ``inject`` (J, B, m, *grid), raw shift slices h_j read as
    ``inject[j, rows]``, makes that the inhomogeneous flow: after step j the
    tangent gains G(u_j) smooth(h_j) dt (smooth(h_j) dt under additive
    noise), each slice smoothed in its step's forward transform.

    A row dies at its first state u_j that is not finite (j > 0), whose
    running monitor exceeds ``r_blowup`` (a finite state whose proxy norm
    overflows to NaN counts as +inf), or (j < J) whose G drops below
    ``g_min``, tested in that order; it keeps u_0..u_{j-1}, and u_j too
    after a G death or a monitor death at j = 0.  The steps run a block of
    states at a time (``_CHECK_BYTES``), and then the block is checked at
    once; the steps a row took past its death are discarded.  Every numpy
    call acts on each row and state as it would on that row alone, so row b
    is bit-identical to a batch of one, whatever the block size.
    """
    n_rows, n_steps = u0.shape[0], increments.shape[0]
    fields = np.zeros((1 if final_only else n_steps + 1,) + u0.shape)
    tangent = None if x0 is None else np.zeros(fields.shape)
    trace = np.zeros((n_steps + 1, n_rows))
    n_stored = np.full(n_rows, n_steps + 1)
    death_step = np.zeros(n_rows, dtype=int)
    reasons = [None] * n_rows

    n_shells = _dyadic_masks(grid.dim, grid.n).shape[0]
    cells = math.prod(u0.shape[1:])  # entries of one state
    size = min(n_steps + 1, max(1, _CHECK_BYTES // max(1, 8 * n_shells * cells * n_rows)))
    states = np.empty((size + 1,) + u0.shape)  # u_{j0+i} of the block from u_{j0} at slot i
    xs = None if x0 is None else np.empty_like(states)  # and its tangent
    states[0] = u0
    if xs is not None:
        xs[0] = x0
    rows = np.arange(n_rows)
    sel = slice(None)  # basic-slice stand-in for ``rows`` while no row has died
    r = r0  # running monitor of the active rows before the block
    plan = _StepPlan(grid, dt, spec, states, xs, increments, inject)
    step = plan.bind(n_rows, sel)
    norms = _ProxyNorms(grid, spec.monitor_eta, u0.shape[1:], size * n_rows)

    def keep(b, i, count):
        """Store the first ``count`` states of the block's rows i as rows b."""
        if count > 0:
            trace[j0:j0 + count, b] = mon[:count, i]
            to = slice(1) if final_only else slice(j0, j0 + count)
            of = slice(count - 1 if final_only else 0, count)
            fields[to, b] = states[of, i]
            if xs is not None:
                tangent[to, b] = xs[of, i]

    # a non-finite death is recorded as data, so its overflow is not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for j0 in range(0, n_steps + 1, size):
            n, last = rows.size, min(size, n_steps + 1 - j0)
            if n == 0:
                break
            step(j0, min(last, n_steps - j0))

            block = states[:last, :n]
            mon = norms(block.reshape((-1,) + u0.shape[1:])).reshape(last, n)
            bad = ~np.isfinite(block).reshape(last, n, cells).all(axis=2)
            if r is not None:
                np.maximum(r, mon[0], out=mon[0])
            np.maximum.accumulate(mon, axis=0, out=mon)
            bad[0] &= j0 > 0  # u_0 is not tested
            over = mon > spec.r_blowup
            hit = bad | over
            g = spec.noise_coefficients(block[:n_steps - j0])[0]
            if g is not None:  # u_J takes no step, so its G is not tested
                low = g.reshape(g.shape[0], n, cells).min(axis=2) < spec.g_min
                hit[:low.shape[0]] |= low
            died = np.flatnonzero(hit.any(axis=0))
            for i in died:  # each by its first event, in the order of the checks
                k = int(hit[:, i].argmax())
                reason, stored = (("non_finite", k) if bad[k, i] else
                                  ("monitor_threshold", max(k, 1 - j0)) if over[k, i] else
                                  ("nondegenerate", k + 1))
                b = rows[i]
                reasons[b], death_step[b], n_stored[b] = reason, j0 + k, j0 + stored
                keep(b, i, stored)
            live = slice(n)
            if died.size:
                live = np.delete(np.arange(n), died)
                rows = sel = rows[live]
                step = plan.bind(rows.size, sel)
            keep(sel, live, last)
            # the block's last step made the next block's first state
            states[0, :rows.size] = states[size, live]
            if xs is not None:
                xs[0, :rows.size] = xs[size, live]
            r = mon[-1, live]
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

    increments = w.increments[k_s:k_t]
    paths = _evolve_batch(u0.values[None], increments[:, None], spec, grid, dt)
    return paths.outcome(0, grid, s, t, dt, increments)


def r_monitor(outcome: FlowOutcome, time: float, eta: float) -> float:
    """Running maximum of the Hoelder proxy at exponent ``eta`` up to ``time``.

    Nondecreasing in ``time``; +inf once the trajectory is dead.  The stored
    states are normed 64 at a time.
    """
    # built first, so that eta is checked on a dead trajectory too
    norms = _ProxyNorms(outcome.grid, eta, outcome.fields.shape[1:], min(64, outcome.n_stored))
    if not outcome.alive and outcome.blow_up_time is not None and time >= outcome.blow_up_time - 1e-12:
        return math.inf
    states = outcome.fields[:outcome.time_index(time) + 1]
    return float(max(norms(states[j:j + 64]).max() for j in range(0, len(states), 64)))


def check_semigroup(u0, w: NoisePath, s: float, t: float, r: float, spec: EquationSpec) -> float:
    """Max deviation between the one-shot flow s -> r and the composition
    through t.  Deterministic stepping makes this exactly zero, including the
    dead-absorption cases."""
    first = evolve(u0, w, s, t, spec)  # evolve checks s <= t, and then t <= r
    second = evolve(first.final_or_dead, w, t, r, spec)
    whole = evolve(u0, w, s, r, spec)
    if not whole.alive and not second.alive:
        return 0.0
    if whole.alive != second.alive:
        return math.inf
    return float(np.max(np.abs(whole.final.values - second.final.values)))
