"""Compensating noise shifts.

Given two nearby initial states u and u_bar and one noise realization, this
module builds a shift h of the noise, supported on [t/2, t], such that the
solution from u_bar under the shifted noise lands on the solution from u at
time t.  The construction integrates an ODE in the artificial parameter
gamma that moves the initial state from u to u_bar at unit speed while
accumulating, slice by slice, minus the transfer direction returned by
:func:`compensating_direction`.

Guard rails mirror the structure of the underlying argument:

* a running per-slice cutoff freezes slice s once the monitor at time s has
  ever exceeded twice the cutoff scale R (frozen slices stop moving but the
  remaining slices continue, so restricting h to [0, s) only ever depends on
  the noise before s);
* each gamma increment is clamped slice-wise so the Cameron-Martin norm of
  the final shift can never exceed M * gamma, whatever the dynamics did.

``verify_coupling`` measures how well the built shift actually couples the
two solutions; everything downstream treats that residual as data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .equations import EquationSpec
from .grids import Field, l2_norm
from .noise import NoisePath, ShiftPath, apply_shift, cm_norm_sq, splice
from .solver import (FlowOutcome, NondegeneracyError, _check_state, _evolve_batch, _Paths,
                     _step_range)
from .tangent import _replay

__all__ = [
    "NondegeneracyError",
    "CouplingParams",
    "ShiftResult",
    "bump_chi",
    "cutoff_chi",
    "compensating_direction",
    "build_shift",
    "verify_coupling",
    "adaptedness_check",
]

NORM_BOUND_SLACK = 1e-9


def bump_chi(s: float) -> float:
    """Unit-mass profile concentrated on the second half of [0, 1].

    Equals 2 on [1/2, 1] and 0 elsewhere, so it vanishes on [0, 1/4] and its
    Riemann sums on power-of-two grids equal 1 exactly.
    """
    if s < 0.0 or s > 1.0:
        raise ValueError(f"argument must be in [0, 1], got {s}")
    return 2.0 if s >= 0.5 else 0.0


def cutoff_chi(r):
    """Monotone C^1 cutoff: 1 on [0, 1], 0 on [2, inf), smoothstep between.

    Takes a float or an array of them (elementwise, same arithmetic).  The
    smoothstep is evaluated only where it is used, so a huge r cannot overflow it."""
    r = np.asarray(r, dtype=np.float64)
    if np.any(r < 0.0):
        raise ValueError(f"argument must be >= 0, got {r}")
    out = np.where(r <= 1.0, 1.0, 0.0)
    mid = ~((r <= 1.0) | (r >= 2.0))  # 1 < r < 2, and NaN
    x = r[mid] - 1.0
    out[mid] = 1.0 - 3.0 * x * x + 2.0 * x * x * x
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class CouplingParams:
    """Knobs of the shift construction.

    M bounds the Cameron-Martin norm of the shift per unit of initial-state
    distance; R is the monitor scale at which slices start to freeze;
    k_gamma the number of Euler steps in gamma; tol the absolute coupling
    tolerance used by the harness (None picks 1e-3 * gamma).
    """

    m_bound: float
    k_gamma: int
    cutoff_r: float = 1e9
    tol: float | None = None

    def __post_init__(self):
        reciprocal_ok = lambda v: v > 0 and 1 / v < math.inf
        for name, ok in (("m_bound", reciprocal_ok(self.m_bound)),
                         ("cutoff_r", reciprocal_ok(self.cutoff_r)), ("k_gamma", self.k_gamma >= 1),
                         ("tol", self.tol is None or 0 < self.tol < math.inf)):
            if not ok:
                raise ValueError(f"{name} = {getattr(self, name)} is out of range: need "
                                 "m_bound > 0 with a finite 1/m_bound, cutoff_r > 0 with a "
                                 "finite 1/cutoff_r, k_gamma >= 1, tol unset or > 0 and finite")

    def check_budget(self, gamma: float):
        """Reject a displacement gamma outside the exponential-moment budget gamma * M <= 1."""
        if self.m_bound * gamma > 1.0 + 1e-12:
            raise ValueError(f"gamma * M = {gamma * self.m_bound:g} > 1; the exponential-moment "
                             "bound needs gamma * M <= 1 (shrink gamma or M)")


@dataclass(frozen=True)
class ShiftResult:
    """Outcome of the gamma integration.

    status is 'completed' (reached u_bar with every slice live), 'frozen'
    (some slice hit the cutoff, gamma_star records the first event), or
    'dead' (the very first evolution blew up before t, h is zero).
    """

    h: ShiftPath
    gamma_target: float
    gamma_reached: float
    status: str
    gamma_star: float | None
    cm_norm_sq: float
    a_bound_used: float
    cutoff_r: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def cm_norm(self) -> float:
        return math.sqrt(self.cm_norm_sq)

    def __post_init__(self):
        if self.cm_norm > self.a_bound_used * self.gamma_reached + NORM_BOUND_SLACK:
            raise RuntimeError(
                f"norm bound violated: |h| = {self.cm_norm} > "
                f"M * gamma = {self.a_bound_used * self.gamma_reached}"
            )


def _transfer_weights(k_t: int, t: float) -> np.ndarray:
    """(1/t) chi(k/k_t) for the k_t slices before t: zero up to some slice, nonzero from it on."""
    return np.array([bump_chi(k / k_t) for k in range(k_t)]) / t


def _transfer_slices(paths: _Paths, chi_over_t: np.ndarray, spec: EquationSpec) -> np.ndarray:
    """Transfer directions of B paths evolved k_t steps with the tangent carried.

    Returns slices (k_t, B, m, *grid), slice k of row b being chi_over_t[k]
    G^{-1}(u_k) times the tangent value at k+1 for every k the row's stored
    path reaches (k < n_stored - 1) and zero elsewhere, computed only from the
    first slice where chi is nonzero.  G is not checked against g_min here:
    the evolve retires a row at the first state whose G drops below it, so
    every state read here has passed that check.
    """
    k_t, field_axes = chi_over_t.size, (None,) * (paths.fields.ndim - 2)
    lo = k_t - np.count_nonzero(chi_over_t)
    use = (np.arange(lo, k_t)[:, None] < paths.n_stored - 1)[(...,) + field_axes]
    # a used state passed the evolve's monitor (a finite r_blowup), far below where G
    # overflows; only a state a row keeps at its death, and does not use, can overflow
    with np.errstate(over="ignore", invalid="ignore"):
        g, _ = spec.noise_coefficients(paths.fields[lo:k_t])
    out = np.zeros(paths.tangent[1:k_t + 1].shape)
    np.divide(paths.tangent[lo + 1:k_t + 1], 1.0 if g is None else g, out=out[lo:], where=use)
    np.multiply(chi_over_t[(slice(lo, None), None) + field_axes], out[lo:], out=out[lo:])
    return out


def compensating_direction(outcome: FlowOutcome, v: Field, t: float,
                           spec: EquationSpec) -> ShiftPath:
    """Noise direction equivalent to the state variation v at time t.

    Slice k carries (1/t) chi(t_k / t) G(u(t_k))^{-1} times the tangent value
    transported to the end of that slice, so injecting the returned path into
    the linearized flow reproduces J_{0,t} v exactly for the discrete stepper.
    Raises NondegeneracyError when G drops below the floor of ``spec``
    anywhere before t on the replayed path.
    """
    if outcome.s != 0.0:
        raise ValueError("transfer paths are built from time 0")
    k_t = outcome.time_index(t)
    if k_t < 1:
        raise ValueError("need t > 0 on the trajectory grid")
    paths = _replay(outcome, v, 0, k_t, spec)
    values = _transfer_slices(paths, _transfer_weights(k_t, t), spec)
    # full path length: pad to the trajectory's noise grid when embedded later
    return ShiftPath(outcome.grid, outcome.dt, values[:, 0])


def _shift_slices(t: float, dt: float, n_steps: int) -> int:
    """Number of noise slices before t, checked as ``evolve`` checks t; at least two."""
    _, k_t = _step_range(0.0, t, dt, n_steps)
    if k_t < 2:
        raise ValueError("need t in (0, 1] with at least two slices")
    return k_t


def _build_shift_batch(u: Field, u_bars: list[Field], increments: np.ndarray, t: float, dt: float,
                       n_steps: int, spec: EquationSpec, params: CouplingParams,
                       h: np.ndarray | None = None) -> tuple[list[ShiftResult], _Paths]:
    """The gamma loop of :func:`build_shift` for B noise rows at once.

    ``increments`` (k_t, B, m, *grid) holds the noise slices before t of
    each row and ``u_bars`` the B target states.  Rows share u and every
    gamma step; each keeps its own gamma, shift, cutoffs, clamps, gamma_star
    and status, and leaves the active set when it dies at step 0 or has no
    live slice left.  A row that dies in a later step (the evolve retires it
    at its first state past the monitor threshold or with G below g_min)
    goes on with the slices its stored path reaches.  A row whose target is
    u itself rides only in step 0 and ends 'completed' with a zero shift.
    Each step's bookkeeping is array operations over the active rows (a basic
    slice until a row leaves).  The shifts build up in ``h``, a (k_t, B, m,
    *grid) zero array if the caller gives one.  Returns one result per row
    (shifts padded to ``n_steps`` slices) and the step-0 paths, which are the
    unshifted evolutions from u.
    """
    grid = u.grid
    k_t, n_rows = increments.shape[:2]
    shape = (u.m,) + grid.shape
    m_bound, cutoff_r, k_gamma = params.m_bound, params.cutoff_r, params.k_gamma
    field_axes = (None,) * (grid.dim + 1)

    def result(b, h_b, status, gamma_reached, gamma_star, diagnostics):
        h_full = np.zeros((n_steps,) + shape)
        h_full[:k_t] = h_b
        path = ShiftPath(grid, dt, h_full)
        return ShiftResult(h=path, gamma_target=float(gamma_target[b]),
                           gamma_reached=gamma_reached, status=status, gamma_star=gamma_star,
                           cm_norm_sq=cm_norm_sq(path), a_bound_used=m_bound,
                           cutoff_r=cutoff_r, diagnostics=diagnostics)

    # one l2_norm per row keeps each row's reduction order
    gamma_target = np.array([l2_norm(u_bar - u) for u_bar in u_bars])
    same = gamma_target == 0.0
    v = np.zeros((n_rows,) + shape)  # zero for rows with u_bar == u
    for b in np.flatnonzero(~same):
        v[b] = ((u_bars[b] - u) * (1.0 / gamma_target[b])).values
    d_gamma = gamma_target / k_gamma

    chi_over_t = _transfer_weights(k_t, t)
    lo = k_t - np.count_nonzero(chi_over_t)  # chi's support: the slices lo..k_t-1
    cap = m_bound / math.sqrt(float(k_t - lo) * dt) * d_gamma  # L2 cap per slice of dh

    vol = grid.cell_volume
    h = np.zeros((k_t, n_rows) + shape) if h is None else h
    cutoffs = np.ones((k_t, n_rows))
    # row b's diagnostics of gamma step s sit at [s, b], for its first n_recorded[b] steps
    monitor_per_step, min_cutoff_per_step = np.empty((2, k_gamma, n_rows))
    n_recorded = np.full(n_rows, k_gamma)
    clamp_events = np.zeros(n_rows, dtype=int)
    gamma_reached = np.zeros(n_rows)
    gamma_star = np.full(n_rows, np.nan)  # NaN until a support slice freezes
    gamma = np.zeros(n_rows)
    rows, sel = np.arange(n_rows), slice(None)  # sel: a basic slice until a row leaves

    for step in range(k_gamma):
        u_gamma = u.values + gamma[sel][(...,) + field_axes] * v[sel]
        if step == 0:
            u_gamma[same] = u.values  # their unshifted path starts from u itself
        out = _evolve_batch(u_gamma, increments[:, sel] + h[:, sel] * dt, spec, grid, dt,
                            x0=v[sel])
        alive = out.alive
        if step == 0:
            from_u = replace(out, tangent=None)

        # refresh per-slice running cutoffs from this trajectory's monitor
        reached = np.arange(k_t)[:, None] < np.minimum(out.n_stored, k_t)
        step_cut = np.where(reached, cutoff_chi(out.trace[:k_t] / cutoff_r), 0.0)
        new_cutoffs = np.minimum(cutoffs[:, sel], step_cut)
        cutoffs[:, sel] = new_cutoffs
        # a row that leaves at step 0 by death or u_bar == u ignores what it records here
        first = rows[(new_cutoffs[lo:] == 0.0).any(axis=0) & np.isnan(gamma_star[sel])]
        gamma_star[first] = gamma[first]
        # a live row took every step, so its last monitor value is the trace's last
        monitor_per_step[step, sel] = np.where(alive, out.trace[-1], math.inf)
        min_cutoff_per_step[step, sel] = new_cutoffs[lo:].min(axis=0)
        going = (new_cutoffs[lo:] > 0.0).any(axis=0)
        if step == 0:
            going &= alive & ~same  # a row dead at step 0 ends with status 'dead'

        # h moves only on chi's support, where the transfer slices are
        a_slices, cut = _transfer_slices(out, chi_over_t, spec)[lo:], new_cutoffs[lo:]
        del out  # free this step's paths and tangents before the next evolve
        if not going.all():
            left = rows[~going]
            gamma_reached[left], n_recorded[left] = gamma[left], step + 1
            rows = sel = rows[going]
            a_slices, cut = a_slices[:, going], cut[:, going]
            if rows.size == 0:
                break

        increment = -d_gamma[sel][(...,) + field_axes] * a_slices * cut[(...,) + field_axes]
        # slice-wise clamp keeps |h| <= M * gamma without looking across slices
        norms = np.sqrt(vol * np.sum(increment.reshape(k_t - lo, rows.size, -1) ** 2, axis=2))
        over = norms > cap[sel]
        clamp_events[sel] += over.sum(axis=0)
        scale = cap[sel] / np.where(over, norms, cap[sel])
        h[lo:, sel] += increment * scale[(...,) + field_axes]
        gamma += d_gamma
    gamma_reached[rows] = gamma_target[rows]

    frozen_counts = (cutoffs[lo:] == 0.0).sum(axis=0).tolist()
    min_cutoffs, stars = cutoffs.min(axis=0).tolist(), gamma_star.tolist()
    results = []
    for b in range(n_rows):
        if same[b]:
            results.append(result(b, 0.0, "completed", 0.0, None, {"monitor_per_step": []}))
            continue
        if from_u.reasons[b] is not None:
            results.append(result(b, 0.0, "dead", 0.0, None,
                                  {"monitor_per_step": [math.inf], "reason": from_u.reasons[b]}))
            continue
        # a row left early only once no support slice (k_t >= 2) was live: gamma_star is set
        star, n = None if math.isnan(stars[b]) else stars[b], n_recorded[b]
        results.append(result(
            b, h[:, b], "completed" if star is None else "frozen", float(gamma_reached[b]), star,
            {"monitor_per_step": monitor_per_step[:n, b].tolist(),
             "clamp_events": int(clamp_events[b]), "frozen_slice_count": frozen_counts[b],
             "min_cutoff": min_cutoffs[b],
             "min_cutoff_per_step": min_cutoff_per_step[:n, b].tolist()}))
    return results, from_u


def build_shift(u: Field, u_bar: Field, w: NoisePath, t: float, spec: EquationSpec,
                params: CouplingParams) -> ShiftResult:
    """Integrate the coupling ODE from u to u_bar and return the shift.

    Explicit Euler in gamma over ``params.k_gamma`` steps; each step evolves
    the current initial state under the currently shifted noise, updates the
    per-slice cutoffs from the monitor trace, and accumulates minus the
    transfer direction on every still-live slice.
    """
    if not isinstance(u, Field) or not isinstance(u_bar, Field):
        raise TypeError("build_shift couples two live states")
    _check_state(u, w.grid, w.m, spec)
    _check_state(u_bar, w.grid, w.m, spec)
    k_t = _shift_slices(t, w.dt, w.n_steps)
    results, _ = _build_shift_batch(u, [u_bar], w.increments[:k_t, None], t, w.dt, w.n_steps,
                                    spec, params)
    return results[0]


def _coupling_residuals(grid, gammas, from_u: _Paths, moved: _Paths) -> list[float]:
    """Relative coupling residual of each row: the endpoint distance of the
    paths from u and the paths from u_bar under the shifted noise, over the
    row's initial distance ``gammas[b]``; +inf for a row where either side dies."""
    return [l2_norm(Field(grid, from_u.final(b)) - Field(grid, moved.final(b)))
            / max(gammas[b], 1e-300)
            if from_u.reasons[b] is None and moved.reasons[b] is None else math.inf
            for b in range(len(from_u.reasons))]


def verify_coupling(u: Field, u_bar: Field, w: NoisePath, h: ShiftPath, t: float,
                    spec: EquationSpec) -> float:
    """Relative coupling residual at time t.

    Evolves u under w and u_bar under the shifted noise and returns the L2
    distance of the endpoints divided by the initial distance; +inf when
    either side dies.
    """
    _, k_t = _step_range(0.0, t, w.dt, w.n_steps)
    moved = apply_shift(w, h)
    _check_state(u, w.grid, w.m, spec)
    _check_state(u_bar, w.grid, w.m, spec)
    both = _evolve_batch(np.stack([u.values, u_bar.values]),
                         np.stack([w.increments[:k_t], moved.increments[:k_t]], axis=1),
                         spec, w.grid, w.dt)
    return _coupling_residuals(u.grid, [l2_norm(u_bar - u)], both.rows(slice(0, 1)),
                               both.rows(slice(1, 2)))[0]


def adaptedness_check(u: Field, u_bar: Field, w_a: NoisePath, w_b: NoisePath,
                      s: float, t: float, spec: EquationSpec,
                      params: CouplingParams) -> float:
    """Max deviation of the built shift before time s when the noise is
    replaced beyond s.  The construction only reads each slice's past, so the
    deviation is exactly zero."""
    if not s < t:
        raise ValueError("need s < t")
    k_s = w_a.time_index(s)
    h_a = build_shift(u, u_bar, w_a, t, spec, params).h
    h_b = build_shift(u, u_bar, splice(w_a, w_b, s), t, spec, params).h
    if k_s == 0:
        return 0.0
    return float(np.max(np.abs(h_a.values[:k_s] - h_b.values[:k_s])))
