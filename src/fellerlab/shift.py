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
from .noise import NoisePath, ShiftPath, _snap_index, apply_shift, cm_norm_sq, splice
from .solver import (FlowOutcome, NondegeneracyError, _check_state, _evolve_batch, _Paths,
                     get_workspace)
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

    Takes a float or an array of them (elementwise, same arithmetic)."""
    r = np.asarray(r, dtype=np.float64)
    if np.any(r < 0.0):
        raise ValueError(f"argument must be >= 0, got {r}")
    x = r - 1.0
    out = np.where(r <= 1.0, 1.0, np.where(r >= 2.0, 0.0, 1.0 - 3.0 * x * x + 2.0 * x * x * x))
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
        if self.m_bound <= 0 or self.cutoff_r <= 0 or self.k_gamma < 1:
            raise ValueError("need m_bound > 0, cutoff_r > 0, k_gamma >= 1")


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
    cm_norm: float
    a_bound_used: float
    cutoff_r: float
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.cm_norm > self.a_bound_used * self.gamma_reached + NORM_BOUND_SLACK:
            raise RuntimeError(
                f"norm bound violated: |h| = {self.cm_norm} > "
                f"M * gamma = {self.a_bound_used * self.gamma_reached}"
            )


def _transfer_slices(paths: _Paths, tangent: np.ndarray, k_t: int, t: float,
                     spec: EquationSpec) -> tuple[np.ndarray, np.ndarray]:
    """Transfer directions of B stored (possibly truncated) paths at once.

    ``tangent`` holds the tangent values along the paths, at most k_t + 1
    entries laid out like ``paths.fields``, zero past each row's stored path
    (the tangent carried by the evolve).  Returns slices (k_t, B, m, *grid),
    slice k of row b being (1/t) chi(k/k_t) G^{-1}(u_k) times the tangent
    value at k+1 for every k the row's stored path reaches (k < n_stored - 1)
    and zero elsewhere, and per row the first such support slice where G
    drops below g_min (-1 when none does).
    """
    n_rows = paths.fields.shape[1]
    steps = np.minimum(paths.n_stored - 1, k_t)
    n_swept = tangent.shape[0] - 1
    chi_over_t = np.array([bump_chi(k / k_t) / t for k in range(k_t)])
    reached = np.zeros((k_t, n_rows), dtype=bool)
    reached[:n_swept] = np.arange(n_swept)[:, None] < steps
    use = reached & (chi_over_t > 0)[:, None]
    field_axes = (None,) * (paths.fields.ndim - 2)
    contrib = np.zeros((k_t,) + paths.fields.shape[1:])
    contrib[:n_swept] = tangent[1:]
    g = spec.g_values(paths.fields[:k_t])
    first_low = np.full(n_rows, -1)
    if g is not None:
        low = use & (g.reshape(k_t, n_rows, -1).min(axis=2) < spec.g_min)
        first_low = np.where(low.any(axis=0), np.argmax(low, axis=0), -1)
        # slices a row does not use divide zeros by one
        contrib = contrib / np.where(use[(...,) + field_axes], g, 1.0)
    return np.where(use[(...,) + field_axes],
                    chi_over_t[(slice(None), None) + field_axes] * contrib, 0.0), first_low


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
    values, _ = _transfer_slices(paths, paths.tangent, k_t, t, spec)
    # full path length: pad to the trajectory's noise grid when embedded later
    return ShiftPath(outcome.grid, outcome.dt, values[:, 0])


def _shift_slices(t: float, dt: float, n_steps: int) -> int:
    """Number of noise slices before t, checked for the shift construction."""
    k_t = _snap_index(t, dt, n_steps)
    if k_t < 2 or t > 1.0 + 1e-12:
        raise ValueError("need t in (0, 1] with at least two slices")
    return k_t


def _build_shift_batch(u: Field, u_bars: list[Field], increments: np.ndarray, t: float, dt: float,
                       n_steps: int, spec: EquationSpec,
                       params: CouplingParams) -> tuple[list[ShiftResult], _Paths]:
    """The gamma loop of :func:`build_shift` for B noise rows at once.

    ``increments`` (k_t, B, m, *grid) holds the noise slices before t of
    each row and ``u_bars`` the B target states.  Rows share u and every
    gamma step; each keeps its own gamma, shift, cutoffs, clamps, gamma_star
    and status, and leaves the active set when it dies at step 0, has no
    live slice left or trips nondegeneracy.  A row whose target is u itself
    rides only in step 0 and ends 'completed' with a zero shift.  Returns
    one result per row (shifts padded to ``n_steps`` slices) and the step-0
    paths, which are the unshifted evolutions from u.
    """
    grid = u.grid
    k_t, n_rows = increments.shape[:2]
    shape = (u.m,) + grid.shape
    m_bound, cutoff_r = params.m_bound, params.cutoff_r
    field_axes = (None,) * (grid.dim + 1)

    def result(b, h, status, gamma_reached, gamma_star, diagnostics):
        h_full = np.zeros((n_steps,) + shape)
        h_full[:k_t] = h
        path = ShiftPath(grid, dt, h_full)
        return ShiftResult(h=path, gamma_target=float(gamma_target[b]),
                           gamma_reached=gamma_reached, status=status, gamma_star=gamma_star,
                           cm_norm=math.sqrt(cm_norm_sq(path)), a_bound_used=m_bound,
                           cutoff_r=cutoff_r, diagnostics=diagnostics)

    # one l2_norm per row keeps each row's reduction order
    gamma_target = np.array([l2_norm(u_bar - u) for u_bar in u_bars])
    same = gamma_target == 0.0
    v = np.zeros((n_rows,) + shape)  # zero for rows with u_bar == u
    for b in np.flatnonzero(~same):
        v[b] = ((u_bars[b] - u) * (1.0 / gamma_target[b])).values
    d_gamma = gamma_target / params.k_gamma

    ws = get_workspace(grid, dt, spec)
    support = np.array([bump_chi(k / k_t) > 0 for k in range(k_t)])
    support_measure = float(np.sum(support)) * dt
    slice_cap = m_bound / math.sqrt(support_measure)  # L2 cap per slice of dh/dgamma
    cap = slice_cap * d_gamma

    vol = grid.cell_volume
    h = np.zeros((k_t, n_rows) + shape)
    cutoffs = np.ones((k_t, n_rows))
    monitor_per_step = [[] for _ in range(n_rows)]
    min_cutoff_per_step = [[] for _ in range(n_rows)]
    clamp_events = np.zeros(n_rows, dtype=int)
    gamma_reached = np.zeros(n_rows)
    gamma_star = [None] * n_rows
    gamma = np.zeros(n_rows)
    from_u = None
    rows = np.arange(n_rows)

    for step in range(params.k_gamma):
        u_gamma = u.values + gamma[rows][(...,) + field_axes] * v[rows]
        if step == 0:
            u_gamma[same] = u.values  # their unshifted path starts from u itself
        shifted = increments[:, rows] + h[:, rows] * dt
        out = _evolve_batch(u_gamma, shifted, spec, ws, x0=v[rows])
        alive = out.alive
        if step == 0:
            from_u = replace(out, tangent=None)
            going = alive & ~same  # a row dead at step 0 ends with status 'dead'
        else:
            going = np.ones(rows.size, dtype=bool)

        # refresh per-slice running cutoffs from this trajectory's monitor
        n_live = np.minimum(out.n_stored, k_t)
        reached = np.arange(k_t)[:, None] < n_live
        step_cut = np.where(reached, cutoff_chi(out.trace[:k_t] / cutoff_r), 0.0)
        new_cutoffs = np.minimum(cutoffs[:, rows], step_cut)
        cutoffs[:, rows] = new_cutoffs
        live = support[:, None] & (new_cutoffs > 0.0)
        for i, b in enumerate(rows):
            if not going[i]:
                continue
            if gamma_star[b] is None and np.any((new_cutoffs[:, i] == 0.0) & support):
                gamma_star[b] = float(gamma[b])
            monitor_per_step[b].append(float(out.trace[out.n_stored[i] - 1, i])
                                       if alive[i] else math.inf)
            min_cutoff_per_step[b].append(float(np.min(new_cutoffs[support, i])))
        going &= live.any(axis=0)

        a_slices, first_low = _transfer_slices(out, out.tangent, k_t, t, spec)
        del out  # free this step's paths and tangents before the next evolve
        for i in np.flatnonzero(going & (first_low >= 0)):
            # evolve marks these dead; only reachable through the final stored state
            b = rows[i]
            gamma_star[b] = float(gamma[b]) if gamma_star[b] is None else gamma_star[b]
        going &= first_low < 0
        gamma_reached[rows[~going]] = gamma[rows[~going]]
        rows = rows[going]
        if rows.size == 0:
            break

        increment = (-d_gamma[rows][(...,) + field_axes] * a_slices[:, going]
                     * new_cutoffs[:, going][(...,) + field_axes])
        # slice-wise clamp keeps |h| <= M * gamma without looking across slices
        norms = np.sqrt(vol * np.sum(increment.reshape(k_t, rows.size, -1) ** 2, axis=2))
        over = norms > cap[rows]
        clamp_events[rows] += over.sum(axis=0)
        scale = cap[rows] / np.where(over, norms, cap[rows])
        h[:, rows] += increment * scale[(...,) + field_axes]
        gamma += d_gamma
    gamma_reached[rows] = gamma_target[rows]
    ran_all_steps = np.zeros(n_rows, dtype=bool)
    ran_all_steps[rows] = True

    results = []
    for b in range(n_rows):
        if same[b]:
            results.append(result(b, 0.0, "completed", 0.0, None, {"monitor_per_step": []}))
            continue
        if from_u.reasons[b] is not None:
            results.append(result(b, 0.0, "dead", 0.0, None,
                                  {"monitor_per_step": [math.inf], "reason": from_u.reasons[b]}))
            continue
        frozen = int(np.sum((cutoffs[:, b] == 0.0) & support))
        completed = gamma_star[b] is None and ran_all_steps[b]
        results.append(result(
            b, h[:, b], "completed" if completed else "frozen", float(gamma_reached[b]),
            gamma_star[b],
            {"monitor_per_step": monitor_per_step[b], "clamp_events": int(clamp_events[b]),
             "frozen_slice_count": frozen, "min_cutoff": float(np.min(cutoffs[:, b])),
             "min_cutoff_per_step": min_cutoff_per_step[b]}))
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
    k_t = w.time_index(t)
    moved = apply_shift(w, h)
    if t > 1.0 + 1e-12:
        raise ValueError(f"flow maps are defined up to time 1, got t={t}")
    _check_state(u, w.grid, w.m, spec)
    _check_state(u_bar, w.grid, w.m, spec)
    both = _evolve_batch(np.stack([u.values, u_bar.values]),
                         np.stack([w.increments[:k_t], moved.increments[:k_t]], axis=1),
                         spec, get_workspace(w.grid, w.dt, spec))
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
