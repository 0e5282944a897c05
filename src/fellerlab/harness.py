"""Monte-Carlo estimators around the coupling construction.

``estimate_tv_bound`` turns the pathwise coupling into a computable bound on
the distance between the time-t laws started from u and from u_bar:

    bound = 2 * fail_prob + 2 e sqrt( mean |h|_CM^2 )

where fail_prob is the fraction of samples whose shift either froze or did
not actually couple to tolerance, and the second term is the exponential
moment control of the reweighting martingale.  The estimator never certifies
anything; it measures, with Wilson intervals on the failure rate.

``estimate_tv_sweep`` computes that bound for a whole list of targets u_bar
(one per displacement gamma) on the same noise streams, and
``estimate_tv_bound`` is its list of one.

Each sample index owns one noise stream.  All three estimators run their
samples in memory-bounded chunks of rows (``_sample_chunks``), every row of
a chunk through the same evolve (and, for the tv bound, gamma step) calls
at once.  A tv chunk holds a row per (target, sample) pair of a range of
samples: each sample's stream is drawn once and shared by every target, and
all targets go through the same gamma-step and verification evolves.  Each
row is computed exactly as it would be alone, so every per-sample result,
and hence every report, is bit-identical whatever the chunk size.
``blowup_probability`` keeps no trajectory and draws its noise one time step
at a time; ``weighted_expectation`` draws each chunk's whole paths at once (the
weight pairs the shift with every slice) and keeps the base trajectories only
when a callable shift needs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .equations import EquationSpec
from .grids import Field, _dyadic_masks, l2_norm
from .noise import NoisePath, ShiftPath, _check_path, _SliceSource, girsanov_weight
from .shift import (CouplingParams, _build_shift_batch, _coupling_residuals,
                    _shift_slices)
from .solver import _check_state, _evolve_batch, _step_range

__all__ = [
    "SampleRecord",
    "TVReport",
    "WeightedComparison",
    "BlowupReport",
    "wilson_interval",
    "estimate_tv_bound",
    "estimate_tv_sweep",
    "weighted_expectation",
    "blowup_probability",
]

EULER_E = math.e
# Memory one chunk of samples may hold; samples per chunk = this / bytes per
# sample, where a tv sample is one row per target of the sweep.
_CHUNK_BYTES = 1 << 24


def _sample_chunks(n_samples: int, row_bytes: int) -> list[range]:
    """Sample indices 0..n_samples-1 in consecutive chunks of as many rows of
    ``row_bytes`` each as fit in ``_CHUNK_BYTES`` (at least one)."""
    if n_samples < 1:
        raise ValueError(f"need n_samples >= 1, got {n_samples}")
    chunk = max(1, _CHUNK_BYTES // row_bytes)
    return [range(start, min(n_samples, start + chunk))
            for start in range(0, n_samples, chunk)]


def _start_rows(u: Field, n_rows: int) -> np.ndarray:
    return np.broadcast_to(u.values, (n_rows,) + u.values.shape)


def wilson_interval(successes: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n == 0:
        return (0.0, 1.0)
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


# the mean and the max of a state: the dominance functionals of ``tv`` and the acceptance suite
_MEAN_AND_MAX = (("clamped_mean", lambda f: float(np.mean(f.values))),
                 ("clamped_max", lambda f: float(np.max(f.values))))


def _clamped(functional: Callable[[Field], float]) -> Callable[[Field], float]:
    def wrapped(f: Field) -> float:
        return min(max(float(functional(f)), -1.0), 1.0)  # NaN stays NaN, as under np.clip

    return wrapped


def _standard_error(x: np.ndarray) -> float:
    """Standard error of the mean of the samples x; one sample gives no spread
    estimate, so its standard error is unbounded."""
    return float(np.std(x, ddof=1) / math.sqrt(x.size)) if x.size > 1 else math.inf


def _final_values(paths, b: int, grid, fns) -> tuple[float, ...]:
    """Each of the functionals ``fns`` of row b's final state, or 0 for a row that died."""
    final = Field(grid, paths.final(b)) if paths.reasons[b] is None else None
    return tuple(0.0 if final is None else fn(final) for fn in fns)


@dataclass(frozen=True)
class SampleRecord:
    index: int
    status: str
    residual: float
    h_norm_sq: float
    f_from_u: tuple[float, ...]
    f_from_ubar: tuple[float, ...]


@dataclass(frozen=True)
class TVReport:
    gamma: float
    n_samples: int
    fail_prob: float
    fail_interval: tuple[float, float]
    mean_h_norm_sq: float
    bound: float
    functional_names: tuple[str, ...]
    mean_diff: tuple[float, ...]
    se_diff: tuple[float, ...]
    records: tuple[SampleRecord, ...] = field(repr=False, default=())


def _tv_records(u: Field, u_bars: Sequence[Field], t: float, dt: float, k_t: int,
                n_steps: int, spec: EquationSpec, params: CouplingParams, seed: int,
                streams: range, fns) -> list[list[SampleRecord]]:
    """One chunk of tv samples for every target in ``u_bars``: a row per
    (target, noise stream) pair, target-major, each stream drawn once and
    shared by all targets.  Each row's shift and its squared norm are read
    from its result.  Returns the records of each target in stream order."""
    grid, n_streams = u.grid, len(streams)
    drawn = _SliceSource(grid, u.m, k_t, dt, seed, streams).drawn()
    increments = np.concatenate([drawn] * len(u_bars), axis=1)
    row_ubars = [u_bar for u_bar in u_bars for _ in streams]
    n_rows = len(row_ubars)
    results, from_u = _build_shift_batch(u, row_ubars, increments, t, dt, n_steps, spec, params)
    h = np.stack([r.h.values[:k_t] for r in results], axis=1)  # the shifts before t
    # each u_bar under the shifted noise (verification) and, for the
    # functionals, under the plain noise, as one batch; only final states are read
    noises = [increments + h * dt] + ([increments] if fns else [])
    starts = np.stack([u_bar.values for u_bar in row_ubars] * len(noises))
    from_ubar = _evolve_batch(starts, np.concatenate(noises, axis=1), spec, grid, dt,
                              final_only=True)
    residuals = _coupling_residuals(grid, [r.gamma_target for r in results], from_u,
                                    from_ubar.rows(slice(0, n_rows)))
    from_ubar = from_ubar.rows(slice(-n_rows, None))

    callables = [fn for _, fn in fns]
    records = [SampleRecord(index=streams[b % n_streams], status=res.status,
                            residual=residuals[b], h_norm_sq=res.cm_norm_sq,
                            f_from_u=_final_values(from_u, b, grid, callables),
                            f_from_ubar=_final_values(from_ubar, b, grid, callables))
               for b, res in enumerate(results)]
    return [records[i:i + n_streams] for i in range(0, n_rows, n_streams)]


def _tv_report(gamma: float, records: list[SampleRecord], params: CouplingParams,
               fns) -> TVReport:
    """Aggregate one target's records into its law-distance bound."""
    n_samples = len(records)
    tol_abs = params.tol if params.tol is not None else 1e-3 * gamma
    fails = sum(1 for r in records
                if r.status != "completed" or r.residual * gamma > tol_abs)
    fail_prob = fails / n_samples
    mean_h_sq = float(np.mean([r.h_norm_sq for r in records]))
    if mean_h_sq > params.m_bound**2 * gamma**2 + 1e-9:
        raise RuntimeError("mean |h|^2 exceeded its M^2 gamma^2 bound")
    bound = 2.0 * fail_prob + 2.0 * EULER_E * math.sqrt(mean_h_sq)

    mean_diff, se_diff = [], []
    for i, _ in enumerate(fns):
        d = np.array([r.f_from_u[i] - r.f_from_ubar[i] for r in records])
        mean_diff.append(float(np.mean(d)))
        se_diff.append(_standard_error(d))

    return TVReport(gamma=gamma, n_samples=n_samples, fail_prob=fail_prob,
                    fail_interval=wilson_interval(fails, n_samples),
                    mean_h_norm_sq=mean_h_sq, bound=bound,
                    functional_names=tuple(name for name, _ in fns),
                    mean_diff=tuple(mean_diff), se_diff=tuple(se_diff),
                    records=tuple(records))


def estimate_tv_sweep(
    u: Field,
    u_bars: Sequence[Field],
    t: float,
    spec: EquationSpec,
    params: CouplingParams,
    n_samples: int,
    seed: int,
    dt: float,
    n_steps: int | None = None,
    functionals: Sequence[tuple[str, Callable[[Field], float]]] = (),
) -> list[TVReport]:
    """The law-distance bound at time t from u to each of ``u_bars``, one
    report per target, on the same noise streams.

    Each sample draws its own noise stream, builds the shift from u to u_bar,
    verifies it, and also records the clamped functionals of the two
    *unshifted* evolutions (common noise) for the dominance check.  A sample
    fails when its status is not 'completed' or its absolute endpoint
    deviation exceeds ``params.tol`` (default 1e-3 * gamma).

    Samples run in chunks of rows evolved together, a row per (target,
    sample) pair; each stream's slices before t are drawn once per chunk and
    shared by every target.
    """
    if not u_bars:
        raise ValueError("need at least one target u_bar")
    gammas = [l2_norm(u_bar - u) for u_bar in u_bars]
    for gamma in gammas:
        params.check_budget(gamma)
    fns = [(name, _clamped(fn)) for name, fn in functionals]
    n_steps = _check_path(u.m, n_steps, dt)
    _check_state(u, u.grid, u.m, spec)
    for u_bar in u_bars:
        _check_state(u_bar, u.grid, u.m, spec)
    k_t = _shift_slices(t, dt, n_steps)

    # per row: the noise, the shift and about a dozen (k_t+1)-slice work arrays
    # (paths and their tangents, transfer slices), plus the full-length shift
    # of its result; a sample has one row per target
    row_bytes = 8 * u.values.size * (2 * n_steps + 16 * (k_t + 1))
    records = [[] for _ in u_bars]
    for streams in _sample_chunks(n_samples, row_bytes * len(u_bars)):
        chunk = _tv_records(u, u_bars, t, dt, k_t, n_steps, spec, params, seed, streams, fns)
        for mine, new in zip(records, chunk):
            mine += new
    return [_tv_report(gamma, mine, params, fns) for gamma, mine in zip(gammas, records)]


def estimate_tv_bound(
    u: Field,
    u_bar: Field,
    t: float,
    spec: EquationSpec,
    params: CouplingParams,
    n_samples: int,
    seed: int,
    dt: float,
    n_steps: int | None = None,
    functionals: Sequence[tuple[str, Callable[[Field], float]]] = (),
) -> TVReport:
    """Sample the coupling and aggregate the law-distance bound at time t:
    :func:`estimate_tv_sweep` with the single target u_bar."""
    return estimate_tv_sweep(u, [u_bar], t, spec, params, n_samples, seed, dt, n_steps,
                             functionals)[0]


@dataclass(frozen=True)
class WeightedComparison:
    shifted_weighted_mean: float
    shifted_weighted_se: float
    unshifted_mean: float
    unshifted_se: float
    z_score: float
    n_samples: int


def weighted_expectation(
    functional: Callable[[Field], float],
    u: Field,
    h,
    t: float,
    spec: EquationSpec,
    n_samples: int,
    seed: int,
    dt: float | None = None,
    n_steps: int | None = None,
) -> WeightedComparison:
    """Compare E[F(flow under shifted noise) * weight] against E[F(flow)].

    ``h`` is a ShiftPath, or a callable mapping the base trajectory to a
    ShiftPath (for state-dependent shifts built slice-by-slice from the past,
    e.g. h(t_k) = f(u(t_k))).  The functional is clamped to [-1, 1].  Pairs
    are formed on common noise, and the z-score is the paired one.
    """
    grid = u.grid
    fixed = isinstance(h, ShiftPath)
    if fixed:
        dt, n_steps = h.dt, h.n_steps
    elif dt is None or n_steps is None:
        raise ValueError("callable h needs explicit dt and n_steps")
    fn = _clamped(functional)
    _check_path(u.m, n_steps, dt)
    _check_state(u, grid, u.m, spec)
    _, k_t = _step_range(0.0, t, dt, n_steps)

    # per row: the full-length noise and shift, the two k_t-slice increment
    # stacks and, for a callable h, the stored base trajectory
    row_bytes = 8 * u.values.size * (2 * n_steps + 6 * (k_t + 1))
    weighted, plain = [], []
    for streams in _sample_chunks(n_samples, row_bytes):
        drawn = _SliceSource(grid, u.m, n_steps, dt, seed, streams).drawn()
        drawn.setflags(write=False)  # a callable h sees it as its outcome's noise terms
        base = _evolve_batch(_start_rows(u, len(streams)), drawn[:k_t], spec, grid, dt,
                             final_only=fixed)
        shifts = [h if fixed else h(base.outcome(b, grid, 0.0, t, dt, drawn[:k_t, b]))
                  for b in range(len(streams))]
        # each weight checks its shift against the row's noise before the shifted evolve
        weights = [girsanov_weight(NoisePath(grid, dt, drawn[:, b]), h_b)
                   for b, h_b in enumerate(shifts)]
        moved = _evolve_batch(_start_rows(u, len(streams)),
                              drawn[:k_t] + np.stack([h_b.values[:k_t] for h_b in shifts],
                                                     axis=1) * dt,
                              spec, grid, dt, final_only=True)
        weighted += [_final_values(moved, b, grid, [fn])[0] * wt for b, wt in enumerate(weights)]
        plain += [_final_values(base, b, grid, [fn])[0] for b in range(len(streams))]

    weighted, plain = np.array(weighted), np.array(plain)
    diff = weighted - plain
    se_d = _standard_error(diff)
    z = float(np.mean(diff) / se_d) if se_d > 0 else 0.0
    return WeightedComparison(
        shifted_weighted_mean=float(np.mean(weighted)), shifted_weighted_se=_standard_error(weighted),
        unshifted_mean=float(np.mean(plain)), unshifted_se=_standard_error(plain),
        z_score=z, n_samples=n_samples)


@dataclass(frozen=True)
class BlowupReport:
    estimate: float
    interval: tuple[float, float]
    n_samples: int
    reasons: tuple[str | None, ...] = field(repr=False, default=())  # per sample


def blowup_probability(u: Field, t: float, spec: EquationSpec, n_samples: int,
                       seed: int, dt: float, n_steps: int | None = None) -> BlowupReport:
    """Fraction of noise draws under which the flow from u dies by time t.

    All rows of a chunk evolve at once, keeping only their final states, and
    draw their noise one step at a time, only the slices before t."""
    n_steps = _check_path(u.m, n_steps, dt)
    _check_state(u, u.grid, u.m, spec)
    _, k_t = _step_range(0.0, t, dt, n_steps)

    # per row: a few state-sized work arrays and the monitor's complex shell blocks
    row_bytes = 16 * u.values.size * (4 + _dyadic_masks(u.grid.dim, u.grid.n).shape[0])
    reasons = []
    for streams in _sample_chunks(n_samples, row_bytes):
        noise = _SliceSource(u.grid, u.m, k_t, dt, seed, streams)
        reasons += _evolve_batch(_start_rows(u, len(streams)), noise, spec, u.grid, dt,
                                 final_only=True).reasons
    deaths = sum(r is not None for r in reasons)
    return BlowupReport(estimate=deaths / n_samples,
                        interval=wilson_interval(deaths, n_samples),
                        n_samples=n_samples, reasons=tuple(reasons))
