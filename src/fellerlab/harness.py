"""Monte-Carlo estimators around the coupling construction.

``estimate_tv_bound`` turns the pathwise coupling into a computable bound on
the distance between the time-t laws started from u and from u_bar:

    bound = 2 * fail_prob + 2 e sqrt( mean |h|_CM^2 )

where fail_prob is the fraction of samples whose shift either froze or did
not actually couple to tolerance, and the second term is the exponential
moment control of the reweighting martingale.  The estimator never certifies
anything; it measures, with Wilson intervals on the failure rate.

Each sample index owns one noise stream.  ``estimate_tv_bound`` runs its
samples in batches, all rows of a batch through every evolve, tangent sweep
and gamma step at once; each row is computed exactly as it would be alone,
so records are bit-identical whatever the batch or chunk size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .equations import EquationSpec
from .grids import Field, l2_norm
from .noise import (ShiftPath, _check_path, _draw_increments, apply_shift, cm_norm_sq,
                    girsanov_weight, sample_white_noise)
from .shift import (CouplingParams, _build_shift_batch, _coupling_residuals,
                    _shift_slices)
from .solver import _check_state, _evolve_batch, evolve, get_workspace

__all__ = [
    "SampleRecord",
    "TVReport",
    "WeightedComparison",
    "BlowupReport",
    "wilson_interval",
    "estimate_tv_bound",
    "weighted_expectation",
    "blowup_probability",
]

EULER_E = math.e
# Memory one chunk of tv samples may hold; rows per chunk = this / bytes per row.
_CHUNK_BYTES = 1 << 24


def wilson_interval(successes: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n == 0:
        return (0.0, 1.0)
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def _clamped(functional: Callable[[Field], float]) -> Callable[[Field], float]:
    def wrapped(f: Field) -> float:
        return float(np.clip(functional(f), -1.0, 1.0))

    return wrapped


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


def _tv_records(u: Field, u_bar: Field, t: float, dt: float, k_t: int, n_steps: int,
                spec: EquationSpec, params: CouplingParams, seed: int,
                streams: range, fns) -> list[SampleRecord]:
    """One chunk of tv samples, a row per noise stream."""
    grid, n_rows = u.grid, len(streams)
    ws = get_workspace(grid, dt, spec)
    increments = np.stack([_draw_increments(grid, u.m, k_t, dt, seed, j) for j in streams],
                          axis=1)
    results, from_u = _build_shift_batch(u, u_bar, increments, t, dt, n_steps, spec, params)
    if from_u is None:
        from_u = _evolve_batch(np.broadcast_to(u.values, (n_rows,) + u.values.shape),
                               increments, spec, ws)
    h = np.stack([r.h.values[:k_t] for r in results], axis=1)
    # u_bar under the shifted noise (verification) and, for the functionals,
    # under the plain noise, as one batch
    noises = [increments + h * dt] + ([increments] if fns else [])
    from_ubar = _evolve_batch(
        np.broadcast_to(u_bar.values, (len(noises) * n_rows,) + u.values.shape),
        np.concatenate(noises, axis=1), spec, ws)
    residuals = _coupling_residuals(u, u_bar, from_u, from_ubar.rows(slice(0, n_rows)))
    from_ubar = from_ubar.rows(slice(-n_rows, None))

    def values(paths, b):
        if not fns or paths.reasons[b] is not None:
            return tuple(0.0 for _ in fns)
        final = Field(grid, paths.final(b))
        return tuple(fn(final) for _, fn in fns)

    return [SampleRecord(index=j, status=res.status, residual=residuals[b],
                         h_norm_sq=cm_norm_sq(res.h), f_from_u=values(from_u, b),
                         f_from_ubar=values(from_ubar, b))
            for b, (j, res) in enumerate(zip(streams, results))]


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
    """Sample the coupling and aggregate the law-distance bound at time t.

    Each sample draws its own noise stream, builds the shift from u to u_bar,
    verifies it, and also records the clamped functionals of the two
    *unshifted* evolutions (common noise) for the dominance check.  A sample
    fails when its status is not 'completed' or its absolute endpoint
    deviation exceeds ``params.tol`` (default 1e-3 * gamma).

    Samples run in chunks of rows evolved together; only the noise slices
    before t are drawn.
    """
    gamma = l2_norm(u_bar - u)
    if params.m_bound * gamma > 1.0 + 1e-12:
        raise ValueError(
            f"gamma * M = {gamma * params.m_bound} > 1; the exponential-moment "
            "bound needs gamma * M <= 1 (shrink gamma or M)"
        )
    tol_abs = params.tol if params.tol is not None else 1e-3 * gamma
    n_steps = n_steps or round(1.0 / dt)
    fns = [(name, _clamped(fn)) for name, fn in functionals]
    _check_path(u.m, n_steps, dt)
    _check_state(u, u.grid, u.m, spec)
    _check_state(u_bar, u.grid, u.m, spec)
    k_t = _shift_slices(t, dt, n_steps)

    # per row: the noise, the shift and about a dozen (k_t+1)-slice work arrays
    # (paths, sweeps, transfer slices), plus the full-length shift of its result
    row_bytes = 8 * u.values.size * (2 * n_steps + 16 * (k_t + 1))
    chunk = max(1, _CHUNK_BYTES // row_bytes)
    records = []
    for start in range(0, n_samples, chunk):
        streams = range(start, min(n_samples, start + chunk))
        records += _tv_records(u, u_bar, t, dt, k_t, n_steps, spec, params, seed, streams,
                              fns)

    fails = sum(1 for r in records
                if r.status != "completed" or r.residual * gamma > tol_abs)
    fail_prob = fails / n_samples
    mean_h_sq = float(np.mean([r.h_norm_sq for r in records])) if records else 0.0
    if mean_h_sq > params.m_bound**2 * gamma**2 + 1e-9:
        raise RuntimeError("mean |h|^2 exceeded its M^2 gamma^2 bound")
    bound = 2.0 * fail_prob + 2.0 * EULER_E * math.sqrt(mean_h_sq)

    mean_diff, se_diff = [], []
    for i, _ in enumerate(fns):
        d = np.array([r.f_from_u[i] - r.f_from_ubar[i] for r in records])
        mean_diff.append(float(np.mean(d)))
        se_diff.append(float(np.std(d, ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0)

    return TVReport(gamma=gamma, n_samples=n_samples, fail_prob=fail_prob,
                    fail_interval=wilson_interval(fails, n_samples),
                    mean_h_norm_sq=mean_h_sq, bound=bound,
                    functional_names=tuple(name for name, _ in fns),
                    mean_diff=tuple(mean_diff), se_diff=tuple(se_diff),
                    records=tuple(records))


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
    if isinstance(h, ShiftPath):
        dt = h.dt
        n_steps = h.n_steps
        h_of = lambda out: h
    else:
        if dt is None or n_steps is None:
            raise ValueError("callable h needs explicit dt and n_steps")
        h_of = h
    fn = _clamped(functional)

    def one(j: int) -> tuple[float, float]:
        w = sample_white_noise(u.grid, u.m, n_steps, dt, seed, stream=j)
        base = evolve(u, w, 0.0, t, spec)
        f_plain = fn(base.final) if base.alive else 0.0
        h_j = h_of(base)
        moved = evolve(u, apply_shift(w, h_j), 0.0, t, spec)
        f_shift = fn(moved.final) if moved.alive else 0.0
        return f_shift * girsanov_weight(w, h_j), f_plain

    pairs = [one(j) for j in range(n_samples)]
    weighted = np.array([p[0] for p in pairs])
    plain = np.array([p[1] for p in pairs])
    diff = weighted - plain
    se_d = float(np.std(diff, ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else math.inf
    z = float(np.mean(diff) / se_d) if se_d > 0 else 0.0
    return WeightedComparison(
        shifted_weighted_mean=float(np.mean(weighted)),
        shifted_weighted_se=float(np.std(weighted, ddof=1) / math.sqrt(n_samples)),
        unshifted_mean=float(np.mean(plain)),
        unshifted_se=float(np.std(plain, ddof=1) / math.sqrt(n_samples)),
        z_score=z, n_samples=n_samples)


@dataclass(frozen=True)
class BlowupReport:
    estimate: float
    interval: tuple[float, float]
    n_samples: int


def blowup_probability(u: Field, t: float, spec: EquationSpec, n_samples: int,
                       seed: int, dt: float, n_steps: int | None = None) -> BlowupReport:
    """Fraction of noise draws under which the flow from u dies by time t."""
    n_steps = n_steps or round(1.0 / dt)

    def one(j: int) -> bool:
        w = sample_white_noise(u.grid, u.m, n_steps, dt, seed, stream=j)
        return not evolve(u, w, 0.0, t, spec).alive

    deaths = sum(one(j) for j in range(n_samples))
    return BlowupReport(estimate=deaths / n_samples,
                        interval=wilson_interval(deaths, n_samples),
                        n_samples=n_samples)
