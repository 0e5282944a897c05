import math
import warnings

import numpy as np
import pytest

from fellerlab import (CouplingParams, EquationSpec, Field, Grid, ShiftPath,
                       apply_shift, blowup_probability, build_shift, cm_norm_sq,
                       RenormConstants, estimate_tv_bound, estimate_tv_sweep, evolve,
                       girsanov_weight, harness, l2_norm, sample_white_noise,
                       verify_coupling, weighted_expectation, wilson_interval)


@pytest.fixture
def grid():
    return Grid(dim=1, n=32, extent=(1.0,))


@pytest.fixture
def nonlinear():
    return EquationSpec.she(drift="cubic_decay", diffusion="bounded_smooth", g_min=1.0)


DT = 2.0**-7
T = 0.25
N_STEPS = 128


def _state(grid, amp=0.3):
    return Field(grid, amp * np.cos(2 * np.pi * grid.axes()[0]))


def _direction(grid):
    f = Field(grid, np.cos(2 * np.pi * grid.axes()[0]))
    return f * (1.0 / l2_norm(f))


def test_wilson_interval_edges():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and hi < 5.0 / 100
    lo, hi = wilson_interval(100, 100)
    assert hi > 0.999 and lo > 0.95
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi


def test_tv_same_state_trivial(grid, nonlinear):
    u = _state(grid)
    report = estimate_tv_bound(u, u, T, nonlinear,
                               CouplingParams(m_bound=10.0, k_gamma=4),
                               n_samples=5, seed=40, dt=DT)
    assert report.gamma == 0.0
    assert report.mean_h_norm_sq == 0.0
    assert report.fail_prob == 0.0
    assert report.bound == 0.0


def test_tv_linear_additive_bound(grid):
    spec = EquationSpec.she(drift="zero", diffusion="one")
    gamma, m_bound = 0.1, 8.0
    u = _state(grid)
    u_bar = u + _direction(grid) * gamma
    report = estimate_tv_bound(u, u_bar, T, spec,
                               CouplingParams(m_bound=m_bound, k_gamma=4),
                               n_samples=20, seed=41, dt=DT)
    assert report.fail_prob == 0.0
    assert 0.0 <= report.bound <= 2.0 * math.e * m_bound * gamma
    assert report.mean_h_norm_sq <= m_bound**2 * gamma**2 + 1e-9


def test_tv_records_batch_invariant(grid, nonlinear, monkeypatch):
    """Every record of a batched run equals the single-path computation on
    its own noise stream, bit for bit, whatever the chunk size."""
    u = _state(grid)
    u_bar = u + _direction(grid) * 0.05
    params = CouplingParams(m_bound=10.0, k_gamma=4)
    fns = [("mean", lambda f: float(np.mean(f.values)))]
    batched = estimate_tv_bound(u, u_bar, T, nonlinear, params, 8, 42, DT,
                                functionals=fns)
    for j, rec in enumerate(batched.records):
        w = sample_white_noise(grid, 1, N_STEPS, DT, 42, stream=j)
        res = build_shift(u, u_bar, w, T, nonlinear, params)
        assert rec.index == j
        assert rec.status == res.status
        assert rec.residual == verify_coupling(u, u_bar, w, res.h, T, nonlinear)
        assert rec.h_norm_sq == cm_norm_sq(res.h)
        for got, start in ((rec.f_from_u, u), (rec.f_from_ubar, u_bar)):
            assert got == (float(np.mean(evolve(start, w, 0.0, T, nonlinear).final.values)),)

    monkeypatch.setattr(harness, "_CHUNK_BYTES", 1)  # one row per chunk
    single = estimate_tv_bound(u, u_bar, T, nonlinear, params, 8, 42, DT,
                               functionals=fns)
    assert single.records == batched.records
    assert single.bound == batched.bound
    assert single.mean_diff == batched.mean_diff


def test_tv_sweep_matches_per_gamma_calls(grid, monkeypatch):
    """One sweep over a gamma list equals one estimate_tv_bound call per
    gamma, bit for bit in every report field and every record, whatever the
    chunk size.  The list mixes fates: at both nonzero gammas some rows
    freeze, others complete and the slice clamp fires; gamma 0 couples u to
    itself."""
    spec = EquationSpec.she(drift="cubic_growth", diffusion="one", r_blowup=50.0)
    u = Field.constant(grid, 1.0)
    direction = Field.constant(grid, 1.0) * (1.0 / l2_norm(Field.constant(grid, 1.0)))
    params = CouplingParams(m_bound=5.0, k_gamma=4, cutoff_r=2.0)
    fns = [("mean", lambda f: float(np.mean(f.values)))]
    u_bars = [u + direction * gamma for gamma in (0.2, 0.02, 0.0)]
    want = [estimate_tv_bound(u, u_bar, T, spec, params, 8, 5, DT, functionals=fns)
            for u_bar in u_bars]
    statuses = {r.status for rep in want[:2] for r in rep.records}
    assert statuses >= {"frozen", "completed"}
    assert any(0.0 < r.residual < math.inf for r in want[0].records)
    assert [r.status for r in want[2].records] == ["completed"] * 8
    for chunk_bytes in (harness._CHUNK_BYTES, 1):
        monkeypatch.setattr(harness, "_CHUNK_BYTES", chunk_bytes)
        got = estimate_tv_sweep(u, u_bars, T, spec, params, 8, 5, DT, functionals=fns)
        assert got == want


def test_tv_fail_prob_weakly_better_at_smaller_t(grid, nonlinear):
    u = _state(grid)
    u_bar = u + _direction(grid) * 0.05
    params = CouplingParams(m_bound=10.0, k_gamma=8)
    late = estimate_tv_bound(u, u_bar, 0.25, nonlinear, params, 30, 43, DT)
    early = estimate_tv_bound(u, u_bar, 0.125, nonlinear, params, 30, 43, DT)
    assert early.fail_prob <= late.fail_prob + (late.fail_interval[1] - late.fail_interval[0])


def test_weighted_zero_shift_z_is_zero(grid, nonlinear):
    u = _state(grid)
    h = ShiftPath.zeros(grid, 1, N_STEPS, DT)
    cmp = weighted_expectation(lambda f: float(np.mean(f.values)), u, h, T,
                               nonlinear, n_samples=50, seed=44)
    assert cmp.z_score == 0.0
    assert cmp.shifted_weighted_mean == cmp.unshifted_mean


def test_weighted_clamps_functional(grid, nonlinear):
    u = _state(grid)
    h = ShiftPath.zeros(grid, 1, N_STEPS, DT)
    cmp = weighted_expectation(lambda f: 1e9, u, h, T, nonlinear,
                               n_samples=5, seed=45)
    assert cmp.unshifted_mean == 1.0  # clamped to [-1, 1]


def test_weighted_requires_grid_info_for_callable(grid, nonlinear):
    with pytest.raises(ValueError):
        weighted_expectation(lambda f: 0.0, _state(grid), lambda out: None, T,
                             nonlinear, n_samples=2, seed=46)


def test_blowup_probability_trivial(grid, nonlinear):
    u = _state(grid, amp=0.2)
    rep = blowup_probability(u, T, nonlinear, n_samples=40, seed=47, dt=DT)
    assert rep.estimate == 0.0
    assert rep.interval[0] == 0.0 and rep.interval[1] < 0.12


def test_blowup_probability_certain(grid):
    spec = EquationSpec.she(drift="cubic_growth", diffusion="one")
    u = Field.constant(grid, 10.0)
    rep = blowup_probability(u, T, spec, n_samples=20, seed=48, dt=DT)
    assert rep.estimate == 1.0


def test_blowup_continuity_smoke(grid):
    """Near the basin boundary of the inverted cubic, nearby starts give
    estimates within joint uncertainty as the displacement shrinks."""
    spec = EquationSpec.she(drift="cubic_growth", diffusion="one", r_blowup=1e4)
    base = 2.2  # u' = u^3 from 2.2 explodes around t = 0.1; noise decides
    a = blowup_probability(Field.constant(grid, base), T, spec, 60, 49, DT)
    b = blowup_probability(Field.constant(grid, base + 0.01), T, spec, 60, 49, DT)
    se = math.sqrt(max(a.estimate * (1 - a.estimate), 0.25 / 60) / 60)
    assert abs(a.estimate - b.estimate) <= 3.0 * math.sqrt(2.0) * max(se, 1 / 60)


def test_gamma_m_budget_enforced(grid, nonlinear):
    u = _state(grid)
    u_bar = u + _direction(grid) * 0.5
    with pytest.raises(ValueError):
        estimate_tv_bound(u, u_bar, T, nonlinear,
                          CouplingParams(m_bound=10.0, k_gamma=4), 2, 50, DT)


def test_empty_sample_counts_rejected(grid, nonlinear):
    u = _state(grid)
    h = ShiftPath.zeros(grid, 1, N_STEPS, DT)
    params = CouplingParams(m_bound=10.0, k_gamma=4)
    for n in (0, -1):
        with pytest.raises(ValueError, match="n_samples"):
            blowup_probability(u, T, nonlinear, n, 47, DT)
        with pytest.raises(ValueError, match="n_samples"):
            estimate_tv_bound(u, u + _direction(grid) * 0.05, T, nonlinear, params, n, 42, DT)
        with pytest.raises(ValueError, match="n_samples"):
            weighted_expectation(lambda f: 0.0, u, h, T, nonlinear, n_samples=n, seed=44)


@pytest.mark.parametrize("dt", [math.nan, math.inf, 5e-324])
def test_estimators_reject_dt_without_a_finite_slice_count(grid, nonlinear, dt):
    """The default slice count round(1/dt) is settled only for a dt > 0 whose
    1/dt is finite; anything else is bad input, not an overflow."""
    u = _state(grid)
    params = CouplingParams(m_bound=10.0, k_gamma=4)
    with pytest.raises(ValueError, match="need dt > 0 and finite"):
        blowup_probability(u, T, nonlinear, 2, 0, dt)
    with pytest.raises(ValueError, match="need dt > 0 and finite"):
        estimate_tv_bound(u, u + _direction(grid) * 0.05, T, nonlinear, params, 2, 0, dt)


def test_default_slice_count_rounds_one_over_dt():
    assert harness._check_path(1, None, 0.35) == 3
    assert harness._check_path(1, None, DT) == N_STEPS
    assert harness._check_path(2, 200, DT) == 200


def test_tv_single_sample_has_infinite_se(grid, nonlinear):
    """One sample gives no spread estimate, so the dominance check
    |mean_diff| <= bound + 4 se cannot be at its strictest there."""
    u = _state(grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = estimate_tv_bound(u, u + _direction(grid) * 0.05, T, nonlinear,
                                   CouplingParams(m_bound=10.0, k_gamma=4), 1, 42, DT,
                                   functionals=[("mean", lambda f: float(np.mean(f.values)))])
    assert report.n_samples == 1 and report.se_diff == (math.inf,)
    assert math.isfinite(report.mean_diff[0])
    assert abs(report.mean_diff[0]) <= report.bound + 4.0 * report.se_diff[0]


def test_weighted_single_sample_has_infinite_se(grid, nonlinear):
    h = ShiftPath.zeros(grid, 1, N_STEPS, DT)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cmp = weighted_expectation(lambda f: float(np.mean(f.values)), _state(grid), h, T,
                                   nonlinear, n_samples=1, seed=44)
    assert cmp.shifted_weighted_se == cmp.unshifted_se == math.inf
    assert cmp.z_score == 0.0 and cmp.n_samples == 1
    assert math.isfinite(cmp.shifted_weighted_mean) and math.isfinite(cmp.unshifted_mean)


def test_blowup_rows_match_single_path(monkeypatch):
    """The death count and every row's death reason equal per-sample evolves
    on the same streams, on a 2D quartic case whose rows die at different
    steps, whatever the chunk size."""
    grid2 = Grid(dim=2, n=16, extent=(1.0, 1.0))
    dt, n_steps, n = 2.0**-8, 256, 12
    spec = EquationSpec.phi4(quartic=-1.0, eps=0.05, allow_unstable=True, monitor_eta=0.0)
    spec = spec.with_renorm(RenormConstants((0.0,), provenance="user-supplied"))
    u = Field.constant(grid2, 1.5)
    outs = [evolve(u, sample_white_noise(grid2, 1, n_steps, dt, 5, stream=j), 0.0, T, spec)
            for j in range(n)]
    died_at = {o.blow_up_time for o in outs if not o.alive}
    assert len(died_at) >= 3 and any(o.alive for o in outs)
    want = tuple(o.reason for o in outs)
    for chunk_bytes in (harness._CHUNK_BYTES, 1):
        monkeypatch.setattr(harness, "_CHUNK_BYTES", chunk_bytes)
        rep = blowup_probability(u, T, spec, n, 5, dt, n_steps=n_steps)
        assert rep.reasons == want
        assert rep.estimate == sum(r is not None for r in want) / n


def test_non_finite_deaths_warn_nothing():
    """Deaths by overflow are recorded as reasons, with no RuntimeWarning."""
    spec = EquationSpec.phi4(-1.0, monitor_eta=0.0, r_blowup=1e300, allow_unstable=True)
    spec = spec.with_renorm(RenormConstants((0.0,)))
    u = Field.constant(Grid(2, 16, (1.0, 1.0)), 10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = blowup_probability(u, 0.25, spec, 4, 0, 2**-10, n_steps=1024)
    assert rep.reasons == ("non_finite", "non_finite", "monitor_threshold", "non_finite")


def _weighted_reference(functional, u, h, t, spec, n_samples, seed, dt, n_steps):
    """The per-sample loop: two single-path evolves and one weight per sample."""
    weighted, plain = [], []
    for j in range(n_samples):
        w = sample_white_noise(u.grid, u.m, n_steps, dt, seed, stream=j)
        base = evolve(u, w, 0.0, t, spec)
        h_j = h if isinstance(h, ShiftPath) else h(base)
        moved = evolve(u, apply_shift(w, h_j), 0.0, t, spec)
        value = lambda out: float(np.clip(functional(out.final), -1, 1)) if out.alive else 0.0
        weighted.append(value(moved) * girsanov_weight(w, h_j))
        plain.append(value(base))
    weighted, plain = np.array(weighted), np.array(plain)
    se = lambda x: float(np.std(x, ddof=1) / math.sqrt(n_samples))
    return harness.WeightedComparison(
        shifted_weighted_mean=float(np.mean(weighted)), shifted_weighted_se=se(weighted),
        unshifted_mean=float(np.mean(plain)), unshifted_se=se(plain),
        z_score=float(np.mean(weighted - plain) / se(weighted - plain)), n_samples=n_samples)


def test_weighted_matches_per_sample_loop(grid, monkeypatch):
    """Every field of the batched comparison equals the per-sample loop bit
    for bit, for a fixed and an adapted shift, whatever the chunk size; on
    the inverted cubic some rows die on one side only."""
    spec = EquationSpec.she(drift="cubic_growth", diffusion="one", r_blowup=1e4)
    u = Field.constant(grid, 2.2)
    t = 0.125
    x = grid.axes()[0]
    vals = np.zeros((N_STEPS, 1) + grid.shape)
    vals[:16, 0] = 4.0 * (1.0 + np.sin(2 * np.pi * x))
    vals[20:30, 0] = 0.5  # after t: enters the weight only
    fixed = ShiftPath(grid, DT, vals)

    def adapted(base):
        vals = np.zeros((N_STEPS, 1) + grid.shape)
        vals[:base.n_stored] = -np.clip(base.fields, -3.0, 3.0)
        return ShiftPath(grid, DT, vals)

    fn = lambda f: float(np.max(f.values)) - 2.0
    for h in (fixed, adapted):
        want = _weighted_reference(fn, u, h, t, spec, 40, 7, DT, N_STEPS)
        for chunk_bytes in (harness._CHUNK_BYTES, 1):
            monkeypatch.setattr(harness, "_CHUNK_BYTES", chunk_bytes)
            got = weighted_expectation(fn, u, h, t, spec, n_samples=40, seed=7, dt=DT,
                                       n_steps=N_STEPS)
            assert got == want
