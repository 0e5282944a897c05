import math

import numpy as np
import pytest

from fellerlab import (CouplingParams, EquationSpec, Field, Grid,
                       NondegeneracyError, ShiftPath, adaptedness_check,
                       apply_shift, build_shift, bump_chi,
                       compensating_direction, cutoff_chi, evolve,
                       jacobian_apply, l2_norm, sample_white_noise,
                       tangent_sweep, verify_coupling)


@pytest.fixture
def grid():
    return Grid(dim=1, n=32, extent=(1.0,))


@pytest.fixture
def nonlinear():
    return EquationSpec.she(drift="cubic_decay", diffusion="bounded_smooth", g_min=1.0)


DT = 2.0**-8
T = 0.25


def _state(grid, amp=0.3):
    x = grid.axes()[0]
    return Field(grid, amp * np.cos(2 * np.pi * x) + 0.1 * np.sin(4 * np.pi * x))


def _direction(grid, mode=1):
    f = Field(grid, np.cos(2 * np.pi * mode * grid.axes()[0]))
    return f * (1.0 / l2_norm(f))


def test_bump_profile():
    assert bump_chi(0.2) == 0.0
    assert bump_chi(0.75) == 2.0
    assert bump_chi(0.5) == 2.0
    with pytest.raises(ValueError):
        bump_chi(1.5)
    dt = 1.0 / 256
    riemann = sum(bump_chi(k * dt) for k in range(256)) * dt
    assert abs(riemann - 1.0) <= dt


def test_cutoff_profile():
    assert cutoff_chi(0.5) == 1.0
    assert cutoff_chi(3.0) == 0.0
    assert cutoff_chi(1.5) == 0.5
    # monotone, and C^1 at the break points
    rs = np.linspace(0.0, 2.5, 401)
    vals = [cutoff_chi(r) for r in rs]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    eps = 1e-6
    assert abs(cutoff_chi(1.0 + eps) - 1.0) < 1e-10
    assert cutoff_chi(2.0 - eps) < 1e-10 * 1e6


def test_cutoff_bits_match_both_branch_formula():
    """cutoff_chi gives the bits of the formula that evaluates the smoothstep
    everywhere and then picks a branch, on a seeded grid of r in [0, 3] with
    the break points, as an array and one float at a time."""
    r = np.r_[np.random.default_rng(12).uniform(0.0, 3.0, 2000), 0.0, 1.0, 2.0, 3.0,
              np.nextafter(1.0, 2.0), np.nextafter(2.0, 1.0)]
    x = r - 1.0
    want = np.where(r <= 1.0, 1.0, np.where(r >= 2.0, 0.0, 1.0 - 3.0 * x * x + 2.0 * x * x * x))
    assert cutoff_chi(r).tobytes() == want.tobytes()
    assert all(cutoff_chi(float(a)) == b for a, b in zip(r[:50], want[:50]))
    assert math.isnan(cutoff_chi(math.nan))


def test_tiny_cutoff_scale_builds_a_shift_without_warnings(grid):
    """At cutoff_r = 1e-300 every monitor ratio is huge: each slice freezes
    at once (cutoff 0) without an overflow warning from the unused smoothstep."""
    import warnings
    spec = EquationSpec.she(drift="cubic_decay", diffusion="bounded_smooth", g_min=1.0)
    u = Field(grid, 0.3 * np.cos(2 * np.pi * grid.axes()[0]))
    w = sample_white_noise(grid, 1, 256, DT, seed=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cutoff_chi(np.array([1e300, 4e299])).tolist() == [0.0, 0.0]
        res = build_shift(u, u + Field.constant(grid, 0.05), w, T, spec,
                          CouplingParams(m_bound=20.0, k_gamma=4, cutoff_r=1e-300))
    assert res.status == "frozen" and res.diagnostics["min_cutoff"] == 0.0


def test_huge_state_dead_at_step_0_builds_without_warnings(grid, nonlinear):
    """A state far past the monitor threshold dies at step 0, keeping u_0; the
    transfer slices evaluate G on it, where u * u overflows, but drop it, with
    no overflow or invalid-value warning."""
    import warnings
    u = Field(grid, np.where(np.arange(grid.n) % 2 == 0, 1e200, 0.0))
    w = sample_white_noise(grid, 1, 256, DT, seed=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the displacement shows only where u is zero
        res = build_shift(u, u + _direction(grid) * 0.05, w, T, nonlinear,
                          CouplingParams(m_bound=5.0, k_gamma=4))
    assert res.status == "dead" and res.diagnostics["reason"] == "monitor_threshold"
    assert np.all(res.h.values == 0.0)


def test_compensating_direction_support_and_heat_oracle(grid):
    spec = EquationSpec.she(drift="zero", diffusion="one")
    u0 = Field.zeros(grid)
    w = sample_white_noise(grid, 1, 256, DT, seed=20)
    out = evolve(u0, w, 0.0, T, spec)
    x = grid.axes()[0]
    v = Field(grid, np.cos(2 * np.pi * 2 * x))
    a = compensating_direction(out, v, T, spec)
    k_t = round(T / DT)
    lam = (2 * np.pi * 2) ** 2
    for k in range(k_t):
        if k / k_t < 0.5:
            assert np.all(a.values[k] == 0.0)
        else:
            exact = (2.0 / T) * np.exp(-lam * (k + 1) * DT) * np.cos(2 * np.pi * 2 * x)
            assert np.max(np.abs(a.values[k, 0] - exact)) < 1e-10


def test_transfer_identity_machine_exact(grid, nonlinear):
    from fellerlab import malliavin_derivative
    u0 = _state(grid)
    w = sample_white_noise(grid, 1, 256, DT, seed=21)
    out = evolve(u0, w, 0.0, T, nonlinear)
    v = _direction(grid)
    a = compensating_direction(out, v, T, nonlinear)
    lhs = malliavin_derivative(out, a, T, nonlinear)
    rhs = jacobian_apply(out, v, 0.0, T, nonlinear)
    assert l2_norm(lhs - rhs) <= 1e-10 * max(1.0, l2_norm(rhs))


def test_compensating_direction_nondegeneracy_guard(grid):
    # trajectory is fine at g_min = 1 but a stricter floor must fail fast
    spec = EquationSpec.she(drift="zero", diffusion="bounded_smooth", g_min=1.0)
    strict = EquationSpec.she(drift="zero", diffusion="bounded_smooth", g_min=1.2)
    u0 = Field.constant(grid, 0.05)  # G(u) stays near 1 < 1.2
    w = sample_white_noise(grid, 1, 256, DT, seed=22)
    out = evolve(u0, w, 0.0, T, spec)
    with pytest.raises(NondegeneracyError):
        compensating_direction(out, _direction(grid), T, strict)
    # any replay of the path under the stricter floor dies, and says why
    with pytest.raises(NondegeneracyError):
        tangent_sweep(out, _direction(grid), 0.0, T, strict)
    # a replay tripping a threshold below the path's monitor is no nondegeneracy fault
    low = EquationSpec.she(drift="zero", diffusion="bounded_smooth", g_min=1.0,
                           r_blowup=0.5 * float(out.monitor_trace[-1]))
    with pytest.raises(ValueError) as err:
        tangent_sweep(out, _direction(grid), 0.0, T, low)
    assert not isinstance(err.value, NondegeneracyError)
    from fellerlab import shift, solver
    assert shift.NondegeneracyError is solver.NondegeneracyError is NondegeneracyError


def test_build_shift_same_states(grid, nonlinear):
    u = _state(grid)
    w = sample_white_noise(grid, 1, 256, DT, seed=23)
    res = build_shift(u, u, w, T, nonlinear, CouplingParams(m_bound=5.0, k_gamma=8))
    assert res.status == "completed"
    assert res.gamma_reached == 0.0
    assert np.all(res.h.values == 0.0)
    assert verify_coupling(u, u, w, res.h, T, nonlinear) == 0.0


def test_build_shift_norm_bound_and_support(grid, nonlinear):
    u = _state(grid)
    u_bar = u + _direction(grid) * 0.05
    w = sample_white_noise(grid, 1, 256, DT, seed=24)
    params = CouplingParams(m_bound=20.0, k_gamma=16)
    res = build_shift(u, u_bar, w, T, nonlinear, params)
    assert res.status == "completed"
    assert res.cm_norm <= 20.0 * res.gamma_reached + 1e-9
    k_t = round(T / DT)
    half = k_t // 2
    assert np.all(res.h.values[:half] == 0.0)       # early slices vanish
    assert np.all(res.h.values[k_t:] == 0.0)        # nothing beyond t
    assert np.any(res.h.values[half:k_t] != 0.0)


def test_no_free_coupling(grid, nonlinear):
    u = _state(grid)
    u_bar = u + _direction(grid) * 0.05
    w = sample_white_noise(grid, 1, 256, DT, seed=25)
    zero = ShiftPath.zeros(grid, 1, 256, DT)
    assert verify_coupling(u, u_bar, w, zero, T, nonlinear) > 1e-3


def test_verify_coupling_dead_side_is_inf(grid):
    spec = EquationSpec.she(drift="cubic_growth", diffusion="one")
    u = Field.constant(grid, 10.0)
    u_bar = Field.constant(grid, 10.01)
    w = sample_white_noise(grid, 1, 256, DT, seed=26)
    zero = ShiftPath.zeros(grid, 1, 256, DT)
    assert verify_coupling(u, u_bar, w, zero, T, spec) == math.inf


def test_freezing_cutoff_monotone(grid, nonlinear):
    u = _state(grid)
    u_bar = u + _direction(grid) * 0.05
    w = sample_white_noise(grid, 1, 256, DT, seed=27)
    # cutoff scale forcing freezes partway through
    res = build_shift(u, u_bar, w, T, nonlinear,
                      CouplingParams(m_bound=20.0, k_gamma=12, cutoff_r=0.2))
    cuts = res.diagnostics["min_cutoff_per_step"]
    assert all(a >= b for a, b in zip(cuts, cuts[1:]))
    assert res.status == "frozen"
    assert res.gamma_star is not None
    assert res.cm_norm <= 20.0 * res.gamma_reached + 1e-9


def test_clamping_reported_and_bound_holds(grid, nonlinear):
    u = _state(grid)
    # constant displacement: no heat decay, so the transfer slices stay large
    u_bar = u + Field.constant(grid, 0.05)
    w = sample_white_noise(grid, 1, 256, DT, seed=28)
    res = build_shift(u, u_bar, w, T, nonlinear,
                      CouplingParams(m_bound=0.05, k_gamma=8))
    assert res.diagnostics["clamp_events"] > 0
    assert res.cm_norm <= 0.05 * res.gamma_reached + 1e-9


def test_dead_initial_pair(grid):
    spec = EquationSpec.she(drift="cubic_growth", diffusion="one")
    u = Field.constant(grid, 10.0)
    u_bar = Field.constant(grid, 10.0 + 1e-4)
    w = sample_white_noise(grid, 1, 256, DT, seed=29)
    res = build_shift(u, u_bar, w, T, spec, CouplingParams(m_bound=5.0, k_gamma=8))
    assert res.status == "dead"
    assert np.all(res.h.values == 0.0)
    assert res.gamma_reached == 0.0


def test_batched_rows_match_single_path_across_fates(grid):
    """One batch whose rows end differently (dead at step 0, frozen early,
    frozen late, completed) gives each row exactly its batch-of-one result."""
    from fellerlab.shift import _build_shift_batch
    spec = EquationSpec.she(drift="cubic_growth", diffusion="one", r_blowup=50.0)
    dt, n_steps, t = 2.0**-7, 128, 0.25
    u = Field.constant(grid, 1.4)
    u_bar = u + _direction(grid) * 0.01
    params = CouplingParams(m_bound=50.0, k_gamma=6, cutoff_r=1.2)
    paths = [sample_white_noise(grid, 1, n_steps, dt, seed=5, stream=j) for j in range(10)]
    k_t = round(t / dt)
    batch, _ = _build_shift_batch(u, [u_bar] * len(paths),
                                  np.stack([w.increments[:k_t] for w in paths], axis=1),
                                  t, dt, n_steps, spec, params)
    singles = [build_shift(u, u_bar, w, t, spec, params) for w in paths]
    fates = {(r.status, len(r.diagnostics["monitor_per_step"]) < params.k_gamma) for r in singles}
    assert fates >= {("dead", True), ("frozen", True), ("frozen", False), ("completed", False)}
    for got, want in zip(batch, singles):
        assert got.status == want.status
        assert got.gamma_star == want.gamma_star
        assert got.gamma_reached == want.gamma_reached
        assert got.cm_norm == want.cm_norm
        assert got.diagnostics == want.diagnostics
        assert np.array_equal(got.h.values, want.h.values)
        if want.status == "dead":
            assert np.all(got.h.values == 0.0) and got.gamma_reached == 0.0


def test_batched_rows_with_own_targets_match_single_path(grid):
    """A batch whose rows each couple u to their own u_bar (u itself among
    them) gives each row exactly build_shift for that target alone."""
    from fellerlab.shift import _build_shift_batch
    spec = EquationSpec.she(drift="cubic_growth", diffusion="one", r_blowup=50.0)
    dt, n_steps, t = 2.0**-7, 128, 0.25
    u = Field.constant(grid, 1.4)
    params = CouplingParams(m_bound=50.0, k_gamma=6, cutoff_r=1.2)
    gammas = [0.01, 0.002, 0.0, 0.015, 0.01, 0.0, 0.005, 0.002]
    u_bars = [u + _direction(grid, mode=1 + b % 2) * g for b, g in enumerate(gammas)]
    paths = [sample_white_noise(grid, 1, n_steps, dt, seed=5, stream=j) for j in range(8)]
    k_t = round(t / dt)
    batch, from_u = _build_shift_batch(u, u_bars,
                                       np.stack([w.increments[:k_t] for w in paths], axis=1),
                                       t, dt, n_steps, spec, params)
    singles = [build_shift(u, u_bar, w, t, spec, params) for u_bar, w in zip(u_bars, paths)]
    assert {r.status for r in singles} >= {"dead", "frozen", "completed"}
    for b, (got, want) in enumerate(zip(batch, singles)):
        assert got.status == want.status
        assert got.gamma_target == want.gamma_target
        assert got.gamma_star == want.gamma_star
        assert got.gamma_reached == want.gamma_reached
        assert got.cm_norm == want.cm_norm
        assert got.diagnostics == want.diagnostics
        assert np.array_equal(got.h.values, want.h.values)
        plain = evolve(u, paths[b], 0.0, t, spec)
        assert from_u.reasons[b] == plain.reason
        assert np.array_equal(from_u.fields[:from_u.n_stored[b], b], plain.fields)


def test_mixed_fate_batch_bits_pinned(grid):
    """sha256 over every ShiftResult field, the diagnostics and the step-0
    paths of one batch whose rows end in every way: dead at step 0, u_bar == u
    (on a live and on a dead stream), frozen and leaving at step 0, frozen and
    leaving at a later step after a later death, frozen with the first event
    at gamma > 0, clamped, and completed with and without clamps."""
    import hashlib
    from fellerlab.shift import _build_shift_batch
    spec = EquationSpec.she(drift="cubic_growth", diffusion="one", r_blowup=50.0)
    dt, n_steps, t = 2.0**-7, 128, 0.25
    u = Field.constant(grid, 1.4)
    params = CouplingParams(m_bound=1.0, k_gamma=6, cutoff_r=1.2)
    # (stream, gamma, direction mode) per row
    rows = [(0, 0.01, 0), (7, 0.01, 1), (6, 0.2, 0), (4, 0.2, 0), (9, 0.1, 0), (9, 0.01, 0),
            (9, 0.01, 1), (5, 0.05, 0), (3, 0.2, 0), (1, 0.0, 0), (2, 0.0, 1), (11, 0.05, 1)]
    k_t = round(t / dt)
    increments = np.stack([sample_white_noise(grid, 1, n_steps, dt, seed=5, stream=j)
                           .increments[:k_t] for j, _, _ in rows], axis=1)
    u_bars = [u + _direction(grid, mode) * g for _, g, mode in rows]
    results, from_u = _build_shift_batch(u, u_bars, increments, t, dt, n_steps, spec, params)
    fates = [(r.status, len(r.diagnostics["monitor_per_step"]), r.gamma_star,
              r.diagnostics.get("clamp_events", 0) > 0) for r in results]
    assert ("dead", 1, None, False) in fates and ("frozen", 1, 0.0, False) in fates
    assert ("completed", 0, None, False) in fates
    assert any(s == "frozen" and 1 < n < 6 for s, n, _, _ in fates)
    assert any(s == "frozen" and g and g > 0 and c for s, _, g, c in fates)
    assert {("completed", 6, None, True), ("completed", 6, None, False)} <= set(fates)
    sha = hashlib.sha256()
    for r in results:
        sha.update(r.h.values.tobytes())
        sha.update(repr((r.h.dt, r.gamma_target, r.gamma_reached, r.status, r.gamma_star,
                         r.cm_norm, r.a_bound_used, r.cutoff_r,
                         sorted(r.diagnostics.items()))).encode())
    for a in (from_u.fields, from_u.trace, from_u.n_stored, from_u.death_step):
        sha.update(np.ascontiguousarray(a).tobytes())
    sha.update(repr((from_u.reasons, from_u.tangent)).encode())
    assert sha.hexdigest()[:24] == "a1d738bc59e72440633d0729"


def test_adaptedness_trivial_cases(grid, nonlinear):
    u = _state(grid)
    u_bar = u + _direction(grid) * 0.04
    w = sample_white_noise(grid, 1, 256, DT, seed=30)
    params = CouplingParams(m_bound=20.0, k_gamma=6)
    assert adaptedness_check(u, u_bar, w, w, T / 2, T, nonlinear, params) == 0.0


def test_coupling_propagates_to_later_times(grid, nonlinear):
    """Once coupled at t, continuing both sides with the same tail noise keeps
    them together up to the tangent growth factor."""
    u = _state(grid)
    u_bar = u + _direction(grid) * 0.05
    w = sample_white_noise(grid, 1, 256, DT, seed=31)
    res = build_shift(u, u_bar, w, T, nonlinear, CouplingParams(m_bound=20.0, k_gamma=32))
    w_shifted = apply_shift(w, res.h)  # equals w beyond t: the shift stops at t

    out_u = evolve(u, w, 0.0, 0.5, nonlinear)
    out_ub = evolve(u_bar, w_shifted, 0.0, 0.5, nonlinear)
    dev_t = l2_norm(out_u.field_at(T) - out_ub.field_at(T))
    dev_later = l2_norm(out_u.final - out_ub.final)

    diff = out_u.field_at(T) - out_ub.field_at(T)
    grown = jacobian_apply(out_u, diff, T, 0.5, nonlinear)
    growth = max(1.0, l2_norm(grown) / max(l2_norm(diff), 1e-300))
    assert dev_later <= 3.0 * growth * dev_t


def test_gamma_m_guard_in_harness(grid, nonlinear):
    from fellerlab import estimate_tv_bound
    u = _state(grid)
    u_bar = u + _direction(grid) * 0.2
    with pytest.raises(ValueError):
        estimate_tv_bound(u, u_bar, T, nonlinear,
                          CouplingParams(m_bound=10.0, k_gamma=4), 2, 0, DT)


def test_coupling_params_validation():
    with pytest.raises(ValueError):
        CouplingParams(m_bound=0.0, k_gamma=4)
    with pytest.raises(ValueError):
        CouplingParams(m_bound=1.0, k_gamma=0)
    for bad in ({"tol": 0.0}, {"tol": -1.0}, {"cutoff_r": 5e-324}):
        with pytest.raises(ValueError, match=f"{next(iter(bad))} = .* is out of range"):
            CouplingParams(m_bound=1.0, k_gamma=4, **bad)
