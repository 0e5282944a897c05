import math

import numpy as np
import pytest

from fellerlab import (DEAD, EquationSpec, Field, Grid, check_semigroup,
                       evolve, holder_proxy_norm, r_monitor,
                       sample_white_noise, splice, zero_noise_path)
from fellerlab.equations import ScalarFn


@pytest.fixture
def grid():
    return Grid(dim=1, n=64, extent=(1.0,))


@pytest.fixture
def nonlinear():
    return EquationSpec.she(drift="cubic_decay", diffusion="bounded_smooth", g_min=1.0)


def test_zero_everything_stays_zero(grid):
    spec = EquationSpec.she(drift="cubic_decay", diffusion="one")
    w = zero_noise_path(grid, 1, 256, 2.0**-8)
    out = evolve(Field.zeros(grid), w, 0.0, 1.0, spec)
    assert out.alive
    assert np.all(out.fields == 0.0)
    assert np.all(out.monitor_trace == 0.0)


def test_pure_heat_closed_form(grid):
    spec = EquationSpec.she(drift="zero", diffusion="one")
    x = grid.axes()[0]
    u0 = Field(grid, np.cos(2 * np.pi * x))
    w = zero_noise_path(grid, 1, 1024, 2.0**-10)
    out = evolve(u0, w, 0.0, 0.5, spec)
    exact = math.exp(-((2 * math.pi) ** 2) * 0.5) * np.cos(2 * np.pi * x)
    assert np.max(np.abs(out.final.values[0] - exact)) < 1e-10


def test_wrong_sign_cubic_blows_up_like_the_ode(grid):
    # u' = u^3 from 10 explodes at 1/200; diffusion-free comparison gives
    # death no later than a couple of grid times after that
    spec = EquationSpec.she(drift="cubic_growth", diffusion="one")
    u0 = Field.constant(grid, 10.0)
    w = zero_noise_path(grid, 1, 1024, 2.0**-10)
    out = evolve(u0, w, 0.0, 0.25, spec)
    assert not out.alive
    assert out.blow_up_time <= 0.02
    assert out.reason in ("monitor_threshold", "non_finite")


def test_death_absorption(grid, nonlinear):
    w = sample_white_noise(grid, 1, 256, 2.0**-8, seed=1)
    out = evolve(DEAD, w, 0.0, 0.25, nonlinear)
    assert not out.alive and out.reason == "dead_input"
    assert out.blow_up_time == 0.0
    again = evolve(out.final_or_dead, w, 0.25, 0.5, nonlinear)
    assert not again.alive


def test_semigroup_trivial_and_random(grid, nonlinear):
    w = sample_white_noise(grid, 1, 256, 2.0**-8, seed=2)
    u0 = Field(grid, 0.3 * np.cos(2 * np.pi * grid.axes()[0]))
    assert check_semigroup(u0, w, 0.0, 0.0, 0.5, nonlinear) == 0.0
    assert check_semigroup(u0, w, 0.0, 0.5, 1.0, nonlinear) == 0.0


def test_semigroup_dead_absorbing(grid):
    spec = EquationSpec.she(drift="cubic_growth", diffusion="one")
    u0 = Field.constant(grid, 10.0)
    w = zero_noise_path(grid, 1, 1024, 2.0**-10)
    assert check_semigroup(u0, w, 0.0, 0.0625, 0.125, spec) == 0.0


def test_noise_locality_bit_exact(grid, nonlinear):
    t = 0.25
    w_a = sample_white_noise(grid, 1, 256, 2.0**-8, seed=3)
    w_b = sample_white_noise(grid, 1, 256, 2.0**-8, seed=4)
    w_tail_swapped = splice(w_a, w_b, t)  # differs only on [t, 1]
    u0 = Field(grid, 0.3 * np.cos(2 * np.pi * grid.axes()[0]))
    out1 = evolve(u0, w_a, 0.0, t, nonlinear)
    out2 = evolve(u0, w_tail_swapped, 0.0, t, nonlinear)
    assert np.array_equal(out1.fields, out2.fields)
    assert np.array_equal(out1.monitor_trace, out2.monitor_trace)


def test_monitor_trace_nondecreasing(grid, nonlinear):
    w = sample_white_noise(grid, 1, 256, 2.0**-8, seed=5)
    u0 = Field(grid, 0.5 * np.cos(2 * np.pi * grid.axes()[0]))
    out = evolve(u0, w, 0.0, 1.0, nonlinear)
    assert np.all(np.diff(out.monitor_trace) >= 0.0)


def test_r_monitor_examples(grid):
    spec = EquationSpec.she(drift="zero", diffusion="one")
    w = zero_noise_path(grid, 1, 256, 2.0**-8)
    zero_out = evolve(Field.zeros(grid), w, 0.0, 0.5, spec)
    assert r_monitor(zero_out, 0.5, 0.25) == 0.0

    x = grid.axes()[0]
    out = evolve(Field(grid, np.cos(2 * np.pi * x)), w, 0.0, 0.5, spec)
    # decaying single harmonic: the running maximum is attained at time 0
    assert r_monitor(out, 0.5, 0.0) == pytest.approx(
        holder_proxy_norm(Field(grid, np.cos(2 * np.pi * x)), 0.0))
    values = [r_monitor(out, tt, 0.25) for tt in (0.125, 0.25, 0.375, 0.5)]
    assert all(a <= b * (1 + 1e-12) for a, b in zip(values[1:], values))  # nonincreasing here
    assert all(values[i + 1] <= values[i] + 1e-12 or values[i + 1] >= values[i]
               for i in range(3))


def test_r_monitor_monotone_random(grid, nonlinear):
    w = sample_white_noise(grid, 1, 256, 2.0**-8, seed=6)
    u0 = Field(grid, 0.4 * np.cos(2 * np.pi * grid.axes()[0]))
    out = evolve(u0, w, 0.0, 0.5, nonlinear)
    times = [0.125, 0.25, 0.375, 0.5]
    vals = [r_monitor(out, tt, 0.25) for tt in times]
    assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(len(vals) - 1))


def test_r_monitor_rejects_uncovered_time(grid):
    spec = EquationSpec.she(drift="zero", diffusion="one")
    w = zero_noise_path(grid, 1, 256, 2.0**-8)
    out = evolve(Field.zeros(grid), w, 0.0, 0.25, spec)
    with pytest.raises(ValueError):
        r_monitor(out, 0.5, 0.0)


def test_r_monitor_infinite_after_death(grid):
    spec = EquationSpec.she(drift="cubic_growth", diffusion="one")
    w = zero_noise_path(grid, 1, 1024, 2.0**-10)
    out = evolve(Field.constant(grid, 10.0), w, 0.0, 0.25, spec)
    assert r_monitor(out, 0.25, 0.0) == math.inf


def test_nondegeneracy_death_reason(grid):
    diffusion = ScalarFn("affine", lambda u: 1.0 + u, lambda u: np.ones_like(u))
    spec = EquationSpec.she(drift="zero", diffusion=diffusion, g_min=0.5)
    w = zero_noise_path(grid, 1, 256, 2.0**-8)
    out = evolve(Field.constant(grid, -0.8), w, 0.0, 0.25, spec)
    assert not out.alive and out.reason == "nondegenerate"
    assert out.blow_up_time == 0.0


def test_off_grid_times_rejected(grid, nonlinear):
    w = sample_white_noise(grid, 1, 256, 2.0**-8, seed=7)
    u0 = Field.zeros(grid)
    with pytest.raises(ValueError):
        evolve(u0, w, 0.0, 0.1001, nonlinear)
    with pytest.raises(ValueError):
        evolve(u0, w, 0.5, 0.25, nonlinear)
    with pytest.raises(ValueError):
        evolve(u0, w, 0.0, 1.5, nonlinear)  # beyond time one


def test_kpz_runs_alive():
    grid = Grid(dim=1, n=64, extent=(1.0,))
    dt = 2.0**-10
    s = np.zeros((2, 2, 2))
    s[0] = [[1.0, 0.0], [0.0, 1.0]]
    s[1] = [[0.0, 1.0], [1.0, 0.0]]
    spec = EquationSpec.kpz(s, eps=1 / 16.0)
    from fellerlab import compute_renorm_constants
    spec = spec.with_renorm(compute_renorm_constants(spec, grid, dt))
    w = sample_white_noise(grid, 2, 1024, dt, seed=8)
    u0 = Field.zeros(grid, m=2)
    out = evolve(u0, w, 0.0, 0.25, spec)
    assert out.alive
    assert out.fields.shape[1] == 2


def test_phi4_2d_runs_alive():
    grid = Grid(dim=2, n=16, extent=(1.0, 1.0))
    dt = 2.0**-8
    spec = EquationSpec.phi4(quartic=1.0, mass=0.5, eps=0.2)
    from fellerlab import compute_renorm_constants
    spec = spec.with_renorm(compute_renorm_constants(spec, grid, dt))
    w = sample_white_noise(grid, 1, 256, dt, seed=9)
    out = evolve(Field.zeros(grid), w, 0.0, 0.25, spec)
    assert out.alive


def test_dimension_mismatch_rejected(grid):
    spec = EquationSpec.phi4(quartic=1.0, eps=0.1)
    w = sample_white_noise(grid, 1, 256, 2.0**-8, seed=10)
    with pytest.raises(ValueError):
        evolve(Field.zeros(grid), w, 0.0, 0.25, spec)


def test_batched_evolve_rows_match_single_path():
    """Rows of one batched evolve equal separate evolves bit for bit, for the
    batched einsum (kpz1d, m = 2) and the batched 2D transforms (phi4_2d)."""
    from fellerlab import compute_renorm_constants
    from fellerlab.solver import _evolve_batch, get_workspace
    grid1 = Grid(dim=1, n=32, extent=(1.0,))
    grid2 = Grid(dim=2, n=16, extent=(1.0, 1.0))
    kpz = EquationSpec.kpz(np.array([1, 0, 0, 1, 0, 1, 1, 0.0]).reshape(2, 2, 2), eps=0.05)
    phi = EquationSpec.phi4(quartic=-1.0, eps=0.05, allow_unstable=True)
    for grid, spec, u0 in ((grid1, kpz, Field.constant(grid1, 0.3, m=2)),
                           (grid2, phi, Field.constant(grid2, 1.5))):
        dt = 2.0**-8
        spec = spec.with_renorm(compute_renorm_constants(spec, grid, dt))
        paths = [sample_white_noise(grid, spec.m, 256, dt, seed=12, stream=j) for j in range(4)]
        increments = np.stack([w.increments[:64] for w in paths], axis=1)
        batch = _evolve_batch(np.broadcast_to(u0.values, (4,) + u0.values.shape), increments,
                              spec, get_workspace(grid, dt, spec))
        for b, w in enumerate(paths):
            want = evolve(u0, w, 0.0, 0.25, spec)
            got = batch.outcome(b, grid, 0.0, 0.25, dt, increments[:, b])
            assert (got.alive, got.reason, got.blow_up_time) == (want.alive, want.reason,
                                                                  want.blow_up_time)
            assert np.array_equal(got.fields, want.fields)
            assert np.array_equal(got.monitor_trace, want.monitor_trace)
            assert np.array_equal(got.noise_terms, want.noise_terms)


def test_workspace_cache_bounded(grid, nonlinear):
    from fellerlab.solver import _workspace, get_workspace
    bound = _workspace.cache_info().maxsize
    for i in range(3 * bound):
        get_workspace(grid, 2.0**-8 * (1.0 + i / 1000.0), nonlinear)
    assert _workspace.cache_info().currsize == bound


def test_final_only_evolve_matches_stored_paths():
    """Keeping only final states, and drawing the increments slice by slice,
    changes no row's final state, reason or death step."""
    from fellerlab.equations import RenormConstants
    from fellerlab.noise import _SliceSource
    from fellerlab.solver import _evolve_batch, get_workspace
    grid2 = Grid(dim=2, n=16, extent=(1.0, 1.0))
    dt, k_t, n = 2.0**-8, 64, 12
    spec = EquationSpec.phi4(quartic=-1.0, eps=0.05, allow_unstable=True, monitor_eta=0.0)
    spec = spec.with_renorm(RenormConstants((0.0,), provenance="user-supplied"))
    u0 = np.broadcast_to(Field.constant(grid2, 1.5).values, (n, 1) + grid2.shape)
    ws = get_workspace(grid2, dt, spec)
    source = _SliceSource(grid2, 1, k_t, dt, 5, range(n))
    increments = np.stack([sample_white_noise(grid2, 1, 256, dt, 5, stream=j).increments[:k_t]
                           for j in range(n)], axis=1)
    stored = _evolve_batch(u0, increments, spec, ws)
    assert len(set(stored.death_step[~stored.alive])) >= 3 and stored.alive.any()
    for noise in (increments, source):
        final = _evolve_batch(u0, noise, spec, ws, final_only=True)
        assert final.fields.shape[0] == 1
        assert final.reasons == stored.reasons
        assert np.array_equal(final.death_step, stored.death_step)
        assert np.array_equal(final.n_stored, stored.n_stored)
        for b in range(n):
            assert np.array_equal(final.final(b), stored.final(b))
            assert final.trace[0, b] == stored.trace[stored.n_stored[b] - 1, b]


def _fate_batches():
    """Batches (grid, spec, dt, u0, increments) whose rows die at step 0 and
    later, by every death reason: she1d with multiplicative noise (twice, the
    second with a monitor threshold high enough for non-finite deaths), kpz1d
    with m = 2 and phi4_2d."""
    from fellerlab import compute_renorm_constants
    from fellerlab.equations import RenormConstants
    grid1 = Grid(dim=1, n=32, extent=(1.0,))
    grid2 = Grid(dim=2, n=16, extent=(1.0, 1.0))
    dt = 2.0**-8
    affine = ScalarFn("affine", lambda u: 1.0 + u, lambda u: np.ones_like(u))
    kpz = EquationSpec.kpz(np.array([1, 0, 0, 1, 0, 1, 1, 0.0]).reshape(2, 2, 2), eps=0.05)
    phi = EquationSpec.phi4(quartic=-1.0, eps=0.05, allow_unstable=True, monitor_eta=0.0)
    cases = [
        (grid1, EquationSpec.she(drift="cubic_growth", diffusion=affine, g_min=0.5, eps=0.05),
         [0.0, -0.8, 1e7, 2.0, -0.2, 0.5, 1.0], False),
        (grid1, EquationSpec.she(drift="cubic_growth", diffusion=affine, g_min=0.5, eps=0.05,
                                 r_blowup=1e200), [0.0, 1e60, 1e50, 3.0], False),
        (grid1, kpz.with_renorm(compute_renorm_constants(kpz, grid1, dt)),
         [0.3, 1e7, 1.0, 10.0, 30.0], True),
        (grid2, phi.with_renorm(RenormConstants((0.0,))), [1.5, 1.6, 1.7, 1e7, 0.5], False),
    ]
    for grid, spec, amps, wave in cases:
        x = np.meshgrid(*grid.axes(), indexing="ij")[0]
        profile = np.cos(2 * np.pi * x) if wave else np.ones(grid.shape)
        u0 = np.stack([np.broadcast_to(a * profile, (spec.m,) + grid.shape) for a in amps])
        increments = np.stack([sample_white_noise(grid, spec.m, 256, dt, 3, stream=j)
                               .increments[:64] for j in range(len(amps))], axis=1)
        yield grid, spec, dt, u0, increments


def test_carried_tangent_matches_sweep_replay():
    """The tangent carried through the evolve equals the reference tangent
    sweep along the stored paths and raw increments, bit for bit, for rows
    of every fate, and carrying it changes nothing else."""
    from linear_oracles import Oracle
    from fellerlab.solver import _evolve_batch, get_workspace
    fates = set()
    for grid, spec, dt, u0, increments in _fate_batches():
        ws = get_workspace(grid, dt, spec)
        oracle = Oracle(grid, dt, spec)
        x0 = np.broadcast_to(np.sin(2 * np.pi * np.arange(grid.total_points) / grid.n)
                             .reshape(grid.shape), u0.shape)
        with np.errstate(over="ignore", invalid="ignore"):  # the non-finite deaths
            plain = _evolve_batch(u0, increments, spec, ws)
            carried = _evolve_batch(u0, increments, spec, ws, x0=x0)
            replay = np.zeros((carried.n_stored.max(),) + u0.shape)
            for b, n in enumerate(carried.n_stored):
                replay[:n, b] = oracle.sweep(carried.fields[:n, b], increments[:n - 1, b],
                                             x0[b:b + 1])
        assert plain.tangent is None and carried.reasons == plain.reasons
        for name in ("fields", "trace", "n_stored", "death_step"):
            assert np.array_equal(getattr(carried, name), getattr(plain, name))
        assert np.array_equal(carried.tangent[:replay.shape[0]], replay)
        assert not carried.tangent[replay.shape[0]:].any()
        fates |= {(spec.kind, reason, int(step) > 0)
                  for reason, step in zip(carried.reasons, carried.death_step)}
    assert {("she1d", "monitor_threshold", False), ("she1d", "monitor_threshold", True),
            ("she1d", "nondegenerate", False), ("she1d", "nondegenerate", True),
            ("she1d", "non_finite", True), ("she1d", None, False),
            ("kpz1d", "monitor_threshold", False), ("kpz1d", "monitor_threshold", True),
            ("kpz1d", None, False), ("phi4_2d", "monitor_threshold", False),
            ("phi4_2d", "monitor_threshold", True), ("phi4_2d", None, False)} <= fates


def test_monitor_trace_is_running_max_of_proxy_norm():
    """Entry j of a row's monitor trace is the running maximum of the proxy
    norm of its stored states 0..j at the monitor exponent, bit for bit."""
    from fellerlab.solver import _evolve_batch, get_workspace
    for grid, spec, dt, u0, increments in _fate_batches():
        with np.errstate(over="ignore", invalid="ignore"):
            paths = _evolve_batch(u0, increments, spec, get_workspace(grid, dt, spec))
        for b in range(u0.shape[0]):
            n = paths.n_stored[b]
            norms = [holder_proxy_norm(Field(grid, paths.fields[i, b]), spec.monitor_eta)
                     for i in range(n)]
            assert np.array_equal(paths.trace[:n, b], np.maximum.accumulate(norms))


def _full_spectrum_step(u, x, dw, h, spec, grid, dt):
    """One step's transforms on the full complex spectrum, the reference for
    the half-spectrum step: the monitor norm per row, the heat steps of the
    state and tangent inputs and the smoothed increment and inject slice."""
    axes = tuple(range(-grid.dim, 0))
    fwd = lambda a: np.fft.fftn(a, axes=axes)
    inv = lambda modes: np.fft.ifftn(modes, axes=axes).real
    k = np.abs(grid.frequencies()[0])
    mag = k if grid.dim == 1 else np.maximum(k[:, None], k[None, :])
    n_shells = int(math.log2(grid.n // 2)) + 1
    shells = [mag <= 1] + [(mag > 2 ** (j - 1)) & (mag <= 2**j) for j in range(1, n_shells)]
    sups = [2.0 ** (spec.monitor_eta * j) * np.abs(inv(mask * fwd(u))).reshape(len(u), -1).max(axis=1)
            for j, mask in enumerate(shells)]
    du = dx = None
    if spec.kind == "kpz1d":
        freq = grid.frequencies()[0]
        gradient = (1j * 2.0 * np.pi / grid.extent[0]) * freq * (np.abs(freq) <= grid.n // 3)
        du, dx = inv(gradient * fwd(u)), inv(gradient * fwd(x))
    decay = np.exp(-grid.wavenumbers_sq() * dt)
    heat = inv(decay * fwd(u + dt * spec.drift(u, du)))
    heat_x = inv(decay * fwd(x + dt * spec.drift_jvp(u, x, du, dx)))
    moll = spec.mollifier.multiplier(grid, spec.eps)
    return np.max(sups, axis=0), heat, heat_x, inv(moll * fwd(dw)), inv(moll * fwd(h))


def test_half_spectrum_step_matches_full_spectrum_reference():
    """The half-spectrum transforms of one planned step agree with full
    complex FFTs and full multipliers to 1e-12 relative: monitor, heat step,
    tangent heat step, smoothed increment and smoothed inject slice, for
    she1d with a mollifier, kpz1d (m = 2, gradient pass and Nyquist column)
    and phi4_2d.  The plan is sized for more rows than the step uses, and
    its monitor-only transform agrees too."""
    from fellerlab import compute_renorm_constants
    from fellerlab.solver import _StepPlan, get_workspace
    dt = 2.0**-8
    grid1 = Grid(dim=1, n=32, extent=(1.0,))
    grid2 = Grid(dim=2, n=16, extent=(1.0, 2.0))
    kpz = EquationSpec.kpz(np.array([1, 0, 0, 1, 0, 1, 1, 0.0]).reshape(2, 2, 2), eps=0.05)
    phi = EquationSpec.phi4(quartic=1.0, mass=0.5, eps=0.05)
    cases = [
        (grid1, EquationSpec.she(drift="cubic_decay", diffusion="bounded_smooth", eps=0.05)),
        (grid1, kpz.with_renorm(compute_renorm_constants(kpz, grid1, dt))),
        (grid2, phi.with_renorm(compute_renorm_constants(phi, grid2, dt))),
    ]
    rng = np.random.default_rng(8)
    for grid, spec in cases:
        u, x, dw, h = rng.standard_normal((4, 3, spec.m) + grid.shape)
        u += 2.0 * (-1.0) ** np.arange(grid.n)  # weight on the last axis's Nyquist mode
        plan = _StepPlan(get_workspace(grid, dt, spec), spec, 5, u.shape[1:], tangent=True,
                         inject=True)
        got = plan.step(u, x, dw, h)
        want = _full_spectrum_step(u, x, dw, h, spec, grid, dt)
        assert len(got) == len(want)
        for g, w in zip(got + (plan.monitor(u),), want + want[:1]):
            assert g.shape == w.shape
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))
