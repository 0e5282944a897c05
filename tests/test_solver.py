import math

import numpy as np
import pytest

from fellerlab import (DEAD, EquationSpec, Field, Grid, check_semigroup,
                       evolve, holder_proxy_norm, r_monitor,
                       sample_white_noise, splice, zero_noise_path)
from fellerlab.equations import DIFFUSIONS, DRIFTS, RenormConstants, ScalarFn
from fellerlab.grids import _gaussian_multiplier


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


def test_semigroup_rejects_misordered_times(grid, nonlinear):
    w = sample_white_noise(grid, 1, 256, 2.0**-8, seed=7)
    for s, t, r in ((0.25, 0.125, 0.5), (0.0, 0.5, 0.25)):
        with pytest.raises(ValueError, match="need s <= t"):
            check_semigroup(Field.zeros(grid), w, s, t, r, nonlinear)


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


def test_r_monitor_matches_per_state_proxy_norms():
    """r_monitor is the running maximum of holder_proxy_norm taken state by
    state, bit for bit: kpz1d (m = 2) and phi4_2d at eta -0.25, 0 and 0.25,
    on trajectories of more than 64 stored states, and +inf from death on."""
    from fellerlab import compute_renorm_constants
    from fellerlab.equations import RenormConstants
    dt = 2.0**-8
    grid1 = Grid(dim=1, n=32, extent=(1.0,))
    grid2 = Grid(dim=2, n=16, extent=(1.0, 1.0))
    kpz = EquationSpec.kpz(np.array([1, 0, 0, 1, 0, 1, 1, 0.0]).reshape(2, 2, 2), eps=0.05)
    phi = EquationSpec.phi4(quartic=1.0, mass=0.5, eps=0.05)
    x1 = grid1.axes()[0]
    x2, y2 = np.meshgrid(*grid2.axes(), indexing="ij")
    cases = [
        (grid1, kpz, np.stack([0.3 * np.cos(2 * np.pi * x1), 0.2 * np.sin(4 * np.pi * x1)])),
        (grid2, phi, 0.5 * np.cos(2 * np.pi * x2) + 0.3 * np.sin(6 * np.pi * y2)),
    ]
    for grid, spec, u0 in cases:
        spec = spec.with_renorm(compute_renorm_constants(spec, grid, dt))
        out = evolve(Field(grid, u0), sample_white_noise(grid, spec.m, 256, dt, seed=4),
                     0.0, 0.5, spec)
        assert out.alive and out.n_stored == 129
        for eta in (-0.25, 0.0, 0.25):
            norms = [holder_proxy_norm(Field(grid, f), eta) for f in out.fields]
            for k in (0, 1, 63, 64, 65, 100, 128):
                assert r_monitor(out, k * dt, eta) == max(norms[:k + 1])

    # u' = u^3 from 3 blows up near t = 1/18, with no noise
    spec = EquationSpec.phi4(quartic=-1.0, allow_unstable=True, renorm=RenormConstants((0.0,)))
    dead = evolve(Field.constant(grid2, 3.0), zero_noise_path(grid2, 1, 256, dt), 0.0, 0.5, spec)
    assert not dead.alive and dead.reason == "monitor_threshold" and dead.n_stored > 1
    for eta in (-0.25, 0.0, 0.25):
        norms = [holder_proxy_norm(Field(grid2, f), eta) for f in dead.fields]
        for k in range(dead.n_stored):
            assert r_monitor(dead, k * dt, eta) == max(norms[:k + 1])
        for time in (dead.blow_up_time, dead.blow_up_time + dt, 0.5):
            assert r_monitor(dead, time, eta) == math.inf


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


@pytest.mark.parametrize("time", [math.inf, -math.inf])
def test_infinite_times_are_off_the_grid(grid, nonlinear, time):
    """An infinite time is bad input everywhere a time is snapped to a slice,
    not an overflow in the rounding."""
    w = sample_white_noise(grid, 1, 256, 2.0**-8, seed=7)
    u0 = Field.zeros(grid)
    out = evolve(u0, w, 0.0, 0.25, nonlinear)
    for call in (lambda: evolve(u0, w, 0.0, time, nonlinear),
                 lambda: evolve(u0, w, time, 0.25, nonlinear),
                 lambda: out.time_index(time),
                 lambda: out.field_at(time),
                 lambda: r_monitor(out, time, 0.25),
                 lambda: w.time_index(time)):
        with pytest.raises(ValueError, match="not on the dt"):
            call()


def test_flow_outcome_time_index_counts_from_its_start(grid, nonlinear):
    w = sample_white_noise(grid, 1, 256, 2.0**-8, seed=7)
    out = evolve(Field.zeros(grid), w, 0.125, 0.25, nonlinear)
    assert out.n_stored == 33
    assert out.time_index(0.125) == 0 and out.time_index(0.25) == 32
    for time in (0.0, 0.25 + 2.0**-8, 0.2):
        with pytest.raises(ValueError, match="not on the dt"):
            out.time_index(time)


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
    from fellerlab.solver import _evolve_batch
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
                              spec, grid, dt)
        for b, w in enumerate(paths):
            want = evolve(u0, w, 0.0, 0.25, spec)
            got = batch.outcome(b, grid, 0.0, 0.25, dt, increments[:, b])
            assert (got.alive, got.reason, got.blow_up_time) == (want.alive, want.reason,
                                                                  want.blow_up_time)
            assert np.array_equal(got.fields, want.fields)
            assert np.array_equal(got.monitor_trace, want.monitor_trace)
            assert np.array_equal(got.noise_terms, want.noise_terms)


def test_final_only_evolve_matches_stored_paths():
    """Keeping only final states, and drawing the increments slice by slice,
    changes no row's final state, monitor trace, reason or death step."""
    from fellerlab.equations import RenormConstants
    from fellerlab.noise import _SliceSource
    from fellerlab.solver import _evolve_batch
    grid2 = Grid(dim=2, n=16, extent=(1.0, 1.0))
    dt, k_t, n = 2.0**-8, 64, 12
    spec = EquationSpec.phi4(quartic=-1.0, eps=0.05, allow_unstable=True, monitor_eta=0.0)
    spec = spec.with_renorm(RenormConstants((0.0,), provenance="user-supplied"))
    u0 = np.broadcast_to(Field.constant(grid2, 1.5).values, (n, 1) + grid2.shape)
    source = _SliceSource(grid2, 1, k_t, dt, 5, range(n))
    increments = np.stack([sample_white_noise(grid2, 1, 256, dt, 5, stream=j).increments[:k_t]
                           for j in range(n)], axis=1)
    stored = _evolve_batch(u0, increments, spec, grid2, dt)
    assert len(set(stored.death_step[~stored.alive])) >= 3 and stored.alive.any()
    for noise in (increments, source):
        final = _evolve_batch(u0, noise, spec, grid2, dt, final_only=True)
        assert final.fields.shape[0] == 1
        assert final.reasons == stored.reasons
        assert np.array_equal(final.death_step, stored.death_step)
        assert np.array_equal(final.n_stored, stored.n_stored)
        for b in range(n):
            assert np.array_equal(final.final(b), stored.final(b))
        assert np.array_equal(final.trace, stored.trace)


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
    from fellerlab.solver import _evolve_batch
    fates = set()
    for grid, spec, dt, u0, increments in _fate_batches():
        oracle = Oracle(grid, dt, spec)
        x0 = np.broadcast_to(np.sin(2 * np.pi * np.arange(grid.total_points) / grid.n)
                             .reshape(grid.shape), u0.shape)
        with np.errstate(over="ignore", invalid="ignore"):  # the non-finite deaths
            plain = _evolve_batch(u0, increments, spec, grid, dt)
            carried = _evolve_batch(u0, increments, spec, grid, dt, x0=x0)
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
    from fellerlab.solver import _evolve_batch
    for grid, spec, dt, u0, increments in _fate_batches():
        with np.errstate(over="ignore", invalid="ignore"):
            paths = _evolve_batch(u0, increments, spec, grid, dt)
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
    moll = _gaussian_multiplier(grid, spec.eps)
    return np.max(sups, axis=0), heat, heat_x, inv(moll * fwd(dw)), inv(moll * fwd(h))


def test_half_spectrum_step_matches_full_spectrum_reference():
    """The half-spectrum transforms of one bound step agree with full
    complex FFTs and full multipliers to 1e-12 relative: heat step, tangent
    heat step, smoothed increment and smoothed inject slice (read from the
    passes' inverse buffers), for she1d with a mollifier, kpz1d (m = 2,
    gradient pass and Nyquist column) and phi4_2d.  The plan is sized for
    more rows than the step uses, and the batched proxy norm that monitors
    every state agrees too."""
    from fellerlab import compute_renorm_constants
    from fellerlab.grids import _ProxyNorms
    from fellerlab.solver import _StepPlan
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
        states = np.empty((2, 5) + u.shape[1:])
        xs = np.empty_like(states)
        states[0, :3], xs[0, :3] = u, x
        plan = _StepPlan(grid, dt, spec, states, xs, dw[None], h[None])
        plan.bind(3, slice(None))(0, 1)
        first, last = plan.passes[0](3)[1], plan.passes[-1](3)[1]
        got = (_ProxyNorms(grid, spec.monitor_eta, u.shape[1:], len(u))(u),
               last[0], last[1], first[2], first[3])
        want = _full_spectrum_step(u, x, dw, h, spec, grid, dt)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))


def _hook_step(spec, grid, dt, u, x, dw, h):
    """One step from the public hooks (drift, drift_jvp, noise_coefficients)
    on fresh arrays, each field through its own transforms with the
    multipliers built as the plan builds them: the next states and tangents
    (None without a tangent)."""
    from fellerlab.grids import _transforms
    forward, inverse = _transforms()
    smooth = lambda a, mult: inverse(forward(a, grid, None) * mult, grid, None)
    half = lambda a: a[..., :grid.n // 2 + 1]
    heat = half(np.exp(-grid.wavenumbers_sq() * dt))
    if spec.eps > 0:
        moll = half(_gaussian_multiplier(grid, spec.eps))
        dw, h = smooth(dw, moll), None if h is None else smooth(h, moll)
    du = dx = None
    if spec.kind == "kpz1d":
        k = half(grid.frequencies()[0])
        grad = ((1j * 2.0 * np.pi / grid.extent[0]) * k) * (np.abs(k) <= grid.n // 3)
        du, dx = smooth(u, grad), None if x is None else smooth(x, grad)
    g, dg = spec.noise_coefficients(u, derivative=x is not None)
    u_next = smooth(u + dt * spec.drift(u, du), heat) + (dw if g is None else g * dw)
    if x is None:
        return u_next, None
    x_next = smooth(x + dt * spec.drift_jvp(u, x, du, dx), heat)
    if dg is not None:
        x_next = x_next + dg * x * dw
    if h is not None:
        x_next += (h if g is None else g * h) * dt
    return u_next, x_next


def _hard_fields(rng, shape, special):
    """Seeded normal fields with +-0 and values near 1e154 (whose cube
    overflows) mixed in, and, with ``special``, one inf or NaN entry."""
    a = rng.standard_normal(shape)
    flat = a.reshape(-1)
    flat[1::7], flat[2::7] = 0.0, -0.0
    flat[3::11] = 1.3e154 * np.sign(flat[4::11][:flat[3::11].size] + 0.5)
    if special is not None:
        flat[5] = special
    return a


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _bound_step_cases():
    grid1, grid2, dt = Grid(1, 16, 1.0), Grid(2, 8, (1.0, 2.0)), 2.0**-6
    kpz2 = np.array([1, 0, 0, 1, 0, 1, 1, 0.0]).reshape(2, 2, 2)
    kpz3 = np.sin(np.arange(27.0)).reshape(3, 3, 3)
    for eps in (0.0, 0.1):
        for drift in DRIFTS:
            for diffusion in DIFFUSIONS:
                yield grid1, dt, EquationSpec.she(drift=drift, diffusion=diffusion, eps=eps)
        for s in (kpz2, kpz3):
            yield grid1, dt, EquationSpec.kpz(s, eps=eps, renorm=RenormConstants((0.3,) * len(s)))
        yield grid2, dt, EquationSpec.phi4(quartic=0.7, mass=0.3, eps=eps,
                                           renorm=RenormConstants((0.2,)))


@pytest.mark.parametrize("special", [None, math.inf, math.nan])
def test_bound_step_matches_public_hooks_bit_for_bit(special):
    """A bound step writes the bits of the public hooks on fresh arrays into
    the next slots, for every drift x diffusion pair of she1d, kpz1d at m = 2
    and 3 and phi4_2d, with and without a mollifier, a tangent and an
    inject, on 1, 2 and 5 of a plan's 5 rows, on inputs with +-0, values near
    1e154 and one inf or NaN entry; and again after a rebind to 2 rows taken
    from the increments as rows that outlived others."""
    from fellerlab.solver import _StepPlan
    rng = np.random.default_rng(21)
    for grid, dt, spec in _bound_step_cases():
        shape = (5, spec.m) + grid.shape
        for tangent, inject in ((False, False), (True, False), (True, True)):
            u, x, dw, h = (_hard_fields(rng, shape, special) for _ in range(4))
            states, xs = np.empty((3,) + shape), np.empty((3,) + shape) if tangent else None
            for n, sel in ((1, slice(None)), (2, slice(None)), (5, slice(None)),
                           (2, np.array([1, 4]))):
                if isinstance(sel, slice):  # the 2-row rebind keeps the 5-row plan
                    plan = _StepPlan(grid, dt, spec, states, xs, dw[None, :n].repeat(2, 0),
                                     h[None, :n].repeat(2, 0) if inject else None)
                rows = np.arange(5)[sel][:n]
                states[0, :n] = u[rows]
                if tangent:
                    xs[0, :n] = x[rows]
                with np.errstate(all="ignore"):
                    plan.bind(n, sel)(1, 1)  # the step from slot 0 along slice 1
                    want = _hook_step(spec, grid, dt, u[rows], x[rows] if tangent else None,
                                      dw[rows], h[rows] if inject else None)
                assert _same_bits(states[1, :n], want[0]), (spec.digest_dict(), n)
                if tangent:
                    assert _same_bits(xs[1, :n], want[1]), (spec.digest_dict(), n)


def test_user_scalar_fns_step_like_the_built_ins():
    """A ScalarFn given as plain functions, with or without fn_and_d, evolves
    with the bits of the built-in kernels it restates, tangent included, and
    a function that returns a shared array gets it back unchanged."""
    from fellerlab.solver import _evolve_batch
    grid, dt = Grid(1, 32, 1.0), 2.0**-8
    cubic = ScalarFn("mine", lambda u: -(u * u * u), lambda u: -3.0 * u * u)
    smooth = DIFFUSIONS["bounded_smooth"]
    plain = ScalarFn("plain", lambda u: smooth.fn(u), lambda u: smooth.d_fn(u))
    both = ScalarFn("both", lambda u: smooth.fn(u), lambda u: smooth.d_fn(u),
                    lambda u: (smooth.fn(u), smooth.d_fn(u)))
    rng = np.random.default_rng(5)
    u0, x0 = 0.5 * rng.standard_normal((2, 3, 1, 32))
    increments = 0.1 * rng.standard_normal((16, 3, 1, 32))
    run = lambda spec: _bits(_evolve_batch(u0, increments, spec, grid, dt, x0=x0))
    built_in = run(EquationSpec.she("cubic_decay", "bounded_smooth", eps=0.05))
    for diffusion in (plain, both):
        assert run(EquationSpec.she(cubic, diffusion, eps=0.05)) == built_in
    shared = np.full((1, 1, 32), 0.25)
    const = ScalarFn("const", lambda u: shared, lambda u: np.zeros_like(u))
    run(EquationSpec.she(const, "one"))
    assert np.all(shared == 0.25)


def test_kpz_sums_run_on_the_checked_c_einsum():
    """On this numpy the self-check passes, so kpz1d's sums run on the C
    einsum behind np.einsum, not on np.einsum itself."""
    from fellerlab.equations import _einsum
    assert _einsum() is not np.einsum


@pytest.mark.parametrize("lookup", ["wrong", "missing"])
def test_failed_einsum_check_falls_back_to_np_einsum(monkeypatch, lookup):
    """When the C einsum that equations looks up gives other bits (here: a few
    ulps off) or is missing, the self-check binds
    np.einsum, and a kpz1d evolve with a tangent gives the bits it gives on
    the C einsum."""
    import numpy._core.multiarray as multiarray
    from fellerlab import equations
    from fellerlab.solver import _evolve_batch
    grid, dt = Grid(1, 32, 1.0), 2.0**-8
    spec = EquationSpec.kpz(np.sin(np.arange(27.0)).reshape(3, 3, 3), eps=0.05,
                            renorm=RenormConstants((0.1, 0.2, 0.3)))
    rng = np.random.default_rng(9)
    u0, x0 = 0.3 * rng.standard_normal((2, 2, 3, 32))
    increments = 0.1 * rng.standard_normal((12, 2, 3, 32))
    run = lambda: _bits(_evolve_batch(u0, increments, spec, grid, dt, x0=x0))
    direct = run()
    if lookup == "missing":
        monkeypatch.delattr(multiarray, "c_einsum")
    else:
        off = lambda sub, *ops, out: np.multiply(np.einsum(sub, *ops), 1 + 2**-50, out=out)
        monkeypatch.setattr(multiarray, "c_einsum", off)
    equations._einsum.cache_clear()
    try:
        assert equations._einsum() is np.einsum
        assert run() == direct
    finally:
        monkeypatch.undo()
        equations._einsum.cache_clear()


@pytest.mark.parametrize("diffusion, g_min, r_blowup, amp, reason", [
    ("one", 1e-8, 5.0, 10.0, "monitor_threshold"),
    ("bounded_smooth", 1.2, 1e6, 0.1, "nondegenerate"),
])
def test_nan_row_does_not_hold_back_other_deaths(diffusion, g_min, r_blowup, amp, reason):
    """A finite row near the largest double has a NaN proxy norm and a NaN G:
    the monitor retires it at u_0, which it keeps with an infinite trace
    value.  Beside it, another row dies at the state it dies at alone, with
    the same kept states, trace and counts."""
    from fellerlab.solver import _evolve_batch
    grid, dt = Grid(1, 32, 1.0), 2.0**-8
    spec = EquationSpec.she(drift="cubic_decay", diffusion=diffusion, g_min=g_min,
                            r_blowup=r_blowup)
    huge = 1.7e308 * (-1.0) ** np.arange(32)
    row = amp * np.cos(2 * np.pi * grid.axes()[0])
    increments = np.zeros((4, 2, 1, 32))
    with np.errstate(over="ignore", invalid="ignore"):
        alone = _evolve_batch(row[None, None], increments[:, 1:], spec, grid, dt)
        both = _evolve_batch(np.stack([huge, row])[:, None], increments, spec, grid, dt)
    assert (alone.reasons[0], alone.death_step[0]) == (reason, 0)
    assert (both.reasons[0], both.death_step[0], both.n_stored[0]) == ("monitor_threshold", 0, 1)
    assert np.array_equal(both.fields[0, 0, 0], huge) and both.trace[0, 0] == math.inf
    got = both.rows(slice(1, 2))
    assert got.reasons == alone.reasons
    for name in ("fields", "trace", "n_stored", "death_step"):
        assert np.array_equal(getattr(got, name), getattr(alone, name))


def _block_batches():
    """Batches (grid, spec, dt, u0, noise source) of she1d rows on ten steps that die
    by one reason each: by the monitor at every step from 0 to the final
    state 10, by G from step 0 to step 9 (u_10 takes no step, so its G is
    not tested), and not finite from step 1 (u_0 is not tested) to 10; in
    blocks of four states, at steps on a block boundary (4, 8) and inside
    one.  Each batch keeps a live row.  A last, noiseless batch has a row
    whose G first drops below ``g_min`` at u_10 (so it lives) and one
    whose u_0 is NaN (it dies not finite at step 1, keeping u_0)."""
    from fellerlab.noise import _SliceSource
    grid, dt = Grid(1, 32, 1.0), 2.0**-8
    affine = ScalarFn("affine", lambda u: 1.0 + u, lambda u: np.ones_like(u))
    cases = [
        (EquationSpec.she(drift="cubic_growth", diffusion="one", eps=0.05, r_blowup=10.0),
         np.linspace(3.0, 10.5, 16)),
        (EquationSpec.she(drift="cubic_growth", diffusion=affine, g_min=0.5, eps=0.05),
         np.r_[-np.linspace(0.14, 0.36, 23), -0.55]),
        (EquationSpec.she(drift="cubic_growth", diffusion="one", eps=0.05, r_blowup=math.inf),
         np.array([1e120, 1e60, 1e5, 30, 10, 9.5, 9, 8.5, 8, 7.5, 7, 6.5])),
    ]
    for spec, amps in cases:
        source = _SliceSource(grid, spec.m, 10, dt, 21, range(len(amps)))
        yield grid, spec, dt, amps[:, None, None] * np.ones((1,) + grid.shape), source
    amps = np.array([-0.49555, np.nan, -0.4, -0.4965])
    yield (grid, EquationSpec.she(drift="cubic_growth", diffusion=affine, g_min=0.5), dt,
           amps[:, None, None] * np.ones((1,) + grid.shape), np.zeros((10, 4, 1) + grid.shape))


def _variants(u0, shape):
    """Keyword sets for ``_evolve_batch`` on increments of ``shape``: plain,
    final-state-only, with a tangent, and with a tangent and an inject."""
    wave = np.sin(2 * np.pi * np.arange(u0[0].size) / u0.shape[-1]).reshape(u0.shape[1:])
    x0 = np.broadcast_to(wave, u0.shape)
    inject = np.broadcast_to(0.5 * np.roll(wave, 3), shape)
    return {"plain": {}, "final_only": {"final_only": True}, "tangent": {"x0": x0},
            "inject": {"x0": x0, "inject": inject}}


def _bits(paths):
    """Every ``_Paths`` field, as bytes."""
    return (paths.fields.tobytes(), paths.trace.tobytes(), paths.n_stored.astype(np.int64).tobytes(),
            paths.death_step.astype(np.int64).tobytes(), repr(paths.reasons),
            None if paths.tangent is None else paths.tangent.tobytes())


def test_block_size_changes_no_bit(monkeypatch):
    """Checking the states one at a time, four at a time or the whole path at
    once gives the same bits in every ``_Paths`` field, for rows that die by
    each reason at step 0, on a block boundary, inside a block and at the
    final state, kept whole or final-only, with a tangent and an inject,
    with increments as an array or drawn slice by slice."""
    from fellerlab import solver
    from fellerlab.grids import _dyadic_masks
    cases = [(g, s, d, u, (src,) if isinstance(src, np.ndarray) else (src, src.drawn()))
             for g, s, d, u, src in _block_batches()]
    cases += [(g, s, d, u, (inc,)) for g, s, d, u, inc in _fate_batches()]
    deaths = set()
    for grid, spec, dt, u0, sources in cases:
        one_state = 8 * _dyadic_masks(grid.dim, grid.n).shape[0] * u0.size
        for name, kw in _variants(u0, sources[-1].shape).items():
            runs = []
            for budget in (1, 4 * one_state, 1 << 62):
                monkeypatch.setattr(solver, "_CHECK_BYTES", budget)
                with np.errstate(over="ignore", invalid="ignore"):
                    runs += [solver._evolve_batch(u0, src, spec, grid, dt, **kw) for src in sources]
            assert all(_bits(run) == _bits(runs[0]) for run in runs), name
        if sources[0].shape[0] == 10:
            deaths |= {(r, int(j)) for r, j in zip(runs[0].reasons, runs[0].death_step)}
    for reason, steps in (("monitor_threshold", (0, 4, 8, 5, 10)), ("nondegenerate", (0, 8, 5, 9)),
                          ("non_finite", (1, 4, 7, 10))):
        assert {(reason, j) for j in steps} <= deaths, reason
    grid, spec, dt, u0, zeros = list(_block_batches())[-1]
    edge = solver._evolve_batch(u0, zeros, spec, grid, dt)
    assert edge.reasons[:2] == [None, "non_finite"] and list(edge.n_stored[:2]) == [11, 1]
    assert (1.0 + edge.fields[10, 0]).min() < 0.5


def _split_evolve(u0, increments, spec, grid, dt, j, x0):
    """The evolve of ``increments`` split at slice j: a final-state first part,
    then the rows alive at j continued from their state,
    tangent and running monitor.  Per row: (reason, n_stored, death_step,
    trace, final state, final tangent), as the whole evolve would keep them."""
    from fellerlab.solver import _evolve_batch
    first = _evolve_batch(u0, increments[:j], spec, grid, dt, final_only=True, x0=x0)
    on = first.alive
    second = _evolve_batch(first.fields[0, on], increments[j:, on], spec, grid, dt,
                           x0=first.tangent[0, on], r0=first.trace[j, on])
    rows, i = [], 0
    for b in range(u0.shape[0]):
        if not on[b]:
            n = first.n_stored[b]
            rows.append((first.reasons[b], n, first.death_step[b], first.trace[:n, b],
                         first.final(b), first.tangent[0, b]))
            continue
        n = second.n_stored[i]
        dead = second.reasons[i] is not None
        rows.append((second.reasons[i], j + n, j + second.death_step[i] if dead else 0,
                     np.concatenate([first.trace[:j, b], second.trace[:n, i]]),
                     second.final(i), second.tangent[n - 1, i]))
        i += 1
    return rows


def test_split_evolve_matches_whole_evolve():
    """An evolve split at slice j (as the gamma loop splits each step at the
    start of the shift's support) gives the whole evolve's reason, n_stored,
    death step, trace, final state and final tangent bit for bit: for rows
    that die before j (not finite, monitor, G), by G exactly at j (the state
    the first part does not G-test), or after j, and for survivors."""
    from fellerlab.solver import _evolve_batch
    cases = [(g, s, d, u, src.drawn()) for g, s, d, u, src in list(_block_batches())[:-1]]
    cases += [(g, s, d, u, inc) for g, s, d, u, inc in _fate_batches()]
    seen = set()
    for grid, spec, dt, u0, increments in cases:
        x0 = _variants(u0, increments.shape)["tangent"]["x0"]
        n_steps = increments.shape[0]
        with np.errstate(over="ignore", invalid="ignore"):
            whole = _evolve_batch(u0, increments, spec, grid, dt, x0=x0)
            for j in sorted({1, 5, n_steps // 2, n_steps - 1}):
                split = _split_evolve(u0, increments, spec, grid, dt, j, x0)
                for b, (reason, n, death, trace, final, tangent) in enumerate(split):
                    assert (reason, n, death) == (whole.reasons[b], whole.n_stored[b],
                                                  whole.death_step[b])
                    assert np.array_equal(trace, whole.trace[:n, b])
                    assert np.array_equal(final, whole.final(b), equal_nan=True)
                    assert np.array_equal(tangent, whole.tangent[n - 1, b], equal_nan=True)
                    if j == 5:
                        seen.add((reason, "alive" if reason is None else
                                  "before" if death < j else "at" if death == j else "after"))
    for reason in ("monitor_threshold", "nondegenerate", "non_finite"):
        assert {(reason, "before"), (reason, "after")} <= seen, reason
    assert {("nondegenerate", "at"), (None, "alive")} <= seen


def _pinned_digests():
    """sha256 (first 24 hex digits) over ``_bits`` of every variant of each
    batch of ``_fate_batches`` and ``_block_batches``, in order."""
    import hashlib
    from fellerlab.solver import _evolve_batch
    digests = []
    for grid, spec, dt, u0, noise in list(_fate_batches()) + list(_block_batches()):
        sha = hashlib.sha256()
        for kw in _variants(u0, noise.shape).values():
            with np.errstate(over="ignore", invalid="ignore"):
                paths = _evolve_batch(u0, noise, spec, grid, dt, **kw)
            for part in _bits(paths):
                sha.update(b"-" if part is None else part.encode() if isinstance(part, str) else part)
        digests.append(sha.hexdigest()[:24])
    return digests


def test_evolve_bits_pinned():
    """The evolves of ``_pinned_digests`` (every death reason, 1D and 2D, m = 2,
    kept whole and final-only, with a tangent and an inject, increments as an
    array and drawn slice by slice) give the bits they gave when each state
    was checked inside its step; a final-only batch keeps the whole trace,
    the plain batch's bits."""
    assert _pinned_digests() == _PINNED


_PINNED = ['c992de7075b87ebd00ddf4ad', '389879d63090c7aa4b0d3a95', 'd6b1bfa123a727a3023da304',
           '7f52a1de736757edad32c9a5', '04e27cf1872ff499b0150938', 'a674dc04732dca9b6209fa45',
           'b9e6a1815f2291945f3d6cb2', '544a983e5f8566d7162e1e40']
