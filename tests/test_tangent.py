import numpy as np
import pytest
from linear_oracles import Oracle

from fellerlab import (EquationSpec, Field, Grid, ShiftPath, apply_shift,
                       compensating_direction, compute_renorm_constants,
                       evolve, jacobian_apply, l2_norm, malliavin_derivative,
                       sample_white_noise, tangent_sweep, zero_noise_path)


@pytest.fixture
def grid():
    return Grid(dim=1, n=64, extent=(1.0,))


@pytest.fixture
def nonlinear():
    return EquationSpec.she(drift="cubic_decay", diffusion="bounded_smooth", g_min=1.0)


def _setup(grid, spec, seed=13, dt=2.0**-10, t=0.25):
    x = grid.axes()[0]
    u0 = Field(grid, 0.4 * np.cos(2 * np.pi * x) + 0.2 * np.sin(4 * np.pi * x))
    w = sample_white_noise(grid, 1, round(1.0 / dt), dt, seed=seed)
    return u0, w, evolve(u0, w, 0.0, t, spec)


def test_jacobian_identity_at_equal_times(grid, nonlinear):
    _, _, out = _setup(grid, nonlinear)
    v = Field(grid, np.sin(2 * np.pi * grid.axes()[0]))
    jv = jacobian_apply(out, v, 0.125, 0.125, nonlinear)
    assert np.array_equal(jv.values, v.values)


def test_jacobian_heat_closed_form(grid):
    spec = EquationSpec.she(drift="zero", diffusion="one")
    dt, t = 2.0**-10, 0.25
    u0 = Field.zeros(grid)
    w = sample_white_noise(grid, 1, 1024, dt, seed=14)
    out = evolve(u0, w, 0.0, t, spec)
    x = grid.axes()[0]
    v = Field(grid, np.cos(2 * np.pi * 3 * x))
    jv = jacobian_apply(out, v, 0.0, t, spec)
    lam = (2 * np.pi * 3) ** 2
    exact = np.exp(-lam * t) * np.cos(2 * np.pi * 3 * x)
    assert np.max(np.abs(jv.values[0] - exact)) < 1e-10


def test_jacobian_forward_difference_order(grid, nonlinear):
    u0, w, out = _setup(grid, nonlinear)
    v = Field(grid, np.sin(2 * np.pi * grid.axes()[0]))
    jv = jacobian_apply(out, v, 0.0, 0.25, nonlinear)
    errs = []
    for delta in (1e-3, 5e-4):
        moved = evolve(u0 + v * delta, w, 0.0, 0.25, nonlinear)
        errs.append(l2_norm(Field(grid, (moved.final.values - out.final.values) / delta
                                  - jv.values)))
    assert 1.7 <= errs[0] / errs[1] <= 2.3


def test_jacobian_cocycle_bit_exact(grid, nonlinear):
    _, _, out = _setup(grid, nonlinear)
    v = Field(grid, np.cos(2 * np.pi * grid.axes()[0]))
    whole = jacobian_apply(out, v, 0.0, 0.25, nonlinear)
    half = jacobian_apply(out, v, 0.0, 0.125, nonlinear)
    composed = jacobian_apply(out, half, 0.125, 0.25, nonlinear)
    assert np.array_equal(whole.values, composed.values)


def test_jacobian_linearity(grid, nonlinear):
    _, _, out = _setup(grid, nonlinear)
    x = grid.axes()[0]
    v1 = Field(grid, np.cos(2 * np.pi * x))
    v2 = Field(grid, np.sin(4 * np.pi * x))
    a = jacobian_apply(out, v1 * 2.0 + v2 * (-3.0), 0.0, 0.25, nonlinear)
    b = jacobian_apply(out, v1, 0.0, 0.25, nonlinear) * 2.0 \
        + jacobian_apply(out, v2, 0.0, 0.25, nonlinear) * (-3.0)
    assert l2_norm(a - b) <= 1e-12 * max(1.0, l2_norm(a))


def test_jacobian_requires_live_trajectory(grid):
    spec = EquationSpec.she(drift="cubic_growth", diffusion="one")
    w = zero_noise_path(grid, 1, 1024, 2.0**-10)
    out = evolve(Field.constant(grid, 10.0), w, 0.0, 0.25, spec)
    with pytest.raises(ValueError):
        jacobian_apply(out, Field.zeros(grid), 0.0, 0.25, spec)


def test_tangent_sweep_matches_jacobian(grid, nonlinear):
    _, _, out = _setup(grid, nonlinear)
    v = Field(grid, np.cos(2 * np.pi * grid.axes()[0]))
    sweep = tangent_sweep(out, v, 0.0, 0.25, nonlinear)
    at_half = jacobian_apply(out, v, 0.0, 0.125, nonlinear)
    k = out.time_index(0.125)
    assert np.array_equal(sweep[k], at_half.values)


def test_malliavin_zero_shift(grid, nonlinear):
    _, w, out = _setup(grid, nonlinear)
    h = ShiftPath.zeros(grid, 1, w.n_steps, w.dt)
    md = malliavin_derivative(out, h, 0.25, nonlinear)
    assert np.all(md.values == 0.0)


def test_malliavin_heat_constant_shift_closed_form(grid):
    """Additive heat with a time-constant shift: per mode the response is the
    geometric sum dt * (1 - E^K) / (1 - E) with E the step decay factor."""
    spec = EquationSpec.she(drift="zero", diffusion="one")
    dt, t = 2.0**-10, 0.25
    k_t = round(t / dt)
    u0 = Field.zeros(grid)
    w = sample_white_noise(grid, 1, 1024, dt, seed=15)
    out = evolve(u0, w, 0.0, t, spec)
    x = grid.axes()[0]
    g_field = np.cos(2 * np.pi * 2 * x)
    h_vals = np.broadcast_to(g_field, (1024, 1, 64)).copy()
    h_vals[k_t:] = 0.0
    md = malliavin_derivative(out, ShiftPath(grid, dt, h_vals), t, spec)
    lam = (2 * np.pi * 2) ** 2
    e_step = np.exp(-lam * dt)
    discrete = dt * (1.0 - e_step**k_t) / (1.0 - e_step) * g_field
    assert np.max(np.abs(md.values[0] - discrete)) < 1e-12
    # dt-consistency with the continuum kernel (1 - exp(-lam t)) / lam
    continuum = (1.0 - np.exp(-lam * t)) / lam
    assert abs(discrete[0] / g_field[0] - continuum) <= continuum * lam * dt


def test_malliavin_linearity(grid, nonlinear):
    _, w, out = _setup(grid, nonlinear)
    rng = np.random.default_rng(16)
    h1 = ShiftPath(grid, w.dt, rng.normal(size=(1024, 1, 64)))
    h2 = ShiftPath(grid, w.dt, rng.normal(size=(1024, 1, 64)))
    both = ShiftPath(grid, w.dt, 2.0 * h1.values - h2.values)
    a = malliavin_derivative(out, both, 0.25, nonlinear)
    b = Field(grid, 2.0 * malliavin_derivative(out, h1, 0.25, nonlinear).values
              - malliavin_derivative(out, h2, 0.25, nonlinear).values)
    assert l2_norm(a - b) <= 1e-12 * max(1.0, l2_norm(a))


def test_malliavin_noise_fd(grid, nonlinear):
    u0, w, out = _setup(grid, nonlinear)
    x = grid.axes()[0]
    h_vals = np.zeros((1024, 1, 64))
    h_vals[:256] = 2.0 * np.cos(2 * np.pi * x)
    h = ShiftPath(grid, w.dt, h_vals)
    md = malliavin_derivative(out, h, 0.25, nonlinear)
    errs = []
    for delta in (1e-3, 5e-4):
        moved = evolve(u0, apply_shift(w, ShiftPath(grid, w.dt, delta * h_vals)),
                       0.0, 0.25, nonlinear)
        errs.append(l2_norm(Field(grid, (moved.final.values - out.final.values) / delta
                                  - md.values)))
    assert 1.7 <= errs[0] / errs[1] <= 2.3


def _live_path(kind, seed=41):
    """(grid, spec, noise, outcome): a live 64-step path of she1d with
    multiplicative noise at eps 0.05, she1d with additive noise at eps 0.05
    ('she1d_one'), kpz1d with m = 2, or phi4_2d."""
    dt = 2.0**-8
    grid = Grid(dim=2, n=16, extent=(1.0, 1.0)) if kind == "phi4_2d" else Grid(dim=1, n=32, extent=(1.0,))
    spec = {"she1d": EquationSpec.she(drift="cubic_decay", diffusion="bounded_smooth",
                                      g_min=1.0, eps=0.05),
            "kpz1d": EquationSpec.kpz(np.array([1, 0, 0, 1, 0, 1, 1, 0.0]).reshape(2, 2, 2),
                                      eps=0.05),
            "she1d_one": EquationSpec.she(drift="cubic_decay", diffusion="one", eps=0.05),
            "phi4_2d": EquationSpec.phi4(quartic=1.0, eps=0.05)}[kind]
    if spec.kind != "she1d":
        spec = spec.with_renorm(compute_renorm_constants(spec, grid, dt))
    x = np.meshgrid(*grid.axes(), indexing="ij")[0]
    u0 = Field(grid, np.broadcast_to(0.3 * np.cos(2 * np.pi * x), (spec.m,) + grid.shape))
    w = sample_white_noise(grid, spec.m, 256, dt, seed=seed)
    out = evolve(u0, w, 0.0, 0.25, spec)
    assert out.alive
    return grid, spec, w, out


@pytest.mark.parametrize("kind", ["she1d", "she1d_one", "kpz1d", "phi4_2d"])
def test_linearizations_match_reference_loops(kind):
    """The replays behind tangent_sweep, jacobian_apply, malliavin_derivative
    and compensating_direction equal the step-by-step reference loops bit for
    bit, on the windows [0, 64], [16, 64] and [16, 40] and at t and t/2.
    Under additive noise (she1d_one, kpz1d, phi4_2d) the carried tangent is
    the heat step's output itself, which the next step's transforms must not
    overwrite."""
    grid, spec, w, out = _live_path(kind)
    dt = w.dt
    oracle = Oracle(grid, dt, spec)
    rng = np.random.default_rng(42)
    v = Field(grid, rng.normal(size=(spec.m,) + grid.shape))
    for a, b in ((0, 64), (16, 64), (16, 40)):
        want = oracle.sweep(out.fields[a:b + 1], w.increments[a:b], v.values[None])
        assert np.array_equal(tangent_sweep(out, v, a * dt, b * dt, spec), want)
        assert np.array_equal(jacobian_apply(out, v, a * dt, b * dt, spec).values, want[-1])
    h = ShiftPath(grid, dt, rng.normal(size=(256, spec.m) + grid.shape))
    for j_t in (64, 32):
        assert np.array_equal(malliavin_derivative(out, h, j_t * dt, spec).values,
                              oracle.malliavin(out.fields, w.increments, h.values, j_t))
    sweep = oracle.sweep(out.fields, w.increments[:64], v.values[None])
    assert np.array_equal(compensating_direction(out, v, 0.25, spec).values,
                          oracle.transfer(out.fields, sweep, 0.25))


@pytest.mark.parametrize("call, match", [
    ("tangent_sweep", "tangent vector"), ("jacobian_apply", "tangent vector"),
    ("compensating_direction", "tangent vector"), ("malliavin_derivative", "shift incompatible"),
    ("malliavin_derivative_short", "slices"), ("tangent_sweep_reversed", "s <= t")])
def test_linearization_inputs_checked(call, match):
    """A direction or shift that does not fit the m = 2 path, a shift that
    ends before t, or a window with s > t is rejected rather than broadcast."""
    grid, spec, w, out = _live_path("kpz1d")
    v = Field.zeros(grid)  # one component
    calls = {
        "tangent_sweep": lambda: tangent_sweep(out, v, 0.0, 0.25, spec),
        "jacobian_apply": lambda: jacobian_apply(out, v, 0.0, 0.25, spec),
        "compensating_direction": lambda: compensating_direction(out, v, 0.25, spec),
        "malliavin_derivative": lambda: malliavin_derivative(
            out, ShiftPath.zeros(grid, 1, w.n_steps, w.dt), 0.25, spec),
        "malliavin_derivative_short": lambda: malliavin_derivative(
            out, ShiftPath.zeros(grid, 2, 32, w.dt), 0.25, spec),
        "tangent_sweep_reversed": lambda: tangent_sweep(out, Field.zeros(grid, 2), 0.25, 0.125,
                                                        spec),
    }
    with pytest.raises(ValueError, match=match):
        calls[call]()


def test_malliavin_derivative_memory_bounded_by_one_slice():
    """malliavin_derivative smooths the shift one slice per step inside its
    replay, so its traced peak stays within a small multiple of
    jacobian_apply's along the same path instead of growing with the number
    of slices (phi4_2d, 256 steps)."""
    import tracemalloc
    dt = 2.0**-8
    grid = Grid(dim=2, n=32, extent=(1.0, 1.0))
    spec = EquationSpec.phi4(quartic=1.0, eps=0.05)
    spec = spec.with_renorm(compute_renorm_constants(spec, grid, dt))
    w = sample_white_noise(grid, 1, 256, dt, seed=4)
    out = evolve(Field.zeros(grid), w, 0.0, 1.0, spec)
    v = Field(grid, np.ones(grid.shape))
    h = ShiftPath(grid, dt, np.ones((256, 1) + grid.shape))
    peaks = []
    for apply in (lambda: jacobian_apply(out, v, 0.0, 1.0, spec),
                  lambda: malliavin_derivative(out, h, 1.0, spec)):
        tracemalloc.start()
        apply()
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= 3 * peaks[0]
