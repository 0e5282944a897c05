import numpy as np
import pytest

from fellerlab import (EquationSpec, Field, Grid, RenormConstants,
                       compute_renorm_constants, evolve, zero_noise_path)
from fellerlab.equations import ScalarFn


def test_phi4_sign_guard():
    with pytest.raises(ValueError):
        EquationSpec.phi4(quartic=-1.0)
    spec = EquationSpec.phi4(quartic=-1.0, allow_unstable=True)
    assert spec.quartic == -1.0


def test_kpz_symmetry_validation():
    s = np.zeros((2, 2, 2))
    s[0, 0, 1] = 1.0  # breaks S[i,j,k] == S[i,k,j]
    with pytest.raises(ValueError):
        EquationSpec.kpz(s, eps=0.1, symmetric=True)
    EquationSpec.kpz(s, eps=0.1, symmetric=False)  # fine unflagged

    sym = np.zeros((2, 2, 2))
    sym[0, 0, 0] = sym[1, 1, 1] = 1.0
    EquationSpec.kpz(sym, eps=0.1, symmetric=True)


def test_she_g_min_guard():
    with pytest.raises(ValueError):
        EquationSpec.she(g_min=0.0)


def test_renorm_requires_eps():
    spec = EquationSpec.phi4(quartic=1.0, eps=0.0)
    grid = Grid(dim=2, n=16, extent=(1.0, 1.0))
    with pytest.raises(ValueError):
        compute_renorm_constants(spec, grid, 2.0**-8)


def test_renorm_constants_trace_free_exact_zero():
    s = np.zeros((2, 2, 2))
    s[0, 0, 1] = s[0, 1, 0] = 1.0  # zero trace
    spec = EquationSpec.kpz(s, eps=1 / 16.0)
    grid = Grid(dim=1, n=256, extent=(1.0,))
    rc = compute_renorm_constants(spec, grid, 2.0**-12)
    assert rc.values == (0.0, 0.0)
    assert rc.provenance == "computed"


def test_renorm_constants_eps_below_grid_flag():
    spec = EquationSpec.kpz(np.ones((1, 1, 1)), eps=1e-4)
    grid = Grid(dim=1, n=64, extent=(1.0,))
    rc = compute_renorm_constants(spec, grid, 2.0**-12)
    assert rc.eps_below_grid


def test_kpz_constant_eps_scaling():
    grid = Grid(dim=1, n=2048, extent=(1.0,))
    dt = 2.0**-22
    eps = 1 / 64.0
    c = compute_renorm_constants(
        EquationSpec.kpz(np.ones((1, 1, 1)), eps=eps), grid, dt).values[0]
    c_half = compute_renorm_constants(
        EquationSpec.kpz(np.ones((1, 1, 1)), eps=eps / 2), grid, dt).values[0]
    assert 1.8 <= c_half / c <= 2.2


def test_phi4_constant_matches_simulated_stationary_variance():
    """The quadrature constant equals the stationary spatial variance of the
    mollified linear dynamics, estimated by Monte Carlo."""
    grid = Grid(dim=2, n=8, extent=(1.0, 1.0))
    dt = 2.0**-6
    spec = EquationSpec.phi4(quartic=0.0, mass=0.0, eps=0.15,
                             allow_unstable=True).with_renorm(RenormConstants((0.0,)))
    c = compute_renorm_constants(spec, grid, dt).values[0]

    from fellerlab import sample_white_noise
    samples = []
    for j in range(400):
        w = sample_white_noise(grid, 1, 64, dt, seed=900, stream=j)
        out = evolve(Field.zeros(grid), w, 0.0, 1.0, spec)
        u = out.final.values[0]
        samples.append(float(np.mean((u - np.mean(u)) ** 2)))
    est = np.mean(samples)
    se = np.std(samples, ddof=1) / np.sqrt(len(samples))
    assert abs(est - c) <= 3.0 * se


def test_renorm_values_shape_checks():
    spec = EquationSpec.phi4(quartic=1.0, eps=0.1)
    with pytest.raises(ValueError):
        spec.renorm_values()  # constants not attached
    bad = spec.with_renorm(RenormConstants((1.0, 2.0)))
    with pytest.raises(ValueError):
        bad.renorm_values()


def test_custom_scalar_fn_drift():
    grid = Grid(dim=1, n=16, extent=(1.0,))
    drift = ScalarFn("shifted_decay", lambda u: 1.0 - u, lambda u: -np.ones_like(u))
    spec = EquationSpec.she(drift=drift, diffusion="one")
    dt, n_steps = 2.0**-6, 64
    w = zero_noise_path(grid, 1, n_steps, dt)
    out = evolve(Field.zeros(grid), w, 0.0, 1.0, spec)
    # spatially constant relaxation: u_K = 1 - (1 - dt)^K exactly
    expected = 1.0 - (1.0 - dt) ** n_steps
    assert np.max(np.abs(out.final.values - expected)) < 1e-12


def test_digest_dict_stable():
    spec = EquationSpec.she(drift="cubic_decay", diffusion="bounded_smooth")
    d1, d2 = spec.digest_dict(), spec.digest_dict()
    assert d1 == d2 and d1["drift"] == "cubic_decay"


def test_cubic_drifts_are_ieee_products():
    """The cubic drifts are products of doubles, bit for bit, on mixed-sign
    input: their bits do not depend on which loop numpy's power dispatches to."""
    from fellerlab.equations import DRIFTS
    u = 3.0 * np.random.default_rng(0).standard_normal((7, 1, 512))
    assert (u < 0).any() and (u > 0).any()
    assert np.array_equal(DRIFTS["cubic_decay"](u), -(u * u * u))
    assert np.array_equal(DRIFTS["cubic_growth"](u), u * u * u)
    spec = EquationSpec.phi4(quartic=0.7, mass=0.3, eps=0.1, renorm=RenormConstants((0.2,)))
    assert np.array_equal(spec.drift(u), -0.7 * (u * u * u) - 0.3 * u + 3.0 * 0.7 * 0.2 * u)


@pytest.mark.parametrize("build", [
    lambda: EquationSpec.she(eps=-0.1),
    lambda: EquationSpec.kpz(np.ones((1, 1, 1)), eps=-0.1),
    lambda: EquationSpec.phi4(quartic=1.0, eps=-0.1)])
def test_negative_eps_rejected(build):
    """A negative eps is rejected: the mollifier would smooth at |eps| while
    the counterterms took it as zero."""
    with pytest.raises(ValueError, match="eps"):
        build()


def test_bounded_smooth_pair_matches_separate_functions():
    """G and G' of the bounded-smooth diffusion from one pass equal the two
    separate functions bit for bit, also at large, tiny and signed-zero u."""
    rng = np.random.default_rng(3)
    u = np.concatenate([rng.standard_normal(500), 1e3 * rng.standard_normal(50),
                        1e-200 * rng.standard_normal(50), [0.0, -0.0, 1e150, -1e100]])
    spec = EquationSpec.she(diffusion="bounded_smooth")
    with np.errstate(over="ignore"):  # (1 + u^2)^2 overflows to inf at 1e150
        g, dg = spec.noise_coefficients(u, derivative=True)
        assert np.array_equal(g, spec.g_values(u)) and np.array_equal(dg, spec.dg_values(u))
        assert np.array_equal(np.signbit(dg), np.signbit(spec.dg_values(u)))
    assert spec.noise_coefficients(u, derivative=False)[1] is None
    assert EquationSpec.she(diffusion="one").noise_coefficients(u, derivative=True) == (None, None)
