from types import SimpleNamespace

import numpy as np
import pytest

from fellerlab import (CouplingParams, EquationSpec, Field, Grid, build_shift,
                       compute_renorm_constants, evolve, holder_proxy_norm, l2_norm,
                       mollify, sample_white_noise, spectral_inverse, spectral_transform)
from fellerlab import grids


@pytest.fixture
def grid():
    return Grid(dim=1, n=64, extent=(1.0,))


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(dim=1, n=48, extent=(1.0,))  # not a power of two
    with pytest.raises(ValueError):
        Grid(dim=1, n=4, extent=(1.0,))
    with pytest.raises(ValueError):
        Grid(dim=3, n=16, extent=(1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        Grid(dim=2, n=16, extent=(1.0, -1.0))
    g = Grid(dim=2, n=16, extent=(2.0, 0.5))
    assert g.cell_volume == pytest.approx((2.0 / 16) * (0.5 / 16))
    # FFT order in (-n/2, n/2]: the Nyquist mode keeps its + sign
    assert Grid(dim=1, n=8, extent=(1.0,)).frequencies()[0].tolist() == [0, 1, 2, 3, 4, -3, -2, -1]


@pytest.mark.parametrize("extent", [np.inf, np.nan])
def test_grid_rejects_non_finite_extent(extent):
    with pytest.raises(ValueError, match="finite lengths > 0"):
        Grid(1, 8, (extent,))


@pytest.mark.parametrize("dim, extent", [(1, 5e-324), (2, 1e-300), (2, 1e300)])
def test_grid_rejects_cell_volume_off_the_floats(dim, extent):
    """Finite lengths whose cell volume underflows to 0 or overflows to inf
    would give the noise a zero or infinite variance."""
    with pytest.raises(ValueError, match="finite cell volume > 0"):
        Grid(dim, 8, (extent,) * dim)


def test_field_rejects_non_finite(grid):
    vals = np.zeros((1, 64))
    vals[0, 3] = np.inf
    with pytest.raises(ValueError):
        Field(grid, vals)


def test_field_values_immutable(grid):
    f = Field.constant(grid, 1.0)
    with pytest.raises(ValueError):
        f.values[0, 0] = 2.0


def test_transform_constant_field(grid):
    f = Field.constant(grid, 3.0)
    modes = spectral_transform(f)
    assert modes[0, 0] == pytest.approx(3.0 * grid.n)
    assert np.max(np.abs(modes[0, 1:])) < 1e-12


def test_transform_single_harmonic(grid):
    x = grid.axes()[0]
    f = Field(grid, np.cos(2 * np.pi * x))
    modes = spectral_transform(f)[0]
    nonzero = np.flatnonzero(np.abs(modes) > 1e-9)
    assert set(nonzero) == {1, grid.n - 1}
    assert modes[1] == pytest.approx(np.conj(modes[-1]))


def test_transform_round_trip_and_parseval(grid):
    rng = np.random.default_rng(0)
    f = Field(grid, rng.normal(size=(2, 64)))
    modes = spectral_transform(f)
    back = spectral_inverse(modes, grid)
    assert np.max(np.abs(back.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))
    # Parseval with unscaled forward: sum |f|^2 = (1/N) sum |f_hat|^2
    assert np.sum(f.values**2) == pytest.approx(np.sum(np.abs(modes) ** 2) / grid.n,
                                                rel=1e-12)


def test_round_trip_2d():
    grid = Grid(dim=2, n=16, extent=(1.0, 2.0))
    rng = np.random.default_rng(1)
    f = Field(grid, rng.normal(size=(1, 16, 16)))
    back = spectral_inverse(spectral_transform(f), grid)
    assert np.max(np.abs(back.values - f.values)) < 1e-13


def test_holder_proxy_zero(grid):
    assert holder_proxy_norm(Field.zeros(grid), 0.5) == 0.0


@pytest.mark.parametrize("k", [1, 2, 3, 7, 16, 31])
def test_holder_proxy_single_harmonic(grid, k):
    x = grid.axes()[0]
    f = Field(grid, np.cos(2 * np.pi * k * x))
    val = holder_proxy_norm(f, 0.0)
    assert 0.5 <= val <= 2.0


def test_holder_proxy_exact_homogeneity(grid):
    rng = np.random.default_rng(2)
    f = Field(grid, rng.normal(size=(1, 64)))
    assert holder_proxy_norm(Field(grid, 2.0 * f.values), 0.75) \
        == 2.0 * holder_proxy_norm(f, 0.75)


def test_holder_proxy_triangle_sampled(grid):
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = Field(grid, rng.normal(size=(1, 64)))
        b = Field(grid, rng.normal(size=(1, 64)))
        alpha = rng.uniform(-1.5, 1.5)
        lhs = holder_proxy_norm(a + b, alpha)
        rhs = holder_proxy_norm(a, alpha) + holder_proxy_norm(b, alpha)
        assert lhs <= rhs * (1 + 1e-12)


def test_weighted_block_sup_matches_per_shell_sup():
    """Weighting every entry before one max per row gives the weighted
    per-shell sup-norms bit for bit, zeros, ties and infinities included."""
    from fellerlab.grids import _shell_weights, _weighted_block_sup
    rng = np.random.default_rng(4)
    blocks = rng.standard_normal((6, 5, 2, 16)) * 10.0 ** rng.integers(-300, 300, (6, 5, 1, 1))
    blocks[0] = 0.0
    blocks[1, :, 0, 0] = 7.0
    blocks[2, 3, 1, 5] = -np.inf
    for alpha in (-1.5, -0.25, 0.0, 0.25, 1.9):
        weights = _shell_weights(alpha, 5)
        per_shell = np.abs(blocks).reshape(6, 5, -1).max(axis=2)
        assert np.array_equal(_weighted_block_sup(blocks.copy(), weights),
                              (weights * per_shell).max(axis=1))


def test_holder_proxy_rejects_large_alpha(grid):
    with pytest.raises(ValueError):
        holder_proxy_norm(Field.zeros(grid), 2.0)


def test_mollify_constant_unchanged(grid):
    f = Field.constant(grid, 2.5)
    out = mollify(f, 0.1)
    assert np.max(np.abs(out.values - 2.5)) < 1e-13


def test_mollify_eps_zero_identity(grid):
    rng = np.random.default_rng(4)
    f = Field(grid, rng.normal(size=(1, 64)))
    assert mollify(f, 0.0) is f


def test_mollify_gaussian_harmonic(grid):
    k, eps = 3, 0.05
    x = grid.axes()[0]
    f = Field(grid, np.cos(2 * np.pi * k * x))
    out = mollify(f, eps)
    expected = np.exp(-0.5 * (2 * np.pi * k * eps) ** 2) * np.cos(2 * np.pi * k * x)
    assert np.max(np.abs(out.values[0] - expected)) < 1e-14


def test_mollifier_at_huge_eps_damps_every_mode_without_warning(grid):
    """At eps = 1e300 every nonzero mode's square overflows; its factor is the
    limit exp(-inf) = 0, with no overflow warning, and the mean mode keeps 1."""
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mult = grids._gaussian_multiplier(grid, 1e300)
    assert mult[0] == 1.0 and np.all(mult[1:] == 0.0)


def test_mollify_translation_near_commutes(grid):
    # float FFT reorders round-off, so commutation is only exact in exact
    # arithmetic; require agreement at the accumulation floor
    rng = np.random.default_rng(5)
    f = Field(grid, rng.normal(size=(1, 64)))
    shift = 9
    a = mollify(Field(grid, np.roll(f.values, shift, axis=-1)), 0.08)
    b = np.roll(mollify(f, 0.08).values, shift, axis=-1)
    assert np.max(np.abs(a.values - b)) < 1e-13


def test_l2_norm_constant(grid):
    f = Field.constant(grid, 2.0)
    assert l2_norm(f) == pytest.approx(2.0)  # unit total volume


def _pass_buffers(grid, rows=3, n_in=4, m=2):
    """A forward buffer and mode buffers laid out as ``solver._pass`` lays them."""
    field_shape = (m,) + grid.shape
    half = field_shape[:-1] + (grid.n // 2 + 1,)
    rng = np.random.default_rng(3)
    fwd = rng.standard_normal((rows, n_in) + field_shape)
    modes = np.empty((rows, n_in) + half, dtype=complex)
    return fwd, modes, np.empty((rows, n_in) + field_shape)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("view", [np.s_[:, :], np.s_[:, :1], np.s_[:, :3], np.s_[:2, 1:]])
def test_direct_transforms_match_public_wrappers(dim, view):
    """The gufunc transforms give the bits of np.fft.rfft(n)/irfft(n), with and
    without ``out`` and with the modes as the inverse's scratch, on whole
    buffers and on the strided views ``solver._pass`` takes (leading rows,
    leading or trailing fields)."""
    grid = Grid(dim, 16, 1.0)
    forward, inverse = grids._gufunc_pair()
    fwd, modes, real = _pass_buffers(grid)
    expected = grids._PUBLIC[0](fwd[view], grid, None)
    assert np.array_equal(forward(fwd[view], grid, None), expected)
    forward(fwd[view], grid, modes[view])
    assert np.array_equal(modes[view], expected)
    scaled = modes * (1.0 + 0.5j)
    expected = grids._PUBLIC[1](scaled[view], grid, None)
    assert np.array_equal(inverse(scaled[view], grid, None), expected)
    inverse(scaled[view], grid, real[view])
    assert np.array_equal(real[view], expected)
    # the inverse leaves its input as it was, unless given it as scratch
    assert np.array_equal(scaled, modes * (1.0 + 0.5j))
    real[...] = 0.0
    inverse(scaled[view], grid, real[view], scaled[view])
    assert np.array_equal(real[view], expected)


def test_real_transforms_run_on_the_checked_gufuncs():
    """On this numpy the self-check passes, so the solver's transforms are the
    gufunc pair, not the public wrappers."""
    assert grids._transforms() is not grids._PUBLIC
    assert "_gufunc_pair" in grids._transforms()[1].__qualname__


def _runs():
    """An evolve and a shift in 1D and an evolve in 2D, as raw arrays."""
    g1 = Grid(1, 32, 1.0)
    she = EquationSpec.she(drift="cubic_decay", diffusion="bounded_smooth", g_min=1.0, eps=0.05)
    u = Field(g1, 0.3 * np.cos(2 * np.pi * g1.axes()[0]))
    w = sample_white_noise(g1, 1, 256, 2.0**-8, seed=11)
    out = evolve(u, w, 0.0, 0.25, she)
    res = build_shift(u, u + Field.constant(g1, 0.05), w, 0.25, she,
                      CouplingParams(m_bound=20.0, k_gamma=4))
    g2 = Grid(2, 16, 1.0)
    phi = EquationSpec.phi4(quartic=1.0, mass=0.5, eps=0.2)
    phi = phi.with_renorm(compute_renorm_constants(phi, g2, 2.0**-8))
    out2 = evolve(Field.zeros(g2), sample_white_noise(g2, 1, 256, 2.0**-8, seed=12),
                  0.0, 0.25, phi)
    return [out.fields, out.monitor_trace, res.h.values, np.array([res.cm_norm]),
            out2.fields, out2.monitor_trace]


@pytest.fixture
def fresh_transforms():
    grids._transforms.cache_clear()
    yield
    grids._transforms.cache_clear()


@pytest.mark.parametrize("lookup", ["swapped", "missing"])
def test_failed_self_check_falls_back_to_public_wrappers(monkeypatch, fresh_transforms, lookup):
    """When the gufuncs that grids looks up differ from the ones the public
    wrappers call (the complex passes swapped, which changes only the 2D
    transforms) or are missing, the self-check binds the wrappers, and
    evolves and shifts give the bits they give on the gufunc path."""
    direct = _runs()
    fake = SimpleNamespace()
    if lookup == "swapped":
        from numpy.fft import _pocketfft_umath as pfu
        fake = SimpleNamespace(rfft_n_even=pfu.rfft_n_even, irfft=pfu.irfft,
                               fft=pfu.ifft, ifft=pfu.fft)
    monkeypatch.setattr(np.fft, "_pocketfft_umath", fake)
    grids._transforms.cache_clear()
    assert grids._transforms() is grids._PUBLIC
    public = _runs()
    assert all(np.array_equal(a, b) for a, b in zip(direct, public))


@pytest.mark.parametrize("dim, extent", [(1, 1e-300), (1, 1e-152), (2, 1.8e-152)])
def test_overflowing_squared_wavenumbers_are_rejected(dim, extent):
    """A Grid whose largest squared wavenumber |2 pi (n/2) / L|^2 (summed over
    the axes) overflows is rejected, not left to warn in wavenumbers_sq."""
    with pytest.raises(ValueError, match="finite squared wavenumbers"):
        Grid(dim, 64, extent)


@pytest.mark.parametrize("dim, extent", [(1, 1.8e-152), (2, 2.5e-152), (1, 1.0)])
def test_finite_squared_wavenumbers_are_kept(dim, extent):
    """Just inside the rule the Grid is built and wavenumbers_sq is finite,
    without a warning."""
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(Grid(dim, 64, extent).wavenumbers_sq()).all()


def test_overflowing_proxy_norm_is_inf_in_all_three_monitors():
    """The +-1.7e308 she1d state (n = 32) is finite but its proxy norm
    overflows: holder_proxy_norm, r_monitor and the evolve's monitor trace
    all give +inf, and a non-finite state keeps its NaN."""
    from fellerlab import r_monitor, zero_noise_path
    from fellerlab.grids import _ProxyNorms
    grid, dt = Grid(1, 32, 1.0), 2.0**-8
    spec = EquationSpec.she(drift="zero", diffusion="one", r_blowup=np.inf)
    u0 = Field(grid, 1.7e308 * (-1.0) ** np.arange(32))
    with np.errstate(over="ignore", invalid="ignore"):
        out = evolve(u0, zero_noise_path(grid, 1, 256, dt), 0.0, 4 * dt, spec)
        norm = holder_proxy_norm(u0, spec.monitor_eta)
        monitor = r_monitor(out, 0.0, spec.monitor_eta)
        bad = _ProxyNorms(grid, 0.0, (1, 32), 1)(np.full((1, 1, 32), np.nan))
    assert out.monitor_trace[0] == norm == monitor == np.inf
    assert np.isnan(bad[0])
