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
    """The per-row reduction of the proxy norm, over the (state, shell,
    component) rows of each state, gives the weighted per-shell sup-norms bit
    for bit, zeros, ties and infinities included."""
    from fellerlab.grids import _row_sups, _shell_weights
    rng = np.random.default_rng(4)
    blocks = rng.standard_normal((6, 5, 2, 16)) * 10.0 ** rng.integers(-300, 300, (6, 5, 1, 1))
    blocks[0] = 0.0
    blocks[1, :, 0, 0] = 7.0
    blocks[2, 3, 1, 5] = -np.inf
    for alpha in (-1.5, -0.25, 0.0, 0.25, 1.9):
        weights = _shell_weights(alpha, 5)
        per_shell = np.abs(blocks).reshape(6, 5, -1).max(axis=2)
        rows = _row_sups(blocks.reshape(60, 16).copy(), np.tile(np.repeat(weights, 2), 6))
        assert np.array_equal(rows.reshape(6, 10).max(axis=1),
                              (weights * per_shell).max(axis=1))


def test_row_sups_of_the_block_buffer_match_the_contiguous_reduction():
    """Every grid's rows sit row by row in one C-contiguous buffer; the row
    maximum is exact, so it gives the bits of the per-row reduction of the
    blocks, zeros, ties, NaN and infinities included."""
    from fellerlab.grids import _ProxyNorms, _row_sups
    rng = np.random.default_rng(5)
    for dim, n in ((1, 8), (1, 32), (1, 64), (1, 128), (2, 8), (2, 16)):
        grid = Grid(dim, n, 1.0)
        norms = _ProxyNorms(grid, 0.5, (2,) + grid.shape, 7)
        rows = norms.blocks.shape[0]
        assert norms.blocks.flags.c_contiguous
        for count in (1, rows // 2, rows):
            data = rng.standard_normal((count,) + grid.shape) * 10.0 ** rng.integers(
                -300, 300, (count,) + (1,) * dim)
            data[0] = 0.0
            data[-1].flat[[0, -1]] = -7.0, 7.0
            data[count // 2].flat[1] = rng.choice([np.inf, -np.inf, np.nan])
            weights = 2.0 ** rng.uniform(-3, 3, count)
            blocks = norms.blocks[:count]
            blocks[...] = data
            want = np.abs(data).max(axis=tuple(range(1, dim + 1))) * weights
            assert np.array_equal(_row_sups(blocks, weights), want, equal_nan=True)


def test_holder_proxy_rejects_large_alpha(grid):
    with pytest.raises(ValueError):
        holder_proxy_norm(Field.zeros(grid), 2.0)


@pytest.mark.parametrize("alpha", [float("nan"), -2.0, float("inf")])
def test_nan_or_large_exponent_rejected_by_both_monitors(grid, alpha):
    """A NaN exponent fails |alpha| < 2 like a large one, in holder_proxy_norm
    and in r_monitor, on a live and on a dead trajectory."""
    from fellerlab import r_monitor, zero_noise_path
    spec = EquationSpec.she(drift="zero", diffusion="one")
    w = zero_noise_path(grid, 1, 256, 2.0**-8)
    f = Field(grid, np.cos(2 * np.pi * grid.axes()[0]))
    live = evolve(f, w, 0.0, 0.25, spec)
    with np.errstate(over="ignore", invalid="ignore"):
        dead = evolve(Field(grid, 1e308 * f.values), w, 0.0, 0.25,
                      EquationSpec.she(drift="cubic_growth", diffusion="one"))
    assert live.alive and not dead.alive
    with pytest.raises(ValueError, match="alpha"):
        holder_proxy_norm(f, alpha)
    for out in (live, dead):
        with pytest.raises(ValueError, match="alpha"):
            r_monitor(out, 0.25, alpha)


def _every_shell_norms(grid, alpha, values):
    """The proxy norm of each state (B, m, *grid) from every shell block: all
    (state, shell, component) rows inverted in one batch, every entry
    weighted, one max per state, and NaN from a finite state read as +inf."""
    forward, inverse = grids._transforms()
    masks = grids._dyadic_masks(grid.dim, grid.n)
    shells = masks[:, None].astype(complex) * forward(values, grid, None)[:, None]
    blocks = inverse(shells, grid, None)
    weights = grids._shell_weights(alpha, len(masks)).reshape((-1,) + (1,) * (blocks.ndim - 2))
    norms = (np.abs(blocks) * weights).reshape(len(values), -1).max(axis=1)
    norms[np.isnan(norms) & np.isfinite(values).reshape(len(values), -1).all(axis=1)] = np.inf
    return norms


def _adversarial_states(grid, m, k, rng):
    """Batches of k states where the shell bound is tight or the rounding is
    at its edges: noise, noise over 600 decades, a spike, constants, a
    single cosine, the alternating +-1.7e308 state, subnormal states (where
    rounding is absolute, not relative), and NaN, +-inf and -0 entries."""
    shape = (k, m) + grid.shape
    x = rng.standard_normal(shape)
    spike = np.zeros(shape)
    spike[(slice(None),) * 2 + (0,) * grid.dim] = 3.0
    cosine = np.cos(2 * np.pi * 3 * sum(np.meshgrid(*grid.axes(), indexing="ij")))
    alternating = (-1.0) ** np.arange(grid.total_points).reshape(grid.shape)
    nan, infs = x.copy(), x.copy()
    nan.reshape(-1)[::7] = np.nan
    infs.reshape(-1)[[1, -1]] = np.inf, -np.inf
    return [x, x * 10.0 ** rng.integers(-320, 308, (k, 1) + (1,) * grid.dim), spike,
            np.full(shape, 0.5), np.full(shape, -0.0), np.broadcast_to(cosine, shape),
            1.7e308 * alternating * np.ones(shape), -1.7e308 * np.ones(shape),
            np.full(shape, 5e-324), x * 1e-310, rng.integers(-3, 4, shape) * 5e-324,
            np.broadcast_to(cosine, shape) * 5e-321, x * 1e300, nan, infs]


@pytest.mark.parametrize("dim, n", [(1, 8), (1, 32), (1, 256), (2, 8), (2, 16), (2, 32)])
def test_pruned_proxy_norms_match_every_shell_reference_bit_for_bit(dim, n):
    """The pruned norm has the bits of the every-shell norm, NaN payloads
    included, on states where the bound is tight (spikes, constants, single
    cosines), over magnitudes 1e-320 to 1.7e308, with NaN, inf and -0, at
    exponents -1.9 to 1.9, on fewer states than the buffers hold."""
    from fellerlab.grids import _ProxyNorms
    grid, rng = Grid(dim, n, 1.0), np.random.default_rng(n + dim)
    for m in (1, 2, 3):
        for alpha in (-1.9, -0.5, 0.0, 0.25, 1.9):
            norms = _ProxyNorms(grid, alpha, (m,) + grid.shape, 6)
            for k in (1, 4):
                with np.errstate(over="ignore", invalid="ignore"):
                    for values in _adversarial_states(grid, m, k, rng):
                        got, want = norms(values), _every_shell_norms(grid, alpha, values)
                        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_row_bound_covers_every_computed_row_sup():
    """U, the bound the rows are pruned by, is at least the computed
    fl(w_j max|row|) of every (state, shell, component) row of the
    adversarial states, and is tight: on a spike the computed value is
    within 2e-6 of U and, by rounding, can pass U / (1 + delta)."""
    from fellerlab.grids import _ProxyNorms
    rng, tight, over = np.random.default_rng(9), [], []
    for grid in (Grid(1, 8, 1.0), Grid(1, 64, 1.0), Grid(1, 256, 1.0), Grid(2, 16, 1.0)):
        for m, alpha in ((1, 0.0), (2, 1.9), (3, -1.9)):
            norms = _ProxyNorms(grid, alpha, (m,) + grid.shape, 4)
            for values in _adversarial_states(grid, m, 4, rng):
                if not np.isfinite(values).all():
                    continue
                with np.errstate(over="ignore", invalid="ignore"):
                    modes = norms.forward(values, grid, None)
                    sums = np.abs(modes).reshape(4, -1) @ norms.bound
                    state, part = np.divmod(np.arange(4 * norms.per_state), norms.per_state)
                    sups = norms._sups(state, part, modes).reshape(4, -1)
                bound = sums[:, :-1] + 2.0**-960
                finite = (sums[:, -1:] < 2.0**1000) & (bound < np.inf) & (sups > 0)
                assert (sups <= bound)[finite].all()
                tight.append((sups / bound)[finite].max(initial=0.0))
                over.append((sups * (1 + 1e-6) / bound)[finite].max(initial=0.0))
    assert max(tight) > 1 - 2e-6
    assert max(over) > 1


def test_proxy_norms_invert_only_the_rows_that_can_hold_the_max(monkeypatch):
    """Counted at the inverse transform: smooth states invert fewer than all
    of their (state, shell, component) rows; states with a NaN entry, finite
    states whose transform overflows and finite states whose L1 sum of modes
    is not below 2^1000 invert each of their rows once."""
    from fellerlab.grids import _ProxyNorms
    forward, inverse = grids._transforms()
    counted = []

    def counting(modes, grid, out, scratch=None):
        counted.append(len(modes))
        return inverse(modes, grid, out, scratch)

    monkeypatch.setattr(grids, "_transforms", lambda: (forward, counting))
    for grid, m in ((Grid(1, 64, 1.0), 2), (Grid(2, 16, 1.0), 1)):
        k = 8
        every = k * len(grids._dyadic_masks(grid.dim, grid.n)) * m
        phase = sum(np.meshgrid(*grid.axes(), indexing="ij"))
        smooth = np.array([[np.cos(2 * np.pi * (b % 3 + 1) * phase) + c for c in range(m)]
                           for b in range(k)])
        nan = smooth.copy()
        nan[(slice(None), 0) + (0,) * grid.dim] = np.nan
        huge = 1.7e308 * (-1.0) ** np.arange(grid.total_points).reshape(grid.shape) * (
            np.ones_like(smooth))
        norms = _ProxyNorms(grid, 0.25, (m,) + grid.shape, k + 2)
        for values, lowest, highest in ((smooth, k, every - 1), (nan, every, every),
                                        (huge, every, every), (1e300 * smooth, every, every)):
            with np.errstate(over="ignore", invalid="ignore"):
                want = _every_shell_norms(grid, 0.25, values)
                counted.clear()
                got = norms(values)
            assert np.array_equal(got, want, equal_nan=True)
            assert lowest <= sum(counted) <= highest


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
