import numpy as np
import pytest

from fellerlab import (Field, Grid, MollifierSpec, holder_proxy_norm, l2_norm,
                       mollify, spectral_inverse, spectral_transform)


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
        assert np.array_equal(_weighted_block_sup(blocks, weights),
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


def test_mollify_translation_near_commutes(grid):
    # float FFT reorders round-off, so commutation is only exact in exact
    # arithmetic; require agreement at the accumulation floor
    rng = np.random.default_rng(5)
    f = Field(grid, rng.normal(size=(1, 64)))
    shift = 9
    a = mollify(Field(grid, np.roll(f.values, shift, axis=-1)), 0.08)
    b = np.roll(mollify(f, 0.08).values, shift, axis=-1)
    assert np.max(np.abs(a.values - b)) < 1e-13


def test_unknown_mollifier_kind():
    with pytest.raises(ValueError):
        MollifierSpec(kind="box")


def test_l2_norm_constant(grid):
    f = Field.constant(grid, 2.0)
    assert l2_norm(f) == pytest.approx(2.0)  # unit total volume
