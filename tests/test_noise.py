import math

import numpy as np
import pytest

from fellerlab import (Grid, ShiftPath, apply_shift, cm_norm_sq,
                       girsanov_weight, log_girsanov_weight, noise_pairing,
                       sample_white_noise, splice, zero_noise_path)


@pytest.fixture
def grid():
    return Grid(dim=1, n=32, extent=(1.0,))


def _shift(grid, values, dt=2.0**-6):
    return ShiftPath(grid, dt, values)


def test_determinism_bit_identical(grid):
    a = sample_white_noise(grid, 1, 64, 2.0**-6, seed=42, stream=3)
    b = sample_white_noise(grid, 1, 64, 2.0**-6, seed=42, stream=3)
    assert np.array_equal(a.increments, b.increments)
    c = sample_white_noise(grid, 1, 64, 2.0**-6, seed=42, stream=4)
    assert not np.array_equal(a.increments, c.increments)


def test_rejects_short_horizon(grid):
    with pytest.raises(ValueError):
        sample_white_noise(grid, 1, 10, 2.0**-6, seed=0)


def test_moments():
    grid = Grid(dim=1, n=256, extent=(1.0,))
    dt = 2.0**-12
    w = sample_white_noise(grid, 1, 4096, dt, seed=7)
    entries = w.increments.ravel()
    assert entries.size >= 10**6
    sigma2 = dt / grid.cell_volume
    assert abs(np.mean(entries)) <= 4.0 * math.sqrt(sigma2) / 1e3
    assert abs(np.var(entries) / sigma2 - 1.0) <= 0.02


def test_apply_shift_zero_and_inverse(grid):
    dt = 2.0**-6
    w = sample_white_noise(grid, 1, 64, dt, seed=1)
    zero = ShiftPath.zeros(grid, 1, 64, dt)
    assert np.array_equal(apply_shift(w, zero).increments, w.increments)

    rng = np.random.default_rng(2)
    h = _shift(grid, rng.normal(size=(64, 1, 32)))
    back = apply_shift(apply_shift(w, h), _shift(grid, -h.values))
    assert np.max(np.abs(back.increments - w.increments)) <= 1e-15


def test_apply_shift_group_action(grid):
    dt = 2.0**-6
    w = sample_white_noise(grid, 1, 64, dt, seed=3)
    rng = np.random.default_rng(4)
    h1 = _shift(grid, rng.normal(size=(64, 1, 32)))
    h2 = _shift(grid, rng.normal(size=(64, 1, 32)))
    a = apply_shift(apply_shift(w, h1), h2)
    b = apply_shift(w, _shift(grid, h1.values + h2.values))
    assert np.max(np.abs(a.increments - b.increments)) <= 1e-14


def test_apply_shift_single_slice_locality(grid):
    dt = 2.0**-6
    w = sample_white_noise(grid, 1, 64, dt, seed=5)
    vals = np.zeros((64, 1, 32))
    vals[17, 0] = 1.0
    out = apply_shift(w, _shift(grid, vals))
    diff = out.increments - w.increments
    assert np.all(diff[:17] == 0) and np.all(diff[18:] == 0)
    assert np.allclose(diff[17], dt)


def test_splice_cases(grid):
    dt = 2.0**-6
    w_a = sample_white_noise(grid, 1, 64, dt, seed=6)
    w_b = sample_white_noise(grid, 1, 64, dt, seed=7)
    assert np.array_equal(splice(w_a, w_a, 0.5).increments, w_a.increments)
    assert np.array_equal(splice(w_a, w_b, 0.0).increments, w_b.increments)
    assert np.array_equal(splice(w_a, w_b, 1.0).increments, w_a.increments)
    s = splice(w_a, w_b, 0.25)
    k = w_a.time_index(0.25)
    assert np.array_equal(s.increments[:k], w_a.increments[:k])
    assert np.array_equal(s.increments[k:], w_b.increments[k:])
    with pytest.raises(ValueError):
        splice(w_a, w_b, 0.013)  # off-grid


def test_cm_norm_examples(grid):
    dt = 2.0**-6
    zero = ShiftPath.zeros(grid, 1, 64, dt)
    assert cm_norm_sq(zero) == 0.0
    const = _shift(grid, np.full((64, 1, 32), 3.0))
    # constant c on [0, 1]: integral of c^2 * spatial volume
    assert cm_norm_sq(const) == pytest.approx(9.0)


def test_cm_norm_naive_oracle(grid):
    dt = 2.0**-6
    rng = np.random.default_rng(8)
    h = _shift(grid, rng.normal(size=(64, 1, 32)))
    naive = 0.0
    vol = grid.cell_volume
    for k in range(64):
        naive += vol * float(np.sum(h.values[k] ** 2)) * dt
    assert cm_norm_sq(h) == pytest.approx(naive, rel=1e-12)


def test_restrict_zeroes_tail(grid):
    dt = 2.0**-6
    h = _shift(grid, np.ones((64, 1, 32)))
    r = h.restrict(0.25)
    k = h.time_index(0.25)
    assert np.all(r.values[k:] == 0) and np.all(r.values[:k] == 1)


def test_weight_trivial_and_log_consistency(grid):
    dt = 2.0**-6
    w = sample_white_noise(grid, 1, 64, dt, seed=9)
    zero = ShiftPath.zeros(grid, 1, 64, dt)
    assert girsanov_weight(w, zero) == 1.0
    rng = np.random.default_rng(10)
    h = _shift(grid, 0.3 * rng.normal(size=(64, 1, 32)))
    lw = log_girsanov_weight(w, h)
    assert math.log(girsanov_weight(w, h)) == pytest.approx(lw, abs=1e-12)
    assert girsanov_weight(w, h) > 0.0


def test_weight_martingale_mean(grid):
    dt = 2.0**-6
    vals = np.zeros((64, 1, 32))
    x = grid.axes()[0]
    vals[:16] = 1.2 * np.sin(2 * np.pi * x)
    h = _shift(grid, vals)
    ws = [girsanov_weight(sample_white_noise(grid, 1, 64, dt, seed=77, stream=j), h)
          for j in range(10_000)]
    mean = np.mean(ws)
    se = np.std(ws, ddof=1) / math.sqrt(len(ws))
    assert abs(mean - 1.0) <= 3.0 * se


def test_pairing_matches_naive(grid):
    dt = 2.0**-6
    w = sample_white_noise(grid, 1, 64, dt, seed=11)
    rng = np.random.default_rng(12)
    h = _shift(grid, rng.normal(size=(64, 1, 32)))
    naive = grid.cell_volume * float(np.sum(h.values * w.increments))
    assert noise_pairing(h, w) == pytest.approx(naive, rel=1e-12)


def test_zero_noise_path(grid):
    w = zero_noise_path(grid, 2, 64, 2.0**-6)
    assert w.m == 2 and np.all(w.increments == 0)


def test_shape_mismatch_rejected(grid):
    w = sample_white_noise(grid, 1, 64, 2.0**-6, seed=1)
    other = Grid(dim=1, n=16, extent=(1.0,))
    h = ShiftPath.zeros(other, 1, 64, 2.0**-6)
    with pytest.raises(ValueError):
        apply_shift(w, h)


def test_slice_source_matches_drawn_paths(grid):
    """Slices drawn one at a time for any rows equal the same entries of the
    full paths, bit for bit."""
    from fellerlab.noise import _SliceSource
    dt = 2.0**-6
    paths = np.stack([sample_white_noise(grid, 2, 64, dt, seed=9, stream=j).increments
                      for j in range(3, 8)], axis=1)
    source = _SliceSource(grid, 2, 16, dt, 9, range(3, 8))
    assert source.shape == (16,) + paths.shape[1:]
    for k in (0, 7, 15):
        assert np.array_equal(source[k, slice(None)], paths[k])
        assert np.array_equal(source[k, np.array([1, 4])], paths[k, [1, 4]])
