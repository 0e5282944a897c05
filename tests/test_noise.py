import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest

from fellerlab import (Grid, NoisePath, ShiftPath, apply_shift, cm_norm_sq,
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


@pytest.mark.parametrize("dt", [0.0, -0.25, math.nan, math.inf])
def test_path_types_reject_bad_dt(grid, dt):
    """A path's dt is > 0 and finite; at 0 snapping a time would divide by
    zero, and at inf every time would snap to slice 0."""
    for cls in (NoisePath, ShiftPath):
        with pytest.raises(ValueError, match="need dt > 0 and finite"):
            cls(grid, dt, np.zeros((4, 1, 32)))


def test_path_types_reject_wrong_shape_and_non_finite_shift(grid):
    dt = 2.0**-6
    with pytest.raises(ValueError, match="increments shape"):
        NoisePath(grid, dt, np.zeros((4, 1, 16)))
    with pytest.raises(ValueError, match="values shape"):
        ShiftPath(grid, dt, np.zeros((4, 32)))
    with pytest.raises(ValueError, match="shift values must be finite"):
        ShiftPath(grid, dt, np.full((4, 1, 32), np.inf))


@pytest.mark.parametrize("differ", ["grid", "dt", "shape"])
def test_pair_functions_reject_a_mismatched_pair(grid, differ):
    """Noise and shift (or two noises) must share grid, dt and shape in every
    function that pairs them, not only in some."""
    dt = 2.0**-6
    w = sample_white_noise(grid, 1, 64, dt, seed=1)
    other_grid = Grid(dim=1, n=32, extent=(2.0,)) if differ == "grid" else grid
    other_dt = 2 * dt if differ == "dt" else dt
    n_steps = 80 if differ == "shape" else 64
    h = ShiftPath.zeros(other_grid, 1, n_steps, other_dt)
    w_other = NoisePath(other_grid, other_dt, np.zeros((n_steps, 1, 32)))
    for call, message in ((lambda: noise_pairing(h, w), "noise and shift"),
                          (lambda: log_girsanov_weight(w, h), "noise and shift"),
                          (lambda: girsanov_weight(w, h), "noise and shift"),
                          (lambda: apply_shift(w, h), "noise and shift"),
                          (lambda: splice(w, w_other, 0.25), "paths")):
        with pytest.raises(ValueError, match=f"{message} have mismatched shapes"):
            call()


@pytest.mark.parametrize("time", [math.inf, -math.inf, math.nan])
def test_non_finite_time_is_on_no_grid(grid, time):
    w = sample_white_noise(grid, 1, 64, 2.0**-6, seed=1)
    with pytest.raises(ValueError, match="not on the dt"):
        w.time_index(time)
    with pytest.raises(ValueError, match="not on the dt"):
        ShiftPath.zeros(grid, 1, 64, 2.0**-6).restrict(time)


@pytest.mark.parametrize("dt", [math.nan, math.inf, 5e-324])
def test_sample_white_noise_rejects_dt_without_a_finite_slice_count(grid, dt):
    """A NaN or infinite dt, or one whose 1/dt overflows, is bad input."""
    with pytest.raises(ValueError, match="need dt > 0 and finite"):
        sample_white_noise(grid, 1, 64, dt, seed=0)


def test_slice_source_matches_drawn_paths(grid):
    """Slices drawn one at a time for any rows equal the same entries of the
    full paths, bit for bit."""
    from fellerlab.noise import _SliceSource
    dt = 2.0**-6
    paths = np.stack([sample_white_noise(grid, 2, 64, dt, seed=9, stream=j).increments
                      for j in range(3, 8)], axis=1)
    source = _SliceSource(grid, 2, 16, dt, 9, range(3, 8))
    assert source.shape == (16,) + paths.shape[1:]
    drawn = source.drawn()
    assert drawn.shape == source.shape
    assert np.array_equal(drawn, paths[:16])
    for k in (0, 7, 15):
        assert np.array_equal(source[k, slice(None)], paths[k])
        assert np.array_equal(source[k, np.array([1, 4])], paths[k, [1, 4]])
        assert np.array_equal(source[k, slice(None)], drawn[k])
        assert np.array_equal(source[k, np.array([1, 4])], drawn[k, [1, 4]])


@pytest.mark.parametrize("grid, m, digest", [
    (Grid(dim=1, n=32, extent=(1.0,)), 1,
     "90eb077ad0e1ffeec35a9130e83e40d690f574775eacee42c1cb157c6a638cae"),
    (Grid(dim=1, n=64, extent=(1.0,)), 2,
     "f97e32d0b4a6bfc6b012ec08dcdf94c0f5e3d2f0f069e0c2ac1c953d7bfbacd8"),
    (Grid(dim=2, n=16, extent=(1.0, 2.0)), 1,
     "0331987b22b5165e7a1e4dc3bda079d22b026d34ec2192a5ff79cc8bd2d3cc61"),
])
def test_noise_bits_pinned(grid, m, digest):
    """The sha256 of the little-endian float64 increments of streams 0 and 3
    under seed 11 (128 slices of 2^-7): any change to the drawer's bits shows."""
    h = hashlib.sha256()
    for stream in (0, 3):
        inc = sample_white_noise(grid, m, 128, 2.0**-7, seed=11, stream=stream).increments
        h.update(np.ascontiguousarray(inc, dtype="<f8").tobytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("seed, stream", [(-1, 0), (2**64, 0), (5 + 2**64, 0), (0, -1),
                                          (0, 2**64)])
def test_seed_or_stream_outside_the_key_range_rejected(grid, seed, stream):
    """A seed and a stream are the two words of a Philox key: outside
    [0, 2**64) one would alias another (5 + 2**64 would draw the noise of 5)."""
    from fellerlab.noise import _SliceSource
    with pytest.raises(ValueError, match=r"lie in \[0, 2\*\*64\)"):
        sample_white_noise(grid, 1, 64, 2.0**-6, seed=seed, stream=stream)
    with pytest.raises(ValueError, match=r"lie in \[0, 2\*\*64\)"):
        _SliceSource(grid, 1, 4, 2.0**-6, seed, range(stream, stream + 2))
    top = sample_white_noise(grid, 1, 64, 2.0**-6, seed=2**64 - 1, stream=2**64 - 1)
    assert np.isfinite(top.increments).all()


@pytest.mark.parametrize("k", [-1, 2**64])
def test_slice_index_outside_the_counter_range_rejected(grid, k):
    """A slice index is one word of the Philox counter: an index outside it
    is an error, not the slice it is congruent to."""
    from fellerlab.noise import _SliceSource
    with pytest.raises(IndexError, match="outside"):
        _SliceSource(grid, 1, 4, 2.0**-6, 0, range(2))[k, slice(None)]


_ZIGGURAT_R = 3.6541528853610088  # numpy's ziggurat draws beyond this from its tail


def _reference_slice(seed: int, stream: int, k: int, shape: tuple):
    """Slice k of a stream from numpy's public interface alone: the Philox
    keyed (seed, stream), set through the state setter to counter (0, k, 0,
    0) with its buffer spent, filled by Generator.standard_normal; and the
    64-bit words the fill consumed (more than its normals when the
    ziggurat's fast path rejected)."""
    bitgen = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
    state = bitgen.state
    state.update(buffer_pos=4, has_uint32=0, uinteger=0)
    state["state"]["counter"] = np.array([0, k, 0, 0], dtype=np.uint64)
    bitgen.state = state
    out = np.random.Generator(bitgen).standard_normal(shape)
    after = bitgen.state
    return out, 4 * int(after["state"]["counter"][0]) - (4 - after["buffer_pos"])


def test_slice_source_matches_public_reference():
    """The in-place drawer is the one bound here, and every slice it draws
    equals the public-interface reference bit for bit: m = 1 and m = 2 at
    n = 64 and a 16 x 16 grid, low slices drawn whole and far ones (2^33 +
    5, 2^63) on demand, over 10^6 normals that take the ziggurat's
    rejection branch and its tail."""
    from fellerlab.noise import _SliceSource, _SliceStreamsInPlace, _slice_streams
    assert _slice_streams().func is _SliceStreamsInPlace
    normals = consumed = 0
    peak = 0.0
    for grid, m in ((Grid(1, 64, 1.0), 1), (Grid(1, 64, 1.0), 2), (Grid(2, 16, 1.0), 1)):
        # dt = cell volume scales by exactly 1, so the slices are the raw normals
        source = _SliceSource(grid, m, 1200, grid.cell_volume, 21, range(5, 7))
        drawn = source.drawn()
        far = {k: source[k, slice(None)] for k in (0, 1, 2**33 + 5, 2**63)}
        for i, stream in enumerate((5, 6)):
            for k in range(1200):
                want, words = _reference_slice(21, stream, k, (m,) + grid.shape)
                assert np.array_equal(drawn[k, i], want)
                normals, consumed, peak = normals + want.size, consumed + words, max(
                    peak, np.abs(want).max())
            for k, got in far.items():
                assert np.array_equal(got[i], _reference_slice(21, stream, k, got.shape[1:])[0])
    assert normals >= 10**6
    assert consumed > normals and peak > _ZIGGURAT_R


def test_self_check_draws_take_the_rejection_branch():
    """The first-use self-check's draws are enough to leave the ziggurat's
    fast path: the reference fills consume more words than they give."""
    from fellerlab.noise import _CHECK_PAIRS, _CHECK_SHAPES
    normals = consumed = 0
    for shape in _CHECK_SHAPES:
        for stream, k in _CHECK_PAIRS:
            want, words = _reference_slice(11, stream, k, shape)
            normals, consumed = normals + want.size, consumed + words
    assert consumed > normals


@pytest.fixture
def fresh_slice_streams():
    from fellerlab import noise
    noise._slice_streams.cache_clear()
    yield noise
    noise._slice_streams.cache_clear()


def _estimates():
    """A blow-up estimate with deaths and a tv chunk, as comparable values."""
    from fellerlab import (CouplingParams, EquationSpec, Field, blowup_probability,
                           estimate_tv_bound)
    g1 = Grid(1, 32, 1.0)
    growth = EquationSpec.she(drift="cubic_growth", diffusion="one", r_blowup=1e4)
    blowup = blowup_probability(Field.constant(g1, 1.6), 0.25, growth, 12, 49, 2.0**-7)
    she = EquationSpec.she(drift="cubic_decay", diffusion="bounded_smooth", g_min=1.0)
    u = Field(g1, 0.3 * np.cos(2 * np.pi * g1.axes()[0]))
    tv = estimate_tv_bound(u, u + Field.constant(g1, 0.05), 0.25, she,
                           CouplingParams(m_bound=10.0, k_gamma=4), 4, 42, 2.0**-7)
    return blowup, tv


@pytest.mark.parametrize("fault", ["missing", "mismatch"])
def test_failed_self_check_falls_back_to_public_path(monkeypatch, fresh_slice_streams, fault):
    """When numpy's sampler cannot be looked up, or the function found draws
    other bits (here the exponential fill), the self-check binds the public
    path, and a blow-up estimate and a tv chunk give the bits they give on
    the in-place path."""
    import ctypes
    noise = fresh_slice_streams
    in_place = _estimates()
    assert noise._slice_streams().func is noise._SliceStreamsInPlace
    assert 0 < in_place[0].estimate < 1

    def lookup(path, real=ctypes.PyDLL):
        if fault == "missing":
            return SimpleNamespace()
        exponential = real(path).random_standard_exponential_fill
        return SimpleNamespace(random_standard_normal_fill=exponential)
    monkeypatch.setattr(ctypes, "PyDLL", lookup)
    noise._slice_streams.cache_clear()
    assert noise._slice_streams() is noise._SliceStreams
    assert _estimates() == in_place
