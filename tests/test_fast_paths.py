"""Seeded sweep of the fast paths against the public numpy paths they stand
in for, over the shapes the CLI accepts rather than the small fixed shapes
their first-use self-checks draw: n = 8 to 256 in 1D and 8 to 64 in 2D, m = 1
to 3 components, several row counts, and the row counts of the gamma loop's
first-half batch.

* The pocketfft gufunc transforms (``grids._gufunc_pair``) against
  ``np.fft.rfftn``/``irfftn`` (``grids._PUBLIC``), on the strided views a
  step pass takes of its buffers and on rows gathered by fancy indexing, as
  the proxy norm gathers the rows it inverts.  Each row must also have the
  bits it has when transformed alone.
* The in-place noise drawer (``noise._slice_streams()``) against the
  public-interface drawer ``noise._SliceStreams``.
"""

import numpy as np
import pytest

from fellerlab import grids, noise
from fellerlab.grids import Grid

SHAPES = [(1, n) for n in (8, 16, 32, 64, 128, 256)] + [(2, n) for n in (8, 16, 32, 64)]
ROWS = (1, 3, 5)
# the rows of the gamma loop's first-half batch, its widest evolve: 63 at n = 64
# (couple_she.cfg's k_gamma - 1, m = 1 and the kpz1d m = 2), 180 at n = 32
# (tv_sweep.cfg's 15 steps of 12 rows)
WIDE = [(1, 64, 1, 63), (1, 64, 2, 63), (1, 32, 1, 180)]


def _layouts(buffer: np.ndarray, rng) -> list:
    """Row stacks (rows, m, *grid) read from a step-pass buffer (rows, slots,
    m, *grid): every slot of the leading rows as strided views, and rows
    gathered by (row, slot) index arrays."""
    rows, slots = buffer.shape[:2]
    views = [buffer[:, slot] for slot in range(slots)] + [buffer[:max(1, rows - 1), -1]]
    picks = rng.integers(0, rows, 2 * rows), rng.integers(0, slots, 2 * rows)
    return views + [buffer[picks]]


def _check_rows(fast, public, stack, grid):
    """``fast`` gives ``public``'s bits on the stack and on each row alone."""
    got = fast(stack, grid, None)
    assert np.array_equal(got, public(stack, grid, None))
    for i in range(len(stack)):
        assert np.array_equal(got[i], public(stack[i:i + 1], grid, None)[0])
    return got


def _sweep_transforms(grid, m, rows, rng):
    forward, inverse = grids._gufunc_pair()
    buffer = rng.standard_normal((rows, 3, m) + grid.shape)
    for stack in _layouts(buffer, rng):
        modes = _check_rows(forward, grids._PUBLIC[0], stack, grid)
        # inverse on fresh modes (the public inverse of a real field's
        # modes is that field again; these are not Hermitian in 2D)
        spectra = np.empty((rows, 3) + modes.shape[1:], dtype=complex)
        spectra[...] = (rng.standard_normal(spectra.shape)
                        + 1j * rng.standard_normal(spectra.shape))
        for spectrum in _layouts(spectra, rng):
            _check_rows(inverse, grids._PUBLIC[1], spectrum, grid)


@pytest.mark.parametrize("dim, n", SHAPES)
def test_gufunc_transforms_match_public_wrappers_row_by_row(dim, n):
    grid = Grid(dim, n, 1.0)
    rng = np.random.default_rng(100 * dim + n)
    for m in (1, 2, 3):
        for rows in ROWS:
            _sweep_transforms(grid, m, rows, rng)


@pytest.mark.parametrize("dim, n, m, rows", WIDE)
def test_wide_batches_match_public_wrappers_and_rows_alone(dim, n, m, rows):
    """At the first-half batch's row counts the transforms match the public
    wrappers row by row, and each state's proxy norm, in one call over the
    batch, has the bits it has alone."""
    grid = Grid(dim, n, 1.0)
    rng = np.random.default_rng(rows + 10 * m)
    _sweep_transforms(grid, m, rows, rng)
    states = rng.standard_normal((rows, m) + grid.shape) * np.geomspace(1e-3, 1e3, rows)[
        (slice(None),) + (None,) * (1 + dim)]
    norms = grids._ProxyNorms(grid, 0.25, states.shape[1:], rows)(states)
    alone = grids._ProxyNorms(grid, 0.25, states.shape[1:], 1)
    assert np.array_equal(norms, [alone(state[None])[0] for state in states])


@pytest.mark.parametrize("dim, n", SHAPES)
def test_in_place_drawer_matches_public_drawer(dim, n):
    assert noise._slice_streams() is not noise._SliceStreams
    grid = Grid(dim, n, 1.0)
    rng = np.random.default_rng(7 * dim + n)
    for m in (1, 2, 3):
        for rows in ROWS:
            pairs = [(int(j), int(k)) for j, k in zip(rng.integers(0, 2**63, rows),
                                                      rng.integers(0, 2**63, rows))]
            drawn = [np.empty((rows, m) + grid.shape) for _ in range(2)]
            noise._slice_streams()(19).fill(pairs, drawn[0])
            noise._SliceStreams(19).fill(pairs, drawn[1])
            assert np.array_equal(*drawn)
