"""Reference linearizations for the tests, written out step by step.

These are the tangent-only sweep and the per-slice Malliavin loop: one
exponential Euler tangent step per slice along stored states, each noise
increment and each shift slice smoothed on its own, with numpy's real
transforms and multipliers built from the grid.  They share no code with
the solver's evolve loop, which the library's linearizations replay, so a
test can pin those to these bit for bit.

Arrays keep a leading batch axis of one, as the solver's rows do.
"""

import numpy as np

from fellerlab import bump_chi
from fellerlab.grids import _gaussian_multiplier


class Oracle:
    """Mode multipliers and transforms for one (grid, dt, spec)."""

    def __init__(self, grid, dt, spec):
        self.grid, self.dt, self.spec = grid, dt, spec
        half = grid.n // 2 + 1
        self.decay = np.exp(-grid.wavenumbers_sq() * dt)[..., :half].astype(complex)
        self.moll = (None if spec.eps == 0.0
                     else _gaussian_multiplier(grid, spec.eps)[..., :half].astype(complex))
        self.gradient = None
        if spec.kind == "kpz1d":
            k = grid.frequencies()[0][:half]
            self.gradient = ((1j * 2.0 * np.pi / grid.extent[0]) * k) * (np.abs(k) <= grid.n // 3)

    def apply(self, a, multiplier):
        """The real inverse transform of a's modes times ``multiplier``."""
        if self.grid.dim == 1:
            return np.fft.irfft(np.fft.rfft(a, axis=-1) * multiplier, n=self.grid.n, axis=-1)
        axes = tuple(range(-self.grid.dim, 0))
        return np.fft.irfftn(np.fft.rfftn(a, axes=axes) * multiplier, s=self.grid.shape,
                             axes=axes)

    def smooth(self, a):
        return a if self.moll is None else self.apply(a, self.moll)

    def tangent_step(self, x, u, dw):
        """x after one step along the state u and the raw increment dw:
        E (x + dt Df(u) x) + DG(u) x smooth(dw)."""
        spec = self.spec
        du = dx = None
        if self.gradient is not None:
            du, dx = self.apply(u, self.gradient), self.apply(x, self.gradient)
        heated = self.apply(x + self.dt * spec.drift_jvp(u, x, du, dx), self.decay)
        dg = spec.noise_coefficients(u, derivative=True)[1]
        return heated if dg is None else heated + dg * x * self.smooth(dw)

    def sweep(self, fields, increments, x0):
        """Tangent values after 0..J steps, shape (J+1, m, *grid), from x0
        (1, m, *grid) along states ``fields`` and raw ``increments`` (J, m, *grid)."""
        out = [np.array(x0, dtype=np.float64)]
        for j in range(increments.shape[0]):
            out.append(self.tangent_step(out[-1], fields[j:j + 1], increments[j:j + 1]))
        return np.concatenate(out)

    def malliavin(self, fields, increments, h, j_t):
        """The derivative at step j_t along the shift slices ``h`` (at least
        j_t of them), one slice at a time."""
        acc = np.zeros_like(fields[:1])
        for j in range(j_t):
            u = fields[j:j + 1]
            acc = self.tangent_step(acc, u, increments[j:j + 1])
            hj = self.smooth(h[j:j + 1])
            g = self.spec.noise_coefficients(u)[0]
            acc = acc + (hj if g is None else g * hj) * self.dt
        return acc[0]

    def transfer(self, fields, tangent, t):
        """Transfer slices (k_t, m, *grid) from tangent values (k_t + 1, ...)
        along states ``fields``: (1/t) chi(k/k_t) G(u_k)^{-1} tangent[k+1]
        on the support of chi, zero off it."""
        k_t = tangent.shape[0] - 1
        out = np.zeros(tangent[1:].shape)
        for k in range(k_t):
            chi_over_t = bump_chi(k / k_t) / t
            if chi_over_t > 0:
                g = self.spec.noise_coefficients(fields[k])[0]
                out[k] = chi_over_t * (tangent[k + 1] if g is None else tangent[k + 1] / g)
        return out
