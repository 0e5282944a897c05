"""Equation specifications and renormalization constants.

Three families are supported, all at a fixed mollification scale ``eps``:

* ``she1d``      du = u_xx + H(u) + G(u) xi_eps           (1D, one component)
* ``kpz1d``      dh^i = h^i_xx + S^i_jk dx h^j dx h^k - C_i + xi_eps^i
* ``phi4_2d``    du = Lap u - q u^3 - mass u + 3 q C u + xi_eps   (2D)

The counterterms C are Wick constants: the stationary variance (or gradient
variance, for the quadratic-gradient nonlinearity) of the mollified linear
dynamics, computed by deterministic mode-space quadrature so they match the
time stepper exactly at the given dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grids import Grid, MollifierSpec

__all__ = [
    "ScalarFn",
    "DRIFTS",
    "DIFFUSIONS",
    "EquationSpec",
    "RenormConstants",
    "compute_renorm_constants",
]


@dataclass(frozen=True)
class ScalarFn:
    """A named pointwise function with its derivative (for linearization),
    and optionally both from one pass (``fn_and_d``, same bits as the pair)."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    d_fn: Callable[[np.ndarray], np.ndarray]
    fn_and_d: Callable[[np.ndarray], tuple] | None = None

    def __call__(self, u):
        return self.fn(u)


def _bounded_smooth(u):
    # 1 + u^2 / (2 (1 + u^2)): smooth, bounded in [1, 1.5], >= 1 everywhere
    return 1.0 + 0.5 * u * u / (1.0 + u * u)


def _bounded_smooth_d(u):
    return u / (1.0 + u * u) ** 2


def _bounded_smooth_both(u):
    # both of the above with 1 + u^2 formed once; each keeps its operation order
    den = 1.0 + u * u
    return 1.0 + 0.5 * u * u / den, u / den ** 2


DRIFTS = {
    "zero": ScalarFn("zero", lambda u: np.zeros_like(u), lambda u: np.zeros_like(u)),
    "linear_decay": ScalarFn("linear_decay", lambda u: -u, lambda u: -np.ones_like(u)),
    "cubic_decay": ScalarFn("cubic_decay", lambda u: -(u * u * u), lambda u: -3.0 * u * u),
    "cubic_growth": ScalarFn("cubic_growth", lambda u: u * u * u, lambda u: 3.0 * u * u),
}

DIFFUSIONS = {
    "one": ScalarFn("one", lambda u: np.ones_like(u), lambda u: np.zeros_like(u)),
    "bounded_smooth": ScalarFn("bounded_smooth", _bounded_smooth, _bounded_smooth_d,
                               _bounded_smooth_both),
}


@dataclass(frozen=True)
class RenormConstants:
    """Counterterm constants with provenance ('computed' or 'user-supplied')."""

    values: tuple[float, ...]
    provenance: str = "user-supplied"
    eps_below_grid: bool = False

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("renormalization constants must be finite")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class EquationSpec:
    kind: str
    m: int = 1
    eps: float = 0.0
    g_min: float = 1e-8
    renorm: RenormConstants | None = None
    monitor_eta: float = 0.25
    r_blowup: float = 1e6
    mollifier: MollifierSpec = field(default_factory=MollifierSpec)
    # she1d
    drift_fn: ScalarFn | None = None
    diffusion_fn: ScalarFn | None = None
    # kpz1d: coupling tensor S[i, j, k], shape (m, m, m)
    coupling: tuple | None = None
    symmetric: bool = False
    # phi4_2d: drift -quartic u^3 - mass u (+ Wick counterterm)
    quartic: float = 0.0
    mass: float = 0.0

    def __post_init__(self):
        # the mollifier squares eps, so a negative one would smooth at |eps|
        # while the counterterms took it as zero
        if not self.eps >= 0:
            raise ValueError(f"eps must be >= 0, got {self.eps}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def she(
        cls,
        drift: str | ScalarFn = "zero",
        diffusion: str | ScalarFn = "one",
        eps: float = 0.0,
        g_min: float = 1e-8,
        monitor_eta: float = 0.25,
        r_blowup: float = 1e6,
    ) -> "EquationSpec":
        dr = DRIFTS[drift] if isinstance(drift, str) else drift
        di = DIFFUSIONS[diffusion] if isinstance(diffusion, str) else diffusion
        if g_min <= 0:
            raise ValueError("g_min must be positive")
        return cls(kind="she1d", m=1, eps=eps, g_min=g_min, monitor_eta=monitor_eta,
                   r_blowup=r_blowup, drift_fn=dr, diffusion_fn=di)

    @classmethod
    def kpz(
        cls,
        coupling,
        eps: float,
        renorm: RenormConstants | None = None,
        symmetric: bool = False,
        monitor_eta: float = 0.25,
        r_blowup: float = 1e6,
    ) -> "EquationSpec":
        s = np.asarray(coupling, dtype=np.float64)
        if s.ndim != 3 or len(set(s.shape)) != 1:
            raise ValueError("coupling must have shape (m, m, m)")
        m = s.shape[0]
        if symmetric:
            if not np.allclose(s, np.swapaxes(s, 1, 2)):
                raise ValueError("symmetric coupling requires S[i,j,k] == S[i,k,j]")
            if not np.allclose(s, np.transpose(s, (1, 2, 0))):
                raise ValueError("symmetric coupling requires S[i,j,k] == S[j,k,i]")
        return cls(kind="kpz1d", m=m, eps=eps, renorm=renorm, symmetric=symmetric,
                   monitor_eta=monitor_eta, r_blowup=r_blowup,
                   coupling=tuple(map(tuple, (tuple(map(tuple, si)) for si in s))))

    @classmethod
    def phi4(
        cls,
        quartic: float,
        mass: float = 0.0,
        eps: float = 0.0,
        renorm: RenormConstants | None = None,
        monitor_eta: float = -0.25,
        r_blowup: float = 1e6,
        allow_unstable: bool = False,
    ) -> "EquationSpec":
        """Even quartic potential q/4 u^4 + mass/2 u^2; the drift is minus its
        gradient.  A non-positive quartic coefficient has no global well-posedness
        and must be opted into with ``allow_unstable`` (used for blow-up studies)."""
        if quartic <= 0 and not allow_unstable:
            raise ValueError("quartic coefficient must be positive (pass allow_unstable=True to study blow-up)")
        return cls(kind="phi4_2d", m=1, eps=eps, renorm=renorm, monitor_eta=monitor_eta,
                   r_blowup=r_blowup, quartic=float(quartic), mass=float(mass))

    # -- solver hooks ------------------------------------------------------

    @property
    def dim(self) -> int:
        return 2 if self.kind == "phi4_2d" else 1

    @property
    def coupling_array(self) -> np.ndarray:
        return np.asarray(self.coupling, dtype=np.float64)

    def with_renorm(self, renorm: RenormConstants) -> "EquationSpec":
        from dataclasses import replace

        return replace(self, renorm=renorm)

    def renorm_values(self) -> np.ndarray:
        if self.kind == "she1d":
            return np.zeros(1)
        if self.renorm is None:
            raise ValueError(f"{self.kind} needs renormalization constants; "
                             "call compute_renorm_constants or supply them")
        vals = np.asarray(self.renorm.values, dtype=np.float64)
        if self.kind == "kpz1d" and vals.shape != (self.m,):
            raise ValueError(f"expected {self.m} constants, got {vals.shape}")
        if self.kind == "phi4_2d" and vals.shape != (1,):
            raise ValueError("phi4_2d takes a single Wick constant")
        return vals

    def drift(self, u: np.ndarray, du: np.ndarray | None = None) -> np.ndarray:
        """Drift at u; kpz1d reads it from ``du``, the dealiased gradient of u."""
        if self.kind == "she1d":
            return self.drift_fn.fn(u)
        if self.kind == "phi4_2d":
            c = self.renorm_values()[0]
            return -self.quartic * (u * u * u) - self.mass * u + 3.0 * self.quartic * c * u
        s = self.coupling_array
        quad = np.einsum("ijk,...jx,...kx->...ix", s, du, du)
        return quad - self.renorm_values()[:, None]

    def drift_jvp(self, u: np.ndarray, x: np.ndarray, du: np.ndarray | None = None,
                  dx: np.ndarray | None = None) -> np.ndarray:
        """Derivative of the drift at u along x; kpz1d reads it from the
        dealiased gradients ``du`` and ``dx``."""
        if self.kind == "she1d":
            return self.drift_fn.d_fn(u) * x
        if self.kind == "phi4_2d":
            c = self.renorm_values()[0]
            return (-3.0 * self.quartic * u * u - self.mass + 3.0 * self.quartic * c) * x
        s = self.coupling_array
        return (np.einsum("ijk,...jx,...kx->...ix", s, du, dx)
                + np.einsum("ijk,...jx,...kx->...ix", s, dx, du))

    def g_values(self, u: np.ndarray) -> np.ndarray | None:
        """Pointwise noise coefficient, or None when identically one."""
        if self.kind == "she1d" and self.diffusion_fn.name != "one":
            return self.diffusion_fn.fn(u)
        return None

    def dg_values(self, u: np.ndarray) -> np.ndarray | None:
        if self.kind == "she1d" and self.diffusion_fn.name != "one":
            return self.diffusion_fn.d_fn(u)
        return None

    def noise_coefficients(self, u: np.ndarray, derivative: bool) -> tuple:
        """(g_values(u), dg_values(u)), the second None unless ``derivative``;
        both from one pass where the diffusion has one."""
        if not (self.kind == "she1d" and self.diffusion_fn.name != "one"):
            return None, None
        g = self.diffusion_fn
        if not derivative:
            return g.fn(u), None
        return (g.fn(u), g.d_fn(u)) if g.fn_and_d is None else g.fn_and_d(u)

    def digest_dict(self) -> dict:
        """Stable description for manifests and hashing."""
        d = {"kind": self.kind, "m": self.m, "eps": self.eps, "g_min": self.g_min,
             "monitor_eta": self.monitor_eta, "r_blowup": self.r_blowup}
        if self.kind == "she1d":
            d["drift"] = self.drift_fn.name
            d["diffusion"] = self.diffusion_fn.name
        elif self.kind == "kpz1d":
            d["coupling"] = self.coupling
            d["symmetric"] = self.symmetric
        else:
            d["quartic"] = self.quartic
            d["mass"] = self.mass
        if self.renorm is not None:
            d["renorm"] = {"values": self.renorm.values, "provenance": self.renorm.provenance}
        return d


def _stationary_mode_factors(spec: EquationSpec, grid: Grid, dt: float) -> np.ndarray:
    """Per-mode stationary variance factor rho^2 dt / (1 - exp(-2 lam dt)),
    zero mode excluded (it is undamped and carries no stationary variance)."""
    lam = grid.wavenumbers_sq()
    rho = spec.mollifier.multiplier(grid, spec.eps)
    factors = np.zeros_like(lam)
    nz = lam > 0
    factors[nz] = rho[nz] ** 2 * dt / (-np.expm1(-2.0 * lam[nz] * dt))
    return factors


def compute_renorm_constants(spec: EquationSpec, grid: Grid, dt: float) -> RenormConstants:
    """Wick constants from the lattice covariance of the mollified linear flow.

    For the quartic equation this is the stationary variance of the stochastic
    convolution at a point; for the gradient-quadratic equation it is the
    stationary variance of its spatial derivative, multiplied per component by
    the trace of the coupling tensor.  Both are plain mode sums, so the result
    is deterministic and matches the solver's own stationary statistics at the
    same dt.
    """
    if spec.eps <= 0:
        raise ValueError("renormalization constants need eps > 0")
    below = spec.eps < min(grid.spacing(i) for i in range(grid.dim))
    factors = _stationary_mode_factors(spec, grid, dt)
    if spec.kind == "phi4_2d":
        c = float(np.sum(factors) / grid.volume)
        return RenormConstants((c,), provenance="computed", eps_below_grid=below)
    if spec.kind == "kpz1d":
        grad_var = float(np.sum(grid.wavenumbers_sq() * factors) / grid.volume)
        traces = np.einsum("ikk->i", spec.coupling_array)
        return RenormConstants(tuple(grad_var * traces), provenance="computed",
                               eps_below_grid=below)
    raise ValueError(f"no renormalization constants defined for kind {spec.kind!r}")
