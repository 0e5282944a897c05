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
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .grids import Grid, _gaussian_multiplier

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
    and optionally both from one pass (``fn_and_d``, same bits as the pair).
    A built-in one is written once, as ``kernel(u, uu, out, derivative)`` ->
    (F, F' or None) from u and uu = u*u into the buffers ``out`` (None: fresh;
    the second is scratch without ``derivative``); fn, d_fn and fn_and_d call it."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    d_fn: Callable[[np.ndarray], np.ndarray]
    fn_and_d: Callable[[np.ndarray], tuple] | None = None
    kernel: Callable | None = None

    def __call__(self, u):
        return self.fn(u)

    def _kernel(self) -> Callable:
        """``kernel``, or one that calls fn, d_fn and fn_and_d and ignores its buffers."""
        both = self.fn_and_d or (lambda u: (self.fn(u), self.d_fn(u)))
        return self.kernel or (lambda u, uu, out, derivative:
                               both(u) if derivative else (self.fn(u), None))


def _from_kernel(name: str, kernel: Callable) -> ScalarFn:
    fresh = lambda u, derivative: kernel(u, u * u, (None, None), derivative)
    return ScalarFn(name, lambda u: fresh(u, False)[0], lambda u: fresh(u, True)[1],
                    lambda u: fresh(u, True), kernel)


def _cubic(c: float) -> Callable:
    """The kernel of the drift sign(c) u^3, derivative c u^2 (c = +-3).  Its
    constant, like _bounded_smooth's, is a 0-d array: the products of the
    Python float, without a scalar conversion on every call."""
    negative, c = c < 0, np.array(c)

    def kernel(u, uu, out, derivative):
        f = np.multiply(uu, u, out[0])
        f = np.negative(f, f) if negative else f
        return f, np.multiply(np.multiply(c, u, out[1]), u, out[1]) if derivative else None
    return kernel


def _bounded_smooth(u, uu, out, derivative, one=np.array(1.0), half=np.array(0.5)):
    # 1 + u^2 / (2 (1 + u^2)): smooth, bounded in [1, 1.5], >= 1 everywhere;
    # its derivative is u / (1 + u^2)^2, with 1 + u^2 formed once
    den = np.add(one, uu, out[1])
    g = np.multiply(half, u, out[0])
    g = np.add(one, np.divide(np.multiply(g, u, g), den, g), g)
    return g, np.divide(u, np.square(den, den), den) if derivative else None


DRIFTS = {
    "zero": _from_kernel("zero", lambda u, uu, out, derivative: (
        np.zeros_like(u), np.zeros_like(u) if derivative else None)),
    "linear_decay": _from_kernel("linear_decay", lambda u, uu, out, derivative: (
        np.negative(u, out[0]), -np.ones_like(u) if derivative else None)),
    "cubic_decay": _from_kernel("cubic_decay", _cubic(-3.0)),
    "cubic_growth": _from_kernel("cubic_growth", _cubic(3.0)),
}

DIFFUSIONS = {
    "one": _from_kernel("one", lambda u, uu, out, derivative: (
        np.ones_like(u), np.zeros_like(u) if derivative else None)),
    "bounded_smooth": _from_kernel("bounded_smooth", _bounded_smooth),
}

_KPZ_SUM = "ijk,...jx,...kx->...ix"  # S^i_jk a^j b^k at every point


@lru_cache(maxsize=1)
def _einsum() -> Callable:
    """The C einsum that ``np.einsum`` calls without ``optimize``, if it gives
    np.einsum's bits into ``out`` on a small kpz1d batch laid out as the
    solver's, else (mismatch or error) ``np.einsum``."""
    try:
        from numpy._core.multiarray import c_einsum
        x = np.cos(np.arange(96) * 0.7).reshape(2, 2, 3, 8)
        s = np.sin(np.arange(27.0)).reshape(3, 3, 3)
        direct = c_einsum(_KPZ_SUM, s, x[:, 0], x[:, 1], out=np.empty((2, 3, 8)))
        same = np.array_equal(direct, np.einsum(_KPZ_SUM, s, x[:, 0], x[:, 1]))
        return c_einsum if same else np.einsum
    except Exception:
        return np.einsum


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
        # while the counterterms took it as zero, and an infinite one is NaN at k = 0
        if not 0 <= self.eps < math.inf:
            raise ValueError(f"eps must be >= 0 and finite, got {self.eps}")
        if not abs(self.monitor_eta) < 2:
            raise ValueError(f"monitor_eta must lie in (-2, 2), got {self.monitor_eta}")
        # the renorm count checked, and coupling and renorm.values made arrays, once
        count = {"kpz1d": self.m, "phi4_2d": 1}.get(self.kind)  # she1d has no counterterm
        renorm = None if self.renorm is None or count is None else self.renorm.values
        if renorm is not None and len(renorm) != count:
            raise ValueError(f"{self.kind} takes {count} renormalization constant(s), "
                             f"got {len(renorm)}")
        for name, value in (("_coupling", self.coupling), ("_renorm", renorm)):
            if value is not None:
                value = np.array(value, dtype=np.float64)
                value.setflags(write=False)
            object.__setattr__(self, name, value)

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

    def with_renorm(self, renorm: RenormConstants) -> "EquationSpec":
        return replace(self, renorm=renorm)

    def renorm_values(self) -> np.ndarray:
        if self.kind == "she1d":
            return np.zeros(1)
        if self._renorm is None:
            raise ValueError(f"{self.kind} needs renormalization constants; "
                             "call compute_renorm_constants or supply them")
        return self._renorm

    def _drift_kernel(self) -> Callable:
        """The drift as a kernel(a, b, out, derivative), kind and constants
        resolved: a ScalarFn kernel of (u, u*u), except kpz1d's, of the dealiased
        gradients (du, dx) of u and a tangent x, giving F and its derivative
        along x into three buffers."""
        if self.kind == "she1d":
            return self.drift_fn._kernel()
        if self.kind == "phi4_2d":
            q, mass, k = self.quartic, self.mass, 3.0 * self.quartic * self.renorm_values()[0]

            def phi4(u, uu, out, derivative):  # -q u^3 - mass u + 3 q C u
                f = np.multiply(-q, np.multiply(uu, u, out[0]), out[0])
                t = np.multiply(mass, u, out[1])
                f = np.add(np.subtract(f, t, f), np.multiply(k, u, t), f)
                if not derivative:
                    return f, None
                d = np.multiply(np.multiply(-3.0 * q, u, out[1]), u, out[1])
                return f, np.add(np.subtract(d, mass, d), k, d)
            return phi4
        einsum, s, c = _einsum(), self._coupling, self.renorm_values()[:, None]
        quad = lambda a, b, o: einsum(_KPZ_SUM, s, a, b, out=np.empty(a.shape) if o is None else o)

        def kpz(du, dx, out, derivative):  # S du du - C, and S du dx + S dx du
            f = quad(du, du, out[0])
            f = np.subtract(f, c, f)
            if not derivative:
                return f, None
            d = quad(du, dx, out[1])
            return f, np.add(d, quad(dx, du, out[2]), d)
        return kpz

    def drift(self, u: np.ndarray, du: np.ndarray | None = None) -> np.ndarray:
        """Drift at u; kpz1d reads it from ``du``, the dealiased gradient of u."""
        a, b = (du, None) if self.kind == "kpz1d" else (u, u * u)
        return self._drift_kernel()(a, b, (None,) * 3, False)[0]

    def drift_jvp(self, u: np.ndarray, x: np.ndarray, du: np.ndarray | None = None,
                  dx: np.ndarray | None = None) -> np.ndarray:
        """Derivative of the drift at u along x; kpz1d reads it from the
        dealiased gradients ``du`` and ``dx``."""
        kpz = self.kind == "kpz1d"
        d = self._drift_kernel()(*((du, dx) if kpz else (u, u * u)), (None,) * 3, True)[1]
        return d if kpz else d * x

    def _noise_kernel(self) -> Callable | None:
        """G as a ScalarFn kernel, None when G is identically one."""
        g = self.diffusion_fn
        return g._kernel() if self.kind == "she1d" and g.name != "one" else None

    def noise_coefficients(self, u: np.ndarray, derivative: bool = False) -> tuple:
        """The pointwise noise coefficient G(u) and, with ``derivative``, its
        derivative G'(u) (else None), both from one pass where the diffusion
        has one; (None, None) when G is identically one."""
        kernel = self._noise_kernel()
        return (None, None) if kernel is None else kernel(u, u * u, (None, None), derivative)

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
    rho = _gaussian_multiplier(grid, spec.eps)
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
        traces = np.einsum("ikk->i", spec._coupling)
        return RenormConstants(tuple(grad_var * traces), provenance="computed",
                               eps_below_grid=below)
    raise ValueError(f"no renormalization constants defined for kind {spec.kind!r}")
