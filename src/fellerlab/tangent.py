"""Linearized flows along stored trajectories.

Each linearization replays the stored path: it evolves it again from its
stored state at the start of the window along the same raw increments
(``FlowOutcome.noise_terms``), with the solver's step carrying the tangent
(``solver._evolve_batch``).  The replayed states equal the stored ones bit
for bit, so ``jacobian_apply`` is the exact derivative of the discrete flow
map (finite differences converge to it at first order in the step).

``malliavin_derivative`` is the derivative of the flow with respect to a
noise-shift direction.  Each slice of the shift enters the state exactly the
way a noise increment does, and the accumulated sum

    sum_k  J_{t_k -> t} ( G(u(t_k)) smooth(h(t_k)) ) dt

is the inhomogeneous linearized equation, evaluated in one replay that
smooths each slice in its step's transforms and adds it to the tangent
after that step, so no more than one smoothed slice is held at a time.
"""

from __future__ import annotations

import numpy as np

from .equations import EquationSpec
from .grids import Field
from .noise import ShiftPath
from .solver import FlowOutcome, NondegeneracyError, _evolve_batch, _Paths

__all__ = ["jacobian_apply", "tangent_sweep", "malliavin_derivative"]


def _replay(outcome: FlowOutcome, v: Field, j_s: int, j_t: int, spec: EquationSpec,
            inject: np.ndarray | None = None, final_only: bool = False) -> _Paths:
    """Steps j_s..j_t of the live ``outcome`` evolved again, a batch of one
    carrying the tangent from ``v`` at step j_s; ``inject`` (j_t - j_s, 1, m,
    *grid), raw shift slices, and ``final_only`` go to the evolve.  A replay
    under a spec stricter than the path's own can die; it then raises
    (NondegeneracyError for a low G)."""
    if not outcome.alive:
        raise ValueError("linearization requires a live trajectory")
    if j_s > j_t:
        raise ValueError("need s <= t")
    if v.grid != outcome.grid or v.m != outcome.m:
        raise ValueError("tangent vector incompatible with trajectory")
    paths = _evolve_batch(outcome.fields[j_s][None], outcome.noise_terms[j_s:j_t, None], spec,
                          outcome.grid, outcome.dt, x0=v.values[None], inject=inject,
                          final_only=final_only)
    reason = paths.reasons[0]
    if reason is not None:
        error = NondegeneracyError if reason == "nondegenerate" else ValueError
        raise error(f"replay dies at step {j_s + paths.death_step[0]} ({reason}) under this spec")
    return paths


def tangent_sweep(outcome: FlowOutcome, v: Field, s: float, t: float,
                  spec: EquationSpec) -> np.ndarray:
    """All intermediate values J_{s, s+j dt} v, shape (J+1, m, spatial)."""
    return _replay(outcome, v, outcome.time_index(s), outcome.time_index(t), spec).tangent[:, 0]


def jacobian_apply(outcome: FlowOutcome, v: Field, s: float, t: float,
                   spec: EquationSpec) -> Field:
    """Derivative of the flow in its initial state: J_{s,t} v along ``outcome``."""
    paths = _replay(outcome, v, outcome.time_index(s), outcome.time_index(t), spec,
                    final_only=True)
    return Field(outcome.grid, paths.tangent[-1, 0])


def malliavin_derivative(outcome: FlowOutcome, h: ShiftPath, t: float,
                         spec: EquationSpec) -> Field:
    """Directional derivative of the flow at time ``t`` along the shift ``h``.

    One replay of the inhomogeneous linearized equation from a zero tangent;
    the result is the exact derivative of the discrete flow under
    w -> w + delta h at delta = 0.
    """
    if outcome.s != 0.0:
        raise ValueError("noise derivatives are taken along trajectories started at time 0")
    h._check_pair(outcome, "shift incompatible with trajectory")
    j_t = outcome.time_index(t)
    if h.n_steps < j_t:
        raise ValueError(f"shift has {h.n_steps} slices, t needs {j_t}")
    zero = Field.zeros(outcome.grid, outcome.m)
    paths = _replay(outcome, zero, 0, j_t, spec, h.values[:j_t, None], final_only=True)
    return Field(outcome.grid, paths.tangent[-1, 0])
