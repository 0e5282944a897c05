"""Linearized flows along stored trajectories.

``jacobian_apply`` propagates a state variation with the same exponential
Euler rule as the primal solver, reusing the stored states and stored
mollified noise increments, so it is the exact derivative of the discrete
flow map (finite differences converge to it at first order in the step).
The shift construction does not replay it: the solver carries the same
tangent step along the path as it evolves (``solver._evolve_batch``).

``malliavin_derivative`` is the derivative of the flow with respect to a
noise-shift direction.  Each slice of the shift enters the state exactly the
way a noise increment does, and the accumulated sum

    sum_k  J_{t_k -> t} ( G(u(t_k)) smooth(h(t_k)) ) dt

is evaluated with a single forward linearized sweep (the inhomogeneous
linearized equation), injections added as the sweep passes each slice.
"""

from __future__ import annotations

import numpy as np

from .equations import EquationSpec
from .grids import Field
from .noise import ShiftPath
from .solver import FlowOutcome, _tangent_input, _tangent_output, get_workspace

__all__ = ["jacobian_apply", "tangent_sweep", "malliavin_derivative"]


def _require_covering(outcome: FlowOutcome, s: float, t: float):
    if not outcome.alive:
        raise ValueError("linearization requires a live trajectory")
    if s < outcome.s - 1e-12 or t > outcome.t + 1e-12:
        raise ValueError(f"[{s}, {t}] not covered by trajectory [{outcome.s}, {outcome.t}]")


def _tangent_step(x, u, dwe, spec: EquationSpec, ws):
    """One tangent step along the stored state u and smoothed increment dwe,
    with the same arithmetic as the tangent carried by ``_evolve_batch``."""
    du = dx = None
    if ws.gradient is not None:
        _, (du, dx) = ws.transform([(u, "gradient"), (x, "gradient")])
    _, (heated,) = ws.transform([(_tangent_input(x, u, du, dx, spec, ws.dt), "decay")])
    return _tangent_output(heated, x, u, dwe, spec)


def _sweep(fields: np.ndarray, noise: np.ndarray, x0: np.ndarray, steps: np.ndarray,
           spec: EquationSpec, ws) -> np.ndarray:
    """Tangent values along B stored paths at once.

    ``fields`` (J+1, B, m, *grid) and ``noise`` (J, B, m, *grid) are
    time-major paths, ``x0`` (B, m, *grid) the starting variations.  Row b
    takes ``steps[b]`` steps; the result (max(steps)+1, B, m, *grid) holds
    x after j steps in entry j, and zeros past a row's last step.
    """
    n_rows = x0.shape[0]
    out = np.zeros((int(steps.max()) + 1,) + x0.shape)
    x = np.array(x0, dtype=np.float64)
    out[0] = x
    rows = np.arange(n_rows)
    sel = slice(None)  # basic-slice stand-in for ``rows`` while every row is moving
    stop = steps.min()
    for j in range(out.shape[0] - 1):
        if j >= stop:
            going = steps[rows] > j
            rows, x = rows[going], x[going]
            sel = rows
            stop = steps[rows].min()
        x = _tangent_step(x, fields[j, sel], noise[j, sel], spec, ws)
        out[j + 1, sel] = x
    return out


def tangent_sweep(outcome: FlowOutcome, v: Field, s: float, t: float,
                  spec: EquationSpec) -> np.ndarray:
    """All intermediate values J_{s, s+j dt} v, shape (J+1, m, spatial)."""
    _require_covering(outcome, s, t)
    ws = get_workspace(outcome.grid, outcome.dt, spec)
    j_s = outcome.time_index(s)
    j_t = outcome.time_index(t)
    return _sweep(outcome.fields[j_s:j_t + 1, None], outcome.noise_terms[j_s:j_t, None],
                  v.values[None], np.array([j_t - j_s]), spec, ws)[:, 0]


def jacobian_apply(outcome: FlowOutcome, v: Field, s: float, t: float,
                   spec: EquationSpec) -> Field:
    """Derivative of the flow in its initial state: J_{s,t} v along ``outcome``."""
    if v.grid != outcome.grid or v.m != outcome.m:
        raise ValueError("tangent vector incompatible with trajectory")
    return Field(outcome.grid, tangent_sweep(outcome, v, s, t, spec)[-1])


def malliavin_derivative(outcome: FlowOutcome, h: ShiftPath, t: float,
                         spec: EquationSpec) -> Field:
    """Directional derivative of the flow at time ``t`` along the shift ``h``.

    One forward sweep of the inhomogeneous linearized equation; the result is
    the exact derivative of the discrete flow under w -> w + delta h at
    delta = 0.
    """
    _require_covering(outcome, outcome.s, t)
    if outcome.s != 0.0:
        raise ValueError("noise derivatives are taken along trajectories started at time 0")
    if h.grid != outcome.grid or h.dt != outcome.dt:
        raise ValueError("shift incompatible with trajectory")
    ws = get_workspace(outcome.grid, outcome.dt, spec)
    j_t = outcome.time_index(t)
    dt = outcome.dt
    acc = np.zeros_like(outcome.fields[:1])  # a batch of one
    for j in range(j_t):
        u = outcome.fields[j:j + 1]
        acc = _tangent_step(acc, u, outcome.noise_terms[j:j + 1], spec, ws)
        _, (hj,) = ws.transform([(h.values[j:j + 1], "moll")])
        g = spec.g_values(u)
        acc = acc + (hj if g is None else g * hj) * dt
    return Field(outcome.grid, acc[0])
