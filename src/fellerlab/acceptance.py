"""The acceptance suite: eleven go/no-go checks with pinned tolerances.

Each criterion is a self-contained function with fixed instances and seeds;
``run_all`` executes them and the CLI ``selftest`` subcommand (and the
pytest module mirroring this) prints one pass/fail line per criterion.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import trees
from .equations import EquationSpec, RenormConstants, compute_renorm_constants
from .grids import Field, Grid, l2_norm
from .harness import _MEAN_AND_MAX, estimate_tv_bound, weighted_expectation
from .noise import (ShiftPath, apply_shift, girsanov_weight, sample_white_noise,
                    zero_noise_path)
from .shift import (CouplingParams, adaptedness_check, build_shift,
                    bump_chi, verify_coupling)
from .solver import DEAD, check_semigroup, evolve
from .tangent import jacobian_apply, malliavin_derivative

__all__ = ["CriterionResult", "CRITERIA", "run_all", "format_result"]


@dataclass
class CriterionResult:
    cid: int
    title: str
    passed: bool
    runtime_s: float
    details: dict = field(default_factory=dict)


def format_result(r: CriterionResult) -> str:
    mark = "PASS" if r.passed else "FAIL"
    return f"criterion {r.cid:2d} [{mark}] {r.title} ({r.runtime_s:.2f}s)"


# ---------------------------------------------------------------------------
# shared instances


def _she_grid(n=64):
    return Grid(dim=1, n=n, extent=(1.0,))


def _nonlinear_she():
    return EquationSpec.she(drift="cubic_decay", diffusion="bounded_smooth", g_min=1.0)


def _state(grid, m=1, amp=0.4):
    x = np.meshgrid(*grid.axes(), indexing="ij")
    phase = sum(2.0 * np.pi * c / e for c, e in zip(x, grid.extent))
    vals = amp * np.cos(phase) + 0.5 * amp * np.sin(2 * phase)
    return Field(grid, np.broadcast_to(vals[None], (m,) + grid.shape))


def _unit_direction(grid, m=1, mode=1):
    x = np.meshgrid(*grid.axes(), indexing="ij")
    phase = sum(2.0 * np.pi * mode * c / e for c, e in zip(x, grid.extent))
    f = Field(grid, np.broadcast_to(np.cos(phase)[None], (m,) + grid.shape))
    return f * (1.0 / l2_norm(f))


def _fit_order(deltas, errors) -> float:
    return float(np.polyfit(np.log(deltas), np.log(errors), 1)[0])


_FD_DELTAS = (1e-3, 5e-4, 2.5e-4)  # finite-difference steps, halving


def _jacobian_fd(u0: Field, v: Field, w, t: float, spec: EquationSpec):
    """Forward differences of the flow from u0 along v, on the noise w from 0
    to t, against ``jacobian_apply``: the L2 error at each of ``_FD_DELTAS``,
    the fitted order and whether it is 1 +- 0.3; None if the base path dies."""
    base = evolve(u0, w, 0.0, t, spec)
    if not base.alive:
        return None
    jv = jacobian_apply(base, v, 0.0, t, spec)
    errors = []
    for d in _FD_DELTAS:
        moved = evolve(u0 + v * d, w, 0.0, t, spec)
        errors.append(l2_norm(Field(u0.grid, (moved.final.values - base.final.values) / d
                                    - jv.values)))
    order = _fit_order(_FD_DELTAS, errors)
    return errors, order, abs(order - 1.0) <= 0.3


# ---------------------------------------------------------------------------
# criteria


def criterion_1() -> dict:
    """Symbolic golden expansions and the seven negative-degree symbols."""
    g32 = trees.renorm_action(trees.glyph("32"))
    want = (trees.FormalSum.of(trees.glyph("32"))
            + trees.FormalSum.of(trees.glyph("30"), trees.C1)
            + trees.FormalSum.of(trees.glyph("12"), trees.C1 * 3)
            + trees.FormalSum.of(trees.glyph("10"), trees.C1 * trees.C1 * 3)
            + trees.FormalSum.of(trees.glyph("1"), trees.C2 * 3))
    plain_ok = g32 == want

    g32h = trees.renorm_action(trees.glyph("32h"))
    want_h = (trees.FormalSum.of(trees.glyph("32h"))
              + trees.FormalSum.of(trees.glyph("30h"), trees.C1)
              + trees.FormalSum.of(trees.glyph("12h"), trees.C1)
              + trees.FormalSum.of(trees.glyph("10h"), trees.C1 * trees.C1)
              + trees.FormalSum.of(trees.glyph("1h"), trees.C2))
    hat_ok = g32h == want_h

    negative = trees.generate_basis(0)
    expected = {trees.XI, trees.glyph("1"), trees.glyph("2"), trees.glyph("3"),
                trees.glyph("32"), trees.glyph("22"), trees.glyph("31")}
    basis_ok = set(negative) == expected and len(negative) == 7
    return {"passed": plain_ok and hat_ok and basis_ok,
            "plain_expansion": plain_ok, "hat_expansion": hat_ok,
            "negative_basis": basis_ok, "negative_count": len(negative)}


def criterion_2() -> dict:
    """Shift and renormalization actions commute on every tree below degree 2."""
    basis = trees.generate_basis(2)
    failures = [trees.format_tree(t) for t in basis if not trees.check_commutation(t)]
    return {"passed": not failures, "n_trees": len(basis), "failures": failures}


def criterion_3() -> dict:
    """Forward differences converge to the tangent flow at first order."""
    grid = _she_grid(64)
    w = sample_white_noise(grid, 1, 4096, 2.0**-12, seed=301)
    errors, order, passed = _jacobian_fd(_state(grid), _unit_direction(grid, mode=2), w, 0.25,
                                         _nonlinear_she())
    return {"passed": passed, "order": order, "errors": errors}


def criterion_4() -> dict:
    """Variation of constants: one sweep equals slice-by-slice transport, and
    noise finite differences converge to it at first order."""
    grid = _she_grid(64)
    spec = _nonlinear_she()
    dt, t = 2.0**-12, 0.25
    k_t = round(t / dt)
    u0 = _state(grid)
    w = sample_white_noise(grid, 1, 4096, dt, seed=401)
    base = evolve(u0, w, 0.0, t, spec)

    x = grid.axes()[0]
    # sparse shift for the slice-by-slice transport oracle (identity is linear
    # in the shift, and a sparse support keeps the oracle runs cheap)
    h_sparse = np.zeros((4096, 1) + grid.shape)
    slices = list(range(64, k_t, 40))
    for i, k in enumerate(slices):
        h_sparse[k, 0] = 0.8 * np.cos(2 * np.pi * (1 + i % 3) * x)
    md_sparse = malliavin_derivative(base, ShiftPath(grid, dt, h_sparse), t, spec)
    acc = np.zeros_like(u0.values)
    for k in slices:
        u_k = base.fields[k]
        g, _ = spec.noise_coefficients(u_k)
        inj = Field(grid, (h_sparse[k] if g is None else g * h_sparse[k]) * dt)
        acc = acc + jacobian_apply(base, inj, (k + 1) * dt, t, spec).values
    rel = l2_norm(Field(grid, md_sparse.values - acc)) / max(l2_norm(md_sparse), 1e-300)

    # dense, stronger shift for the finite-difference convergence, so the
    # quadratic remainder sits far above the float floor
    h_dense = np.zeros((4096, 1) + grid.shape)
    for k in range(64, k_t):
        h_dense[k, 0] = 4.0 * np.cos(2 * np.pi * (1 + k % 3) * x)
    md = malliavin_derivative(base, ShiftPath(grid, dt, h_dense), t, spec)
    errors = []
    for d in _FD_DELTAS:
        moved = evolve(u0, apply_shift(w, ShiftPath(grid, dt, d * h_dense)), 0.0, t, spec)
        errors.append(l2_norm(Field(grid, (moved.final.values - base.final.values) / d
                                    - md.values)))
    order = _fit_order(_FD_DELTAS, errors)
    return {"passed": rel <= 1e-10 and abs(order - 1.0) <= 0.3,
            "sweep_vs_transport_rel": rel, "order": order, "errors": errors}


def criterion_5() -> dict:
    """Coupling identity: exact shift for additive heat, first-order shrinking
    residual for the bounded multiplicative equation."""
    grid = _she_grid(64)
    dt, t = 2.0**-10, 0.25
    k_t = round(t / dt)
    gamma = 0.05
    u = _state(grid)
    u_bar = u + _unit_direction(grid) * gamma
    w = sample_white_noise(grid, 1, 1024, dt, seed=501)

    # additive heat: the built shift must match the closed form slice by slice
    lin = EquationSpec.she(drift="zero", diffusion="one")
    res_lin = build_shift(u, u_bar, w, t, lin, CouplingParams(m_bound=20.0, k_gamma=4))
    lam = grid.wavenumbers_sq()
    diff_modes = np.fft.fft(u.values[0] - u_bar.values[0])
    h_err = 0.0
    for k in range(k_t):
        chi = bump_chi(k / k_t)
        exact = (chi / t) * np.fft.ifft(np.exp(-lam * (k + 1) * dt) * diff_modes).real
        h_err = max(h_err, float(np.max(np.abs(res_lin.h.values[k, 0] - exact))))
    lin_resid = verify_coupling(u, u_bar, w, res_lin.h, t, lin)
    lin_ok = h_err <= 1e-8 and lin_resid <= 1e-8

    # bounded multiplicative noise: residual budget and first-order decrease
    spec = _nonlinear_she()
    resid = {}
    for k_gamma in (16, 32, 64):
        params = CouplingParams(m_bound=20.0, k_gamma=k_gamma)
        res = build_shift(u, u_bar, w, t, spec, params)
        resid[k_gamma] = verify_coupling(u, u_bar, w, res.h, t, spec)
    ratio = resid[16] / resid[32]
    nonlin_ok = resid[64] <= 1e-2 * gamma and 1.6 <= ratio <= 2.4
    return {"passed": lin_ok and nonlin_ok, "h_closed_form_err": h_err,
            "linear_residual": lin_resid, "residuals": resid, "ratio_16_32": ratio}


def criterion_6() -> dict:
    """Cameron-Martin norm bound |h| <= M * gamma on every constructed shift,
    including clamped and frozen runs."""
    grid = _she_grid(32)
    spec = _nonlinear_she()
    dt, t = 2.0**-8, 0.25
    u = _state(grid, amp=0.3)
    checks = []
    saw_clamp = saw_freeze = False
    for i, (m_bound, gamma, cutoff_r, flat) in enumerate([
            (20.0, 0.05, 1e9, False), (20.0, 0.02, 1e9, False),
            (0.05, 0.05, 1e9, True), (0.02, 0.1, 1e9, True),
            (20.0, 0.05, 0.18, False), (20.0, 0.0, 1e9, False)]):
        w = sample_white_noise(grid, 1, 256, dt, seed=600 + i)
        direction = Field.constant(grid, 1.0) if flat else _unit_direction(grid)
        u_bar = u + direction * gamma
        res = build_shift(u, u_bar, w, t, spec,
                          CouplingParams(m_bound=m_bound, k_gamma=8, cutoff_r=cutoff_r))
        ok = res.cm_norm <= m_bound * res.gamma_reached + 1e-9
        checks.append({"m": m_bound, "gamma": gamma, "status": res.status,
                       "cm_norm": res.cm_norm, "ok": ok,
                       "clamp_events": res.diagnostics.get("clamp_events", 0)})
        saw_clamp = saw_clamp or res.diagnostics.get("clamp_events", 0) > 0
        saw_freeze = saw_freeze or res.status == "frozen"
    return {"passed": all(c["ok"] for c in checks) and saw_clamp and saw_freeze,
            "checks": checks, "saw_clamp": saw_clamp, "saw_freeze": saw_freeze}


def criterion_7() -> dict:
    """Replacing the noise beyond s never changes the shift before s."""
    grid = _she_grid(32)
    spec = _nonlinear_she()
    dt, t = 2.0**-8, 0.25
    u = _state(grid, amp=0.3)
    params = CouplingParams(m_bound=20.0, k_gamma=6)
    deviations = []
    for i in range(20):
        gamma = 0.02 + 0.002 * i
        u_bar = u + _unit_direction(grid, mode=1 + i % 3) * gamma
        w_a = sample_white_noise(grid, 1, 256, dt, seed=700 + i)
        w_b = sample_white_noise(grid, 1, 256, dt, seed=7000 + i)
        s = [t / 4, t / 2, 3 * t / 4][i % 3]
        deviations.append(adaptedness_check(u, u_bar, w_a, w_b, s, t, spec, params))
    return {"passed": all(d == 0.0 for d in deviations),
            "max_deviation": max(deviations), "n_instances": len(deviations)}


def criterion_8() -> dict:
    """Reweighting identities: unit-mean martingale weight and matching
    expectations for deterministic and adapted shifts, two functionals."""
    grid = _she_grid(32)
    spec = _nonlinear_she()
    dt, t = 2.0**-7, 0.25
    n_steps, k_t = 128, round(0.25 / 2.0**-7)
    u0 = _state(grid, amp=0.3)
    x = grid.axes()[0]

    h_vals = np.zeros((n_steps, 1) + grid.shape)
    for k in range(k_t):
        h_vals[k, 0] = 0.8 * np.sin(2 * np.pi * x) * bump_chi(k / k_t) / 2.0
    h_det = ShiftPath(grid, dt, h_vals)

    weights = [girsanov_weight(sample_white_noise(grid, 1, n_steps, dt, 801, stream=j), h_det)
               for j in range(10_000)]
    mean_w = float(np.mean(weights))
    se_w = float(np.std(weights, ddof=1) / math.sqrt(len(weights)))
    weight_ok = abs(mean_w - 1.0) <= 3.0 * se_w

    def h_adapted(base_out):
        vals = np.zeros((n_steps, 1) + grid.shape)
        for k in range(k_t):
            vals[k] = 0.5 * np.clip(base_out.fields[k], -1.0, 1.0)
        return ShiftPath(grid, dt, vals)

    z_scores = {}
    for (fname, fn), (hname, hh) in itertools.product(_MEAN_AND_MAX,
                                                      [("det", h_det), ("adapted", h_adapted)]):
        cmp = weighted_expectation(fn, u0, hh, t, spec, n_samples=4000,
                                   seed=810, dt=dt, n_steps=n_steps)
        z_scores[f"{fname}/{hname}"] = cmp.z_score
    z_ok = all(abs(z) <= 3.0 for z in z_scores.values())
    return {"passed": weight_ok and z_ok, "mean_weight": mean_w, "se_weight": se_w,
            "z_scores": z_scores}


def criterion_9() -> dict:
    """Law-distance bound shrinks with gamma at slope >= 0.8 and dominates the
    observed difference of expectations."""
    grid = _she_grid(32)
    spec = _nonlinear_she()
    dt, t = 2.0**-7, 0.25
    u = _state(grid, amp=0.3)
    params = CouplingParams(m_bound=10.0, k_gamma=16)
    gammas = [0.1, 0.05, 0.025]
    reports = []
    for i, gamma in enumerate(gammas):
        u_bar = u + _unit_direction(grid) * gamma
        reports.append(estimate_tv_bound(u, u_bar, t, spec, params, 1000, 900 + i,
                                         dt, n_steps=128, functionals=_MEAN_AND_MAX))
    bounds = [r.bound for r in reports]
    monotone = bounds[0] > bounds[1] > bounds[2]
    slope = _fit_order(gammas, bounds)
    dominance = all(abs(r.mean_diff[i]) <= r.bound + 4.0 * r.se_diff[i]
                    for r in reports for i in range(2))
    return {"passed": monotone and slope >= 0.8 and dominance,
            "bounds": bounds, "slope": slope,
            "fail_probs": [r.fail_prob for r in reports], "dominance": dominance}


def criterion_10() -> dict:
    """Death-state semantics: absorption, fast blow-up of the inverted quartic
    from large data, and bit-exact flow composition."""
    grid2 = Grid(dim=2, n=16, extent=(1.0, 1.0))
    wrong_sign = EquationSpec.phi4(quartic=-1.0, eps=0.0, allow_unstable=True,
                                   monitor_eta=0.0).with_renorm(RenormConstants((0.0,)))
    dt2 = 2.0**-10
    w_zero = zero_noise_path(grid2, 1, 1024, dt2)
    u10 = Field.constant(grid2, 10.0)

    dead_in = evolve(DEAD, w_zero, 0.0, 0.25, wrong_sign)
    absorption = not dead_in.alive and dead_in.reason == "dead_input"

    out = evolve(u10, w_zero, 0.0, 0.25, wrong_sign)
    dies_fast = (not out.alive) and out.blow_up_time is not None and out.blow_up_time <= 0.02

    # once dead, composition through any later time stays dead and is exact
    dead_semigroup = check_semigroup(u10, w_zero, 0.0, 0.0625, 0.125, wrong_sign) == 0.0

    grid = _she_grid(32)
    spec = _nonlinear_she()
    w = sample_white_noise(grid, 1, 256, 2.0**-8, seed=1001)
    alive_semigroup = check_semigroup(_state(grid, amp=0.3), w, 0.0, 0.5, 1.0, spec) == 0.0
    return {"passed": absorption and dies_fast and dead_semigroup and alive_semigroup,
            "blow_up_time": out.blow_up_time, "absorption": absorption,
            "semigroup_alive_exact": alive_semigroup, "semigroup_dead_exact": dead_semigroup}


def criterion_11() -> dict:
    """Counterterm scaling: halving the mollification scale doubles the
    gradient-quadratic constant; trace-free coupling gives exactly zero."""
    grid = Grid(dim=1, n=2048, extent=(1.0,))
    dt = 2.0**-22
    eps = 1.0 / 64.0
    c_eps = compute_renorm_constants(
        EquationSpec.kpz(np.ones((1, 1, 1)), eps=eps, symmetric=True), grid, dt).values[0]
    c_half = compute_renorm_constants(
        EquationSpec.kpz(np.ones((1, 1, 1)), eps=eps / 2, symmetric=True), grid, dt).values[0]
    ratio = c_eps / c_half
    s = np.zeros((3, 3, 3))
    for p in itertools.permutations((0, 1, 2)):
        s[p] = 1.0
    trace_free = compute_renorm_constants(
        EquationSpec.kpz(s, eps=eps, symmetric=True), grid, dt).values
    return {"passed": 0.45 <= ratio <= 0.55 and trace_free == (0.0, 0.0, 0.0),
            "ratio": ratio, "trace_free": trace_free}


CRITERIA = [
    (1, "symbolic golden expansions and negative-degree basis", criterion_1),
    (2, "shift/renormalization commutation below degree 2", criterion_2),
    (3, "tangent flow matches forward differences at first order", criterion_3),
    (4, "variation-of-constants identity and noise differences", criterion_4),
    (5, "coupling identity: closed form and first-order residual", criterion_5),
    (6, "Cameron-Martin norm bound on every shift", criterion_6),
    (7, "shift restriction depends only on past noise", criterion_7),
    (8, "martingale weight identities", criterion_8),
    (9, "law-distance bound scaling and dominance", criterion_9),
    (10, "death-state semantics and exact composition", criterion_10),
    (11, "counterterm scaling in the mollification scale", criterion_11),
]


def run_criterion(cid: int) -> CriterionResult:
    for num, title, fn in CRITERIA:
        if num == cid:
            started = time.time()
            details = fn()
            passed = bool(details.pop("passed"))
            return CriterionResult(cid=num, title=title, passed=passed,
                                   runtime_s=time.time() - started, details=details)
    raise KeyError(f"no criterion {cid}")


def run_all(only=None) -> list[CriterionResult]:
    ids = [c[0] for c in CRITERIA] if not only else list(only)
    return [run_criterion(cid) for cid in ids]
