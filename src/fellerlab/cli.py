"""Command-line experiment runner.

Subcommands: solve | couple | tv | jacobian-check | symbols | renorm |
selftest.  Runs are driven by a flat key-value config file (see README) plus
a few flags; a key the commands do not read is a configuration error.  Every
run writes a JSON manifest whose digest covers the reproducible inputs, so
identical config + seed gives an identical digest.

Exit codes: 0 success / trajectory alive, 2 configuration error (any fault
found while the run is built from its config and arguments), 3 trajectory
dead, 1 failed checks or a fault raised by the numerics.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .equations import EquationSpec, RenormConstants, compute_renorm_constants
from .grids import Field, Grid, l2_norm
from .harness import estimate_tv_sweep
from .noise import NoisePath, sample_white_noise, zero_noise_path
from .shift import CouplingParams, build_shift, verify_coupling
from .solver import _check_state, _evolve_batch, _step_range, evolve, get_workspace
from .storage import load_config, write_field, write_manifest, write_path
from .tangent import jacobian_apply
from . import acceptance, trees

__all__ = ["main"]


class ConfigError(ValueError):
    pass


# Every config key the commands read.
_CONFIG_KEYS = frozenset({
    "equation.kind", "equation.drift", "equation.diffusion", "equation.g_min",
    "equation.eps", "equation.m", "equation.coupling", "equation.symmetric",
    "equation.quartic", "equation.mass", "equation.allow_unstable",
    "equation.monitor_eta", "equation.r_blowup", "equation.renorm",
    "grid.dim", "grid.n", "grid.extent",
    "time.dt", "time.t", "time.t_max",
    "initial.kind", "initial.amplitude", "initial.value", "initial.mode", "initial.seed",
    "noise.amplitude",
    "coupling.gamma", "coupling.gamma_list", "coupling.m_bound", "coupling.k_gamma",
    "coupling.cutoff_r", "coupling.tol",
    "harness.n_samples", "harness.seed",
    "output.dir", "output.snapshot_stride",
})


@contextmanager
def _reading_input():
    """Report a ValueError raised while a run is built from its config and
    arguments as a ConfigError, so that it is not taken for a numerical fault."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _load_config(path) -> dict:
    """The config file at ``path``; a file that cannot be read, or an unknown
    key, is a ConfigError (the latter names the nearest valid key)."""
    with _reading_input():
        try:
            cfg = load_config(path)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {str(path)!r}: "
                              f"{exc.strerror or exc}") from exc
    for key in cfg:
        if key not in _CONFIG_KEYS:
            import difflib
            near = difflib.get_close_matches(key, _CONFIG_KEYS, n=1)
            hint = f"; did you mean {near[0]!r}?" if near else ""
            raise ConfigError(f"unknown config key {key!r}{hint}")
    return cfg


def _get(cfg: dict, key: str, default=None, required: bool = False) -> str:
    assert key in _CONFIG_KEYS, f"{key!r} missing from _CONFIG_KEYS"
    if key in cfg:
        return cfg[key]
    if required:
        raise ConfigError(f"missing config key {key!r}")
    return default


def _get_float(cfg, key, default=None, required=False):
    raw = _get(cfg, key, None, required)
    return float(raw) if raw is not None else default


def _get_int(cfg, key, default=None, required=False):
    raw = _get(cfg, key, None, required)
    return int(raw) if raw is not None else default


def _get_bool(cfg, key, default=False):
    raw = _get(cfg, key)
    if raw is None:
        return default
    if raw.lower() in ("true", "yes", "1"):
        return True
    if raw.lower() in ("false", "no", "0"):
        return False
    raise ConfigError(f"{key} must be a boolean, got {raw!r}")


def build_grid(cfg: dict) -> Grid:
    dim = _get_int(cfg, "grid.dim", 1)
    n = _get_int(cfg, "grid.n", required=True)
    extent = _get_float(cfg, "grid.extent", 1.0)
    return Grid(dim=dim, n=n, extent=(extent,) * dim)


def build_spec(cfg: dict) -> EquationSpec:
    kind = _get(cfg, "equation.kind", required=True)
    eps = _get_float(cfg, "equation.eps", 0.0)
    if kind == "she1d":
        spec = EquationSpec.she(
            drift=_get(cfg, "equation.drift", "zero"),
            diffusion=_get(cfg, "equation.diffusion", "one"),
            eps=eps, g_min=_get_float(cfg, "equation.g_min", 1e-8))
    elif kind == "kpz1d":
        m = _get_int(cfg, "equation.m", 1)
        raw = _get(cfg, "equation.coupling", "1.0")
        vals = [float(v) for v in raw.split(",")]
        if len(vals) == 1 and m == 1:
            s = np.array(vals).reshape(1, 1, 1)
        elif len(vals) == m**3:
            s = np.array(vals).reshape(m, m, m)
        else:
            raise ConfigError(f"equation.coupling needs 1 or m^3 = {m**3} values")
        spec = EquationSpec.kpz(s, eps=eps, symmetric=_get_bool(cfg, "equation.symmetric"))
    elif kind == "phi4_2d":
        spec = EquationSpec.phi4(
            quartic=_get_float(cfg, "equation.quartic", 1.0),
            mass=_get_float(cfg, "equation.mass", 0.0), eps=eps,
            allow_unstable=_get_bool(cfg, "equation.allow_unstable"))
    else:
        raise ConfigError(f"unknown equation.kind {kind!r}")
    eta = _get_float(cfg, "equation.monitor_eta")
    blow = _get_float(cfg, "equation.r_blowup")
    if eta is not None or blow is not None:
        from dataclasses import replace
        spec = replace(spec, **{k: v for k, v in
                                (("monitor_eta", eta), ("r_blowup", blow)) if v is not None})
    return spec


def attach_renorm(spec: EquationSpec, grid: Grid, dt: float, cfg: dict) -> EquationSpec:
    if spec.kind == "she1d" or spec.renorm is not None:
        return spec
    raw = _get(cfg, "equation.renorm")
    if raw is not None:
        vals = tuple(float(v) for v in raw.split(","))
        return spec.with_renorm(RenormConstants(vals, provenance="user-supplied"))
    if spec.eps > 0:
        return spec.with_renorm(compute_renorm_constants(spec, grid, dt))
    return spec.with_renorm(RenormConstants((0.0,) * (spec.m if spec.kind == "kpz1d" else 1),
                                            provenance="user-supplied"))


def build_initial(cfg: dict, grid: Grid, m: int) -> Field:
    kind = _get(cfg, "initial.kind", "zero")
    amp = _get_float(cfg, "initial.amplitude", 1.0)
    if kind == "zero":
        return Field.zeros(grid, m)
    if kind == "constant":
        return Field.constant(grid, _get_float(cfg, "initial.value", amp), m)
    if kind == "cosine":
        mode = _get_int(cfg, "initial.mode", 1)
        def profile(*coords):
            phase = sum(2.0 * np.pi * mode * c / e for c, e in zip(coords, grid.extent))
            return amp * np.cos(phase)
        return Field.from_function(grid, profile, m)
    if kind == "random":
        rng = np.random.default_rng(_get_int(cfg, "initial.seed", 0))
        vals = np.zeros((m,) + grid.shape)
        xs = grid.axes()
        for mode in range(1, 4):
            for comp in range(m):
                a, b = rng.normal(size=2) / mode
                phase = sum(2.0 * np.pi * mode * c / e for c, e in zip(np.meshgrid(*xs, indexing="ij"), grid.extent))
                vals[comp] += amp * (a * np.cos(phase) + b * np.sin(phase))
        return Field(grid, vals)
    raise ConfigError(f"unknown initial.kind {kind!r}")


def build_noise(cfg: dict, grid: Grid, m: int, n_steps: int, dt: float, seed: int):
    """Sampled path scaled by noise.amplitude (0 gives the zero path)."""
    amp = _get_float(cfg, "noise.amplitude", 1.0)
    if amp == 0.0:
        return zero_noise_path(grid, m, n_steps, dt)
    w = sample_white_noise(grid, m, n_steps, dt, seed)
    if amp == 1.0:
        return w
    return NoisePath(grid, dt, amp * w.increments, seed_info=w.seed_info)


def build_times(cfg: dict):
    dt = _get_float(cfg, "time.dt", required=True)
    t = _get_float(cfg, "time.t", 0.25)
    t_max = _get_float(cfg, "time.t_max", 1.0)
    if not (t <= 1.0 + 1e-12 <= t_max + 1e-12):
        raise ConfigError(f"need t <= 1 <= t_max, got t={t}, t_max={t_max}")
    if abs(t / dt - round(t / dt)) > 1e-9:
        raise ConfigError(f"time.t = {t} is not a multiple of time.dt = {dt}")
    n_steps = round(t_max / dt)
    if abs(n_steps * dt - t_max) > 1e-9:
        raise ConfigError("t_max must be a multiple of dt")
    return dt, t, n_steps


def build_coupling(cfg: dict) -> tuple[CouplingParams, float]:
    gamma = _get_float(cfg, "coupling.gamma", 0.05)
    params = CouplingParams(
        m_bound=_get_float(cfg, "coupling.m_bound", required=True),
        k_gamma=_get_int(cfg, "coupling.k_gamma", 16),
        cutoff_r=_get_float(cfg, "coupling.cutoff_r", 1e9),
        tol=_get_float(cfg, "coupling.tol"))
    _check_budget("coupling.gamma", gamma, params)
    return params, gamma


def _check_budget(key: str, gamma: float, params: CouplingParams):
    if gamma * params.m_bound > 1.0 + 1e-12:
        raise ConfigError(
            f"{key} * coupling.m_bound = {gamma * params.m_bound:g} > 1; "
            "the exponential-moment budget needs gamma * M <= 1")


def _displaced_state(u: Field, gamma: float) -> Field:
    direction = Field.from_function(u.grid, lambda *cs: np.cos(
        sum(2.0 * np.pi * c / e for c, e in zip(cs, u.grid.extent))), u.m)
    return u + direction * (gamma / l2_norm(direction))


def _base_manifest(cfg: dict, seed: int) -> dict:
    return {"version": __version__, "config": cfg, "seed": seed}


def _finish_manifest(out_dir: Path, manifest: dict, started: float) -> dict:
    manifest["wall_clock_s"] = time.time() - started
    return write_manifest(out_dir / "manifest.json", manifest)


def cmd_solve(args) -> int:
    cfg = _load_config(args.config)
    started = time.time()
    with _reading_input():
        grid = build_grid(cfg)
        dt, t, n_steps = build_times(cfg)
        spec = attach_renorm(build_spec(cfg), grid, dt, cfg)
        seed = args.seed if args.seed is not None else _get_int(cfg, "harness.seed", 0)
        u0 = build_initial(cfg, grid, spec.m)
        w = build_noise(cfg, grid, spec.m, n_steps, dt, seed)
        stride = _get_int(cfg, "output.snapshot_stride", 0)
    # without snapshots only the final state is written, so only it is kept
    _, k_t = _step_range(0.0, t, dt, w.n_steps)
    _check_state(u0, grid, w.m, spec)
    increments = w.increments[:k_t]
    paths = _evolve_batch(u0.values[None], increments[:, None], spec,
                          get_workspace(grid, dt, spec), final_only=not stride)
    out = paths.outcome(0, grid, 0.0, t, dt, increments)

    out_dir = Path(args.out or _get(cfg, "output.dir", "out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    write_field(out_dir / "state_initial.flb", u0)
    if stride:
        for j in range(0, out.n_stored, stride):
            write_field(out_dir / f"state_{j:06d}.flb", Field(grid, out.fields[j]))
    if out.alive:
        write_field(out_dir / "state_final.flb", out.final)

    manifest = _base_manifest(cfg, seed)
    manifest.update({
        "command": "solve", "alive": out.alive,
        "blow_up_time": out.blow_up_time, "reason": out.reason,
        "monitor_final": float(out.monitor_trace[-1]) if out.monitor_trace.size else None,
        "equation": spec.digest_dict(),
    })
    manifest = _finish_manifest(out_dir, manifest, started)
    print(f"status: {'alive' if out.alive else f'dead at {out.blow_up_time} ({out.reason})'}")
    print(f"manifest digest: {manifest['digest']}")
    return 0 if out.alive else 3


def cmd_couple(args) -> int:
    cfg = _load_config(args.config)
    started = time.time()
    with _reading_input():
        grid = build_grid(cfg)
        dt, t, n_steps = build_times(cfg)
        spec = attach_renorm(build_spec(cfg), grid, dt, cfg)
        seed = args.seed if args.seed is not None else _get_int(cfg, "harness.seed", 0)
        params, gamma = build_coupling(cfg)
        u = build_initial(cfg, grid, spec.m)
        u_bar = _displaced_state(u, gamma)
        w = build_noise(cfg, grid, spec.m, n_steps, dt, seed)

    result = build_shift(u, u_bar, w, t, spec, params)
    residual = verify_coupling(u, u_bar, w, result.h, t, spec)

    out_dir = Path(args.out or _get(cfg, "output.dir", "out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    write_path(out_dir / "shift.flb", result.h)
    manifest = _base_manifest(cfg, seed)
    manifest.update({
        "command": "couple", "status": result.status, "gamma": gamma,
        "gamma_reached": result.gamma_reached, "cm_norm": result.cm_norm,
        "residual": residual, "m_bound": result.a_bound_used,
        "clamp_events": result.diagnostics.get("clamp_events"),
        "equation": spec.digest_dict(),
    })
    manifest = _finish_manifest(out_dir, manifest, started)
    print(f"status: {result.status}  |h|_CM = {result.cm_norm:.6g}  "
          f"relative residual = {residual:.3e}")
    print(f"manifest digest: {manifest['digest']}")
    return 0


def cmd_tv(args) -> int:
    cfg = _load_config(args.config)
    started = time.time()
    with _reading_input():
        grid = build_grid(cfg)
        dt, t, n_steps = build_times(cfg)
        spec = attach_renorm(build_spec(cfg), grid, dt, cfg)
        seed = args.seed if args.seed is not None else _get_int(cfg, "harness.seed", 0)
        params, gamma_single = build_coupling(cfg)
        gammas_raw = _get(cfg, "coupling.gamma_list")
        gammas = [float(v) for v in gammas_raw.split(",")] if gammas_raw else [gamma_single]
        for gamma in gammas:
            _check_budget("coupling.gamma_list entry", gamma, params)
        n_samples = _get_int(cfg, "harness.n_samples", 100)
        u = build_initial(cfg, grid, spec.m)

    functionals = [
        ("clamped_mean", lambda f: float(np.mean(f.values))),
        ("clamped_max", lambda f: float(np.max(f.values))),
    ]
    out_dir = Path(args.out or _get(cfg, "output.dir", "out"))
    out_dir.mkdir(parents=True, exist_ok=True)

    rows, summaries = [], []
    reports = estimate_tv_sweep(u, [_displaced_state(u, gamma) for gamma in gammas], t, spec,
                                params, n_samples, seed, dt, n_steps=n_steps,
                                functionals=functionals)
    for gamma, report in zip(gammas, reports):
        summaries.append({
            "gamma": gamma, "bound": report.bound, "fail_prob": report.fail_prob,
            "fail_interval": report.fail_interval,
            "mean_h_norm_sq": report.mean_h_norm_sq,
            "mean_diff": report.mean_diff, "se_diff": report.se_diff,
        })
        for r in report.records:
            rows.append((gamma, r.index, r.status, r.residual, r.h_norm_sq,
                         *r.f_from_u, *r.f_from_ubar))
        print(f"gamma={gamma:g}: bound={report.bound:.4g} "
              f"fail={report.fail_prob:.3g} mean|h|^2={report.mean_h_norm_sq:.4g}")

    with open(out_dir / "tv_samples.csv", "w") as fh:
        fh.write("gamma,sample,status,residual,h_norm_sq,"
                 + ",".join(f"{n}_from_u" for n, _ in functionals) + ","
                 + ",".join(f"{n}_from_ubar" for n, _ in functionals) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    with open(out_dir / "tv_bound_vs_gamma.csv", "w") as fh:
        fh.write("gamma,bound\n")
        for s in summaries:
            fh.write(f"{s['gamma']},{s['bound']}\n")
    manifest = _base_manifest(cfg, seed)
    manifest.update({"command": "tv", "summaries": summaries,
                     "equation": spec.digest_dict(), "n_samples": n_samples})
    manifest = _finish_manifest(out_dir, manifest, started)
    print(f"manifest digest: {manifest['digest']}")
    return 0


def cmd_jacobian_check(args) -> int:
    cfg = _load_config(args.config)
    with _reading_input():
        grid = build_grid(cfg)
        dt, t, n_steps = build_times(cfg)
        spec = attach_renorm(build_spec(cfg), grid, dt, cfg)
        seed = args.seed if args.seed is not None else _get_int(cfg, "harness.seed", 0)
        u0 = build_initial(cfg, grid, spec.m)
        w = build_noise(cfg, grid, spec.m, n_steps, dt, seed)
    base = evolve(u0, w, 0.0, t, spec)
    if not base.alive:
        print("trajectory dead; cannot differentiate", file=sys.stderr)
        return 3
    v = _displaced_state(Field.zeros(grid, spec.m), 1.0)
    jv = jacobian_apply(base, v, 0.0, t, spec)
    deltas = [1e-3, 5e-4, 2.5e-4]
    errs = []
    for d in deltas:
        moved = evolve(u0 + v * d, w, 0.0, t, spec)
        fd = Field(grid, (moved.final.values - base.final.values) / d)
        errs.append(l2_norm(fd - jv))
    slope = float(np.polyfit(np.log(deltas), np.log(errs), 1)[0])
    for d, e in zip(deltas, errs):
        print(f"delta={d:g}  fd_error={e:.6e}")
    print(f"fitted order: {slope:.3f}")
    return 0 if abs(slope - 1.0) <= 0.3 else 1


def cmd_symbols(args) -> int:
    bound = trees.DegreeValue(*args.max_degree)
    basis = trees.generate_basis(bound, hat=args.hat)
    if args.csv:
        print("tree,degree_base,degree_kappa")
        for t in basis:
            d = trees.degree(t)
            print(f"{trees.format_tree(t)},{d.base},{d.kappa}")
    else:
        for t in basis:
            print(f"{trees.format_tree(t):<44} deg = {trees.degree(t)}")
    print(f"# {len(basis)} trees below degree {bound}", file=sys.stderr)
    return 0


def cmd_renorm(args) -> int:
    with _reading_input():
        expr = trees.parse_expr(args.expr)
    if args.op == "mg":
        g = None if args.c1 is None and args.c2 is None else (args.c1 or 0, args.c2 or 0)
        out = trees.renorm_action(expr, g)
    else:
        out = trees.shift_operator(expr)
    print(trees.format_sum(out))
    return 0


def cmd_selftest(args) -> int:
    started = time.time()
    results = acceptance.run_all(only=args.only)
    for r in results:
        print(acceptance.format_result(r))
    passed = all(r.passed for r in results)
    print(f"{'ALL PASS' if passed else 'FAILURES PRESENT'} "
          f"({len(results)} criteria, {time.time() - started:.1f}s)")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        manifest = {"version": __version__, "command": "selftest",
                    "criteria": [{"id": r.cid, "title": r.title, "passed": r.passed,
                                  "details": r.details} for r in results]}
        manifest["wall_clock_s"] = time.time() - started
        write_manifest(out_dir / "selftest_manifest.json", manifest)
    return 0 if passed else 1


def _parse_degree(text: str) -> tuple:
    """'2' or '-5/2' or '0,-4' (base[,kappa coefficient])."""
    parts = text.split(",")
    base = Fraction(parts[0].strip())
    kappa = int(parts[1]) if len(parts) > 1 else 0
    return (base, kappa)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fellerlab",
                                     description="noise-shift coupling lab")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.set_defaults(fn=fn)
        return p

    add_run("solve", cmd_solve, "evolve one trajectory and store snapshots")
    add_run("couple", cmd_couple, "build and verify a compensating shift")
    add_run("tv", cmd_tv, "Monte-Carlo law-distance bound")
    add_run("jacobian-check", cmd_jacobian_check, "finite-difference check of the tangent flow")

    p_sym = sub.add_parser("symbols", help="enumerate basis trees with degrees")
    p_sym.add_argument("--max-degree", type=_parse_degree, default=(0,))
    p_sym.add_argument("--hat", action="store_true")
    p_sym.add_argument("--csv", action="store_true")
    p_sym.set_defaults(fn=cmd_symbols)

    p_ren = sub.add_parser("renorm", help="apply the renormalization or shift action")
    p_ren.add_argument("--expr", required=True)
    p_ren.add_argument("--op", choices=("mg", "z"), default="mg")
    p_ren.add_argument("--c1", type=int, default=None)
    p_ren.add_argument("--c2", type=int, default=None)
    p_ren.set_defaults(fn=cmd_renorm)

    p_self = sub.add_parser("selftest", help="run the acceptance suite")
    p_self.add_argument("--only", type=int, nargs="*", default=None)
    p_self.add_argument("--out", default=None)
    p_self.set_defaults(fn=cmd_selftest)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
