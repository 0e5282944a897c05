"""Command-line experiment runner.

Subcommands: solve | couple | tv | jacobian-check | symbols | renorm |
selftest.  Runs are driven by a flat key-value config file (see README) plus
a few flags.  ``_KEYS`` gives each config key its parser and default; a file
with an unknown key or a malformed value, whatever the command reads, is a
configuration error.  Every run writes a JSON manifest whose digest covers
the reproducible inputs, so identical config + seed gives an identical digest.

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
from .equations import DIFFUSIONS, DRIFTS, EquationSpec, RenormConstants, compute_renorm_constants
from .grids import Field, Grid, l2_norm
from .harness import estimate_tv_sweep
from .noise import NoisePath, _draw_increments, sample_white_noise
from .shift import CouplingParams, _shift_slices, build_shift, verify_coupling
from .solver import _check_state, _evolve_batch, _step_range, evolve, get_workspace
from .storage import load_config, write_field, write_manifest, write_path
from .tangent import jacobian_apply
from . import acceptance, trees

__all__ = ["main"]


class ConfigError(ValueError):
    pass


def _checked(cast, ok, rule: str):
    """A parser that casts a raw value and rejects a value failing ``ok``."""
    def parse(raw: str):
        value = cast(raw)
        if not ok(value):
            raise ValueError(rule)
        return value
    return parse


def _choice(*names: str):
    return _checked(str, set(names).__contains__, "expected one of " + ", ".join(names))


def _bool(raw: str) -> bool:
    if raw.lower() not in ("true", "yes", "1", "false", "no", "0"):
        raise ValueError("expected true/false, yes/no or 1/0")
    return raw.lower() in ("true", "yes", "1")


def _floats(raw: str) -> tuple:
    return tuple(float(v) for v in raw.split(","))


_REQUIRED = object()  # the default of a key the file must give
# Every config key: its parser and its default.  A key named after a parameter
# of the EquationSpec constructors or of CouplingParams defaults to None and is
# passed on only when the file gives it, so the library's default is the only one.
_KEYS = {
    "equation.kind": (_choice("she1d", "kpz1d", "phi4_2d"), _REQUIRED),
    "equation.drift": (_choice(*DRIFTS), None),
    "equation.diffusion": (_choice(*DIFFUSIONS), None),
    "equation.g_min": (float, None),
    "equation.eps": (_checked(float, lambda v: v >= 0, "must be >= 0"), 0.0),
    "equation.m": (int, 1),
    "equation.coupling": (_floats, (1.0,)),
    "equation.symmetric": (_bool, None),
    "equation.quartic": (float, 1.0),
    "equation.mass": (float, None),
    "equation.allow_unstable": (_bool, None),
    "equation.monitor_eta": (float, None),
    "equation.r_blowup": (float, None),
    "equation.renorm": (_floats, None),
    "grid.dim": (int, 1),
    "grid.n": (int, _REQUIRED),
    "grid.extent": (float, 1.0),
    "time.dt": (_checked(float, lambda v: 0 < v < np.inf, "must be > 0 and finite"), _REQUIRED),
    "time.t": (float, 0.25),
    "time.t_max": (float, 1.0),
    "initial.kind": (_choice("zero", "constant", "cosine", "random"), "zero"),
    "initial.amplitude": (float, 1.0),
    "initial.value": (float, None),  # unset: initial.amplitude
    "initial.mode": (int, 1),
    "initial.seed": (_checked(int, lambda v: v >= 0, "must be >= 0"), 0),
    "noise.amplitude": (float, 1.0),
    "coupling.gamma": (float, 0.05),
    "coupling.gamma_list": (_floats, None),  # unset: coupling.gamma alone
    "coupling.m_bound": (float, _REQUIRED),
    "coupling.k_gamma": (int, 16),
    "coupling.cutoff_r": (float, None),
    "coupling.tol": (float, None),
    "harness.n_samples": (_checked(int, lambda v: v >= 1, "must be >= 1"), 100),
    "harness.seed": (int, 0),
    "output.dir": (str, "out"),
    "output.snapshot_stride": (_checked(int, lambda v: v >= 0, "must be >= 0"), 0),
}


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


def _value(cfg: dict, key: str):
    """The parsed value of ``key`` in ``cfg``, or its default."""
    parse, default = _KEYS[key]
    if key not in cfg:
        if default is _REQUIRED:
            raise ConfigError(f"missing config key {key!r}")
        return default
    try:
        return parse(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"{key} = {cfg[key]!r}: {exc}") from exc


def _given(cfg: dict, section: str, *names: str) -> dict:
    """The parsed values of the keys ``section.name`` that ``cfg`` gives, by name."""
    return {n: _value(cfg, f"{section}.{n}") for n in names if f"{section}.{n}" in cfg}


def _load_config(path) -> dict:
    """The config file at ``path``, every value parsed; a file that cannot be read, an
    unknown key (the error names the nearest valid key) or a malformed value is a ConfigError."""
    with _reading_input():
        try:
            cfg = load_config(path)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {str(path)!r}: "
                              f"{exc.strerror or exc}") from exc
    for key in cfg:
        if key not in _KEYS:
            import difflib
            near = difflib.get_close_matches(key, _KEYS, n=1)
            hint = f"; did you mean {near[0]!r}?" if near else ""
            raise ConfigError(f"unknown config key {key!r}{hint}")
        _value(cfg, key)
    return cfg


def build_grid(cfg: dict) -> Grid:
    dim = _value(cfg, "grid.dim")
    return Grid(dim=dim, n=_value(cfg, "grid.n"), extent=(_value(cfg, "grid.extent"),) * dim)


def build_spec(cfg: dict) -> EquationSpec:
    kind = _value(cfg, "equation.kind")
    eps = _value(cfg, "equation.eps")
    monitor = ("monitor_eta", "r_blowup")
    if kind == "she1d":
        return EquationSpec.she(eps=eps, **_given(cfg, "equation", "drift", "diffusion",
                                                  "g_min", *monitor))
    if kind == "kpz1d":
        m = _value(cfg, "equation.m")
        vals = _value(cfg, "equation.coupling")
        if len(vals) != m**3:
            raise ConfigError(f"equation.coupling needs m^3 = {m**3} values")
        return EquationSpec.kpz(np.array(vals).reshape(m, m, m), eps=eps,
                                **_given(cfg, "equation", "symmetric", *monitor))
    return EquationSpec.phi4(quartic=_value(cfg, "equation.quartic"), eps=eps,
                             **_given(cfg, "equation", "mass", "allow_unstable", *monitor))


def attach_renorm(spec: EquationSpec, grid: Grid, dt: float, cfg: dict) -> EquationSpec:
    if spec.kind == "she1d" or spec.renorm is not None:
        return spec
    vals = _value(cfg, "equation.renorm")
    if vals is not None:
        return spec.with_renorm(RenormConstants(vals, provenance="user-supplied"))
    if spec.eps > 0:
        return spec.with_renorm(compute_renorm_constants(spec, grid, dt))
    return spec.with_renorm(RenormConstants((0.0,) * spec.m, provenance="user-supplied"))


def build_initial(cfg: dict, grid: Grid, m: int) -> Field:
    kind = _value(cfg, "initial.kind")
    amp = _value(cfg, "initial.amplitude")
    if kind == "zero":
        return Field.zeros(grid, m)
    if kind == "constant":
        return Field.constant(grid, _given(cfg, "initial", "value").get("value", amp), m)
    if kind == "cosine":
        mode = _value(cfg, "initial.mode")
        def profile(*coords):
            phase = sum(2.0 * np.pi * mode * c / e for c, e in zip(coords, grid.extent))
            return amp * np.cos(phase)
        return Field.from_function(grid, profile, m)
    rng = np.random.default_rng(_value(cfg, "initial.seed"))
    vals = np.zeros((m,) + grid.shape)
    coords = np.meshgrid(*grid.axes(), indexing="ij")
    for mode in range(1, 4):
        for comp in range(m):
            a, b = rng.normal(size=2) / mode
            phase = sum(2.0 * np.pi * mode * c / e for c, e in zip(coords, grid.extent))
            vals[comp] += amp * (a * np.cos(phase) + b * np.sin(phase))
    return Field(grid, vals)


def _scaled_noise(cfg: dict, draw, shape: tuple) -> np.ndarray:
    """``draw()`` times noise.amplitude; at amplitude 0, zeros of ``shape``, none drawn."""
    amp = _value(cfg, "noise.amplitude")
    return np.zeros(shape) if amp == 0.0 else amp * draw()


def build_noise(cfg: dict, grid: Grid, m: int, n_steps: int, dt: float, seed: int):
    """Sampled path scaled by noise.amplitude (0 gives the zero path)."""
    return NoisePath(grid, dt, _scaled_noise(cfg, lambda: sample_white_noise(
        grid, m, n_steps, dt, seed).increments, (n_steps, m) + grid.shape), seed_info=(seed, 0))


def build_times(cfg: dict):
    dt = _value(cfg, "time.dt")
    t = _value(cfg, "time.t")
    t_max = _value(cfg, "time.t_max")
    if not (t <= 1.0 + 1e-12 <= t_max + 1e-12):
        raise ConfigError(f"need t <= 1 <= t_max, got t={t}, t_max={t_max}")
    if abs(t / dt - round(t / dt)) > 1e-9:
        raise ConfigError(f"time.t = {t} is not a multiple of time.dt = {dt}")
    n_steps = round(t_max / dt)
    if abs(n_steps * dt - t_max) > 1e-9:
        raise ConfigError("t_max must be a multiple of dt")
    return dt, t, n_steps


def build_coupling(cfg: dict, sweep: bool = False) -> tuple[CouplingParams, tuple[float, ...]]:
    """The coupling parameters and the gammas to couple at: coupling.gamma, or
    with ``sweep`` the coupling.gamma_list entries when the config gives them
    (the list then replaces coupling.gamma, whose budget is not checked).
    Each gamma must keep the exponential-moment budget."""
    params = CouplingParams(m_bound=_value(cfg, "coupling.m_bound"),
                            k_gamma=_value(cfg, "coupling.k_gamma"),
                            **_given(cfg, "coupling", "cutoff_r", "tol"))
    gammas = _value(cfg, "coupling.gamma_list") if sweep else None
    key = "coupling.gamma_list entry"
    if not gammas:
        gammas, key = (_value(cfg, "coupling.gamma"),), "coupling.gamma"
    for gamma in gammas:
        _check_budget(key, gamma, params)
    return params, tuple(gammas)


def _check_budget(key: str, gamma: float, params: CouplingParams):
    if gamma * params.m_bound > 1.0 + 1e-12:
        raise ConfigError(
            f"{key} * coupling.m_bound = {gamma * params.m_bound:g} > 1; "
            "the exponential-moment budget needs gamma * M <= 1")


def _build_run(cfg: dict, args):
    """Grid, times (dt, t, n_steps), renormalized equation, seed and initial
    state of a run command, the state checked against the equation."""
    grid = build_grid(cfg)
    dt, t, n_steps = build_times(cfg)
    spec = attach_renorm(build_spec(cfg), grid, dt, cfg)
    seed = args.seed if args.seed is not None else _value(cfg, "harness.seed")
    u = build_initial(cfg, grid, spec.m)
    _check_state(u, grid, spec.m, spec)
    return grid, dt, t, n_steps, spec, seed, u


def _displaced_state(u: Field, gamma: float) -> Field:
    direction = Field.from_function(u.grid, lambda *cs: np.cos(
        sum(2.0 * np.pi * c / e for c, e in zip(cs, u.grid.extent))), u.m)
    return u + direction * (gamma / l2_norm(direction))


def _finish_manifest(out_dir: Path, cfg: dict, seed: int, started: float, **fields):
    """Write the run's manifest and print its digest."""
    manifest = write_manifest(out_dir / "manifest.json", {
        "version": __version__, "config": cfg, "seed": seed, **fields,
        "wall_clock_s": time.time() - started})
    print(f"manifest digest: {manifest['digest']}")


def cmd_solve(args) -> int:
    cfg = _load_config(args.config)
    started = time.time()
    with _reading_input():
        grid, dt, t, n_steps, spec, seed, u0 = _build_run(cfg, args)
        stride = _value(cfg, "output.snapshot_stride")
        _, k_t = _step_range(0.0, t, dt, n_steps)
    # only the slices before t are drawn; without snapshots only the final state is kept
    increments = _scaled_noise(cfg, lambda: _draw_increments(grid, spec.m, k_t, dt, seed, 0),
                               (k_t, spec.m) + grid.shape)
    paths = _evolve_batch(u0.values[None], increments[:, None], spec,
                          get_workspace(grid, dt, spec), final_only=not stride)
    out = paths.outcome(0, grid, 0.0, t, dt, increments)

    out_dir = Path(args.out or _value(cfg, "output.dir"))
    out_dir.mkdir(parents=True, exist_ok=True)
    write_field(out_dir / "state_initial.flb", u0)
    if stride:
        for j in range(0, out.n_stored, stride):
            write_field(out_dir / f"state_{j:06d}.flb", Field(grid, out.fields[j]))
    if out.alive:
        write_field(out_dir / "state_final.flb", out.final)

    print(f"status: {'alive' if out.alive else f'dead at {out.blow_up_time} ({out.reason})'}")
    _finish_manifest(
        out_dir, cfg, seed, started, command="solve", alive=out.alive,
        blow_up_time=out.blow_up_time, reason=out.reason, equation=spec.digest_dict(),
        monitor_final=float(out.monitor_trace[-1]) if out.monitor_trace.size else None)
    return 0 if out.alive else 3


def cmd_couple(args) -> int:
    cfg = _load_config(args.config)
    started = time.time()
    with _reading_input():
        grid, dt, t, n_steps, spec, seed, u = _build_run(cfg, args)
        _shift_slices(t, dt, n_steps)
        params, (gamma,) = build_coupling(cfg)
        u_bar = _displaced_state(u, gamma)
        w = build_noise(cfg, grid, spec.m, n_steps, dt, seed)

    result = build_shift(u, u_bar, w, t, spec, params)
    residual = verify_coupling(u, u_bar, w, result.h, t, spec)

    out_dir = Path(args.out or _value(cfg, "output.dir"))
    out_dir.mkdir(parents=True, exist_ok=True)
    write_path(out_dir / "shift.flb", result.h)
    print(f"status: {result.status}  |h|_CM = {result.cm_norm:.6g}  "
          f"relative residual = {residual:.3e}")
    _finish_manifest(
        out_dir, cfg, seed, started, command="couple", status=result.status,
        gamma=gamma, gamma_reached=result.gamma_reached, cm_norm=result.cm_norm,
        residual=residual, m_bound=result.a_bound_used,
        clamp_events=result.diagnostics.get("clamp_events"), equation=spec.digest_dict())
    return 0


def cmd_tv(args) -> int:
    cfg = _load_config(args.config)
    started = time.time()
    with _reading_input():
        grid, dt, t, n_steps, spec, seed, u = _build_run(cfg, args)
        _shift_slices(t, dt, n_steps)
        params, gammas = build_coupling(cfg, sweep=True)
        n_samples = _value(cfg, "harness.n_samples")

    functionals = [
        ("clamped_mean", lambda f: float(np.mean(f.values))),
        ("clamped_max", lambda f: float(np.max(f.values))),
    ]
    out_dir = Path(args.out or _value(cfg, "output.dir"))
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
    _finish_manifest(out_dir, cfg, seed, started, command="tv", summaries=summaries,
                     equation=spec.digest_dict(), n_samples=n_samples)
    return 0


def cmd_jacobian_check(args) -> int:
    cfg = _load_config(args.config)
    with _reading_input():
        grid, dt, t, n_steps, spec, seed, u0 = _build_run(cfg, args)
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
