"""The four benchmark workloads: the computations of arXiv:1610.03415 that
users of fellerlab run.

Each workload has
* ``setup_configs``: the configs a fresh process loads when it sets up;
* ``reference()``: one run on fixed inputs whose outputs are compared with the
  values the seed code computed (``golden.json``) and hashed into a
  fingerprint;
* ``steps(index)`` / ``check(index, raws)``: one timed operation on inputs
  drawn from the workload seed, as named steps that are timed one by one, and
  the checks of their outputs; one operation does ``units`` units of work;
* ``probes()``: direct layer timings that no span can give (traced runs only).

Configs are derived from the shipped ones in ``configs/``: only the sample
count is overridden (plus the keys of the kpz1d and blow-up instances, which
no shipped config describes).  Seeds reach the CLI
through ``--seed``.  Operations call layer entry points through their module
attribute (``cli.main``, ``harness.blowup_probability``) so that a tracer
patch sees them; the checks call the originals bound below, so they are never
traced.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fellerlab import cli, harness, trees
from fellerlab.grids import Field, l2_norm
from fellerlab.noise import sample_white_noise
from fellerlab.solver import evolve
from fellerlab.storage import load_config
from fellerlab.tangent import tangent_sweep

GOLDEN_PATH = Path(__file__).with_name("golden.json")


@dataclass
class Reference:
    values: dict
    fingerprint: str
    problems: list[str] = field(default_factory=list)


def op_seed(seed: int, index: int) -> int:
    """Seed of the index-th timed operation of a run with workload seed ``seed``."""
    return seed * 1000 + index


def derive_config(root: Path, out: Path, shipped: str, name: str,
                  override: dict | None = None, drop: tuple = ()) -> Path:
    """Write ``configs/<shipped>`` with keys in ``drop`` removed and the keys of
    ``override`` set, as ``out/<name>``."""
    override = override or {}
    kept = []
    for line in (root / "configs" / shipped).read_text().splitlines():
        key = line.split("#", 1)[0].split("=", 1)[0].strip()
        if key not in override and key not in drop:
            kept.append(line)
    kept += [f"{k} = {v}" for k, v in override.items()]
    path = out / name
    path.write_text("\n".join(kept) + "\n")
    return path


def run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Instance:
    """Grid, times, spec and initial state built by the CLI's own builders."""

    def __init__(self, config: Path, seed: int):
        cfg = load_config(config)
        self.grid = cli.build_grid(cfg)
        self.dt, self.t, self.n_steps = cli.build_times(cfg)
        self.spec = cli.attach_renorm(cli.build_spec(cfg), self.grid, self.dt, cfg)
        self.u = cli.build_initial(cfg, self.grid, self.spec.m)
        self.seed = seed

    def sweep_us_per_step(self, repeats: int = 7) -> float:
        """Median time of one ``tangent_sweep`` step along this instance's path."""
        w = sample_white_noise(self.grid, self.spec.m, self.n_steps, self.dt, self.seed)
        out = evolve(self.u, w, 0.0, self.t, self.spec)
        v = Field.from_function(self.grid, lambda x: np.cos(2.0 * np.pi * x), self.spec.m)
        v = v * (1.0 / l2_norm(v))
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            tangent_sweep(out, v, 0.0, self.t, self.spec)
            times.append(time.perf_counter() - start)
        return statistics.median(times) / w.time_index(self.t) * 1e6


def sha256(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


class Workload:
    name = ""
    units = 1  # units of work in one operation

    def __init__(self, root: Path, out: Path, seed: int):
        self.out, self.seed = out, seed
        self.setup_configs: list[Path] = []

    def probes(self) -> dict:
        return {}


class TvSweep(Workload):
    """``fellerlab tv`` on configs/tv_sweep.cfg with a reduced sample count."""

    name = "tv_sweep"
    N_SAMPLES = 4
    REF_SEED = 11  # harness.seed of the shipped config

    def __init__(self, root, out, seed):
        super().__init__(root, out, seed)
        self.config = derive_config(root, out, "tv_sweep.cfg", "tv.cfg",
                                    {"harness.n_samples": self.N_SAMPLES})
        self.setup_configs = [self.config]
        cfg = load_config(self.config)
        self.gammas = [float(g) for g in cfg["coupling.gamma_list"].split(",")]
        self.m_bound = float(cfg["coupling.m_bound"])
        self.units = self.N_SAMPLES * len(self.gammas)

    def _tv(self, seed: int) -> tuple[int, Path]:
        out = self.out / "tv"
        rc = run_cli(["tv", "--config", str(self.config), "--out", str(out),
                      "--seed", str(seed)])
        return rc, out

    def reference(self) -> Reference:
        rc, out = self._tv(self.REF_SEED)
        problems = self._problems(rc, out)
        summaries = json.loads((out / "manifest.json").read_text())["summaries"]
        values = {"summaries": [{k: s[k] for k in ("gamma", "bound", "fail_prob",
                                                    "mean_h_norm_sq")}
                                for s in summaries]}
        return Reference(values, sha256((out / "tv_samples.csv").read_bytes()), problems)

    def steps(self, index):
        return {"tv": lambda raws: self._tv(op_seed(self.seed, index))}

    def check(self, index, raws) -> list[str]:
        return self._problems(*raws["tv"])

    def _problems(self, rc: int, out: Path) -> list[str]:
        if rc != 0:
            return [f"tv exited {rc}"]
        problems = []
        rows = (out / "tv_samples.csv").read_text().splitlines()[1:]
        if len(rows) != self.units:
            problems.append(f"tv wrote {len(rows)} sample rows")
        summaries = json.loads((out / "manifest.json").read_text())["summaries"]
        if [s["gamma"] for s in summaries] != self.gammas:
            problems.append("tv summaries do not match coupling.gamma_list")
        for s in summaries:
            want = 2.0 * s["fail_prob"] + 2.0 * math.e * math.sqrt(s["mean_h_norm_sq"])
            if not (0.0 <= s["fail_prob"] <= 1.0
                    and s["mean_h_norm_sq"] <= (self.m_bound * s["gamma"]) ** 2 + 1e-9
                    and math.isclose(s["bound"], want, rel_tol=1e-12)):
                problems.append(f"tv summary inconsistent at gamma={s['gamma']}")
        return problems

    def probes(self) -> dict:
        inst = Instance(self.config, self.REF_SEED)
        return {"tangent.sweep_us_per_step.she1d": inst.sweep_us_per_step()}


class CoupleLong(Workload):
    """``fellerlab couple`` on configs/couple_she.cfg and on a kpz1d instance."""

    name = "couple_long"
    REF_SEED = 7  # harness.seed of the shipped config
    KPZ = {"equation.kind": "kpz1d", "equation.m": 2,
           "equation.coupling": "1,0,0,1,0,1,1,0", "equation.eps": 0.05,
           "coupling.k_gamma": 16}

    def __init__(self, root, out, seed):
        super().__init__(root, out, seed)
        self.configs = {
            "she": root / "configs" / "couple_she.cfg",
            "kpz": derive_config(root, out, "couple_she.cfg", "couple_kpz.cfg", self.KPZ,
                                 drop=("equation.drift", "equation.diffusion",
                                       "equation.g_min")),
        }
        self.setup_configs = list(self.configs.values())

    def _couple(self, kind: str, seed: int) -> tuple[int, Path]:
        out = self.out / kind
        rc = run_cli(["couple", "--config", str(self.configs[kind]), "--out", str(out),
                      "--seed", str(seed)])
        return rc, out

    def reference(self) -> Reference:
        values, problems, chunks = {}, [], []
        for kind in self.configs:
            rc, out = self._couple(kind, self.REF_SEED)
            problems += self._problems(kind, rc, out)
            manifest = json.loads((out / "manifest.json").read_text())
            values[kind] = {k: manifest[k] for k in ("status", "cm_norm", "residual")}
            chunks.append((out / "shift.flb").read_bytes())
        return Reference(values, sha256(*chunks), problems)

    def steps(self, index):
        return {f"couple_{kind}": lambda raws, kind=kind: self._couple(kind, op_seed(self.seed, index))
                for kind in self.configs}

    def check(self, index, raws) -> list[str]:
        return [p for kind in self.configs
                for p in self._problems(kind, *raws[f"couple_{kind}"])]

    def _problems(self, kind: str, rc: int, out: Path) -> list[str]:
        if rc != 0:
            return [f"couple {kind} exited {rc}"]
        m = json.loads((out / "manifest.json").read_text())
        cfg = m["config"]
        problems = []
        if m["status"] not in ("completed", "frozen"):
            problems.append(f"couple {kind} status {m['status']}")
        if not m["cm_norm"] <= m["m_bound"] * m["gamma"] * (1.0 + 1e-9):
            problems.append(f"couple {kind} |h| = {m['cm_norm']} above M * gamma")
        if m["status"] == "completed" and not math.isfinite(m["residual"]):
            problems.append(f"couple {kind} completed with residual {m['residual']}")
        m_comp = int(cfg.get("equation.m", 1))
        n_steps = round(float(cfg.get("time.t_max", 1.0)) / float(cfg["time.dt"]))
        want = 36 + 8 * n_steps * m_comp * int(cfg["grid.n"])  # 1D FLB1 path
        if (out / "shift.flb").stat().st_size != want:
            problems.append(f"couple {kind} shift.flb is not {want} bytes")
        return problems

    def probes(self) -> dict:
        return {f"tangent.sweep_us_per_step.{kind}1d":
                Instance(config, self.REF_SEED).sweep_us_per_step()
                for kind, config in self.configs.items()}


class Blowup2d(Workload):
    """``harness.blowup_probability`` on the inverted quartic in 2D."""

    name = "blowup_2d"
    N_SAMPLES = 16
    N_REF = 16
    REF_SEED = 0  # harness.seed of the shipped config
    INSTANCE = {"equation.eps": 0.05, "initial.value": 1.5, "noise.amplitude": 1.0}

    units = N_SAMPLES

    def __init__(self, root, out, seed):
        super().__init__(root, out, seed)
        config = derive_config(root, out, "blowup_phi4.cfg", "blowup.cfg", self.INSTANCE)
        self.setup_configs = [config]
        self.inst = Instance(config, self.REF_SEED)

    def _blowup(self, n: int, seed: int):
        i = self.inst
        return harness.blowup_probability(i.u, i.t, i.spec, n, seed, i.dt,
                                          n_steps=i.n_steps)

    def reference(self) -> Reference:
        report = self._blowup(self.N_REF, self.REF_SEED)
        problems = self._problems(report, self.N_REF)
        i = self.inst
        outcomes = []
        for j in range(self.N_REF):
            w = sample_white_noise(i.grid, i.spec.m, i.n_steps, i.dt, self.REF_SEED, stream=j)
            out = evolve(i.u, w, 0.0, i.t, i.spec)
            outcomes.append((out.reason, out.blow_up_time))
        deaths = sum(1 for reason, _ in outcomes if reason is not None)
        if round(report.estimate * self.N_REF) != deaths:
            problems.append("blowup_probability disagrees with per-sample evolves")
        reasons = {}
        for reason, _ in outcomes:
            if reason is not None:
                reasons[reason] = reasons.get(reason, 0) + 1
        values = {"deaths": deaths, "reasons": dict(sorted(reasons.items()))}
        return Reference(values, sha256(repr(outcomes).encode()), problems)

    def steps(self, index):
        return {"blowup": lambda raws: self._blowup(self.N_SAMPLES, op_seed(self.seed, index))}

    def check(self, index, raws) -> list[str]:
        return self._problems(raws["blowup"], self.N_SAMPLES)

    @staticmethod
    def _problems(report, n: int) -> list[str]:
        deaths = report.estimate * n
        lo, hi = report.interval
        if (report.n_samples != n or not 0.0 <= report.estimate <= 1.0
                or deaths != round(deaths) or not lo <= report.estimate <= hi):
            return [f"inconsistent blow-up report {report}"]
        return []


class Symbols(Workload):
    """Basis enumeration below degree 2, commutation and renormalization action."""

    name = "symbols"
    MAX_DEGREE = 2

    def __init__(self, root, out, seed):
        super().__init__(root, out, seed)
        self.expected = None

    def steps(self, index):
        d = self.MAX_DEGREE
        return {
            "basis": lambda raws: trees.generate_basis(d),
            "basis_hat": lambda raws: trees.generate_basis(d, hat=True),
            "commutation": lambda raws: [trees.check_commutation(t) for t in raws["basis"]],
            "renorm": lambda raws: [trees.renorm_action(t)
                                    for t in raws["basis"] + raws["basis_hat"]],
        }

    def _summary(self, raws) -> tuple[dict, str]:
        plain, hatted = raws["basis"], raws["basis_hat"]
        values = {"basis_sizes": [len(plain), len(hatted)],
                  "commutation_all_true": all(raws["commutation"])}
        text = "\n".join([f"{trees.format_tree(t)} {trees.degree(t)}" for t in plain + hatted]
                         + [trees.format_sum(s) for s in raws["renorm"]])
        return values, sha256(text.encode())

    def reference(self) -> Reference:
        raws = {}
        for name, step in self.steps(-1).items():
            raws[name] = step(raws)
        values, fingerprint = self._summary(raws)
        self.expected = (values, fingerprint)
        return Reference(values, fingerprint)

    def check(self, index, raws) -> list[str]:
        if self._summary(raws) != self.expected:
            return ["symbols round differs from the reference round"]
        return []


WORKLOADS = {w.name: w for w in (TvSweep, CoupleLong, Blowup2d, Symbols)}


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def compare(expected, actual, rtol: float, where: str = "") -> list[str]:
    """Mismatches between golden and computed values; floats within ``rtol``."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{where}: keys {sorted(actual)} != {sorted(expected)}"]
        return [p for k in expected for p in compare(expected[k], actual[k], rtol, f"{where}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where}: length {len(actual)} != {len(expected)}"]
        return [p for i, (e, a) in enumerate(zip(expected, actual))
                for p in compare(e, a, rtol, f"{where}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, (int, float)):
        if math.isclose(expected, actual, rel_tol=rtol, abs_tol=0.0):
            return []
    elif type(expected) is type(actual) and expected == actual:
        return []
    return [f"{where}: {actual!r} != {expected!r}"]
