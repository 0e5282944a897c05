"""fellerlab benchmark: one workload per run, end-to-end metrics or per-layer
traced timings, with a correctness gate and an output fingerprint.

Run from the root of a checkout (numpy and the standard library only):

    python3 bench/run.py --workload tv_sweep --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): tv_sweep, couple_long, blowup_2d, symbols.
One process, one thread of work.  A run

1. measures ``setup_s``: the median time of fresh processes that import
   fellerlab and build the workload's configs, specs and renorm constants;
2. runs the workload once on fixed reference inputs and gates its outputs
   against ``golden.json`` (the values the seed code computes), and hashes
   the raw outputs into a fingerprint, which is reported but not gated;
3. repeats the workload's operation on inputs drawn from ``--seed`` for
   ``--seconds`` seconds, checking every output.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
``setup_s``, ``throughput_ref_per_s`` (units of work per second over all
operations) and ``peak_rss_mb``.  The unit of work is one tv sample (one
gamma), one she1d+kpz1d coupling pair, one blow-up sample, or one symbols
round.  Both times are taken at a reference speed: every step (and every set-up process) is bracketed by calibrate(), a
fixed task, and its wall time is scaled by CALIBRATION_REF_S over the mean
of the two calibrations.  This cancels the host's changes of speed, which
on a shared 2-vCPU machine reach a factor of two and last seconds to
minutes.  The lines above the result give each workload's own numbers, as
wall time and at the reference speed: ``tv.samples_per_s``,
``blowup.samples_per_s``, and the medians ``couple_she.latency_s``,
``couple_kpz.latency_s`` and ``symbols.round_s``.  Over ten seeds the
medians spread more than the throughput (10% against 7% on tv_sweep), so
only the throughput is gated.

With ``--trace 1`` operations alternate untraced and traced; the traced ones
record spans around the layer entry points (tracing.py) and the last line
carries the per-layer metrics.  Counts come from the reference run, so they
are the same on every run; times come from the traced operations; the
tracing overhead is the traced over the untraced latency (both at the
reference speed), minus one.
Every workload prints every metric; a layer the workload does not reach
reads 0.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from tracing import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7
DEATH_REASONS = ("monitor_threshold", "non_finite", "nondegenerate")
EVOLVE_KINDS = ("she1d", "kpz1d", "phi4_2d")
CONFIG_SPANS = ("storage.load_config", "cli.build_grid", "cli.build_times", "cli.build_spec",
                "cli.attach_renorm", "cli.build_coupling", "cli.build_initial")
WRITE_SPANS = ("storage.write_field", "storage.write_path", "storage.write_manifest")
# calibrate() on an unloaded 2-vCPU Intel Xeon VM (see machine notes); only
# ratios between runs matter, so this fixes the unit of the *_ref metrics.
CALIBRATION_REF_S = 0.004
_CALIBRATION_ARRAY = np.linspace(0.0, 1.0, 64)


def machine_notes() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__}


def measure_setup(configs: list[Path]) -> tuple[list[float], list[float]]:
    """Wall seconds of SETUP_REPEATS fresh set-up processes, and the same at
    the reference speed."""
    probe = Path(__file__).with_name("setup_probe.py")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times, ref_times = [], []
    before = calibrate()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(probe), *map(str, configs)], cwd=ROOT, env=env,
                       check=True, timeout=120)
        times.append(time.perf_counter() - start)
        after = calibrate()
        ref_times.append(times[-1] * CALIBRATION_REF_S * 2 / (before + after))
        before = after
    return times, ref_times


def calibrate() -> float:
    """Seconds of a fixed mix of interpreter work and small numpy transforms,
    the two kinds of work the workloads spend their time in (median of five).

    On a shared 2-vCPU Intel Xeon VM the same code runs up to twice as slowly
    for seconds to minutes at a time while other tenants of the host are busy.
    Timing this fixed task next to every step tracks that speed, so a step's
    time can be rescaled to the speed at which calibrate() takes
    CALIBRATION_REF_S.  The task is the benchmark's own code, so a change to
    fellerlab cannot change it.
    """
    tries = []
    for _ in range(5):
        start = time.perf_counter()
        table = {}
        for i in range(8000):
            key = (i & 63, i & 7)
            table[key] = table.get(key, 0) + i
        for _ in range(240):
            np.fft.ifft(np.fft.fft(_CALIBRATION_ARRAY) * _CALIBRATION_ARRAY).real
        tries.append(time.perf_counter() - start)
    return statistics.median(tries)


class Op:
    """One timed operation: the wall seconds of each of its steps and the same
    rescaled to the reference speed."""

    __slots__ = ("traced", "steps", "ref_steps")

    def __init__(self, traced: bool, steps: dict, ref_steps: dict):
        self.traced, self.steps, self.ref_steps = traced, steps, ref_steps


def timed_ops(workload, seconds: float, trace: bool, tracer: Tracer,
              failures: list[str]) -> tuple[list[Op], int]:
    """Run operations for ``seconds``; with ``trace`` every second one is traced.

    Returns the operations that passed their checks and the number that did
    not; the reasons are appended to ``failures``.
    """
    ops, failed = [], 0
    deadline = time.perf_counter() + seconds
    index = 0
    while index < (2 if trace else 1) or time.perf_counter() < deadline:
        traced = trace and index % 2 == 1
        raws, steps, ref_steps = {}, {}, {}
        try:
            with tracer.installed() if traced else nullcontext():
                before = calibrate()
                for name, step in workload.steps(index).items():
                    start = time.perf_counter()
                    with tracer.span(f"bench.{name}") if traced else nullcontext():
                        raws[name] = step(raws)
                    steps[name] = time.perf_counter() - start
                    after = calibrate()
                    ref_steps[name] = steps[name] * CALIBRATION_REF_S * 2 / (before + after)
                    before = after
            problems = workload.check(index, raws)
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            failed += 1
            failures.extend(f"operation {index}: {p}" for p in problems)
        else:
            ops.append(Op(traced, steps, ref_steps))
        index += 1
    return ops, failed


def step_medians(ops: list[Op], ref: bool = False) -> dict:
    times = [op.ref_steps if ref else op.steps for op in ops]
    return {name: _median(t[name] for t in times) for name in times[0]} if ops else {}


def latency(workload, ops: list[Op], ref: bool = False) -> float:
    """Seconds per unit of work: the sum of the steps' median times over the
    units one operation does.  Taking each step's median on its own keeps a
    change of machine load in the middle of a long operation out of the
    other steps."""
    return sum(step_medians(ops, ref).values()) / workload.units


def throughput(workload, ops: list[Op], ref: bool = False) -> float:
    seconds = sum(sum((op.ref_steps if ref else op.steps).values()) for op in ops)
    return _ratio(workload.units * len(ops), seconds)


def end_to_end(workload, ops: list[Op], ref_setup: list[float]) -> dict:
    return {
        "setup_s": (statistics.median(ref_setup), "s"),
        "throughput_ref_per_s": (throughput(workload, ops, ref=True), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def named_lines(workload, ops: list[Op]) -> list[str]:
    """The end-to-end numbers under the workload's own metric names, as wall
    time and (in brackets) at the reference speed."""
    n = len(ops)
    if workload.name in ("tv_sweep", "blowup_2d"):
        key = "tv" if workload.name == "tv_sweep" else "blowup"
        return [f"{key}.samples_per_s = {throughput(workload, ops):.6g} 1/s "
                f"({throughput(workload, ops, True):.6g} at reference speed; "
                f"{workload.units * n} samples in {n} calls)"]
    if workload.name == "symbols":
        return [f"symbols.round_s = {latency(workload, ops):.6g} s "
                f"({latency(workload, ops, True):.6g} at reference speed; "
                f"sum of step medians over {n} rounds)"]
    ref = step_medians(ops, True)
    return [f"{name}.latency_s = {value:.6g} s ({ref[name]:.6g} at reference speed; "
            f"median of {n} calls)" for name, value in step_medians(ops).items()]


def _sum(spans, attr=None) -> float:
    return sum(s.attrs.get(attr, 0) if attr else s.duration for s in spans)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values) -> float:
    """Median, or 0 when there is nothing to take it of (a layer not reached)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def slice_usage(spans) -> tuple[int, int, int]:
    """(paths drawn, slices drawn, slices below the evolve horizon) over the
    draws, pairing each evolve with the latest draw of its (seed, stream)."""
    latest, used, drawn = {}, {}, 0
    for index, span in enumerate(spans):
        if span.name == "noise.sample_white_noise":
            latest[span.attrs.get("path")] = index
            used[index] = 0
            drawn += span.attrs.get("drawn", 0)
        elif span.name == "solver.evolve" and span.attrs.get("path") in latest:
            draw = latest[span.attrs["path"]]
            used[draw] = max(used[draw], span.attrs["used"])
    return len(used), drawn, sum(used.values())


def per_layer(ref: Tracer, timed: Tracer, ops: list[Op], probes: dict, failed: int,
              attempted: int) -> dict:
    m = {}
    # counts: from the reference run, identical on every run of a workload
    paths, drawn, used = slice_usage(ref.spans)
    m["noise.slices_drawn"] = (_ratio(drawn, paths), "count")
    m["noise.slices_used"] = (_ratio(used, paths), "count")
    m["noise.slices_used_frac"] = (_ratio(used, drawn), "ratio")
    samples = _sum(ref.named("harness.estimate_tv_bound") + ref.named("harness.blowup_probability"),
                   "samples") + len(ref.named("cli.cmd_couple"))
    evolves = ref.named("solver.evolve")
    m["solver.evolve_calls_per_sample"] = (_ratio(len(evolves), samples), "count")
    deaths = Counter(s.attrs.get("reason") for s in evolves)
    for reason in DEATH_REASONS:
        m[f"solver.deaths.{reason}"] = (deaths[reason], "count")
    shifts = ref.named("shift.build_shift")
    completed = sum(1 for s in shifts if s.attrs.get("status") == "completed")
    m["shift.completed_frac"] = (_ratio(completed, len(shifts)), "ratio")
    m["shift.clamp_events"] = (_sum(shifts, "clamp_events"), "count")
    m["storage.bytes_written"] = (sum(_sum(ref.named(n), "bytes") for n in WRITE_SPANS), "bytes")

    # times: from the traced operations of the timed phase
    roots = [s for s in timed.spans if s.parent < 0]  # one per step
    n_ops = sum(1 for op in ops if op.traced)
    draws = timed.named("noise.sample_white_noise")
    m["noise.path_ms"] = (_median(s.duration for s in draws) * 1e3, "ms")
    evolves = timed.named("solver.evolve")
    for kind in EVOLVE_KINDS:
        mine = [s for s in evolves if s.attrs.get("kind") == kind]
        m[f"solver.evolve_us_per_step.{kind}"] = (_ratio(_sum(mine), _sum(mine, "steps")) * 1e6, "us")
    for kind in ("she1d", "kpz1d"):
        name = f"tangent.sweep_us_per_step.{kind}"
        m[name] = (probes.get(name, 0.0), "us")
    shifts = timed.named("shift.build_shift")
    m["shift.gamma_step_ms"] = (_ratio(_sum(shifts), _sum(shifts, "gamma_steps")) * 1e3, "ms")
    m["shift.self_ms_per_call"] = (_ratio(sum(s.self_time for s in shifts), len(shifts)) * 1e3, "ms")
    verifies = timed.named("shift.verify_coupling")
    m["shift.verify_ms"] = (_median(s.duration for s in verifies) * 1e3, "ms")
    for key, name in (("tv", "estimate_tv_bound"), ("blowup", "blowup_probability")):
        spans = timed.named(f"harness.{name}")
        m[f"harness.{key}_ms_per_sample"] = (_ratio(_sum(spans), _sum(spans, "samples")) * 1e3, "ms")
    writes = [s for n in WRITE_SPANS for s in timed.named(n)
              if timed.spans[s.parent].layer != "storage"]
    m["storage.write_ms"] = (_ratio(_sum(writes), n_ops) * 1e3, "ms")
    m["cli.config_ms"] = (_ratio(sum(_sum(timed.named(n)) for n in CONFIG_SPANS), n_ops) * 1e3, "ms")
    m["trees.basis_s"] = (_ratio(_sum(timed.named("trees.generate_basis")), n_ops), "s")
    comm = timed.named("trees.check_commutation")
    m["trees.commutation_ms_per_tree"] = (_ratio(_sum(comm), len(comm)) * 1e3, "ms")
    renorm = [s for s in timed.named("trees.renorm_action") if s.parent == s.root]
    m["trees.renorm_action_ms_per_tree"] = (_ratio(_sum(renorm), len(renorm)) * 1e3, "ms")

    # where the traced wall time went: self times by layer add up to it
    wall = _sum(roots)
    self_by_layer = Counter()
    for s in timed.spans:
        self_by_layer[s.layer] += s.self_time
    for layer in LAYERS + ("bench",):
        m[f"{layer}.self_share"] = (_ratio(self_by_layer[layer], wall), "ratio")
    traced = sum(step_medians([op for op in ops if op.traced], ref=True).values())
    untraced = sum(step_medians([op for op in ops if not op.traced], ref=True).values())
    m["trace.overhead_frac"] = (_ratio(traced, untraced) - 1.0, "ratio")
    m["ops_failed_frac"] = (_ratio(failed, attempted), "ratio")
    return m


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    out = ROOT / ".bench_out" / f"{workload_name}-{os.getpid()}"
    out.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[workload_name](ROOT, out, seed)
        print(f"machine: {json.dumps(machine_notes(), sort_keys=True)}")
        setup, ref_setup = measure_setup(workload.setup_configs)
        print(f"setup wall = {statistics.median(setup):.6g} s "
              f"({statistics.median(ref_setup):.6g} at reference speed; "
              f"median of {len(setup)} processes)")

        ref_tracer, timed_tracer = Tracer(), Tracer()
        try:
            with ref_tracer.installed() if trace else nullcontext():
                reference = workload.reference()
        except Exception:
            failures = [f"reference: {traceback.format_exc()}"]
        else:
            golden = workloads.load_golden()
            failures = [f"reference: {p}" for p in reference.problems + workloads.compare(
                golden[workload_name], reference.values, golden["rtol"], workload_name)]
            print(f"fingerprint: {reference.fingerprint}")
        reference_failed = bool(failures)

        ops, ops_failed = timed_ops(workload, seconds, trace, timed_tracer, failures)
        probes = workload.probes() if trace else {}
    finally:
        shutil.rmtree(out, ignore_errors=True)

    failed = int(reference_failed) + ops_failed
    attempted = 1 + len(ops) + ops_failed
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    untraced = [op for op in ops if not op.traced]
    if untraced:
        for line in named_lines(workload, untraced):
            print(line)
    print(f"ops_failed_frac = {failed / attempted:.6g} ({failed} of {attempted} calls)")
    if trace:
        metrics = per_layer(ref_tracer, timed_tracer, ops, probes, failed, attempted)
    else:
        metrics = end_to_end(workload, ops, ref_setup)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=("tv_sweep", "couple_long", "blowup_2d", "symbols"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fellerlab" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no fellerlab source tree (src/fellerlab and configs/) under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # one CPU for the whole run, so that calibrate() and the steps it brackets
    # time the same CPU, and set-up processes inherit it
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
