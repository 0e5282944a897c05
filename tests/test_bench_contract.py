"""The benchmark under ``bench/`` reaches into the package by name: its
tracer patches every entry point listed in ``tracing.WRAPPED`` and its
workloads import package names at module level.  A refactor that drops or
renames one of them breaks every traced benchmark run, so these tests load
both files by path and resolve every name they use.  Every committed
``BENCH_*.json`` record must parse and carry the keys the records share."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _load(name, monkeypatch):
    """``bench/<name>.py`` as a module, registered (dataclasses look their
    module up) only for the calling test."""
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves(monkeypatch):
    tracing = _load("tracing", monkeypatch)
    missing = [f"{layer}.{name}" for layer, names in tracing.WRAPPED.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"fellerlab.{layer}"), name, None))]
    assert missing == []


def test_workloads_import_and_cover_the_declared_workloads(monkeypatch):
    workloads = _load("workloads", monkeypatch)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in declared)


# the keys every committed benchmark record shares
BENCH_KEYS = {"label", "change", "command", "machine", "order", "runs", "summary",
              "summary_note"}


def test_every_bench_record_parses_with_the_shared_keys():
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    missing = {path.name: sorted(BENCH_KEYS - json.loads(path.read_text()).keys())
               for path in records}
    assert {name: keys for name, keys in missing.items() if keys} == {}
