"""In-memory spans around the public entry points of fellerlab's layers.

A :class:`Tracer` replaces each wrapped function in every ``fellerlab``
module that bound it (``from .solver import evolve`` binds ``evolve`` in
``shift``, ``harness``, ``cli`` and ``acceptance``), so calls made inside the
package are recorded as well as calls made by the benchmark.  The patch is
undone when :meth:`Tracer.installed` exits, so untraced code runs the original
functions with no wrapper at all.

Each span records its name, start, end, parent span and the root span (one
step of a benchmark operation) it belongs to, plus counts observed at the boundary
(steps taken, death reason, slices drawn, bytes written...).  Self time is a
span's duration minus the durations of its direct children; calls are
single-threaded, so children never overlap.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from contextlib import contextmanager

# Entry points that get a span.  Scalar per-element helpers (shift.bump_chi,
# shift.cutoff_chi, trees.degree, trees.product, ...) run thousands of times
# per operation for a few microseconds each; a span would cost as much as the
# call, so they count towards their caller's self time.
WRAPPED = {
    "noise": ("sample_white_noise", "zero_noise_path", "apply_shift", "splice",
              "cm_norm_sq", "noise_pairing", "log_girsanov_weight", "girsanov_weight"),
    "solver": ("evolve", "r_monitor", "check_semigroup"),
    "tangent": ("jacobian_apply", "tangent_sweep", "malliavin_derivative"),
    "shift": ("compensating_direction", "build_shift", "verify_coupling",
              "adaptedness_check"),
    "harness": ("estimate_tv_bound", "weighted_expectation", "blowup_probability",
                "wilson_interval"),
    "storage": ("write_field", "read_field", "write_path", "read_noise_path",
                "read_shift_path", "parse_config_text", "load_config",
                "manifest_digest", "write_manifest"),
    "cli": ("main", "cmd_solve", "cmd_couple", "cmd_tv", "cmd_jacobian_check",
            "cmd_symbols", "cmd_renorm", "cmd_selftest", "build_grid", "build_spec",
            "attach_renorm", "build_initial", "build_noise", "build_times",
            "build_coupling"),
    "trees": ("generate_basis", "check_commutation", "renorm_action",
              "shift_operator", "parse_expr"),
}

LAYERS = tuple(WRAPPED)


class Span:
    __slots__ = ("name", "start", "end", "parent", "root", "child_time", "attrs")

    def __init__(self, name, start, parent, root):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.root = root
        self.child_time = 0.0
        self.attrs = {}

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


def _observe_evolve(span, args, out):
    span.attrs.update(kind=args["spec"].kind, steps=int(out.noise_terms.shape[0]),
                      reason=out.reason, path=args["w"].seed_info,
                      used=args["w"].time_index(args["t"]))


def _observe_noise(span, args, out):
    span.attrs.update(drawn=out.n_steps, path=out.seed_info)


def _observe_build_shift(span, args, out):
    span.attrs.update(status=out.status,
                      clamp_events=int(out.diagnostics.get("clamp_events", 0)),
                      gamma_steps=len(out.diagnostics["monitor_per_step"]))


def _observe_samples(span, args, out):
    span.attrs["samples"] = out.n_samples


def _observe_write(span, args, out):
    span.attrs["bytes"] = os.path.getsize(args["path"])


OBSERVERS = {
    "solver.evolve": _observe_evolve,
    "noise.sample_white_noise": _observe_noise,
    "shift.build_shift": _observe_build_shift,
    "harness.estimate_tv_bound": _observe_samples,
    "harness.blowup_probability": _observe_samples,
    "storage.write_field": _observe_write,
    "storage.write_path": _observe_write,
    "storage.write_manifest": _observe_write,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        root = self.spans[parent].root if parent >= 0 else index
        self.spans.append(Span(name, time.perf_counter(), parent, root))
        self._stack.append(index)
        return index

    def _close(self, index):
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_time += span.duration

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself around one step of an operation."""
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe else None

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(index)
            if observe:
                observe(self.spans[index], signature.bind(*args, **kwargs).arguments, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Patch every binding of the wrapped functions in loaded fellerlab modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "fellerlab" or n.startswith("fellerlab."))]
        undo = []
        try:
            for layer, names in WRAPPED.items():
                home = sys.modules[f"fellerlab.{layer}"]
                for fname in names:
                    original = getattr(home, fname)
                    wrapper = self._wrap(f"{layer}.{fname}", original)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, attr, wrapper)
                                undo.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)

    def named(self, name) -> list[Span]:
        return [s for s in self.spans if s.name == name]
