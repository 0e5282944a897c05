"""Config fuzz gate for the ``tv`` and ``couple`` commands.

Each run sets one key of ``cli._KEYS`` in a tiny she1d base config to one
boundary value and runs the command in-process.  A run must exit 0, 2 or 3,
raise nothing, print no traceback, leak no RuntimeWarning, and leave no output
directory behind when it exits 2 (a configuration error is found before any
output is written).
"""

import contextlib
import io
import warnings

import pytest

from fellerlab import cli

BASE = """
equation.kind = she1d
equation.drift = cubic_decay
equation.diffusion = bounded_smooth
equation.g_min = 1.0
grid.n = 8
time.dt = 0.0625
time.t = 0.25
initial.kind = cosine
initial.amplitude = 0.3
coupling.gamma = 0.05
coupling.m_bound = 10.0
coupling.k_gamma = 2
harness.n_samples = 2
harness.seed = 3
"""

VALUES = ("0", "-1", "1", "2", "0.3", "nan", "inf", "-inf", "1e-300", "5e-324", "1e-9", "",
          "abc", "3,4", "100000", "1e300")

# legal values that only make a run long (100000 gamma steps or samples): not run here
LONG_RUNS = {("tv", "coupling.k_gamma", "100000"): "100000 gamma steps is a long legal run",
             ("couple", "coupling.k_gamma", "100000"): "100000 gamma steps is a long legal run",
             ("tv", "harness.n_samples", "100000"): "100000 samples is a long legal run"}

CASES = [(command, key, value) for command in ("tv", "couple") for key in cli._KEYS
         for value in VALUES]


def _config(key: str, value: str) -> str:
    lines = [line for line in BASE.strip().splitlines() if not line.startswith(key + " ")]
    return "\n".join(lines + [f"{key} = {value}"]) + "\n"


@pytest.mark.parametrize("command, key, value", sorted(LONG_RUNS))
def test_config_fuzz_long_runs(command, key, value):
    pytest.skip(LONG_RUNS[command, key, value])


def _run(tmp_path, command: str, key: str, value: str):
    tmp_path.mkdir()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_config(key, value))
    out = tmp_path / "out"
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        try:
            code = cli.main([command, "--config", str(cfg), "--out", str(out)])
        except Exception as exc:  # an escaped exception is a fault like a traceback
            code = repr(exc)
    leaked = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return code, stderr.getvalue(), leaked, out


@pytest.mark.parametrize("command", ["tv", "couple"])
def test_config_fuzz(tmp_path, command):
    faults = []
    for case, (cmd, key, value) in enumerate(CASES):
        if cmd != command:
            continue
        if (cmd, key, value) in LONG_RUNS:
            continue  # skipped by test_config_fuzz_long_runs
        code, err, leaked, out = _run(tmp_path / str(case), command, key, value)
        if code not in (0, 2, 3) or "Traceback" in err or leaked or (code == 2 and out.exists()):
            faults.append((key, value, code, err.strip()[-200:],
                           sorted({str(w.message) for w in leaked})))
    assert faults == []
