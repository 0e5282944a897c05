"""Config fuzz gate for the run commands ``solve``, ``couple``, ``tv`` and
``jacobian-check``, on a tiny she1d base and a tiny phi4_2d base.

Each run sets one key of ``cli._KEYS`` in a base config to one boundary
value and runs the command in-process.  A run must exit 0, 2 or 3, raise
nothing, print no traceback, leak no RuntimeWarning, and leave no output
directory behind when it exits 2 (a configuration error is found before any
output is written).  ``jacobian-check`` may also exit 1, its failed-check
exit, but only with nothing on stderr and its ``fitted order`` line on
stdout.
"""

import contextlib
import io
import warnings

import pytest

from fellerlab import cli

SHE1D = """
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

PHI4_2D = """
equation.kind = phi4_2d
equation.eps = 0.05
grid.dim = 2
grid.n = 8
time.dt = 0.0625
time.t = 0.25
initial.kind = constant
initial.value = 0.5
coupling.gamma = 0.05
coupling.m_bound = 10.0
coupling.k_gamma = 2
harness.n_samples = 2
harness.seed = 3
"""

BASES = {"she1d": SHE1D, "phi4_2d": PHI4_2D}
COMMANDS = ("solve", "couple", "tv", "jacobian-check")

VALUES = ("0", "-1", "1", "2", "0.3", "nan", "inf", "-inf", "1e-300", "5e-324", "1e-9", "",
          "abc", "3,4", "100000", "1e300")

# legal values that only make a run long (100000 gamma steps or samples): not run here
LONG_RUNS = {(base, command, key, "100000"): reason for base in BASES
             for command, key, reason in (
                 ("tv", "coupling.k_gamma", "100000 gamma steps is a long legal run"),
                 ("couple", "coupling.k_gamma", "100000 gamma steps is a long legal run"),
                 ("tv", "harness.n_samples", "100000 samples is a long legal run"))}


def _id(base: str, *rest) -> str:
    """Test id: the she1d base is the default and is not named."""
    return "-".join(rest if base == "she1d" else (base,) + rest)


def _config(base: str, key: str, value: str) -> str:
    lines = [line for line in BASES[base].strip().splitlines() if not line.startswith(key + " ")]
    return "\n".join(lines + [f"{key} = {value}"]) + "\n"


@pytest.mark.parametrize("base, command, key, value", sorted(LONG_RUNS),
                         ids=[_id(*case) for case in sorted(LONG_RUNS)])
def test_config_fuzz_long_runs(base, command, key, value):
    pytest.skip(LONG_RUNS[base, command, key, value])


def _run(tmp_path, base: str, command: str, key: str, value: str):
    tmp_path.mkdir()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_config(base, key, value))
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
    return code, stdout.getvalue(), stderr.getvalue(), leaked, out


def _failed_check(command: str, code, out: str, err: str) -> bool:
    """``jacobian-check``'s documented exit 1: the check ran and failed."""
    return command == "jacobian-check" and code == 1 and err == "" and "fitted order:" in out


RUNS = [(base, command) for base in BASES for command in COMMANDS]


@pytest.mark.parametrize("base, command", RUNS, ids=[_id(*run) for run in RUNS])
def test_config_fuzz(tmp_path, base, command):
    faults = []
    for case, (key, value) in enumerate((k, v) for k in cli._KEYS for v in VALUES):
        if (base, command, key, value) in LONG_RUNS:
            continue  # skipped by test_config_fuzz_long_runs
        code, out, err, leaked, out_dir = _run(tmp_path / str(case), base, command, key, value)
        ok = code in (0, 2, 3) or _failed_check(command, code, out, err)
        if not ok or "Traceback" in err or leaked or (code == 2 and out_dir.exists()):
            faults.append((key, value, code, err.strip()[-200:],
                           sorted({str(w.message) for w in leaked})))
    assert faults == []
