import json
from pathlib import Path

import numpy as np
import pytest

from fellerlab.cli import main
from fellerlab.storage import read_field, read_shift_path

SHIPPED = Path(__file__).parents[1] / "configs"

HEAT_CONFIG = """
equation.kind = she1d
equation.drift = zero
equation.diffusion = one
grid.n = 32
time.dt = 0.00390625
time.t = 0.25
initial.kind = cosine
initial.amplitude = 1.0
noise.amplitude = 0.0
harness.seed = 5
output.snapshot_stride = 32
"""

BLOWUP_CONFIG = """
equation.kind = she1d
equation.drift = cubic_growth
equation.diffusion = one
grid.n = 32
time.dt = 0.0009765625
time.t = 0.25
initial.kind = constant
initial.value = 10.0
harness.seed = 5
"""

COUPLE_CONFIG = """
equation.kind = she1d
equation.drift = cubic_decay
equation.diffusion = bounded_smooth
equation.g_min = 1.0
grid.n = 32
time.dt = 0.00390625
time.t = 0.25
initial.kind = cosine
initial.amplitude = 0.3
coupling.m_bound = 20.0
coupling.k_gamma = 8
coupling.gamma = 0.05
harness.seed = 5
"""


def _write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_solve_heat_decays_and_exits_zero(tmp_path, capsys):
    cfg = _write(tmp_path, HEAT_CONFIG)
    out = tmp_path / "out"
    rc = main(["solve", "--config", cfg, "--out", str(out)])
    assert rc == 0
    initial = read_field(out / "state_initial.flb")
    final = read_field(out / "state_final.flb")
    assert np.max(np.abs(final.values)) < 0.01 * np.max(np.abs(initial.values))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["alive"] is True
    assert "digest" in manifest


def test_solve_blowup_exits_three(tmp_path):
    cfg = _write(tmp_path, BLOWUP_CONFIG)
    out = tmp_path / "out"
    rc = main(["solve", "--config", cfg, "--out", str(out)])
    assert rc == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["alive"] is False
    assert manifest["blow_up_time"] <= 0.02


@pytest.mark.parametrize("name, code", [("heat_decay.cfg", 0), ("blowup_phi4.cfg", 3)])
def test_solve_without_snapshots_keeps_final_state_only(tmp_path, monkeypatch, name, code):
    """With output.snapshot_stride = 0, solve evolves keeping only the final
    state, and writes what a stored-path evolve gives: the final state, the
    exit code and the manifest's fate and last monitor value."""
    from fellerlab import cli
    from fellerlab.solver import _evolve_batch, evolve
    lines = [line for line in (SHIPPED / name).read_text().splitlines()
             if not line.startswith("output.snapshot_stride")]
    cfg_path = _write(tmp_path, "\n".join(lines + ["output.snapshot_stride = 0"]))
    kept = []

    def spy(*args, **kwargs):
        paths = _evolve_batch(*args, **kwargs)
        kept.append(paths.fields.shape[0])
        return paths

    monkeypatch.setattr(cli, "_evolve_batch", spy)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg_path, "--out", str(out)]) == code
    assert kept == [1]

    cfg = cli._load_config(cfg_path)
    grid = cli.build_grid(cfg)
    dt, t, n_steps = cli.build_times(cfg)
    spec = cli.attach_renorm(cli.build_spec(cfg), grid, dt, cfg)
    w = cli.build_noise(cfg, grid, spec.m, n_steps, dt, int(cfg["harness.seed"]))
    want = evolve(cli.build_initial(cfg, grid, spec.m), w, 0.0, t, spec)
    assert code == (0 if want.alive else 3)
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["alive"], manifest["reason"], manifest["blow_up_time"],
            manifest["monitor_final"]) == (want.alive, want.reason, want.blow_up_time,
                                           float(want.monitor_trace[-1]))
    assert (out / "state_final.flb").exists() == want.alive
    if want.alive:
        assert np.array_equal(read_field(out / "state_final.flb").values, want.final.values)
    assert not list(out.glob("state_0*.flb"))


def test_solve_rerun_same_digest(tmp_path):
    cfg = _write(tmp_path, HEAT_CONFIG)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
    d1 = json.loads((out1 / "manifest.json").read_text())["digest"]
    d2 = json.loads((out2 / "manifest.json").read_text())["digest"]
    assert d1 == d2


def test_solve_seed_changes_digest(tmp_path):
    cfg = _write(tmp_path, HEAT_CONFIG)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    main(["solve", "--config", cfg, "--out", str(out1)])
    main(["solve", "--config", cfg, "--out", str(out2), "--seed", "77"])
    d1 = json.loads((out1 / "manifest.json").read_text())["digest"]
    d2 = json.loads((out2 / "manifest.json").read_text())["digest"]
    assert d1 != d2


def test_couple_writes_shift_and_report(tmp_path, capsys):
    cfg = _write(tmp_path, COUPLE_CONFIG)
    out = tmp_path / "out"
    rc = main(["couple", "--config", cfg, "--out", str(out)])
    assert rc == 0
    h = read_shift_path(out / "shift.flb")
    assert np.any(h.values != 0.0)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "completed"
    assert manifest["residual"] < 1e-2


def test_tv_outputs(tmp_path):
    cfg = _write(tmp_path, COUPLE_CONFIG + "\nharness.n_samples = 4\ncoupling.gamma_list = 0.05,0.025\n")
    out = tmp_path / "out"
    rc = main(["tv", "--config", cfg, "--out", str(out)])
    assert rc == 0
    rows = (out / "tv_samples.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 2 * 4
    plot = (out / "tv_bound_vs_gamma.csv").read_text().strip().splitlines()
    assert plot[0] == "gamma,bound" and len(plot) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["summaries"]) == 2


def test_jacobian_check(tmp_path, capsys):
    cfg = _write(tmp_path, COUPLE_CONFIG)
    rc = main(["jacobian-check", "--config", cfg])
    captured = capsys.readouterr()
    assert rc == 0
    assert "fitted order" in captured.out


def test_symbols_listing(capsys):
    rc = main(["symbols", "--max-degree", "0"])
    captured = capsys.readouterr()
    assert rc == 0
    lines = [l for l in captured.out.splitlines() if l.strip()]
    assert len(lines) == 7
    assert any("Xi" == l.split()[0] for l in lines)


def test_symbols_csv(capsys):
    rc = main(["symbols", "--max-degree", "0,1", "--csv"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.splitlines()[0] == "tree,degree_base,degree_kappa"
    assert len(captured.out.splitlines()) == 1 + 8  # unit joins at this bound


def test_renorm_command(capsys):
    rc = main(["renorm", "--expr", "I(Xi)^2*I(I(Xi)^3)"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "3*C2*I(Xi)" in captured.out
    rc = main(["renorm", "--expr", "I(Xi)^2", "--c1", "2", "--c2", "0"])
    captured = capsys.readouterr()
    assert "2*1" in captured.out or "2" in captured.out


def test_renorm_shift_op(capsys):
    rc = main(["renorm", "--expr", "I(Xi)^2", "--op", "z"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "XiHat" in captured.out


def test_config_error_exit_code(tmp_path):
    cfg = _write(tmp_path, "equation.kind = teleportation\ngrid.n = 32\ntime.dt = 0.01\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("command, text, message", [
    ("solve", HEAT_CONFIG.replace("grid.n = 32", "grid.n = 33"), "power of two"),
    ("solve", HEAT_CONFIG.replace("time.t = 0.25", "time.t = 0.1"), "multiple of time.dt"),
    ("tv", COUPLE_CONFIG + "coupling.gamma_list = 0.01,0.2\n", "gamma_list"),
    ("solve", COUPLE_CONFIG.replace("= cubic_decay", "= cubic_decy"), "equation.drift"),
    ("solve", COUPLE_CONFIG.replace("= bounded_smooth", "= bounded"), "equation.diffusion"),
    ("solve", HEAT_CONFIG.replace("grid.n = 32", "grid.n = 32.0"), "grid.n"),
    ("couple", COUPLE_CONFIG.replace("k_gamma = 8", "k_gamma = 1.5"), "coupling.k_gamma"),
    ("tv", COUPLE_CONFIG + "coupling.gamma_list = 0.01,,0.02\n", "coupling.gamma_list"),
    ("tv", COUPLE_CONFIG + "harness.n_samples = 0\n", "harness.n_samples"),
    ("tv", COUPLE_CONFIG.replace("time.t = 0.25", "time.t = 0.00390625"), "two slices"),
    ("couple", COUPLE_CONFIG.replace("time.t = 0.25", "time.t = 0.00390625"), "two slices"),
    *[(command, COUPLE_CONFIG + "grid.dim = 2\n", "she1d expects dim=1")
      for command in ("solve", "couple", "tv", "jacobian-check")],
    ("solve", HEAT_CONFIG.replace("stride = 32", "stride = -1"), "output.snapshot_stride"),
    ("solve", HEAT_CONFIG + "equation.symmetric = maybe\n", "equation.symmetric"),
    ("solve", HEAT_CONFIG.replace("time.dt = 0.00390625", "time.dt = 0"), "time.dt"),
    ("solve", HEAT_CONFIG.replace("time.dt = 0.00390625", "time.dt = inf"), "time.dt"),
    ("solve", HEAT_CONFIG.replace("time.t = 0.25", "time.t = -0.25"), "not on the dt"),
    ("solve", HEAT_CONFIG + "equation.eps = -0.1\n", "equation.eps"),
    ("solve", HEAT_CONFIG + "initial.kind = random\ninitial.seed = -1\n", "initial.seed"),
])
def test_config_value_error_exits_two(tmp_path, capsys, command, text, message):
    """A fault found while the run is built from its config (here a
    ValueError of the grid, a horizon off the time grid, a gamma_list entry
    over the budget, a malformed value, a horizon of one slice for a shift, a
    state that does not fit the equation) is a configuration error."""
    cfg = _write(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_missing_config_file_exits_two(tmp_path, capsys):
    """A config path that cannot be read is a configuration error that names
    the path, not a traceback."""
    missing = str(tmp_path / "nonexistent.cfg")
    assert main(["solve", "--config", missing, "--out", str(tmp_path / "o")]) == 2
    assert missing in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("fault", [ValueError, RuntimeError])
def test_numerical_fault_exits_one(tmp_path, capsys, monkeypatch, fault):
    """A fault raised by the numerics after the run is built is not reported
    as a configuration error."""
    def failing(*args, **kwargs):
        raise fault("non-finite state")
    monkeypatch.setattr("fellerlab.cli._evolve_batch", failing)
    cfg = _write(tmp_path, HEAT_CONFIG)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "non-finite state" in capsys.readouterr().err


def test_gamma_m_budget_config_error(tmp_path):
    bad = COUPLE_CONFIG.replace("coupling.gamma = 0.05", "coupling.gamma = 0.2")
    cfg = _write(tmp_path, bad)
    assert main(["couple", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("command, extra, code", [
    ("couple", "", 2), ("tv", "harness.n_samples = 2\n", 2),
    ("tv", "harness.n_samples = 2\ncoupling.gamma_list = 0.05,0.025\n", 0),
    ("couple", "coupling.gamma_list = 0.05,0.025\n", 2)])
def test_gamma_list_replaces_gamma_budget(tmp_path, capsys, command, extra, code):
    """A coupling.gamma over the budget is a configuration error unless a
    gamma_list replaces it, which only ``tv`` reads; each list entry is
    checked instead."""
    bad = COUPLE_CONFIG.replace("coupling.gamma = 0.05", "coupling.gamma = 0.5") + extra
    cfg = _write(tmp_path, bad)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == code
    assert ("coupling.gamma * coupling.m_bound" in capsys.readouterr().err) == (code == 2)


def test_selftest_subset(tmp_path, capsys):
    out = tmp_path / "st"
    rc = main(["selftest", "--only", "1", "11", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "criterion  1 [PASS]" in captured.out
    assert "criterion 11 [PASS]" in captured.out
    manifest = json.loads((out / "selftest_manifest.json").read_text())
    assert all(c["passed"] for c in manifest["criteria"])


def test_unknown_config_key_names_nearest(tmp_path, capsys):
    cfg = _write(tmp_path, COUPLE_CONFIG + "coupling.k_gama = 4\n")
    assert main(["couple", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "'coupling.k_gama'" in err and "'coupling.k_gamma'" in err
    assert not (tmp_path / "o").exists()


def test_shipped_configs_load():
    from pathlib import Path
    from fellerlab.cli import _load_config
    shipped = sorted((Path(__file__).parents[1] / "configs").glob("*.cfg"))
    assert len(shipped) == 4
    for path in shipped:
        assert _load_config(path)
