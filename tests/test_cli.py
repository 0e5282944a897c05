import json

import numpy as np

from fellerlab.cli import main
from fellerlab.storage import read_field, read_shift_path

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


def test_gamma_m_budget_config_error(tmp_path):
    bad = COUPLE_CONFIG.replace("coupling.gamma = 0.05", "coupling.gamma = 0.2")
    cfg = _write(tmp_path, bad)
    assert main(["couple", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


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
