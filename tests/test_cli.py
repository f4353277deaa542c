import filecmp
import importlib.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import memflow
from memflow import cli
from memflow.geometry import save_mask, zigzag_mask
from memflow.observability import ObsSetup


def write_cfg(path, **overrides):
    cfg = {
        "kernel": "1",
        "seed": 7,
        "basis": {"J": 4, "n_x": 32},
        "time": {"T": 1.0, "n_t": 300},
        "alpha": 2.0,
        "mask": {"kind": "zigzag", "eps": 0.2, "n_t": 60, "n_x": 30},
        "flow_check": {"modes": [1, 2], "n_t_values": 3,
                       "remainder_t_values": 3},
        "probe_alpha": {"k_list": [1, 2]},
        "probe_ball": {"k_list": [2, 4], "x_star": 0.5, "r": 0.25},
        "probe_heat": {"half_widths": [0.05, 0.02], "t_list": [0.0, 0.1]},
        "reconstruct": {"noise": 0.0},
        "control": {"T_hat": 1.0},
    }
    for k, v in overrides.items():
        cfg[k] = v
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return cfg


def run(args):
    return cli.main([str(a) for a in args])


def test_unknown_key_rejected(tmp_path, capsys):
    p = tmp_path / "c.json"
    with open(p, "w") as fh:
        json.dump({"kernel": "1", "bogus": 3}, fh)
    assert run(["kernel", "--config", p, "--out", tmp_path / "o"]) == 2
    assert "bogus" in capsys.readouterr().err


def test_nested_key_path_in_error(tmp_path, capsys):
    p = tmp_path / "c.json"
    with open(p, "w") as fh:
        json.dump({"basis": {"J": 4, "n_q": 1}}, fh)
    assert run(["kernel", "--config", p, "--out", tmp_path / "o"]) == 2
    assert "basis.n_q" in capsys.readouterr().err


def test_invalid_kernel_exit_two(tmp_path, capsys):
    p = tmp_path / "c.json"
    write_cfg(p, kernel="exp(t^2)")
    assert run(["kernel", "--config", p, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert "kernel" in err and "term 0" in err


@pytest.mark.parametrize("kernel", ["1e400", "exp(1e400*t)", "2 + 1e400*t*cos(1*t)"])
def test_non_finite_kernel_exit_two(tmp_path, capsys, kernel):
    p = tmp_path / "c.json"
    write_cfg(p, kernel=kernel)
    assert run(["kernel", "--config", p, "--out", tmp_path / "o"]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_range_validation(tmp_path):
    p = tmp_path / "c.json"
    write_cfg(p, basis={"J": 4, "n_x": 8})  # n_x < 4J
    assert run(["kernel", "--config", p, "--out", tmp_path / "o"]) == 2


def test_kernel_command_artifacts(tmp_path):
    p = tmp_path / "c.json"
    cfg = write_cfg(p)
    out = tmp_path / "out"
    assert run(["kernel", "--config", p, "--out", out]) == 0
    h = cli.config_hash(cli.load_config(p))
    d = out / "kernel" / h
    manifest = json.load(open(d / "manifest.json"))
    assert manifest["command"] == "kernel"
    assert "coefficients.csv" in manifest["artifacts"]
    assert manifest["versions"] == {"python": platform.python_version(),
                                    "numpy": np.__version__,
                                    "memflow": memflow.__version__}
    first = open(d / "coefficients.csv").readline()
    assert first.strip() == f"# config {h}"
    payload = json.load(open(d / "kernel.json"))
    assert payload["config_hash"] == h
    assert all(payload["checks"].values())


@pytest.mark.xfail(
    strict=True,
    reason="open defect (ROADMAP item 3): h_l(0) of this several-rate kernel "
           "is ~2e-10 off at l = 6, so the p_h_origin check exceeds its "
           "1e-12 gate and the command exits 1",
)
def test_kernel_command_several_rates(tmp_path):
    p = tmp_path / "c.json"
    write_cfg(p, kernel="2 + t^3*exp(-1*t) + -0.5*t*exp(-1*t) + exp(0.3*t)")
    assert run(["kernel", "--config", p, "--out", tmp_path / "o"]) == 0


def test_import_loads_no_scipy():
    code = ("import sys\n"
            "def loaded(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "import memflow\n"
            "print(loaded())\n"
            "import memflow.cli\n"
            "print(loaded())\n")
    env = {**os.environ, "PYTHONPATH": str(Path(memflow.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.split("\n")[:2] == ["[]", "[]"]


def test_moc_command_prints_value(tmp_path, capsys):
    p = tmp_path / "c.json"
    write_cfg(p, time={"T": 1.3, "n_t": 300},
              mask={"kind": "zigzag", "eps": 0.1, "n_t": 130, "n_x": 64})
    assert run(["moc", "--config", p, "--out", tmp_path / "o"]) == 0
    out = capsys.readouterr().out
    line = [l for l in out.splitlines() if l.startswith("moc =")][0]
    assert abs(float(line.split("=")[1]) - 0.1) <= 0.01


def test_mask_file_round_trip_through_cli(tmp_path):
    mask = zigzag_mask(0.2, 1.0, 40, 20)
    mp = tmp_path / "m.mask"
    save_mask(mask, mp)
    p = tmp_path / "c.json"
    write_cfg(p, mask={"kind": "file", "path": str(mp)})
    assert run(["moc", "--config", p, "--out", tmp_path / "o"]) == 0


def test_missing_mask_file(tmp_path):
    p = tmp_path / "c.json"
    write_cfg(p, mask={"kind": "file", "path": str(tmp_path / "nope.mask")})
    assert run(["moc", "--config", p, "--out", tmp_path / "o"]) == 2


def test_seed_override_changes_hash_not_needed(tmp_path):
    p = tmp_path / "c.json"
    write_cfg(p)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["reconstruct", "--config", p, "--out", out1]) == 0
    assert run(["reconstruct", "--config", p, "--out", out2, "--seed", "7"]) == 0
    # same effective config -> same hash directory
    sub1 = next((out1 / "reconstruct").iterdir())
    sub2 = next((out2 / "reconstruct").iterdir())
    assert sub1.name == sub2.name


@pytest.mark.parametrize("command", ["flow-check", "kernel", "moc", "obsconst",
                                     "probe-alpha", "probe-ball", "probe-heat",
                                     "reconstruct", "control", "duality"])
def test_determinism_byte_identical(tmp_path, command):
    p = tmp_path / "c.json"
    if command == "probe-alpha":
        # the bump probe needs a mask containing an early cylinder
        write_cfg(p, mask={"kind": "cylinder", "n_t": 60, "n_x": 30})
    else:
        write_cfg(p)
    a, b = tmp_path / "a", tmp_path / "b"
    assert run([command, "--config", p, "--out", a]) == 0
    assert run([command, "--config", p, "--out", b]) == 0
    da = a / command / next((a / command).iterdir()).name
    db = b / command / da.name
    cmp = filecmp.dircmp(da, db)
    assert not cmp.diff_files and not cmp.left_only and not cmp.right_only
    for name in os.listdir(da):
        assert open(da / name, "rb").read() == open(db / name, "rb").read()


@pytest.mark.parametrize("overrides", [
    {"window": {"S": 0.1}},
    {"window": {"S": 0.8, "T": 0.2}},
    {"flow_check": {"modes": [0]}},
    {"obsconst": {"J_list": [0]}},
    {"flow_check": {"n_t_values": 0}},
    {"flow_check": {"remainder_t_values": 0}},
    {"flow_check": {"orders": [-1]}},
], ids=["window-without-T", "window-reversed", "mode-zero", "J-zero",
        "check-times-zero", "remainder-times-zero", "order-negative"])
def test_bad_ranges_exit_two(tmp_path, capsys, overrides):
    p = tmp_path / "c.json"
    write_cfg(p, **overrides)
    command = "flow-check" if "flow_check" in overrides else "obsconst"
    assert run([command, "--config", p, "--out", tmp_path / "o"]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, overrides", [
    ("control", {"control": {"regime": "linf"}}),
    ("control", {"control": {"regime": "weighted_linf", "alpha": 0.5}}),
    ("control", {"control": {"T_hat": -1.0}}),
    ("reconstruct", {"reconstruct": {"noise": -0.1}}),
    ("moc", {"mask": {"kind": "zigzag", "eps": 0.0}}),
    ("moc", {"mask": {"kind": "zigzag", "eps": -0.2}}),
    ("moc", {"mask": {"kind": "cylinder", "x_lo": 0.6, "x_hi": 0.6}}),
    ("moc", {"mask": {"kind": "cusp", "S": 1.5}}),
    ("moc", {"mask": {"kind": "cusp", "S": -0.1}}),
    ("obsconst", {"mask": {"kind": "cylinder", "x_lo": 0.7, "x_hi": 0.2}}),
], ids=["regime-linf", "weighted-alpha-half", "T-hat-negative", "noise-negative",
        "zigzag-eps-zero", "zigzag-eps-negative", "cylinder-empty-band", "cusp-S-past-T",
        "cusp-S-negative", "obsconst-cylinder-reversed"])
def test_bad_values_exit_two(tmp_path, capsys, command, overrides):
    p = tmp_path / "c.json"
    write_cfg(p, **overrides)
    assert run([command, "--config", p, "--out", tmp_path / "o"]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_csv_fields_are_numbers(tmp_path):
    p = tmp_path / "c.json"
    # the bump probe needs a mask containing an early cylinder
    write_cfg(p, mask={"kind": "cylinder", "n_t": 60, "n_x": 30})
    out = tmp_path / "out"
    for command in ("report", "probe-alpha", "probe-ball", "probe-heat"):
        assert run([command, "--config", p, "--out", out]) == 0
    paths = sorted(out.rglob("*.csv"))
    assert len(paths) == 11  # duality writes no CSV
    for path in paths:
        lines = path.read_text().splitlines()
        header = lines[1].split(", ")
        assert len(lines) > 2, path
        for line in lines[2:]:
            fields = line.split(", ")
            assert len(fields) == len(header), (path, line)
            for name, value in zip(header, fields):
                if name in ("h_l", "p_l"):
                    continue  # kernel coefficients are written as formulas
                float(value)


@pytest.mark.parametrize("T", [1.0, 1.25])
def test_flow_check_passes_on_series_rounding(tmp_path, T):
    # kernel_rep_mode's 12/16-node check sees the series kernel's rounding
    # here (2.6e-12 at mode 1, t = 1; over 1e-11 at t = 1.25); it must not
    # fail the command
    p = tmp_path / "c.json"
    write_cfg(p, kernel="exp(-1*t) + t^4*exp(-2*t)", time={"T": T, "n_t": 300},
              flow_check={"modes": [1, 2, 3, 8], "n_t_values": 8,
                          "remainder_t_values": 3})
    out = tmp_path / "o"
    assert run(["flow-check", "--config", p, "--out", out]) == 0
    d = next((out / "flow-check").iterdir())
    assert json.loads((d / "flow_check.json").read_text())["failures"] == 0


def test_library_numerical_error_exits_one(tmp_path, capsys):
    # kernel_rep_mode's quadrature does not converge on this oscillation
    p = tmp_path / "c.json"
    write_cfg(p, kernel="cos(20000*t)",
              flow_check={"modes": [1], "n_t_values": 1, "remainder_t_values": 1})
    out = tmp_path / "o"
    assert run(["flow-check", "--config", p, "--out", out]) == 1
    assert "QuadratureError" in capsys.readouterr().err
    d = next((out / "flow-check").iterdir())
    assert json.loads((d / "manifest.json").read_text())["status"] == "failed"


def test_flow_check_vacuous_remainder_bound(tmp_path):
    p = tmp_path / "c.json"
    write_cfg(p, kernel="exp(-1*t)*cos(3*t)",
              flow_check={"modes": [1], "n_t_values": 1, "orders": [4],
                          "remainder_t_values": 1})
    out = tmp_path / "o"
    assert run(["flow-check", "--config", p, "--out", out]) == 0
    d = next((out / "flow-check").iterdir())
    rows = (d / "remainder_bound.csv").read_text().splitlines()[2:]
    assert len(rows) == 1
    N, t, _, bound, ok = rows[0].split(", ")
    assert (N, t, bound, ok) == ("4", "1.0", "inf", "1")


def test_report_aggregates(tmp_path):
    p = tmp_path / "c.json"
    write_cfg(p)
    out = tmp_path / "out"
    assert run(["report", "--config", p, "--out", out]) == 0
    h = next((out / "report").iterdir()).name
    rep = json.load(open(out / "report" / h / "report.json"))
    assert rep["all_ok"]
    assert set(rep["commands"]) == {"flow-check", "kernel", "moc", "obsconst",
                                    "reconstruct", "control", "duality"}


def _benchmark_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("workload", ["steer", "constants"])
def test_one_gram_build_per_job(workload, tmp_path, monkeypatch):
    """reconstruct and obsconst ask for Grams several times; their one setup
    builds the row-Gram stack behind them once."""
    command, _, cfg = _benchmark_workloads().make_job(workload, 701, 0)
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    calls, builds = [], []
    row_grams = ObsSetup.row_grams

    def counted(self):
        calls.append(id(self))
        if self._row_grams is None:
            builds.append(id(self))
        return row_grams(self)

    monkeypatch.setattr(ObsSetup, "row_grams", counted)
    assert run([command, "--config", p, "--out", tmp_path / "o"]) == 0
    assert len(builds) == 1 and len(calls) > 1


def test_control_json_reports_fine_grid_and_irls_cap(tmp_path):
    """The weighted_linf probe that misses the 1e-6 gate stops its IRLS at
    the 40-iteration cap (perfbench/checks.py: CONTROL_MISS_CONFIG)."""
    cfg = {"seed": 1350752518, "basis": {"J": 32, "n_x": 128},
           "time": {"T": 1.0, "n_t": 1000}, "kernel": "exp(-0.5097*t)",
           "mask": {"kind": "cylinder", "S": 0.042, "x_lo": 0.5018, "x_hi": 0.8888},
           "control": {"regime": "weighted_linf"}}
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    run(["control", "--config", p, "--out", tmp_path / "o"])
    art = tmp_path / "o" / "control" / cli.config_hash(cli.load_config(p))
    rep = json.loads((art / "control.json").read_text())
    assert rep["n_steps_fine"] == 6000  # eta_32 = 1024 pi^2, 6 substeps
    assert rep["irls_iterations"] == 40 and rep["irls_converged"] is False
