import copy
import filecmp
import importlib.util
import json
import math
import os
import pkgutil
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import memflow
from memflow import cli, flow, inverse_control, observability
from memflow.geometry import cylinder_mask, mask_to_text, zigzag_mask
from memflow.observability import ObsSetup
from memflow.spectral import interval_basis


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


# every key of the config table at its default, written out
ALL_DEFAULTS = {
    "kernel": "exp(-1*t)", "seed": 0,
    "basis": {"J": 8, "n_x": 64}, "time": {"T": 1.0, "n_t": 1000},
    "mask": {"kind": "cylinder"},
    "flow_check": {"modes": [1, 2, 3, 8], "n_t_values": 8, "orders": [2, 3, 4],
                   "remainder_t_values": 10},
    "kernel_cmd": {"l_max": 6, "grid_points": 100},
    "moc_cmd": {"radii": [0.05, 0.1, 0.2]},
    "obsconst": {"J_list": [8], "n_restarts": 32},
    "probe_alpha": {"k_list": [1, 2, 4, 8, 16, 24, 32], "omega": [0.25, 0.75]},
    "probe_ball": {"k_list": [2, 4, 8, 16, 24, 32], "x_star": 0.5, "r": 0.2},
    "probe_heat": {"x0": 0.5, "r": 0.2, "half_widths": [0.08, 0.04, 0.02, 0.01],
                   "t_list": [0.0, 1e-3, 1e-2, 0.1, 0.5, 1.0], "s_list": [0.0, -2.0, -4.0]},
    "reconstruct": {"noise": 0.0},
    "control": {"T_hat": 1.0, "regime": "l2", "alpha": 2.0, "target": "eta^-3"},
}


def test_defaults_written_out_resolve_like_an_empty_config(tmp_path):
    empty, full = tmp_path / "empty.json", tmp_path / "full.json"
    empty.write_text("{}")
    full.write_text(json.dumps(ALL_DEFAULTS))
    cfg = cli.load_config(empty)
    assert cfg == cli.load_config(full)
    assert cli.config_hash(cfg) == cli.config_hash(cli.load_config(full))
    # the keys no command sets unless written: no window, no weight, lambda by rule
    assert (cfg["window"], cfg["alpha"], cfg["reconstruct"]["lambda"]) == (None, None, None)
    # derived defaults follow the written basis and time
    empty.write_text(json.dumps({"basis": {"J": 5, "n_x": 32}, "time": {"T": 2.0}}))
    cfg = cli.load_config(empty)
    assert (cfg["obsconst"]["J_list"], cfg["control"]["T_hat"]) == ([5], 2.0)


def test_manifest_records_the_resolved_config(tmp_path):
    p = tmp_path / "c.json"
    write_cfg(p)
    out = tmp_path / "out"
    assert run(["kernel", "--config", p, "--out", out]) == 0
    cfg = cli.load_config(p)
    manifest = json.loads((out / "kernel" / cli.config_hash(cfg) / "manifest.json").read_text())
    assert manifest["config"] == cfg
    assert manifest["config"]["kernel_cmd"] == {"l_max": 6, "grid_points": 100}


def test_explicit_zero_lambda_is_honoured(tmp_path):
    p = tmp_path / "c.json"
    write_cfg(p, reconstruct={"noise": 0.01, "lambda": 0})
    out = tmp_path / "o"
    assert run(["reconstruct", "--config", p, "--out", out]) == 0
    d = next((out / "reconstruct").iterdir())
    assert json.loads((d / "reconstruct.json").read_text())["lambda"] == 0
    # without lambda the discrepancy principle picks a positive one
    write_cfg(p, reconstruct={"noise": 0.01})
    assert run(["reconstruct", "--config", p, "--out", out]) == 0
    lams = [json.loads((d / "reconstruct.json").read_text())["lambda"]
            for d in (out / "reconstruct").iterdir()]
    assert sorted(lams)[0] == 0 and sorted(lams)[1] > 0


def test_reconstruct_noise_does_not_repeat_the_truth(tmp_path, monkeypatch):
    """The noise continues the generator that drew the truth: its first
    draws are not the unnormalized truth again."""
    seen = []
    synthesize = cli.synthesize_observation

    def spy(setup, y0, noise=0.0, rng=None):
        if noise:
            seen.append((np.array(y0), copy.deepcopy(rng).standard_normal(len(y0))))
        return synthesize(setup, y0, noise=noise, rng=rng)

    monkeypatch.setattr(cli, "synthesize_observation", spy)
    p = tmp_path / "c.json"
    write_cfg(p, basis={"J": 8, "n_x": 32}, reconstruct={"noise": 0.01})
    assert run(["reconstruct", "--config", p, "--out", tmp_path / "o"]) == 0
    (truth, first), = seen
    assert abs(truth @ first) / np.linalg.norm(first) < 0.9


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
    mp.write_text(mask_to_text(mask))
    p = tmp_path / "c.json"
    write_cfg(p, mask={"kind": "file", "path": str(mp)})
    assert run(["moc", "--config", p, "--out", tmp_path / "o"]) == 0
    write_cfg(p, mask={"kind": "file", "path": str(mp), "eps": 0.2})
    assert run(["moc", "--config", p, "--out", tmp_path / "o"]) == 2


def test_moc_window_past_a_short_file_mask(tmp_path, capsys):
    """A window that starts after the mask file's horizon is a config error
    (exit 2), not a traceback."""
    mp = tmp_path / "m.mask"
    mp.write_text(mask_to_text(cylinder_mask(0.5, 16, 16)))
    p = tmp_path / "c.json"
    write_cfg(p, mask={"kind": "file", "path": str(mp)}, window={"S": 0.6, "T": 1.0})
    assert run(["moc", "--config", p, "--out", tmp_path / "o"]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_missing_mask_file(tmp_path):
    p = tmp_path / "c.json"
    write_cfg(p, mask={"kind": "file", "path": str(tmp_path / "nope.mask")})
    assert run(["moc", "--config", p, "--out", tmp_path / "o"]) == 2


def test_missing_config_file(tmp_path, capsys):
    assert run(["kernel", "--config", tmp_path / "nope.json", "--out", tmp_path / "o"]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "o").exists()


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
    ("moc", {"mask": {"kind": "cylinder", "eps": 0.2}}),
    ("obsconst", {"obsconst": {"n_restarts": -5}}),
    ("kernel", {"kernel_cmd": {"grid_points": 0}}),
    ("kernel", {"kernel_cmd": {"l_max": -1}}),
    # a cylinder mask holds the early cylinder that probe-alpha needs
    ("probe-alpha", {"probe_alpha": {"k_list": []}, "mask": {"kind": "cylinder"}}),
    ("probe-alpha", {"probe_alpha": {"k_list": [-1]}, "mask": {"kind": "cylinder"}}),
    ("moc", {"moc_cmd": {"radii": []}}),
    ("moc", {"moc_cmd": {"radii": [-0.1]}}),
    ("reconstruct", {"reconstruct": {"lambda": -1.0}}),
    ("obsconst", {"alpha": -1.0}),
    ("reconstruct", {"alpha": -1.0}),
    ("probe-ball", {"probe_ball": {"k_list": []}}),
    ("probe-heat", {"probe_heat": {"half_widths": []}}),
    ("probe-heat", {"probe_heat": {"t_list": []}}),
    ("probe-ball", {"probe_ball": {"r": -0.1}}),
    ("probe-ball", {"probe_ball": {"x_star": 1.5}}),
    ("probe-heat", {"probe_heat": {"r": -1}}),
    ("moc", {"mask": {"kind": "zigzag", "n_t": 0}}),
    ("obsconst", {"mask": {"kind": "zigzag", "n_t": 0}}),
    ("moc", {"mask": {"kind": "cylinder", "n_x": 0}}),
    ("obsconst", {"mask": {"kind": "random_rects", "n_x": 0}}),
    ("moc", {"mask": {"kind": "cusp", "n_x": 0}}),
    ("moc", {"mask": {"kind": "cusp", "exponent": -1}}),
    ("moc", {"mask": {"kind": "cusp", "exponent": 0}}),
    ("reconstruct", {"seed": -1}),
    ("reconstruct --seed -1", {}),
    ("obsconst", {"window": {"S": 0.5, "T": 0.51}, "time": {"T": 1.0, "n_t": 40}}),
    ("probe-heat", {"probe_heat": {"x0": 5}}),
    ("probe-heat", {"probe_heat": {"x0": 0}}),
    ("probe-heat", {"probe_heat": {"s_list": ["x"]}}),
    ("probe-heat", {"probe_heat": {"s_list": []}}),
    ("probe-alpha", {"probe_alpha": {"omega": ["a", 1]}, "mask": {"kind": "cylinder"}}),
    ("probe-alpha", {"probe_alpha": {"omega": [0.25]}, "mask": {"kind": "cylinder"}}),
    ("probe-alpha", {"probe_alpha": {"omega": [0.25, 1.5]}, "mask": {"kind": "cylinder"}}),
    ("control", {"control": {"target": "one"}}),
    # empty observation sets: the ball covers the domain, or no rectangle is drawn
    ("probe-ball", {"probe_ball": {"r": 5.0}}),
    ("obsconst", {"mask": {"kind": "random_rects", "count": -1}}),
    ("obsconst", {"mask": {"kind": "random_rects", "count": 0}}),
    ("control", {"mask": {"kind": "ball_complement", "r": 5.0}}),
    # a command that builds no mask still rejects an unknown kind
    ("kernel", {"mask": {"kind": "blob"}}),
], ids=["regime-linf", "weighted-alpha-half", "T-hat-negative", "noise-negative",
        "zigzag-eps-zero", "zigzag-eps-negative", "cylinder-empty-band", "cusp-S-past-T",
        "cusp-S-negative", "obsconst-cylinder-reversed", "cylinder-takes-no-eps",
        "restarts-negative", "grid-points-zero", "l-max-negative", "k-list-empty",
        "k-list-negative", "radii-empty", "radii-negative", "lambda-negative",
        "obsconst-alpha-negative", "reconstruct-alpha-negative", "ball-k-list-empty",
        "heat-half-widths-empty", "heat-t-list-empty", "ball-r-negative",
        "ball-x-star-outside", "heat-r-negative", "mask-n-t-zero", "obsconst-mask-n-t-zero",
        "mask-n-x-zero", "obsconst-rects-n-x-zero", "cusp-n-x-zero",
        "cusp-exponent-negative", "cusp-exponent-zero", "seed-negative",
        "seed-flag-negative", "window-too-narrow", "heat-x0-outside", "heat-x0-zero",
        "heat-s-list-text", "heat-s-list-empty", "omega-text", "omega-one-number",
        "omega-outside", "control-target-unknown", "ball-covers-domain",
        "rects-count-negative", "rects-count-zero", "control-mask-empty",
        "mask-kind-unknown"])
def test_bad_values_exit_two(tmp_path, capsys, command, overrides):
    # a command may carry flags: "reconstruct --seed -1"
    p = tmp_path / "c.json"
    write_cfg(p, **overrides)
    assert run([*command.split(), "--config", p, "--out", tmp_path / "o"]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "o").exists()


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


def test_flow_check_passes_on_oscillating_kernel(tmp_path):
    # the decomposition route's remainder needs cut panels here: uncut, it
    # reads -5.2e-5 against kernel_rep's -1.6e-4 at mode 1, t = 1
    p = tmp_path / "c.json"
    write_cfg(p, kernel="cos(60*t)",
              flow_check={"modes": [1, 2, 3], "n_t_values": 4, "remainder_t_values": 2})
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


def test_nonfinite_series_integral_exits_one(tmp_path, capsys):
    p = tmp_path / "c.json"
    write_cfg(p, kernel="exp(800*t)", time={"T": 1.0, "n_t": 200},
              flow_check={"modes": [1]})
    out = tmp_path / "o"
    assert run(["flow-check", "--config", p, "--out", out]) == 1
    assert "not finite" in capsys.readouterr().err
    d = next((out / "flow-check").iterdir())
    assert json.loads((d / "manifest.json").read_text())["status"] == "failed"


OVERFLOW_COMMANDS = ["obsconst", "reconstruct", "duality", "probe-alpha", "control"]


@pytest.mark.parametrize("command", OVERFLOW_COMMANDS)
def test_overflowing_propagator_exits_one(tmp_path, capsys, command):
    """exp(800 t) grows the flow past the float range by t = 1: each command
    that reads a propagator run exits 1 on the typed error with a ``failed``
    manifest, and writes no NaN."""
    with pytest.warns(RuntimeWarning):  # numpy's overflow in the scan
        _exits_one_typed(tmp_path, capsys, command, "exp(800*t)")


@pytest.mark.parametrize("command", OVERFLOW_COMMANDS)
def test_overflowing_square_exits_one(tmp_path, capsys, command):
    """exp(400 t) keeps the flow finite (about e^400 at t = 1), but its
    square overflows: the Gram or the reported seminorm is refused with the
    same typed error, where a LinAlgError traceback, a NaN final error or
    infinite quotients came out before."""
    with np.errstate(over="ignore", invalid="ignore"):
        _exits_one_typed(tmp_path, capsys, command, "exp(400*t)")


def test_a_square_in_range_still_runs(tmp_path):
    """exp(300 t) squares to about e^600, inside the float range: obsconst's
    optimizers score candidates that overflow as q = inf and go on."""
    p = tmp_path / "c.json"
    write_cfg(p, kernel="exp(300*t)", time={"T": 1.0, "n_t": 200},
              obsconst={"n_restarts": 4})
    with np.errstate(over="ignore", invalid="ignore"):
        assert run(["obsconst", "--config", p, "--out", tmp_path / "o"]) == 0


def _exits_one_typed(tmp_path, capsys, command, kernel):
    p = tmp_path / "c.json"
    cfg = write_cfg(p, kernel=kernel, time={"T": 1.0, "n_t": 200})
    if command == "probe-alpha":
        del cfg["mask"]
        p.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert run([command, "--config", p, "--out", out]) == 1
    err = capsys.readouterr().err
    assert "NonFinitePropagatorError" in err and "not finite" in err
    d = next((out / command).iterdir())
    assert json.loads((d / "manifest.json").read_text())["status"] == "failed"
    assert not any("NaN" in f.read_text() for f in d.glob("*.json"))


def test_singular_reconstruction_exits_one(tmp_path, capsys):
    # a band observed only over t in (0.99, 1) hides most of the 32 modes
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"basis": {"J": 32, "n_x": 128},
                             "mask": {"kind": "cylinder", "S": 0.99,
                                      "x_lo": 0.4, "x_hi": 0.45}}))
    out = tmp_path / "o"
    assert run(["reconstruct", "--config", p, "--out", out]) == 1
    assert "SingularSystemError" in capsys.readouterr().err
    d = next((out / "reconstruct").iterdir())
    assert json.loads((d / "manifest.json").read_text())["status"] == "failed"


@pytest.mark.parametrize("command, kernel, code, message", [
    ("moc", "0", 2, "config error: kernel"),
    ("probe-ball", "0", 2, "config error: kernel"),
    ("moc", "t^13", 1, "RootIsolationError"),  # a root of order 13 > 12 at t = 0
])
def test_unusable_kernel_exits_cleanly(tmp_path, capsys, command, kernel, code, message):
    p = tmp_path / "c.json"
    write_cfg(p, kernel=kernel)
    out = tmp_path / "o"
    assert run([command, "--config", p, "--out", out]) == code
    assert message in capsys.readouterr().err
    if code == 1:
        d = next((out / command).iterdir())
        assert json.loads((d / "manifest.json").read_text())["status"] == "failed"


def test_module_exceptions_importable_from_package():
    exported = []
    for info in pkgutil.iter_modules(memflow.__path__):
        module = importlib.import_module(f"memflow.{info.name}")
        for name in getattr(module, "__all__", ()):
            exported.append((name, getattr(memflow, name, None) is getattr(module, name)))
    assert exported and all(ok for _, ok in exported), exported


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


def test_report_finalizes_a_failing_sub_command(tmp_path, capsys):
    # moc raises RootIsolationError on t^13 (a root of order 13 > 12 at t = 0)
    p = tmp_path / "c.json"
    write_cfg(p, kernel="t^13")
    out = tmp_path / "o"
    assert run(["report", "--config", p, "--out", out]) == 1
    assert "RootIsolationError" in capsys.readouterr().err
    for command in ("report", "moc"):
        d = next((out / command).iterdir())
        assert json.loads((d / "manifest.json").read_text())["status"] == "failed"


def _break_witness(monkeypatch):
    # a seminorm that no longer reproduces the optimizers' constants
    seminorm = observability.obs_seminorm
    monkeypatch.setattr(observability, "obs_seminorm",
                        lambda setup, v: 2.0 * seminorm(setup, v))


def _break_replay(monkeypatch):
    # a forced replay that lands off the moment-solve prediction
    replay = inverse_control._replay
    monkeypatch.setattr(inverse_control, "_replay", lambda *args: replay(*args) + 1.0)


@pytest.mark.parametrize("via_report", [False, True], ids=["alone", "report"])
@pytest.mark.parametrize("error, breaker, command", [
    ("ObsInvariantError", _break_witness, "obsconst"),
    ("RouteMismatchError", _break_replay, "control"),
])
def test_invariant_errors_exit_one(tmp_path, capsys, monkeypatch, error, breaker,
                                   command, via_report):
    """A broken invariant check in the library ends the command, alone or
    under report, with exit 1, failed manifests and the error's class name
    on stderr."""
    p = tmp_path / "c.json"
    write_cfg(p)
    breaker(monkeypatch)
    out = tmp_path / "o"
    ran = "report" if via_report else command
    assert run([ran, "--config", p, "--out", out]) == 1
    assert error in capsys.readouterr().err
    for name in {ran, command}:
        d = next((out / name).iterdir())
        assert json.loads((d / "manifest.json").read_text())["status"] == "failed"


def test_probe_ball_without_a_multiplier_index_exits_one(tmp_path, capsys, monkeypatch):
    """A multiplier coefficient that vanishes at every order ends probe-ball
    with exit 1, a failed manifest and the error's class name on stderr."""
    p = tmp_path / "c.json"
    write_cfg(p)
    monkeypatch.setattr(flow, "h_coeff", lambda M, l: memflow.ExpPolyFn.zero())
    out = tmp_path / "o"
    assert run(["probe-ball", "--config", p, "--out", out]) == 1
    assert "MultiplierIndexError" in capsys.readouterr().err
    d = next((out / "probe-ball").iterdir())
    assert json.loads((d / "manifest.json").read_text())["status"] == "failed"


@pytest.mark.parametrize("command", ["probe-alpha", "probe-ball"])
def test_probes_read_the_exact_table(tmp_path, monkeypatch, command):
    p = tmp_path / "c.json"
    write_cfg(p, mask={"kind": "cylinder", "n_t": 60, "n_x": 30})
    methods = []
    build = cli.build_flow_table

    def recorded(*args, method="volterra"):
        methods.append(method)
        return build(*args, method=method)

    monkeypatch.setattr(cli, "build_flow_table", recorded)
    assert run([command, "--config", p, "--out", tmp_path / "o"]) == 0
    assert methods == ["exact"]


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


def test_report_writes_what_each_command_writes_alone(tmp_path):
    """Every artifact and manifest of report's sub-commands is byte for
    byte what the command writes when run alone: the noise of reconstruct
    and the directions of duality come from the config's seed either way."""
    p = tmp_path / "c.json"
    write_cfg(p, reconstruct={"noise": 0.01},
              control={"T_hat": 1.0, "regime": "weighted_linf"})
    together, alone = tmp_path / "together", tmp_path / "alone"
    run(["report", "--config", p, "--out", together])
    names = sorted(json.loads(next((together / "report").iterdir())
                              .joinpath("report.json").read_text())["commands"])
    assert len(names) == 7
    for name in names:
        run([name, "--config", p, "--out", alone])
    files = sorted(f.relative_to(alone) for f in alone.rglob("*") if f.is_file())
    assert {f.parts[0] for f in files} == set(names)
    assert files == sorted(f.relative_to(together) for f in together.rglob("*")
                           if f.is_file() and f.parts[-3] != "report")
    for f in files:
        assert (alone / f).read_bytes() == (together / f).read_bytes(), f


def _benchmark_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("workload, index", [("steer", 0), ("constants", 0),
                                             ("steer", 1)],
                         ids=["steer", "constants", "steer-control"])
def test_one_gram_build_per_job(workload, index, tmp_path, monkeypatch):
    """Each job builds its masked spatial Grams once, through the one
    masked-row operator that observation and control share.  reconstruct
    builds its normal equations, one Gram contracted by runs of rows and one
    adjoint, once for the choice of lambda and the solve, so it never builds
    the row factors of the seminorm, and neither does control; obsconst's
    seminorm reads the factors many times and builds them once."""
    command, _, cfg = _benchmark_workloads().make_job(workload, 701, index)
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    spatial = []
    spatial_grams = observability._spatial_grams

    def counted_spatial(F, W):
        spatial.append(W.shape)
        return spatial_grams(F, W)

    monkeypatch.setattr(observability, "_spatial_grams", counted_spatial)
    calls, builds = [], []
    row_factors = observability._MaskedRows.row_factors
    spatial_factors = observability._spatial_factors

    def counted(self):
        calls.append(id(self))
        return row_factors(self)

    def counted_factors(F, W):
        builds.append(W.shape)
        return spatial_factors(F, W)

    monkeypatch.setattr(observability._MaskedRows, "row_factors", counted)
    monkeypatch.setattr(observability, "_spatial_factors", counted_factors)
    normal = []
    for name in ("gram", "adjoint"):
        method = getattr(observability._MaskedRows, name)
        monkeypatch.setattr(observability._MaskedRows, name,
                            lambda self, X, name=name, method=method:
                            normal.append(name) or method(self, X))
    assert run([command, "--config", p, "--out", tmp_path / "o"]) == 0
    assert len(spatial) == 1
    if workload == "constants":
        assert len(builds) == 1 and len(calls) > 1
    else:
        assert not builds and not calls
    if command == "reconstruct":
        assert sorted(normal) == ["adjoint", "gram"]


@pytest.mark.parametrize("workload, index", [("steer", 1), ("steer", 3),
                                             ("constants", 0), ("steer", 2),
                                             ("steer", 0), ("steer", 4)],
                         ids=["control-l2", "control-weighted", "obsconst",
                              "reconstruct-zigzag", "reconstruct-cylinder",
                              "reconstruct-cylinder-late"])
def test_artifacts_do_not_depend_on_the_blas_thread_count(workload, index, tmp_path):
    """A benchmark-sized job run under one and under two BLAS threads writes
    the same bytes to every artifact but the manifest.  On the cylinder
    reconstruct jobs (steer 0 and 4) the Gram sums a run of 1001 rows, and
    the pencil's condition number (about 1e10) would carry any change of
    its summation order into the coefficients."""
    command, _, cfg = _benchmark_workloads().make_job(workload, 801, index)
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    src = str(Path(memflow.__file__).resolve().parents[1])
    artifacts = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        subprocess.run([sys.executable, "-m", "memflow.cli", command, "--config", str(p),
                        "--out", str(out)], env=env, check=True, capture_output=True,
                       timeout=300)
        (d,) = (out / command).iterdir()
        artifacts.append({f.name: f.read_bytes() for f in d.iterdir()
                          if f.name != "manifest.json"})
    assert artifacts[0] and artifacts[0] == artifacts[1]


@pytest.mark.parametrize("command, overrides, builds", [
    ("obsconst", {"kernel": "exp(-1*t)", "obsconst": {"J_list": [4, 6]}}, 2),
    ("duality", None, 1),
], ids=["obsconst", "duality-defaults"])
def test_one_surrogate_gram_per_setup(command, overrides, builds, tmp_path, monkeypatch):
    """The surrogate pair (G, D) is built once per setup and shared by the
    pencil, the null constant and the duality instance: obsconst builds one
    Gram per J, and duality on the all-defaults config builds one."""
    p = tmp_path / "c.json"
    if overrides is None:
        p.write_text("{}")
    else:
        write_cfg(p, **overrides)
    calls = []
    gram = ObsSetup.gram

    def counted(self, coef):
        calls.append(id(self))
        return gram(self, coef)

    monkeypatch.setattr(ObsSetup, "gram", counted)
    run([command, "--config", p, "--out", tmp_path / "o"])
    assert len(calls) == builds


def test_obsconst_json_carries_the_null_witness(tmp_path):
    """witness_null reproduces c_null: ||phi(T') o w|| / obs(w) = c_null."""
    p = tmp_path / "c.json"
    write_cfg(p, kernel="exp(-1*t)", obsconst={"J_list": [4, 6]})
    assert run(["obsconst", "--config", p, "--out", tmp_path / "o"]) == 0
    cfg = cli.load_config(p)
    art = tmp_path / "o" / "obsconst" / cli.config_hash(cfg)
    M = memflow.parse_kernel(cfg["kernel"])
    for J, rep in json.loads((art / "obsconst.json").read_text())["by_J"].items():
        assert not rep["null_unbounded"]
        assert rep["witness_null"] is not None and len(rep["witness_null"]) == int(J)
        setup = cli._setup_from_cfg(cfg, M, J=int(J))
        w = np.array(rep["witness_null"])
        got = np.linalg.norm(setup.phi_win[:, -1] * w) / observability.obs_seminorm(setup, w)
        assert abs(got - rep["c_null"]) <= 1e-9 * rep["c_null"]


# the weighted_linf probe that misses the CLI's 1e-6 gate
# (perfbench/checks.py: CONTROL_MISS_CONFIG)
CONTROL_MISS = {"seed": 1350752518, "basis": {"J": 32, "n_x": 128},
                "time": {"T": 1.0, "n_t": 1000}, "kernel": "exp(-0.5097*t)",
                "mask": {"kind": "cylinder", "S": 0.042, "x_lo": 0.5018, "x_hi": 0.8888},
                "control": {"regime": "weighted_linf"}}


def test_control_json_reports_the_irls_cap(tmp_path):
    """The weighted_linf probe that misses the 1e-6 gate stops its IRLS at
    the 40-iteration cap."""
    p = tmp_path / "c.json"
    p.write_text(json.dumps(CONTROL_MISS))
    run(["control", "--config", p, "--out", tmp_path / "o"])
    art = tmp_path / "o" / "control" / cli.config_hash(cli.load_config(p))
    rep = json.loads((art / "control.json").read_text())
    assert rep["irls_iterations"] == 40 and rep["irls_converged"] is False


def test_control_job_builds_its_row_step_once(tmp_path, monkeypatch):
    """A control job steps the flow by one set of exact row steps, built
    once, and never runs the trapezoid stepper."""
    command, _, cfg = _benchmark_workloads().make_job("steer", 801, 3)
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    builds, sweeps = [], []
    row_step, stepper = inverse_control._row_step, flow.volterra_modes
    monkeypatch.setattr(inverse_control, "_row_step",
                        lambda *a: builds.append(1) or row_step(*a))
    for module in (flow, cli):
        monkeypatch.setattr(module, "volterra_modes", lambda *a: sweeps.append(1) or stepper(*a))
    assert run([command, "--config", p, "--out", tmp_path / "o"]) == 0
    assert (len(builds), len(sweeps)) == (1, 0)


@pytest.mark.parametrize("index", [5, 7], ids=["l2", "weighted_linf"])
def test_control_reaches_its_target_under_the_exact_dynamics(index, tmp_path):
    """A control that passes the CLI's 1e-6 gate lands within 1e-6 of the
    target when ``dense_refs.forced_solution`` replays it row by row with
    scipy's expm, independently of the library's exponential and scan."""
    from dense_refs import forced_solution

    command, _, cfg = _benchmark_workloads().make_job("steer", 801, index)
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    assert run([command, "--config", p, "--out", tmp_path / "o"]) == 0
    cfg = cli.load_config(p)
    art = tmp_path / "o" / "control" / cli.config_hash(cfg)
    mask = cli.build_mask(cfg)
    u = np.zeros((mask.n_t, mask.n_x))
    lines = [ln for ln in (art / "control.csv").read_text().splitlines() if ln[:1] != "#"]
    for t_i, x_cell, value in (ln.split(",") for ln in lines[1:]):
        u[int(t_i), int(x_cell)] = float(value)
    basis = interval_basis(cfg["basis"]["J"], cfg["basis"]["n_x"])
    y0 = np.random.default_rng(cfg["seed"]).standard_normal(basis.J)
    final = forced_solution(memflow.parse_kernel(cfg["kernel"]), basis, y0, u, mask,
                            cfg["control"]["T_hat"])[-1]
    assert np.linalg.norm(final - basis.eigenvalues**-3.0) <= 1e-6


@pytest.mark.xfail(strict=True, reason="weighted_linf IRLS misses the 1e-6 target "
                   "on this narrow band (final_error 1.65e-6); ROADMAP item 5")
def test_weighted_linf_control_reaches_the_target(tmp_path):
    """The weighted_linf probe should steer to within the CLI's 1e-6 gate
    and exit 0."""
    p = tmp_path / "c.json"
    p.write_text(json.dumps(CONTROL_MISS))
    assert run(["control", "--config", p, "--out", tmp_path / "o"]) == 0


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="open defect (ROADMAP item 3): at mode 1 the "
                   "series-kernel routes miss the stepper at t = 1.75 and t = 2 by more "
                   "than tol 1.95e-5, so flow-check exits 1")
def test_flow_check_two_rate_kernel_at_T_two(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"kernel": "exp(-1*t) + t^4*exp(-2*t)",
                             "time": {"T": 2.0, "n_t": 1000},
                             "flow_check": {"modes": [1, 2, 3, 8], "n_t_values": 8,
                                            "remainder_t_values": 3}}))
    assert run(["flow-check", "--config", p, "--out", tmp_path / "o"]) == 0


def test_flow_check_order_study_reads_the_exact_propagator(tmp_path):
    """On the two-rate kernel at T = 2 the kernel-representation value at T
    is 8.5e-3 relative off; the order study's exact reference still shows
    the stepper's second order at mode 1."""
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"kernel": "exp(-1*t) + t^4*exp(-2*t)",
                             "time": {"T": 2.0, "n_t": 1000},
                             "flow_check": {"modes": [1], "n_t_values": 1, "orders": [2],
                                            "remainder_t_values": 1}}))
    out = tmp_path / "o"
    run(["flow-check", "--config", p, "--out", out])
    report = json.loads((next((out / "flow-check").iterdir()) / "flow_check.json").read_text())
    assert [r["method_pair"] for r in report["records"]] == ["volterra/exact"]
    assert abs(report["min_order"] - 2.0) < 1e-3


def _csv_rows(path):
    """The data rows of a CSV artifact, split into fields."""
    return [line.split(", ") for line in path.read_text().splitlines()[2:]]


def test_flow_check_reads_one_stepper_run_per_level(tmp_path):
    """The three-way column at T and the order study's err_dt come from one
    run: at mode 4, eta dt = 3.95, so the run substeps, and mode 1 shares
    its substeps."""
    p = tmp_path / "c.json"
    write_cfg(p, kernel="exp(-1*t)", time={"T": 1.0, "n_t": 40},
              flow_check={"modes": [1, 4], "n_t_values": 2, "remainder_t_values": 1})
    out = tmp_path / "o"
    run(["flow-check", "--config", p, "--out", out])
    d = next((out / "flow-check").iterdir())
    exact = flow.build_flow_table(memflow.parse_kernel("exp(-1*t)"), interval_basis(4, 32),
                                  1.0, 1, method="exact").phi[:, 1]
    at_T = {int(r[0]): float(r[3]) for r in _csv_rows(d / "three_way.csv") if float(r[2]) == 1.0}
    err_dt = {int(r[0]): float(r[1]) for r in _csv_rows(d / "order_study.csv")}
    assert sorted(at_T) == sorted(err_dt) == [1, 4]
    for j in (1, 4):
        assert abs(at_T[j] - exact[j - 1]) == err_dt[j]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="open defect (ROADMAP item 8): on the default "
                   "config C2 * c_lower is 0.447, below the duality band [0.5, 2]")
def test_duality_on_the_default_config(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("{}")
    assert run(["duality", "--config", p, "--out", tmp_path / "o"]) == 0


def test_write_csv_matches_the_per_value_formatter(tmp_path):
    # the column writer must give the bytes of ``_fmt`` applied value by value
    specials = [math.nan, math.inf, -math.inf, -0.0, 1e-310, 0.1, 1 / 3, 2.0**60]
    typed = [(bool(i % 2), np.bool_(i % 3 == 0), i - 3, np.int64(-i), np.int32(i),
              float(v), np.float64(v), np.float32(v), f"s{i}")
             for i, v in enumerate(specials)]
    mixed = [(v, w) for v, w in zip([True, np.bool_(False), 7, np.int16(-2), 0.5,
                                     np.float64(-0.0), np.float32(1e-3), "x"],
                                    specials)]
    sink = cli.Sink(str(tmp_path), "test", {"seed": 1})
    for name, rows in (("typed.csv", typed), ("mixed.csv", mixed), ("empty.csv", [])):
        sink.write_csv(name, "a, b", iter(rows))
        reference = (f"# config {sink.hash}\na, b\n"
                     + "".join(", ".join(cli._fmt(v) for v in row) + "\n" for row in rows))
        assert Path(sink.path(name)).read_bytes() == reference.encode()
    with pytest.raises(ValueError):
        sink.write_csv("ragged.csv", "a, b", [(1, 2), (3,)])
