"""Correctness gates on job artifacts, and the exact propagator reference.

Every gate runs after the timed loop, on the artifacts a job left on disk,
and returns a list of problems (empty when the job's outputs are right).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import numpy as np

import memflow
from memflow import cli

MIN_ORDER = 1.9          # flow-check: dt-halving order of the stepper
RECON_MAX_REL_ERR = 0.10  # reconstruct: relative H^-4 error of the initial state
CONTROL_MAX_ERROR = 1e-6  # control: replayed final-state error
# weighted_linf controls land 2e-7..1e-6 from their target, so the CLI's own
# 1e-6 gate fails now and then (1.02e-6 observed, a library shortfall of the
# IRLS moment solve): such a job counts as failed, but only a miss beyond
# this marks the run's outputs wrong
CONTROL_KNOWN_MISS = 1e-5
WITNESS_RTOL = 1e-9       # obsconst: witness reproduces its constant
EXACT_TOL = 1e-12         # series routes against the closed-form propagator


def _json(path):
    with open(path) as fh:
        return json.load(fh)


def check_flow_check(art):
    problems = []
    report = _json(art / "flow_check.json")
    if not report["min_order"] >= MIN_ORDER:
        problems.append(f"min_order {report['min_order']!r} < {MIN_ORDER}")
    with open(art / "three_way.csv") as fh:
        rows = [r for r in csv.reader(fh, skipinitialspace=True)][2:]
    bad = [r for r in rows if r[-1] != "1"]
    if not rows or bad:
        problems.append(f"{len(bad)} of {len(rows)} three_way rows not ok")
    return problems, {}


def check_probe_alpha(art):
    quot = [r["quotient"] for r in _json(art / "probe_alpha.json")["records"]]
    ok = bool(quot) and all(math.isfinite(q) and q > 0 for q in quot)
    return ([] if ok else [f"probe-alpha quotients not finite positive: {quot}"]), {}


def _obs_setup(cfg, J):
    """The setup ``obsconst`` used, rebuilt through the public API."""
    M = memflow.parse_kernel(cfg["kernel"])
    basis = memflow.interval_basis(J, max(cfg["basis"]["n_x"], 4 * J))
    T, n_t = cfg["time"]["T"], cfg["time"]["n_t"]
    table = memflow.build_flow_table(M, basis, T, n_t, method="volterra")
    return memflow.ObsSetup(table, cli.build_mask(cfg), alpha=cfg.get("alpha"),
                            window=(0.0, T))


def check_obsconst(art, cfg):
    """Witnesses reproduce c_lower and c_upper through ``obs_seminorm``;
    c_lower <= c_upper; each constant is at least as good as the coordinate
    axes, which the optimizers start from (so a faster optimizer cannot pass
    with answers worse than its own starting points)."""
    problems, quality = [], {}
    for J_key, rep in _json(art / "obsconst.json")["by_J"].items():
        setup = _obs_setup(cfg, int(J_key))
        ref = setup.ref_exponent
        basis = setup.basis

        def quotient(a):
            return memflow.obs_seminorm(setup, a) / memflow.hs_norm(basis, a, ref)

        for name in ("lower", "upper"):
            c, w = rep[f"c_{name}"], rep[f"witness_{name}"]
            if w is None:
                problems.append(f"J={J_key}: no witness for c_{name}")
                continue
            got = quotient(np.asarray(w, dtype=float))
            if not abs(got - c) <= WITNESS_RTOL * max(abs(c), 1.0):
                problems.append(f"J={J_key}: c_{name} witness gives {got!r}, "
                                f"reported {c!r}")
        if not rep["c_lower"] <= rep["c_upper"]:
            problems.append(f"J={J_key}: c_lower > c_upper")
        axes = np.eye(basis.J)
        axis_q = [quotient(e) for e in axes]
        if rep["c_lower"] > min(axis_q) * (1 + WITNESS_RTOL):
            problems.append(f"J={J_key}: c_lower above its best axis start")
        if rep["c_upper"] < max(axis_q) * (1 - WITNESS_RTOL):
            problems.append(f"J={J_key}: c_upper below its best axis start")
        quality["null_unbounded"] = bool(rep["null_unbounded"])
        if not rep["null_unbounded"]:
            phiT = setup.table.phi[:, -1]
            axis_null = max(abs(phiT[j]) / memflow.obs_seminorm(setup, e)
                            for j, e in enumerate(axes))
            if not rep["c_null"] >= axis_null * (1 - WITNESS_RTOL):
                problems.append(f"J={J_key}: c_null below its best axis start")
        quality.update({k: rep[k] for k in
                        ("c_lower", "c_upper", "c_null", "spread_lower")})
    return problems, quality


def check_reconstruct(art):
    rel = _json(art / "reconstruct.json")["rel_error_if_truth_known"]
    problems = [] if rel <= RECON_MAX_REL_ERR else [
        f"reconstruction relative error {rel!r} > {RECON_MAX_REL_ERR}"]
    return problems, {"rel_error": rel}


def check_control(art):
    rep = _json(art / "control.json")
    problems = [] if rep["final_error"] <= CONTROL_MAX_ERROR else [
        f"control final_error {rep['final_error']!r} > {CONTROL_MAX_ERROR}"]
    objective = rep["control_norm"] if rep["regime"] == "l2" else rep["objective"]
    return problems, {"objective": objective, "regime": rep["regime"],
                      "final_error": rep["final_error"],
                      "irls_iterations": rep["irls_iterations"]}


def known_defect(command, quality):
    """Whether a job's failed gates are the known weighted_linf near miss."""
    return (command == "control" and quality.get("regime") == "weighted_linf"
            and CONTROL_MAX_ERROR < quality["final_error"] <= CONTROL_KNOWN_MISS)


# Fixed inputs on which a known library defect shows.  The timed workloads
# stay clear of them (the benchmark's jobs must not fail), so each run probes
# its workload's defect here, untimed, to keep it in sight until it is fixed.
OVERFLOW_KERNEL = "exp(-1*t)*cos(3*t)"
CONTROL_MISS_CONFIG = {
    "seed": 1350752518, "basis": {"J": 32, "n_x": 128},
    "time": {"T": 1.0, "n_t": 1000}, "kernel": "exp(-0.5097*t)",
    "mask": {"kind": "cylinder", "S": 0.042, "x_lo": 0.5018, "x_hi": 0.8888},
    "control": {"regime": "weighted_linf"},
}


def _overflow_probe():
    try:
        bound = memflow.remainder_bound(memflow.parse_kernel(OVERFLOW_KERNEL), 4, 1.0)
    except OverflowError as exc:
        return {"present": True, "detail": f"OverflowError: {exc}"}
    return {"present": False, "detail": f"bound {bound!r}"}


def _control_miss_probe(out_dir):
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    cfg_path = Path(out_dir) / "control_miss.json"
    cfg_path.write_text(json.dumps(CONTROL_MISS_CONFIG))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        cli.main(["control", "--config", str(cfg_path), "--out", str(out_dir)])
    art = Path(out_dir) / "control" / cli.config_hash(cli.load_config(cfg_path))
    err = _json(art / "control.json")["final_error"]
    return {"present": err > CONTROL_MAX_ERROR, "detail": f"final_error {err!r}"}


def known_defect_probes(workload, out_dir):
    """{defect: {"present", "detail"}} for the defects a workload avoids."""
    if workload == "routes":
        return {"remainder_bound_overflow": _overflow_probe()}
    if workload == "steer":
        return {"weighted_linf_miss": _control_miss_probe(out_dir)}
    return {}


def check_job(out_dir, command, cfg_path):
    """(problems, quality values) for one finished job."""
    cfg = cli.load_config(cfg_path)
    art = Path(out_dir) / command / cli.config_hash(cfg)
    if command == "obsconst":
        return check_obsconst(art, cfg)
    return {"flow-check": check_flow_check, "probe-alpha": check_probe_alpha,
            "reconstruct": check_reconstruct,
            "control": check_control}[command](art)


# ---------------------------------------------------------------------------
# closed-form reference for M(t) = exp(-a t)
# ---------------------------------------------------------------------------

def exact_propagator(a, etas, tgrid):
    """phi_j(t) for M = exp(-a t): sum over the roots r of
    s^2 + (eta_j + a) s + (eta_j a + 1) of (r + a)/(r - r_other) e^{r t}."""
    out = np.empty((len(etas), len(tgrid)))
    for j, eta in enumerate(etas):
        r1, r2 = np.roots([1.0, eta + a, eta * a + 1.0]).astype(complex)
        val = ((r1 + a) / (r1 - r2) * np.exp(r1 * tgrid)
               + (r2 + a) / (r2 - r1) * np.exp(r2 * tgrid))
        out[j] = val.real
    return out


def closed_form_check(a, J, n_steps, T=1.0):
    """Max deviation of every ``build_flow_table`` route from the exact
    propagator, with the pass/fail verdict per route.

    ``kernel_rep`` and ``decomposition`` must match to ``EXACT_TOL``; the
    ``volterra`` stepper must stay within the flow-check order tolerance
    max(1e-6, eta^2 dt^2 / 20) per mode.
    """
    M = memflow.parse_kernel(f"exp(-{a!r}*t)")
    basis = memflow.interval_basis(J, 4 * J)
    etas = basis.eigenvalues
    tgrid = np.linspace(0.0, T, n_steps + 1)
    exact = exact_propagator(a, etas, tgrid)
    dt = T / n_steps
    vol_tol = np.maximum(1e-6, etas**2 * dt**2 / 20.0)
    result = {}
    for method in ("volterra", "kernel_rep", "decomposition"):
        table = memflow.build_flow_table(M, basis, T, n_steps, method=method)
        dev = np.abs(table.phi - exact).max(axis=1)
        ok = bool(np.all(dev <= (vol_tol if method == "volterra" else EXACT_TOL)))
        result[method] = {"max_abs_diff": float(dev.max()), "ok": ok}
    return result
