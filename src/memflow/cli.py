"""Config-driven experiment runner.

One JSON config plus a subcommand produce machine-readable artifacts under
<out>/<command>/<config-hash>/ with a manifest; identical config and seed give
byte-identical CSVs.  Commands: flow-check, kernel, moc, obsconst,
probe-alpha, probe-ball, probe-heat, reconstruct, control, duality, report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import sys

import numpy as np

from . import __version__, geometry, kernels
from .flow import (
    QuadratureError,
    _fine_steps,
    build_flow_table,
    decomposition_mode,
    first_nonzero_h_index,
    kernel_rep_mode,
    remainder_bound,
    remainder_profile,
    volterra_modes,
)
from .inverse_control import (
    ControlProblem,
    ReconstructionProblem,
    discrepancy_lambda,
    duality_range_test,
    min_norm_control,
    reconstruct_y0,
    synthesize_observation,
)
from .observability import (
    REF_EXPONENT,
    ObsSetup,
    alpha_probe,
    gram_matrix,
    heat_local_probe,
    missing_ball_probe,
    null_obs_constant,
    relaxed_inequality_fit,
    two_sided_constants,
    unique_continuation_rank,
)
from .spectral import SpectralVec, hs_norm, interval_basis

COMMANDS = (
    "flow-check", "kernel", "moc", "obsconst", "probe-alpha", "probe-ball",
    "probe-heat", "reconstruct", "control", "duality", "report",
)


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

_SCHEMA = {
    "kernel": str,
    "seed": int,
    "basis": {"J": int, "n_x": int},
    "time": {"T": float, "n_t": int},
    "window": {"S": float, "T": float},
    "alpha": float,
    "mask": {"kind": str, "eps": float, "x0": float, "S": float, "seed": int,
             "count": int, "path": str, "x_lo": float, "x_hi": float,
             "x_star": float, "r": float, "n_t": int, "n_x": int,
             "exponent": float},
    "flow_check": {"modes": list, "n_t_values": int, "orders": list,
                   "remainder_t_values": int},
    "kernel_cmd": {"l_max": int, "grid_points": int},
    "moc_cmd": {"radii": list},
    "obsconst": {"J_list": list, "n_restarts": int},
    "probe_alpha": {"k_list": list, "omega": list, "laplacian_power": int},
    "probe_ball": {"k_list": list, "x_star": float, "r": float},
    "probe_heat": {"x0": float, "r": float, "half_widths": list,
                   "t_list": list, "s_list": list},
    "reconstruct": {"noise": float, "lambda": float, "truth_seed": int},
    "control": {"T_hat": float, "regime": str, "alpha": float,
                "target": str, "y0_seed": int},
    "duality": {"n_xstar": int},
}


def _check_keys(cfg, schema, path=""):
    for key, val in cfg.items():
        where = f"{path}.{key}" if path else key
        if key not in schema:
            raise ConfigError(f"unknown config key: {where}")
        spec = schema[key]
        if isinstance(spec, dict):
            if not isinstance(val, dict):
                raise ConfigError(f"{where} must be an object")
            _check_keys(val, spec, where)
        elif spec is float:
            if not isinstance(val, (int, float)) or isinstance(val, bool):
                raise ConfigError(f"{where} must be a number")
        elif spec is int:
            if not isinstance(val, int) or isinstance(val, bool):
                raise ConfigError(f"{where} must be an integer")
        elif not isinstance(val, spec):
            raise ConfigError(f"{where} must be {spec.__name__}")


DEFAULTS = {
    "kernel": "exp(-1*t)",
    "seed": 0,
    "basis": {"J": 8, "n_x": 64},
    "time": {"T": 1.0, "n_t": 1000},
    "window": None,
    "alpha": None,
    "mask": {"kind": "cylinder"},
}


def load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(cfg, _SCHEMA)
    out = json.loads(json.dumps(DEFAULTS))
    for k, v in cfg.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k].update(v)
        else:
            out[k] = v
    _validate_ranges(out)
    return out


def _validate_ranges(cfg):
    if cfg["basis"]["J"] < 1:
        raise ConfigError("basis.J must be >= 1")
    if cfg["basis"]["n_x"] < 4 * cfg["basis"]["J"]:
        raise ConfigError("basis.n_x must be at least 4*basis.J")
    if cfg["time"]["T"] <= 0 or cfg["time"]["n_t"] < 8:
        raise ConfigError("time.T must be > 0 and time.n_t >= 8")
    win = cfg["window"]
    if win is not None and not ("S" in win and "T" in win and 0 <= win["S"] < win["T"]
                                and win["S"] < cfg["time"]["T"]):
        raise ConfigError("window needs S and T with 0 <= S < T and S < time.T")
    for where, key in (("flow_check", "modes"), ("flow_check", "orders"),
                       ("obsconst", "J_list")):
        vals = cfg.get(where, {}).get(key)
        if vals is not None and not (vals and all(type(v) is int and v >= 1 for v in vals)):
            raise ConfigError(f"{where}.{key} must be a non-empty list of integers >= 1")
    for key in ("n_t_values", "remainder_t_values"):
        if cfg.get("flow_check", {}).get(key, 1) < 1:
            raise ConfigError(f"flow_check.{key} must be >= 1")
    if cfg["mask"].get("kind") == "file" and not os.path.exists(cfg["mask"].get("path", "")):
        raise ConfigError(f"mask.path does not exist: {cfg['mask'].get('path')}")
    cc = cfg.get("control", {})
    if cc.get("regime", "l2") not in ("l2", "weighted_linf"):
        raise ConfigError(f"control.regime must be 'l2' or 'weighted_linf', not {cc['regime']!r}")
    if cc.get("regime") == "weighted_linf" and cc.get("alpha", 2.0) <= 1:
        raise ConfigError("control.alpha must be > 1 in the weighted_linf regime")
    if cc.get("T_hat", 1.0) <= 0 or cfg.get("reconstruct", {}).get("noise", 0.0) < 0:
        raise ConfigError("control.T_hat must be > 0 and reconstruct.noise >= 0")


def config_hash(cfg):
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:12]


def parse_kernel_checked(text):
    try:
        return kernels.parse_kernel(text)
    except kernels.KernelParseError as e:
        raise ConfigError(f"kernel: {e}") from None


def build_mask(cfg):
    m = dict(cfg["mask"])
    kind = m.pop("kind", "cylinder")
    T = cfg["time"]["T"]
    m.setdefault("n_t", max(64, cfg["time"]["n_t"] // 8))
    m.setdefault("n_x", max(32, cfg["basis"]["n_x"] // 2))
    try:
        if kind == "cylinder":
            return geometry.cylinder_mask(T, m["n_t"], m["n_x"],
                                          m.get("x_lo", 0.0), m.get("x_hi", 1.0),
                                          m.get("S", 0.0))
        if kind == "zigzag":
            return geometry.zigzag_mask(m.get("eps", 0.1), T, m["n_t"], m["n_x"])
        if kind == "cusp":
            return geometry.cusp_mask(m.get("x0", 0.5), m.get("S", 0.0), T,
                                      m["n_t"], m["n_x"],
                                      exponent=m.get("exponent", 1.0 / 3.0))
        if kind == "random_rects":
            return geometry.random_rects_mask(m.get("seed", 0), m.get("count", 5),
                                              T, m["n_t"], m["n_x"])
        if kind == "ball_complement":
            return geometry.ball_complement_mask(T, m["n_t"], m["n_x"],
                                                 m.get("x_star", 0.5), m.get("r", 0.2))
        if kind == "file":
            return geometry.load_mask(m["path"])
    except ValueError as e:  # a value the constructor rejects
        raise ConfigError(f"mask ({kind}): {e}") from None
    raise ConfigError(f"mask.kind: unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# artifact output
# ---------------------------------------------------------------------------

class Sink:
    """Output directory <out>/<command>/<hash> with hash-stamped artifacts."""

    def __init__(self, out_dir, command, cfg):
        self.hash = config_hash(cfg)
        self.dir = os.path.join(out_dir, command, self.hash)
        os.makedirs(self.dir, exist_ok=True)
        self.artifacts = []
        self.cfg = cfg
        self.command = command

    def path(self, name):
        return os.path.join(self.dir, name)

    def write_csv(self, name, header, rows):
        with open(self.path(name), "w") as fh:
            fh.write(f"# config {self.hash}\n")
            fh.write(header + "\n")
            for row in rows:
                fh.write(", ".join(_fmt(v) for v in row) + "\n")
        self.artifacts.append(name)

    def write_json(self, name, payload):
        payload = dict(payload)
        payload["config_hash"] = self.hash
        with open(self.path(name), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
            fh.write("\n")
        self.artifacts.append(name)

    def finalize(self, status):
        with open(self.path("manifest.json"), "w") as fh:
            json.dump({
                "command": self.command,
                "config_hash": self.hash,
                "config": self.cfg,
                "artifacts": sorted(self.artifacts),
                "status": status,
                "versions": {"python": platform.python_version(),
                             "numpy": np.__version__, "memflow": __version__},
            }, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _fmt(v):
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _json_default(v):
    if isinstance(v, (np.generic, np.ndarray)):  # numpy scalars and arrays
        return v.tolist()
    raise TypeError(f"not JSON serializable: {type(v)}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_flow_check(cfg, sink, rng, tol_scale):
    M = parse_kernel_checked(cfg["kernel"])
    fc = cfg.get("flow_check", {})
    modes = fc.get("modes", [1, 2, 3, 8])
    n_tv = fc.get("n_t_values", 8)
    T, n_t = cfg["time"]["T"], cfg["time"]["n_t"]
    Jmax = max(modes)
    basis = interval_basis(Jmax, max(cfg["basis"]["n_x"], 4 * Jmax))
    etas = basis.eigenvalues
    dt = T / n_t
    failures = 0

    phi = build_flow_table(M, basis, T, n_t).phi
    # check times snapped onto the stepping grid
    idx_checks = np.unique(np.linspace(n_t / n_tv, n_t, n_tv).round().astype(int))
    rows = []
    for j in modes:
        eta = float(etas[j - 1])
        for i in idx_checks:
            t = i * dt
            v = float(phi[j - 1, i])
            kr = kernel_rep_mode(M, eta, float(t))
            dec = decomposition_mode(M, eta, float(t), N=4)
            tol = max(1e-6, eta**2 * dt**2 / 20.0) * tol_scale
            ok = abs(v - kr) <= tol and abs(v - dec.total) <= tol
            failures += not ok
            rows.append((j, eta, float(t), v, kr, dec.total,
                         abs(v - kr), abs(v - dec.total), tol, ok))
    sink.write_csv("three_way.csv",
                   "j, eta, t, volterra, kernel_rep, decomposition, "
                   "diff_vk, diff_vd, tol, ok", rows)

    # dt-halving order estimate against the quadrature route
    records = []
    for j in modes:
        eta = float(etas[j - 1])
        ref = kernel_rep_mode(M, eta, T)
        errs = []
        for lvl in range(2):
            y = volterra_modes(M, [eta], T, _fine_steps([eta], T, n_t * 2**lvl))
            errs.append(abs(float(y[-1, 0]) - ref))
        order = math.log2(errs[0] / errs[1]) if errs[1] > 0 else float("inf")
        records.append({"kernel": cfg["kernel"], "mode": j,
                        "method_pair": "volterra/kernel_rep",
                        "max_abs_diff": errs[0], "dt": dt,
                        "order_estimate": order})
    sink.write_csv("order_study.csv", "j, err_dt, order_estimate",
                   [(m, r["max_abs_diff"], r["order_estimate"])
                    for m, r in zip(modes, records)])

    # remainder bound table
    n_rt = fc.get("remainder_t_values", 10)
    bound_rows = []
    for N in fc.get("orders", [2, 3, 4]):
        for t in np.linspace(T / n_rt, T, n_rt):
            R = remainder_profile(M, float(t), N, etas)
            bnd = remainder_bound(M, N, float(t))
            ok = bool(np.all(np.abs(R) <= bnd))
            failures += not ok
            bound_rows.append((N, float(t), float(np.abs(R).max()), bnd, ok))
    sink.write_csv("remainder_bound.csv", "N, t, max_abs_R, bound, ok", bound_rows)
    sink.write_json("flow_check.json", {
        "records": records, "failures": failures,
        "min_order": min(r["order_estimate"] for r in records), "kernel": cfg["kernel"],
    })
    return failures == 0


def cmd_kernel(cfg, sink, rng, tol_scale):
    M = parse_kernel_checked(cfg["kernel"])
    kc = cfg.get("kernel_cmd", {})
    ts = np.linspace(0.0, cfg["time"]["T"], kc.get("grid_points", 100))
    hp = [(kernels.h_coeff(M, l), kernels.p_coeff(M, l)) for l in range(kc.get("l_max", 6) + 1)]
    tol, m0 = 1e-12 * tol_scale, M.eval(0.0)

    def near(f, ref):
        return bool(np.max(np.abs(f.eval(ts) - ref)) <= tol)

    checks = {"h0_zero": kernels.h_coeff(M, 0).is_zero(),
              "h1_plus_M_zero": near(kernels.h_coeff(M, 1), -M.eval(ts)),
              "p0_ok": near(kernels.p_coeff(M, 0), m0 * ts),
              "p1_ok": near(kernels.p_coeff(M, 1),
                            m0 - M.derivative(1).eval(0.0) * ts + 0.5 * m0 ** 2 * ts**2),
              "p_h_origin": all(abs(p.eval(0.0) + h.eval(0.0)) <= tol for h, p in hp)}
    sink.write_csv("coefficients.csv", "l, h_l, p_l",
                   [(l, kernels.format_kernel(h), kernels.format_kernel(p))
                    for l, (h, p) in enumerate(hp)])
    sink.write_json("kernel.json", {"kernel": cfg["kernel"], "checks": checks})
    return all(checks.values())


def _window(cfg):
    win = cfg.get("window")
    return (win["S"], win["T"]) if win else (0.0, cfg["time"]["T"])


def cmd_moc(cfg, sink, rng, tol_scale):
    M = parse_kernel_checked(cfg["kernel"])
    mask = build_mask(cfg)
    S, T_hi = _window(cfg)
    T_hi = min(T_hi, mask.T)
    mval = geometry.moc_functional(mask, S, T_hi)
    radii = cfg.get("moc_cmd", {}).get("radii", [0.05, 0.1, 0.2])
    ball = {repr(r): geometry.ball_average(mask, r, T_hi) for r in radii}
    slices = [(ix, geometry.slice_measure(mask, ix, S, T_hi),
               geometry.weighted_slice(mask, M, S, T_hi, ix))
              for ix in range(mask.n_x)]
    C, beta, verified, margins = geometry.analytic_lower_bound_check(mask, M, S, T_hi)
    sink.write_csv("slices.csv", "x_cell, slice_measure, weighted_slice", slices)
    sink.write_json("moc.json", {
        "moc": mval, "ball_average": ball,
        "analytic_bound": {"C": C, "beta": beta, "verified": verified,
                           "min_margin": float(margins.min())},
        "mask": mask.provenance,
    })
    print(f"moc = {mval!r}")
    return verified


def _setup_from_cfg(cfg, M, J=None, method="volterra"):
    """The observation setup of the config for the parsed kernel M."""
    J = cfg["basis"]["J"] if J is None else J
    basis = interval_basis(J, max(cfg["basis"]["n_x"], 4 * J))
    table = build_flow_table(M, basis, cfg["time"]["T"], cfg["time"]["n_t"],
                             method=method)
    mask = build_mask(cfg)
    S, T_hi = _window(cfg)
    return ObsSetup(table, mask, alpha=cfg.get("alpha"),
                    window=(S, min(T_hi, cfg["time"]["T"])))


def cmd_obsconst(cfg, sink, rng, tol_scale):
    J_list = cfg.get("obsconst", {}).get("J_list", [cfg["basis"]["J"]])
    n_restarts = cfg.get("obsconst", {}).get("n_restarts", 32)
    M = parse_kernel_checked(cfg["kernel"])

    rows, reports = [], {}
    for J in J_list:
        # per-J rng keyed by (seed, J): a row does not depend on the others
        local = np.random.default_rng([cfg["seed"], J])
        setup = _setup_from_cfg(cfg, M, J=J)
        rep = two_sided_constants(setup, n_restarts=n_restarts, rng=local)
        c_null, _, nd = null_obs_constant(setup, rng=local)
        relC, share = relaxed_inequality_fit(setup, rng=local)
        rank, sig = unique_continuation_rank(setup)
        reports[str(J)] = {**rep.to_dict(), "c_null": c_null, "relaxed_C": relC,
                           "relaxed_share": share, "uc_rank": rank, "uc_sigma_min": sig,
                           "null_unbounded": nd["quotient_unbounded"],
                           "iterations_null": nd["iterations"],
                           "converged_null": nd["converged"]}
        rows.append((J, rep.c_lower, rep.c_upper, c_null, relC,
                     rep.spread_lower, rep.spread_upper, rank, sig))
    sink.write_csv("constants.csv",
                   "J, c_lower, c_upper, c_null, relaxed_C, spread_lower, "
                   "spread_upper, uc_rank, uc_sigma_min", rows)
    sink.write_json("obsconst.json", {"by_J": reports})
    return True


def cmd_probe_alpha(cfg, sink, rng, tol_scale):
    pa = cfg.get("probe_alpha", {})
    k_list = pa.get("k_list", [1, 2, 4, 8, 16, 24, 32])
    omega = tuple(pa.get("omega", [0.25, 0.75]))
    q = pa.get("laplacian_power", 2)
    setup = _setup_from_cfg(cfg, parse_kernel_checked(cfg["kernel"]),
                            method="decomposition")
    try:
        recs = alpha_probe(setup, k_list, omega=omega, laplacian_power=q)
    except ValueError as e:
        raise ConfigError(f"probe_alpha: {e}") from None
    sink.write_csv("trajectory.csv", "k, quotient",
                   [(r["k"], r["quotient"]) for r in recs])
    quot = [r["quotient"] for r in recs]
    sink.write_json("probe_alpha.json", {
        "records": recs, "alpha": cfg.get("alpha"),
        "spread": max(quot) / min(quot),
    })
    return True


def cmd_probe_ball(cfg, sink, rng, tol_scale):
    pb = cfg.get("probe_ball", {})
    k_list = pb.get("k_list", [2, 4, 8, 16, 24, 32])
    x_star = pb.get("x_star", 0.5)
    r = pb.get("r", 0.2)
    M = parse_kernel_checked(cfg["kernel"])
    T = cfg["time"]["T"]
    cfg = dict(cfg)
    cfg["mask"] = {"kind": "ball_complement", "x_star": x_star, "r": r,
                   "n_t": max(64, cfg["time"]["n_t"] // 8),
                   "n_x": max(32, cfg["basis"]["n_x"] // 2)}
    setup = _setup_from_cfg(cfg, M, method="decomposition")
    J_index = first_nonzero_h_index(M, T)
    recs = missing_ball_probe(setup, x_star, r, J_index, k_list)
    hJ = abs(kernels.h_coeff(M, J_index).eval(T))
    sink.write_csv("trajectory.csv", "k, quotient",
                   [(r_["k"], r_["quotient"]) for r_ in recs])
    sink.write_json("probe_ball.json", {
        "records": recs, "J_index": J_index, "h_J_at_T": hJ,
        "growth": recs[-1]["quotient"] / recs[0]["quotient"],
        "final_ratio_last": recs[-1]["final_norm"] / hJ,
    })
    return True


def cmd_probe_heat(cfg, sink, rng, tol_scale):
    ph = cfg.get("probe_heat", {})
    basis = interval_basis(cfg["basis"]["J"], cfg["basis"]["n_x"])
    out = heat_local_probe(
        basis,
        ph.get("x0", 0.5),
        ph.get("r", 0.2),
        s_exponents=tuple(ph.get("s_list", [0.0, -2.0, -4.0])),
        t_list=tuple(ph.get("t_list", [0.0, 1e-3, 1e-2, 0.1, 0.5, 1.0])),
        half_widths=tuple(ph.get("half_widths", [0.08, 0.04, 0.02, 0.01])),
    )
    rows = [(s, r["half_width"], r["ratio"])
            for s, tbl in out.items() for r in tbl["rows"]]
    sink.write_csv("ratios.csv", "s, half_width, ratio", rows)
    sink.write_json("probe_heat.json",
                    {"max_ratio": {str(s): tbl["max_ratio"] for s, tbl in out.items()}})
    return True


def cmd_reconstruct(cfg, sink, rng, tol_scale):
    rc = cfg.get("reconstruct", {})
    setup = _setup_from_cfg(cfg, parse_kernel_checked(cfg["kernel"]))
    truth_rng = np.random.default_rng(rc.get("truth_seed", cfg["seed"]))
    truth = truth_rng.standard_normal(setup.basis.J)
    truth /= np.linalg.norm(truth)
    noise = rc.get("noise", 0.0)
    clean = synthesize_observation(setup, truth)
    data = synthesize_observation(setup, truth, noise=noise, rng=rng) if noise else clean
    if noise:
        noise_norm = setup.l2_norm(data - clean)
        lam = rc.get("lambda") or discrepancy_lambda(setup, data, noise_norm)
    else:
        lam = rc.get("lambda", 0.0)
    rec, diag = reconstruct_y0(ReconstructionProblem(setup, data, lam=lam))
    err = SpectralVec(rec.coeffs - truth)
    rel = (hs_norm(setup.basis, err, REF_EXPONENT)
           / hs_norm(setup.basis, truth, REF_EXPONENT))
    sink.write_csv("coefficients.csv", "j, truth, reconstructed",
                   [(j + 1, truth[j], rec.coeffs[j]) for j in range(len(truth))])
    sink.write_json("reconstruct.json", {
        "lambda": diag["lambda"], "residual": diag["residual"],
        "rel_error_if_truth_known": rel, "sigma_min": diag["sigma_min"],
    })
    return True


def cmd_control(cfg, sink, rng, tol_scale):
    cc = cfg.get("control", {})
    M = parse_kernel_checked(cfg["kernel"])
    basis = interval_basis(cfg["basis"]["J"], cfg["basis"]["n_x"])
    mask = build_mask(cfg)
    T_hat = cc.get("T_hat", cfg["time"]["T"])
    y0_rng = np.random.default_rng(cc.get("y0_seed", cfg["seed"]))
    y0 = SpectralVec(y0_rng.standard_normal(basis.J))
    target = cc.get("target", "eta^-3")
    if target == "eta^-3":
        y1 = SpectralVec(basis.eigenvalues**-3.0, s=4.0)
    elif target == "zero":
        y1 = SpectralVec(np.zeros(basis.J), s=4.0)
    else:
        raise ConfigError(f"control.target: unknown target {target!r}")
    prob = ControlProblem(M, basis, mask, T_hat, y0, y1,
                          regime=cc.get("regime", "l2"),
                          alpha=cc.get("alpha", 2.0),
                          n_steps=cfg["time"]["n_t"])
    res = min_norm_control(prob)
    it, ix = np.nonzero(mask.cells)
    sink.write_csv("control.csv", "t_i, x_cell, u_value",
                   [(int(i), int(k), float(res.u[i, k])) for i, k in zip(it, ix)])
    sink.write_json("control.json", {
        "final_error": res.final_error,
        "replay_discrepancy": res.replay_discrepancy,
        "control_norm": res.control_norm,
        "moc_of_mask": geometry.moc_functional(mask),
        **res.diagnostics,
    })
    return res.final_error <= 1e-6 * tol_scale


def cmd_duality(cfg, sink, rng, tol_scale):
    n_xstar = cfg.get("duality", {}).get("n_xstar", 8)
    # closed-form pair
    C2a, _, C1a = duality_range_test(
        np.eye(2), np.diag([1.0, 0.5]),
        [np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    # observability instance
    setup = _setup_from_cfg(cfg, parse_kernel_checked(cfg["kernel"]))
    G = gram_matrix(setup)[0]
    L = np.linalg.cholesky(G + 1e-13 * np.trace(G) * np.eye(len(G)))
    R = np.diag(setup.mass_matrix() ** 0.5)
    xs = [rng.standard_normal(setup.basis.J) for _ in range(n_xstar)]
    # include the extremal direction: the least eigenvector of (G, R^T R)
    xs.append(setup.pencil()[1][:, 0])
    C2b, _, C1b = duality_range_test(R, L.T, xs)
    rep = two_sided_constants(setup, rng=rng)
    sink.write_json("duality.json", {
        "closed_form": {"C1": C1a, "C2": C2a},
        "observability": {"C1": C1b, "C2": C2b,
                          "one_over_c_lower": 1.0 / rep.c_lower},
    })
    ok = abs(C2a - 2.0) < 1e-9 and 0.5 <= C2b * rep.c_lower <= 2.0
    return ok


def cmd_report(cfg, sink, rng, tol_scale, out_dir):
    summary = {}
    ok_all = True
    for name in ("flow-check", "kernel", "moc", "obsconst", "reconstruct",
                 "control", "duality"):
        sub_sink = Sink(out_dir, name, cfg)
        ok = COMMAND_IMPL[name](cfg, sub_sink, np.random.default_rng(cfg["seed"]),
                                tol_scale)
        sub_sink.finalize("ok" if ok else "failed")
        summary[name] = {"ok": ok, "dir": f"{name}/{sub_sink.hash}",
                         "artifacts": sorted(sub_sink.artifacts)}
        ok_all &= ok
    sink.write_json("report.json", {"commands": summary, "all_ok": ok_all})
    return ok_all


COMMAND_IMPL = {
    "flow-check": cmd_flow_check,
    "kernel": cmd_kernel,
    "moc": cmd_moc,
    "obsconst": cmd_obsconst,
    "probe-alpha": cmd_probe_alpha,
    "probe-ball": cmd_probe_ball,
    "probe-heat": cmd_probe_heat,
    "reconstruct": cmd_reconstruct,
    "control": cmd_control,
    "duality": cmd_duality,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="memflow",
        description="Experiment runner for the memory heat flow toolkit.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--tolerance-scale", type=float, default=1.0,
                        help="multiply every pass/fail tolerance")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        rng = np.random.default_rng(cfg["seed"])
        sink = Sink(args.out, args.command, cfg)
        if args.command == "report":
            ok = cmd_report(cfg, sink, rng, args.tolerance_scale, args.out)
        else:
            ok = COMMAND_IMPL[args.command](cfg, sink, rng, args.tolerance_scale)
        sink.finalize("ok" if ok else "failed")
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (QuadratureError, kernels.TruncationError) as e:
        sink.finalize("failed")
        print(f"{args.command}: {type(e).__name__}: {e}; see {sink.dir}", file=sys.stderr)
        return 1
    if not ok:
        print(f"{args.command}: assertion failures; see {sink.dir}",
              file=sys.stderr)
        return 1
    print(f"{args.command}: ok -> {sink.dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
