"""Config-driven experiment runner.

One JSON config plus a subcommand produce machine-readable artifacts under
<out>/<command>/<config-hash>/ with a manifest; identical config and seed give
byte-identical CSVs.  Commands: flow-check, kernel, moc, obsconst,
probe-alpha, probe-ball, probe-heat, reconstruct, control, duality, report.
Each command is a function of (cfg, sink) that writes its artifacts to the
sink and returns whether its checks passed; ``_run`` finalizes its manifest.
A command that draws random numbers seeds its own generator from the config.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import platform
import sys

import numpy as np

from . import __version__, geometry, kernels
from .flow import (
    MultiplierIndexError,
    NonFinitePropagatorError,
    QuadratureError,
    build_flow_table,
    decomposition_mode,
    first_nonzero_h_index,
    kernel_rep_mode,
    remainder_bound,
    remainder_profile,
    volterra_modes,
)
from .inverse_control import (
    RouteMismatchError,
    SingularSystemError,
    add_noise,
    duality_range_test,
    min_norm_control,
    reconstruct_y0,
    synthesize_observation,
)
from .observability import (
    REF_EXPONENT,
    ObsInvariantError,
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
from .spectral import hs_norm, interval_basis

class ConfigError(ValueError):
    pass


# library errors a command ends on with exit 1 and a ``failed`` manifest
_RUN_ERRORS = (QuadratureError, geometry.RootIsolationError, SingularSystemError,
               ObsInvariantError, RouteMismatchError, MultiplierIndexError,
               NonFinitePropagatorError)


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

_ABSENT = object()  # a table default that leaves the key out


def _at_least(low):
    return (lambda v: v >= low), f">= {low}"


def _above(low):
    return (lambda v: v > low), f"> {low}"


def _each(rule):
    test, text = rule
    return (lambda vs: all(map(test, vs))), f"a list of values {text}"


def _one_of(*choices):
    return (lambda v: v in choices), "one of " + ", ".join(map(repr, choices))


_INSIDE = (lambda v: 0 < v < 1), "in (0, 1)"
_PAIR_IN_UNIT = ((lambda vs: len(vs) == 2 and all(0 <= v <= 1 for v in vs)),
                 "two numbers in [0, 1]")

# Every config key as (type, default, rule).  A type in brackets is a
# non-empty list of it, and a float key takes integers too.  A callable default
# is computed from the sections above it.  A mask key other than ``kind`` has
# its default per kind in ``build_mask``, and the mask constructors check the
# mask's values.  A section none of whose keys has a default (``window``) is
# None when the config leaves it out.  A rule (test, text) bounds a written
# value; the rules that tie keys together are in ``load_config``.
CONFIG = {
    "kernel": (str, "exp(-1*t)", None),
    "seed": (int, 0, _at_least(0)),
    "alpha": (float, None, _at_least(0)),  # None: no time weight
    "basis": {"J": (int, 8, _at_least(1)), "n_x": (int, 64, None)},
    "time": {"T": (float, 1.0, _above(0)), "n_t": (int, 1000, _at_least(8))},
    "window": {"S": (float, _ABSENT, None), "T": (float, _ABSENT, None)},
    "mask": {"kind": (str, "cylinder", _one_of(*geometry.MASK_KINDS)),
             **{key: (typ, _ABSENT, None) for key, typ in (
                 ("eps", float), ("x0", float), ("S", float), ("seed", int),
                 ("count", int), ("path", str), ("x_lo", float), ("x_hi", float),
                 ("x_star", float), ("r", float), ("n_t", int), ("n_x", int),
                 ("exponent", float))}},
    "flow_check": {"modes": ([int], [1, 2, 3, 8], _each(_at_least(1))),
                   "n_t_values": (int, 8, _at_least(1)),
                   "orders": ([int], [2, 3, 4], _each(_at_least(1))),
                   "remainder_t_values": (int, 10, _at_least(1))},
    "kernel_cmd": {"l_max": (int, 6, _at_least(0)),
                   "grid_points": (int, 100, _at_least(1))},
    "moc_cmd": {"radii": ([float], [0.05, 0.1, 0.2], _each(_above(0)))},
    "obsconst": {"J_list": ([int], lambda cfg: [cfg["basis"]["J"]], _each(_at_least(1))),
                 "n_restarts": (int, 32, _at_least(1))},
    "probe_alpha": {"k_list": ([int], [1, 2, 4, 8, 16, 24, 32], _each(_at_least(1))),
                    "omega": ([float], [0.25, 0.75], _PAIR_IN_UNIT)},
    "probe_ball": {"k_list": ([int], [2, 4, 8, 16, 24, 32], _each(_at_least(1))),
                   "x_star": (float, 0.5, _INSIDE), "r": (float, 0.2, _above(0))},
    "probe_heat": {"x0": (float, 0.5, _INSIDE), "r": (float, 0.2, _above(0)),
                   "half_widths": ([float], [0.08, 0.04, 0.02, 0.01], _each(_above(0))),
                   "t_list": ([float], [0.0, 1e-3, 1e-2, 0.1, 0.5, 1.0], _each(_at_least(0))),
                   "s_list": ([float], [0.0, -2.0, -4.0], None)},
    # lambda None: the discrepancy principle when there is noise, else 0
    "reconstruct": {"noise": (float, 0.0, _at_least(0)),
                    "lambda": (float, None, _at_least(0))},
    "control": {"T_hat": (float, lambda cfg: cfg["time"]["T"], _above(0)),
                "regime": (str, "l2", _one_of("l2", "weighted_linf")),
                "alpha": (float, 2.0, None),
                "target": (str, "eta^-3", _one_of("eta^-3", "zero"))},
}

_TYPE_NAMES = {int: ("an integer", "integers"), float: ("a number", "numbers"),
               str: ("a string", "strings")}


def _has_type(val, typ):
    if isinstance(typ, list):
        return isinstance(val, list) and bool(val) and all(_has_type(v, typ[0]) for v in val)
    if typ is str:
        return isinstance(val, str)
    return isinstance(val, (int, float) if typ is float else int) and not isinstance(val, bool)


def _resolve(raw, table, path="", root=None):
    """``raw`` checked against ``table``, with every default filled in."""
    unknown = sorted(raw.keys() - table.keys())
    if unknown:
        raise ConfigError(f"unknown config key: {path}{unknown[0]}")
    out = {}
    root = out if root is None else root
    for key, spec in table.items():
        where, val = path + key, raw.get(key, _ABSENT)
        if isinstance(spec, dict):
            if val is _ABSENT and all(s[1] is _ABSENT for s in spec.values()):
                out[key] = None
            elif val is _ABSENT or isinstance(val, dict):
                out[key] = _resolve({} if val is _ABSENT else val, spec, where + ".", root)
            else:
                raise ConfigError(f"{where} must be an object")
            continue
        typ, default, rule = spec
        if val is _ABSENT:
            if default is not _ABSENT:
                out[key] = default(root) if callable(default) else copy.copy(default)
            continue
        if not _has_type(val, typ):
            what = (f"a non-empty list of {_TYPE_NAMES[typ[0]][1]}" if isinstance(typ, list)
                    else _TYPE_NAMES[typ][0])
            raise ConfigError(f"{where} must be {what}")
        if rule is not None and not rule[0](val):
            raise ConfigError(f"{where} must be {rule[1]}")
        out[key] = val
    return out


def load_config(path, seed=None):
    """The config at ``path`` checked against ``CONFIG``, with every default
    filled in; ``seed`` (the ``--seed`` flag) overrides the config's."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None
    except OSError as e:
        raise ConfigError(f"cannot read the config: {e}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if seed is not None:
        raw["seed"] = seed
    cfg = _resolve(raw, CONFIG)
    if cfg["basis"]["n_x"] < 4 * cfg["basis"]["J"]:
        raise ConfigError("basis.n_x must be at least 4*basis.J")
    win = cfg["window"]
    if win is not None and not ("S" in win and "T" in win and 0 <= win["S"] < win["T"]
                                and win["S"] < cfg["time"]["T"]):
        raise ConfigError("window needs S and T with 0 <= S < T and S < time.T")
    if cfg["control"]["regime"] == "weighted_linf" and cfg["control"]["alpha"] <= 1:
        raise ConfigError("control.alpha must be > 1 in the weighted_linf regime")
    mask = cfg["mask"]
    if mask["kind"] == "file" and not os.path.exists(mask.get("path", "")):
        raise ConfigError(f"mask.path does not exist: {mask.get('path')}")
    return cfg


def config_hash(cfg):
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:12]


def parse_kernel_checked(text):
    try:
        return kernels.parse_kernel(text)
    except kernels.KernelParseError as e:
        raise ConfigError(f"kernel: {e}") from None


# constructor arguments without a default in ``geometry``, per mask kind
_MASK_DEFAULTS = {
    "zigzag": {"eps": 0.1},
    "cusp": {"x0": 0.5, "S": 0.0},
    "random_rects": {"seed": 0, "count": 5},
    "ball_complement": {"x_star": 0.5, "r": 0.2},
}


def build_mask(cfg):
    m = dict(cfg["mask"])
    kind = m.pop("kind")
    if kind != "file":  # a mask file carries its own sizes
        m = {"T": cfg["time"]["T"], "n_t": max(64, cfg["time"]["n_t"] // 8),
             "n_x": max(32, cfg["basis"]["n_x"] // 2), **_MASK_DEFAULTS.get(kind, {}), **m}
    try:
        return geometry.mask_generate(kind, **m)
    except (TypeError, ValueError) as e:  # a key or value the constructor rejects
        raise ConfigError(f"mask ({kind}): {e}") from None


# ---------------------------------------------------------------------------
# artifact output
# ---------------------------------------------------------------------------

class Sink:
    """Output directory <out>/<command>/<hash> with hash-stamped artifacts;
    made on the first write, so a command that raises a config error before
    it writes leaves no directory."""

    def __init__(self, out_dir, command, cfg):
        self.out_dir = out_dir
        self.hash = config_hash(cfg)
        self.dir = os.path.join(out_dir, command, self.hash)
        self.artifacts = []
        self.cfg = cfg
        self.command = command

    def path(self, name):
        os.makedirs(self.dir, exist_ok=True)
        return os.path.join(self.dir, name)

    def write_csv(self, name, header, columns):
        """Columns of equal length as one line per row, each value as
        ``_fmt`` writes it, each column formatted at once; one write."""
        lines = list(map(", ".join, zip(*map(_fmt_column, columns), strict=True)))
        with open(self.path(name), "w") as fh:
            fh.write("\n".join([f"# config {self.hash}", header, *lines, ""]))
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


def _fmt_column(column):
    """``_fmt`` of every value of a column.  An integer array formats each
    distinct value once, a float array and a list of only floats (numpy
    float64 included) or only ints take one C-level map."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "iu":
        values, index = np.unique(column, return_inverse=True)
        return np.array(list(map(int.__repr__, values.tolist())), dtype=object)[index].tolist()
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        return list(map(float.__repr__, column.astype(float, copy=False).tolist()))
    kinds = set(map(type, column))
    if kinds <= {float, np.float64}:
        return list(map(float.__repr__, column))
    if kinds == {int}:
        return list(map(int.__repr__, column))
    return list(map(_fmt, column))


def _json_default(v):
    if isinstance(v, (np.generic, np.ndarray)):  # numpy scalars and arrays
        return v.tolist()
    raise TypeError(f"not JSON serializable: {type(v)}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_flow_check(cfg, sink):
    M = parse_kernel_checked(cfg["kernel"])
    fc = cfg["flow_check"]
    modes, n_tv = fc["modes"], fc["n_t_values"]
    T, n_t = cfg["time"]["T"], cfg["time"]["n_t"]
    basis = _basis(cfg, max(modes))
    etas = basis.eigenvalues
    dt = T / n_t
    failures = 0

    # one stepper run per dt level on the requested modes; level 0 feeds
    # both the three-way column and the order study
    mode_etas = etas[np.array(modes) - 1]
    runs = [volterra_modes(M, mode_etas, T, n_t * 2**lvl) for lvl in range(2)]
    # check times snapped onto the stepping grid
    idx_checks = np.unique(np.linspace(n_t / n_tv, n_t, n_tv).round().astype(int))
    t_checks, n_c = idx_checks * dt, len(idx_checks)
    # both series routes once per check time, on all modes at once; each
    # table below is (mode, check time)
    kr = np.array([kernel_rep_mode(M, mode_etas, t) for t in t_checks.tolist()]).T
    dec = np.array([decomposition_mode(M, mode_etas, t)["total"]
                    for t in t_checks.tolist()]).T
    v = runs[0][idx_checks].T
    tol = np.array([max(1e-6, eta**2 * dt**2 / 20.0) for eta in mode_etas.tolist()])
    diff_vk, diff_vd = abs(v - kr), abs(v - dec)
    ok = (diff_vk <= tol[:, None]) & (diff_vd <= tol[:, None])
    failures += int(np.count_nonzero(~ok))
    sink.write_csv("three_way.csv",
                   "j, eta, t, volterra, kernel_rep, decomposition, "
                   "diff_vk, diff_vd, tol, ok",
                   [np.repeat(modes, n_c), np.repeat(mode_etas, n_c),
                    np.tile(t_checks, len(modes)), v.ravel(), kr.ravel(), dec.ravel(),
                    diff_vk.ravel(), diff_vd.ravel(), np.repeat(tol, n_c), ok.ravel()])

    # dt-halving order estimate against the exact propagator at T (one step)
    exact_at_T = build_flow_table(M, basis, T, 1, method="exact").phi[:, 1]
    records = []
    for col, j in enumerate(modes):
        ref = float(exact_at_T[j - 1])
        errs = [abs(float(run[-1, col]) - ref) for run in runs]
        order = math.log2(errs[0] / errs[1]) if errs[1] > 0 else float("inf")
        records.append({"kernel": cfg["kernel"], "mode": j,
                        "method_pair": "volterra/exact",
                        "max_abs_diff": errs[0], "dt": dt,
                        "order_estimate": order})
    sink.write_csv("order_study.csv", "j, err_dt, order_estimate",
                   [modes, [r["max_abs_diff"] for r in records],
                    [r["order_estimate"] for r in records]])

    # remainder bound table
    n_rt, orders = fc["remainder_t_values"], fc["orders"]
    ts = np.linspace(T / n_rt, T, n_rt)
    bound = np.concatenate([remainder_bound(M, N, ts) for N in orders])
    max_R = np.array([np.abs(remainder_profile(M, t, N, etas)).max()
                      for N in orders for t in ts.tolist()])
    ok = max_R <= bound  # a nan in R makes its max nan, which fails the row
    failures += int(np.count_nonzero(~ok))
    sink.write_csv("remainder_bound.csv", "N, t, max_abs_R, bound, ok",
                   [np.repeat(orders, n_rt), np.tile(ts, len(orders)), max_R, bound, ok])
    sink.write_json("flow_check.json", {
        "records": records, "failures": failures,
        "min_order": min(r["order_estimate"] for r in records), "kernel": cfg["kernel"],
    })
    return failures == 0


def cmd_kernel(cfg, sink):
    M = parse_kernel_checked(cfg["kernel"])
    kc = cfg["kernel_cmd"]
    ts = np.linspace(0.0, cfg["time"]["T"], kc["grid_points"])
    hp = [(kernels.h_coeff(M, l), kernels.p_coeff(M, l)) for l in range(kc["l_max"] + 1)]
    tol, m0 = 1e-12, M.eval(0.0)

    def near(f, ref):
        return bool(np.max(np.abs(f.eval(ts) - ref)) <= tol)

    checks = {"h0_zero": kernels.h_coeff(M, 0).is_zero(),
              "h1_plus_M_zero": near(kernels.h_coeff(M, 1), -M.eval(ts)),
              "p0_ok": near(kernels.p_coeff(M, 0), m0 * ts),
              "p1_ok": near(kernels.p_coeff(M, 1),
                            m0 - M.derivative(1).eval(0.0) * ts + 0.5 * m0 ** 2 * ts**2),
              "p_h_origin": all(abs(p.eval(0.0) + h.eval(0.0)) <= tol for h, p in hp)}
    sink.write_csv("coefficients.csv", "l, h_l, p_l",
                   [range(len(hp)), [kernels.format_kernel(h) for h, _ in hp],
                    [kernels.format_kernel(p) for _, p in hp]])
    sink.write_json("kernel.json", {"kernel": cfg["kernel"], "checks": checks})
    return all(checks.values())


def _window(cfg):
    win = cfg["window"]
    return (win["S"], win["T"]) if win else (0.0, cfg["time"]["T"])


def cmd_moc(cfg, sink):
    M = parse_kernel_checked(cfg["kernel"])
    if M.is_zero():
        raise ConfigError("kernel: moc needs a kernel that is not identically zero")
    mask = build_mask(cfg)
    S, T_hi = _window(cfg)
    T_hi = min(T_hi, mask.T)
    if S >= T_hi:
        raise ConfigError(f"window: S = {S!r} is not before the mask horizon {mask.T!r}")
    mval = geometry.moc_functional(mask, S, T_hi)
    ball = {repr(r): geometry.ball_average(mask, r, T_hi) for r in cfg["moc_cmd"]["radii"]}
    mu, weighted = geometry.column_integrals(mask, M, S, T_hi)
    C, beta, verified, margins = geometry.analytic_lower_bound_check(mask, M, S, T_hi)
    sink.write_csv("slices.csv", "x_cell, slice_measure, weighted_slice",
                   [range(mask.n_x), mu, weighted])
    sink.write_json("moc.json", {
        "moc": mval, "ball_average": ball,
        "analytic_bound": {"C": C, "beta": beta, "verified": verified,
                           "min_margin": float(margins.min())},
        "mask": mask.provenance,
    })
    print(f"moc = {mval!r}")
    return verified


def _basis(cfg, J=None):
    """The first J (default basis.J) modes on a grid of at least 4 J points."""
    J = cfg["basis"]["J"] if J is None else J
    return interval_basis(J, max(cfg["basis"]["n_x"], 4 * J))


def _setup_from_cfg(cfg, M, J=None, method="volterra"):
    """The observation setup of the config for the parsed kernel M."""
    table = build_flow_table(M, _basis(cfg, J), cfg["time"]["T"], cfg["time"]["n_t"],
                             method=method)
    mask = build_mask(cfg)
    S, T_hi = _window(cfg)
    try:
        setup = ObsSetup(table, mask, alpha=cfg["alpha"],
                         window=(S, min(T_hi, cfg["time"]["T"])))
    except ValueError as e:  # a window or alpha the observation setup rejects
        raise ConfigError(f"window: {e}") from None
    if not setup.masked_weights.any():
        raise ConfigError("observation set is empty: no mask cell lies in the window")
    return setup


def cmd_obsconst(cfg, sink):
    n_restarts = cfg["obsconst"]["n_restarts"]
    M = parse_kernel_checked(cfg["kernel"])

    J_list, reports = cfg["obsconst"]["J_list"], {}
    for J in J_list:
        # per-J rng keyed by (seed, J): a row does not depend on the others
        local = np.random.default_rng([cfg["seed"], J])
        setup = _setup_from_cfg(cfg, M, J=J)
        rep = two_sided_constants(setup, n_restarts=n_restarts, rng=local)
        c_null, w_null, nd = null_obs_constant(setup, rng=local)
        relC, share = relaxed_inequality_fit(setup, rng=local)
        rank, sig = unique_continuation_rank(setup)
        reports[str(J)] = {**rep, "c_null": c_null, "witness_null": w_null,
                           "relaxed_C": relC, "relaxed_share": share,
                           "uc_rank": rank, "uc_sigma_min": sig,
                           "null_unbounded": nd["quotient_unbounded"],
                           "iterations_null": nd["iterations"],
                           "converged_null": nd["converged"]}
    keys = ("c_lower", "c_upper", "c_null", "relaxed_C", "spread_lower", "spread_upper",
            "uc_rank", "uc_sigma_min")
    sink.write_csv("constants.csv", ", ".join(("J", *keys)),
                   [J_list, *([reports[str(J)][k] for J in J_list] for k in keys)])
    sink.write_json("obsconst.json", {"by_J": reports})
    return True


def cmd_probe_alpha(cfg, sink):
    pa = cfg["probe_alpha"]
    setup = _setup_from_cfg(cfg, parse_kernel_checked(cfg["kernel"]), method="exact")
    try:
        recs = alpha_probe(setup, pa["k_list"], omega=tuple(pa["omega"]))
    except ValueError as e:
        raise ConfigError(f"probe_alpha: {e}") from None
    sink.write_csv("trajectory.csv", "k, quotient",
                   [[r["k"] for r in recs], [r["quotient"] for r in recs]])
    quot = [r["quotient"] for r in recs]
    sink.write_json("probe_alpha.json", {
        "records": recs, "alpha": cfg["alpha"],
        "spread": max(quot) / min(quot),
    })
    return True


def cmd_probe_ball(cfg, sink):
    pb = cfg["probe_ball"]
    k_list, x_star, r = pb["k_list"], pb["x_star"], pb["r"]
    M = parse_kernel_checked(cfg["kernel"])
    if M.is_zero():
        raise ConfigError("kernel: probe-ball needs a kernel that is not identically zero")
    T = cfg["time"]["T"]
    cfg = {**cfg, "mask": {"kind": "ball_complement", "x_star": x_star, "r": r}}
    setup = _setup_from_cfg(cfg, M, method="exact")
    J_index = first_nonzero_h_index(M, T)
    recs = missing_ball_probe(setup, x_star, r, J_index, k_list)
    hJ = abs(kernels.h_coeff(M, J_index).eval(T))
    sink.write_csv("trajectory.csv", "k, quotient",
                   [[r_["k"] for r_ in recs], [r_["quotient"] for r_ in recs]])
    sink.write_json("probe_ball.json", {
        "records": recs, "J_index": J_index, "h_J_at_T": hJ,
        "growth": recs[-1]["quotient"] / recs[0]["quotient"],
        "final_ratio_last": recs[-1]["final_norm"] / hJ,
    })
    return True


def cmd_probe_heat(cfg, sink):
    ph = cfg["probe_heat"]
    out = heat_local_probe(_basis(cfg), ph["x0"], ph["r"], s_exponents=tuple(ph["s_list"]),
                           t_list=tuple(ph["t_list"]), half_widths=tuple(ph["half_widths"]))
    rows = [(s, r) for s, tbl in out.items() for r in tbl["rows"]]
    sink.write_csv("ratios.csv", "s, half_width, ratio",
                   [[s for s, _ in rows], [r["half_width"] for _, r in rows],
                    [r["ratio"] for _, r in rows]])
    sink.write_json("probe_heat.json",
                    {"max_ratio": {str(s): tbl["max_ratio"] for s, tbl in out.items()}})
    return True


def cmd_reconstruct(cfg, sink):
    noise, lam = cfg["reconstruct"]["noise"], cfg["reconstruct"]["lambda"]
    setup = _setup_from_cfg(cfg, parse_kernel_checked(cfg["kernel"]))
    rng = np.random.default_rng(cfg["seed"])
    truth = rng.standard_normal(setup.basis.J)
    truth /= np.linalg.norm(truth)
    clean = synthesize_observation(setup, truth)
    # the noise continues the truth's stream, so it does not repeat the truth
    data = add_noise(setup, clean, noise, rng)
    rec, rep = reconstruct_y0(setup, data, lam=lam,
                              noise_norm=setup.l2_norm(data - clean) if noise else None)
    rel = (hs_norm(setup.basis, rec - truth, REF_EXPONENT)
           / hs_norm(setup.basis, truth, REF_EXPONENT))
    sink.write_csv("coefficients.csv", "j, truth, reconstructed",
                   [range(1, len(truth) + 1), truth, rec])
    sink.write_json("reconstruct.json", {
        "lambda": rep["lambda"], "residual": rep["residual"],
        "rel_error_if_truth_known": rel, "sigma_min": rep["sigma_min"],
    })
    return True


def cmd_control(cfg, sink):
    cc = cfg["control"]
    M = parse_kernel_checked(cfg["kernel"])
    basis = _basis(cfg)
    mask = build_mask(cfg)
    if mask.is_empty():
        raise ConfigError("observation set is empty: the mask has no cell")
    y0 = np.random.default_rng(cfg["seed"]).standard_normal(basis.J)
    y1 = basis.eigenvalues**-3.0 if cc["target"] == "eta^-3" else np.zeros(basis.J)
    u, rep = min_norm_control(M, basis, mask, cc["T_hat"], y0, y1, regime=cc["regime"],
                              alpha=cc["alpha"])
    it, ix = np.nonzero(mask.cells)
    sink.write_csv("control.csv", "t_i, x_cell, u_value", [it, ix, u[it, ix]])
    sink.write_json("control.json", {**rep, "moc_of_mask": geometry.moc_functional(mask)})
    return rep["final_error"] <= 1e-6


def cmd_duality(cfg, sink):
    rng = np.random.default_rng(cfg["seed"])
    setup = _setup_from_cfg(cfg, parse_kernel_checked(cfg["kernel"]))
    G = gram_matrix(setup)[0]
    L = np.linalg.cholesky(G + 1e-13 * np.trace(G) * np.eye(len(G)))
    R = np.diag(setup.mass_matrix() ** 0.5)
    xs = [rng.standard_normal(setup.basis.J) for _ in range(8)]  # 8 random directions
    # include the extremal direction: the least eigenvector of (G, R^T R)
    xs.append(setup.pencil()[1][:, 0])
    C2, _, C1 = duality_range_test(R, L.T, xs)
    rep = two_sided_constants(setup, rng=rng)
    sink.write_json("duality.json", {
        "observability": {"C1": C1, "C2": C2, "one_over_c_lower": 1.0 / rep["c_lower"]},
    })
    return 0.5 <= C2 * rep["c_lower"] <= 2.0


def cmd_report(cfg, sink):
    summary = {}
    ok_all = True
    for name in ("flow-check", "kernel", "moc", "obsconst", "reconstruct",
                 "control", "duality"):
        ok, sub_sink = _run(name, cfg, sink.out_dir)
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
    "report": cmd_report,
}
COMMANDS = tuple(COMMAND_IMPL)


def _run(command, cfg, out_dir):
    """Run ``command`` into its sink under ``out_dir`` and finalize the
    manifest ``ok`` or ``failed``; a run error finalizes it ``failed`` and is
    re-raised.  Returns (ok, sink)."""
    sink = Sink(out_dir, command, cfg)
    try:
        ok = COMMAND_IMPL[command](cfg, sink)
    except _RUN_ERRORS:
        sink.finalize("failed")
        raise
    sink.finalize("ok" if ok else "failed")
    return ok, sink


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="memflow",
        description="Experiment runner for the memory heat flow toolkit.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, seed=args.seed)
        ok, sink = _run(args.command, cfg, args.out)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except _RUN_ERRORS as e:
        where = os.path.join(args.out, args.command, config_hash(cfg))
        print(f"{args.command}: {type(e).__name__}: {e}; see {where}", file=sys.stderr)
        return 1
    if not ok:
        print(f"{args.command}: assertion failures; see {sink.dir}",
              file=sys.stderr)
        return 1
    print(f"{args.command}: ok -> {sink.dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
