"""Job configs of the benchmark workloads, generated from a seed.

A workload is a fixed cycle of job kinds that the runner repeats.  A kind is
a command with one or more variants (kernel family, mask kind or control
regime); job ``i`` of a run takes kind ``i % len(cycle)`` and cycles through
that kind's variants from one cycle to the next (variants of one kind cost
about the same).  Each job draws its own kernel coefficients and mask
parameters from the seed, so every job parses a kernel no earlier job of the
process has seen and starts from cold module caches, as a separate
``memflow`` call would.  The draws of one kind follow a seeded Kronecker
sequence, which spreads any run's jobs evenly over the parameter ranges, so
the per-kind medians do not hinge on which corner of a range a seed favours.
The same seed always gives the same configs.

Why these workloads (each stresses a different layer):

* ``routes``: ``flow-check`` and ``probe-alpha`` with multi-term kernels.
  Series-kernel and exponential-polynomial evaluation (``kernels``) take most
  of the time; the stepper and the observation operator do little work.
* ``constants``: ``obsconst`` on zigzag, cusp and random-rectangle masks with
  a single-exponential kernel.  The constant optimizers' seminorm-and-gradient
  loop (``observability``) takes most of the time; the kernel is evaluated
  once per flow table.
* ``steer``: ``reconstruct`` and ``control`` (both regimes) with a
  single-exponential kernel.  The forward, forced and adjoint stepper
  (``flow``) takes most of the time; the observation operator is built densely
  and fed to normal-equation solves, a different use from ``constants``.

Sizes are smaller than the interactive defaults so that a run of a few tens
of seconds completes several whole cycles; ``SMOKE`` shrinks them further for
the self-test.
"""

from __future__ import annotations

import numpy as np

CYCLES = {
    "routes": (("flow-check", ("cos",)), ("probe-alpha", ("exppoly",)),
               ("flow-check", ("exppoly",)), ("probe-alpha", ("cos",))),
    "constants": (("obsconst", ("zigzag",)), ("obsconst", ("cusp",)),
                  ("obsconst", ("random_rects",))),
    "steer": (("reconstruct", ("cylinder", "zigzag")),
              ("control", ("l2", "weighted_linf"))),
}

FULL = {
    "flow-check": {"J": 8, "n_x": 64, "n_t": 1000, "modes": [1, 2],
                   "n_t_values": 1, "orders": [4], "remainder_t_values": 4},
    "probe-alpha": {"J": 32, "n_x": 256, "n_t": 12, "mask_n_t": 200,
                    "mask_n_x": 256},
    "obsconst": {"J": 12, "n_x": 64, "n_t": 100, "mask_n_t": 100,
                 "mask_n_x": 64},
    "reconstruct": {"J": 32, "n_x": 256, "n_t": 1000},
    "control": {"J": 32, "n_x": 128, "n_t": 1000},
}

SMOKE = {
    "flow-check": {"J": 2, "n_x": 16, "n_t": 100, "modes": [1, 2],
                   "n_t_values": 1, "orders": [2], "remainder_t_values": 1},
    "probe-alpha": {"J": 8, "n_x": 64, "n_t": 8, "mask_n_t": 32,
                    "mask_n_x": 64},
    "obsconst": {"J": 4, "n_x": 32, "n_t": 40, "mask_n_t": 20, "mask_n_x": 32},
    "reconstruct": {"J": 6, "n_x": 32, "n_t": 100},
    "control": {"J": 6, "n_x": 32, "n_t": 100},
}


# Irrational steps, one per parameter: the n-th job of a kind takes the
# point frac(shift + n * step) of the unit cube.
_STEPS = np.sqrt([2.0, 3.0, 5.0, 7.0, 11.0, 13.0]) % 1.0


def _uniforms(seed, kind, n):
    shift = np.random.default_rng([seed, kind, 2**32]).random(len(_STEPS))
    return (shift + n * _STEPS) % 1.0


def _num(x):
    return f"{float(x):.4f}"


def _scale(u, lo, hi):
    return float(_num(lo + (hi - lo) * u))


def draw_kernel(u, family):
    """Kernel string of one family, coefficients placed by ``u`` in [0, 1)^3.

    ``cos``: exp(-a t) cos(b t), a in [0.5, 1.5], b in [1, 2.5].  Above
    about b = 2.6 ``remainder_bound`` overflows (a known library defect, for
    instance at exp(-t) cos(3 t)), so the timed jobs stop at 2.5 and
    ``checks.known_defect_probes`` shows the defect on every run instead.
    ``exppoly``: exp(-a t) + c t exp(-b t), a in [0.5, 1], b in [1.5, 2.5],
    c in [0.25, 1].  ``exp``: exp(-a t), a in [0.5, 1.5].
    """
    if family == "cos":
        return f"exp(-{_scale(u[0], 0.5, 1.5)}*t)*cos({_scale(u[1], 1.0, 2.5)}*t)"
    if family == "exppoly":
        a, b, c = _scale(u[0], 0.5, 1.0), _scale(u[1], 1.5, 2.5), _scale(u[2], 0.25, 1.0)
        return f"exp(-{a}*t) + {c}*t*exp(-{b}*t)"
    if family == "exp":
        return f"exp(-{_scale(u[0], 0.5, 1.5)}*t)"
    raise ValueError(f"unknown kernel family {family!r}")


def _obs_mask(u, rng, kind, n_t, n_x):
    if kind == "zigzag":
        mask = {"eps": _scale(u[0], 0.15, 0.3)}
    elif kind == "cusp":
        mask = {"x0": _scale(u[0], 0.3, 0.7), "S": _scale(u[1], 0.0, 0.2)}
    elif kind == "random_rects":
        mask = {"seed": int(rng.integers(0, 2**31)), "count": 6 + int(4 * u[0])}
    else:
        raise ValueError(f"unknown mask kind {kind!r}")
    return {"kind": kind, "n_t": n_t, "n_x": n_x, **mask}


def _band(u):
    return {"x_lo": _scale(u[0], 0.1, 0.3), "x_hi": _scale(u[1], 0.6, 0.9)}


def make_job(workload, seed, index, smoke=False):
    """(command, variant, config) of job ``index`` of a run."""
    cycle = CYCLES[workload]
    command, variants = cycle[index % len(cycle)]
    variant = variants[index // len(cycle) % len(variants)]
    size = (SMOKE if smoke else FULL)[command]
    rng = np.random.default_rng([seed, index])
    u = _uniforms(seed, index % len(cycle), index // len(cycle))
    kernel_u, mask_u = u[:3], u[3:]
    cfg = {"seed": int(rng.integers(0, 2**31)),
           "basis": {"J": size["J"], "n_x": size["n_x"]},
           "time": {"T": 1.0, "n_t": size["n_t"]}}
    if command == "flow-check":
        cfg["kernel"] = draw_kernel(kernel_u, variant)
        cfg["flow_check"] = {k: size[k] for k in
                             ("modes", "n_t_values", "orders", "remainder_t_values")}
    elif command == "probe-alpha":
        cfg["kernel"] = draw_kernel(kernel_u, variant)
        cfg["alpha"] = 2.0
        cfg["mask"] = {"kind": "cylinder", "n_t": size["mask_n_t"],
                       "n_x": size["mask_n_x"], "S": 0.0,
                       "x_lo": _scale(mask_u[0], 0.05, 0.2),
                       "x_hi": _scale(mask_u[1], 0.8, 0.95)}
    elif command == "obsconst":
        cfg["kernel"] = draw_kernel(kernel_u, "exp")
        cfg["alpha"] = 2.0
        cfg["mask"] = _obs_mask(mask_u, rng, variant, size["mask_n_t"], size["mask_n_x"])
        cfg["obsconst"] = {"J_list": [size["J"]]}
    elif command == "reconstruct":
        cfg["kernel"] = draw_kernel(kernel_u, "exp")
        if variant == "cylinder":
            # observed from t = 0: a later start hides the fast modes and the
            # inversion is ill-posed (errors of several hundred times the truth)
            cfg["mask"] = {"kind": "cylinder", "S": 0.0, **_band(mask_u)}
        else:
            cfg["mask"] = {"kind": "zigzag", "eps": _scale(mask_u[0], 0.15, 0.3)}
        cfg["reconstruct"] = {"noise": 0.01}
    elif command == "control":
        cfg["kernel"] = draw_kernel(kernel_u, "exp")
        # a wide band observed from early on: on narrow or off-centre bands the
        # weighted_linf moment solve misses the CLI's 1e-6 target now and then
        # (a known library defect, see checks.known_defect_probes)
        cfg["mask"] = {"kind": "cylinder", "S": _scale(mask_u[2], 0.0, 0.1),
                       "x_lo": _scale(mask_u[0], 0.05, 0.15),
                       "x_hi": _scale(mask_u[1], 0.85, 0.95)}
        cfg["control"] = {"regime": variant}
    return command, variant, cfg


def reference_rate(seed):
    """Decay rate a of the exp(-a t) kernel of a run's closed-form check."""
    return float(_num(np.random.default_rng([seed, 2**32]).uniform(0.5, 1.5)))
