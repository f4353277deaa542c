"""Per-layer spans recorded from outside the library.

``Tracer.install`` replaces the public functions of each ``memflow`` module
(and the methods listed in ``METHODS``) by timing wrappers, in the defining
module and in every ``memflow`` namespace that imported the name with
``from .x import y``.  Spans are aggregated in memory by (function, parent),
because the hot leaves are called hundreds of thousands of times per job; a
span's self time is its duration minus the time of its child spans.
``uninstall`` restores every patched attribute.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

MODULES = ("kernels", "spectral", "flow", "geometry", "observability",
           "inverse_control", "cli")

# Non-public names that carry a layer's work, wrapped in addition to __all__.
EXTRA_FUNCTIONS = {
    "flow": ("control_forcing", "control_mode_projection"),
    "observability": ("_seminorm_and_grad",),
    "cli": ("main", "build_mask", "load_config"),
}

METHODS = {
    "kernels": (("ExpPolyFn", "eval"), ("ExpPolyFn", "derivative"),
                ("ExpPolyFn", "convolve"), ("BivariateKernel", "__init__"),
                ("BivariateKernel", "eval")),
    "observability": (("ObsSetup", "__init__"), ("ObsSetup", "time_profiles")),
    "cli": (("Sink", "write_csv"), ("Sink", "write_json"), ("Sink", "finalize")),
}


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _mode_steps(args, kwargs):
    etas = _arg(args, kwargs, 1, "etas")
    n_etas = len(etas) if hasattr(etas, "__len__") else 1
    return n_etas * int(_arg(args, kwargs, 3, "n_steps"))


def _points(args, kwargs):
    s = _arg(args, kwargs, 2, "s")
    return getattr(s, "size", None) or (len(s) if hasattr(s, "__len__") else 1)


# Work counts: key -> (counter name, function of the call's arguments).
COUNTERS = {
    "flow.volterra_modes": ("mode_steps", _mode_steps),
    "flow.volterra_influence": ("mode_steps", _mode_steps),
    "kernels.BivariateKernel.eval": ("points", _points),
}

# Keys whose spans are split by an argument: build_flow_table by route.
ROUTES = {
    "flow.build_flow_table":
        lambda a, k: str(_arg(a, k, 4, "method", "volterra")),
}


class Tracer:
    def __init__(self):
        self.stats = {}                  # (key, parent) -> [calls, self, total]
        self.counts = defaultdict(float)
        self._stack = []                 # [key, child seconds]
        self._active = defaultdict(int)  # recursion depth per key
        self._patches = []               # (owner, attribute, original)

    # -- spans ---------------------------------------------------------------

    def wrap(self, key, fn):
        counter = COUNTERS.get(key)
        route = ROUTES.get(key)
        stack, active, stats, counts = (self._stack, self._active, self.stats,
                                        self.counts)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            k = key if route is None else f"{key}.{route(args, kwargs)}"
            if counter is not None:
                counts[f"{key}.{counter[0]}"] += counter[1](args, kwargs)
            frame = [k, 0.0]
            stack.append(frame)
            active[k] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                active[k] -= 1
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dt
                rec = stats.get((k, parent and parent[0]))
                if rec is None:
                    rec = stats[(k, parent and parent[0])] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt - frame[1]
                if not active[k]:
                    rec[2] += dt

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        return traced

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        pkg = importlib.import_module("memflow")
        mods = {m: importlib.import_module(f"memflow.{m}") for m in MODULES}
        namespaces = [pkg, *mods.values()]
        for mname, mod in mods.items():
            names = list(getattr(mod, "__all__", ())) + list(EXTRA_FUNCTIONS.get(mname, ()))
            for name in names:
                fn = getattr(mod, name, None)
                if not inspect.isfunction(fn):
                    continue
                wrapped = self.wrap(f"{mname}.{name}", fn)
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is fn:
                            self._patch(ns, attr, wrapped)
            for cls_name, meth in METHODS.get(mname, ()):
                cls = getattr(mod, cls_name, None)
                fn = cls and vars(cls).get(meth)
                if not inspect.isfunction(fn):
                    continue
                wrapped = self.wrap(f"{mname}.{cls_name}.{meth}", fn)
                for attr, val in list(vars(cls).items()):
                    if val is fn:  # aliases such as ExpPolyFn.__call__
                        self._patch(cls, attr, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- results -------------------------------------------------------------

    def totals(self):
        """key -> {"calls", "self_s", "total_s"} summed over parents."""
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for (key, _parent), (calls, self_s, total_s) in self.stats.items():
            rec = out[key]
            rec["calls"] += calls
            rec["self_s"] += self_s
            rec["total_s"] += total_s
        return dict(out)

    def module_self(self):
        """Module -> self seconds of all its spans."""
        out = {m: 0.0 for m in MODULES}
        for (key, _parent), (_calls, self_s, _total) in self.stats.items():
            out[key.split(".", 1)[0]] += self_s
        return out

    def edges(self):
        """(key, parent) aggregates, for the results file."""
        return [{"span": k, "parent": p, "calls": c, "self_s": s, "total_s": t}
                for (k, p), (c, s, t) in sorted(self.stats.items(),
                                                key=lambda kv: -kv[1][1])]


def overhead_per_span(n=20000, repeats=5):
    """Seconds a wrapper adds to one call, from timing a wrapped no-op."""
    def noop():
        return None

    t = Tracer()
    wrapped = t.wrap("calibration.noop", noop)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(n):
            wrapped()
        t1 = time.perf_counter()
        for _ in range(n):
            noop()
        t2 = time.perf_counter()
        best = min(best, ((t1 - t0) - (t2 - t1)) / n)
    return max(best, 0.0)
