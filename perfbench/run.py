"""memflow benchmark runner.

    python3 perfbench/run.py --workload {routes,constants,steer} --seed N \
        --seconds S --trace {0,1}

Generates job configs from the seed (``workloads.py``) and runs them back to
back, one client in one process, through the public entry
``memflow.cli.main``: a closed loop that repeats whole cycles of the
workload's job mix for about ``--seconds`` (at least one cycle).  BLAS runs
on one thread, pinned before numpy is imported; ``MEMFLOW_THREADS`` is
cleared and ``--threads`` is never passed.

The speed of a small shared machine drifts by tens of percent over minutes,
which no run length within the time budget averages out.  A fixed numpy,
Python and memory-streaming computation that uses no memflow code
(``reference_seconds``) is therefore timed between jobs, and the gated
throughput figure, ``job_cost_ref``, is the mean over passed jobs of the
job's wall time divided by the reference time measured around it.  The raw
``jobs_per_s`` and the per-command medians are on the summary line.

After the loop every job's artifacts go through the gates in ``checks.py``,
and the closed-form propagator of exp(-a t) is compared with all three flow
table routes (untimed, once per run).  A job fails on a nonzero exit code,
on an exception (its type is recorded) or on a failed gate.  An
``OverflowError`` raised inside ``remainder_bound``, and a weighted_linf
control that misses its target by a little more than the CLI's 1e-6 (see
``checks.CONTROL_KNOWN_MISS``), are known library defects: they count as
failed jobs but do not make the run incorrect; any other failure does.  The
workloads' parameter ranges keep clear of both defects, so that no timed job
fails; each run instead probes its workload's defect on a fixed input
(``checks.known_defect_probes``, untimed) and reports it on stderr and in
``results.json``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the loop runs under the span tracer
(``tracer.py``) and carries the per-layer metrics.  The line before it
lists, with units, the per-command figures of the workload.  Configs,
artifacts and ``results.json`` (environment, per-job records, spans) land in
``perfbench/out/<workload>-seed<N>-trace<T>/``; any job can be replayed alone
with ``memflow <command> --config <that dir>/configs/<job>.json``.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("MEMFLOW_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 4  # cold starts before the loop, and again after it
REFERENCE = {"J": 8, "n_steps": 200}
SMOKE_REFERENCE = {"J": 2, "n_steps": 20}
COMMAND_METRIC = {"flow-check": "flow_check_s", "probe-alpha": "probe_alpha_s",
                  "obsconst": "obsconst_s", "reconstruct": "reconstruct_s",
                  "control": "control_s"}
# Figures printed on the summary line, on the workloads where they apply.
SUMMARY_UNITS = {"jobs_per_s": "1/s", "ref_s": "s", "fail_frac": "ratio", **{m: "s" for m in COMMAND_METRIC.values()},
                 "c_lower_gmean": "1", "c_upper_gmean": "1", "c_null_gmean": "1",
                 "recon_rel_err_gmean": "1", "control_objective_gmean": "1"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes and a single cold start (self-test only)")
    return p.parse_args(argv)


def cold_import_seconds(repeats):
    """Wall times of fresh interpreters importing memflow (with numpy and
    scipy) from the source tree."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import memflow"
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                       stdout=subprocess.DEVNULL, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times


def environment():
    import numpy as np
    import scipy

    cpu = next((line.split(":", 1)[1].strip() for line in
                _read("/proc/cpuinfo").splitlines() if line.startswith("model name")),
               platform.processor())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "blas": blas,
            "blas_threads": int(BLAS_THREADS), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "commit": git_commit()}


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def git_commit():
    head = _read(ROOT / ".git" / "HEAD").strip()
    if head.startswith("ref: "):
        ref = head[5:]
        return (_read(ROOT / ".git" / ref).strip()
                or next((line.split()[0] for line in
                         _read(ROOT / ".git" / "packed-refs").splitlines()
                         if line.endswith(" " + ref)), None))
    return head or None


def run_job(cli, command, cfg_path, out_dir):
    """Run one CLI job in-process: (exit code or None, error record or None)."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main([command, "--config", str(cfg_path),
                             "--out", str(out_dir)]), None
    except Exception as exc:  # a failing job must not abort the run
        frames = traceback.extract_tb(exc.__traceback__)
        return None, {
            "type": type(exc).__name__, "message": str(exc)[:300],
            "known_defect": isinstance(exc, OverflowError)
            and any(f.name == "remainder_bound" for f in frames),
            "where": [f"{Path(f.filename).name}:{f.lineno}:{f.name}"
                      for f in frames[-4:]],
        }


_STREAM = []  # source and target of the reference's memory pass, made once


def reference_seconds():
    """Best of three timings of a fixed numpy-and-Python computation that
    uses no memflow code: the machine's speed at this moment.

    The jobs mix interpreter-bound work (small-array numpy calls, Python
    loops) with passes over arrays larger than L2, and neighbours on a shared
    host slow the two by different amounts, so the reference does both: a
    loop of small numpy expressions, then copies and sums of a 4 MB array.
    """
    import numpy as np

    if not _STREAM:
        _STREAM.extend((np.random.default_rng(0).standard_normal(500_000),
                        np.empty(500_000)))
    src, dst = _STREAM
    x = np.linspace(0.0, 1.0, 432)
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(300):
            float(np.sum(np.exp(-0.5 * x) * np.cos(3.0 * x) * x**2))
            sum(i * 0.5 for i in range(300))
        for _ in range(8):
            np.copyto(dst, src)
            float(dst.sum())
        best = min(best, time.perf_counter() - t0)
    return best


def gmean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "memflow" / "__init__.py").is_file():
        print(f"benchmark: no memflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.CYCLES:
        print(f"benchmark: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    setup_times = cold_import_seconds(1 if args.smoke else SETUP_REPEATS)

    import memflow
    from memflow import cli

    if not Path(memflow.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"benchmark: memflow imported from {memflow.__file__}", file=sys.stderr)
        return 2
    import checks
    import tracer as tracing

    run_dir = HERE / "out" / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                              + ("-smoke" if args.smoke else ""))
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "configs").mkdir(parents=True)
    art_dir = run_dir / "artifacts"

    cycle_len = len(workloads.CYCLES[args.workload])
    tracer = tracing.Tracer() if args.trace else None
    km_cache = getattr(memflow.kernels, "_km_cache", None)
    km_before = len(km_cache) if km_cache is not None else 0
    if tracer:
        tracer.install()

    jobs = []
    rss_first_cycle = None
    ref_before = reference_seconds()
    t_start = time.perf_counter()
    while True:
        i = len(jobs)
        command, variant, cfg = workloads.make_job(args.workload, args.seed, i,
                                                   smoke=args.smoke)
        cfg_path = run_dir / "configs" / f"{i:03d}-{command}-{variant}.json"
        cfg_path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
        t0 = time.perf_counter()
        rc, error = run_job(cli, command, cfg_path, art_dir)
        wall = time.perf_counter() - t0
        ref_after = reference_seconds()
        jobs.append({"index": i, "command": command, "variant": variant,
                     "config": str(cfg_path.relative_to(run_dir)), "wall_s": wall,
                     "ref_s": 0.5 * (ref_before + ref_after),
                     "exit_code": rc, "error": error})
        ref_before = ref_after
        if len(jobs) % cycle_len == 0:
            if rss_first_cycle is None:
                rss_first_cycle = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            # whole cycles only; start another while it ends nearer the
            # deadline than stopping now would
            elapsed = time.perf_counter() - t_start
            if elapsed + 0.5 * elapsed / (len(jobs) // cycle_len) > args.seconds:
                break
    loop_s = time.perf_counter() - t_start
    if tracer:
        tracer.uninstall()
    # the machine's speed drifts over minutes: cold starts on both sides of
    # the loop keep setup_s from resting on one moment
    setup_times += cold_import_seconds(0 if args.smoke else SETUP_REPEATS)
    setup_s = statistics.median(setup_times)
    km_growth = (len(km_cache) - km_before) if km_cache is not None else None

    # -- correctness, untimed ------------------------------------------------
    for job in jobs:
        if job["error"] is not None:
            job["status"] = "known_defect" if job["error"]["known_defect"] else "error"
            continue
        if job["exit_code"] not in (0, 1):  # 1: artifacts written, a check failed
            job["status"] = "wrong"
            job["problems"] = [f"exit code {job['exit_code']}"]
            continue
        problems, quality = checks.check_job(art_dir, job["command"],
                                             run_dir / job["config"])
        if job["exit_code"] and not problems:
            problems = [f"exit code {job['exit_code']}"]
        job["quality"] = quality
        job["status"] = ("ok" if not problems else "known_defect"
                         if checks.known_defect(job["command"], quality) else "wrong")
        if problems:
            job["problems"] = problems
    defects = checks.known_defect_probes(args.workload, run_dir / "probes")
    for name, probe in defects.items():
        print(f"known defect {name}: "
              f"{'present' if probe['present'] else 'no longer shows'} "
              f"({probe['detail']})", file=sys.stderr)
    ref_a = workloads.reference_rate(args.seed)
    reference = checks.closed_form_check(
        ref_a, **(SMOKE_REFERENCE if args.smoke else REFERENCE))
    reference_ok = all(r["ok"] for r in reference.values())

    ok = [j for j in jobs if j["status"] == "ok"]
    failed = len(jobs) - len(ok)
    correct = reference_ok and all(j["status"] in ("ok", "known_defect") for j in jobs)

    for job in jobs:
        if job["status"] != "ok":
            print(f"job {job['index']} {job['command']} {job['variant']}: "
                  f"{job['status']} {job.get('error') or job.get('problems')}",
                  file=sys.stderr)
    if not reference_ok:
        print(f"closed-form reference check failed: {reference}", file=sys.stderr)

    # -- figures -------------------------------------------------------------
    if not ok:
        print("benchmark: no job passed; nothing to measure", file=sys.stderr)
        return 1
    # The machine's speed drifts by tens of percent over minutes, so the gated
    # throughput figure is each job's wall time in units of the reference
    # computation timed around it; the raw rate is on the summary line.
    end_to_end = {
        "setup_s": setup_s,
        "job_cost_ref": statistics.fmean(j["wall_s"] / j["ref_s"] for j in ok),
        "peak_rss_mb": rss_first_cycle / 1024.0,
    }
    summary = {"jobs_per_s": len(ok) / sum(j["wall_s"] for j in ok),
               "ref_s": statistics.median(j["ref_s"] for j in jobs),
               "fail_frac": failed / len(jobs)}
    for command, name in COMMAND_METRIC.items():
        walls = [j["wall_s"] for j in ok if j["command"] == command]
        if walls:
            summary[name] = statistics.median(walls)
    qualities = {}
    for j in ok:
        for k, v in j.get("quality", {}).items():
            qualities.setdefault(f"{j['command']}.{k}", []).append(v)
    bounded_null = [q["c_null"] for q in (j.get("quality", {}) for j in ok)
                    if q.get("null_unbounded") is False]
    for name, values in (("c_lower_gmean", qualities.get("obsconst.c_lower")),
                         ("c_upper_gmean", qualities.get("obsconst.c_upper")),
                         ("c_null_gmean", bounded_null),
                         ("recon_rel_err_gmean", qualities.get("reconstruct.rel_error")),
                         ("control_objective_gmean", qualities.get("control.objective"))):
        values = [v for v in values or () if 0 < v < math.inf]
        if values:
            summary[name] = gmean(values)

    per_layer = {}
    if tracer:
        per_layer = layer_metrics(tracer, tracing, jobs, qualities, loop_s,
                                  km_growth)

    units = {**{m["name"]: m["unit"] for m in spec["end_to_end"]}, **SUMMARY_UNITS}
    listed = spec["per_layer" if args.trace else "end_to_end"]
    values = per_layer if args.trace else end_to_end
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}

    results = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "environment": environment(),
        "loop_s": loop_s, "correct": correct, "attempted": len(jobs),
        "failed": failed, "end_to_end": end_to_end, "summary": summary,
        "per_layer": per_layer, "reference": {"a": ref_a, **reference},
        "known_defects": defects,
        "jobs": jobs, "spans": tracer.edges() if tracer else [],
    }
    (run_dir / "results.json").write_text(json.dumps(results, indent=1) + "\n")

    counts = {name: sum(j["command"] == c for j in ok)
              for c, name in COMMAND_METRIC.items()}
    print(f"jobs={len(jobs)} passed={len(ok)} loop={loop_s:.1f}s; " + ", ".join(
        f"{k}={v:.6g} {units[k]}" + (f" (median of {counts[k]})" if k in counts else "")
        for k, v in {**end_to_end, **summary}.items()))
    print(json.dumps({"correct": correct, "attempted": len(jobs), "failed": failed,
                      "metrics": metrics}))
    return 0


def layer_metrics(tracer, tracing, jobs, qualities, loop_s, km_growth):
    """Every per-layer figure the traced run can give, by metric name."""
    out = {}
    for key, rec in tracer.totals().items():
        for stat, v in rec.items():
            out[f"{key}.{stat}"] = v
    for module, v in tracer.module_self().items():
        out[f"{module}.self_s"] = v
    out.update(tracer.counts)
    km_calls = out.get("kernels.km_partial.calls", 0)
    out["kernels.km_partial.hit_ratio"] = (
        1.0 - (km_calls if km_growth is None else km_growth) / km_calls
        if km_calls else 0.0)
    irls = qualities.get("control.irls_iterations", [])
    out["inverse_control.irls_iterations"] = statistics.mean(irls) if irls else 0.0
    spreads = qualities.get("obsconst.spread_lower", [])
    out["observability.spread_lower_max"] = max(spreads) if spreads else 0.0
    out["observability.null_unbounded"] = sum(
        qualities.get("obsconst.null_unbounded", []))
    out["cli.jobs_failed"] = sum(j["status"] != "ok" for j in jobs)
    n_calls = sum(rec[0] for rec in tracer.stats.values())
    out["trace_overhead_frac"] = tracing.overhead_per_span() * n_calls / loop_s
    return _with_zeros(out)


class _with_zeros(dict):
    """Spans and counters of functions a workload never calls read as 0."""

    def __missing__(self, name):
        if name.rsplit(".", 1)[-1] in ("calls", "self_s", "total_s", "mode_steps",
                                       "points"):
            return 0
        raise KeyError(name)


if __name__ == "__main__":
    sys.exit(main())
