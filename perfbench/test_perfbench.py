"""Self-test of the benchmark: ``python3 -m pytest perfbench -q``.

Smoke runs at tiny sizes print every metric ``BENCHMARK.json`` names, with
its unit; the closed-form propagator check passes; a directory holding only
the benchmark's own files makes the runner fail without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace, smoke=True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd + (["--smoke"] if smoke else []), cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    out = _run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stderr
    assert result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    run_dir = HERE / "out" / f"{workload}-seed3-trace{trace}-smoke"
    results = json.loads((run_dir / "results.json").read_text())
    assert all(r["ok"] for k, r in results["reference"].items() if k != "a")
    assert len(list((run_dir / "configs").glob("*.json"))) == result["attempted"]


def test_closed_form_reference_matches_all_routes():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import checks

    result = checks.closed_form_check(0.8, J=3, n_steps=40)
    assert all(r["ok"] for r in result.values()), result
    assert result["kernel_rep"]["max_abs_diff"] <= checks.EXACT_TOL


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _run(tmp_path, SPEC["workloads"][0]["name"], 0, smoke=False)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
