"""Every narrative script in ``demos/`` runs to completion and prints only
finite numbers."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          timeout=300, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert not re.search(r"\b(nan|inf)\b", proc.stdout, re.IGNORECASE), proc.stdout
    if demo.stem == "04_observability_constants":
        numbers = [float(x) for x in re.findall(r"\d+\.\d+(?:e[-+]\d+)?", proc.stdout)]
        assert len(numbers) >= 12 and all(math.isfinite(x) for x in numbers)
