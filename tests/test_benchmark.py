"""The benchmark's own self-check, run with the rest of the test suite.

``perfbench/run.py --self-check`` runs every workload at a tiny size and
checks its oracles and the tracer's layer accounting, including that each
round makes the same number of ``is_canonical`` calls; a change that moves
canonicity work out of ``is_canonical`` or breaks a workload fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_self_check_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--self-check"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.splitlines()[-1] == "self-check: 0 failure(s)"
