"""The benchmark's own self-check passes against this checkout.

Runs ``bench/selfcheck.py`` (the smallest instance of each workload,
untraced and traced), so a change to ``src/`` that breaks the
benchmark's independent reference checks fails the test suite.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selfcheck_passes():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "bench/selfcheck.py"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
