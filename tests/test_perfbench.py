"""The benchmark's self-check runs against the package as it is.

`perfbench/traced.py` wraps package functions by name and the
self-check gates the CLI's outputs, so deleting a wrapped name or
changing a gated output fails here too.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selfcheck_passes():
    result = subprocess.run(
        [sys.executable, "perfbench/selfcheck.py"],
        cwd=ROOT, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr
