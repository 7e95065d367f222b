"""Each narrative script under demos/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import biasaudit

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(script, tmp_path):
    # the child imports the same package as this test, installed or not; it does
    # not inherit this interpreter's -X dev, so it asks for it, and any warning fails
    src = os.path.dirname(os.path.dirname(biasaudit.__file__))
    result = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", str(script)], cwd=tmp_path,
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert result.returncode == 0, result.stderr
