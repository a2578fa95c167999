"""Each narrative script in demos/ runs to completion; several assert the
guarantees they print (e.g. decrement >= bound in lyapunov_descent.py)."""

from pathlib import Path

import pytest

from fresh_python import run_python

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_exits_cleanly(demo):
    proc = run_python(str(demo))
    assert proc.returncode == 0, proc.stderr
