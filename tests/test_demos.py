"""Each narrative script in demos/ runs to completion and prints exactly the
bytes recorded here; several assert the guarantees they print (e.g.
decrement >= bound in lyapunov_descent.py).

The demos print rounded figures (spectral_certificates.py prints lambda2 to 5
decimals; star:8's 0.9999999999999991 prints as 1.00000, far from a rounding
edge), so a refactor that is meant to be output-preserving keeps every digest.
"""

import hashlib
from pathlib import Path

import pytest

from fresh_python import run_python

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# demo file name -> sha256 of its stdout
STDOUT_SHA256 = {
    "converge_to_average.py": "07978034d3ed0e31546becf227aa9c38256bc58b6bf54dfc6a0692e4511505f6",
    "lyapunov_descent.py": "ed76f37de4641add0886be6be2eb30d4f97173db55466f90f29a5e360053934e",
    "spectral_certificates.py": "cca1cf00a63f52eb4458c28319fa489d5442aeea2a5572843d716461a1fecb7b",
    "threshold_oscillation.py": "158828dee52d1692e9299c4eca1425c004d46b4d0ef6784e3d3976253e86d43f",
}


def test_every_demo_is_pinned():
    assert sorted(path.name for path in DEMOS) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_exits_cleanly(demo):
    """It exits 0 with the recorded stdout."""
    proc = run_python(str(demo), text=False)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name], proc.stdout.decode()
