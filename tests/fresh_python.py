"""Run Python in a fresh interpreter on this checkout's package, for the tests
that need a process of their own (start-up, stderr, imports, the demos).

The child makes errors of the warnings that pyproject.toml's pytest
``filterwarnings`` makes errors in-process, so a numpy warning in a child
fails its test as it would in-process.  Filters on pytest's own categories
are left out: a plain interpreter cannot import them.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def warning_filters() -> str:
    """pyproject.toml's filterwarnings as a PYTHONWARNINGS value."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^filterwarnings = \[(.*?)\]", text, re.M | re.S).group(1)
    return ",".join(f for f in re.findall(r'"([^"]*)"', block) if ":pytest." not in f)


def run_python(*args: str, text: bool = True, check: bool = False) -> subprocess.CompletedProcess:
    """python args in a fresh interpreter, its output captured; times out after 120 s."""
    env = dict(os.environ, PYTHONWARNINGS=warning_filters())
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=text, check=check, timeout=120)
