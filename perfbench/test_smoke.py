"""Smoke tests of the benchmark itself: ``python -m pytest perfbench``.

They run every workload in ``--smoke`` mode (a few steps each), with and
without tracing, and check the result line against BENCHMARK.json.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import spans

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = HERE.parent, script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_result_line(workload: str, trace: str) -> None:
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    meta = json.loads(lines[0])["meta"]
    assert meta["workload"] == workload and meta["seed"] == 3 and meta["nproc"] >= 1
    result = json.loads(lines[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_spec_matches_the_code() -> None:
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(spans.UNITS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def test_refuses_to_run_without_sources(tmp_path: Path) -> None:
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "certify", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_simulate_check_catches_a_wrong_summary() -> None:
    call = run.Simulate("cycle:4", 4, "inf", 7, seed=0)
    good = {key: 0 for key in run.SUMMARY_KEYS} | {"n": 4, "steps_run": 7}
    assert call.check(json.dumps(good).encode())[0] == []
    assert call.check(json.dumps(good | {"steps_run": 6}).encode())[0]
    assert call.check(json.dumps(good | {"conservation_error": 1e-6}).encode())[0]
    assert call.check(json.dumps(dict(reversed(good.items()))).encode())[0]
    assert call.check(b"not json")[0]


class _Trajectory:
    def __init__(self, rows: list[list[float]]) -> None:
        self.rows = np.array(rows, dtype=np.float64)
        self.graph = self.threshold = None

    def values_matrix(self) -> np.ndarray:
        return self.rows


def test_repeat_steps_counts_period_one_and_two() -> None:
    # steps 1 and 2 are new, 3 and 4 repeat the state two back, 5 the one before
    traj = _Trajectory([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0], [0.5, 0.5], [1.0, 0.0], [1.0, 0.0]])
    assert spans.repeat_steps(traj) == (3, 5)
    # -0.0 and 0.0 compare equal as floats but differ bit for bit
    assert spans.repeat_steps(_Trajectory([[0.0], [-0.0]])) == (0, 1)


def test_tracer_restores_the_package() -> None:
    sys.path.insert(0, str(run.SRC))
    import garbagegame.analysis as analysis
    import garbagegame.dynamics as dynamics
    from garbagegame import Graph, GarbageState

    original = dynamics.step
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert dynamics.step is not original and analysis.step is dynamics.step
        g = Graph(3, frozenset({(1, 2), (2, 3)}))
        analysis.decrement_lower_bound(g, GarbageState([0.0, 1.0, 5.0]), 2.0)
    finally:
        tracer.uninstall()
    assert dynamics.step is original and analysis.step is original
    names = [span[0] for span in tracer.spans]
    assert names == ["analysis.decrement_lower_bound", "dynamics.effective_edges", "dynamics.step"]
    own = tracer.self_times()
    total = tracer.totals()
    assert own["analysis.decrement_lower_bound"][0] <= total["analysis.decrement_lower_bound"]
    assert all(span[3] == 0 for span in tracer.spans[1:])
