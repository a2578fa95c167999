"""End-to-end benchmark of the garbagegame CLI, plus a traced per-layer replay.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload er_threshold --seed 0 --seconds 30 --trace 0

With ``--trace 0`` every invocation of the workload runs as its own
``python -m garbagegame`` child process, one at a time, with ``src/`` on its
path.  The benchmark first times the zero-work form of the workload several
times (``setup_s``), then repeats the full workload until ``--seconds`` have
passed and reports the median wall time (``wall_s``) and the median of each
repetition's largest child peak RSS (``peak_rss_mb``), read from ``os.wait4``.
Both times are rescaled to a nominal machine speed by a reference loop timed
between repetitions (see ``measure``); the raw times are printed too.

With ``--trace 1`` it runs the workload once as child processes, then three
times in this process: untraced, traced (see ``spans.py``) and untraced
again.  It checks that the traced replay prints the same bytes as the child
processes and reports the per-layer metrics; ``trace.overhead_s`` is the
traced wall time minus the mean of the two untraced ones.

Every invocation's output is checked (see ``Simulate.check`` and
``Verify.check``); at ``--seed 0`` its digests must also equal those in
``golden.json``, taken at the commit that introduced this benchmark.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
run's metadata and each metric by name.  ``--smoke`` shrinks every workload
to a few steps for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOADS = ("er_threshold", "locked_record", "certify")
SETUP_REPS = 5  # timed zero-work invocations per run, after one untimed warm-up
MIN_REPS = 3  # full invocations per run, however short --seconds is
REF_PASSES = 4000  # passes of the reference loop over 1000 floats
REF_SECONDS = 0.2  # nominal reference-loop time that reported times are scaled to
HI = 100  # initial amounts are drawn from uniform:0:HI

SUMMARY_KEYS = (
    "n",
    "epsilon",
    "steps_run",
    "converged",
    "limit_estimate",
    "initial_average",
    "max_abs_dev_from_average",
    "conservation_error",
    "trivialization_time",
    "is_star",
    "is_connected",
)
VERIFY_KEYS = ("suite", "trials", "seed", "sizes", "violations", "passed")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_json(text: bytes) -> tuple[dict | None, list[str]]:
    """Parse one JSON line (key order is kept); report a parse failure as a problem."""
    try:
        return json.loads(text), []
    except ValueError as exc:
        return None, [f"output is not JSON: {exc}"]


@dataclass(frozen=True)
class Simulate:
    """One ``garbagegame simulate`` call with a seeded uniform initial state."""

    graph: str
    n: int
    epsilon: str
    max_steps: int
    seed: int
    out: Path | None = None

    def argv(self, zero_work: bool = False) -> list[str]:
        steps = 0 if zero_work else self.max_steps
        argv = ["simulate", "--generate", self.graph, "--init-random", f"uniform:0:{HI}"]
        argv += ["--epsilon", self.epsilon, "--max-steps", str(steps), "--seed", str(self.seed)]
        if self.out is not None:
            argv += ["--out", str(self.out), "--validate"]
        return ["-m", "garbagegame", *argv]

    def check(self, stdout: bytes, zero_work: bool = False) -> tuple[list[str], dict]:
        """Problems with one invocation's output, and its digests."""
        steps = 0 if zero_work else self.max_steps
        summary, problems = load_json(stdout)
        digests = {"summary": sha256(stdout)}
        if summary is not None:
            if tuple(summary) != SUMMARY_KEYS:
                problems.append(f"summary keys {list(summary)} differ from the contract")
            elif summary["n"] != self.n or summary["steps_run"] != steps:
                problems.append(f"expected n={self.n}, steps_run={steps}; got {summary['n']}, {summary['steps_run']}")
            elif not summary["conservation_error"] <= 1e-12 * self.n * HI:
                problems.append(f"conservation_error {summary['conservation_error']} over budget")
        if self.out is not None:
            csv = self.out.read_bytes() if self.out.is_file() else b""
            digests["csv"] = sha256(csv)
            rows = csv.count(b"\n") - 1  # minus the header
            if rows != steps + 1:
                problems.append(f"CSV has {rows} rows, expected {steps + 1}")
        return problems, digests


@dataclass(frozen=True)
class Verify:
    """One ``garbagegame verify`` call; its zero-work form only imports the CLI."""

    suite: str
    trials: int
    sizes: str
    seed: int

    def argv(self, zero_work: bool = False) -> list[str]:
        if zero_work:
            return ["-c", "import garbagegame.cli"]
        argv = ["verify", "--suite", self.suite, "--trials", str(self.trials)]
        argv += ["--sizes", self.sizes, "--seed", str(self.seed)]
        return ["-m", "garbagegame", *argv]

    def check(self, stdout: bytes, zero_work: bool = False) -> tuple[list[str], dict]:
        if zero_work:
            return ([f"import printed {stdout[:80]!r}"] if stdout else []), {}
        report, problems = load_json(stdout)
        if report is not None:
            if tuple(report) != VERIFY_KEYS:
                problems.append(f"verify keys {list(report)} differ from the contract")
            elif report["passed"] is not True or report["trials"] != self.trials:
                problems.append(f"verify {self.suite} did not pass {self.trials} trials: {report['violations'][:3]}")
        return problems, {"summary": sha256(stdout)}


def workload_calls(name: str, seed: int, smoke: bool) -> list[Simulate | Verify]:
    """The CLI invocations that make up one repetition of a workload."""
    if name == "er_threshold":
        if smoke:
            return [Simulate("erdos_renyi:60:0.1", 60, "60", 5, seed)]
        return [Simulate("erdos_renyi:1000:0.01", 1000, "60", 300, seed)]
    if name == "locked_record":
        n, steps = (12, 40) if smoke else (64, 10000)
        return [Simulate(f"cycle:{n}", n, "10", steps, seed, out=WORK / "locked_record.csv")]
    if name == "certify":
        if smoke:
            return [Verify("cheeger", 2, "8:8", seed), Verify("lyapunov", 2, "12:12", seed)]
        return [Verify("cheeger", 20, "16:16", seed), Verify("lyapunov", 60, "80:80", seed)]
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# child processes


def spawn(argv: list[str]) -> tuple[float, float, int, bytes, bytes]:
    """Run one child to completion: (wall s, peak RSS MB, exit code, stdout, stderr)."""
    out_path, err_path = WORK / "stdout", WORK / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux; this child's own peak, not the running maximum
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, out_path.read_bytes(), err_path.read_bytes()


class Tally:
    """Counts invocations and reports each failed one on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {label}: {'; '.join(problems)}", file=sys.stderr)


def run_calls(calls, tally: Tally, golden: list[dict] | None, zero_work: bool = False):
    """One repetition as child processes: (summed wall, largest peak RSS, stdouts, digests)."""
    wall = rss = 0.0
    stdouts, digests = [], []
    for index, call in enumerate(calls):
        argv = call.argv(zero_work)
        seconds, peak, code, stdout, stderr = spawn(argv)
        problems, digest = call.check(stdout, zero_work)
        if code != 0:
            problems.insert(0, f"exit {code}: {stderr.decode(errors='replace').strip()[-300:]}")
        if golden is not None and not zero_work and digest != golden[index]:
            problems.append(f"digests {digest} differ from golden {golden[index]}")
        tally.record(" ".join(argv), problems)
        wall += seconds
        rss = max(rss, peak)
        stdouts.append(stdout)
        digests.append(digest)
    return wall, rss, stdouts, digests


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop: the machine's speed right now."""
    values = [i * 0.5 for i in range(1000)]
    total = 0.0
    start = perf_counter()
    for _ in range(REF_PASSES):
        for v in values:
            total += abs(v - 3.0) * 0.5
    return perf_counter() - start


def measure(calls, seconds: float, tally: Tally, golden, smoke: bool) -> tuple[dict, dict, list[dict]]:
    """End-to-end metrics: set-up repetitions, then full ones until time is up.

    The reference loop runs before the first repetition of each phase and
    after every repetition.  Each repetition's wall time is multiplied by
    REF_SECONDS over the mean of the two reference times around it, so that
    the shared machine's drift in speed cancels, and the metric is the median
    of these; the raw times are kept in the samples.
    """
    setup_reps, min_reps = (1, 1) if smoke else (SETUP_REPS, MIN_REPS)
    if hasattr(os, "sched_setaffinity"):
        # this process, and the children that inherit it, on one CPU: the
        # reference loop then times the same core the children run on
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not smoke:
        run_calls(calls, tally, None, zero_work=True)  # warm-up: bytecode, page cache

    def phase(zero_work: bool, reps: int, seconds: float = 0.0) -> tuple[list, list[float]]:
        results, refs = [], [reference_loop()]
        start = perf_counter()
        while len(results) < reps or perf_counter() - start < seconds:
            results.append(run_calls(calls, tally, None if zero_work else golden, zero_work))
            refs.append(reference_loop())
        return results, refs

    def rescaled(results: list, refs: list[float]) -> float:
        pairs = zip(results, refs, refs[1:])
        return statistics.median(r[0] * 2 * REF_SECONDS / (before + after) for r, before, after in pairs)

    setup, setup_refs = phase(True, setup_reps)
    full, full_refs = phase(False, min_reps, seconds)
    metrics = {
        "wall_s": {"value": rescaled(full, full_refs), "unit": "s"},
        "setup_s": {"value": rescaled(setup, setup_refs), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r[1] for r in full), "unit": "MB"},
    }
    samples = {
        "raw_wall_s": [r[0] for r in full],
        "raw_setup_s": [r[0] for r in setup],
        "reference_s": setup_refs + full_refs,
    }
    return metrics, samples, full[-1][3]


# ---------------------------------------------------------------------------
# traced replay


def in_process(cli, calls) -> tuple[float, list[bytes]]:
    """Run the calls through ``cli.main`` in this process: (wall s, stdouts)."""
    stdouts = []
    start = perf_counter()
    for call in calls:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(call.argv()[2:])  # drop "-m garbagegame"
        stdouts.append(buffer.getvalue().encode() if code == 0 else b"exit %d" % code)
    return perf_counter() - start, stdouts


def trace(name: str, calls, tally: Tally, golden) -> tuple[dict, dict, list[dict]]:
    """Per-layer metrics from one traced in-process replay of the workload."""
    _, _, reference, digests = run_calls(calls, tally, golden)
    sys.path.insert(0, str(SRC))
    import garbagegame.cli as cli
    import spans

    before_s, _ = in_process(cli, calls)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_s, stdouts = in_process(cli, calls)
    finally:
        tracer.uninstall()
    after_s, _ = in_process(cli, calls)  # untraced on both sides, so drift cancels
    for call, got, want, digest in zip(calls, stdouts, reference, digests):
        problems = [] if got == want else [f"traced replay printed {got[:200]!r}, child printed {want[:200]!r}"]
        if "csv" in digest and sha256(call.out.read_bytes()) != digest["csv"]:
            problems.append("traced replay wrote a different CSV")
        tally.record("traced " + " ".join(call.argv()), problems)
    tracer.dump(WORK / f"trace-{name}.json")
    values = spans.layer_metrics(tracer, traced_s - (before_s + after_s) / 2)
    metrics = {key: {"value": value, "unit": spans.UNITS[key]} for key, value in values.items()}
    return metrics, {"untraced_s": [before_s, after_s], "traced_s": [traced_s]}, digests


# ---------------------------------------------------------------------------
# metadata and entry point


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources, which identifies the code measured outside git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "garbagegame").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def metadata(args: argparse.Namespace, tally: Tally, digests: list[dict], samples: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "runs": tally.attempted,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "digests": digests,
        "samples": samples,
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="how long to repeat the workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a few steps per workload, for tests")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # on SIGTERM, unwind through spawn(), which kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "garbagegame" / "cli.py").is_file():
        print(f"error: no garbagegame sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    calls = workload_calls(args.workload, args.seed, args.smoke)
    golden = None
    if args.seed == 0 and not args.smoke:
        golden = json.loads((HERE / "golden.json").read_text())[args.workload]
    tally = Tally()
    if args.trace:
        metrics, samples, digests = trace(args.workload, calls, tally, golden)
    else:
        metrics, samples, digests = measure(calls, args.seconds, tally, golden, args.smoke)
    print(json.dumps({"meta": metadata(args, tally, digests, samples)}))
    for key, metric in metrics.items():
        print(f"{key:32s} {metric['value']:.6g} {metric['unit']}")
    for key, values in samples.items():
        if key.startswith("raw_"):
            print(f"{key:32s} {statistics.median(values):.6g} s (median of {len(values)}, not rescaled)")
    print(f"{'failed_frac':32s} {tally.failed / tally.attempted:.6g} ({tally.failed}/{tally.attempted})")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
