"""Benchmark of the odrelease CLI: one workload, one seed, one run.

Run from the root of a checkout:

    python3 odbench/run.py --workload release-m --seed 1 --seconds 20 --trace 0

The workload's inputs are generated from --seed before any timing.  With
--trace 0 the CLI runs as child processes in a closed loop (one invocation
at a time, each starting after the previous one exits) for about --seconds
seconds, and the end-to-end metrics are reported.  With --trace 1 one
untraced iteration runs as child processes and the same invocations then
run in this process with spans recorded around calls into each odrelease
module; the per-layer metrics are reported.  Every invocation's outputs are
checked, and a failed check counts as a failed invocation.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy
import tracer as tr
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".odbench_work"
# Cold starts on each side of the workload; their median is setup_s.
SETUP_STARTS = 10
CHILD_TIMEOUT_S = 170.0
COLD_START = "import odrelease.cli as cli; cli.build_parser()"


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    cpu_s: float
    code: int
    stderr: str


class Launcher:
    """Runs CLI children through launcher.py, a helper that stays small.

    Use it as a context manager: the helper is stopped and waited for on exit.
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def run(self, args, log: Path) -> Child:
        """One child `python <args>` to completion, with the checkout's src first on PYTHONPATH."""
        pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        request = {
            "argv": [sys.executable, *args],
            "log": str(log),
            "env": dict(os.environ, PYTHONPATH=pythonpath),
            "cwd": str(ROOT),
            "timeout": CHILD_TIMEOUT_S,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("odbench launcher exited")
        stderr = Path(f"{log}.err").read_text(encoding="utf8", errors="replace")
        return Child(**json.loads(reply), stderr=stderr)


def cold_starts(launcher: Launcher, log_dir: Path, n: int) -> list[float]:
    """Wall times of n CLI cold starts that do no work."""
    walls = []
    for i in range(n):
        child = launcher.run(["-c", COLD_START], log_dir / f"cold{i}")
        if child.code != 0:
            sys.exit(f"odbench: CLI cold start failed ({child.code}):\n{child.stderr}")
        walls.append(child.wall_s)
    return walls


def src_context() -> dict:
    files = sorted(p for p in SRC.rglob("*.py") if "__pycache__" not in p.parts)
    digest = hashlib.sha256()
    lines = 0
    for p in files:
        data = p.read_bytes()
        digest.update(str(p.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_sha256": digest.hexdigest(), "src_lines": lines}


class Ledger:
    """Attempted and failed invocations, and the output digests seen so far.

    Digests persist in the work directory keyed by source digest, workload
    and seed, so repeated runs of one source tree must write identical bytes.
    """

    def __init__(self, store: Path, key: str):
        self.attempted = 0
        self.failures: list[str] = []
        self.store = store
        self.key = key
        self.saved = json.loads(store.read_text(encoding="utf8")) if store.exists() else {}
        self.expected: dict[str, dict[str, str]] = dict(self.saved.get(key, {}))

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: " + "; ".join(problems))

    def compare(self, step: str, digests: dict[str, str]) -> list[str]:
        """Problems if a step's output bytes differ from the first seen."""
        expected = self.expected.setdefault(step, digests)
        changed = sorted(k for k in digests.keys() | expected.keys() if digests.get(k) != expected.get(k))
        return [f"output bytes differ from an earlier run: {changed}"] if changed else []

    def save(self) -> None:
        if self.key not in self.saved and self.expected and not self.failures:
            self.saved[self.key] = self.expected
            self.store.write_text(json.dumps(self.saved, indent=1, sort_keys=True) + "\n", encoding="utf8")


class Workload:
    """Inputs, invocations and output checks of one workload at one seed."""

    def __init__(self, name: str, seed: int, run_dir: Path):
        self.name = name
        self.inputs = workloads.prepare_inputs(name, seed, run_dir / "inputs")
        self.work_units = workloads.work_units(name)
        self._m_original = None

    def steps(self, out_root: Path):
        if out_root.exists():
            shutil.rmtree(out_root)
        return workloads.steps(self.name, self.inputs, out_root)

    def check(self, step) -> list[str]:
        import checks  # imports odrelease, so only once src is on sys.path

        if step.kind == "sweep":
            return checks.check_sweep(step.out, workloads.SWEEP_ROWS)
        if step.kind == "ingest":
            rows = workloads.TAXI_ROWS
            return checks.check_ingest(step.out, rows, workloads.taxi_retained(rows))
        if self.name == "release-m":
            if self._m_original is None:
                config = json.loads(Path(self.inputs["config"]).read_text(encoding="utf8"))
                self._m_original = checks.m_original(config)
            original = self._m_original
        else:
            try:
                original = checks.read_output_histogram(step.out.parent / "ingest", "histogram.csv")
            except Exception as exc:  # unreadable ingest output fails this step too
                return [f"cannot read release input: {exc}"]
        return checks.check_release(step.out, original)


def step_problems(wl: Workload, step, ledger: Ledger) -> list[str]:
    """Output checks of one finished step, then its digests against earlier runs."""
    import checks

    return wl.check(step) or ledger.compare(step.kind, checks.digest_dir(step.out))


def run_children(launcher: Launcher, wl: Workload, out_root: Path, ledger: Ledger) -> list[Child]:
    """One closed-loop iteration: each step as a child process, then checked."""
    children = []
    for i, step in enumerate(wl.steps(out_root)):
        child = launcher.run(["-m", "odrelease", *step.argv], out_root / f"step{i}")
        children.append(child)
        problems = [] if child.code == 0 else [f"exit code {child.code}"]
        if "Traceback" in child.stderr:
            problems.append("traceback on stderr")
        ledger.record(f"{wl.name} {step.kind}", problems or step_problems(wl, step, ledger))
    return children


def measure(launcher: Launcher, wl: Workload, seconds: float, run_dir: Path, ledger: Ledger) -> dict[str, float]:
    """End-to-end metrics over closed-loop iterations filling about `seconds`.

    Another iteration starts while the time measured so far plus half the
    median iteration fits, so the count is `seconds` over the iteration time,
    rounded; at least one iteration always runs.
    """
    walls, rss, work = [], [], 0
    while not walls or sum(walls) + statistics.median(walls) / 2 <= seconds:
        children = run_children(launcher, wl, run_dir / "out", ledger)
        walls.append(sum(c.wall_s for c in children))
        rss.append(max(c.rss_mb for c in children))
        work += wl.work_units
    return {
        "wall_s": statistics.median(walls),
        "work_per_s": work / sum(walls),
        "peak_rss_mb": statistics.median(rss),
    }


def run_traced(t, argv) -> list[str]:
    """One in-process invocation under the tracer; problems if it did not exit 0."""
    try:
        code = tr.run_main(t, argv)
    except (Exception, SystemExit) as exc:  # a crash inside the program fails the invocation
        return [f"{type(exc).__name__}: {exc}"]
    return [] if code == 0 else [f"exit code {code}"]


def traced(launcher: Launcher, wl: Workload, run_dir: Path, ledger: Ledger, setup_s: float, src_lines: int) -> dict[str, float]:
    """Per-layer metrics: one untraced iteration, then the same invocations traced in-process."""
    children = run_children(launcher, wl, run_dir / "untraced", ledger)
    untraced_s = sum(c.wall_s for c in children) - len(children) * setup_s

    t = tr.Tracer()
    steps = wl.steps(run_dir / "traced")
    with tr.installed(t) as points:
        print("traced: " + " ".join(points))
        outcomes = [run_traced(t, step.argv) for step in steps]
    for step, problems in zip(steps, outcomes):
        ledger.record(f"{wl.name} {step.kind} (traced)", problems or step_problems(wl, step, ledger))

    metrics = tr.layer_metrics(t)
    metrics["cli.cpu_s"] = sum(c.cpu_s for c in children)
    metrics["trace.overhead_frac"] = metrics["cli.main.s"] / untraced_s - 1.0
    metrics["src.lines"] = src_lines
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (SRC / "odrelease" / "cli.py").is_file():
        print(f"odbench: no odrelease sources under {SRC}", file=sys.stderr)
        return 2
    with Launcher() as launcher:
        return run(launcher, args, spec)


def run(launcher: Launcher, args, spec: dict) -> int:
    sys.path.insert(0, str(SRC))
    import odrelease

    if Path(odrelease.__file__).resolve().parent != (SRC / "odrelease").resolve():
        print(f"odbench: odrelease imported from {odrelease.__file__}, not {SRC}", file=sys.stderr)
        return 2

    context = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **src_context(),
    }
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    ledger = Ledger(WORK / "digests.json", f"{context['src_sha256']}/{args.workload}/{args.seed}")
    try:
        wl = Workload(args.workload, args.seed, run_dir)
        cold_starts(launcher, run_dir, 1)  # warm-up: bytecode and page cache
        walls = cold_starts(launcher, run_dir, SETUP_STARTS)
        if args.trace:
            values = traced(launcher, wl, run_dir, ledger, statistics.median(walls), context["src_lines"])
            declared = spec["per_layer"]
        else:
            values = measure(launcher, wl, args.seconds, run_dir, ledger)
            values["setup_s"] = statistics.median(walls + cold_starts(launcher, run_dir, SETUP_STARTS))
            declared = spec["end_to_end"]
        ledger.save()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if set(values) != {m["name"] for m in declared}:
        sys.exit(f"odbench: metrics {sorted(values)} do not match BENCHMARK.json")
    failed = len(ledger.failures)
    print("context: " + json.dumps(context, sort_keys=True))
    for message in ledger.failures:
        print(f"FAILED {message}")
    for m in declared:
        print(f"{m['name']:40s} {values[m['name']]:>16.6f} {m['unit']}")
    print(f"{'failed_frac':40s} {failed / ledger.attempted:>16.6f} ({failed} of {ledger.attempted} invocations)")
    result = {
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
