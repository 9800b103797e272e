#!/usr/bin/env python3
"""Benchmark of the falsecall CLI, end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload experiment-forest --seed 0 \\
        --seconds 25 --trace 0

Each pass calls ``falsecall.cli.main`` in this process, one pass after the
other (a closed loop with one caller).  Every pass is checked: the exit code,
value ranges in the written JSON, byte-identical outputs across the passes of
the run and, for the seeds in ``digests.json``, the sha256 of the outputs.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates plain
passes with passes whose layer functions are wrapped (see ``tracing.py``) and
prints per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a record of where and when the numbers were taken.  Inputs, outputs,
records and spans go under ``.perfbench/`` in the repository root.

``--record-digests`` rewrites ``digests.json`` from one pass per recorded
seed of every workload.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"
DIGEST_SEEDS = range(16)

#: Setup is repeated this many times per run and its median reported.
SETUP_REPEATS = 3
MIN_TIMED_PASSES = 3

sys.path.insert(0, str(HERE))
from workloads import OUT, WORKLOADS  # noqa: E402

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import falsecall.cli; "
                "print(time.perf_counter() - t)")


def import_falsecall():
    """Import the package from this checkout's ``src`` or exit with code 1."""
    sys.path.insert(0, str(SRC))
    try:
        import falsecall.cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import falsecall from {SRC}: {exc}")
    if SRC not in Path(falsecall.cli.__file__).resolve().parents:
        sys.exit(f"perfbench: falsecall was imported from {falsecall.cli.__file__}, "
                 f"not from {SRC}")
    return falsecall.cli


def import_seconds() -> float:
    """Time to import falsecall in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    return sum(usage.ru_utime + usage.ru_stime
               for usage in (resource.getrusage(resource.RUSAGE_SELF),
                             resource.getrusage(resource.RUSAGE_CHILDREN)))


def digest_outputs(out: Path) -> dict:
    """sha256 of every file under ``out``, keyed by its relative path."""
    return {str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*")) if path.is_file()}


def output_problems(workload, out: Path, facts: dict, expected, reference) -> tuple:
    """(digests, problems) of one pass's outputs.

    ``expected`` maps file names to recorded digests for this seed, or is
    None; ``reference`` holds the digests of the run's first pass, or None.
    """
    digests = digest_outputs(out)
    problems = []
    if reference is not None and digests != reference:
        problems.append("outputs differ from the first pass of this run")
    for name, sha in (expected or {}).items():
        if digests.get(name) != sha:
            problems.append(f"{name}: sha256 differs from the recorded digest")
    return digests, problems + workload.check(out, facts)


class Runner:
    """Runs and checks the passes of one workload in its directory."""

    def __init__(self, cli, workload, facts: dict, expected):
        self.cli = cli
        self.workload = workload
        self.facts = facts
        self.expected = expected
        self.reference = None
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, around=contextlib.nullcontext) -> tuple:
        """One CLI call inside ``around()``; returns (wall seconds, CPU seconds)."""
        shutil.rmtree(OUT, ignore_errors=True)
        sink = io.StringIO()
        cpu = cpu_seconds()
        start = perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), around():
            code = self.cli.main(list(self.workload.argv))
        wall = perf_counter() - start
        cpu = cpu_seconds() - cpu
        self.finish_pass(code, sink.getvalue())
        return wall, cpu

    def finish_pass(self, code, log: str) -> None:
        self.attempted += 1
        if code != 0:
            problems = [f"exit code {code}: {log.strip()[-300:]}"]
        else:
            digests, problems = output_problems(self.workload, Path(OUT), self.facts,
                                                self.expected, self.reference)
            if self.reference is None:
                self.reference = digests
        if problems:
            self.failures.append(f"pass {self.attempted}: " + "; ".join(problems))

    def peak_rss_mb(self) -> float:
        """Peak resident set of one pass run in a process of its own."""
        shutil.rmtree(OUT, ignore_errors=True)
        done = subprocess.run([sys.executable, str(HERE / "rss_probe.py"),
                               *self.workload.argv], capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        self.finish_pass(done.returncode, done.stderr)
        return int(lines[-1]) / 1024.0 if done.returncode == 0 and lines else 0.0


@contextlib.contextmanager
def workspace(name: str):
    """Work in a fresh directory under ``.perfbench/``, removed afterwards."""
    WORK.mkdir(exist_ok=True)
    directory = WORK / f"{name}-{os.getpid()}"
    directory.mkdir()
    home = os.getcwd()
    os.chdir(directory)
    try:
        yield directory
    finally:
        os.chdir(home)
        shutil.rmtree(directory, ignore_errors=True)


def setup(workload, seed: int, repeats: int) -> tuple:
    """Write the workload inputs ``repeats`` times; returns (facts, samples)."""
    samples = []
    for _ in range(repeats):
        imported = import_seconds()
        start = perf_counter()
        facts = workload.make_inputs(seed, Path("."))
        samples.append(imported + perf_counter() - start)
    return facts, samples


def measure(runner: Runner, seconds: float) -> dict:
    """One untimed warm-up pass, then untraced passes for ``seconds``."""
    runner.run_pass()
    walls, cpus = [], []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(walls) < MIN_TIMED_PASSES:
        wall, cpu = runner.run_pass()
        walls.append(wall)
        cpus.append(cpu)
    return {"wall_s": walls, "cpu_s": cpus}


def measure_traced(runner: Runner, seconds: float, spans_path: Path) -> tuple:
    """A warm-up pass, then plain and traced passes in turn; returns (metrics, samples)."""
    from tracing import PASS_SPAN, SpanRecorder, installed, layer_metrics

    runner.run_pass()
    recorder = SpanRecorder()
    plain, traced = [], []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(traced) < MIN_TIMED_PASSES:
        plain.append(runner.run_pass()[0])
        recorder.pass_id = runner.attempted + 1
        with installed(recorder):
            traced.append(runner.run_pass(lambda: recorder.span(PASS_SPAN))[0])
    metrics = layer_metrics(recorder)
    traced_wall = statistics.fmean(traced)
    plain_wall = statistics.fmean(plain)
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.untraced_wall_s"] = {"value": plain_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - plain_wall, "unit": "s"}
    with open(spans_path, "w", encoding="utf-8") as handle:
        for index, (name, start, end, parent, pass_id) in enumerate(recorder.spans):
            handle.write(json.dumps({"id": index, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "pass": pass_id}) + "\n")
    return metrics, {"plain_wall_s": plain, "traced_wall_s": traced}


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy

    return {"git_sha": git_sha(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "host": platform.node(), "machine": platform.machine()}


def run(args) -> dict:
    cli = import_falsecall()
    workload = WORKLOADS[args.workload]
    expected = (json.loads(DIGESTS.read_text(encoding="utf-8"))
                .get(workload.name, {}).get(str(args.seed)) if DIGESTS.exists() else None)
    started = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    with workspace(f"work-{workload.name}"):
        facts, setup_samples = setup(workload, args.seed,
                                     1 if args.trace else SETUP_REPEATS)
        runner = Runner(cli, workload, facts, expected)
        if args.trace:
            metrics, passes = measure_traced(runner, args.seconds,
                                             WORK / f"spans-{tag}.jsonl")
        else:
            # The probe also warms the file cache before the timed passes.
            peak_rss_mb = runner.peak_rss_mb()
            passes = {**measure(runner, args.seconds), "peak_rss_mb": [peak_rss_mb]}
            # Means over the whole run, not medians: this host's speed swings
            # in phases of 10-40 s, and the median of a run jumps to whichever
            # phase held most of its passes, while the mean moves in
            # proportion to the time spent in each.
            wall_s = statistics.fmean(passes["wall_s"])
            metrics = {
                "wall_s": {"value": wall_s, "unit": "s"},
                "work_per_s": {"value": facts["work"] / wall_s, "unit": "1/s"},
                "cpu_s": {"value": statistics.fmean(passes["cpu_s"]), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
                "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            }
            metrics["success_rate"] = {
                "value": 1.0 - len(runner.failures) / runner.attempted, "unit": "ratio"}

    samples = {"setup_s": setup_samples, **passes}
    record = {
        **environment(), "started_at": started, "workload": workload.name,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "work_unit": workload.work_unit, "work_per_pass": facts["work"],
        "digests_checked": expected is not None,
        "passes": {"attempted": runner.attempted, "failed": len(runner.failures)},
        "sample_counts": {key: len(values) for key, values in samples.items()},
        "samples": samples,
        "failures": runner.failures[:10],
    }
    (WORK / f"record-{tag}.json").write_text(json.dumps(record, indent=2) + "\n",
                                             encoding="utf-8")
    print(json.dumps({"record": record}))
    return {"correct": not runner.failures, "attempted": runner.attempted,
            "failed": len(runner.failures), "metrics": metrics}


def record_digests() -> None:
    """Rewrite digests.json from one pass per recorded seed of every workload."""
    cli = import_falsecall()
    table = {}
    for workload in WORKLOADS.values():
        for seed in DIGEST_SEEDS:
            with workspace(f"digest-{workload.name}"):
                runner = Runner(cli, workload, workload.make_inputs(seed, Path(".")), None)
                runner.run_pass()
                if runner.failures:
                    sys.exit(f"{workload.name} seed {seed}: {runner.failures[0]}")
                table.setdefault(workload.name, {})[str(seed)] = {
                    name: sha for name, sha in runner.reference.items()
                    if name.endswith(".json")}
            print(f"{workload.name} seed {seed}: recorded", file=sys.stderr)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
