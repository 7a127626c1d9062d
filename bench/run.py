"""Benchmark of the translatable CLI: one closed-loop client, serial, in-process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  Every operation is ``translatable.cli.main(argv)``
with ``--out`` to a file under ``bench/_work/``, and its exit code and
output bytes are checked.  With ``--trace 0`` whole passes of the workload
repeat while the next one is expected to end within S seconds (at least
one pass) and the end-to-end metrics are printed; with ``--trace 1`` one traced pass runs and the
per-layer metrics are printed.  The last line of
stdout is the JSON result; the lines before it and the file
``bench/_work/result-<workload>-<seed>-<trace>.json`` hold the detail:
machine facts, every sample and per-command latencies.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
SETUP_REPEATS = 3


def load_package():
    """Import translatable from this checkout's src/, or exit with a message."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import translatable
        import translatable.cli
    except ImportError as exc:
        sys.exit(f"bench: cannot import translatable from {src}: {exc}")
    if Path(translatable.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"bench: translatable was imported from {translatable.__file__}, not {src}")
    return translatable


def machine_facts(seed: int) -> dict:
    model = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


def run_op(main, op, out: Path) -> tuple[float, bool, int]:
    """Time one CLI call; return (seconds, correct, failed operations)."""
    gc.collect()
    with contextlib.suppress(FileNotFoundError):
        out.unlink()
    argv = op.argv + ["--out", str(out)]
    with contextlib.redirect_stderr(io.StringIO()):
        started = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a traceback is a failed operation, not a crash of the benchmark
            code = None
        elapsed = time.perf_counter() - started
    data = out.read_bytes() if out.exists() else None
    ok = code == op.exit and data is not None and workloads.sha256(data) == op.sha256
    if ok:
        return elapsed, True, 0
    if op.campaigns:
        text = data.decode(errors="replace") if data is not None else None
        return elapsed, False, workloads.verify_failures(op, text)
    return elapsed, False, 1


class Tally:
    """Samples of one timed stretch: pass totals, per-command latencies, failures."""

    def __init__(self) -> None:
        self.passes: list[float] = []
        self.latency: dict[str, list[float]] = {}
        self.failed_latency: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0

    def run_pass(self, main, ops) -> float:
        total = 0.0
        for op in ops:
            elapsed, ok, failed = run_op(main, op, WORK / "out.txt")
            self.attempted += op.instances()
            self.failed += failed
            total += elapsed
            # a failed operation is never timed as a success
            samples = self.latency if ok else self.failed_latency
            samples.setdefault(op.kind, []).append(elapsed)
        self.passes.append(total)
        return total

    def wall(self) -> float:
        """Time to run each command once: the sum of every command's median latency.

        A command with no successful call falls back to its failed calls;
        the run is then reported incorrect anyway.
        """
        kinds = set(self.latency) | set(self.failed_latency)
        return sum(statistics.median(self.latency.get(k) or self.failed_latency[k]) for k in kinds)


def measure_setup(workload: str, seed: int, want_digest: str) -> list[float]:
    """Wall time of fresh processes that import and prepare the inputs, then exit."""
    samples = []
    for i in range(SETUP_REPEATS):
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--setup-only", str(i)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        samples.append(time.perf_counter() - started)
        shutil.rmtree(WORK / f"setup-{i}", ignore_errors=True)
        if done.returncode != 0:
            sys.exit(f"bench: set-up process failed:\n{done.stderr}")
        digest = json.loads(done.stdout.strip().splitlines()[-1])["inputs_sha256"]
        if digest != want_digest:
            sys.exit("bench: the same seed produced different inputs in a fresh process")
    return samples


def end_to_end(plan, main, seconds: float, setup: list[float]) -> tuple[dict, Tally]:
    """Whole passes while the next one is expected to end within `seconds`."""
    tally = Tally()
    started = time.perf_counter()
    while True:
        last = tally.run_pass(main, plan.ops)
        if tally.failed or time.perf_counter() - started + last > seconds:
            break
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (tally.wall(), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    return metrics, tally


def latency_name(kind: str) -> str:
    return kind.replace("-", "_") + "_s"


def traced_run(package, plan):
    """One traced pass; the per-layer metrics and any broken prediction."""
    tracer = tracing.Tracer()
    tracer.install(package)
    try:
        tally = Tally()
        tally.run_pass(package.cli.main, plan.ops)
    finally:
        tracer.uninstall()
    tracer.write(WORK / f"spans-{plan.workload}.jsonl")
    metrics = tracing.layer_metrics(tracer)
    metrics["trace.overhead_s"] = (tracing.overhead_estimate(tracer), "s")
    for kind in workloads.COMMANDS:
        values = tally.latency.get(kind)
        metrics[f"latency.{latency_name(kind)}"] = (statistics.median(values) if values else 0.0, "s")
    campaigns = [cid for op in plan.ops for cid in op.campaigns]
    return metrics, tally, tracing.coverage_problems(tracer, plan.workload, campaigns)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="I", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    package = load_package()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    WORK.mkdir(parents=True, exist_ok=True)
    expected = workloads.load_expected()
    inputs = WORK / (f"setup-{args.setup_only}" if args.setup_only is not None else "inputs")
    try:
        plan = workloads.plan(args.workload, args.seed, inputs, package, expected)
    except workloads.SanityError as exc:
        sys.exit(f"bench: input sanity check failed: {exc}")
    if args.setup_only is not None:
        print(json.dumps({"inputs_sha256": plan.inputs_sha256}))
        return 0

    facts = machine_facts(args.seed)
    setup = measure_setup(args.workload, args.seed, plan.inputs_sha256)
    detail = {"workload": args.workload, "trace": args.trace, "machine": facts}
    if args.trace:
        metrics, tally, problems = traced_run(package, plan)
    else:
        metrics, tally = end_to_end(plan, package.cli.main, args.seconds, setup)
        problems = []
    detail["setup_s"] = tracing.summarize(setup)
    detail["passes_s"] = tally.passes
    detail["latency"] = {latency_name(kind): tracing.summarize(v) for kind, v in tally.latency.items()}
    detail["problems"] = problems
    correct = tally.failed == 0 and not problems
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    detail["result"] = result
    out = WORK / f"result-{args.workload}-{args.seed}-{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"machine": facts}))
    for metric, summary in detail["latency"].items():
        print(json.dumps({"latency": metric, **summary}))
    for problem in problems:
        print(json.dumps({"problem": problem}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
