#!/usr/bin/env python3
"""Layered benchmark of pairfit: four workloads timed end to end, and traced.

Run from the repository root:

    python3 perfbench/run.py --workload grid-sim --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py``): grid-sim, histnet-fit, two-point-mc and
distance-table.  Each repetition runs the workload's ``pairfit.cli.main``
commands single-threaded in a fresh child process, and the outputs of every
repetition are checked.

``--trace 0`` reports medians of ``setup_s``, ``wall_s`` and ``peak_rss_mib``.
Rounds of repetitions start while the next one should end within
``--seconds`` (there is always at least the workload's ``MIN_ROUNDS``); the
set-up step (model build plus engine compile,
timed in this process) is repeated before and after them.
``--trace 1`` runs one untraced and one traced repetition and reports the
per-layer metrics from the spans of the traced one.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; each checked output is
one attempted operation.  At the default seed every artifact must also match
the SHA-256 digests in ``digests.json``.
"""

from __future__ import annotations

import os

# One thread per process: numpy's BLAS pools read these when first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
# Every run must end within 180 s; children get what is left of this.
RUN_BUDGET_S = 170.0
# Before and after the repetitions, set-up is repeated at least this often
# and for at least this long.  A slow set-up (histnet-fit's engine build,
# about 3 s) runs once on each side, so that a run stays near half a minute.
SETUP_MIN_REPS = 1
SETUP_MIN_S = 0.5
SETUP_MAX_REPS = 5000
# Repetitions run side by side, one per CPU, on at most two CPUs.  On a
# shared two-CPU host the speed of each CPU drifts largely independently of
# the other, so side-by-side samples narrow the run-to-run spread of medians.
CPUS = sorted(os.sched_getaffinity(0))[:2]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _digests(out: Path) -> dict[str, str]:
    return {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


class Runner:
    """Runs and checks repetitions of one workload inside a scratch directory."""

    def __init__(self, workload, tmp: Path, deadline: float, expected_digests: dict | None):
        self.workload = workload
        self.tmp = tmp
        self.deadline = deadline
        self.items: list[tuple[str, bool]] = []
        self.expected_digests = expected_digests
        for label, cfg in workload.configs.items():
            (tmp / f"{label}.json").write_text(json.dumps(cfg, indent=2))
        self._count = 0

    def round(self, traced: list[bool]) -> list[dict | None]:
        """Run one repetition per entry at once, each in a child pinned to its own CPU.

        ``traced`` has at most one entry per CPU; ``traced[i]`` asks child i to
        record spans.  Every child's outputs are checked; a child that fails or
        overruns the deadline yields None.
        """
        children = []
        for cpu, trace in zip(CPUS, traced):
            self._count += 1
            out = self.tmp / f"rep{self._count}"
            spans = self.tmp / f"spans{self._count}.json" if trace else None
            job = self.tmp / f"job{self._count}.json"
            job.write_text(
                json.dumps(
                    {
                        "src": str(SRC),
                        "cpu": cpu,
                        "commands": self.workload.commands(self.tmp, out),
                        "spans": str(spans) if spans else None,
                    }
                )
            )
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(job)],
                stdout=subprocess.PIPE,
                text=True,
                cwd=self.tmp,
                env=dict(os.environ, PYTHONHASHSEED="0"),
            )
            children.append((out, spans, proc))
        return [self._finish(out, spans, proc) for out, spans, proc in children]

    def _finish(self, out: Path, spans: Path | None, proc: subprocess.Popen) -> dict | None:
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            self.items.append(("repetition timed out", False))
            return None
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.items.append((f"child exited {proc.returncode}", False))
            return None
        result = json.loads(lines[-1])
        result["out"], result["spans"] = out, spans
        self.items += self.workload.check(out, result["exits"])
        if self.expected_digests is not None:
            got = _digests(out)
            for name in sorted(set(got) | set(self.expected_digests)):
                ok = got.get(name) == self.expected_digests.get(name)
                self.items.append((f"digest of {name}", ok))
        return result


def time_setup(workload) -> list[float]:
    times: list[float] = []
    start = time.perf_counter()
    while len(times) < SETUP_MIN_REPS or (
        time.perf_counter() - start < SETUP_MIN_S and len(times) < SETUP_MAX_REPS
    ):
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
    return times


def measure(runner: Runner, seconds: float) -> tuple[dict, dict]:
    setup = time_setup(runner.workload)
    walls, peaks = [], []
    start = time.monotonic()
    last = 0.0
    rounds = 0
    # Start another round only if it should end within the measuring time.
    while rounds < runner.workload.MIN_ROUNDS or time.monotonic() - start + last <= seconds:
        rounds += 1
        began = time.monotonic()
        results = runner.round([False] * len(CPUS))
        last = time.monotonic() - began
        walls += [r["wall_s"] for r in results if r]
        peaks += [r["peak_rss_mib"] for r in results if r]
        if None in results:
            break
    setup += time_setup(runner.workload)
    samples = {"setup_s": setup, "wall_s": walls, "peak_rss_mib": peaks}
    values = {k: statistics.median(v) for k, v in samples.items() if v}
    return values, {k: len(v) for k, v in samples.items()}


def trace(runner: Runner) -> dict:
    import tracing

    # The untraced and the traced repetition run side by side when there
    # are two CPUs, so the overhead is measured under the same conditions.
    flags = [False, True]
    results = []
    for i in range(0, 2, len(CPUS)):
        results += runner.round(flags[i : i + len(CPUS)])
    plain, traced = results
    if plain is None or traced is None:
        return {}
    values = tracing.summarize(json.loads(traced["spans"].read_text()))
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return values


def main(argv=None) -> int:
    started = time.monotonic()
    args = parse_args(argv)
    if not (SRC / "pairfit" / "cli.py").is_file():
        print(f"error: no pairfit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    workload = workloads.WORKLOADS[args.workload](seed)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        runner = Runner(
            workload,
            Path(tmp),
            started + RUN_BUDGET_S,
            json.loads(DIGESTS.read_text())[workload.name] if seed == workloads.DEFAULT_SEED else None,
        )
        if args.trace:
            values, counts = trace(runner), {}
            wanted = spec["per_layer"]
        else:
            values, counts = measure(runner, args.seconds)
            wanted = spec["end_to_end"]
    for label, ok in runner.items:
        if not ok:
            print(f"check failed: {args.workload}: {label}", file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no measurement for {missing}", file=sys.stderr)
        return 1
    for m in wanted:
        n = f" (median of {counts[m['name']]})" if m["name"] in counts else ""
        print(f"{args.workload} {m['name']} = {values[m['name']]:.6g} {m['unit']}{n}")
    failed = sum(not ok for _, ok in runner.items)
    result = {
        "correct": failed == 0,
        "attempted": len(runner.items),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
