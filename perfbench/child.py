"""Run one repetition of a workload's pairfit commands in this fresh process.

Usage: python3 child.py JOB_JSON

JOB_JSON names the pairfit source directory, the CPU to run on, the argument
lists passed to ``pairfit.cli.main`` one after another and, for a traced
repetition, the file the spans are written to.  The last stdout line is a JSON object with the
wall time of the commands, this process's peak resident memory and each
command's exit code.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    os.sched_setaffinity(0, {job["cpu"]})
    sys.path.insert(0, job["src"])
    from pairfit import cli

    tracer = None
    if job["spans"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    exits = []
    start = time.perf_counter()
    for argv in job["commands"]:
        try:
            exits.append(cli.main(argv))
        except Exception:  # an uncaught error is the CLI's exit 1; keep going
            traceback.print_exc()
            exits.append(1)
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.dump(job["spans"])
    print(json.dumps({"wall_s": wall, "peak_rss_mib": peak_rss_mib(), "exits": exits}))
    return 0


def peak_rss_mib() -> float:
    """This process's peak resident set since exec.

    ``getrusage`` would also count the parent's resident set at fork time,
    which Linux carries over into the child's maximum.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
