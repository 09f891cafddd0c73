#!/usr/bin/env python3
"""adesurf benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload {enum,graded,classcalc,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its ``src``
directory.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("enum", "graded", "classcalc", "cli")
SETUP_SAMPLES = 5
DEADLINE_S = 170  # the whole run, set-up included

sys.path.insert(0, HERE)
from cliwork import child_env  # noqa: E402
from tracing import METRICS  # noqa: E402

UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


class Worker:
    """A worker process; set-up time runs from its start to its READY line."""

    def __init__(self, argv, env, deadline):
        self.deadline = deadline
        start = time.perf_counter()
        # its own process group, so that a failure stops the cli children too
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                                     start_new_session=True)
        if self.readline() != "READY":
            self.fail("worker ended before set-up finished")
        self.setup_s = time.perf_counter() - start

    def readline(self):
        left = self.deadline - time.monotonic()
        ready, _, _ = select.select([self.proc.stdout], [], [], max(left, 0))
        if not ready:
            self.fail("worker ran past the deadline")
        return self.proc.stdout.readline().strip()

    def finish(self):
        line = self.readline()
        self.proc.wait(timeout=max(self.deadline - time.monotonic(), 1))
        if self.proc.returncode != 0 or not line.startswith("RESULT "):
            self.fail(f"worker exited with {self.proc.returncode}")
        return json.loads(line[len("RESULT "):])

    def fail(self, why):
        os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()
        sys.exit(f"benchmark failed: {why}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "adesurf", "__init__.py")):
        sys.exit(f"no adesurf sources under {src}; run from the root of a checkout")
    deadline = time.monotonic() + DEADLINE_S
    env = child_env(ROOT)
    worker = [sys.executable, os.path.join(HERE, "worker.py"), args.workload, str(args.seed), str(args.seconds)]
    mode = "trace" if args.trace else "run"

    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - (args.workload != "cli")):
            if args.workload == "cli":
                # a query's set-up is the interpreter plus the CLI's imports
                w = Worker([sys.executable, "-c", "import adesurf.cli; print('READY')"], env, deadline)
            else:
                w = Worker(worker + ["setup"], env, deadline)
            w.proc.wait(timeout=max(deadline - time.monotonic(), 1))
            setups.append(w.setup_s)
    main_worker = Worker(worker + [mode], env, deadline)
    if args.workload != "cli" and not args.trace:
        setups.append(main_worker.setup_s)
    result = main_worker.finish()

    metrics = result["metrics"]
    if not args.trace:
        # set-up runs within seconds of the timed phase, so the phase's host
        # speed scale applies to it as well
        metrics["setup_s"] = statistics.median(setups) * result["scale"]
    units = dict(UNITS, **{k: u for k, (u, _better) in METRICS.items()})
    print(f"workload={args.workload} seed={args.seed} rounds={result['rounds']} "
          f"samples={result['attempted']} failed={result['failed']} correct={result['correct']} "
          f"scale={result['scale']:.4f}"
          + (f" missing={result['missing']}" if result.get("missing") else ""))
    if not args.trace:
        print(f"setup samples (s): {[round(s, 4) for s in setups]}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }))


if __name__ == "__main__":
    main()
