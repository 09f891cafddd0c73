"""One workload process: set up, run the timed phase, check every result.

    python3 perfbench/worker.py <workload> <seed> <seconds> <setup|run|trace>

Started by run.py in a fresh interpreter.  Prints ``READY`` once set-up is
done (the parent times set-up up to that line) and, in run and trace
modes, ``RESULT <json>`` at the end.  Everything else goes to stderr.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(1, os.path.join(ROOT, "src"))

MIN_OPS = 100  # so that at least ten samples lie beyond the 90th percentile

# The host's speed drifts by a third between phases that last minutes, more
# than a run can average out.  Every CALIBRATE_S of timed work the worker
# times a fixed pure-Python kernel that shares no code with adesurf, and
# reports times scaled to a host on which that kernel takes REFERENCE_MS.
CALIBRATE_S = 0.5
REFERENCE_MS = 6.0


def calibration_ms():
    """Wall time of a fixed kernel: Fraction sums and tuple-keyed dict inserts."""
    enabled = gc.isenabled()
    gc.disable()  # so the program's heap does not change the kernel's cost
    try:
        t0 = time.perf_counter()
        table, acc = {}, Fraction(0)
        for i in range(1, 1500):
            acc += Fraction(i % 7 + 1, i % 11 + 1)
            table[(i, i % 13, 7 * i)] = acc.numerator % 97
        return 1000 * (time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()


class Judge:
    """Checks every output; an output equal to one already judged reuses its verdict."""

    def __init__(self):
        self.verdicts = {}  # op name -> list of (plain outputs, problems)
        self.unexpected = []

    def failed(self, op, out):
        plain = canon_all(op, out)
        seen = self.verdicts.setdefault(op.name, [])
        problems = next((p for q, p in seen if q == plain), None)
        if problems is None:
            problems = [p for p in map(check_one, op.items, plain) if p]
            if seen:
                self.unexpected.append(f"{op.name}: output differs between rounds or under tracing")
            seen.append((plain, problems))
            if problems and op.fault is None:
                self.unexpected.append(f"{op.name}: {problems[0]}")
        return bool(problems)


class Phase:
    """Closed loop, one client: whole rounds of the operation list.

    Each output is checked right after its operation, outside the timed
    region; the phase's time is the time spent inside operations.
    """

    def __init__(self, ops, seconds, min_ops, judge):
        self.latencies, self.calibrations = [], []
        self.rounds = self.failed = 0
        self.busy, since = 0.0, CALIBRATE_S
        while self.busy < seconds or len(self.latencies) < min_ops:
            for op in ops:
                if since >= CALIBRATE_S:
                    self.calibrations.append(calibration_ms())
                    since = 0.0
                t0 = time.perf_counter()
                out = run_op(op)
                dt = time.perf_counter() - t0
                self.latencies.append(dt)
                self.busy += dt
                since += dt
                self.failed += judge.failed(op, out)
            self.rounds += 1

    @property
    def scale(self):
        """Factor from this phase's wall times to times on the reference host."""
        return REFERENCE_MS / statistics.median(self.calibrations)

    @property
    def ops_per_s(self):
        return len(self.latencies) / (self.busy * self.scale)


def run_op(op):
    out = []
    for call, _canon, _check in op.items:
        try:
            out.append(call())
        except Exception as exc:  # a failed operation is counted, not fatal
            out.append(exc)
    return out


def canon_all(op, out):
    plain = []
    for (_call, canon, _check), res in zip(op.items, out):
        if isinstance(res, Exception):
            plain.append(("raised", type(res).__name__, str(res)))
            continue
        try:
            plain.append(canon(res))
        except Exception as exc:
            plain.append(("unreadable", type(exc).__name__, str(exc)))
    return plain


def check_one(item, got):
    if isinstance(got, tuple) and got and got[0] in ("raised", "unreadable"):
        return f"{got[0]} {got[1]}: {got[2]}"
    try:
        return item[2](got)
    except Exception as exc:
        return f"checker could not read the output: {type(exc).__name__}: {exc}"


def quantile(xs, p, steps=16):
    """Harrell-Davis estimate: a Beta-weighted mean of all order statistics.

    Operation costs come in clusters with gaps between them, so a single
    order statistic jumps from one cluster to the next when noise reorders
    two operations; the weighted mean moves smoothly.
    """
    xs = sorted(xs)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def pdf(t):
        return math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta)

    h = 1 / (n * steps)  # midpoint rule on each cell [i/n, (i+1)/n]
    return sum(x * h * sum(pdf((i * steps + k + 0.5) * h) for k in range(steps)) for i, x in enumerate(xs))


def end_to_end(phase, rss_mb):
    lat = [1000 * x * phase.scale for x in phase.latencies]
    return {
        "attempted": len(lat),
        "failed": phase.failed,
        "rounds": phase.rounds,
        "scale": phase.scale,
        "metrics": {
            "ops_per_s": phase.ops_per_s,
            "latency_p50_ms": quantile(lat, 0.5),
            "latency_p90_ms": quantile(lat, 0.9),
            "peak_rss_mb": rss_mb,
        },
    }


def process_ms(argv, env, samples=5):
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True, timeout=60)
        times.append(1000 * (time.perf_counter() - t0))
    return statistics.median(times)


def main():
    workload, seed, seconds, mode = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4]
    import adesurf

    src = os.path.join(ROOT, "src")
    if os.path.commonpath([os.path.abspath(adesurf.__file__), src]) != src:
        sys.exit(f"imported adesurf from {adesurf.__file__}, not from {src}")
    import cliwork
    import workloads
    from tracing import Tracer

    inputs = None
    if workload == "cli":
        inputs = cliwork.Inputs(os.path.join(ROOT, "perfbench", "out", f"cli-{os.getpid()}"))
        env = cliwork.child_env(ROOT)
        if mode == "run":
            ops = cliwork.build(seed, inputs, lambda argv: cliwork.subprocess_call(argv, env, ROOT))
        else:
            ops = cliwork.build(seed, inputs, cliwork.inprocess_call)
    else:
        wl = workloads.build(workload, seed, workloads.load_modules())
        for call, _canon, _check in wl.warmups:
            call()
        ops = wl.ops
    print("READY", flush=True)
    if mode == "setup":
        return

    judge = Judge()
    try:
        if mode == "run":
            gc.collect()  # start without the garbage of set-up
            phase = Phase(ops, seconds, MIN_OPS, judge)
            who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
            result = end_to_end(phase, resource.getrusage(who).ru_maxrss / 1024)
        else:
            # One untimed round, then untraced and traced rounds in turn until
            # the traced ones have taken --seconds: each pair runs in the
            # same host phase, so their scaled ratio is the tracing overhead.
            Phase(ops, 0, len(ops), judge)
            tracer, ratios, traced = Tracer(), [], []
            while sum(p.busy for p in traced) < seconds:
                plain = Phase(ops, 0, len(ops), judge)
                tracer.install()
                try:
                    traced.append(Phase(ops, 0, len(ops), judge))
                finally:
                    tracer.uninstall()
                ratios.append(traced[-1].busy * traced[-1].scale / (plain.busy * plain.scale))
            scale = REFERENCE_MS / statistics.median(c for p in traced for c in p.calibrations)
            env = cliwork.child_env(ROOT)
            interp = process_ms([sys.executable, "-c", "pass"], env)
            imp = process_ms([sys.executable, "-c", "import adesurf.cli"], env)
            metrics = tracer.layer_metrics(len(traced), scale)
            metrics.update({
                "cli.interpreter_ms": interp * scale,
                "cli.import_ms": (imp - interp) * scale,
                "trace.overhead_pct": 100 * (statistics.median(ratios) - 1),
            })
            os.makedirs(os.path.join(ROOT, "perfbench", "out"), exist_ok=True)
            tracer.dump(os.path.join(ROOT, "perfbench", "out", f"trace-{workload}-{seed}.json"))
            result = {"attempted": sum(len(p.latencies) for p in traced), "failed": sum(p.failed for p in traced),
                      "rounds": len(traced), "scale": scale, "missing": tracer.missing, "metrics": metrics}
    finally:
        if inputs is not None:
            inputs.remove()
    for line in judge.unexpected:
        print(f"unexpected failure: {line}", file=sys.stderr)
    result["correct"] = not judge.unexpected
    print("RESULT " + json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
