#!/usr/bin/env python3
"""Benchmark for quanthelly: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload pq-pierce --seed 1 --seconds 30 --trace 0

`--workload all` runs the three workloads one after another, each in a
process of its own, and ends with one JSON object keyed by workload.
Run from the repository root.  The program is imported from ./src, so
nothing needs building or installing.  The run builds round 0's inputs and
warms up (that is `setup_s`), then repeats whole rounds of operations, each
timed on its own and each output checked, until --seconds have passed.

--trace 0 prints the end-to-end metrics; --trace 1 wraps the public
functions of every module (see tracer.py) and prints the per-layer metrics,
with the tracing overhead measured by playing every round both ways.  The last
line of standard output is the result as one JSON object.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

_T0 = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# A run goes on past --seconds until it has this many timed operations, so
# the 90th latency percentile has at least ten samples above it, but not
# past GIVE_UP_S, which bounds a run on a slow machine.
MIN_SAMPLES = 100
GIVE_UP_S = 40


def process_age() -> float:
    """Seconds since this process started, from /proc when it is readable."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
        if 0 <= age < 600:
            return age
    except (OSError, ValueError, IndexError, AttributeError):
        pass
    return time.perf_counter() - _T0


def load_program():
    """Import quanthelly from ./src, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "quanthelly" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {src / 'quanthelly'}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import quanthelly

    if Path(quanthelly.__file__).resolve().parent != (src / "quanthelly").resolve():
        sys.exit(f"error: quanthelly was imported from {quanthelly.__file__}, not {src}")
    return quanthelly


class Run:
    """Plays rounds of operations; times each call, checks each output."""

    def __init__(self):
        self.tracer = None
        self.latencies_ns = []
        self.attempted = self.failed = 0
        self.problems = []

    def play(self, ops, traced=False):
        """Run one round; returns the summed time of its calls in ns."""
        spent = 0
        if self.tracer is not None:
            self.tracer.enable(traced)
        for label, run, check in ops:
            self.attempted += 1
            if traced:
                self.tracer.begin_op()
            t0 = time.perf_counter_ns()
            try:
                result = run()
            except Exception as exc:  # an operation that fails is counted, not fatal
                self.failed += 1
                print(f"failed: {label}: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            finally:
                dt = time.perf_counter_ns() - t0
                if traced:
                    self.tracer.end_op()
            spent += dt
            self.latencies_ns.append(dt)
            try:
                found = check(result)
            except Exception as exc:  # a checker that cannot read the output rejects it
                found = [f"check raised {type(exc).__name__}: {exc}"]
            self.problems.extend(f"{label}: {p}" for p in found)
        return spent


def warm_up(ops):
    """Call the first operation of each kind once (lazy imports, caches).

    A failure here is left for the timed rounds to count.
    """
    seen = set()
    for label, run, _check in ops:
        kind = label.split("-")[0]
        if kind not in seen:
            seen.add(kind)
            try:
                run()
            except Exception:  # counted when the same kind fails in a round
                pass


def end_to_end(run, op_ns, setup_s):
    lat_ms = [ns / 1e6 for ns in run.latencies_ns]
    p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[8] if len(lat_ms) > 1 else lat_ms[0]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": len(lat_ms) / (op_ns / 1e9), "unit": "ops/s"},
        "latency_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
        "latency_p90_ms": {"value": p90, "unit": "ms"},
        "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
    }


WORKLOADS = ("pq-pierce", "floating-cuts", "weak-nets")


def run_all(args):
    """Each workload in a process of its own, so each set-up is a cold one."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        print(out, end="")
        results[workload] = json.loads(out.splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    qh = load_program()
    import workloads

    def round_ops(index):
        rng = workloads.rng_for(args.workload, args.seed, index)
        return workloads.ROUNDS[args.workload](qh, rng)

    run = Run()
    ops = round_ops(0)
    warm_up(round_ops("warm-up"))
    setup_s = process_age()

    if args.trace:
        import tracer

        run.tracer = tracer.Tracer()
        run.tracer.install()

    # A traced run plays each round twice, untraced then traced, so the
    # overhead is measured on the same calls at nearly the same time.
    start = time.perf_counter()
    op_ns = traced_ns = 0
    rounds = 0
    while True:
        elapsed = time.perf_counter() - start
        enough = elapsed >= args.seconds and len(run.latencies_ns) >= MIN_SAMPLES
        if rounds and (enough or elapsed >= GIVE_UP_S):
            break
        if rounds:
            ops = round_ops(rounds)
        op_ns += run.play(ops)
        if args.trace:
            traced_ns += run.play(ops, traced=True)
        rounds += 1

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics = run.tracer.metrics()
        metrics["trace.overhead_ratio"] = {"value": traced_ns / op_ns, "unit": "ratio"}
        run.tracer.write(OUT / f"spans-{tag}.json.gz")
    else:
        metrics = end_to_end(run, op_ns, setup_s)

    for p in run.problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    print(f"{args.workload} seed {args.seed}: {rounds} rounds, {run.attempted} operations, "
          f"{run.failed} failed, {len(run.latencies_ns)} timed, "
          f"outputs {'correct' if not run.problems else 'WRONG'}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:14.4f} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
