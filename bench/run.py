#!/usr/bin/env python3
"""mcdsolve benchmark: UAV sweeps, fine split relaxations, finite loops.

    python3 bench/run.py --workload uav_sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Run from the repository root; the package is imported from ./src.
Each workload sends one query at a time (a closed loop, one client) and
checks every answer against a reference computed apart from the solver
(see checks.py).  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  A copy of it
goes to bench/out/, with the spans of a traced run.
"""

import argparse
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time

import speed

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NAMES = ("uav_sweep", "split_fine", "finite_loops")
SETUP_PROBES = 21  # fresh interpreters per run; the median is setup_s
P90_MIN_OPS = 100  # a p90 needs at least ten samples beyond it


def measure_setup(workload: str, seed: int):
    """Median set-up time over fresh interpreters, in reference and in
    wall seconds, after one discarded probe that also writes the
    bytecode caches."""
    scaled, raw = [], []
    for i in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        if i:
            s, r = proc.stdout.split()
            scaled.append(float(s))
            raw.append(float(r))
    return statistics.median(scaled), statistics.median(raw)


class Tally:
    """Queries attempted, failed and answered correctly, and what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct_queries = 0
        self.problems = []

    def add(self, result: dict):
        self.attempted += result["queries"]
        self.failed += result["failed"]
        if not result["problems"]:
            self.correct_queries += result["queries"] - result["failed"]
        self.problems.extend(result["problems"])


def run_rounds(w, tally, rounds=None, seconds=None, tracer=None):
    """Run whole rounds: a fixed number, or until the timed operations
    add up to `seconds`.  Returns (ScaledClock of op latencies, planted)."""
    clock = speed.ScaledClock()
    timed = 0.0
    planted = None
    r = 0
    while (r < rounds) if rounds is not None else (timed < seconds):
        ops = w.round(r)
        answers = []
        for op in ops:
            if tracer is not None:
                tracer.active = True
            t0 = time.perf_counter()
            answer = w.run(op)
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            timed += dt
            clock.add(dt)
            tally.add(w.check(op, answer))
            answers.append(answer)
        tally.problems.extend(w.check_round(ops, answers))
        if planted is None:
            planted = w.planted(ops, answers)
        r += 1
    clock.flush()
    return clock, planted


def check_planted(planted: dict, tally):
    """Every planted wrong answer must have been rejected."""
    if not planted:
        tally.problems.append("no answer to plant a fault in")
    for label, problems in planted.items():
        if not problems:
            tally.problems.append("checker accepted a planted fault: %s" % label)


def warm_up(w):
    """One untimed, uncounted operation, so lazy set-up is done before timing."""
    w.run(w.round(0)[0])


def measure(name: str, seed: int, seconds: float):
    from workloads import WORKLOADS

    setup_s, setup_wall_s = measure_setup(name, seed)
    w = WORKLOADS[name](seed)
    w.prepare(OUT)
    warm_up(w)
    tally = Tally()
    clock, planted = run_rounds(w, tally, seconds=seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_planted(planted, tally)
    metrics = {
        "queries_per_s": (tally.correct_queries / sum(clock.scaled), "1/s"),
        "op_p50_ms": (statistics.median(clock.scaled) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    # the same figures in wall seconds, and the p90 where it has a tail
    notes = {
        "operations": len(clock.raw),
        "timed_wall_s": sum(clock.raw),
        "wall_queries_per_s": tally.correct_queries / sum(clock.raw),
        "wall_op_p50_ms": statistics.median(clock.raw) * 1e3,
        "wall_setup_s": setup_wall_s,
    }
    if len(clock.scaled) >= P90_MIN_OPS:
        notes["op_p90_ms"] = statistics.quantiles(clock.scaled, n=10)[-1] * 1e3
    return tally, metrics, notes


def measure_traced(name: str, seed: int):
    """Per-layer metrics over the in-process set-up and a fixed number of
    rounds, so that counts repeat exactly for a seed.  The same rounds
    run untraced first; their time ratio is the tracing overhead."""
    import tracing
    from workloads import WORKLOADS

    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    tracer.active = True
    w = WORKLOADS[name](seed)
    tracer.active = False
    undo()
    w.prepare(OUT)
    warm_up(w)
    tally = Tally()
    rounds = w.trace_rounds
    plain, planted = run_rounds(w, tally, rounds=rounds)
    undo = tracing.install(tracer)
    try:
        traced, _ = run_rounds(w, tally, rounds=rounds, tracer=tracer)
    finally:
        undo()
    check_planted(planted, tally)
    metrics = tracing.per_layer(tracer)
    metrics["trace.overhead_ratio"] = (sum(traced.scaled) / sum(plain.scaled), "ratio")
    notes = {"operations": len(traced.raw), "untraced_wall_s": sum(plain.raw),
             "traced_wall_s": sum(traced.raw), "spans_kept": len(tracer.spans),
             "spans_dropped": tracer.dropped}
    tracer.write(OUT / ("%s-seed%d.spans.json" % (name, seed)),
                 {"workload": name, "seed": seed})
    return tally, metrics, notes


def result_doc(tally, metrics) -> dict:
    return {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.trace:
        tally, metrics, notes = measure_traced(args.workload, args.seed)
    else:
        tally, metrics, notes = measure(args.workload, args.seed, args.seconds)
    for problem in tally.problems[:20]:
        print("CHECK FAILED: %s" % problem)
    for k, v in notes.items():
        print("%s %s %s" % (args.workload, k, v))
    for k, (v, unit) in metrics.items():
        print("%s %s %s %s" % (args.workload, k, v, unit))
    doc = result_doc(tally, metrics)
    line = json.dumps(doc)
    (OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))).write_text(
        line + "\n", encoding="utf-8")
    print(line)
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        doc = json.loads(lines[-1])
        print("%s attempted %d failed %d correct %s"
              % (name, doc["attempted"], doc["failed"], doc["correct"]))
        total["correct"] = total["correct"] and doc["correct"]
        total["attempted"] += doc["attempted"]
        total["failed"] += doc["failed"]
        for k, v in doc["metrics"].items():
            total["metrics"]["%s.%s" % (name, k)] = v
    print(json.dumps(total))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "mcdsolve" / "__init__.py").is_file():
        print("error: no mcdsolve sources under %s; run from a checkout" % SRC, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
