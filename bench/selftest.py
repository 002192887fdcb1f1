#!/usr/bin/env python3
"""Show that every checker rejects planted wrong answers.

    python3 bench/selftest.py [--seed N]

For each workload this runs one round, checks the real answers, then
plants faults in the first one (a perturbed front, a swapped bracket, a
flipped verdict, ...) and prints the problem the checker reported for
each.  Exits 1 if a real answer fails its check or a planted fault
passes.  run.py repeats the planted checks on every run.
"""

import argparse
import sys

import run

sys.path.insert(0, str(run.SRC))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    run.OUT.mkdir(exist_ok=True)
    ok = True
    for name in run.NAMES:
        w = WORKLOADS[name](args.seed)
        w.prepare(run.OUT)
        tally = run.Tally()
        _, planted = run.run_rounds(w, tally, rounds=1)
        print("%s: %d queries, %d failed, %d problems"
              % (name, tally.attempted, tally.failed, len(tally.problems)))
        for problem in tally.problems:
            print("  REAL ANSWER REJECTED: %s" % problem)
            ok = False
        if not planted:
            print("  FAIL: no answer to plant a fault in")
            ok = False
        for label, problems in planted.items():
            if problems:
                print("  rejected %-26s %s" % (label + ":", problems[0][:110]))
            else:
                print("  FAIL: accepted %s" % label)
                ok = False
    print("selftest %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
