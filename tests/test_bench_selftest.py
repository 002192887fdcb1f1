"""The benchmark's independent checkers accept the kernel's answers.

bench/selftest.py runs one round of every workload, checks the real
answers against the benchmark's own checkers and plants faults they
must reject.  A change whose answers those checkers reject fails here,
in the test suite.  It writes only the benchmark's git-ignored output
directory, bench/out/.
"""

import pathlib
import subprocess
import sys

SELFTEST = pathlib.Path(__file__).resolve().parents[1] / "bench" / "selftest.py"


def test_bench_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(SELFTEST), "--seed", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selftest passed" in done.stdout
