"""Two drone sweeps through the CLI, pinned byte for byte: the route
sample-count sweep (`--relax-n`), and the sweep at a distance no battery
reaches, whose every row is infeasible.  Both run the whole front end, the
battery catalogue and the argument parser included, on every command.
Regenerate the pins with `PYTHONPATH=src python tests/test_uav_sweep_pins.py`,
and only for a change to that output that is meant.
"""

import contextlib
import io
import json
import pathlib

from mcdsolve import cli
from mcdsolve.examples import example_path

EXPECTED = pathlib.Path(__file__).resolve().parent / "expected"
RELAX_PIN = EXPECTED / "uav_relax_n_sweep.json"
FAR_PIN = EXPECTED / "uav_far_sweep.json"

UAV = str(example_path("uav"))
RELAX_N = ["sweep", UAV, "--relax-n", "route=2,8,32", "--f", "distance=20",
           "--f", "payload=300", "--f", "missions=1000", "--f", "endurance=1.0"]
FAR = ["sweep", UAV, "--axis", "endurance", "--from", "0.5", "--to", "3.0", "--steps", "4",
       "--f", "distance=30000.0", "--f", "payload=300.0", "--f", "missions=200"]


def stdout_of(argv: list) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == cli.EXIT_OK, argv
    return out.getvalue()


def test_relax_n_sweep_matches_the_pin():
    assert stdout_of(RELAX_N) == json.loads(RELAX_PIN.read_text(encoding="utf-8"))


def test_far_sweep_matches_the_pin():
    text = stdout_of(FAR)
    assert text == json.loads(FAR_PIN.read_text(encoding="utf-8"))
    rows = json.loads(text)["rows"]
    assert len(rows) == 4 and all(row["verdict"] == "infeasible" for row in rows)


if __name__ == "__main__":
    for path, argv in ((RELAX_PIN, RELAX_N), (FAR_PIN, FAR)):
        path.write_text(json.dumps(stdout_of(argv), indent=1) + "\n", encoding="utf-8")
