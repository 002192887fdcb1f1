"""Tolerance relaxations through the CLI, pinned byte for byte: the
drone sweep over actuation tolerances, the energy meter's tolerance
sweep at edge demands, and a fan-out whose push runs through uid.
Regenerate the pins with `PYTHONPATH=src python tests/test_tolerance_pins.py`,
and only for a change to that output that is meant.
"""

import contextlib
import io
import json
import pathlib
import tempfile

from mcdsolve import cli
from mcdsolve.examples import example_path

EXPECTED = pathlib.Path(__file__).resolve().parent / "expected"
UAV_PIN = EXPECTED / "uav_tolerance_sweep.json"
METER_PIN = EXPECTED / "energy_meter_tolerance.json"
FAN_OUT_PIN = EXPECTED / "uid_fan_out.json"

UAV_TOLERANCE = ["--tolerance", "actuation=40.0,20.0,10.0,5.0", "--f", "distance=20",
                 "--f", "payload=300", "--f", "missions=200", "--f", "endurance=1.0"]
# grid points, near-grid points, 0, -0.0, a subnormal, inf and a demand
# whose quotient by the finest tolerance overflows, so it passes through
METER_POWERS = ["0", "-0.0", "5e-324", "0.3", "1.75", "2.0", "3.9", "7.99", "1e300", "inf"]
METER_TOLERANCE = "meter=0.25,0.1,1.0,3.0,5e-324"
# split's samples fan out through total and tol: both are pushed, and
# the catalogue runs only at the minimal images
UID_FAN_OUT = """\
dp split = invplus_vdc(4, W)
dp total = map F(a[W], b[W]) R(s[W]) { s = max(a, b) + 0.5 * min(a, b) }
dp tol = uid(0.25 W)
dp cat = catalogue F(s[W]) R(cost[$]) { 1.0 -> 10.0, 2.0 -> 14.0, 4.0 -> 21.0, 8.0 -> 33.0 }
term series(split, series(total, series(tol, cat)))
"""
FAN_OUT_DEMANDS = ["0", "-0.0", "5e-324", "2.6", "6", "1e300", "inf"]
FAN_OUT_SWEEPS = {"relax-n": ["--relax-n", "split=1,2,4,8,64"],
                  "tolerance": ["--tolerance", "tol=0.25,0.1,3.0,5e-324"]}


def stdout_of(argv: list) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == cli.EXIT_OK, argv
    return out.getvalue()


def uav_output() -> str:
    return stdout_of(["sweep", str(example_path("uav"))] + UAV_TOLERANCE)


def meter_outputs() -> dict:
    """Power -> the JSON stdout of the meter's tolerance sweep at it."""
    return {power: stdout_of(["sweep", str(example_path("energy_meter")), "--tolerance",
                              METER_TOLERANCE, "--f", "power=" + power])
            for power in METER_POWERS}


def fan_out_outputs() -> dict:
    """"<sweep> <demand>" -> the JSON stdout of that sweep of UID_FAN_OUT."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "uid_fan_out.mcd"
        path.write_text(UID_FAN_OUT, encoding="utf-8")
        return {"%s %s" % (sweep, demand): stdout_of(["sweep", str(path)] + flags
                                                     + ["--f", "f=" + demand])
                for sweep, flags in FAN_OUT_SWEEPS.items() for demand in FAN_OUT_DEMANDS}


def test_uav_tolerance_sweep_matches_the_pin():
    assert uav_output() == json.loads(UAV_PIN.read_text(encoding="utf-8"))


def test_energy_meter_tolerance_sweep_matches_the_pin():
    pinned = json.loads(METER_PIN.read_text(encoding="utf-8"))
    assert list(pinned) == METER_POWERS
    for power, text in meter_outputs().items():
        assert text == pinned[power], power


def test_fan_out_through_uid_matches_the_pin():
    pinned = json.loads(FAN_OUT_PIN.read_text(encoding="utf-8"))
    outputs = fan_out_outputs()
    assert list(pinned) == list(outputs)
    for key, text in outputs.items():
        assert text == pinned[key], key


if __name__ == "__main__":
    for path, output in ((UAV_PIN, uav_output()), (METER_PIN, meter_outputs()),
                         (FAN_OUT_PIN, fan_out_outputs())):
        path.write_text(json.dumps(output, indent=1) + "\n", encoding="utf-8")
