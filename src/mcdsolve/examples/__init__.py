"""Shipped example models and their pinned expected outputs.

Three models, one per application style:

* ``uav.mcd``: a drone sizing loop. Route planning trades velocity
  against flight time, perception and actuation power add up, a battery
  catalogue (eight technologies, six capacities, two mission counts)
  closes the mass/cost feedback loop.  Battery data carries a plus/minus
  uncertainty, so answers come back as verdicts, not just fronts.
* ``energy_meter.mcd``: a metered power link whose reading is trusted
  only to a tolerance; demonstrates uid() snapping.
* ``power_split.mcd``: a demand split across two supplies via the
  sampled relaxation of addition.

`uav_model_text(percent)` derives the UAV source at any battery
uncertainty level from the shipped ``uav.mcd`` (written at 10 %) by
rewriting its three percent sites; `build_uav_model(percent)` parses it.
The battery block of ``uav.mcd`` is `_battery_block()`, the rendering of
`BATTERY_TABLE` that `test_examples` keeps in sync with the file.
"""

import json
import math
from importlib import resources

from ..modellang import load_model, parse
from ..uncertainty import solve_uncertain

EXAMPLE_NAMES = ("uav", "energy_meter", "power_split")

# battery technology: (name, energy density Wh/kg, specific cost Wh/$,
# cycles before replacement)
BATTERY_TABLE = (
    ("NiMH", 100.0, 3.41, 500),
    ("NiH2", 45.0, 10.50, 20000),
    ("LCO", 195.0, 2.84, 750),
    ("LMO", 150.0, 2.84, 500),
    ("NiCad", 30.0, 7.50, 500),
    ("SLA", 30.0, 7.00, 500),
    ("LiPo", 150.0, 2.50, 600),
    ("LFP", 90.0, 1.50, 1500),
)
BATTERY_CAPACITIES = (10.0, 20.0, 40.0, 80.0, 160.0, 320.0)
MISSION_LEVELS = (200, 1000)


def battery_entries():
    """Catalogue rows (capacity, missions) -> (mass g, cost $).

    Mass follows energy density; cost is purchase price times the
    number of packs needed to survive the mission count.
    """
    rows = []
    for name, density, wh_per_dollar, cycles in BATTERY_TABLE:
        for cap in BATTERY_CAPACITIES:
            for missions in MISSION_LEVELS:
                mass = round(cap / density * 1000.0, 3)
                cost = round(cap / wh_per_dollar * math.ceil(missions / cycles), 2)
                rows.append((name, cap, missions, mass, cost))
    return rows


def _battery_block():
    lines = []
    for name, cap, missions, mass, cost in battery_entries():
        lines.append(
            "    (%r, %d) -> (%r, %r),  # %s" % (cap, missions, mass, cost, name)
        )
    return "\n".join(lines)


def uav_model_text(percent=10):
    """Model source for the drone example at a battery uncertainty level:
    the shipped uav.mcd, written at 10 %, with its percent sites rewritten."""
    if not 0 < percent < 100:
        raise ValueError("percent must be in (0, 100), got %r" % (percent,))
    text = example_path("uav").read_text(encoding="utf-8")
    text = text.replace("+-10%", "+-%s%%" % (percent,))
    return text.replace("pm(battery, 10 %)", "pm(battery, %s %%)" % (percent,))


def build_uav_model(percent=10):
    """Parse the drone model at the given battery uncertainty level."""
    result = parse(uav_model_text(percent))
    if not result.ok:
        raise AssertionError(
            "uav model failed to parse: %s"
            % "; ".join(d.format("uav.mcd") for d in result.diagnostics)
        )
    return result.document


def example_path(name):
    """Filesystem path of a shipped .mcd model."""
    if name not in EXAMPLE_NAMES:
        raise KeyError("unknown example %r, have %s" % (name, ", ".join(EXAMPLE_NAMES)))
    return resources.files(__package__) / (name + ".mcd")


def load_example(name):
    """Parse and elaborate a shipped model; raises on any diagnostic."""
    model, diags = load_model(example_path(name).read_text(encoding="utf-8"))
    if model is None:
        raise AssertionError(
            "example %s has errors: %s"
            % (name, "; ".join(d.format(name + ".mcd") for d in diags))
        )
    return model


# queries pinned under expected/; one file per (example, label)
PINNED_QUERIES = {
    "uav": (
        ("hover_short", {"endurance": 1.0, "distance": 20.0, "payload": 300.0, "missions": 200}),
        ("hover_long", {"endurance": 2.5, "distance": 20.0, "payload": 300.0, "missions": 200}),
        ("at_limit", {"endurance": 8.0, "distance": 20.0, "payload": 300.0, "missions": 200}),
        ("fleet", {"endurance": 1.0, "distance": 20.0, "payload": 300.0, "missions": 1000}),
    ),
    "energy_meter": (
        ("nominal", {"power": 3.0}),
        ("edge", {"power": 8.1}),
    ),
    "power_split": (
        ("nominal", {"demand": 6.0}),
        ("zero", {"demand": 0.0}),
    ),
}


def solve_pinned(name, query):
    model = load_example(name)
    return solve_uncertain(model.term, model.uvaluation, model.build_query(query))


def expected_json(name, label, query):
    solution = solve_pinned(name, query)
    payload = {
        "model": name + ".mcd",
        "label": label,
        "query": query,
        "solution": solution.to_json(),
    }
    return json.dumps(payload, indent=2) + "\n"


def regenerate_expected(out_dir):
    """Rewrite every pinned output; returns the file names written."""
    written = []
    for name, queries in sorted(PINNED_QUERIES.items()):
        for label, query in queries:
            path = out_dir / ("%s_%s.json" % (name, label))
            path.write_text(expected_json(name, label, query), encoding="utf-8")
            written.append(path.name)
    return written
