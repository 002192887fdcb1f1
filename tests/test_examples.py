import json
import math
import pathlib

import pytest

from mcdsolve.cli import EXIT_OK, main
from mcdsolve.examples import (
    BATTERY_TABLE,
    EXAMPLE_NAMES,
    PINNED_QUERIES,
    _battery_block,
    battery_entries,
    build_uav_model,
    example_path,
    load_example,
    regenerate_expected,
    uav_model_text,
)
from mcdsolve.modellang import elaborate
from mcdsolve.uncertainty import solve_uncertain

EXPECTED_DIR = pathlib.Path(__file__).resolve().parent.parent / (
    "src/mcdsolve/examples/expected"
)


class TestBatteryData:
    def test_eight_technologies(self):
        names = [row[0] for row in BATTERY_TABLE]
        assert names == ["NiMH", "NiH2", "LCO", "LMO", "NiCad", "SLA", "LiPo", "LFP"]

    def test_table_constants(self):
        by_name = {row[0]: row[1:] for row in BATTERY_TABLE}
        assert by_name["NiMH"] == (100.0, 3.41, 500)
        assert by_name["NiH2"] == (45.0, 10.50, 20000)
        assert by_name["LCO"] == (195.0, 2.84, 750)
        assert by_name["LMO"] == (150.0, 2.84, 500)
        assert by_name["NiCad"] == (30.0, 7.50, 500)
        assert by_name["SLA"] == (30.0, 7.00, 500)
        assert by_name["LiPo"] == (150.0, 2.50, 600)
        assert by_name["LFP"] == (90.0, 1.50, 1500)

    def test_entry_arithmetic(self):
        rows = battery_entries()
        assert len(rows) == 8 * 6 * 2
        # NiMH keeps 10 g/Wh; one replacement at 200 missions, two at 1000
        nimh200 = [r for r in rows if r[0] == "NiMH" and r[2] == 200]
        for _, cap, _, mass, cost in nimh200:
            assert mass == pytest.approx(cap * 10.0)
            assert cost == pytest.approx(cap / 3.41, abs=0.005)
        nimh1000 = [r for r in rows if r[0] == "NiMH" and r[2] == 1000]
        for _, cap, _, mass, cost in nimh1000:
            assert cost == pytest.approx(2 * cap / 3.41, abs=0.01)
        # long-cycle chemistries never pay for replacements
        nih2 = [r for r in rows if r[0] == "NiH2" and r[1] == 40.0]
        assert nih2[0][4] == nih2[1][4]

    def test_every_technology_reaches_the_catalogue(self):
        text = uav_model_text(10)
        for name, *_ in BATTERY_TABLE:
            assert "# %s" % name in text


class TestShippedFiles:
    def test_uav_file_matches_template(self):
        shipped = example_path("uav").read_text(encoding="utf-8")
        block = shipped.split("R(mb[g], cb[$]) {\n", 1)[1].split("\n}\n", 1)[0]
        assert block == _battery_block()
        # another percent level differs only at the three percent sites
        other = uav_model_text(25).splitlines()
        assert len(other) == len(shipped.splitlines())
        assert [(a, b) for a, b in zip(shipped.splitlines(), other) if a != b] == [
            ("# worth trusting; its mass and cost carry the +-10% uncertainty.",
             "# worth trusting; its mass and cost carry the +-25% uncertainty."),
            ('model uav "drone sizing loop, battery known to +-10%"',
             'model uav "drone sizing loop, battery known to +-25%"'),
            ("uncertain ubattery = pm(battery, 10 %)",
             "uncertain ubattery = pm(battery, 25 %)"),
        ]
        assert uav_model_text(10) == shipped

    @pytest.mark.parametrize("name", EXAMPLE_NAMES)
    def test_cmd_check_passes(self, name):
        assert main(["check", str(example_path(name))]) == EXIT_OK

    @pytest.mark.parametrize("name", EXAMPLE_NAMES)
    def test_loads(self, name):
        model = load_example(name)
        assert model.term is not None

    def test_unknown_example(self):
        with pytest.raises(KeyError):
            example_path("fusion_reactor")


class TestUavModel:
    def test_build_at_other_percent(self):
        doc = build_uav_model(25)
        model, diags = elaborate(doc)
        assert model is not None, [d.format("uav") for d in diags]

    def test_percent_range(self):
        with pytest.raises(ValueError):
            build_uav_model(0)
        with pytest.raises(ValueError):
            build_uav_model(100)

    def test_feasible_at_small_endurance(self):
        model = load_example("uav")
        f = model.build_query(
            {"endurance": 0.5, "distance": 20.0, "payload": 300.0, "missions": 200}
        )
        sol = solve_uncertain(model.term, model.uvaluation, f)
        assert sol.verdict == "feasible"
        assert sol.converged

    def test_infeasible_at_extreme_endurance(self):
        model = load_example("uav")
        f = model.build_query(
            {"endurance": 50.0, "distance": 20.0, "payload": 300.0, "missions": 200}
        )
        sol = solve_uncertain(model.term, model.uvaluation, f)
        assert sol.verdict == "infeasible"
        assert sol.lower.front.points == set()

    def test_more_missions_cost_no_less(self):
        model = load_example("uav")
        base = {"endurance": 1.0, "distance": 20.0, "payload": 300.0}
        few = solve_uncertain(
            model.term, model.uvaluation, model.build_query(dict(base, missions=200))
        )
        many = solve_uncertain(
            model.term, model.uvaluation, model.build_query(dict(base, missions=1000))
        )
        # serving more missions is a harder functionality: the cheaper
        # front must dominate
        assert few.upper.front.leq(many.upper.front)


class TestPinnedOutputs:
    def test_every_pin_regenerates_identically(self, tmp_path):
        written = regenerate_expected(tmp_path)
        assert sorted(written) == sorted(p.name for p in EXPECTED_DIR.glob("*.json"))
        for name in written:
            assert (tmp_path / name).read_bytes() == (EXPECTED_DIR / name).read_bytes(), name

    def test_no_orphan_pins(self):
        expected = {
            "%s_%s.json" % (name, label)
            for name, queries in PINNED_QUERIES.items()
            for label, _ in queries
        }
        on_disk = {p.name for p in EXPECTED_DIR.glob("*.json")}
        assert on_disk == expected

    def test_pins_parse_and_carry_verdicts(self):
        for p in EXPECTED_DIR.glob("*.json"):
            doc = json.loads(p.read_text(encoding="utf-8"))
            assert doc["solution"]["verdict"] in (
                "feasible",
                "infeasible",
                "indeterminate",
            )
