import json
import os
import subprocess
import sys
import time

import pytest

from mcdsolve import cli, dp, uncertainty
from mcdsolve.cli import (
    EXIT_ERROR,
    EXIT_INDETERMINATE,
    EXIT_INFEASIBLE,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    main,
)
from mcdsolve.errors import DomainError
from mcdsolve.examples import example_path
from mcdsolve.modellang import _BUILTINS, load_model

LOOP_MODEL = """\
model demo "loop with uncertain catalogue"
dp frame = map F(payload[g], mass[g], cost[$]) R(lift[g]) { lift = payload + mass }
dp motor = catalogue F(lift[g]) R(mass[g], cost[$]) {
    200.0 -> (50.0, 10.0),
    500.0 -> (120.0, 18.0),
    1200.0 -> (300.0, 35.0)
}
uncertain umotor = pm(motor, 10 %)
term loop(series(frame, umotor))
"""

SPLIT_MODEL = """\
dp demand = identity R(demand[W])
dp split = invplus_vdc(4, W)
dp solar = map F(p1[W]) R(c1[$]) { c1 = 2.0 * p1 }
dp mains = map F(p2[W]) R(c2[$]) { c2 = 3.0 + p2 }
dp total = map F(c1[$], c2[$]) R(cost[$]) { cost = c1 + c2 }
term series(demand, series(split, series(par(solar, mains), total)))
"""

LEVELS_MODEL = """\
poset lvl = chain {low, nan, inf, 2}
dp step = catalogue F(x:lvl) R(c:lvl) {
    low -> low,
    nan -> nan,
    2 -> 2
}
term step
"""

INF_LABEL_MODEL = """\
poset lvl = chain {low, inf}
dp step = catalogue F(x:lvl) R(c:lvl) { inf -> inf }
term step
"""

# two fed-back axes: (0, 2) and (2, 0) each lie above neither point that
# asked for them, and only their joins with those points lead on to (3, 3)
JOIN_LOOP_MODEL = """\
dp h = catalogue F(g[W], a[W], b[W]) R(a[W], b[W]) {
  (0, 0, 0) -> (1, 0), (0, 0, 0) -> (0, 1), (0, 1, 0) -> (0, 2),
  (0, 0, 1) -> (2, 0), (0, 5, 5) -> (3, 3) }
term loop(h)
"""

# declaration kinds solved end to end: constant with F(...), bottom and
# axes on a declared real poset here; constant without F(...), which
# leaves the model no functionality, and top below
KINDS_MODEL = """\
poset watts = R+[W]
poset lvl = chain {low, high}
dp c = constant F(x:watts) R(y[$]) {3.0}
dp b = bottom F(x[W], l:lvl) R(q[$])
dp pick = map F(x[W], l:lvl) R(x2[W]) { x2 = x }
term par(series(pick, c), b)
"""

NO_FUNCTIONALITY_MODEL = """\
poset lvl = chain {low, high}
dp c = constant R(y[$], z:lvl) {(3.0, low), (1.0, high)}
term c
"""

TOP_MODEL = """\
poset watts = R+[W]
dp t = top F(x:watts) R(y[$])
term t
"""


@pytest.fixture
def loop_model(tmp_path):
    path = tmp_path / "demo.mcd"
    path.write_text(LOOP_MODEL)
    return str(path)


@pytest.fixture
def split_model(tmp_path):
    path = tmp_path / "split.mcd"
    path.write_text(SPLIT_MODEL)
    return str(path)


@pytest.fixture
def levels_model(tmp_path):
    path = tmp_path / "levels.mcd"
    path.write_text(LEVELS_MODEL)
    return str(path)


@pytest.fixture
def inf_label_model(tmp_path):
    path = tmp_path / "inf_label.mcd"
    path.write_text(INF_LABEL_MODEL)
    return str(path)


class TestCheck:
    def test_valid_model(self, loop_model, capsys):
        assert main(["check", loop_model]) == EXIT_OK
        out = capsys.readouterr().out
        assert "monotonicity" in out
        assert "functionality: payload:R+[g]" in out

    @pytest.mark.parametrize("name, lines", [
        ("uav", [
            "uav: 13 atoms, 15 monotonicity spot-checks passed",
            "functionality: endurance:R+[h], distance:R+[km], payload:R+[g], missions:missions",
            "resources: mass:R+[g], cost:R+[$]",
        ]),
        ("energy_meter", [
            "energy_meter: 3 atoms, 4 monotonicity spot-checks passed",
            "functionality: power:R+[W]",
            "resources: cost:R+[$]",
        ]),
        ("power_split", [
            "power_split: 5 atoms, 6 monotonicity spot-checks passed",
            "functionality: demand:R+[W]",
            "resources: cost:R+[$]",
        ]),
    ])
    def test_example_output(self, name, lines, capsys):
        assert main(["check", str(example_path(name))]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == "\n".join(lines) + "\n"
        assert captured.err == ""

    @pytest.mark.parametrize("name, points", [
        ("uav", 418), ("energy_meter", 28), ("power_split", 84),
    ])
    def test_evaluates_each_point_once(self, name, points, monkeypatch, capsys):
        calls = []
        evaluate = dp.DesignProblem.evaluate

        def counted(self, f):
            calls.append(f)
            return evaluate(self, f)

        monkeypatch.setattr(dp.DesignProblem, "evaluate", counted)
        assert main(["check", str(example_path(name))]) == EXIT_OK
        assert len(calls) == points

    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.mcd"
        path.write_text("dp a = wigget\nterm a\n")
        assert main(["check", str(path)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "bad.mcd:1:" in err

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent/x.mcd"]) == EXIT_ERROR

    @pytest.mark.parametrize("command", ["check", "solve", "sweep"])
    def test_file_not_utf8_is_an_error(self, command, tmp_path, capsys):
        path = tmp_path / "latin1.mcd"
        path.write_bytes(b"model caf\xe9\nterm a\n")
        assert main([command, str(path)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: %s: 'utf-8' codec can't decode byte 0xe9 in position 9: "
            "invalid continuation byte\n" % path
        )

    @pytest.mark.parametrize("command", [
        ["check"],
        ["solve", "--f", "demand=10"],
        ["sweep", "--axis", "demand", "--from", "1", "--to", "10", "--steps", "4"],
    ])
    def test_byte_order_mark_is_read_past(self, command, tmp_path, capsys):
        # an editor may save UTF-8 with a byte-order mark: the model reads
        # and prints as without it
        text = example_path("power_split").read_bytes()
        outputs = []
        for folder, head in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            path = tmp_path / folder / "power_split.mcd"
            path.parent.mkdir()
            path.write_bytes(head + text)
            code = main([command[0], str(path)] + command[1:])
            outputs.append((code, capsys.readouterr()))
        assert outputs[0][0] == EXIT_OK and outputs[0][1].err == ""
        assert outputs[1] == outputs[0]

    @pytest.mark.parametrize("text, at", [
        ("dp a = wigget\nterm a\n", "1:8"),
        ("model m\ndp a = wigget\nterm a\n", "2:8"),
    ])
    def test_byte_order_mark_moves_no_diagnostic(self, text, at, tmp_path, capsys):
        errs = []
        for name, head in (("plain.mcd", ""), ("bom.mcd", "\ufeff")):
            path = tmp_path / name
            path.write_text(head + text, encoding="utf-8")
            assert main(["check", str(path)]) == EXIT_ERROR
            errs.append(capsys.readouterr().err.replace(str(path), "t.mcd"))
        assert errs == ["t.mcd:%s: error: unknown design problem kind 'wigget'\n" % at] * 2

    def test_word_inf_in_a_point_on_a_chain_axis_is_the_label(self, inf_label_model, capsys):
        assert main(["check", inf_label_model]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == "model: 1 atoms, 1 monotonicity spot-checks passed"
        assert captured.err == ""


class TestSolve:
    def test_feasible_json(self, loop_model, capsys):
        assert main(["solve", loop_model, "--f", "payload=100"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "feasible"
        assert payload["lower"]["antichain"][0][0]["unit"] == "g"

    def test_infeasible_exit(self, loop_model, capsys):
        code = main(["solve", loop_model, "--f", "payload=2000", "--format", "csv"])
        assert code == EXIT_INFEASIBLE
        out = capsys.readouterr().out
        line = out.splitlines()[1]
        assert line.startswith("2000.0,,,infeasible")

    def test_loop_over_two_fed_back_axes(self, tmp_path, capsys):
        path = tmp_path / "join.mcd"
        path.write_text(JOIN_LOOP_MODEL)
        assert main(["solve", str(path), "--f", "g=0"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "feasible"
        three = {"value": 3.0, "unit": "W"}
        for side in ("lower", "upper"):
            assert payload[side]["antichain"] == [[three, three]]
            assert payload[side]["iterations"] == 4

    def test_loop_over_two_fed_back_axes_from_the_library(self):
        model, diags = load_model(JOIN_LOOP_MODEL)
        assert model is not None, diags
        sol = uncertainty.solve_uncertain(
            model.term, model.uvaluation, model.build_query({"g": 0.0}))
        assert sol.verdict == uncertainty.VERDICT_FEASIBLE
        for side in (sol.lower, sol.upper):
            assert side.front.points == {(3.0, 3.0)}
            assert (side.iterations, side.converged) == (4, True)

    def test_distance_beyond_route_bracket_is_infeasible(self, capsys):
        # 30000 km needs velocity * hours above the route bracket's 150 * 150
        code = main([
            "solve", str(example_path("uav")), "--f", "endurance=1",
            "--f", "distance=30000", "--f", "payload=300", "--f", "missions=200",
        ])
        assert code == EXIT_INFEASIBLE
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "infeasible"
        assert payload["lower"]["antichain"] == []
        assert payload["upper"]["antichain"] == []

    def test_zero_gain_affine_at_infinite_demand(self, tmp_path, capsys):
        # 0 * inf is 0 in affine as in map, so only the offset is left
        path = tmp_path / "affine.mcd"
        path.write_text("dp a = affine F(f[W]) R(c[$]) gain 0 offset 5\nterm a\n")
        assert main(["solve", str(path), "--f", "f=inf", "--format", "csv"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1] == "inf,5.0,5.0,feasible,0,0,ok"
        assert captured.err == ""

    def test_chain_number_in_a_point_reads_as_in_the_chain(self, levels_model, capsys):
        # the catalogue's 2 is the chain's element 2, not 2.0
        assert main(["solve", levels_model, "--f", "x=2", "--format", "csv"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1] == "2,2,2,feasible,0,0,ok"

    @pytest.mark.parametrize("label, row", [
        ("nan", "nan,nan,nan,feasible,0,0,ok"),
        ("inf", "inf,2,2,feasible,0,0,ok"),
    ])
    def test_query_reads_a_label_before_a_number(self, label, row, levels_model, capsys):
        code = main(["solve", levels_model, "--f", "x=" + label, "--format", "csv"])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1] == row
        assert captured.err == ""

    @pytest.mark.parametrize("label", ["low", "inf"])
    def test_word_inf_in_a_point_on_a_chain_axis_is_the_label(self, label, inf_label_model,
                                                               capsys):
        code = main(["solve", inf_label_model, "--f", "x=" + label, "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["lower"]["antichain"] == payload["upper"]["antichain"] == ["inf"]

    def test_indeterminate_exit(self, loop_model):
        assert main(["solve", loop_model, "--f", "payload=900"]) == EXIT_INDETERMINATE

    def test_iteration_cap_exit(self, loop_model):
        code = main(["solve", loop_model, "--f", "payload=100", "--max-iter", "1"])
        assert code == EXIT_NO_CONVERGENCE

    def test_axis_by_index_and_unit(self, loop_model):
        assert main(["solve", loop_model, "--f", "1=100[g]"]) == EXIT_OK

    def test_wrong_unit_rejected(self, loop_model, capsys):
        assert main(["solve", loop_model, "--f", "payload=100[W]"]) == EXIT_ERROR
        assert "unit" in capsys.readouterr().err

    def test_unknown_axis_rejected(self, loop_model):
        assert main(["solve", loop_model, "--f", "wingspan=1"]) == EXIT_ERROR

    def test_missing_axis_rejected(self, loop_model):
        assert main(["solve", loop_model]) == EXIT_ERROR

    @pytest.mark.parametrize("second", ["demand=2", "1=2"])
    def test_repeated_axis_rejected(self, split_model, second, capsys):
        code = main(["solve", split_model, "--f", "demand=6", "--f", second])
        assert code == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: axis %r assigned twice\n" % second.split("=")[0]

    def test_csv_header(self, split_model, capsys):
        main(["solve", split_model, "--f", "demand=6", "--format", "csv"])
        out = capsys.readouterr().out.splitlines()
        assert out[0] == (
            "value,lower_front,upper_front,verdict,"
            "iterations_lower,iterations_upper,status"
        )
        assert out[1] == "6.0,7.5,9.0,feasible,0,0,ok"

    @pytest.mark.parametrize("text, args, code, row", [
        (KINDS_MODEL, ["--f", "1=2", "--f", "2=low", "--f", "3=1", "--f", "4=high"], EXIT_OK,
         '"(2.0,low,1.0,high)","(3.0,0.0)","(3.0,0.0)",feasible,0,0,ok'),
        (NO_FUNCTIONALITY_MODEL, [], EXIT_OK,
         '*,"(1.0,high);(3.0,low)","(1.0,high);(3.0,low)",feasible,0,0,ok'),
        (TOP_MODEL, ["--f", "x=1"], EXIT_INFEASIBLE, "1.0,,,infeasible,0,0,ok"),
    ], ids=["constant-bottom-declared-real", "no-functionality", "top"])
    def test_declaration_kinds(self, text, args, code, row, tmp_path, capsys):
        path = tmp_path / "kinds.mcd"
        path.write_text(text)
        assert main(["solve", str(path), *args, "--format", "csv"]) == code
        assert capsys.readouterr().out.splitlines()[1] == row

    def test_no_functionality_query(self):
        model, _ = load_model(NO_FUNCTIONALITY_MODEL)
        assert model.build_query({}) == "*"
        with pytest.raises(DomainError, match="takes no functionality arguments"):
            model.build_query({"1": 2.0})
        with pytest.raises(DomainError, match="takes no functionality arguments"):
            model.axis_index("y")

    @pytest.mark.parametrize("command", [
        ["solve"], ["sweep", "--tolerance", "c=10"], ["sweep", "--axis", "y"],
    ])
    @pytest.mark.parametrize("f", ["1=2", "y=1"])
    def test_no_functionality_arguments(self, command, f, tmp_path, capsys):
        path = tmp_path / "none.mcd"
        path.write_text(NO_FUNCTIONALITY_MODEL)
        args = command[:1] + [str(path), "--f", f] + command[1:]
        assert main(args) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: this model takes no functionality arguments\n"

    def test_check_no_functionality(self, tmp_path, capsys):
        path = tmp_path / "none.mcd"
        path.write_text(NO_FUNCTIONALITY_MODEL)
        assert main(["check", str(path)]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1:] == [
            "functionality: none",
            "resources: y:R+[$], z:lvl",
        ]


UAV = str(example_path("uav"))
UAV_QUERY = ["--f", "endurance=1", "--f", "distance=20", "--f", "payload=300",
             "--f", "missions=200"]
# a solve, and the two sweeps that build new trees for every row
UAV_COMMANDS = {
    "solve": ["solve", UAV, *UAV_QUERY],
    "tolerance": ["sweep", UAV, *UAV_QUERY, "--tolerance", "actuation=40,20"],
    "relax_n": ["sweep", UAV, *UAV_QUERY, "--relax-n", "route=2,8"],
}


class TestIterationCap:
    @pytest.mark.parametrize("name", UAV_COMMANDS)
    def test_environment_does_not_set_the_cap(self, name, monkeypatch, capsys):
        args = UAV_COMMANDS[name]
        plain = main(args), capsys.readouterr()
        monkeypatch.setenv("MCDP_MAX_ITER", "1")
        assert (main(args), capsys.readouterr()) == plain

    @pytest.mark.parametrize("name", UAV_COMMANDS)
    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_cap_below_one_is_a_usage_error(self, name, cap, capsys):
        assert main([*UAV_COMMANDS[name], "--max-iter", cap]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --max-iter must be at least 1\n"

    @pytest.mark.parametrize("endurance", ["5", "8", "12"])
    def test_capped_loop_is_never_feasible(self, endurance, capsys):
        # one Kleene step leaves a non-empty upper iterate, which lies
        # below the least fixed point and so proves nothing
        args = ["solve", UAV, "--f", "endurance=" + endurance, *UAV_QUERY[2:]]
        assert main([*args, "--max-iter", "1"]) == EXIT_NO_CONVERGENCE
        capped = json.loads(capsys.readouterr().out)
        assert capped["upper"]["antichain"] and capped["verdict"] == "indeterminate"
        assert main(args) == EXIT_INFEASIBLE
        assert json.loads(capsys.readouterr().out)["verdict"] == "infeasible"

    @pytest.mark.parametrize("name", ["tolerance", "relax_n"])
    def test_cap_reaches_every_row(self, name, capsys):
        args = [*UAV_COMMANDS[name], "--format", "csv"]

        def iterations():
            rows = capsys.readouterr().out.splitlines()[1:]
            return [row.rsplit(",", 3)[1:3] for row in rows]

        assert main(args) == EXIT_OK
        uncapped = iterations()
        assert len(uncapped) == 2
        assert all(int(n) > 2 for row in uncapped for n in row)
        assert main([*args, "--max-iter", "2"]) == EXIT_OK
        assert iterations() == [["2", "2"]] * 2


class TestSweep:
    def test_axis_sweep_csv(self, split_model, capsys):
        code = main([
            "sweep", split_model,
            "--axis", "demand", "--from", "0", "--to", "8", "--steps", "5",
            "--format", "csv",
        ])
        assert code == EXIT_OK
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 6
        assert rows[1].startswith("0.0,")
        assert rows[-1].startswith("8.0,")

    def test_axis_sweep_needs_bounds(self, split_model):
        assert main(["sweep", split_model, "--axis", "demand"]) == EXIT_ERROR

    @pytest.mark.parametrize("bounds", [("1", "inf"), ("nan", "2")])
    def test_axis_sweep_needs_finite_bounds(self, split_model, bounds, capsys):
        code = main([
            "sweep", split_model, "--axis", "demand",
            "--from", bounds[0], "--to", bounds[1], "--steps", "3",
        ])
        assert code == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --from and --to must be finite\n"

    def test_relax_sweep_lower_ascends(self, split_model, capsys):
        code = main([
            "sweep", split_model,
            "--relax-n", "split=1,2,4,8", "--f", "demand=6", "--format", "csv",
        ])
        assert code == EXIT_OK
        rows = capsys.readouterr().out.splitlines()[1:]
        lowers = [float(r.split(",")[1]) for r in rows]
        assert lowers == sorted(lowers)
        uppers = [float(r.split(",")[2]) for r in rows]
        assert uppers == sorted(uppers, reverse=True)

    def test_relax_sweep_rejects_non_builtin(self, split_model):
        code = main([
            "sweep", split_model, "--relax-n", "solar=1,2", "--f", "demand=6",
        ])
        assert code == EXIT_ERROR

    def test_tolerance_sweep(self, split_model, capsys):
        code = main([
            "sweep", split_model,
            "--tolerance", "solar=1.0,0.5,0.25", "--f", "demand=6",
        ])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["sweep"] == "tolerance:solar"
        assert [row["value"] for row in payload["rows"]] == ["1.0", "0.5", "0.25"]
        assert all(row["status"] == "ok" for row in payload["rows"])

    def test_exactly_one_mode(self, split_model):
        assert main(["sweep", split_model, "--f", "demand=6"]) == EXIT_ERROR
        code = main([
            "sweep", split_model,
            "--axis", "demand", "--from", "0", "--to", "1",
            "--relax-n", "split=1,2",
        ])
        assert code == EXIT_ERROR

    def test_sweep_axis_must_not_be_fixed(self, split_model):
        code = main([
            "sweep", split_model,
            "--axis", "demand", "--from", "0", "--to", "1",
            "--f", "demand=3",
        ])
        assert code == EXIT_ERROR

    def test_bad_sweep_atom_fails_whole_sweep(self, loop_model, split_model, capsys):
        code = main([
            "sweep", loop_model, "--relax-n", "x=1", "--f", "payload=1",
        ])
        assert code == EXIT_ERROR
        code = main([
            "sweep", split_model, "--tolerance", "ghost=0.5", "--f", "demand=1",
        ])
        assert code == EXIT_ERROR

    def test_solve_errors_stay_row_local(self, tmp_path, capsys):
        # sweeping the area below zero gives a non-member query in one row
        path = tmp_path / "times.mcd"
        path.write_text(
            "dp demand = identity R(area[km])\n"
            "dp plan = invtimes_vdc(2, 1.0, 4.0, km, km/h, h)\n"
            "term series(demand, plan)\n"
        )
        code = main([
            "sweep", str(path),
            "--axis", "area", "--from", "2", "--to", "-32", "--steps", "2",
        ])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        statuses = [row["status"] for row in payload["rows"]]
        assert statuses[0] == "ok"
        assert statuses[1].startswith("error:")

    def test_csv_rows_print_as_solved(self, monkeypatch, capsys):
        # the 4th solve fails past the CLI's error handling: the three
        # rows solved before it are already out, the other 99,996 never made
        solve = uncertainty.UncertainDP.solve
        calls = []

        def failing_fourth(udp, *args):
            calls.append(None)
            if len(calls) == 4:
                raise RuntimeError("stop")
            return solve(udp, *args)

        monkeypatch.setattr(uncertainty.UncertainDP, "solve", failing_fourth)
        with pytest.raises(RuntimeError):
            main([
                "sweep", str(example_path("power_split")), "--axis", "demand",
                "--from", "0", "--to", "8", "--steps", "100000", "--format", "csv",
            ])
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("value,lower_front,")
        assert [row.split(",")[0] for row in out[1:]] == [repr(i * 8.0 / 99999) for i in range(3)]
        assert all(row.endswith(",ok") for row in out[1:])

    @pytest.mark.parametrize("mode", [
        ["--relax-n", "split=2,0"],
        ["--tolerance", "solar=1.0,-1.0"],
    ])
    def test_bad_parameter_fails_csv_sweep_before_output(self, split_model, mode, capsys):
        code = main(["sweep", split_model, *mode, "--f", "demand=6", "--format", "csv"])
        assert code == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_json_rows_print_as_solved(self, monkeypatch, capsys):
        # as with CSV: the three rows solved before the 4th solve fails are
        # out, and only the sweep's close is missing
        solve = uncertainty.UncertainDP.solve
        calls = []

        def failing_fourth(udp, *args):
            calls.append(None)
            if len(calls) == 4:
                raise RuntimeError("stop")
            return solve(udp, *args)

        monkeypatch.setattr(uncertainty.UncertainDP, "solve", failing_fourth)
        with pytest.raises(RuntimeError):
            main([
                "sweep", str(example_path("power_split")), "--axis", "demand",
                "--from", "0", "--to", "8", "--steps", "100000",
            ])
        out = capsys.readouterr().out
        payload = json.loads(out + "\n  ]\n}")
        assert payload["sweep"] == "demand"
        assert [row["value"] for row in payload["rows"]] == [repr(i * 8.0 / 99999) for i in range(3)]
        assert all(row["status"] == "ok" for row in payload["rows"])

    @pytest.mark.parametrize("steps", [1, 2, 5])
    def test_json_sweep_prints_one_dump(self, tmp_path, capsys, steps):
        # rows written as they are solved make the bytes of one
        # json.dumps(..., indent=2) of the whole sweep, error rows included
        path = tmp_path / "times.mcd"
        path.write_text(
            "dp demand = identity R(area[km])\n"
            "dp plan = invtimes_vdc(2, 1.0, 4.0, km, km/h, h)\n"
            "term series(demand, plan)\n"
        )
        code = main([
            "sweep", str(path),
            "--axis", "area", "--from", "2", "--to", "-32", "--steps", str(steps),
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_json_sweep_without_rows(self, split_model, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_solve_rows", lambda model, plan, max_iter: iter(()))
        code = main(["sweep", split_model, "--relax-n", "split=1,2", "--f", "demand=6"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out == json.dumps({"sweep": "relax:split", "rows": []}, indent=2) + "\n"

    @pytest.mark.parametrize("mode", [
        ["--relax-n", "split=2,0"],
        ["--tolerance", "solar=1.0,-1.0"],
    ])
    def test_bad_parameter_fails_json_sweep_before_output(self, split_model, mode, capsys):
        code = main(["sweep", split_model, *mode, "--f", "demand=6"])
        assert code == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_closed_stdout_exits_one_without_a_traceback(self):
        # the reader takes one line and goes, as `| head -1` does
        proc = subprocess.Popen(
            [sys.executable, "-m", "mcdsolve", "sweep", str(example_path("power_split")),
             "--axis", "demand", "--from", "1", "--to", "10", "--steps", "3000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            assert proc.stdout.readline() == b"{\n"
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert err == b""
        assert proc.returncode == EXIT_ERROR

    def test_relax_n_rejects_uid(self, capsys):
        code = main([
            "sweep", str(example_path("energy_meter")), "--relax-n", "meter=1,2", "--f", "power=3",
        ])
        assert code == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: 'meter' is not a sampling builtin "
            "(invplus_uniform, invplus_vdc, invtimes_vdc)\n"
        )

    def test_relax_n_count_beyond_float_is_an_error(self, capsys):
        # a count that fits a float would build that many samples, so only
        # one too large for a float is tried here
        code = main([
            "sweep", str(example_path("power_split")),
            "--relax-n", "split=" + "9" * 400, "--f", "demand=6",
        ])
        assert code == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: sample count is too large\n"

    @pytest.mark.parametrize("name", sorted(
        name for name, spec in _BUILTINS.items() if spec.counts_samples
    ))
    def test_every_sampling_builtin_sweeps_relax_n(self, name, tmp_path, capsys):
        # numbers after the sample count are 1, a valid bracket for invtimes_vdc
        args = ", ".join(["2"] + ["1"] * (_BUILTINS[name].numbers - 1))
        path = tmp_path / "one.mcd"
        path.write_text("dp s = %s(%s)\nterm s\n" % (name, args))
        code = main(["sweep", str(path), "--relax-n", "s=1,3", "--f", "f=1", "--format", "csv"])
        assert code == EXIT_OK
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["1", "3"]
        assert all(row.endswith(",ok") for row in rows)


class TestPairReuse:
    """A sweep builds one lower/upper pair per distinct valuation."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        build = uncertainty.evaluate_uncertain

        def counted(term, uvaluation):
            calls.append(uvaluation)
            return build(term, uvaluation)

        monkeypatch.setattr(uncertainty, "evaluate_uncertain", counted)
        return calls

    @pytest.mark.parametrize("mode, expected", [
        (["--axis", "demand", "--from", "0", "--to", "8", "--steps", "5"], 1),
        (["--tolerance", "solar=1.0,0.5,0.25", "--f", "demand=6"], 3),
        (["--relax-n", "split=1,2,4,8", "--f", "demand=6"], 4),
    ])
    def test_builds_per_sweep(self, split_model, builds, mode, expected, capsys):
        assert main(["sweep", split_model, *mode]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert all(row["status"] == "ok" for row in payload["rows"])
        assert len(builds) == expected

    def test_bad_atom_fails_before_any_build(self, split_model, builds, capsys):
        code = main(["sweep", split_model, "--tolerance", "ghost=0.5", "--f", "demand=1"])
        assert code == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ghost" in captured.err
        assert builds == []

    def test_bad_query_fails_only_its_row(self, split_model, builds, capsys):
        code = main([
            "sweep", split_model, "--axis", "demand", "--from", "2", "--to", "-2",
            "--steps", "3",
        ])
        assert code == EXIT_OK
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [row["status"][:6] for row in rows] == ["ok", "ok", "error:"]
        assert len(builds) == 1
        code = main(["sweep", split_model, "--relax-n", "split=1,2", "--f", "demand=-1"])
        assert code == EXIT_OK
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert all(row["status"].startswith("error:") for row in rows)


MEMO_SIZED_CLI = """
import sys
from mcdsolve import cli, dp
dp.MEMO_SIZE = int(sys.argv[1])
sys.exit(cli.main(sys.argv[2:]))
"""
AXIS_SWEEPS = {
    "uav": ["--axis", "endurance", "--from", "0.5", "--to", "3", "--steps", "5", *UAV_QUERY[2:]],
    "power_split": ["--axis", "demand", "--from", "0", "--to", "8", "--steps", "9"],
    "energy_meter": ["--axis", "power", "--from", "0", "--to", "8", "--steps", "9"],
}


class TestDeterminism:
    def _run(self, args, seed):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        return subprocess.run(
            [sys.executable, "-m", "mcdsolve.cli", *args],
            capture_output=True,
            env=env,
        )

    def test_solve_bytes_stable_across_hash_seeds(self, loop_model):
        args = ["solve", loop_model, "--f", "payload=350"]
        a = self._run(args, "0")
        b = self._run(args, "4242")
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode

    def test_sweep_bytes_stable_across_hash_seeds(self, split_model):
        args = [
            "sweep", split_model,
            "--axis", "demand", "--from", "0", "--to", "8",
            "--steps", "5", "--format", "csv",
        ]
        a = self._run(args, "1")
        b = self._run(args, "999")
        assert a.stdout == b.stdout

    @pytest.mark.parametrize("name", sorted(AXIS_SWEEPS))
    def test_axis_sweep_bytes_stable_across_memo_sizes(self, name):
        # every loop-free series node keeps a memo, outside loops too
        outputs = set()
        for size in ("1024", "0"):
            for seed in ("0", "7"):
                done = subprocess.run(
                    [sys.executable, "-c", MEMO_SIZED_CLI, size, "sweep",
                     str(example_path(name)), *AXIS_SWEEPS[name]],
                    capture_output=True,
                    env=dict(os.environ, PYTHONHASHSEED=seed),
                    check=True,
                )
                outputs.add(done.stdout)
        assert len(outputs) == 1 and b'"rows"' in outputs.pop()


# Each random finite instance with a loop inside a loop, solved at every
# query on one reused pair.  Its labels are strings, whose hashes, and so
# the order of a front's points in a set, change with the hash seed; an
# inner loop starts from the front it last found, so the order in which
# an outer step asks it decides its iterations unless that order is fixed.
NESTED_LOOPS = """
import json, random
from mcdsolve.dp import Loop, Par, Series
from mcdsolve.oracle import random_instance, random_ordered_uvaluation
from mcdsolve.uncertainty import evaluate_uncertain

def nested(term, inside=False):
    if isinstance(term, Loop):
        return inside or nested(term.body, True)
    if isinstance(term, (Series, Par)):
        return nested(term.left, inside) or nested(term.right, inside)
    return False

out = {}
for depth in (3, 4):
    rng = random.Random(7)
    nests, fronts, iterations = 0, [], 0
    while nests < 150:
        inst = random_instance(rng, depth=depth)
        if not nested(inst.term):
            continue
        nests += 1
        uval, _ = random_ordered_uvaluation(rng, inst.valuation)
        pair = evaluate_uncertain(inst.term, uval)
        for q in inst.queries:
            sol = pair.solve(q)
            fronts.append([repr(sol.lower.front), repr(sol.upper.front)])
            iterations += sol.lower.iterations + sol.upper.iterations
    out[depth] = {"nests": nests, "fronts": fronts, "iterations": iterations}
print(json.dumps(out))
"""


def test_nested_loops_stable_across_hash_seeds():
    # without a fixed order over a series node's middle front, seeds 0 and
    # 2 count 3402 and 3401 iterations at depth 3; without one over a
    # Kleene step's front, 3863 and 3861 at depth 4
    runs = []
    for seed in ("0", "2"):
        done = subprocess.run(
            [sys.executable, "-c", NESTED_LOOPS],
            capture_output=True,
            env=dict(os.environ, PYTHONHASHSEED=seed),
            check=True,
        )
        runs.append(json.loads(done.stdout))
    assert runs[0]["3"]["nests"] == runs[0]["4"]["nests"] == 150
    assert runs[0] == runs[1]


def loop_nest(levels: int) -> str:
    """levels loops around a map that passes g through; each loop feeds
    back the last functionality axis left by the loops inside it."""
    fed_back = ", ".join("r%d[W]" % i for i in range(levels))
    return "dp h = map F(g[W], %s) R(r[W]) { r = g }\nterm %s%s%s\n" % (
        fed_back, "loop(" * levels, "h", ")" * levels
    )


@pytest.mark.parametrize("cap", [[], ["--max-iter", "3"]])
def test_deep_loop_nest_costs_a_sum_of_iterations(cap, tmp_path, capsys):
    # each inner loop starts from the front it found at the outer loop's
    # last step, so the n = 100 nest takes 5150 iterations a side (20, 65
    # and 135 at n = 5, 10 and 15), not about 2**(n + 1) from the bottom
    path = tmp_path / "nest.mcd"
    path.write_text(loop_nest(100))
    started = time.perf_counter()
    assert main(["solve", str(path), "--f", "g=1", *cap]) == EXIT_OK
    assert time.perf_counter() - started < 5.0
    out = json.loads(capsys.readouterr().out)
    for side in ("lower", "upper"):
        assert out[side]["antichain"] == [{"value": 1.0, "unit": "W"}]
        assert (out[side]["iterations"], out[side]["converged"]) == (5150, True)


class TestArgparse:
    def test_bad_flag_exits_one(self, capsys):
        assert main(["solve", "--nope"]) == EXIT_ERROR

    def test_no_command_exits_one(self, capsys):
        assert main([]) == EXIT_ERROR
