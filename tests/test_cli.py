import json
import os
import subprocess
import sys

import pytest

from mcdsolve import dp, uncertainty
from mcdsolve.cli import (
    EXIT_ERROR,
    EXIT_INDETERMINATE,
    EXIT_INFEASIBLE,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    main,
)
from mcdsolve.examples import example_path
from mcdsolve.modellang import _BUILTINS

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


class TestCheck:
    def test_valid_model(self, loop_model, capsys):
        assert main(["check", loop_model]) == EXIT_OK
        out = capsys.readouterr().out
        assert "monotonicity" in out
        assert "functionality: payload:R+[g]" in out

    @pytest.mark.parametrize("name, lines", [
        ("uav", [
            "uav: 13 atoms, 26 monotonicity spot-checks passed",
            "functionality: endurance:R+[h], distance:R+[km], payload:R+[g], missions:missions",
            "resources: mass:R+[g], cost:R+[$]",
        ]),
        ("energy_meter", [
            "energy_meter: 3 atoms, 6 monotonicity spot-checks passed",
            "functionality: power:R+[W]",
            "resources: cost:R+[$]",
        ]),
        ("power_split", [
            "power_split: 5 atoms, 10 monotonicity spot-checks passed",
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
        ("uav", 794), ("energy_meter", 42), ("power_split", 154),
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

    def test_indeterminate_exit(self, loop_model):
        assert main(["solve", loop_model, "--f", "payload=900"]) == EXIT_INDETERMINATE

    def test_iteration_cap_exit(self, loop_model):
        code = main(["solve", loop_model, "--f", "payload=100", "--max-iter", "1"])
        assert code == EXIT_NO_CONVERGENCE

    def test_env_cap_and_flag_priority(self, loop_model, monkeypatch):
        monkeypatch.setenv("MCDP_MAX_ITER", "1")
        assert main(["solve", loop_model, "--f", "payload=100"]) == EXIT_NO_CONVERGENCE
        code = main(["solve", loop_model, "--f", "payload=100", "--max-iter", "50"])
        assert code == EXIT_OK

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


class TestArgparse:
    def test_bad_flag_exits_one(self, capsys):
        assert main(["solve", "--nope"]) == EXIT_ERROR

    def test_no_command_exits_one(self, capsys):
        assert main([]) == EXIT_ERROR
