"""The benchmark tracer patches the package's entry points by name: it
must find every one of them, and its undo function must restore them."""

import importlib.util
import json
import pathlib

from mcdsolve import antichains, cli, dp, modellang, posets, uncertainty
from mcdsolve.examples import example_path

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# every object whose attributes the tracer may replace
PATCHED = (
    posets.Poset, posets.RealPlus, posets.FinitePoset, posets.ProductPoset,
    antichains.Antichain, dp.Catalogue, dp.IdentityDP, dp.ConstantResource,
    dp.BottomDP, dp.TopDP, dp.MonotoneMap, dp.SeriesDP, dp.ParDP,
    dp, uncertainty, modellang, cli,
)


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_then_undo_restores_every_attribute(capsys):
    tracing = load_tracing()
    before = [(obj, dict(vars(obj))) for obj in PATCHED]
    named = [(cli, "solve_uncertain"), (cli, "load_model"), (dp.ParDP, "_eval"),
             (dp, "kleene_solve"), (uncertainty, "evaluate_uncertain")]
    originals = [getattr(obj, attr) for obj, attr in named]
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        for (obj, attr), old in zip(named, originals):
            assert getattr(obj, attr) is not old, attr
        tracer.active = True
        code = cli.main(["solve", str(example_path("power_split")), "--f", "demand=6"])
        tracer.active = False
        assert code == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["verdict"] == "feasible"
        assert tracer.count["uncertainty.solve"] == 1
        assert tracer.count["modellang.load"] == 1
        assert tracer.count["dp.compose"] > 0
    finally:
        undo()
    for obj, attrs in before:
        now = vars(obj)
        changed = [k for k, v in attrs.items() if now.get(k, object()) is not v]
        assert changed == [], (obj, changed)
        assert set(now) - set(attrs) == set(), obj


def test_traced_uav_solve_counts_maps_and_relaxations():
    # the drone model's map atoms count under dp.map, its route atom
    # (a sampled relaxation) under relaxations.eval
    tracing = load_tracing()
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        tracer.active = True
        code = cli.main([
            "solve", str(example_path("uav")), "--f", "endurance=1", "--f", "distance=20",
            "--f", "payload=300", "--f", "missions=200",
        ])
        tracer.active = False
    finally:
        undo()
    assert code == cli.EXIT_OK
    assert tracer.count["dp.map"] > 0
    assert tracer.count["relaxations.eval"] > 0
