"""The fronts that trees remember: they change no answer, sit in every
series node with no loop below it, and cut the work of a sweep."""

import contextlib
import io
import json
import math
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from mcdsolve import cli, dp
from mcdsolve.antichains import Antichain
from mcdsolve.dp import (
    IdentityDP,
    Loop,
    LoopDP,
    MonotoneMap,
    Par,
    ParDP,
    Series,
    SeriesDP,
    par,
    series,
    solve,
)
from mcdsolve.errors import DomainError
from mcdsolve.examples import example_path, load_example
from mcdsolve.oracle import random_instance, random_ordered_uvaluation
from mcdsolve.posets import FinitePoset, RealPlus, product
from mcdsolve.uncertainty import evaluate_uncertain

EXPECTED = pathlib.Path(__file__).parent / "expected"
R = RealPlus()
THREE = FinitePoset.chain([0, 1, 2], name="three")


def answers(pair, queries, max_iter=None):
    """Everything a solve reports, with fronts by repr so that equal
    values with different representatives (0, 0.0, -0.0) tell apart."""
    out = []
    for f in queries:
        try:
            sol = pair.solve(f, max_iter)
        except DomainError as e:
            out.append(("error", str(e)))
            continue
        out.append(tuple(
            (repr(side.front), side.iterations, side.converged)
            for side in (sol.lower, sol.upper)
        ) + (sol.verdict,))
    return out


def assert_memo_invisible(term, uvaluation, queries, monkeypatch, max_iter=None):
    # one pair per setting, asked every query twice: memos carry over
    twice = list(queries) * 2
    on = answers(evaluate_uncertain(term, uvaluation), twice, max_iter)
    with monkeypatch.context() as m:
        m.setattr(dp, "MEMO_SIZE", 0)  # no memo or catalogue cell stores a front
        off = answers(evaluate_uncertain(term, uvaluation), twice, max_iter)
    assert on == off


def has_loop(term) -> bool:
    if isinstance(term, Loop):
        return True
    if isinstance(term, (Series, Par)):
        return has_loop(term.left) or has_loop(term.right)
    return False


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_memo_invisible_on_random_loops(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, depth=3)
    while not has_loop(inst.term):
        inst = random_instance(rng, depth=3)
    uval, _ = random_ordered_uvaluation(rng, inst.valuation)
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_memo_invisible(inst.term, uval, inst.queries, monkeypatch)


# equal values with different representatives, asked of one reused pair
TWIN_QUERIES = {
    "uav": [
        {"endurance": e, "distance": d, "payload": 300.0, "missions": m}
        for e, d, m in (
            (1.0, 20.0, 200), (1, 20, 200), (0, 20.0, 200), (0.0, 20.0, 200),
            (-0.0, 20.0, 200), (2.5, 20.0, 1000), (2.5, 20.0, 1000.0), (8.0, 20.0, 200),
        )
    ],
    "power_split": [{"demand": v} for v in (6.0, 6, 0, 0.0, -0.0)],
    "energy_meter": [{"power": v} for v in (3.0, 3, 0, -0.0, 0.0, 8.1)],
}


@pytest.mark.parametrize("name", sorted(TWIN_QUERIES))
@pytest.mark.parametrize("max_iter", [None, 2])
def test_memo_invisible_on_examples(name, max_iter, monkeypatch):
    model = load_example(name)
    queries = [model.build_query(q) for q in TWIN_QUERIES[name]]
    assert_memo_invisible(model.term, model.uvaluation, queries, monkeypatch, max_iter)


def passthrough_loop(space, one):
    # (f1, r) -> (f1, one): the front holds f1 as the query gave it, and
    # one moves the ascent off bottom so the front is not bottom's
    both = product(space, space)
    body = series(
        par(IdentityDP(space), IdentityDP(both)),
        MonotoneMap(product(space, both), both, lambda f: (f[0], one)),
    )
    return LoopDP(body)


@pytest.mark.parametrize("space, one, twins, shown", [
    (R, 1.0, [0, 0.0, -0.0, 1, 1.0, 0.0, -0.0, 0], ["(-0.0,1.0)", "(0.0,1.0)"]),
    (THREE, 1, [1, 1.0, 0, 0.0, 2.0, 2, 1.0], ["(1.0,1)", "(1,1)"]),
])
def test_twin_queries_keep_their_representatives(space, one, twins, shown, monkeypatch):
    fronts = {}
    for memos in (True, False):
        lp = passthrough_loop(space, one)
        assert lp.body._memo is not None
        with monkeypatch.context() as m:
            if not memos:
                m.setattr(dp, "MEMO_SIZE", 0)
            fronts[memos] = [repr(solve(lp, f).front) for f in twins]
        assert bool(lp.body._memo) == memos
    assert fronts[True] == fronts[False]
    for text in shown:
        assert "Antichain{%s}" % text in fronts[True]


def composites(node, out, under_loop=False) -> bool:
    """Append (node, under a loop, contains a loop) to out for node and
    every composite below it, and leaves as (leaf, under a loop, None);
    returns whether node contains a loop."""
    if isinstance(node, LoopDP):
        out.append((node, under_loop, True))
        composites(node.body, out, True)
        return True
    if isinstance(node, SeriesDP):
        parts = (node.first, node.second)
    elif isinstance(node, ParDP):
        parts = (node.left, node.right)
    else:
        out.append((node, under_loop, None))
        return False
    loops = any([composites(p, out, under_loop) for p in parts])
    out.append((node, under_loop, loops))
    return loops


class TestWhereMemosSit:
    def test_uav_loop_free_composites_under_the_loop(self):
        model = load_example("uav")
        pair = evaluate_uncertain(model.term, model.uvaluation)
        for side in (pair.lower, pair.upper):
            nodes = []
            composites(side, nodes)
            assert isinstance(side, LoopDP) and getattr(side, "_memo", None) is None
            loop_free = [n for n, under, loops in nodes if under and loops is False]
            assert len(loop_free) == 11
            assert sum(isinstance(n, SeriesDP) for n in loop_free) == 7
            for node, under, loops in nodes:
                if loops is None:  # an atom
                    assert "_memo" not in vars(node), node
                else:
                    want = loops is False and isinstance(node, SeriesDP)
                    assert (getattr(node, "_memo", None) is not None) == want, node

    def test_memo_in_every_loop_free_series_node(self):
        # outside any loop too: a node decides when it is built
        for name in ("power_split", "energy_meter"):
            model = load_example(name)
            pair = evaluate_uncertain(model.term, model.uvaluation)
            for side in (pair.lower, pair.upper):
                nodes = []
                composites(side, nodes)
                chain = [n for n, _, loops in nodes if isinstance(n, SeriesDP)]
                assert chain and all(loops is False for _, _, loops in nodes if loops is not None)
                assert all(n._memo is not None for n in chain), name

    def test_closing_a_loop_changes_nothing_below_it(self):
        model = load_example("uav")
        bodies = evaluate_uncertain(model.term.body, model.uvaluation)
        for body in (bodies.lower, bodies.upper):
            nodes = []
            composites(body, nodes)
            before = [(node, dict(vars(node))) for node, _, _ in nodes]
            LoopDP(body)
            for node, attrs in before:
                now = vars(node)
                assert now.keys() == attrs.keys(), node
                assert all(now[k] is v for k, v in attrs.items()), node

    def test_nested_loop_and_its_ancestors_are_not_memoised(self):
        ladder = FinitePoset.chain([0, 1, 2, 3, 4])
        step = MonotoneMap(product(ladder, ladder), ladder, lambda f: min(f[1] + 1, 2))
        inner = LoopDP(series(IdentityDP(product(ladder, ladder)), step))
        joiner = MonotoneMap(product(ladder, ladder), ladder, lambda f: max(f))
        around = par(inner, IdentityDP(ladder))
        outer = LoopDP(series(around, joiner))
        assert inner.body._memo is not None  # loop-free: memoised when built
        assert not hasattr(around, "_memo") and outer.body._memo is None
        assert getattr(inner, "_memo", None) is None
        assert solve(outer, 0).front.points == {2}


def test_memo_bounded(monkeypatch):
    monkeypatch.setattr(dp, "MEMO_SIZE", 3)
    lp = passthrough_loop(R, 1.0)
    for f in range(10):
        assert solve(lp, float(f)).front.points == {(float(f), 1.0)}
    assert len(lp.body._memo) == 3


def test_error_is_not_remembered():
    calls = []

    def step(f):
        calls.append(f)
        return -1.0 if f[0] >= 1.0 else f[1]

    lp = LoopDP(series(IdentityDP(product(R, R)), MonotoneMap(product(R, R), R, step)))
    for _ in range(2):
        with pytest.raises(DomainError):
            solve(lp, 1.0)
    assert len(calls) == 2  # asked again, raised again


def test_cap_is_per_solve_on_a_reused_tree():
    counter = MonotoneMap(product(R, R), R, lambda f: f[1] + 1.0 if f[1] < 5.0 else f[1])
    lp = LoopDP(series(IdentityDP(product(R, R)), counter))
    capped = solve(lp, 0.0, max_iter=2)
    assert (capped.iterations, capped.converged) == (2, False)
    full = solve(lp, 0.0)
    assert (full.iterations, full.converged, full.front.points) == (6, True, {5.0})
    # the uncapped solve converged at the same query, so the next ascent
    # starts from its front and confirms it in one step
    again = solve(lp, 0.0, max_iter=3)
    assert (again.iterations, again.converged, again.front.points) == (1, True, {5.0})


SWEEP = ["sweep", str(example_path("uav")), "--axis", "endurance", "--from", "0.5",
         "--to", "3", "--steps", "5", "--f", "distance=20", "--f", "payload=300",
         "--f", "missions=200"]
ATOMS = (dp.Catalogue, dp.MonotoneMap, dp.IdentityDP, dp.ConstantResource,
         dp.BottomDP, dp.TopDP)


SWEEP_PINS = [
    ([], "uav_endurance_sweep.json"),
    (["--max-iter", "2"], "uav_endurance_sweep_max_iter_2.json"),
]


def cli_output(args) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(args) == cli.EXIT_OK
    return out.getvalue()


def drop_iterations(text: str) -> dict:
    doc = json.loads(text)
    for row in doc["rows"]:
        for side in ("lower", "upper"):
            del row[side]["iterations"]
    return doc


@pytest.mark.parametrize("extra, expected", SWEEP_PINS)
def test_axis_sweep_work_and_output(extra, expected, monkeypatch):
    calls = [0]
    made = [0]  # Antichain objects; inside the kernel fronts are frozensets

    def counted(fn):
        def wrapper(self, f):
            calls[0] += 1
            return fn(self, f)
        return wrapper

    for cls in ATOMS:
        monkeypatch.setattr(cls, "_eval", counted(cls._eval))
    init, of = Antichain.__init__, Antichain._of.__func__

    def counted_init(self, *args):
        made[0] += 1
        init(self, *args)

    def counted_of(cls, *args):
        made[0] += 1
        return of(cls, *args)

    monkeypatch.setattr(Antichain, "__init__", counted_init)
    monkeypatch.setattr(Antichain, "_of", classmethod(counted_of))
    text = cli_output(SWEEP + extra)
    assert text == (EXPECTED / expected).read_text(encoding="utf-8")
    if not extra:
        assert calls[0] <= 3400  # 5721 without memos and with a tree per row
        assert made[0] <= 100  # 5105 when every node built one
    # the same fronts and verdicts as solving every row on a tree of its
    # own; only the iterations differ, where a row's loop ascent starts
    # from the front an earlier row found
    rows = drop_iterations(text)["rows"]
    for row in rows:
        alone = ["--from", row["value"], "--to", row["value"], "--steps", "1"]
        swept = SWEEP[:SWEEP.index("--from")] + alone + SWEEP[SWEEP.index("--f"):]
        assert drop_iterations(cli_output(swept + extra))["rows"] == [row]


def test_axis_sweep_scans_each_cell_once(monkeypatch):
    # a catalogue scans its rows only for a cell it has not answered yet
    calls, scans = [0], [0]
    cat_eval = dp.Catalogue._eval

    def counted(self, f):
        calls[0] += 1
        if self._cells is None or self._cell(f) not in self._cells:
            scans[0] += 1
        return cat_eval(self, f)

    monkeypatch.setattr(dp.Catalogue, "_eval", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(SWEEP) == cli.EXIT_OK
    # 49 catalogue calls, each a row scan without cells
    assert calls[0] > scans[0]
    assert scans[0] <= 24  # 12 measured


def test_catalogue_cells_bounded(monkeypatch):
    monkeypatch.setattr(dp, "MEMO_SIZE", 3)
    cat = dp.Catalogue(R, R, [(float(i), float(i)) for i in range(10)])
    queries = [i + 0.5 for i in range(9)] + [float(i) for i in range(10)]
    for f in queries + queries[::-1]:
        assert cat.evaluate(f).points == {float(math.ceil(f))}
    assert list(cat._cells) == [(1,), (2,), (3,)]  # the cells of the first three queries


if __name__ == "__main__":
    for extra, expected in SWEEP_PINS:
        (EXPECTED / expected).write_text(cli_output(SWEEP + extra), encoding="utf-8")
