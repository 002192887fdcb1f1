"""Fronts and rows that are final are handed on, not rebuilt or checked
again: a series node whose middle front is one point returns its second
part's front itself, one whose second part has a point function takes
one call of it per middle point, and catalogue rows that the model
language or scale_catalogue made enter unchecked, while a model's points
are still checked as they are read."""

import collections
import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from mcdsolve import dp, modellang
from mcdsolve.dp import (
    Catalogue,
    IdentityDP,
    LoopDP,
    MonotoneMap,
    ParDP,
    SeriesDP,
    evaluate_term,
    series,
)
from mcdsolve.errors import DomainError
from mcdsolve.examples import EXAMPLE_NAMES, example_path, load_example
from mcdsolve.modellang import load_model
from mcdsolve.oracle import random_instance
from mcdsolve.posets import Poset, RealPlus, product
from mcdsolve.uncertainty import (
    default_query_grid,
    evaluate_uncertain,
    scale_catalogue,
    solve_uncertain,
)

RW = RealPlus("W")
RG = RealPlus("g")
UAV_QUERY = {"endurance": 1.0, "distance": 20.0, "payload": 300.0, "missions": 200}


def min_of_union(node, f) -> list:
    """Min of the union of the second part's fronts over the first
    part's front at f, computed pairwise: of equal points the first is
    kept.  Sorted by the resource space's key."""
    pts = [p for r1 in node.first._eval(f) for p in node.second._eval(r1)]
    unique = list(dict.fromkeys(pts))
    leq = node.ressp.leq
    kept = [p for p in unique if not any(q != p and leq(q, p) for q in unique)]
    return sorted(kept, key=node.ressp.sort_key)


def series_nodes(node):
    if isinstance(node, SeriesDP):
        yield node
        yield from series_nodes(node.first)
        yield from series_nodes(node.second)
    elif isinstance(node, ParDP):
        yield from series_nodes(node.left)
        yield from series_nodes(node.right)
    elif isinstance(node, LoopDP):
        yield from series_nodes(node.body)


class TestSeriesPassThrough:
    def test_one_point_middle_hands_the_second_front_on(self):
        second = MonotoneMap(RG, product(RW, RW), lambda r: [(r, 1.0), (r + 1.0, 0.5)])
        fronts = {}  # the front second gave at each point, as it gave it
        second_eval = second._eval

        def remembered(r):
            fronts[r] = second_eval(r)
            return fronts[r]

        second._eval = remembered
        node = series(MonotoneMap(RW, RG, lambda f: 2.0 * f), second)
        assert node._eval(3.0) is fronts[6.0]
        # the node's memo (every loop-free series node has one) stores
        # and returns that same object
        front = node._eval(4.0)
        assert front is fronts[8.0] and node._eval(4.0) is front

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(st.integers(0, 10**6))
    def test_series_fronts_on_random_finite_instances(self, seed):
        instance = random_instance(random.Random(seed))
        root = evaluate_term(instance.term, instance.valuation)
        for node in series_nodes(root):
            for f in node.funsp.elements():
                got = sorted(node._eval(f), key=node.ressp.sort_key)
                assert repr(got) == repr(min_of_union(node, f)), (seed, f)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.data())
    def test_series_fronts_on_real_fronts_with_signed_zeros(self, data):
        scalar = st.sampled_from([0, 0.0, -0.0, 1, 1.0, 2.5, math.inf])
        mid_space, mid_point = data.draw(
            st.sampled_from([(RG, scalar), (product(RG, RG), st.tuples(scalar, scalar))])
        )
        out_space = product(RW, RW)
        middle = data.draw(st.lists(mid_point, min_size=0, max_size=4))
        table = {}  # repr of a middle point -> the second part's points there

        def second_fn(r):
            key = repr(r)
            if key not in table:
                table[key] = data.draw(st.lists(st.tuples(scalar, scalar), max_size=4))
            return list(table[key])

        node = series(
            MonotoneMap(RW, mid_space, lambda f: list(middle)),
            MonotoneMap(mid_space, out_space, second_fn),
        )
        got = sorted(node._eval(1.0), key=out_space.sort_key)
        assert repr(got) == repr(min_of_union(node, 1.0))

    def test_series_minimises_only_fronts_with_several_middle_points(self, monkeypatch):
        # one lower/upper solve of uav.mcd minimises 146 fronts in
        # SeriesDP._eval; it minimised 441 before one-point middles were
        # handed on
        model = load_model(example_path("uav").read_text(encoding="utf-8"))[0]
        calls = [0]
        minimize, series_eval = dp._minimize, SeriesDP._eval.__code__

        def counted(points, poset):
            calls[0] += sys._getframe(1).f_code is series_eval
            return minimize(points, poset)

        monkeypatch.setattr(dp, "_minimize", counted)
        solve_uncertain(model.term, model.uvaluation, model.build_query(UAV_QUERY))
        assert calls[0] <= 146


def all_nodes(node):
    yield node
    if isinstance(node, SeriesDP):
        yield from all_nodes(node.first)
        yield from all_nodes(node.second)
    elif isinstance(node, ParDP):
        yield from all_nodes(node.left)
        yield from all_nodes(node.right)
    elif isinstance(node, LoopDP):
        yield from all_nodes(node.body)


def grid_answers(term, uvaluation, monkeypatch, points: bool) -> list:
    """Everything a solve reports at each default_query_grid query, on a
    new pair whose nodes keep or lose their point functions."""
    pair = evaluate_uncertain(term, uvaluation)
    if not points:
        for side in (pair.lower, pair.upper):
            for node in all_nodes(side):
                monkeypatch.setattr(node, "point", None)
    out = []
    for f in default_query_grid(pair.funsp):
        try:
            sol = pair.solve(f)
        except DomainError as e:
            out.append(str(e))
            continue
        out.append([(repr(s.front), s.iterations, s.converged) for s in (sol.lower, sol.upper)])
    return out


def assert_points_invisible(term, uvaluation):
    with pytest.MonkeyPatch.context() as monkeypatch:
        with_points = grid_answers(term, uvaluation, monkeypatch, True)
        assert with_points == grid_answers(term, uvaluation, monkeypatch, False)


@st.composite
def point_models(draw):
    """Model text: a random composition of maps, identities, uid and the
    sampled inverses of +, over one to three W axes."""
    decls = []

    def atom(a, b):
        name = "d%d" % len(decls)
        kinds = ["map"]
        if a == b:
            kinds += ["identity", "uid"] if a == 1 else ["identity"]
        if a == 1 and b == 2:
            kinds += ["invplus_vdc", "invplus_uniform"]
        kind = draw(st.sampled_from(kinds))
        xs = ["x%d" % i for i in range(a)]
        if kind == "map":
            outs = []
            for j in range(b):
                u, v = draw(st.sampled_from(xs)), draw(st.sampled_from(xs))
                c = draw(st.sampled_from(["0", "0.5", "1", "2.5"]))
                form = draw(st.sampled_from(["{c} * {u} + {v}", "max({u}, {v}) + {c}",
                                             "min({u}, {v}) * {c}"]))
                outs.append("y%d = " % j + form.format(c=c, u=u, v=v))
            body = "map F(%s) R(%s) { %s }" % (
                ", ".join(x + "[W]" for x in xs),
                ", ".join("y%d[W]" % j for j in range(b)), "; ".join(outs))
        elif kind == "identity":
            body = "identity R(%s)" % ", ".join(x + "[W]" for x in xs)
        elif kind == "uid":
            body = "uid(%s W)" % draw(st.sampled_from(["0.25", "1", "3"]))
        else:
            body = "%s(%d, W)" % (kind, draw(st.integers(1, 9)))
        decls.append("dp %s = %s" % (name, body))
        return name

    def term(a, b, depth):
        kinds = ["atom"]
        if depth:
            kinds += ["series", "par"] if a > 1 and b > 1 else ["series"]
        kind = draw(st.sampled_from(kinds))
        if kind == "series":
            m = draw(st.integers(1, 3))
            return "series(%s, %s)" % (term(a, m, depth - 1), term(m, b, depth - 1))
        if kind == "par":
            a1, b1 = draw(st.integers(1, a - 1)), draw(st.integers(1, b - 1))
            return "par(%s, %s)" % (term(a1, b1, depth - 1), term(a - a1, b - b1, depth - 1))
        return atom(a, b)

    b = draw(st.integers(1, 3))
    if draw(st.booleans()):  # a split fanning out into a part over its two axes
        root = "series(%s, %s)" % (term(1, 2, 0), term(2, b, 3))
    else:
        root = term(draw(st.integers(1, 3)), b, 3)
    return "\n".join(decls + ["term " + root, ""])


class TestPointFunctions:
    @pytest.mark.parametrize("name", EXAMPLE_NAMES)
    def test_examples_answer_the_same_without_point_functions(self, name):
        model = load_example(name)
        assert_points_invisible(model.term, model.uvaluation)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(point_models())
    def test_compositions_answer_the_same_without_point_functions(self, text):
        model, diags = load_model(text)
        assert model is not None, (text, diags)
        assert_points_invisible(model.term, model.uvaluation)

    def test_point_functions_compose(self):
        model = load_example("power_split")
        pair = evaluate_uncertain(model.term, model.uvaluation)
        for side in (pair.lower, pair.upper):
            # series(demand, series(split, series(par(solar, mains), total)))
            rest = side.second.second
            assert side.point is None and side.second.point is None
            assert rest.point((2.0, 4.0)) == 2.0 * 2.0 + 3.0 + 4.0
            assert rest.first.point((2.0, 4.0)) == (4.0, 7.0)
            assert side.first.point is IdentityDP.point

    def test_power_split_costs_the_same_at_any_sample_count(self, monkeypatch):
        # each sample of split costs one call of the point function of the
        # rest of the term, none of its _evals: lower and upper each
        # evaluate split once and two series nodes
        model = load_example("power_split")
        calls = collections.Counter()

        def counted(cls):
            evaluate = cls._eval

            def wrapper(self, f):
                calls[cls.__name__] += 1
                return evaluate(self, f)

            monkeypatch.setattr(cls, "_eval", wrapper)

        for cls in (MonotoneMap, SeriesDP, ParDP):
            counted(cls)
        f = model.build_query({"demand": 10.0})
        for n in (20, 256):
            calls.clear()
            sol = solve_uncertain(model.term, model.override_relaxation("split", n), f)
            assert sol.verdict == "feasible"
            assert calls == {"MonotoneMap": 2, "SeriesDP": 4}, n


class TestCataloguesCheckedOnce:
    def test_uav_load_checks_each_point_once(self, monkeypatch):
        # the battery catalogue's 192 points are checked a column at a
        # time, and no point is checked again on its own
        callers = collections.Counter()
        check_member, columns = Poset.check_member, modellang._column_elements

        def counted(self, x):
            callers[sys._getframe(1).f_code.co_name] += 1
            return check_member(self, x)

        def counted_columns(nodes, space):
            callers["_column_elements"] += len(nodes)
            return columns(nodes, space)

        monkeypatch.setattr(Poset, "check_member", counted)
        monkeypatch.setattr(modellang, "_column_elements", counted_columns)
        model, diags = load_model(example_path("uav").read_text(encoding="utf-8"))
        assert model is not None and diags == []
        assert callers == {"_column_elements": 192}

    @pytest.mark.parametrize("body, at", [
        ("F(f[W]) R(c:lvl) {\n    1.0 -> mid\n}", "3:12"),
        ("F(x:lvl) R(c[W]) {\n    low -> 1.0,\n    mid -> 2.0\n}", "4:5"),
    ])
    def test_model_catalogue_point_outside_its_space_is_a_diagnostic(self, body, at):
        text = "poset lvl = chain {low, high}\ndp c = catalogue %s\nterm c\n" % body
        model, diags = load_model(text)
        assert model is None
        assert [d.format("t.mcd") for d in diags] == [
            "t.mcd:%s: error: 'mid' is not an element of lvl" % at
        ]

    @pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 0.99])
    def test_scaled_sides_match_checked_sides(self, p):
        rows = [
            (0, (0, 3)),
            (0.0, (-0.0, 2.5)),
            (1, (1, 1.0)),
            (2.5, (math.inf, 0.0)),
            (math.inf, (7, math.inf)),
        ]
        cat = Catalogue(RW, product(RG, RG), rows)
        udp = scale_catalogue(cat, p)
        for side, divisor in ((udp.lower, 1 + p), (udp.upper, 1 - p)):
            checked = Catalogue(
                cat.funsp, cat.ressp, [(f, tuple(v / divisor for v in r)) for f, r in rows]
            )
            assert repr(side.entries) == repr(checked.entries)
            for f in (0, 0.5, 1.0, 2.5, 3.0, math.inf):
                assert repr(side.evaluate(f).points) == repr(checked.evaluate(f).points)
