"""Fronts and rows that are final are handed on, not rebuilt or checked
again: a series node whose middle front is one point returns its second
part's front itself, and catalogue rows that the model language or
scale_catalogue made enter unchecked, while a model's points are still
checked as they are read."""

import collections
import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from mcdsolve import dp, modellang
from mcdsolve.dp import (
    Catalogue,
    LoopDP,
    MonotoneMap,
    ParDP,
    SeriesDP,
    evaluate_term,
    series,
)
from mcdsolve.examples import example_path
from mcdsolve.modellang import load_model
from mcdsolve.oracle import random_instance
from mcdsolve.posets import Poset, RealPlus, product
from mcdsolve.uncertainty import scale_catalogue, solve_uncertain

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
        # a memoised node stores and returns that same object
        node._memo = {}
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
