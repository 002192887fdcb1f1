"""Fronts and rows that are final are handed on, not rebuilt or checked
again: a series node whose middle front is one point returns its second
part's front itself, one whose middle front has several points pushes
them through the point functions heading its second part and runs the
rest only at the minimal images, catalogue rows that the model language
or scale_catalogue made enter unchecked, while a model's points are
still checked as they are read, and each upper node of a pair takes its
interfaces from its lower twin, built in the same walk of the term."""

import collections
import contextlib
import io
import math
import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from mcdsolve import cli, dp, modellang
from mcdsolve.dp import (
    Atom,
    Catalogue,
    IdentityDP,
    Loop,
    LoopDP,
    MonotoneMap,
    Par,
    ParDP,
    Series,
    SeriesDP,
    compile_point,
    evaluate_term,
    series,
    solve,
    term_to_text,
)
from mcdsolve.errors import CodesignError, DomainError
from mcdsolve.examples import EXAMPLE_NAMES, example_path, load_example
from mcdsolve.modellang import load_model
from mcdsolve.oracle import random_instance, random_ordered_uvaluation
from mcdsolve.posets import Poset, RealPlus, product
from mcdsolve.uncertainty import (
    UncertainDP,
    default_query_grid,
    degenerate,
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


def grid_answers(term, uvaluation, monkeypatch, points=True, push=True) -> list:
    """Everything a solve reports at each default_query_grid query, on a
    new pair whose nodes stay pointwise or not (a compiled map that is not
    checks its output), and whose series nodes keep or lose the push of
    their fan-outs (through the pointwise nodes)."""
    pair = evaluate_uncertain(term, uvaluation)
    for side in (pair.lower, pair.upper):
        for node in all_nodes(side):
            if not points:
                monkeypatch.setattr(node, "pointwise", False)
            if not (points and push) and isinstance(node, SeriesDP):
                push_off(monkeypatch, node)
    return answers(pair.lower, pair.upper)


def answers(lower, upper) -> list:
    """(repr of the front, iterations, converged) of each side at each
    default_query_grid query, solved lower first, as a pair solves, or
    the message of the error the query raised."""
    out = []
    for f in default_query_grid(lower.funsp):
        try:
            sols = [solve(lower, f), solve(upper, f)]
        except DomainError as e:
            out.append(str(e))
            continue
        out.append([(repr(s.front), s.iterations, s.converged) for s in sols])
    return out


def push_off(monkeypatch, node):
    """The fan-out of a node built without the push: its second part
    runs at every middle point."""
    monkeypatch.setattr(node, "_rest", node.second)


def assert_answers_unchanged(term, uvaluation, **off):
    with pytest.MonkeyPatch.context() as monkeypatch:
        answers = grid_answers(term, uvaluation, monkeypatch)
        assert answers == grid_answers(term, uvaluation, monkeypatch, **off)


def assert_points_invisible(term, uvaluation):
    assert_answers_unchanged(term, uvaluation, points=False)


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
            fan, rest = side.second, side.second.second
            assert not side.pointwise and not fan.pointwise
            assert rest.pointwise and rest.first.pointwise and fan._rest is None
            assert rest.first._eval((2.0, 4.0)) == {(4.0, 7.0)}
            assert fan._fuse()([(2.0, 4.0)]) == [2.0 * 2.0 + 3.0 + 4.0]
            assert isinstance(side.first, IdentityDP) and side.first.pointwise

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


# a fan-out whose second part holds a loop: split's samples go through
# total's point function, and the loop runs at each of them
LOOP_FAN_OUT = """
dp split = invplus_vdc(4, W)
dp total = map F(a[W], b[W]) R(s[W]) { s = a + b }
dp body = map F(s[W], r[W]) R(r[W]) { r = min(s, r + 1.0) }
term series(split, series(total, loop(body)))
"""

SWEEP = ["sweep", str(example_path("uav")), "--axis", "endurance", "--from", "0.5",
         "--to", "3", "--steps", "5", "--f", "distance=20", "--f", "payload=300",
         "--f", "missions=200"]

PUSHES = {  # bodies of monotone pointwise maps on pairs (see dp.compile_point)
    "min": ((("min", ("x", 0), ("x", 1)),), (("v", 0),), ()),
    "max": ((("max", ("x", 0), ("x", 1)),), (("v", 0),), ()),
    "sum": ((("+", ("x", 0), ("x", 1)),), (("v", 0),), ()),
    "first": ((), (("x", 0),), ()),
}
RESTS = {  # monotone maps of an image to a front
    "pass": lambda x: [(x, 1.0), (x + 1.0, 0.5)],
    "floor": lambda x: [(max(x, 2.5), x)],
    "cap": lambda x: [(min(x, 1.0), 2.5)],
}
ZERO_ONE = st.sampled_from([0, 0.0, -0.0, 1, 1.0, 2.5, math.inf])


class TestFanOut:
    @pytest.mark.parametrize("name", EXAMPLE_NAMES)
    def test_examples_answer_the_same_without_push(self, name):
        model = load_example(name)
        assert_answers_unchanged(model.term, model.uvaluation, push=False)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(point_models())
    def test_compositions_answer_the_same_without_push(self, text):
        model, diags = load_model(text)
        assert model is not None, (text, diags)
        assert_answers_unchanged(model.term, model.uvaluation, push=False)

    def test_fan_out_over_a_loop_visits_every_middle_point(self, monkeypatch):
        # a remembered or skipped point would move the iterations solve
        # reports, so the loop runs at each sample, in repr order
        model, diags = load_model(LOOP_FAN_OUT)
        assert model is not None, diags
        assert_answers_unchanged(model.term, model.uvaluation, push=False)
        root = evaluate_term(model.term, {k: u.upper for k, u in model.uvaluation.items()})
        assert root._rest is root.second
        loop_eval, seen = LoopDP._eval, []

        def counted(self, f1):
            seen.append(f1)
            return loop_eval(self, f1)

        monkeypatch.setattr(LoopDP, "_eval", counted)
        samples = root.first._eval(10.0)
        assert len(samples) > 1
        root._eval(10.0)
        assert seen == sorted((a + b for a, b in samples), key=repr)

    def test_push_composes_the_point_heads_of_a_spine(self):
        # the UAV body's fan-out: power_budget and capacity are pointwise,
        # par(ubattery, idcost) is not and starts the rest
        model = load_example("uav")
        pair = evaluate_uncertain(model.term, model.uvaluation)
        for side in (pair.lower, pair.upper):
            fan = side.body.second
            budget, capacity = fan.second.first, fan.second.second.first
            assert fan._rest is fan.second.second.second
            m = (4.0, 0.5, 12.0, 6.0, 1.0, 200)  # ppcpt, flight, pact, cact, endurance, missions
            assert fan._fuse()([m]) == [capacity.fn(budget.fn(m))] == [(19.0, 200, 6.0)]
        # a second part that is pointwise is all push, and no rest
        split = load_example("power_split")
        node = evaluate_uncertain(split.term, split.uvaluation).upper.second
        assert node._rest is None
        assert node._fuse()([(2.0, 4.0)]) == list(node.second._eval((2.0, 4.0)))
        assert node._fuse()([(2.0, 4.0)]) == [2.0 * 2.0 + 3.0 + 4.0]

    def test_sweep_scans_the_catalogue_at_minimal_images_only(self, monkeypatch):
        calls = [0]
        cat_eval = Catalogue._eval

        def counted(self, f):
            calls[0] += 1
            return cat_eval(self, f)

        monkeypatch.setattr(Catalogue, "_eval", counted)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(SWEEP) == cli.EXIT_OK
        assert calls[0] <= 60  # 49; 399 when the rest ran at every middle point

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        mid=st.lists(st.tuples(ZERO_ONE, ZERO_ONE), min_size=2, max_size=5),
        push=st.sampled_from(sorted(PUSHES)),
        rest=st.sampled_from(sorted(RESTS)),
    )
    @example(mid=[(0, 1.0), (1.0, -0.0)], push="min", rest="pass")
    @example(mid=[(-0.0, 1.0), (1.0, 0.0), (0, 2.5)], push="min", rest="cap")
    @example(mid=[(0.0, 1.0), (1, 0.0)], push="max", rest="floor")
    def test_fan_out_over_signed_zeros(self, mid, push, rest):
        # images equal as values but written 0, 0.0 or -0.0 (or 1 and
        # 1.0): the rest runs at the first of them, which is where a visit
        # of every middle point takes each point of its front from
        mid_space, out_space = product(RG, RG), product(RW, RW)
        node = series(
            MonotoneMap(RW, mid_space, lambda f: list(mid)),
            series(compile_point(mid_space, RG, *PUSHES[push]),
                   MonotoneMap(RG, out_space, RESTS[rest])),
        )
        assert node._rest is node.second.second
        got = node._eval(1.0)
        with pytest.MonkeyPatch.context() as monkeypatch:
            push_off(monkeypatch, node)
            every = node._eval(2.0)  # a new query: the memo keeps 1.0's front
        assert got == every  # as values
        # a rest that writes one value alike from images of different
        # values (cap) keeps the writing of the minimal image's front, see
        # test_an_image_above_another_adds_no_point
        images = set(map(node.second.first.fn, node.first._eval(1.0)))
        if rest != "cap" or len(images) == 1:
            key = out_space.sort_key
            assert repr(sorted(got, key=key)) == repr(sorted(every, key=key))

    def test_an_image_above_another_adds_no_point(self):
        # the rest runs only at the minimal image, so of points equal as
        # values the front keeps the writing that image gives, whatever
        # order the middle front is in
        for mid in ([(1.0, 0.0), (0.0, 1.0)], [(0.0, 1.0), (1.0, 0.0)]):
            node = series(
                MonotoneMap(RW, product(RG, RG), lambda f, mid=mid: list(mid)),
                series(compile_point(product(RG, RG), RG, *PUSHES["first"]),
                       MonotoneMap(RG, RW, lambda x: [-0.0 if x > 0 else 0.0])),
            )
            assert repr(node._eval(1.0)) == "frozenset({0.0})"


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


def two_walks(term, uvaluation) -> tuple:
    """The lower and the upper tree, each built by its own evaluate_term
    walk, every node by its constructor."""
    return tuple(
        evaluate_term(term, {k: getattr(u, side) for k, u in uvaluation.items()})
        for side in ("lower", "upper")
    )


def assert_one_walk_answers_as_two(term, uvaluation):
    pair = evaluate_uncertain(term, uvaluation)
    assert answers(pair.lower, pair.upper) == answers(*two_walks(term, uvaluation))


MALFORMED = [  # (term, the message its lower walk raises)
    (Par(Series(Atom("dbl"), Atom("idg")), Atom("nope")),
     "term.par.right: no design problem named 'nope'"),
    (Par(Atom("idw"), Series(Atom("dbl"), Atom("idw"))),
     "term.par.right: series mismatch: first produces R+[g] but second consumes R+[W]"),
    (Series(Atom("idw"), Loop(Atom("dbl"))),
     "term.series.right: loop mismatch: functionality R+[W] does not end with resources R+[g]"),
]


class TestOneWalk:
    @pytest.mark.parametrize("name", EXAMPLE_NAMES)
    def test_examples_answer_as_two_walks(self, name):
        model = load_example(name)
        assert_one_walk_answers_as_two(model.term, model.uvaluation)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(point_models())
    def test_compositions_answer_as_two_walks(self, text):
        model, diags = load_model(text)
        assert model is not None, (text, diags)
        assert_one_walk_answers_as_two(model.term, model.uvaluation)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(st.integers(0, 10**6))
    def test_random_finite_loops_answer_as_two_walks(self, seed):
        rng = random.Random(seed)
        instance = random_instance(rng)
        while "loop(" not in term_to_text(instance.term):
            instance = random_instance(rng)
        uvaluation, _ = random_ordered_uvaluation(rng, instance.valuation)
        assert_one_walk_answers_as_two(instance.term, uvaluation)

    @pytest.mark.parametrize("term, message", MALFORMED)
    def test_malformed_terms_raise_as_the_lower_walk(self, term, message):
        uvaluation = {
            "dbl": UncertainDP(MonotoneMap(RW, RG, lambda f: f),
                               MonotoneMap(RW, RG, lambda f: 2.0 * f)),
            "idg": degenerate(IdentityDP(RG)),
            "idw": degenerate(IdentityDP(RW)),
        }
        with pytest.raises(CodesignError) as one:
            evaluate_uncertain(term, uvaluation)
        with pytest.raises(CodesignError) as lower:
            evaluate_term(term, {k: u.lower for k, u in uvaluation.items()})
        assert type(one.value) is type(lower.value)
        assert str(one.value) == str(lower.value) == message

    def test_upper_nodes_take_their_interfaces_from_their_lower_twins(self, monkeypatch):
        model = load_example("uav")
        calls = [0]
        loop_signature = dp.loop_signature

        def counted(funsp, ressp):
            calls[0] += 1
            return loop_signature(funsp, ressp)

        monkeypatch.setattr(dp, "loop_signature", counted)
        pair = evaluate_uncertain(model.term, model.uvaluation)
        loops = [node for node in all_nodes(pair.lower) if isinstance(node, LoopDP)]
        assert calls[0] == len(loops) == 1  # each loop's signature is derived once
        twins = [(lo, hi) for lo, hi in zip(all_nodes(pair.lower), all_nodes(pair.upper))
                 if isinstance(lo, (SeriesDP, ParDP, LoopDP))]
        assert len(twins) == 12
        for lo, hi in twins:
            assert type(hi) is type(lo) and hi is not lo  # no node is shared
            assert hi.funsp is lo.funsp and hi.ressp is lo.ressp

    def test_a_loop_on_the_upper_side_only_is_solved_at_every_query(self):
        # the upper atom is a loop and the lower is not: the upper series
        # node above it keeps no memo, so each solve counts its iterations
        # (the second ascent starts from the first's front and confirms it
        # in one step; a remembered front would count none)
        body = MonotoneMap(product(RW, RW), RW, lambda f: f[0])
        uvaluation = {"id": degenerate(IdentityDP(RW)),
                      "u": UncertainDP(IdentityDP(RW), LoopDP(body))}
        pair = evaluate_uncertain(Series(Atom("id"), Atom("u")), uvaluation)
        assert not pair.lower.holds_loop and pair.upper.holds_loop
        assert [pair.solve(1.0).upper.iterations for _ in range(2)] == [2, 1]
