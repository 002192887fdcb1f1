import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from mcdsolve.antichains import Antichain
from mcdsolve.dp import (
    Atom,
    BottomDP,
    Catalogue,
    ConstantResource,
    IdentityDP,
    Loop,
    MonotoneMap,
    Par,
    Series,
    TopDP,
    UNIT_POSET,
    dp_leq,
    evaluate_term,
    find_monotonicity_violation,
    kleene_solve,
    loop,
    loop_signature,
    par,
    series,
    solve,
    term_to_text,
)
from mcdsolve.errors import CompositionError, DomainError
from mcdsolve.oracle import brute_lfp, random_instance
from mcdsolve.posets import FinitePoset, ProductPoset, RealPlus, concat_elements, product

RW = RealPlus("W")
RG = RealPlus("g")
RD = RealPlus("$")


def doubler():
    return MonotoneMap(RW, RW, lambda f: 2.0 * f)


class TestAtoms:
    def test_monotone_map_point(self):
        d = doubler()
        assert d.evaluate(3.0).points == {6.0}

    def test_monotone_map_multipoint(self):
        split = MonotoneMap(RW, product(RG, RD), lambda f: [(f, 0.0), (0.0, f)])
        assert split.evaluate(2.0).points == {(2.0, 0.0), (0.0, 2.0)}

    def test_monotone_map_rejects_bad_query(self):
        with pytest.raises(DomainError):
            doubler().evaluate(-1.0)

    def test_catalogue(self):
        cat = Catalogue(RW, RG, [(1.0, 100.0), (2.0, 150.0), (4.0, 300.0)])
        assert cat.evaluate(0.0).points == {100.0}
        assert cat.evaluate(1.5).points == {150.0}
        assert cat.evaluate(4.0).points == {300.0}
        assert cat.evaluate(4.5).points == set()

    def test_catalogue_keeps_pareto_choices(self):
        cat = Catalogue(
            RW,
            product(RG, RD),
            [(1.0, (100.0, 1.0)), (1.0, (50.0, 3.0))],
        )
        assert cat.evaluate(1.0).points == {(100.0, 1.0), (50.0, 3.0)}

    def test_constant_resource_default_funsp(self):
        front = Antichain(RG, [5.0])
        c = ConstantResource(front)
        assert c.funsp == UNIT_POSET
        assert c.evaluate("*").points == {5.0}

    def test_bottom_top_identity(self):
        assert BottomDP(RW, RG).evaluate(9.9).points == {0.0}
        assert TopDP(RW, RG).evaluate(0.0).points == set()
        assert IdentityDP(RG).evaluate(7.0).points == {7.0}


class TestComposition:
    def test_series(self):
        halver = MonotoneMap(RW, RW, lambda f: 0.5 * f)
        s = series(doubler(), halver)
        assert s.evaluate(3.0).points == {3.0}

    def test_series_space_mismatch(self):
        with pytest.raises(CompositionError):
            series(doubler(), IdentityDP(RG))

    def test_series_propagates_infeasible(self):
        cat = Catalogue(RW, RG, [(1.0, 10.0)])
        s = series(doubler(), series(IdentityDP(RW), IdentityDP(RW)))
        assert s.evaluate(2.0).points == {4.0}
        s2 = series(cat, IdentityDP(RG))
        assert s2.evaluate(5.0).points == set()

    def test_par(self):
        p = par(doubler(), IdentityDP(RG))
        assert p.funsp.factors == (RW, RG)
        assert p.evaluate((2.0, 3.0)).points == {(4.0, 3.0)}

    def test_par_cross_of_fronts(self):
        left = Catalogue(RW, RG, [(1.0, (10.0)), (1.0, 10.0)])
        a = MonotoneMap(RW, product(RG, RD), lambda f: [(f, 1.0), (1.0, f)])
        b = MonotoneMap(RW, RG, lambda f: f)
        p = par(a, b)
        front = p.evaluate((3.0, 2.0))
        assert front.points == {(3.0, 1.0, 2.0), (1.0, 3.0, 2.0)}

    def test_loop_signature_validation(self):
        body = MonotoneMap(product(RW, RG), RG, lambda f: f[0] + f[1])
        sp = loop_signature(body.funsp, body.ressp)
        assert sp == (RW, RG)
        # resources not a suffix of functionality
        bad = MonotoneMap(product(RW, RG), RD, lambda f: 1.0)
        with pytest.raises(CompositionError):
            loop_signature(bad.funsp, bad.ressp)
        # nothing left over once the feedback is removed
        same = IdentityDP(RG)
        with pytest.raises(CompositionError):
            loop_signature(same.funsp, same.ressp)


FIVE = FinitePoset.chain([0, 1, 2, 3, 4], name="five")


def ladder_body():
    # f(x) = min(x+1, 2): lfp over {0..4} starting at 0 is 2
    return MonotoneMap(
        product(FIVE, FIVE), FIVE, lambda f: min(max(f[0], f[1]) + 1, 2)
    )


class TestKleene:
    def test_three_step_chain(self):
        report = kleene_solve(ladder_body(), 0, keep_history=True)
        assert report.front.points == {2}
        assert report.iterations == 3
        assert report.converged
        hist = [sorted(a.points) for a in report.history]
        assert hist == [[0], [1], [2], [2]]

    def test_report_repr_leaves_history_out(self):
        report = kleene_solve(ladder_body(), 0, keep_history=True)
        assert repr(report) == "SolveReport(front=Antichain{2}, iterations=3, converged=True)"

    def test_ascending_history(self):
        report = kleene_solve(ladder_body(), 0, keep_history=True)
        for earlier, later in zip(report.history, report.history[1:]):
            assert earlier.leq(later)

    def test_fixed_point_at_bottom(self):
        body = MonotoneMap(product(FIVE, FIVE), FIVE, lambda f: f[0])
        report = kleene_solve(body, 0)
        assert report.front.points == {0}
        assert report.iterations == 1
        assert report.converged

    def test_iteration_cap(self):
        counter = RealPlus()
        body = MonotoneMap(
            product(counter, counter), counter, lambda f: f[1] + 1.0
        )
        report = kleene_solve(body, 0.0, max_iter=5)
        assert not report.converged
        assert report.iterations == 5
        # capped result is still a valid lower bound of the (empty) answer
        assert report.front.points == {5.0}

    def test_infeasible_loop_converges_empty(self):
        body = TopDP(product(RW, RG), RG)
        report = kleene_solve(body, 1.0)
        assert report.converged
        assert report.front.points == set()
        assert not report.feasible

    def test_loop_step_single_application(self):
        report = kleene_solve(ladder_body(), 0, keep_history=True)
        assert report.history[1].points == {1}

    def test_loop_dp_equals_kleene(self):
        lp = loop(ladder_body())
        assert lp.evaluate(0).points == {2}

    def test_step_joins_points_that_need_each_other(self):
        # p01 asks for p02 and p02 for p01; only their join p03 is feasible
        square = FinitePoset(
            ["p00", "p01", "p02", "p03"],
            [("p00", "p01"), ("p00", "p02"), ("p01", "p03"), ("p02", "p03")],
        )
        body = Catalogue(product(square, square), square, [
            (("p00", "p00"), "p01"), (("p00", "p01"), "p02"),
            (("p00", "p02"), "p01"), (("p00", "p03"), "p03"),
        ])
        report = kleene_solve(body, "p00", keep_history=True)
        assert [a.points for a in report.history] == [
            {"p00"}, {"p01", "p02"}, {"p03"}, {"p03"}]
        assert report.converged
        assert brute_lfp(body, "p00").points == {"p03"}


class TestSolveAggregation:
    def test_loop_free_reports_zero_iterations(self):
        report = solve(doubler(), 3.0)
        assert report.front.points == {6.0}
        assert report.iterations == 0
        assert report.converged

    def test_single_loop(self):
        report = solve(loop(ladder_body()), 0)
        assert report.front.points == {2}
        assert report.iterations == 3
        assert report.converged

    def test_nested_loops_sum_iterations(self):
        inner = loop(ladder_body())  # 3 iterations at f1=0
        joiner = MonotoneMap(
            product(FIVE, FIVE), FIVE, lambda f: min(max(f[0], f[1]) + 1, 3)
        )
        outer_body = series(par(inner, IdentityDP(FIVE)), joiner)
        report = solve(loop(outer_body), 0)
        assert report.converged
        assert report.front.points == {3}
        # inner loop re-solved on every outer evaluation: the outer loop's
        # 2 steps, 3 inner iterations under the first and 1 under the
        # second, which starts from the front the first found
        assert report.iterations == 6

    def test_warm_start_keeps_the_representative_of_a_cold_one(self):
        # from the front found at 0 the ascent at 1 meets the body's 1 at
        # once, equal to the start's 1.0; it must return the 1 it found
        three = FinitePoset.chain([0, 1, 2])
        body = MonotoneMap(product(three, three), three, lambda f: max(f[0], 1.0))
        warm = loop(body)
        assert repr(solve(warm, 0).front) == "Antichain{1.0}"
        assert repr(solve(warm, 1).front) == repr(solve(loop(body), 1).front) == "Antichain{1}"

    @pytest.mark.parametrize(
        "seed, query, iterations",
        [(48, ("p00", "p10"), 7), (60, ("p01", "p10"), 7), (422, ("p00", "p10"), 11)],
    )
    def test_kleene_step_evaluates_the_body_once_per_point(self, seed, query, iterations):
        # within one solve the Kleene step evaluates the body once at each
        # point; evaluating it again re-solves the inner loops, which gives
        # the same front but counts 8, 8 and 13 iterations here
        inst = random_instance(random.Random(seed), depth=4)
        report = solve(evaluate_term(inst.term, inst.valuation), query)
        assert report.iterations == iterations

    def test_par_solves_its_right_loop_when_the_left_is_infeasible(self):
        alone = solve(loop(ladder_body()), 0)
        report = solve(par(TopDP(RW, RG), loop(ladder_body())), (1.0, 0))
        assert report.front.points == set()
        assert report.iterations == alone.iterations == 3
        assert report.converged

    def test_max_iter_override_reaches_inner_loops(self):
        counter = RealPlus()
        diverging = loop(
            MonotoneMap(product(counter, counter), counter, lambda f: f[1] + 1.0)
        )
        report = solve(diverging, 0.0, max_iter=4)
        assert not report.converged
        assert report.iterations == 4

    def test_to_json_shape(self):
        report = solve(doubler(), 1.5)
        js = report.to_json()
        assert js == {
            "feasible": True,
            "antichain": [{"value": 3.0, "unit": "W"}],
            "iterations": 0,
            "converged": True,
        }


class TestEntryChecks:
    # values are checked where they enter; composites pass them on unchecked

    def test_map_output_outside_resources(self):
        for bad in (-1.0, math.nan):
            m = MonotoneMap(RW, RW, lambda f, bad=bad: bad)
            with pytest.raises(DomainError):
                m.evaluate(1.0)

    def test_bad_map_output_deep_inside_series(self):
        for bad in (-1.0, math.nan):
            # fine at the query itself, bad once doubled twice
            sink = MonotoneMap(RW, RW, lambda f, bad=bad: bad if f > 2.0 else f)
            fan = MonotoneMap(RW, product(RW, RG), lambda f: (2.0 * f, f))
            deep = series(
                fan,
                series(par(doubler(), IdentityDP(RG)), par(sink, IdentityDP(RG))),
            )
            assert deep.evaluate(0.5).points == {(2.0, 0.5)}
            with pytest.raises(DomainError):
                deep.evaluate(1.0)
            with pytest.raises(DomainError):
                solve(deep, 1.0)

    def test_bad_map_output_deep_inside_loop(self):
        for bad in (-1.0, math.nan):
            # the ascent 0 -> 1 -> 2 reaches the bad branch on its third step
            step = MonotoneMap(
                product(RW, RW), RW, lambda f, bad=bad: bad if f[1] >= 2.0 else f[1] + 1.0
            )
            body = series(IdentityDP(product(RW, RW)), step)
            with pytest.raises(DomainError):
                solve(series(doubler(), loop(body)), 1.0)
            with pytest.raises(DomainError):
                kleene_solve(body, 1.0)

    def test_catalogue_row_outside_spaces(self):
        for rows in (
            [(1.0, -5.0)],
            [(1.0, 5.0), (2.0, math.nan)],
            [(-1.0, 5.0)],
            [(math.nan, 5.0)],
            [(1.0, (5.0, 1.0))],
            [((1.0, 2.0), 5.0)],
        ):
            with pytest.raises(DomainError):
                Catalogue(RW, RG, rows)
        with pytest.raises(DomainError):
            Catalogue(product(RW, FIVE), RG, [((1.0, 7), 5.0)])

    def test_non_member_query(self):
        cat = Catalogue(RW, RG, [(1.0, 10.0), (2.0, 5.0)])
        for dp, bad in (
            (doubler(), -1.0),
            (cat, -1.0),
            (cat, math.nan),
            (cat, "1.0"),
            (series(doubler(), cat), -0.5),
            (par(doubler(), cat), (1.0, -1.0)),
            (loop(ladder_body()), 7),
        ):
            with pytest.raises(DomainError):
                dp.evaluate(bad)
            with pytest.raises(DomainError):
                solve(dp, bad)
        with pytest.raises(DomainError):
            kleene_solve(ladder_body(), 7)


class TestTerms:
    def test_atoms_and_text(self):
        t = Loop(Series(Atom("a"), Par(Atom("b"), Atom("c"))))
        assert term_to_text(t) == "loop(series(a, par(b, c)))"

    def test_evaluate_term(self):
        t = Series(Atom("dbl"), Atom("dbl"))
        dp = evaluate_term(t, {"dbl": doubler()})
        assert dp.evaluate(1.0).points == {4.0}

    def test_missing_atom(self):
        with pytest.raises(DomainError, match="term: no design problem named 'dbl'"):
            evaluate_term(Atom("dbl"), {})

    def test_error_names_failing_subterm(self):
        t = Loop(Series(Atom("dbl"), Atom("wrong")))
        with pytest.raises(CompositionError, match=r"term\.loop: series mismatch"):
            evaluate_term(t, {"dbl": doubler(), "wrong": IdentityDP(RG)})

    def test_span_takes_no_part_in_eq_hash_or_repr(self):
        here = Series(Atom("a", span=0), Loop(Atom("b"), span=9), span=3)
        code = Series(Atom("a"), Loop(Atom("b")))
        assert here == code
        assert hash(here) == hash(code)
        assert repr(here) == repr(code)
        assert {here: 1}[code] == 1

    def test_fields_and_type_decide_eq_and_repr(self):
        assert Series(Atom("a"), Atom("b")) != Par(Atom("a"), Atom("b"))
        assert Series(Atom("a"), Atom("b")) != Series(Atom("b"), Atom("a"))
        assert repr(Series(Atom("a"), Atom("b"), span=3)) == (
            "Series(left=Atom(name='a'), right=Atom(name='b'))"
        )
        assert repr(Loop(Atom("a"))) == "Loop(body=Atom(name='a'))"


class TestOrderAndMonotonicity:
    def test_dp_leq(self):
        cheap = MonotoneMap(RW, RG, lambda f: f)
        pricey = MonotoneMap(RW, RG, lambda f: 2.0 * f)
        assert dp_leq(cheap, pricey, fs=[0.0, 1.0, 3.0])
        assert not dp_leq(pricey, cheap, fs=[1.0])

    def test_find_monotonicity_violation(self):
        broken = MonotoneMap(RW, RG, lambda f: 1.0 if f < 2.0 else 0.5)
        witness = find_monotonicity_violation(broken, fs=[0.0, 1.0, 2.0, 3.0])
        assert witness is not None
        f, g = witness
        assert f <= g

    def test_monotone_passes(self):
        assert find_monotonicity_violation(doubler(), fs=[0.0, 1.0, 2.0]) is None


# Fronts with equal values of different representation (0, 0.0, -0.0;
# 1, 1.0) on real, finite non-chain and mixed spaces.
DIAMOND = FinitePoset([0, 1, 2, 3], [(0, 1), (0, 2), (1, 3), (2, 3)], name="diamond")
REAL_TWINS = st.sampled_from([0, 0.0, -0.0, 1, 1.0, 2.5, math.inf])
LABEL_TWINS = st.sampled_from([0, 0.0, 1, 1.0, 2, 2.0, 3])
SIDES = [
    (RW, REAL_TWINS),
    (DIAMOND, LABEL_TWINS),
    (product(RW, RG), st.tuples(REAL_TWINS, REAL_TWINS)),
    (product(RW, DIAMOND), st.tuples(REAL_TWINS, LABEL_TWINS)),
]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_par_front_is_the_cross_of_its_parts(data):
    parts = []
    for _ in range(2):
        space, point = data.draw(st.sampled_from(SIDES))
        pts = data.draw(st.lists(point, max_size=4))
        parts.append(MonotoneMap(RW, space, lambda f, pts=pts: list(pts)))
    left, right = parts
    fl, fr = data.draw(REAL_TWINS), data.draw(REAL_TWINS)
    got = [repr(p) for p in par(left, right).evaluate((fl, fr)).points]
    a, b = left.evaluate(fl), right.evaluate(fr)
    assert got == [repr(p) for p in a.cross(b).points]
    # the same front built point by point through the checked constructor
    ref = Antichain(
        product(a.poset, b.poset),
        [concat_elements(a.poset, x, b.poset, y) for x in a for y in b],
    )
    assert got == [repr(p) for p in ref.points]


# Catalogues over real and chain axes: equal rows written as 1 and 1.0,
# rows at infinity, duplicate rows.  FIVE's order is the numbers' order.
ROW_REALS = [0, 0.0, -0.0, 1, 1.0, 2.5, 4, 4.0, math.inf]
ROW_LABELS = [0, 1, 1.0, 2, 3.0, 4]


def _coords(x):
    return x if isinstance(x, tuple) else (x,)


def _below(a, b):
    return all(u <= v for u, v in zip(_coords(a), _coords(b)))


def _reference_front(rows, f) -> frozenset:
    """Min{r_i : f <= f_i}, scanning every row: of equal points the first
    is kept, and the points are in row order."""
    unique = list(dict.fromkeys(r for fi, r in rows if _below(f, fi)))
    return frozenset(p for p in unique if not any(q != p and _below(q, p) for q in unique))


def _axis_queries(axis, values):
    """Query values on one axis: the rows' own, between them, 0, -0.0,
    above the largest and inf."""
    if axis == FIVE:
        return ROW_LABELS + [2.0, 4.0]
    cuts = sorted(set(values) - {math.inf})
    between = [(a + b) / 2 for a, b in zip(cuts, cuts[1:])]
    return values + between + [0, -0.0, (cuts[-1] if cuts else 0) + 1.5, math.inf]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_catalogue_answers_as_a_full_scan(data):
    def space(axes):
        return axes[0] if len(axes) == 1 else ProductPoset(axes)

    def point(axes):
        coords = tuple(
            data.draw(st.sampled_from(ROW_REALS if a == RW else ROW_LABELS)) for a in axes
        )
        return coords if len(axes) > 1 else coords[0]

    faxes = data.draw(st.lists(st.sampled_from([RW, FIVE]), min_size=1, max_size=3))
    raxes = data.draw(st.lists(st.sampled_from([RW, FIVE]), min_size=1, max_size=2))
    rows = [(point(faxes), point(raxes)) for _ in range(data.draw(st.integers(0, 8)))]
    rows += data.draw(st.lists(st.sampled_from(rows), max_size=3)) if rows else []
    cat = Catalogue(space(faxes), space(raxes), rows)
    per_axis = [
        _axis_queries(a, [_coords(fi)[j] for fi, _ in rows]) for j, a in enumerate(faxes)
    ]
    queries = [c if len(c) > 1 else c[0] for c in itertools.product(*per_axis)]
    if len(queries) > 40:
        queries = data.draw(st.lists(st.sampled_from(queries), min_size=40, max_size=40))
    # a shuffled order: each cell is filled by whichever query comes first
    for f in data.draw(st.permutations(queries)) + queries:
        assert repr(cat.evaluate(f).points) == repr(_reference_front(rows, f)), f
