"""Property tests: the sort-based front minimisation and meets, and the
catalogue index against plain pairwise and full-scan references, the
Kleene loop solver against the definition of a loop, and loops that
start from the front they last found against loops solved afresh."""

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from mcdsolve.antichains import Antichain, _minimize
from mcdsolve.dp import (
    Catalogue,
    IdentityDP,
    Loop,
    LoopDP,
    Par,
    Series,
    kleene_solve,
    par,
)
from mcdsolve.oracle import (
    FiniteInstance,
    brute_compose,
    random_instance,
    random_ordered_uvaluation,
)
from mcdsolve.posets import FinitePoset, ProductPoset, RealPlus
from mcdsolve.relaxations import _meets, vdc
from mcdsolve.uncertainty import UncertainDP, evaluate_uncertain

PROPERTY = settings(max_examples=150, derandomize=True, database=None, deadline=None)

R = RealPlus()
DIAMOND = FinitePoset(
    ["bot", "a", "b", "top"], [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")]
)

# few distinct values, so duplicates and dominated points are common;
# 0, 0.0 and -0.0 are equal values with different representatives
SCALARS = st.one_of(
    st.sampled_from([0, 0.0, -0.0, 1, 1.0, 2, 2.5, 3.0, math.inf]),
    st.integers(min_value=0, max_value=4),
    st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
)


def pairwise_reference(points, poset):
    unique = list(dict.fromkeys(points))
    return [p for p in unique if not any(q != p and poset.leq(q, p) for q in unique)]


def same_list(a, b):
    # equal values, order and representatives (0 vs 0.0 vs -0.0, int vs float)
    return repr(a) == repr(b)


def minimized(points, poset):
    # _minimize hands back a list of its own, even for 0 or 1 points
    out = _minimize(points, poset)
    assert type(out) is list and out is not points
    return out


def real_points(dims):
    point = SCALARS if dims == 1 else st.tuples(*[SCALARS] * dims)
    return st.lists(point, max_size=30)


def real_space(dims):
    return R if dims == 1 else ProductPoset([R] * dims)


@pytest.mark.parametrize("dims", [1, 2, 3])
def test_minimize_matches_pairwise_on_real_fronts(dims):
    poset = real_space(dims)

    @PROPERTY
    @given(real_points(dims))
    def check(points):
        assert same_list(minimized(points, poset), pairwise_reference(points, poset))

    # 0 and 1 points, the fronts most loops meet: one point is written
    # as -0.0, as 1 and as 1.0
    for points in [[]] + [[v if dims == 1 else (v,) * dims] for v in (-0.0, 1, 1.0)]:
        check = example(points)(check)
    check()


@PROPERTY
@given(st.lists(st.sampled_from([0, 0.0, -0.0, 1, 1.0, 2.5]), max_size=12))
@example([])
@example([-0.0])
@example([1])
@example([1.0])
def test_minimize_on_one_real_chain_keeps_the_first_of_equal_values(points):
    assert same_list(minimized(points, R), pairwise_reference(points, R))


DISTINCT = st.lists(
    st.floats(min_value=0.0, allow_nan=False), min_size=1, max_size=20, unique=True
)


def hash_counted():
    # a point type that counts the hashes taken of its points
    calls = [0]

    class Point(tuple):
        __slots__ = ()

        def __hash__(self):
            calls[0] += 1
            return tuple.__hash__(self)

    return Point, calls


@PROPERTY
@given(DISTINCT, DISTINCT, st.randoms(use_true_random=False))
def test_minimize_hands_back_a_minimal_staircase_as_it_is(xs, ys, rng):
    # x ascending and y descending: no point dominates another, in any
    # order; the sort meets equal points side by side, so no dedupe pass
    # hashes a point (a dict took one hash a point)
    Point, calls = hash_counted()
    steps = [Point(p) for p in zip(sorted(xs), sorted(ys, reverse=True))]
    rng.shuffle(steps)
    assert same_list(minimized(steps, real_space(2)), steps)
    assert calls[0] == 0


@PROPERTY
@given(st.tuples(SCALARS, SCALARS), st.lists(st.tuples(SCALARS, SCALARS), max_size=20),
       st.integers(min_value=0, max_value=20))
def test_minimize_drops_all_but_one_point_below_the_rest(least, others, at):
    above = [(max(x, least[0]), max(y, least[1])) for x, y in others]
    points = above[:at] + [least] + above[at:]
    first = next(p for p in points if p == least)  # as written first: 0, 0.0 or -0.0
    assert same_list(minimized(points, real_space(2)), [first])


@PROPERTY
@given(st.lists(st.tuples(st.sampled_from(DIAMOND.elements()), SCALARS), max_size=20))
@example([])
@example([("a", -0.0)])
@example([("top", 1)])
@example([("b", 1.0)])
def test_minimize_matches_pairwise_on_mixed_product(points):
    poset = ProductPoset([DIAMOND, R])
    assert same_list(minimized(points, poset), pairwise_reference(points, poset))
    # and on DIAMOND alone, whose points are labels
    labels = [label for label, _ in points]
    assert same_list(minimized(labels, DIAMOND), pairwise_reference(labels, DIAMOND))


@PROPERTY
@given(st.lists(st.tuples(SCALARS, SCALARS, SCALARS), max_size=30))
def test_pairwise_minimize_tests_each_point_once_when_the_first_dominates(points):
    # each later point is tested against the points kept so far, the first
    # alone, which drops it: n - 1 comparisons, where testing each point
    # against all the others from the start of the list made 2n - 2
    poset = real_space(3)
    calls = [0]
    leq = poset.leq

    def counted(a, b):
        calls[0] += 1
        return leq(a, b)

    poset.leq = counted
    unique = list(dict.fromkeys([(0, 0, 0)] + points))
    assert same_list(_minimize(unique, poset), [(0, 0, 0)])
    assert calls[0] == max(len(unique) - 1, 0)


@pytest.mark.parametrize("n", [1, 2, 20, 256])
@pytest.mark.parametrize("f1", [0.0, 1.5, math.inf])
def test_meets_hash_no_sample_on_two_real_axes(n, f1):
    # the lower samples of relax_plus_vdc, in order of the parameter; at
    # f1 = 0 they are all one point, at f1 = inf most are (inf, inf)
    Point, calls = hash_counted()
    samples = [
        Point((f1 * t if t > 0 else 0.0, f1 * (1 - t) if t < 1 else 0.0))
        for t in sorted(vdc(n) + [0.0, 1.0])
    ]
    meets = _meets(samples, real_space(2))
    assert calls[0] == 0
    distinct = len(set(map(tuple, samples)))
    assert len(meets) == max(distinct - 1, 1)


ROWS = st.lists(
    st.tuples(
        st.tuples(SCALARS, st.sampled_from(DIAMOND.elements())),
        st.tuples(SCALARS, SCALARS),
    ),
    max_size=25,
)


@PROPERTY
@given(ROWS, st.tuples(SCALARS, st.sampled_from(DIAMOND.elements())))
def test_indexed_catalogue_matches_full_scan(rows, query):
    ressp = ProductPoset([R, R])
    for fsp, entries, f in (
        (ProductPoset([R, DIAMOND]), rows, query),
        (R, [(fi[0], r) for fi, r in rows], query[0]),
    ):
        cat = Catalogue(fsp, ressp, entries)
        scanned = Antichain(ressp, [r for fi, r in entries if fsp.leq(f, fi)])
        got = cat.evaluate(f)
        assert got == scanned
        assert same_list(list(got.points), list(scanned.points))


# --- loops ----------------------------------------------------------------
#
# A loop over F(g, a, b) R(a, b): the body is a catalogue, and a and b are
# fed back.  Its front at g is Min{r : some p in h(g, r) has p <= r}, read
# off the rows in the test: a row (fi, ri) puts ri in h(g, r) exactly when
# (g, r) <= fi.  Rows where providing a costs b, or b costs a, make the
# two axes need each other, which is where a step that keeps only the
# outputs above r goes wrong.


@st.composite
def finite_posets(draw, name):
    """Up to four labels above a bottom, ordered only from lower to higher
    index, so chains, diamonds and antichains above the bottom all occur."""
    n = draw(st.integers(min_value=1, max_value=4))
    labels = ["%s%d" % (name, i) for i in range(n)]
    pairs = [(labels[0], x) for x in labels[1:]]
    for i in range(1, n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                pairs.append((labels[i], labels[j]))
    return FinitePoset(labels, pairs)


@st.composite
def loop_rows(draw, g, a, b, a0, b0):
    """Catalogue rows, some then dropped as the oracle's ordered random
    valuations drop them.  g, a and b draw values of the three axes, a
    and b never the bottoms a0 and b0."""
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        kind = draw(st.sampled_from(["a costs b", "b costs a", "any"]))
        if kind == "a costs b":
            rows.append(((draw(g), draw(a), b0), (a0, draw(b))))
        elif kind == "b costs a":
            rows.append(((draw(g), a0, draw(b)), (draw(a), b0)))
        else:
            rows.append(((draw(g), draw(a), draw(b)), (draw(a), draw(b))))
    rng = draw(st.randoms(use_true_random=False))
    return [row for row in rows if rng.random() < 0.75]


def check_loop(axes, rows, queries, candidates):
    funsp, rsp = ProductPoset(axes), ProductPoset(axes[1:])
    body = Catalogue(funsp, rsp, rows)
    for g in queries:
        feasible = [
            r for r in candidates
            if any(funsp.leq((g,) + r, fi) and rsp.leq(ri, r) for fi, ri in rows)
        ]
        report = kleene_solve(body, g)
        assert report.converged
        assert report.front.points == {
            r for r in feasible if not any(q != r and rsp.leq(q, r) for q in feasible)
        }


@st.composite
def finite_loops(draw):
    axes = [draw(finite_posets(name)) for name in "gab"]

    def above_bottom(p):
        return st.sampled_from([x for x in p.elements() if x != p.bottom()] or [p.bottom()])

    g, a, b = axes
    rows = draw(loop_rows(st.sampled_from(g.elements()), above_bottom(a), above_bottom(b),
                          a.bottom(), b.bottom()))
    return axes, rows


@PROPERTY
@given(finite_loops())
def test_kleene_solves_finite_loops_by_their_definition(loop):
    axes, rows = loop
    check_loop(axes, rows, axes[0].elements(), ProductPoset(axes[1:]).elements())


# every value lies on GRID, so the minimal feasible points (row resources)
# do too, and the grid holds them all
GRID = [0.0, 1.0, 2.0, 3.0]
STEP = st.sampled_from(GRID[1:])


@PROPERTY
@given(loop_rows(st.sampled_from(GRID + [math.inf]), STEP, STEP, 0.0, 0.0))
def test_kleene_solves_real_loops_by_their_definition(rows):
    check_loop([R, R, R], rows, GRID + [math.inf], [(a, b) for a in GRID for b in GRID])


# --- loops on a reused pair -------------------------------------------------
#
# A loop starts its ascent from the front it last found when that front's
# query lies below the new one.  Asked in any order, a pair built once
# must give the fronts of a pair built afresh for each query, and a capped
# ascent from a remembered start must stay at or below the loop's front.


def nesting(term) -> int:
    """Most loops on one path from the root of term to a leaf."""
    if isinstance(term, Loop):
        return 1 + nesting(term.body)
    if isinstance(term, (Series, Par)):
        return max(nesting(term.left), nesting(term.right))
    return 0


def in_drawn_order(draw, queries):
    return draw(st.permutations(queries)) + draw(st.lists(st.sampled_from(queries), max_size=4))


def check_reused_pair(build, order, expected, max_iter):
    """build makes a new pair; expected(side, f) is a side's front at f."""
    pair = build()
    for f in order:
        capped = pair.solve(f, max_iter)  # from where the last full solve left off
        sol = pair.solve(f)
        fresh = build().solve(f)
        assert capped.lower.front.leq(sol.lower.front)
        for side in ("lower", "upper"):
            got = getattr(sol, side)
            assert got.converged
            assert repr(got.front) == repr(getattr(fresh, side).front)
            assert repr(got.front) == repr(expected(side, f))
        assert sol.verdict == fresh.verdict


@st.composite
def loop_nests(draw):
    """A random finite instance whose loops nest 1 to 3 deep, an ordered
    uncertain valuation of it, and its queries in a drawn order."""
    levels = draw(st.integers(min_value=1, max_value=3))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    inst = random_instance(rng, depth=4)
    while nesting(inst.term) != levels:
        inst = random_instance(rng, depth=4)
    uvaluation, _ = random_ordered_uvaluation(rng, inst.valuation)
    return inst, uvaluation, in_drawn_order(draw, inst.queries)


@PROPERTY
@given(loop_nests(), st.integers(min_value=1, max_value=2))
def test_reused_pair_solves_loop_nests_like_fresh_pairs(nest, max_iter):
    inst, uvaluation, order = nest
    # the oracle solves each loop level by level from its definition
    brute = {
        side: brute_compose(FiniteInstance(
            inst.term, {k: getattr(u, side) for k, u in uvaluation.items()}, inst.queries
        ))
        for side in ("lower", "upper")
    }
    check_reused_pair(
        lambda: evaluate_uncertain(inst.term, uvaluation), order,
        lambda side, f: brute[side][f], max_iter,
    )


# The real loop over F(g, c, a, b) R(c, a, b): c passes the query g through
# to the front as it was written, and a and b are fed back through
# catalogue rows as above.  Equal queries written differently (0, 0.0 and
# -0.0; 1 and 1.0) must keep their own representatives.
TWINS = [0, 0.0, -0.0, 1, 1.0]


R3 = ProductPoset([R, R, R])


def passthrough_loop(rows):
    return LoopDP(par(IdentityDP(R), Catalogue(R3, ProductPoset([R, R]), rows)))


def real_loop_front(rows, g) -> Antichain:
    rsp = ProductPoset([R, R])
    feasible = [
        (a, b) for a in GRID for b in GRID
        if any(R3.leq((g, a, b), fi) and rsp.leq(ri, (a, b)) for fi, ri in rows)
    ]
    return Antichain(R3, [(g,) + r for r in feasible])


@st.composite
def real_loop_pairs(draw):
    rows = draw(loop_rows(st.sampled_from(GRID + [math.inf]), STEP, STEP, 0.0, 0.0))
    fewer = [row for row in rows if draw(st.booleans())]  # the upper side
    queries = draw(st.lists(st.sampled_from(GRID + [math.inf] + TWINS), min_size=1, max_size=6))
    return rows, fewer, in_drawn_order(draw, queries)


@PROPERTY
@given(real_loop_pairs(), st.integers(min_value=1, max_value=2))
def test_reused_pair_solves_real_loops_like_fresh_pairs(drawn, max_iter):
    rows, fewer, order = drawn
    sides = {"lower": rows, "upper": fewer}
    check_reused_pair(
        lambda: UncertainDP(passthrough_loop(rows), passthrough_loop(fewer)), order,
        lambda side, g: real_loop_front(sides[side], g), max_iter,
    )
