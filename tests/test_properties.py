"""Property tests: the sort-based front minimisation and the catalogue
index against plain pairwise and full-scan references, and the Kleene
loop solver against the definition of a loop."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from mcdsolve.antichains import Antichain, _minimize
from mcdsolve.dp import Catalogue, kleene_solve
from mcdsolve.posets import FinitePoset, ProductPoset, RealPlus

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
        assert same_list(_minimize(points, poset), pairwise_reference(points, poset))

    check()


@PROPERTY
@given(st.lists(st.tuples(st.sampled_from(DIAMOND.elements()), SCALARS), max_size=20))
def test_minimize_matches_pairwise_on_mixed_product(points):
    poset = ProductPoset([DIAMOND, R])
    assert same_list(_minimize(points, poset), pairwise_reference(points, poset))


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
