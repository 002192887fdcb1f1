"""Property tests: the sort-based front minimisation and the catalogue
index against plain pairwise and full-scan references."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from mcdsolve.antichains import Antichain, _minimize
from mcdsolve.dp import Catalogue
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
