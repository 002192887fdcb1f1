import itertools
import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from mcdsolve.errors import DomainError
from mcdsolve.posets import (
    FinitePoset,
    Poset,
    ProductPoset,
    RealPlus,
    arity,
    concat_elements,
    element_parts,
    product,
    split_element,
)


class TestRealPlus:
    def test_order_and_extremes(self):
        p = RealPlus("W")
        assert p.leq(0.0, 3.5)
        assert p.leq(3.5, 3.5)
        assert not p.leq(3.5, 0.0)
        assert p.leq(3.5, math.inf)
        assert p.bottom() == 0.0
        assert p.leq(p.bottom(), math.inf)

    def test_membership(self):
        p = RealPlus()
        assert p.contains(0.0)
        assert p.contains(math.inf)
        assert not p.contains(-1.0)
        assert not p.contains(math.nan)
        assert not p.contains("x")
        with pytest.raises(DomainError):
            p.check_member(-0.5)

    def test_meet_is_min(self):
        p = RealPlus()
        assert p.meet(2.0, 5.0) == 2.0
        assert p.meet(math.inf, 5.0) == 5.0

    def test_joins_is_max(self):
        p = RealPlus()
        assert p.joins(2.0, 5.0) == [5.0]
        assert p.joins(5.0, 2.0) == [5.0]
        assert p.joins(math.inf, 5.0) == [math.inf]

    def test_render_and_format(self):
        p = RealPlus("Wh")
        assert p.render(2.5) == {"value": 2.5, "unit": "Wh"}
        assert p.render(math.inf) == {"value": "inf", "unit": "Wh"}
        assert p.format(2.5) == "2.5"

    def test_equality_by_unit(self):
        assert RealPlus("g") == RealPlus("g")
        assert RealPlus("g") != RealPlus("kg")
        assert hash(RealPlus("g")) == hash(RealPlus("g"))

    def test_not_finite(self):
        assert not RealPlus().is_finite
        with pytest.raises(DomainError):
            RealPlus().elements()


class TestFinitePoset:
    def test_closure(self):
        p = FinitePoset(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert p.leq("a", "c")
        assert not p.leq("c", "a")
        assert p.bottom() == "a"

    def test_antisymmetry_rejected(self):
        with pytest.raises(ValueError, match="antisymmetry"):
            FinitePoset(["a", "b"], [("a", "b"), ("b", "a")])

    def test_unique_bottom_required(self):
        # two minimal elements: no bottom
        with pytest.raises(ValueError, match="least"):
            FinitePoset(["a", "b", "c"], [("a", "c"), ("b", "c")])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FinitePoset(["a", "a"])

    def test_undeclared_pair_rejected(self):
        with pytest.raises(ValueError, match="undeclared"):
            FinitePoset(["a"], [("a", "z")])

    def test_chain(self):
        p = FinitePoset.chain([200, 1000])
        assert p.leq(200, 1000)
        assert not p.leq(1000, 200)
        assert p.elements() == [200, 1000]

    def test_meet_diamond(self):
        diamond = FinitePoset(
            ["bot", "l", "r", "top"],
            [("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")],
        )
        assert diamond.meet("l", "r") == "bot"
        assert diamond.meet("l", "top") == "l"

    def test_joins_diamond(self):
        diamond = FinitePoset(
            ["bot", "l", "r", "top"],
            [("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")],
        )
        assert diamond.joins("l", "r") == ["top"]
        assert diamond.joins("bot", "l") == ["l"]
        assert diamond.joins("r", "r") == ["r"]

    def test_joins_two_minimal_upper_bounds(self):
        # a and b lie below both x and y, which are incomparable
        p = FinitePoset(
            ["bot", "a", "b", "y", "x", "top"],
            [("bot", "a"), ("bot", "b"), ("a", "x"), ("a", "y"), ("b", "x"),
             ("b", "y"), ("x", "top"), ("y", "top")],
        )
        assert p.joins("a", "b") == ["y", "x"]  # in label order
        assert p.joins("x", "y") == ["top"]

    def test_joins_without_upper_bound(self):
        p = FinitePoset(["bot", "a", "b"], [("bot", "a"), ("bot", "b")])
        assert p.joins("a", "b") == []
        assert p.joins("bot", "b") == ["b"]

    def test_meet_without_unique_glb(self):
        # two incomparable lower bounds x and y below both a and b
        p = FinitePoset(
            ["bot", "x", "y", "a", "b"],
            [("bot", "x"), ("bot", "y"), ("x", "a"), ("x", "b"), ("y", "a"), ("y", "b")],
        )
        with pytest.raises(DomainError):
            p.meet("a", "b")

    def test_equality_ignores_name(self):
        p1 = FinitePoset.chain(["a", "b"], name="one")
        p2 = FinitePoset.chain(["a", "b"], name="two")
        assert p1 == p2
        # different declaration order is a different poset presentation
        assert FinitePoset(["a", "b"], [("a", "b")]) != FinitePoset(
            ["b", "a"], [("a", "b")]
        )

    def test_sort_key_declaration_order(self):
        p = FinitePoset(["z", "m", "q"], [("z", "m"), ("z", "q")])
        assert sorted(p.elements(), key=p.sort_key) == ["z", "m", "q"]


class TestProductPoset:
    def test_componentwise_order(self):
        p = product(RealPlus("g"), RealPlus("$"))
        assert p.leq((1.0, 2.0), (1.0, 3.0))
        assert not p.leq((1.0, 3.0), (2.0, 1.0))
        assert p.bottom() == (0.0, 0.0)
        assert p.meet((1.0, 3.0), (2.0, 1.0)) == (1.0, 1.0)

    def test_joins_is_the_product_of_the_factors_joins(self):
        split = FinitePoset(
            ["bot", "a", "b", "x", "y"],
            [("bot", "a"), ("bot", "b"), ("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")],
        )
        p = product(RealPlus("g"), split)
        assert p.joins((1.0, "a"), (3.0, "b")) == [(3.0, "x"), (3.0, "y")]
        assert p.joins((1.0, "a"), (0.5, "a")) == [(1.0, "a")]
        assert p.joins((1.0, "x"), (3.0, "y")) == []
        chain = product(RealPlus("g"), FinitePoset.chain([200, 1000]))
        assert chain.joins((2.0, 1000), (1.0, 200)) == [(2.0, 1000)]

    def test_flattening(self):
        a, b, c = RealPlus("a"), RealPlus("b"), RealPlus("c")
        left_nested = product(product(a, b), c)
        right_nested = product(a, product(b, c))
        assert left_nested.factors == (a, b, c)
        assert left_nested == right_nested
        assert arity(left_nested) == 3
        assert a.real_factors and left_nested.real_factors and right_nested.real_factors
        # elements are flat tuples
        assert left_nested.contains((0.0, 1.0, 2.0))
        assert not left_nested.contains(((0.0, 1.0), 2.0))

    def test_needs_two_factors(self):
        with pytest.raises(ValueError):
            ProductPoset((RealPlus(),))

    def test_mixed_finiteness(self):
        p = product(RealPlus(), FinitePoset.chain(["a", "b"]))
        assert not p.is_finite
        assert not p.real_factors and not product(p, RealPlus()).real_factors
        q = product(FinitePoset.chain(["a", "b"]), FinitePoset.chain([1, 2, 3]))
        assert q.is_finite
        assert len(q.elements()) == 6

    def test_scalar_element_helpers(self):
        r = RealPlus("W")
        p = product(r, RealPlus("h"))
        assert element_parts(r, 5.0) == (5.0,)
        assert element_parts(p, (5.0, 1.0)) == (5.0, 1.0)
        joined = concat_elements(r, 5.0, p, (1.0, 2.0))
        assert joined == (5.0, 1.0, 2.0)
        back = split_element(r, p, joined)
        assert back == (5.0, (1.0, 2.0))
        # splitting a scalar off a scalar gives scalars back
        two = product(r, RealPlus("h"))
        assert split_element(r, RealPlus("h"), (3.0, 4.0)) == (3.0, 4.0)

    def test_render(self):
        p = product(RealPlus("g"), FinitePoset.chain([200, 1000]))
        assert p.render((1.5, 200)) == [{"value": 1.5, "unit": "g"}, 200]
        assert p.format((1.5, 200)) == "(1.5,200)"


class Divides(Poset):
    """1..12 ordered by divisibility: a factor the compiled order reaches
    only through its own leq and joins."""

    def contains(self, x):
        return x in range(1, 13)

    def leq(self, a, b):
        return b % a == 0

    def joins(self, a, b):
        lcm = a * b // math.gcd(a, b)
        return [lcm] if lcm <= 12 else []

    def describe(self):
        return "divides"


# equal values written differently (0, 0.0, -0.0; 1, 1.0), ints, inf and
# floats at the top of the range
REALS = st.one_of(
    st.sampled_from([0, 0.0, -0.0, 1, 1.0, 2, 2.5, math.inf, 1e308, sys.float_info.max]),
    st.integers(min_value=0, max_value=3),
    st.floats(min_value=0.0, allow_nan=False),
)


@st.composite
def non_chains(draw):
    # e0 is the least element; e1 and e2 stay incomparable, since no
    # label lies between them and the pair (1, 2) is never drawn
    n = draw(st.integers(min_value=3, max_value=6))
    more = [(i, j) for i in range(1, n) for j in range(i + 1, n) if (i, j) != (1, 2)]
    pairs = [(0, j) for j in range(1, n)] + draw(st.lists(st.sampled_from(more)) if more
                                                 else st.just([]))
    return FinitePoset(["e%d" % i for i in range(n)], [("e%d" % i, "e%d" % j) for i, j in pairs])


SCALAR_POSETS = st.one_of(st.builds(RealPlus, st.sampled_from(["", "g"])), non_chains(),
                          st.just(Divides()))


def values(p):
    if isinstance(p, RealPlus):
        return REALS
    if isinstance(p, Divides):
        return st.integers(min_value=1, max_value=12)
    return st.sampled_from(p.elements())


@st.composite
def products_and_pairs(draw):
    # two to four parts, each a scalar or a product of two, so products of
    # products arise; the flat product keeps two to five factors
    parts = draw(st.lists(st.one_of(
        SCALAR_POSETS, st.builds(product, SCALAR_POSETS, SCALAR_POSETS)), min_size=2, max_size=4))
    parts = [q for i, q in enumerate(parts) if sum(len(r.factors) for r in parts[:i + 1]) <= 5]
    p = ProductPoset(parts)
    pair = [tuple(draw(values(f)) for f in p.factors) for _ in range(2)]
    return p, pair


class TestCompiledOrder:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(products_and_pairs())
    def test_matches_the_factors_own_order(self, drawn):
        p, (a, b) = drawn
        leq = all(f.leq(u, v) for f, u, v in zip(p.factors, a, b))
        joins = list(itertools.product(*(f.joins(u, v) for f, u, v in zip(p.factors, a, b))))
        # repr tells 0 from 0.0 and -0.0, so each join keeps its writing
        assert repr(p.leq(a, b)) == repr(leq)
        assert repr(p.joins(a, b)) == repr(joins)
        assert repr(p.leq(b, a)) == repr(all(f.leq(v, u) for f, u, v in zip(p.factors, a, b)))

    def test_compiled_on_first_use_not_when_built(self):
        p = product(RealPlus("g"), FinitePoset.chain(["lo", "hi"]))
        assert "leq" not in vars(p) and "joins" not in vars(p)
        assert p.leq((1.0, "lo"), (2, "hi"))
        # both now sit on the product as plain functions
        assert p.leq is p.leq and p.joins is p.joins
        assert p.joins((1.0, "hi"), (2, "lo")) == [(2, "hi")]

    def test_called_through_the_class(self):
        # as bench/tracing.py calls the wrapped ProductPoset.leq and joins
        split = FinitePoset(["bot", "a", "b", "x", "y"], [
            ("bot", "a"), ("bot", "b"), ("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")])
        p, fresh = product(RealPlus("g"), split), product(RealPlus("g"), split)
        described, hashed = p.describe(), hash(p)
        for a, b in [((1.0, "a"), (3, "b")), ((1, "a"), (0.5, "x")), ((1.0, "bot"), (1, "a"))]:
            assert ProductPoset.leq(fresh, a, b) == p.leq(a, b)
            assert ProductPoset.joins(fresh, a, b) == p.joins(a, b)
            assert ProductPoset.leq(p, a, b) == p.leq(a, b)
        assert (p.describe(), hash(p)) == (described, hashed)
        assert p == fresh and hash(p) == hash(fresh)
        # equal finite factors with different names: each product keeps its own
        one = FinitePoset.chain(["lo", "hi"], name="one")
        two = FinitePoset.chain(["lo", "hi"], name="two")
        p1, p2 = product(RealPlus(), one), product(RealPlus(), two)
        assert p1.leq((0, "lo"), (0, "hi")) and p2.leq((0, "lo"), (0, "hi"))
        assert p1 == p2 and hash(p1) == hash(p2)
        assert (p1.describe(), p2.describe()) == ("R+ x one", "R+ x two")
