import math

import pytest

from mcdsolve.antichains import Antichain
from mcdsolve.errors import DomainError
from mcdsolve.posets import FinitePoset, RealPlus, product

R2 = product(RealPlus("g"), RealPlus("$"))


def ac(*points):
    return Antichain(R2, points)


class TestConstruction:
    def test_minimizes(self):
        a = ac((1.0, 2.0), (2.0, 3.0), (0.5, 5.0))
        assert a.points == frozenset({(1.0, 2.0), (0.5, 5.0)})
        assert ac((1.0, 2.0), (1.0, 1.0)).points == frozenset({(1.0, 1.0)})

    def test_deduplicates(self):
        a = ac((1.0, 1.0), (1.0, 1.0))
        assert len(a.points) == 1

    def test_empty_is_allowed(self):
        assert ac().points == frozenset()

    def test_rejects_non_member(self):
        with pytest.raises(DomainError):
            Antichain(R2, [(-1.0, 0.0)])
        with pytest.raises(DomainError):
            Antichain(RealPlus(), [math.nan])


class TestOrder:
    def test_reverse_inclusion(self):
        # a smaller/cheaper front serves every demand the worse one does
        better = ac((1.0, 1.0))
        worse = ac((2.0, 2.0))
        assert better.leq(worse)
        assert not worse.leq(better)

    def test_incomparable(self):
        a = ac((1.0, 3.0))
        b = ac((3.0, 1.0))
        assert not a.leq(b)
        assert not b.leq(a)

    def test_empty_is_top(self):
        assert ac((5.0, 5.0)).leq(ac())
        assert not ac().leq(ac((5.0, 5.0)))
        assert ac().leq(ac())

    def test_bottom_antichain_is_least(self):
        least = ac(R2.bottom())
        assert least.leq(ac((3.0, 0.5)))
        assert least.leq(ac())

    def test_multipoint_domination(self):
        front = ac((1.0, 4.0), (4.0, 1.0))
        assert front.leq(ac((2.0, 4.0)))
        assert front.leq(ac((4.0, 2.0), (1.5, 4.0)))
        assert not front.leq(ac((0.5, 0.5)))


class TestOperations:
    def test_union_min(self):
        a = ac((1.0, 3.0))
        b = ac((2.0, 2.0), (1.0, 4.0))
        u = a.union_min(b)
        assert u.points == frozenset({(1.0, 3.0), (2.0, 2.0)})

    def test_cross(self):
        left = Antichain(RealPlus("g"), [1.0, 2.0])
        right = Antichain(RealPlus("$"), [5.0])
        prod = left.cross(right)
        assert prod.poset.factors == (RealPlus("g"), RealPlus("$"))
        assert prod.points == frozenset({(1.0, 5.0)})

    def test_up_contains(self):
        a = ac((1.0, 3.0), (3.0, 1.0))
        assert a.up_contains((2.0, 3.5))
        assert not a.up_contains((0.5, 0.5))
        assert not ac().up_contains((9.0, 9.0))

    def test_immutability(self):
        a = ac((1.0, 1.0))
        assert isinstance(a.points, frozenset)
        assert hash(a) == hash(ac((1.0, 1.0)))


class TestRendering:
    def test_sorted_points_deterministic(self):
        a = ac((3.0, 1.0), (1.0, 3.0), (2.0, 2.0))
        assert a.sorted_points() == [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)]
        assert a.format() == "(1.0,3.0);(2.0,2.0);(3.0,1.0)"

    def test_format_empty(self):
        assert ac().format() == ""

    def test_to_json(self):
        a = ac((1.0, math.inf))
        assert a.to_json() == [
            [{"value": 1.0, "unit": "g"}, {"value": "inf", "unit": "$"}]
        ]

    def test_finite_label_sorting(self):
        p = FinitePoset(["low", "mid", "high"], [("low", "mid"), ("low", "high")])
        a = Antichain(p, ["high", "mid"])
        assert a.sorted_points() == ["mid", "high"]
