import random

from mcdsolve.antichains import Antichain
from mcdsolve.dp import (
    Atom,
    Catalogue,
    MonotoneMap,
    Series,
    dp_leq,
    evaluate_term,
    kleene_solve,
)
from mcdsolve.oracle import (
    FiniteInstance,
    brute_compose,
    brute_lfp,
    random_instance,
    random_ordered_uvaluation,
    term_spaces,
)
from mcdsolve.posets import FinitePoset, product

THREE = FinitePoset.chain([0, 1, 2], name="three")
DIAMOND = FinitePoset(
    ["bot", "l", "r", "top"],
    [("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")],
)


class TestBruteLfp:
    def test_matches_kleene_on_hand_case(self):
        body = MonotoneMap(
            product(THREE, THREE), THREE, lambda f: min(max(f[0], f[1]) + 1, 2)
        )
        assert brute_lfp(body, 0).points == kleene_solve(body, 0).front.points

    def test_infeasible_body(self):
        body = Catalogue(product(THREE, THREE), THREE, [])
        assert brute_lfp(body, 0).points == set()


class TestBruteCompose:
    def test_series_by_hand(self):
        first = Catalogue(THREE, THREE, [(0, 1)])
        second = Catalogue(THREE, THREE, [(1, 2), (2, 2)])
        inst = FiniteInstance(
            term=Series(Atom("a"), Atom("b")),
            valuation={"a": first, "b": second},
            queries=[0, 1, 2],
        )
        result = brute_compose(inst)
        assert result[0].points == {2}
        assert result[1].points == set()

    def test_term_spaces(self):
        val = {"a": Catalogue(THREE, DIAMOND, [(0, "l")])}
        fsp, rsp = term_spaces(Atom("a"), val)
        assert fsp == THREE
        assert rsp == DIAMOND


class TestGenerators:
    def test_deterministic_under_seed(self):
        one = random_instance(random.Random(7), depth=3)
        two = random_instance(random.Random(7), depth=3)
        assert one.term == two.term
        assert one.queries == two.queries

    def test_instances_evaluate_equal(self):
        rng = random.Random(2024)
        for _ in range(40):
            inst = random_instance(rng, depth=3)
            dp = evaluate_term(inst.term, inst.valuation)
            expected = brute_compose(inst)
            for f in inst.queries:
                assert dp.evaluate(f).points == expected[f].points

    def test_ordered_uvaluation_is_ordered(self):
        rng = random.Random(99)
        for _ in range(25):
            inst = random_instance(rng, depth=2)
            v1, v2 = random_ordered_uvaluation(rng, inst.valuation)
            for name in inst.valuation:
                lo1, hi1 = v1[name].lower, v1[name].upper
                lo2, hi2 = v2[name].lower, v2[name].upper
                assert dp_leq(lo1, hi1)
                assert dp_leq(lo2, hi2)
                # v1's interval sits inside v2's
                assert dp_leq(lo2, lo1)
                assert dp_leq(hi1, hi2)
