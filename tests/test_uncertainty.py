import itertools
import random
import time
import types

import pytest
from hypothesis import given, settings, strategies as st

from mcdsolve import uncertainty
from mcdsolve.antichains import Antichain
from mcdsolve.dp import (
    Atom,
    Catalogue,
    IdentityDP,
    MonotoneMap,
    Series,
    SolveReport,
    solve,
)
from mcdsolve.errors import DomainError
from mcdsolve.oracle import random_instance, random_ordered_uvaluation
from mcdsolve.posets import FinitePoset, ProductPoset, RealPlus, product
from mcdsolve.uncertainty import (
    UncertainDP,
    VERDICT_FEASIBLE,
    VERDICT_INDETERMINATE,
    VERDICT_INFEASIBLE,
    check_udp,
    classify,
    default_query_grid,
    degenerate,
    evaluate_uncertain,
    scale_catalogue,
    solve_uncertain,
    udp_leq,
)

RW = RealPlus("W")
RG = RealPlus("g")


def bounded_pair(lo_gain, hi_gain):
    return UncertainDP(
        MonotoneMap(RW, RG, lambda f, g=lo_gain: g * f),
        MonotoneMap(RW, RG, lambda f, g=hi_gain: g * f),
    )


class TestUncertainDP:
    def test_interface_must_match(self):
        with pytest.raises(DomainError):
            UncertainDP(MonotoneMap(RW, RG, lambda f: f), IdentityDP(RW))

    def test_degenerate(self):
        u = degenerate(IdentityDP(RW))
        assert u.lower is u.upper
        check_udp(u)

    def test_funsp_ressp(self):
        u = bounded_pair(1.0, 2.0)
        assert u.funsp == RW
        assert u.ressp == RG

    def test_solution_repr_lists_its_fields(self):
        sol = bounded_pair(1.0, 2.0).solve(3.0)
        assert repr(sol) == (
            "UncertainSolution(funsp=<RealPlus R+[W]>, query=3.0,"
            " lower=SolveReport(front=Antichain{3.0}, iterations=0, converged=True),"
            " upper=SolveReport(front=Antichain{6.0}, iterations=0, converged=True),"
            " verdict='feasible')"
        )


class TestOrder:
    def test_udp_leq_containment(self):
        tight = bounded_pair(1.0, 2.0)
        wide = bounded_pair(0.5, 3.0)
        grid = [0.0, 1.0, 2.0]
        assert udp_leq(tight, wide, fs=grid)
        assert not udp_leq(wide, tight, fs=grid)
        assert udp_leq(tight, tight, fs=grid)

    def test_check_udp_passes_valid(self):
        check_udp(bounded_pair(1.0, 2.0))

    def test_check_udp_rejects_swapped(self):
        swapped = UncertainDP(
            MonotoneMap(RW, RG, lambda f: 2.0 * f),
            MonotoneMap(RW, RG, lambda f: f),
        )
        with pytest.raises(DomainError, match="lower bound exceeds upper"):
            check_udp(swapped)

    def test_default_query_grid(self):
        two = FinitePoset.chain(["a", "b"])
        grid = default_query_grid(product(two, two))
        assert len(grid) == 4
        grid_real = default_query_grid(RW)
        assert 0.0 in grid_real and 100.0 in grid_real

    @pytest.mark.parametrize("axes", [3, 4, 5])
    @pytest.mark.parametrize("cap", [1, 64, 512, 100_000])
    def test_default_query_grid_keeps_the_first_cap_points(self, axes, cap):
        # the list the grid took before it stopped at cap: the whole
        # product, then its first cap points
        two = FinitePoset.chain(["a", "b"])
        space = ProductPoset([RW] * (axes - 1) + [two])
        grid = [[0.0, 0.1, 0.5, 1.0, 3.0, 10.0, 100.0]] * (axes - 1) + [["a", "b"]]
        whole = [tuple(t) for t in itertools.product(*grid)]
        assert default_query_grid(space, cap) == whole[:cap]

    def test_default_query_grid_draws_only_cap_points(self, monkeypatch):
        # 12 real axes have 7 ** 12 grid points: draw no more than cap of
        # them, and fail at once rather than build them all
        drawn = [0]

        def counted_product(*axes):
            for t in itertools.product(*axes):
                drawn[0] += 1
                assert drawn[0] <= 512, "the grid builds the whole product"
                yield t

        monkeypatch.setattr(
            uncertainty, "itertools",
            types.SimpleNamespace(product=counted_product, islice=itertools.islice))
        started = time.perf_counter()
        grid = default_query_grid(ProductPoset([RW] * 12), cap=64)
        assert time.perf_counter() - started < 5.0
        assert len(grid) == 64 and drawn[0] == 64
        assert grid[0] == (0.0,) * 12 and grid[-1] == (0.0,) * 9 + (0.1, 0.5, 0.0)


class TestEvaluateUncertain:
    def test_series_of_pairs(self):
        uval = {
            "stage": bounded_pair(1.0, 2.0),
            "amp": degenerate(MonotoneMap(RG, RG, lambda f: f + 1.0)),
        }
        u = evaluate_uncertain(Series(Atom("stage"), Atom("amp")), uval)
        assert u.lower.evaluate(2.0).points == {3.0}
        assert u.upper.evaluate(2.0).points == {5.0}
        check_udp(u)


class TestVerdicts:
    def test_classify(self):
        feas = solve(IdentityDP(RW), 1.0)
        infeas = solve(Catalogue(RW, RG, [(1.0, 5.0)]), 2.0)
        assert classify(feas, feas) == VERDICT_FEASIBLE
        assert classify(infeas, infeas) == VERDICT_INFEASIBLE
        assert classify(feas, infeas) == VERDICT_INDETERMINATE

    def test_classify_trusts_upper_bound(self):
        # validation of the pair itself is check_udp's job; classify is a
        # pure table over the two feasibility bits
        feas = solve(IdentityDP(RW), 1.0)
        infeas = solve(Catalogue(RW, RG, [(1.0, 5.0)]), 2.0)
        assert classify(infeas, feas) == VERDICT_FEASIBLE

    def test_capped_upper_front_proves_nothing(self):
        # a capped loop's front is a Kleene iterate, below the least fixed
        # point; an empty lower iterate is still a proof of infeasibility
        def report(points, converged):
            return SolveReport(Antichain(RG, points), 1, converged)

        capped = report([2.0], False)
        assert classify(report([1.0], True), capped) == VERDICT_INDETERMINATE
        assert classify(report([1.0], False), capped) == VERDICT_INDETERMINATE
        assert classify(report([], False), capped) == VERDICT_INFEASIBLE
        assert classify(report([1.0], False), report([2.0], True)) == VERDICT_FEASIBLE

    def test_solve_uncertain(self):
        uval = {"pair": bounded_pair(1.0, 2.0)}
        sol = solve_uncertain(Atom("pair"), uval, 3.0)
        assert sol.verdict == VERDICT_FEASIBLE
        assert sol.lower.front.points == {3.0}
        assert sol.upper.front.points == {6.0}
        assert sol.converged
        js = sol.to_json()
        assert js["verdict"] == "feasible"
        assert js["query"] == {"value": 3.0, "unit": "W"}


MISSIONS = FinitePoset.chain([200, 1000], name="missions")


class TestScaleCatalogue:
    def test_divides_resources_both_ways(self):
        # energy density example: 100 Wh/kg known to 10 percent
        cat = Catalogue(RW, RG, [(100.0, 1000.0)])
        u = scale_catalogue(cat, 0.1)
        lo = u.lower.evaluate(50.0).points
        hi = u.upper.evaluate(50.0).points
        # lower bound behaves as exactly 110 Wh/kg
        assert lo == {1000.0 / 1.1}
        assert hi == {1000.0 / 0.9}
        check_udp(u)

    def test_functionality_side_untouched(self):
        cat = Catalogue(RW, RG, [(100.0, 1000.0)])
        u = scale_catalogue(cat, 0.25)
        assert u.lower.evaluate(101.0).points == set()
        assert u.upper.evaluate(101.0).points == set()

    def test_mixed_product_ressp(self):
        cat = Catalogue(
            MISSIONS, product(RG, RealPlus("$")), [(200, (100.0, 8.0))]
        )
        u = scale_catalogue(cat, 0.5)
        assert u.lower.evaluate(200).points == {(100.0 / 1.5, 8.0 / 1.5)}
        assert u.upper.evaluate(200).points == {(200.0, 16.0)}

    def test_p_range_validated(self):
        cat = Catalogue(RW, RG, [(1.0, 1.0)])
        with pytest.raises(DomainError):
            scale_catalogue(cat, 1.0)
        with pytest.raises(DomainError):
            scale_catalogue(cat, -0.1)

    def test_requires_catalogue(self):
        with pytest.raises(DomainError):
            scale_catalogue(IdentityDP(RW), 0.1)

    def test_zero_uncertainty_degenerates(self):
        cat = Catalogue(RW, RG, [(1.0, 2.0)])
        u = scale_catalogue(cat, 0.0)
        assert u.lower.evaluate(1.0).points == u.upper.evaluate(1.0).points == {2.0}


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=5))
def test_capped_verdicts_on_random_finite_loops(seed, cap):
    rng = random.Random(seed)
    inst = random_instance(rng, depth=3)
    uval, _ = random_ordered_uvaluation(rng, inst.valuation)
    while not evaluate_uncertain(inst.term, uval).lower.holds_loop:
        inst = random_instance(rng, depth=3)
        uval, _ = random_ordered_uvaluation(rng, inst.valuation)
    # one capped pair, asked every query in turn as a sweep asks its rows
    capped = evaluate_uncertain(inst.term, uval)
    full = evaluate_uncertain(inst.term, uval)
    for f in inst.queries:
        got, want = capped.solve(f, cap), full.solve(f)
        assert want.converged
        if got.verdict == VERDICT_FEASIBLE:
            assert got.upper.converged
        if got.verdict == VERDICT_INFEASIBLE:
            assert want.verdict == VERDICT_INFEASIBLE
        assert got.lower.front.leq(want.lower.front)
