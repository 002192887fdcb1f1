import math

import pytest

from mcdsolve.dp import Atom, MonotoneMap, SeriesDP, dp_leq
from mcdsolve.errors import DomainError
from mcdsolve.posets import RealPlus, product
from mcdsolve.relaxations import (
    inject_tolerance,
    lower_from_points,
    relax_plus_uniform,
    relax_plus_vdc,
    relax_times_vdc,
    uid,
    vdc,
)
from mcdsolve.uncertainty import check_udp, degenerate, udp_leq

GRID = [0.0, 0.3, 1.0, 1.7, 2.0, 5.25, 8.0]


class TestUid:
    def test_snap_directions(self):
        u = uid(0.5)
        assert u.lower.evaluate(1.2).points == {1.0}
        assert u.upper.evaluate(1.2).points == {1.5}

    def test_exact_on_grid_points(self):
        u = uid(0.5)
        for f in (0.0, 0.5, 1.0, 2.5):
            assert u.lower.evaluate(f).points == {f}
            assert u.upper.evaluate(f).points == {f}

    def test_dyadic_alpha_is_exact(self):
        alpha = 2.0**-10
        u = uid(alpha)
        f = 0.3
        (lo,) = u.lower.evaluate(f).points
        (hi,) = u.upper.evaluate(f).points
        assert hi - lo == alpha  # not merely within float noise of alpha
        assert lo <= f <= hi

    def test_infinity_passes_through(self):
        u = uid(1.0)
        assert u.lower.evaluate(math.inf).points == {math.inf}
        assert u.upper.evaluate(math.inf).points == {math.inf}

    def test_wellformed_and_ordered_in_alpha(self):
        fine, coarse = uid(0.25), uid(0.5)
        check_udp(fine, fs=GRID)
        check_udp(coarse, fs=GRID)
        assert udp_leq(fine, coarse, fs=GRID)
        assert not udp_leq(coarse, fine, fs=GRID)

    def test_alpha_validated(self):
        with pytest.raises(DomainError):
            uid(0.0)
        with pytest.raises(DomainError):
            uid(-1.0)


class TestInjectTolerance:
    def test_wraps_atom_in_series(self):
        base = MonotoneMap(RealPlus("g"), RealPlus("$"), lambda f: 2.0 * f)
        uval = {"stage": degenerate(base)}
        out = inject_tolerance(uval, "stage", 0.5)
        assert set(out) == {"stage"}
        assert isinstance(out["stage"].lower, SeriesDP)
        assert out["stage"].lower.evaluate(1.2).points == {2.0}
        assert out["stage"].upper.evaluate(1.2).points == {3.0}
        # original valuation untouched
        assert uval["stage"].lower is base

    def test_inherits_unit(self):
        base = MonotoneMap(RealPlus("g"), RealPlus("$"), lambda f: f)
        out = inject_tolerance({"a": degenerate(base)}, "a", 1.0)
        assert out["a"].funsp == RealPlus("g")

    def test_requires_real_chain_functionality(self):
        wide = MonotoneMap(
            product(RealPlus(), RealPlus()), RealPlus(), lambda f: f[0]
        )
        with pytest.raises(DomainError):
            inject_tolerance({"w": degenerate(wide)}, "w", 0.5)

    def test_unknown_atom(self):
        with pytest.raises(DomainError):
            inject_tolerance({}, "ghost", 0.5)


class TestVdc:
    def test_first_five(self):
        assert vdc(5) == [0.0, 0.5, 0.25, 0.75, 0.125]

    def test_prefix_property(self):
        assert vdc(16) == vdc(16)
        for n in range(1, 16):
            assert vdc(n + 1)[:n] == vdc(n)

    def test_all_dyadic_in_unit_interval(self):
        for t in vdc(64):
            assert 0.0 <= t < 1.0
            # exactly representable: multiplying by a power of two gives an int
            assert (t * 2.0**16) == int(t * 2.0**16)

    def test_n_validated(self):
        assert vdc(0) == []
        with pytest.raises(DomainError):
            vdc(-1)

    def test_constructors_need_a_sample(self):
        for build in (relax_plus_uniform, relax_plus_vdc):
            with pytest.raises(DomainError):
                build(0)
        with pytest.raises(DomainError):
            relax_times_vdc(0, 1.0, 4.0)


class TestLowerFromPoints:
    def test_staircase_meets(self):
        plane = product(RealPlus(), RealPlus())
        front = lower_from_points([(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)], plane)
        assert front.points == {(0.0, 0.5), (0.5, 0.0)}

    def test_single_point_passthrough(self):
        plane = product(RealPlus(), RealPlus())
        front = lower_from_points([(0.25, 0.75)], plane)
        assert front.points == {(0.25, 0.75)}


class TestRelaxPlusUniform:
    def test_midpoint_when_single_sample(self):
        u = relax_plus_uniform(1)
        assert u.upper.evaluate(1.0).points == {(0.5, 0.5)}
        assert u.lower.evaluate(1.0).points == {(0.0, 0.0)}

    def test_two_samples(self):
        u = relax_plus_uniform(2)
        assert u.upper.evaluate(1.0).points == {(0.0, 1.0), (1.0, 0.0)}
        assert u.lower.evaluate(1.0).points == {(0.0, 0.5), (0.5, 0.0)}

    def test_zero_demand(self):
        u = relax_plus_uniform(3)
        assert u.upper.evaluate(0.0).points == {(0.0, 0.0)}
        assert u.lower.evaluate(0.0).points == {(0.0, 0.0)}

    def test_wellformed(self):
        for n in (1, 2, 3, 5):
            check_udp(relax_plus_uniform(n), fs=GRID)

    def test_family_not_monotone_in_n(self):
        # the known counterexample: S3 is not contained in S2
        s2, s3 = relax_plus_uniform(2), relax_plus_uniform(3)
        assert not udp_leq(s3, s2, fs=[1.0])


class TestRelaxPlusVdc:
    def test_single_sample_endpoints(self):
        v = relax_plus_vdc(1)
        assert v.upper.evaluate(1.0).points == {(0.0, 1.0)}
        assert v.lower.evaluate(1.0).points == {(0.0, 0.0)}

    def test_second_sample_adds_midpoint(self):
        v = relax_plus_vdc(2)
        assert v.upper.evaluate(1.0).points == {(0.0, 1.0), (0.5, 0.5)}
        assert v.lower.evaluate(1.0).points == {(0.0, 0.5), (0.5, 0.0)}

    def test_monotone_in_n(self):
        fs = [0.0, 1.0, 3.5]
        for n in range(1, 8):
            assert udp_leq(relax_plus_vdc(n + 1), relax_plus_vdc(n), fs=fs)

    def test_wellformed(self):
        for n in (1, 2, 4, 8):
            check_udp(relax_plus_vdc(n), fs=GRID)


class TestRelaxTimesVdc:
    def test_single_sample(self):
        v = relax_times_vdc(1, 1.0, 4.0)
        assert v.upper.evaluate(4.0).points == {(1.0, 4.0)}
        assert v.lower.evaluate(4.0).points == {(1.0, 1.0)}

    def test_demand_below_bracket_floor(self):
        v = relax_times_vdc(3, 1.0, 4.0)
        assert v.upper.evaluate(0.5).points == {(1.0, 1.0)}
        assert v.lower.evaluate(0.5).points == {(1.0, 1.0)}

    def test_demand_above_bracket_ceiling(self):
        # no split inside the bracket: certainly infeasible on both sides
        v = relax_times_vdc(3, 1.0, 4.0)
        assert v.upper.evaluate(16.0).points == {(4.0, 4.0)}
        for f in (17.0, math.inf):
            assert v.upper.evaluate(f).points == frozenset()
            assert v.lower.evaluate(f).points == frozenset()

    def test_upper_points_lie_on_curve(self):
        v = relax_times_vdc(6, 1.0, 16.0)
        for r1, r2 in v.upper.evaluate(8.0).points:
            assert r1 * r2 == pytest.approx(8.0)
            assert 1.0 <= r1 <= 16.0
            assert 1.0 <= r2 <= 16.0

    def test_monotone_in_n(self):
        fs = [1.0, 2.0, 9.0]
        for n in range(1, 8):
            assert udp_leq(
                relax_times_vdc(n + 1, 1.0, 16.0),
                relax_times_vdc(n, 1.0, 16.0),
                fs=fs,
            )

    def test_wellformed(self):
        check_udp(relax_times_vdc(4, 1.0, 16.0), fs=[1.0, 4.0, 15.0])

    def test_units_land_on_axes(self):
        v = relax_times_vdc(2, 0.2, 150.0, funit="km", r1unit="km/h", r2unit="h")
        assert v.funsp == RealPlus("km")
        assert v.ressp.factors == (RealPlus("km/h"), RealPlus("h"))


class TestSandwich:
    # L <= exact <= U pointwise for the sampled relaxations
    def test_plus_sandwich(self):
        plane = product(RealPlus(), RealPlus())
        for n in (1, 2, 5):
            u = relax_plus_vdc(n)
            for f in (0.5, 1.0, 4.0):
                hi = u.upper.evaluate(f)
                lo = u.lower.evaluate(f)
                # every exact split r1+r2 = f dominates some lower point
                for k in range(11):
                    r = (f * k / 10.0, f * (10 - k) / 10.0)
                    assert lo.up_contains(r)
                # every upper point is an exact-or-worse split
                for r1, r2 in hi.points:
                    assert r1 + r2 >= f

    def test_times_sandwich(self):
        v = relax_times_vdc(4, 1.0, 16.0)
        f = 6.0
        lo = v.lower.evaluate(f)
        hi = v.upper.evaluate(f)
        for k in range(9):
            r1 = 1.0 * (16.0 / 1.0) ** (k / 8.0)
            r2 = f / r1
            if 1.0 <= r2 <= 16.0:
                assert lo.up_contains((r1, r2))
        for r1, r2 in hi.points:
            assert r1 * r2 >= f - 1e-12
