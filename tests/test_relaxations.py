"""Relaxations: uid, the sampled inverses of + and *, and the ladder of
power_split relaxed at growing sample counts, pinned in
tests/expected/power_split_relax_ladder.json.  Regenerate that pin with
`PYTHONPATH=src python tests/test_relaxations.py`, and only for a change
to that output that is meant.
"""

import contextlib
import io
import json
import math
import pathlib
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from mcdsolve import cli, dp, relaxations
from mcdsolve.antichains import Antichain
from mcdsolve.dp import Atom, MonotoneMap, SeriesDP, dp_leq
from mcdsolve.errors import DomainError
from mcdsolve.examples import example_path
from mcdsolve.posets import Poset, RealPlus, product
from mcdsolve.relaxations import (
    _meets,
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

    def test_kept_terms_match_a_fresh_computation(self):
        # terms are computed once per process and handed out as copies
        def radical_inverse(i):
            return int(bin(i)[:1:-1], 2) / 2 ** i.bit_length() if i else 0.0

        for n in (3, 300, 40, 301, 1):
            got = vdc(n)
            assert got == [radical_inverse(i) for i in range(n)]
            got.append(-1.0)
        assert vdc(301)[-1] == radical_inverse(300)

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


def plus_sample(f1, t):
    return (f1 * t if t > 0 else 0.0, f1 * (1 - t) if t < 1 else 0.0)


def times_samples(f1, ts, rmin, rmax):
    lo, hi = max(rmin, f1 / rmax), min(rmax, f1 / rmin)
    r1s = [math.exp(math.log(lo) + t * (math.log(hi) - math.log(lo))) for t in ts]
    return [(r1, f1 / r1) for r1 in r1s]


class TestSortedSamples:
    # the parameters are sorted once, so the samples ascend; the sets are
    # those of the parameters in sequence order
    def test_plus_samples_ascend_with_the_same_sets(self):
        rsp = product(RealPlus(), RealPlus())
        for n in range(1, 257):
            v = relax_plus_vdc(n)
            for f1 in (0.0, 3.0, 10.0, math.inf):
                upper = v.upper.fn(f1)
                assert upper == sorted(upper)
                assert set(upper) == {plus_sample(f1, t) for t in vdc(n)}
                old_lower = [plus_sample(f1, t) for t in vdc(n) + [0.0, 1.0]]
                assert set(v.lower.fn(f1)) == set(_meets(old_lower, rsp))

    def test_times_samples_ascend_with_the_same_sets(self):
        rsp = product(RealPlus(), RealPlus())
        for n in range(1, 257):
            v = relax_times_vdc(n, 1.0, 16.0)
            for f1 in (2.0, 9.0, 100.0):
                upper = v.upper.fn(f1)
                assert upper == sorted(upper)
                assert set(upper) == set(times_samples(f1, vdc(n), 1.0, 16.0))
                lo, hi = max(1.0, f1 / 16.0), min(16.0, f1)
                old_lower = times_samples(f1, vdc(n), 1.0, 16.0) + [(lo, f1 / lo), (hi, f1 / hi)]
                assert set(v.lower.fn(f1)) == set(_meets(old_lower, rsp))


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


# Reference samples of each family, written out apart from the builder:
# (upper samples, lower samples) at demand f1.


def _segment(f1, params):
    return [(f1 * t if t > 0 else 0.0, f1 * (1 - t) if t < 1 else 0.0) for t in params]


def _uniform_samples(n, f1):
    upper = [0.5] if n == 1 else [i / (n - 1) for i in range(n)]
    return _segment(f1, upper), _segment(f1, [i / n for i in range(n + 1)])


def _vdc_samples(n, f1):
    return _segment(f1, vdc(n)), _segment(f1, vdc(n) + [0.0, 1.0])


RMIN, RMAX = 0.2, 150.0


def times_formula(f1, params, rmin, rmax, lower):
    # the sampler of * as it was written, with b - a and math.exp per sample
    f1 = float(f1)
    if f1 > rmax * rmax:
        return []
    if f1 <= rmin * rmin:
        return [(rmin, rmin)]
    r1_lo = max(rmin, f1 / rmax)
    r1_hi = min(rmax, f1 / rmin)
    a = math.log(r1_lo)
    b = math.log(r1_hi)
    pts = []
    for t in params:
        r1 = math.exp(a + t * (b - a))
        pts.append((r1, f1 / r1))
    if lower:
        pts.append((r1_lo, f1 / r1_lo))
        pts.append((r1_hi, f1 / r1_hi))
    return pts


def _times_samples(n, f1):
    return (times_formula(f1, vdc(n), RMIN, RMAX, False),
            times_formula(f1, vdc(n), RMIN, RMAX, True))


FAMILIES = {
    "invplus_uniform": (relax_plus_uniform, _uniform_samples),
    "invplus_vdc": (relax_plus_vdc, _vdc_samples),
    "invtimes_vdc": (lambda n: relax_times_vdc(n, RMIN, RMAX), _times_samples),
}

# zero both ways, below and at rmin^2, between, at and just above rmax^2,
# infinity, and ints
DEMANDS = [
    0.0, -0.0, 0, 0.01, RMIN * RMIN, 0.5, 1, 30.0, 1234.5,
    RMAX * RMAX, math.nextafter(RMAX * RMAX, math.inf), 22501, math.inf,
]


class TestSampledInverseFronts:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_fronts_from_reference_samples(self, family):
        build, samples = FAMILIES[family]
        for n in range(1, 41):
            u = build(n)
            rsp = u.lower.ressp
            for f in DEMANDS:
                upper, lower = samples(n, f)
                got = u.lower.evaluate(f)
                assert repr(got) == repr(lower_from_points(lower, rsp)), (n, f)
                assert repr(u.upper.evaluate(f)) == repr(Antichain(rsp, upper)), (n, f)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_lower_builds_one_front(self, family, monkeypatch):
        calls = []
        minimize = dp._minimize

        def counting_minimize(points, poset):
            calls.append(1)
            return minimize(points, poset)

        build, _ = FAMILIES[family]
        relaxations = [build(n) for n in range(1, 41)]
        monkeypatch.setattr(dp, "_minimize", counting_minimize)
        for u in relaxations:
            for f in DEMANDS:
                calls.clear()
                u.lower.evaluate(f)
                assert len(calls) == 1

    @pytest.mark.parametrize("u, f", [
        (relax_plus_uniform(16), 1.0),
        (relax_plus_vdc(16), 1.0),
        (relax_times_vdc(8, 0.2, 150.0), 30.0),
    ])
    def test_lower_checks_only_the_query(self, u, f, monkeypatch):
        # samples and their meets are members by construction; the
        # property below checks them instead
        calls = []
        check = Poset.check_member

        def counting_check(self, x):
            calls.append(x)
            check(self, x)

        monkeypatch.setattr(Poset, "check_member", counting_check)
        front = u.lower.evaluate(f)
        assert calls == [f] and len(front) > 1


BEYOND_FLOATS = int(sys.float_info.max) + 1  # the least int that is not a member of R+

# zero both ways, subnormals, the largest floats, infinity and ints, up to
# the largest float and past it, where an int is no member and the query
# is refused
REAL_DEMANDS = st.one_of(
    st.sampled_from([0, 0.0, -0.0, 5e-324, 2.2e-308, 1e308, 1.7976931348623157e308, math.inf,
                     BEYOND_FLOATS - 1, BEYOND_FLOATS]),
    st.integers(min_value=0, max_value=2**1000),
    st.integers(min_value=BEYOND_FLOATS, max_value=2**1100),
    st.floats(min_value=0, allow_nan=False),
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from(["uniform", "vdc", "times", "uid"]),
    st.integers(min_value=1, max_value=64),
    st.sampled_from([1e-300, 0.001, 0.25, 1.0, 3.0, 1e300]),
    REAL_DEMANDS,
)
def test_sampled_inverses_and_uid_emit_members(family, n, scale, f):
    u = {
        "uniform": lambda: relax_plus_uniform(n),
        "vdc": lambda: relax_plus_vdc(n),
        "times": lambda: relax_times_vdc(n, scale, max(scale, 1.0) * 10.0),
        "uid": lambda: uid(scale),
    }[family]()
    if isinstance(f, int) and f >= BEYOND_FLOATS:
        for side in (u.lower, u.upper):
            with pytest.raises(DomainError, match="not an element of R"):
                side.evaluate(f)
        return
    for side in (u.lower, u.upper):
        out = side.fn(f)  # every sample or meet, before minimising
        for p in out if isinstance(out, list) else [out]:
            side.ressp.check_member(p)


REAL_COORDS = st.one_of(
    st.sampled_from([0, 0.0, -0.0, 1, 1.0, 5e-324, 1e308, math.inf]),
    st.floats(min_value=0, allow_nan=False),
    # past 2**53 sort_key rounds an int where the tuples compare it exactly
    st.integers(min_value=0, max_value=2**53),
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(st.tuples(REAL_COORDS, REAL_COORDS), max_size=12))
# runs of equal points written as 0, 0.0, -0.0 or as 1, 1.0, next to
# distinct points: each meet is taken from the first written of a run
@example([(0, 1), (0.0, 1.0), (-0.0, 1), (2, 0)])
@example([(3, -0.0), (1.0, 2), (1, 2.0), (0, 5), (3.0, 0)])
@example([(2, 2), (1, 1.0), (1.0, 1), (0.0, 3), (0, 3.0), (-0.0, 3), (4, 0)])
@example([(1.0, 0), (1, 0.0), (1, -0.0)])
def test_meets_of_real_pairs_match_the_generic_path(points):
    plane = product(RealPlus(), RealPlus())
    unique = sorted(dict.fromkeys(points), key=plane.sort_key)
    generic = unique if len(unique) < 2 else [
        plane.meet(a, b) for a, b in zip(unique, unique[1:])
    ]
    assert repr(_meets(points, plane)) == repr(generic)


@pytest.mark.parametrize("enter", [
    lambda f: uid(0.5).upper.evaluate(f),
    lambda f: relax_plus_vdc(4).upper.evaluate(f),
    lambda f: Antichain(RealPlus(), [f]),
], ids=["uid", "relax_plus_vdc", "antichain"])
def test_int_beyond_the_float_range_is_refused_where_it_enters(enter):
    with pytest.raises(DomainError, match="not an element of R"):
        enter(10**400)


# --- the samples, against the formulas they replaced ---------------------


def raw_samples(u, f):
    """(upper samples, lower samples) of a sampled inverse at f, the
    lower ones before their meets are taken."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relaxations, "_meets", lambda points, poset: points)
        return u.upper.fn(f), u.lower.fn(f)


PLUS_PARAMS = {
    relax_plus_vdc: lambda n: (sorted(vdc(n)), sorted(vdc(n) + [0.0, 1.0])),
    relax_plus_uniform: lambda n: ([0.5] if n == 1 else [i / (n - 1) for i in range(n)],
                                   [i / n for i in range(n + 1)]),
}
# positive finite demands, where no sample is guarded, among 0, -0.0 and inf
PLUS_DEMANDS = st.one_of(
    st.sampled_from([5e-324, 1e-300, 1e308, 1.7976931348623157e308, 0, 0.0, -0.0, math.inf,
                     1, 6, 2**53 + 1]),
    st.integers(min_value=0, max_value=2**1000),
    st.floats(min_value=0, allow_nan=False),
)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(sorted(PLUS_PARAMS, key=lambda b: b.__name__)),
       st.integers(min_value=1, max_value=512), PLUS_DEMANDS)
@example(relax_plus_vdc, 512, 5e-324)
@example(relax_plus_uniform, 512, 1e-300)
@example(relax_plus_vdc, 1, -0.0)
@example(relax_plus_uniform, 3, math.inf)
def test_plus_samples_are_the_guarded_formulas(build, n, f):
    upper_params, lower_params = PLUS_PARAMS[build](n)
    upper, lower = raw_samples(build(n), f)
    # _segment guards every sample, as the sampler of + did at any demand
    assert repr(upper) == repr(_segment(f, upper_params))
    assert repr(lower) == repr(_segment(f, lower_params))


@pytest.mark.parametrize("n", [1, 2, 7, 64, 257])
def test_times_samples_are_the_formula(n):
    for rmin, rmax in ((0.2, 150.0), (1.0, 16.0), (1e-3, 1e3)):
        u = relax_times_vdc(n, rmin, rmax)
        for f in (0, rmin * rmin, 0.05, 1, 2.5, 30.0, 1234.5, rmax * rmax, 1e300, math.inf):
            upper, lower = raw_samples(u, f)
            assert repr(upper) == repr(times_formula(f, sorted(vdc(n)), rmin, rmax, False))
            assert repr(lower) == repr(times_formula(f, sorted(vdc(n)), rmin, rmax, True))


# --- the power_split ladder, pinned -------------------------------------

LADDER_PIN = pathlib.Path(__file__).resolve().parent / "expected" / "power_split_relax_ladder.json"
# positive finite demands (6, a subnormal) and 0, -0.0 and inf, where each
# sample is guarded, through fused pushes at every sample count
LADDER_DEMANDS = ["6", "0", "-0.0", "inf", "5e-324"]


def ladder_args(demand: str) -> list:
    return ["sweep", str(example_path("power_split")), "--relax-n",
            "split=1,2,3,4,8,64,256,512", "--f", "demand=" + demand]


def ladder_outputs() -> dict:
    """Demand -> the JSON stdout of the ladder sweep at it."""
    outputs = {}
    for demand in LADDER_DEMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(ladder_args(demand)) == cli.EXIT_OK
        outputs[demand] = out.getvalue()
    return outputs


def test_power_split_ladder_matches_the_pin():
    pinned = json.loads(LADDER_PIN.read_text(encoding="utf-8"))
    assert list(pinned) == LADDER_DEMANDS
    for demand, text in ladder_outputs().items():
        assert text == pinned[demand], demand


if __name__ == "__main__":
    LADDER_PIN.write_text(json.dumps(ladder_outputs(), indent=1) + "\n", encoding="utf-8")
