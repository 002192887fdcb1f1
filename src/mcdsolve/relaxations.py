"""Relaxations: tolerances and sampled inverses of + and *.

Two families of uncertain DPs deliberately coarsen a problem:

* uid(alpha) brackets the identity between snap-down and snap-up to the
  alpha grid.  Injected in front of an atom it says "don't distinguish
  functionality values closer than alpha", which lets loops converge in
  fewer, coarser steps while keeping two-sided guarantees.

* The inverse of + (and of *) maps a total f1 to the curve of splits
  (r1, r2) achieving it.  The exact curve is an infinite antichain, so
  it is approximated from above by n sampled points on the curve and
  from below by the meets of successive samples, again a bracket.
  Uniform sampling is not monotone as n grows; the Van der Corput
  sequence is, because each prefix extends the previous one.

One builder, _sampled_inverse, makes all three sampled inverses; a
family only says where its samples lie.  The Van der Corput families
sort their parameters once, when built, so their samples come in
ascending order of the parameter (the lower side of the inverse of *
adds its two bracket ends after them), and the sorts of the fronts they
make run on sorted input.  On two real axes equal samples fall out of
that one sort by adjacency: the meets are taken between the first points
of successive runs of equal points, with no dedupe pass.  A meet of two
samples takes each coordinate from one of them and computes no new value.  Samples of a member demand
are members, and so are their meets, so no output is checked: each
front is minimised once, by MonotoneMap.  uid's snaps give members too,
one point each: each is a body of one snap op, compiled as a model's map
is (dp.compile_point), so a fan-out fuses it with the maps around it.

The sampler of + has two branches.  At a demand 0 < f1 < inf a sample is
(f1 * t, f1 * (1 - t)) as it stands: at t = 0 and t = 1 the product is
f1 * 0.0, which is already 0.0.  At 0, -0.0 and inf each coordinate is
guarded, 0.0 where t is 0 or 1, so that inf * 0.0 gives no nan and a
demand of -0.0 gives 0.0, not -0.0, at the ends.  So both branches give
the bits of the guarded formula at every demand.  The sampler of *
takes the span of its logs once per demand.
"""

import math

from .antichains import Antichain
from .dp import MonotoneMap, compile_point, series
from .errors import DomainError
from .posets import Poset, ProductPoset, RealPlus
from .uncertainty import UncertainDP


def uid(alpha: float, unit: str = "") -> UncertainDP:
    """Identity bracketed by rounding down/up to multiples of alpha."""
    if not (alpha > 0 and math.isfinite(alpha)):
        raise DomainError("tolerance must be a positive finite number")
    space = RealPlus(unit)
    return UncertainDP(*[  # the snaps' lines are dp._LINES'
        compile_point(space, space, ((snap, ("x", None), ("c", 0)),), (("v", 0),), (alpha,))
        for snap in ("snap_down", "snap_up")
    ])


def inject_tolerance(uvaluation, atom: str, alpha: float) -> dict:
    """New valuation with a uid(alpha) stage in front of one atom.

    The atom's functionality must be a single real axis; the tolerance
    inherits its unit.
    """
    try:
        udp = uvaluation[atom]
    except KeyError:
        raise DomainError("no atom named %r to relax" % atom) from None
    funsp = udp.funsp
    if not isinstance(funsp, RealPlus):
        raise DomainError(
            "tolerance needs a single real functionality axis, %r has %s"
            % (atom, funsp.describe())
        )
    stage = uid(alpha, funsp.unit)
    relaxed = UncertainDP(
        series(stage.lower, udp.lower), series(stage.upper, udp.upper)
    )
    out = dict(uvaluation)
    out[atom] = relaxed
    return out


def _meets(points, poset) -> list:
    # meets of successive distinct points in sort order; fewer than two pass as they are
    if poset.real_factors and len(poset.factors) == 2:
        # pairs of reals: the tuples' own order is sort_key's, and its
        # stable sort puts equal points side by side, the first written
        # first; the meets are taken between the first points of
        # successive runs.  After the sort a0 <= b0, so the meet
        # (min(a0, b0), min(a1, b1)) is written without calls, each
        # coordinate as min gives it (0.0, -0.0)
        ordered = sorted(points)
        if not ordered:
            return ordered
        out = []
        a0, a1 = ordered[0]
        for b0, b1 in ordered:
            if b0 == a0 and b1 == a1:
                continue
            out.append((a0, b1 if b1 < a1 else a1))
            a0 = b0
            a1 = b1
        return out or ordered[:1]
    unique = list(dict.fromkeys(points))
    if len(unique) < 2:
        return unique
    unique.sort(key=poset.sort_key)
    return [poset.meet(a, b) for a, b in zip(unique, unique[1:])]


def lower_from_points(points, poset: Poset) -> Antichain:
    """Antichain of meets of successive points, sorted by first coordinate.

    For points sampled on a monotone trade-off curve this lower-bounds
    the whole curve: between two samples the curve stays above their
    meet.  The caller must include the curve's extreme points for the
    bound to cover the ends.
    """
    for p in dict.fromkeys(points):
        poset.check_member(p)
    return Antichain(poset, _meets(points, poset))


_vdc_terms: list[float] = []  # the longest prefix made so far; replaced, never mutated


def vdc(n: int) -> list[float]:
    """First n terms of the base-2 Van der Corput sequence.

    Dyadic, exactly representable, and prefix-stable: vdc(n+1) extends
    vdc(n), which makes sampled relaxations tighten monotonically.
    Each term is computed once per process.
    """
    global _vdc_terms
    if n < 0:
        raise DomainError("sequence length must be nonnegative")
    terms = _vdc_terms
    if n > len(terms):
        terms = list(terms)  # a copy, so a concurrent call never sees a half-made prefix
        for i in range(len(terms), n):
            x = 0.0
            step = 0.5
            while i:
                if i & 1:
                    x += step
                step /= 2
                i >>= 1
            terms.append(x)
        _vdc_terms = terms
    return terms[:n]


def _sampled_inverse(fsp, rsp, samples) -> UncertainDP:
    # samples(f1, lower) gives one side's points: the upper side keeps
    # them, the lower side takes the meets of successive ones
    def upper_fn(f1):
        return samples(f1, False)

    def lower_fn(f1):
        return _meets(samples(f1, True), rsp)

    return UncertainDP(
        MonotoneMap._of(fsp, rsp, lower_fn), MonotoneMap._of(fsp, rsp, upper_fn)
    )


def _relax_plus(family: str, n: int, unit: str) -> UncertainDP:
    if n < 1:
        raise DomainError("need at least one sample point")
    if family == "uniform":
        upper_params = [0.5] if n == 1 else [i / (n - 1) for i in range(n)]
        lower_params = [i / n for i in range(n + 1)]
    else:
        upper_params = sorted(vdc(n))
        lower_params = sorted(upper_params + [0.0, 1.0])

    def samples(f1, lower):
        # (f1*t, f1*(1-t)) on the trade-off segment
        params = lower_params if lower else upper_params
        if 0 < f1 < math.inf:  # f1 * 0.0 is the guard's 0.0
            return [(f1 * t, f1 * (1 - t)) for t in params]
        # guard 0*inf when f1 is the top, and keep 0.0 where f1 is 0 or -0.0
        return [(f1 * t if t > 0 else 0.0, f1 * (1 - t) if t < 1 else 0.0) for t in params]

    rsp = ProductPoset((RealPlus(unit), RealPlus(unit)))
    return _sampled_inverse(RealPlus(unit), rsp, samples)


def relax_plus_uniform(n: int, unit: str = "") -> UncertainDP:
    """Sampled inverse of + with n uniformly spaced upper points.

    Upper: n points with spacing f1/(n-1), endpoints included (n=1 uses
    the midpoint).  Lower: meets of the n+1 uniform points.  Warning:
    the family is not monotone in n; prefer the Van der Corput variant
    when sweeping n.
    """
    return _relax_plus("uniform", n, unit)


def relax_plus_vdc(n: int, unit: str = "") -> UncertainDP:
    """Sampled inverse of + at the first n Van der Corput parameters.

    Upper: the n sampled points.  Lower: meets over those points plus
    both segment endpoints.  Prefix stability of the sequence makes
    n+1 samples always at least as tight as n.
    """
    return _relax_plus("vdc", n, unit)


def relax_times_vdc(
    n: int,
    rmin: float,
    rmax: float,
    funit: str = "",
    r1unit: str = "",
    r2unit: str = "",
) -> UncertainDP:
    """Sampled inverse of * on the bracket [rmin, rmax].

    Both factors are confined to the bracket; sampling is log-uniform at
    Van der Corput parameters.  f1 below rmin*rmin is served exactly by
    the corner (rmin, rmin).  f1 above rmax*rmax (f1 = inf included) has
    no split inside the bracket, so both sides return the empty front:
    the requirement is certainly infeasible.
    """
    if n < 1:
        raise DomainError("need at least one sample point")
    if not (0 < rmin <= rmax and math.isfinite(rmax)):
        raise DomainError("bracket must satisfy 0 < rmin <= rmax < inf")
    params = sorted(vdc(n))

    def samples(f1, lower):
        f1 = float(f1)
        if f1 > rmax * rmax:
            return []
        if f1 <= rmin * rmin:
            return [(rmin, rmin)]
        r1_lo = max(rmin, f1 / rmax)
        r1_hi = min(rmax, f1 / rmin)
        a = math.log(r1_lo)
        span = math.log(r1_hi) - a
        exp = math.exp
        pts = []
        for t in params:
            r1 = exp(a + t * span)
            pts.append((r1, f1 / r1))
        if lower:
            pts.append((r1_lo, f1 / r1_lo))
            pts.append((r1_hi, f1 / r1_hi))
        return pts

    rsp = ProductPoset((RealPlus(r1unit), RealPlus(r2unit)))
    return _sampled_inverse(RealPlus(funit), rsp, samples)
