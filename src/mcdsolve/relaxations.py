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
family only says where its samples lie.  Samples of a member demand are
members, so each atom output is checked and minimised once, by MonotoneMap.
"""

import math

from .antichains import Antichain
from .dp import MonotoneMap
from .errors import DomainError
from .posets import Poset, ProductPoset, RealPlus
from .uncertainty import UncertainDP


def uid(alpha: float, unit: str = "") -> UncertainDP:
    """Identity bracketed by rounding down/up to multiples of alpha."""
    if not (alpha > 0 and math.isfinite(alpha)):
        raise DomainError("tolerance must be a positive finite number")
    space = RealPlus(unit)

    def snap_down(x):
        return x if math.isinf(x) else alpha * math.floor(x / alpha)

    def snap_up(x):
        return x if math.isinf(x) else alpha * math.ceil(x / alpha)

    lower = MonotoneMap(space, space, snap_down, name="uid_floor(%r)" % alpha)
    upper = MonotoneMap(space, space, snap_up, name="uid_ceil(%r)" % alpha)
    return UncertainDP(lower, upper)


def inject_tolerance(uvaluation, atom: str, alpha: float) -> dict:
    """New valuation with a uid(alpha) stage in front of one atom.

    The atom's functionality must be a single real axis; the tolerance
    inherits its unit.
    """
    from .dp import series

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


def vdc(n: int) -> list[float]:
    """First n terms of the base-2 Van der Corput sequence.

    Dyadic, exactly representable, and prefix-stable: vdc(n+1) extends
    vdc(n), which makes sampled relaxations tighten monotonically.
    """
    if n < 0:
        raise DomainError("sequence length must be nonnegative")
    out = []
    for i in range(n):
        x = 0.0
        step = 0.5
        while i:
            if i & 1:
                x += step
            step /= 2
            i >>= 1
        out.append(x)
    return out


def _sampled_inverse(name: str, n: int, fsp, rsp, samples) -> UncertainDP:
    # samples(f1, lower) gives one side's points: the upper side keeps
    # them, the lower side takes the meets of successive ones
    def upper_fn(f1):
        return samples(f1, False)

    def lower_fn(f1):
        return _meets(samples(f1, True), rsp)

    upper = MonotoneMap(fsp, rsp, upper_fn, name="%s_hi(%d)" % (name, n))
    lower = MonotoneMap(fsp, rsp, lower_fn, name="%s_lo(%d)" % (name, n))
    return UncertainDP(lower, upper)


def _relax_plus(family: str, n: int, unit: str) -> UncertainDP:
    if n < 1:
        raise DomainError("need at least one sample point")
    if family == "uniform":
        upper_params = [0.5] if n == 1 else [i / (n - 1) for i in range(n)]
        lower_params = [i / n for i in range(n + 1)]
    else:
        upper_params = vdc(n)
        lower_params = upper_params + [0.0, 1.0]

    def samples(f1, lower):
        # (f1*t, f1*(1-t)) on the trade-off segment; guard 0*inf when f1 is the top
        return [
            (f1 * t if t > 0 else 0.0, f1 * (1 - t) if t < 1 else 0.0)
            for t in (lower_params if lower else upper_params)
        ]

    rsp = ProductPoset((RealPlus(unit), RealPlus(unit)))
    return _sampled_inverse("invplus_" + family, n, RealPlus(unit), rsp, samples)


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
    params = vdc(n)

    def samples(f1, lower):
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

    rsp = ProductPoset((RealPlus(r1unit), RealPlus(r2unit)))
    return _sampled_inverse("invtimes_vdc", n, RealPlus(funit), rsp, samples)
