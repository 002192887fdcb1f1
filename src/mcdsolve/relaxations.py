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


def lower_from_points(points, poset: Poset) -> Antichain:
    """Antichain of meets of successive points, sorted by first coordinate.

    For points sampled on a monotone trade-off curve this lower-bounds
    the whole curve: between two samples the curve stays above their
    meet.  The caller must include the curve's extreme points for the
    bound to cover the ends.
    """
    unique = list(dict.fromkeys(points))
    for p in unique:
        poset.check_member(p)
    if len(unique) < 2:
        return Antichain(poset, unique)
    unique.sort(key=poset.sort_key)
    meets = [poset.meet(unique[i], unique[i + 1]) for i in range(len(unique) - 1)]
    return Antichain(poset, meets)


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


def _segment_point(f1: float, t: float) -> tuple:
    # (f1*t, f1*(1-t)) on the additive trade-off segment; guard 0*inf
    # when f1 is the top element
    x = f1 * t if t > 0 else 0.0
    y = f1 * (1 - t) if t < 1 else 0.0
    return (x, y)


def _relax_plus(family: str, n: int, unit: str) -> UncertainDP:
    # the sampled inverse of + at the parameters of one family
    if n < 1:
        raise DomainError("need at least one sample point")
    fsp = RealPlus(unit)
    rsp = ProductPoset((RealPlus(unit), RealPlus(unit)))
    if family == "uniform":
        upper_params = [0.5] if n == 1 else [i / (n - 1) for i in range(n)]
        lower_params = [i / n for i in range(n + 1)]
    else:
        upper_params = vdc(n)
        lower_params = upper_params + [0.0, 1.0]

    def upper_fn(f1):
        return [_segment_point(f1, t) for t in upper_params]

    def lower_fn(f1):
        pts = [_segment_point(f1, t) for t in lower_params]
        return list(lower_from_points(pts, rsp).points)

    upper = MonotoneMap(fsp, rsp, upper_fn, name="invplus_%s_hi(%d)" % (family, n))
    lower = MonotoneMap(fsp, rsp, lower_fn, name="invplus_%s_lo(%d)" % (family, n))
    return UncertainDP(lower, upper)


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
    fsp = RealPlus(funit)
    rsp = ProductPoset((RealPlus(r1unit), RealPlus(r2unit)))
    params = vdc(n)

    def curve_points(f1, extra_extrema: bool):
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
        if extra_extrema:
            pts.append((r1_lo, f1 / r1_lo))
            pts.append((r1_hi, f1 / r1_hi))
        return pts

    def upper_fn(f1):
        return curve_points(float(f1), False)

    def lower_fn(f1):
        pts = curve_points(float(f1), True)
        return list(lower_from_points(pts, rsp).points)

    upper = MonotoneMap(fsp, rsp, upper_fn, name="invtimes_vdc_hi(%d)" % n)
    lower = MonotoneMap(fsp, rsp, lower_fn, name="invtimes_vdc_lo(%d)" % n)
    return UncertainDP(lower, upper)
