"""Reference answers computed apart from the solver, and the checkers.

The checks do not call the solver kernel (posets, antichains, dp,
uncertainty, relaxations).  Fronts are plain collections of floats or
float tuples, compared by the antichain order written out below; the
UAV and power-split references are closed forms, and the finite-poset
references come from `mcdsolve.oracle.brute_compose`, which evaluates
by direct set semantics on purpose.  The one use of the kernel is
`order_table`, which tabulates a finite poset's order once, before
timing.

Every checker returns a list of problems; an empty list means the
answer passed.  `planted_*` build deliberately wrong answers from a
real one, so a run can show that its checkers reject them.
"""

import json
import math
from fractions import Fraction

# --- the antichain order on plain points -----------------------------------


def dominates(a, b) -> bool:
    """a <= b componentwise; scalars are 1-axis points."""
    if isinstance(a, tuple):
        return all(x <= y for x, y in zip(a, b))
    return a <= b


def front_leq(lo, hi) -> bool:
    """Antichain order: every point of hi is dominated by a point of lo.

    The empty front is the top (infeasible), so anything <= empty.
    """
    return all(any(dominates(a, b) for a in lo) for b in hi)


def minimal(points) -> frozenset:
    pts = set(points)
    return frozenset(
        p for p in pts if not any(q != p and dominates(q, p) for q in pts)
    )


# --- uav_sweep ---------------------------------------------------------------

# the route relaxation confines velocity and flight time to this bracket
ROUTE_MAX = 150.0


def uav_exact_front(battery, endurance, distance, payload, missions) -> frozenset:
    """Minimal (mass g, cost $) designs of the drone model, in closed form.

    A battery row (cap, row_missions) -> (mb, cb) gives total mass
    m = mb + 150.  Power is 0.4 v + 2 (perception) + 0.05 (P + m) + 1
    (actuation) + 3 (avionics); the pack must hold it for
    max(flight, E) hours with v * flight >= D.  The energy
    (0.4 v + 6 + 0.05 (P + m)) * max(D / v, E) is least at v = D / E,
    where it is (6 + 0.05 (P + m)) E + 0.4 D.  Cost is
    cb + (5 + 0.005 (P + m)) + 20.  Valid while D / E and E lie in the
    route bracket [0.2, 150]; a distance beyond 150 * 150 has no
    design at all.
    """
    if distance > ROUTE_MAX * ROUTE_MAX:
        return frozenset()
    v = distance / endurance
    if not (0.2 <= v <= ROUTE_MAX and 0.2 <= endurance <= ROUTE_MAX):
        raise ValueError("query outside the closed form's range: E=%r D=%r" % (endurance, distance))
    designs = []
    for _name, cap, row_missions, mb, cb in battery:
        if row_missions < missions:
            continue
        m = mb + 150.0
        if cap >= (6.0 + 0.05 * (payload + m)) * endurance + 0.4 * distance:
            designs.append((m, cb + 0.005 * (payload + m) + 25.0))
    return minimal(designs)


def _num(v) -> float:
    return math.inf if v == "inf" else float(v)


def json_front(side: dict) -> list:
    """Points of a rendered front: scalars, or tuples for product spaces."""
    out = []
    for p in side["antichain"]:
        if isinstance(p, list):
            out.append(tuple(_num(c["value"]) for c in p))
        else:
            out.append(_num(p["value"]))
    return out


def verdict_of(lower, upper) -> str:
    if upper:
        return "feasible"
    if not lower:
        return "infeasible"
    return "indeterminate"


# the one known fault kept in the workload: relax_times_vdc raises for
# a product beyond its bracket instead of answering infeasible
KNOWN_FAULT = "error: required product"


def check_uav_command(cmd, battery, rc: int, stdout: str):
    """Check one sweep command; returns (queries, failed, problems)."""
    problems = []
    if rc != 0:
        return len(cmd.values), 0, ["%s: exit code %d" % (cmd.label, rc)]
    try:
        rows = json.loads(stdout)["rows"]
    except (ValueError, KeyError) as e:
        return len(cmd.values), 0, ["%s: unreadable output: %s" % (cmd.label, e)]
    if len(rows) != len(cmd.values):
        problems.append("%s: %d rows for %d values" % (cmd.label, len(rows), len(cmd.values)))
    failed = 0
    fronts = []
    for row, value in zip(rows, cmd.values):
        where = "%s row %s" % (cmd.label, row.get("value"))
        q = cmd.query_at(value)
        exact = uav_exact_front(battery, q["endurance"], q["distance"], q["payload"], q["missions"])
        status = row["status"]
        if status != "ok":
            if status.startswith(KNOWN_FAULT) and not exact:
                failed += 1
            else:
                problems.append("%s: status %r" % (where, status))
            fronts.append(None)
            continue
        if cmd.axis_values and _num(row["value"]) != value:
            problems.append("%s: row value %r, expected %r" % (where, row["value"], value))
        lower = json_front(row["lower"])
        upper = json_front(row["upper"])
        fronts.append((lower, upper))
        if not front_leq(lower, exact):
            problems.append("%s: lower front %r is above the exact front %r" % (where, lower, sorted(exact)))
        if not front_leq(exact, upper):
            problems.append("%s: upper front %r is below the exact front %r" % (where, upper, sorted(exact)))
        if row["verdict"] != verdict_of(lower, upper):
            problems.append("%s: verdict %r disagrees with its fronts" % (where, row["verdict"]))
        for side in ("lower", "upper"):
            if row[side]["feasible"] != bool(row[side]["antichain"]) or not row[side]["converged"]:
                problems.append("%s: %s side flags are inconsistent" % (where, side))
    for i in range(len(fronts) - 1):
        a, b = fronts[i], fronts[i + 1]
        if a is None or b is None:
            continue
        if cmd.kind == "endurance":
            # more endurance can only cost more, on both sides
            ok = front_leq(a[0], b[0]) and front_leq(a[1], b[1])
        else:
            # a finer tolerance or more samples narrows the bracket
            ok = front_leq(a[0], b[0]) and front_leq(b[1], a[1])
        if not ok:
            problems.append("%s: rows %d and %d are not ordered" % (cmd.label, i, i + 1))
    return len(rows), failed, problems


def planted_uav(cmd, battery, stdout: str) -> dict:
    """Problems found in wrong variants of a correct sweep output.

    Each variant must be rejected, so every list must be nonempty.
    """
    rows = json.loads(stdout)["rows"]
    feasible = [
        i for i, r in enumerate(rows)
        if r["status"] == "ok" and r["upper"]["antichain"]
    ]
    if not feasible:
        return {}
    i = feasible[0]

    def check(mutate):
        doc = json.loads(stdout)
        mutate(doc["rows"])
        return check_uav_command(cmd, battery, 0, json.dumps(doc))[2]

    def swap(rs):
        rs[i]["lower"], rs[i]["upper"] = rs[i]["upper"], rs[i]["lower"]

    def upper_below(rs):
        rs[i]["upper"]["antichain"].append([{"value": 0.0, "unit": "g"}, {"value": 0.0, "unit": "$"}])

    def lower_above(rs):
        rs[i]["lower"]["antichain"] = [[{"value": 1e9, "unit": "g"}, {"value": 1e9, "unit": "$"}]]

    def wrong_verdict(rs):
        rs[i]["verdict"] = "infeasible"

    def reversed_rows(rs):
        sides = [(r["lower"], r["upper"]) for r in rs]
        for r, (lo, hi) in zip(rs, reversed(sides)):
            r["lower"], r["upper"] = lo, hi

    out = {
        "upper front below exact": check(upper_below),
        "lower front above exact": check(lower_above),
        "verdict flipped": check(wrong_verdict),
    }
    if rows[i]["lower"] != rows[i]["upper"]:
        out["swapped bracket"] = check(swap)
    ok_rows = [r for r in rows if r["status"] == "ok"]
    if cmd.kind == "endurance" and len(ok_rows) == len(rows) and rows[0]["upper"] != rows[-1]["upper"]:
        out["rows reversed"] = check(reversed_rows)
    return out


# --- split_fine ---------------------------------------------------------------


def vdc_first_positive(n: int) -> Fraction:
    """Smallest positive value among the first n base-2 Van der Corput
    terms and the end point 1, computed exactly by bit reversal."""
    best = Fraction(1)
    for i in range(1, n):
        bits = bin(i)[2:]
        t = Fraction(int(bits[::-1], 2), 2 ** len(bits))
        best = min(best, t)
    return best


# slack on the bracket width, in ulps of the upper cost: the width is a
# difference of two costs of that size, each rounded once or twice
WIDTH_ULPS = 4


def check_split(d: float, n: int, lower, upper, verdict: str) -> list:
    """The exact minimal cost of power_split at demand d is 3 + d."""
    problems = []
    where = "split_fine d=%r n=%d" % (d, n)
    exact = 3.0 + d
    if not lower or not upper:
        return ["%s: empty front (lower %r, upper %r)" % (where, lower, upper)]
    if not front_leq(lower, [exact]):
        problems.append("%s: lower %r is above the exact cost %r" % (where, sorted(lower), exact))
    if not front_leq([exact], upper):
        problems.append("%s: upper %r is below the exact cost %r" % (where, sorted(upper), exact))
    width = min(upper) - min(lower)
    bound = d * float(vdc_first_positive(n)) + WIDTH_ULPS * math.ulp(min(upper))
    if width > bound:
        problems.append("%s: bracket width %r exceeds %r" % (where, width, bound))
    if verdict != verdict_of(lower, upper):
        problems.append("%s: verdict %r disagrees with its fronts" % (where, verdict))
    return problems


def check_split_ladder(d: float, lowers) -> list:
    """lowers: (n, lower front) in ascending n; the lower cost must not fall."""
    problems = []
    for (n1, lo1), (n2, lo2) in zip(lowers, lowers[1:]):
        if lo1 and lo2 and min(lo2) < min(lo1):
            problems.append(
                "split_fine d=%r: lower cost fell from %r (n=%d) to %r (n=%d)"
                % (d, min(lo1), n1, min(lo2), n2)
            )
    return problems


def planted_split(d: float, n: int, lower, upper, verdict: str) -> dict:
    exact = 3.0 + d
    return {
        "swapped bracket": check_split(d, n, upper, lower, verdict),
        "upper below exact": check_split(d, n, lower, [math.nextafter(exact, 0.0)], verdict),
        "lower above exact": check_split(d, n, [math.nextafter(exact, math.inf)], upper, verdict),
        "bracket too wide": check_split(d, n, [min(lower) - d / 2], upper, verdict),
        "verdict flipped": check_split(d, n, lower, upper, "indeterminate"),
        "lower falls with n": check_split_ladder(d, [(n, [exact]), (2 * n, lower)]),
    }


# --- finite_loops ---------------------------------------------------------------


def order_table(poset) -> dict:
    """The poset's order as an explicit relation, built once before timing."""
    elems = poset.elements()
    return {(a, b): poset.leq(a, b) for a in elems for b in elems}


def table_front_leq(table, lo, hi) -> bool:
    return all(any(table[a, b] for a in lo) for b in hi)


def check_finite(ref_lo, ref_hi, table, lower, upper, verdict, converged, where) -> list:
    """Each side must equal the brute-force front; lower <= upper."""
    problems = []
    if lower != ref_lo:
        problems.append("%s: lower %r, brute force %r" % (where, sorted(map(str, lower)), sorted(map(str, ref_lo))))
    if upper != ref_hi:
        problems.append("%s: upper %r, brute force %r" % (where, sorted(map(str, upper)), sorted(map(str, ref_hi))))
    if not table_front_leq(table, lower, upper):
        problems.append("%s: lower front is not below the upper front" % where)
    if verdict != verdict_of(lower, upper):
        problems.append("%s: verdict %r disagrees with its fronts" % (where, verdict))
    if not converged:
        problems.append("%s: a loop did not converge" % where)
    return problems


def planted_finite(ref_lo, ref_hi, table, lower, upper, verdict, bottom) -> dict:
    """Wrong variants of a correct answer whose lower and upper differ."""

    def perturbed(front):
        return frozenset(list(front)[1:]) if front else frozenset([bottom])

    def run(lo, hi, v=verdict):
        return check_finite(ref_lo, ref_hi, table, lo, hi, v, True, "planted")

    return {
        "perturbed lower front": run(perturbed(lower), upper),
        "perturbed upper front": run(lower, perturbed(upper)),
        "swapped bracket": run(upper, lower),
        "verdict flipped": run(lower, upper, "infeasible" if verdict != "infeasible" else "feasible"),
    }
