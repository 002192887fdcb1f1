"""Interval uncertainty over design problems.

An uncertain DP is an ordered pair of DPs (lower, upper) over the same
interfaces: the lower side is optimistic (demands at most what the true
problem demands), the upper side pessimistic.  Uncertain DPs are ordered
by interval containment, and a term is evaluated under uncertainty by
interpreting it with all lower sides and with all upper sides.  The two
trees are built in one walk of the term: each upper node takes its
interfaces from its lower twin, which checked the composition (see
dp.evaluate_sides), and keeps its own parts, memos and loop starts.
Anything the upper run achieves is certainly feasible; anything the
lower run rules out is certainly infeasible; in between the answer is
indeterminate.  A loop stopped by the iteration cap returns its last
Kleene iterate, which lies below the least fixed point: on the lower
side that is still a lower bound, and an empty iterate (the top front)
proves infeasibility; on the upper side its points are not proved
feasible.  So the verdict is feasible only when the upper run converged.

Build a pair once with evaluate_uncertain and solve it at many queries
with UncertainDP.solve: the trees, and the fronts their loops remember,
are reused.  solve_uncertain builds and solves in one call.
"""

import itertools

from .dp import (
    Catalogue,
    DesignProblem,
    SolveReport,
    Term,
    dp_leq,
    evaluate_sides,
    solve,
)
from .errors import DomainError
from .posets import Poset, RealPlus

VERDICT_FEASIBLE = "feasible"
VERDICT_INFEASIBLE = "infeasible"
VERDICT_INDETERMINATE = "indeterminate"


class UncertainDP:
    """Pair of DPs bounding an imprecisely known design problem."""

    __slots__ = ("lower", "upper")

    def __init__(self, lower: DesignProblem, upper: DesignProblem):
        if lower.funsp != upper.funsp or lower.ressp != upper.ressp:
            raise DomainError(
                "uncertain bounds have different interfaces: %s vs %s"
                % (lower.describe(), upper.describe())
            )
        self.lower = lower
        self.upper = upper

    @property
    def funsp(self) -> Poset:
        return self.lower.funsp

    @property
    def ressp(self) -> Poset:
        return self.lower.ressp

    def describe(self) -> str:
        return "uncertain[%s .. %s]" % (self.lower.describe(), self.upper.describe())

    def solve(self, f, max_iter: int | None = None) -> "UncertainSolution":
        """Solve both bounds at f and classify the verdict.

        The lower front under-approximates and the upper front
        over-approximates the true minimal resources.
        """
        lo = solve(self.lower, f, max_iter)
        hi = solve(self.upper, f, max_iter)
        return UncertainSolution(
            funsp=self.funsp, query=f, lower=lo, upper=hi, verdict=classify(lo, hi)
        )

    def __repr__(self):
        return "<%s>" % self.describe()


def degenerate(dp: DesignProblem) -> UncertainDP:
    """Exactly known DP as a width-zero interval."""
    return UncertainDP(dp, dp)


def udp_leq(u1: UncertainDP, u2: UncertainDP, fs=None) -> bool:
    """Interval containment: u1's bounds lie inside u2's.

    Checked pointwise; exhaustive when the functionality space is
    finite, otherwise on the given sample points.
    """
    return dp_leq(u2.lower, u1.lower, fs) and dp_leq(u1.upper, u2.upper, fs)


def check_udp(udp: UncertainDP, fs=None) -> None:
    """Verify lower <= upper on queries, raising with a witness.

    Exhaustive for finite functionality spaces; infinite real axes are
    sampled on a fixed grid unless explicit points are given.
    """
    if fs is None:
        fs = default_query_grid(udp.funsp)
    for f in fs:
        if not udp.lower.evaluate(f).leq(udp.upper.evaluate(f)):
            raise DomainError(
                "not a valid uncertain DP: lower bound exceeds upper at f=%s"
                % udp.funsp.format(f)
            )


_REAL_AXIS_GRID = [0.0, 0.1, 0.5, 1.0, 3.0, 10.0, 100.0]


def default_query_grid(funsp: Poset, cap: int = 512) -> list:
    """Deterministic query sample: exhaustive on finite axes, a fixed
    log-ish grid on real axes, truncated to at most cap points."""
    axes = [p.elements() if p.is_finite else _REAL_AXIS_GRID for p in funsp.factors]
    if len(axes) == 1:
        return axes[0][:cap]
    # the first cap points as they come: the whole product has 7 ** n
    # points on n real axes
    return list(itertools.islice(itertools.product(*axes), cap))


def evaluate_uncertain(term: Term, uvaluation) -> UncertainDP:
    """Interpret a term over all lower and all upper bounds, in one walk
    (evaluate_sides): each upper node takes its interfaces from its lower
    twin."""
    lower, upper = evaluate_sides(term, {k: (u.lower, u.upper) for k, u in uvaluation.items()})
    return UncertainDP(lower, upper)


class UncertainSolution:
    """Bracketed solve outcome at one query point."""

    def __init__(self, funsp: Poset, query, lower: SolveReport, upper: SolveReport, verdict: str):
        self.funsp = funsp
        self.query = query
        self.lower = lower
        self.upper = upper
        self.verdict = verdict

    def __repr__(self):
        return "UncertainSolution(funsp=%r, query=%r, lower=%r, upper=%r, verdict=%r)" % (
            self.funsp, self.query, self.lower, self.upper, self.verdict
        )

    @property
    def converged(self) -> bool:
        return self.lower.converged and self.upper.converged

    def to_json(self) -> dict:
        return {
            "query": self.funsp.render(self.query),
            "lower": self.lower.to_json(),
            "upper": self.upper.to_json(),
            "verdict": self.verdict,
        }


def classify(lower: SolveReport, upper: SolveReport) -> str:
    if upper.feasible and upper.converged:
        return VERDICT_FEASIBLE
    if not lower.feasible:
        return VERDICT_INFEASIBLE
    return VERDICT_INDETERMINATE


def solve_uncertain(
    term: Term, uvaluation, f, max_iter: int | None = None
) -> UncertainSolution:
    """Build the pair for term and solve it at f (see UncertainDP.solve)."""
    return evaluate_uncertain(term, uvaluation).solve(f, max_iter)


def scale_catalogue(cat: Catalogue, p: float) -> UncertainDP:
    """Uncertain catalogue from a relative spread p (a fraction).

    The optimistic side divides every resource figure by (1+p), the
    pessimistic side by (1-p); both keep the functionality column.  A
    checked nonnegative figure over a positive divisor is nonnegative
    and never NaN, so the scaled rows enter unchecked (Catalogue._of).
    """
    if not isinstance(cat, Catalogue):
        raise DomainError("can only scale catalogue design problems")
    if not 0 <= p < 1:
        raise DomainError("relative spread must satisfy 0 <= p < 1, got %r" % (p,))
    for axis in cat.ressp.factors:
        if not isinstance(axis, RealPlus):
            raise DomainError("catalogue resources must be real chains to scale")

    fs = [f for f, _ in cat.entries]
    rs = [r for _, r in cat.entries]
    wide = len(cat.ressp.factors) > 1

    def scaled(divisor):
        # a column at a time; both sides share the functionality column and its cuts
        if wide:
            out = zip(*[[v / divisor for v in column] for column in zip(*rs)])
        else:
            out = [r / divisor for r in rs]
        return Catalogue._of(cat.funsp, cat.ressp, list(zip(fs, out)), like=cat)

    return UncertainDP(scaled(1 + p), scaled(1 - p))
