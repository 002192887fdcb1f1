"""Design problems and their composition algebra.

A design problem (DP) is a monotone map from a functionality poset to
antichains of a resource poset: more functionality can only demand more
resources.  The empty front means the requirement is infeasible.

DPs compose in series (resources of one feed the functionality of the
next), in parallel (product of interfaces), and by closing a feedback
loop.  A loop is solved as the least fixed point of a one-step map over
resource fronts, computed by Kleene iteration from the bottom front.
Least-fixed-point reasoning assumes the step map is monotone; on
infinite posets convergence additionally relies on the ascent reaching a
fixed point within the iteration cap, and a capped run is reported as a
(valid) lower bound with converged=False.

Queries are checked once, by evaluate, solve and kleene_solve; composites
call their parts' _eval directly and build fronts without re-checking
points that are already members.  Atom outputs still enter through
checked construction: MonotoneMap results via the Antichain constructor,
catalogue rows in the Catalogue constructor.
"""

import bisect
import contextvars
from dataclasses import dataclass, field

from .antichains import Antichain, _unchecked_front
from .errors import CompositionError, DomainError
from .posets import (
    FinitePoset,
    Poset,
    ProductPoset,
    RealPlus,
    arity,
    concat_elements,
    product,
    split_element,
)

DEFAULT_MAX_ITER = 10**6

UNIT_POSET = FinitePoset.chain(["*"], name="unit")


class DesignProblem:
    """Base class; subclasses implement _eval on validated input."""

    funsp: Poset
    ressp: Poset

    def __init__(self, funsp: Poset, ressp: Poset):
        self.funsp = funsp
        self.ressp = ressp

    def evaluate(self, f) -> Antichain:
        """Antichain of minimal resources sufficient for functionality f."""
        self.funsp.check_member(f)
        return self._eval(f)

    def _eval(self, f) -> Antichain:
        raise NotImplementedError

    def describe(self) -> str:
        return "%s: %s -> %s" % (
            type(self).__name__,
            self.funsp.describe(),
            self.ressp.describe(),
        )

    def __repr__(self):
        return "<%s>" % self.describe()


class MonotoneMap(DesignProblem):
    """Lift of a monotone function to a DP.

    fn receives a functionality value and returns either a single
    resource point or a list/set of points (lists and sets are treated
    as collections, anything else as one point).  Monotonicity is the
    caller's obligation; find_monotonicity_violation can spot-check it.
    """

    def __init__(self, funsp, ressp, fn, name: str = ""):
        super().__init__(funsp, ressp)
        self.fn = fn
        self.name = name

    def _eval(self, f) -> Antichain:
        out = self.fn(f)
        pts = list(out) if isinstance(out, (list, set, frozenset)) else [out]
        return Antichain(self.ressp, pts)


class Catalogue(DesignProblem):
    """Finite list of implementations (f_i, r_i).

    A query f is answered by the minimal resources among implementations
    providing at least f; no such implementation means infeasible.
    Catalogues are monotone by construction.

    When the first functionality axis is a real chain, rows are indexed
    by that coordinate: a query bisects to the rows whose first
    coordinate reaches f's and compares only those.
    """

    def __init__(self, funsp, ressp, entries, name: str = ""):
        super().__init__(funsp, ressp)
        entries = [(f, r) for f, r in entries]
        for f, r in entries:
            funsp.check_member(f)
            ressp.check_member(r)
        self.entries = entries
        self.name = name
        self._order = None
        if isinstance(funsp.factors[0], RealPlus):
            lead = [self._lead(fi) for fi, _ in entries]
            self._order = sorted(range(len(entries)), key=lead.__getitem__)
            self._keys = [lead[i] for i in self._order]

    def _lead(self, f):
        return f if isinstance(self.funsp, RealPlus) else f[0]

    def _eval(self, f) -> Antichain:
        entries, leq = self.entries, self.funsp.leq
        if self._order is None:
            pts = [r for fi, r in entries if leq(f, fi)]
        else:
            start = bisect.bisect_left(self._keys, self._lead(f))
            # rows in entry order, so the front is built exactly as by a full scan
            hits = sorted(i for i in self._order[start:] if leq(f, entries[i][0]))
            pts = [entries[i][1] for i in hits]
        return _unchecked_front(self.ressp, pts)


class ConstantResource(DesignProblem):
    """Fixed front regardless of the queried functionality."""

    def __init__(self, front: Antichain, funsp: Poset | None = None):
        super().__init__(funsp if funsp is not None else UNIT_POSET, front.poset)
        self.front = front

    def _eval(self, f) -> Antichain:
        return self.front


class BottomDP(DesignProblem):
    """Least DP: everything is free."""

    def _eval(self, f) -> Antichain:
        return _unchecked_front(self.ressp, [self.ressp.bottom()])


class TopDP(DesignProblem):
    """Greatest DP: nothing is feasible."""

    def _eval(self, f) -> Antichain:
        return _unchecked_front(self.ressp, [])


class IdentityDP(DesignProblem):
    """Passes the required functionality through as the needed resource."""

    def __init__(self, space: Poset):
        super().__init__(space, space)

    def _eval(self, f) -> Antichain:
        return _unchecked_front(self.ressp, [f])


class SeriesDP(DesignProblem):
    def __init__(self, first: DesignProblem, second: DesignProblem):
        if first.ressp != second.funsp:
            raise CompositionError(
                "series mismatch: first produces %s but second consumes %s"
                % (first.ressp.describe(), second.funsp.describe())
            )
        super().__init__(first.funsp, second.ressp)
        self.first = first
        self.second = second

    def _eval(self, f) -> Antichain:
        pts = []
        for r1 in self.first._eval(f):
            pts.extend(self.second._eval(r1).points)
        return _unchecked_front(self.ressp, pts)


class ParDP(DesignProblem):
    def __init__(self, left: DesignProblem, right: DesignProblem):
        super().__init__(
            product(left.funsp, right.funsp), product(left.ressp, right.ressp)
        )
        self.left = left
        self.right = right

    def _eval(self, f) -> Antichain:
        fl, fr = split_element(self.left.funsp, self.right.funsp, f)
        return self.left._eval(fl).cross(self.right._eval(fr))


def loop_signature(dp: DesignProblem) -> tuple[Poset, Poset]:
    """Split dp's functionality into (kept, fed-back) parts for a loop.

    The fed-back part must equal the resource space and must leave at
    least one leading functionality factor.
    """
    ffac = dp.funsp.factors
    rfac = dp.ressp.factors
    n = len(rfac)
    if len(ffac) <= n or tuple(ffac[-n:]) != tuple(rfac):
        raise CompositionError(
            "loop mismatch: functionality %s does not end with resources %s"
            % (dp.funsp.describe(), dp.ressp.describe())
        )
    lead = ffac[:-n]
    f1sp = lead[0] if len(lead) == 1 else ProductPoset(lead)
    return f1sp, dp.ressp


def _combine_loop_input(f1sp: Poset, f1, rsp: Poset, r):
    return concat_elements(f1sp, f1, rsp, r)


class LoopDP(DesignProblem):
    """Feedback closure: the trailing functionality inputs are the DP's
    own resources, solved to the least fixed point."""

    def __init__(self, body: DesignProblem, max_iter: int | None = None):
        f1sp, rsp = loop_signature(body)
        super().__init__(f1sp, rsp)
        self.body = body
        self.max_iter = max_iter

    def _eval(self, f1) -> Antichain:
        report = kleene_solve(self.body, f1, max_iter=self.max_iter)
        trace = _loop_trace.get()
        if trace is not None:
            trace.append(report)
        return report.front


def series(first: DesignProblem, second: DesignProblem) -> SeriesDP:
    return SeriesDP(first, second)


def par(left: DesignProblem, right: DesignProblem) -> ParDP:
    return ParDP(left, right)


def loop(body: DesignProblem, max_iter: int | None = None) -> LoopDP:
    return LoopDP(body, max_iter=max_iter)


@dataclass
class SolveReport:
    """Outcome of a solve: the front plus loop-iteration bookkeeping."""

    front: Antichain
    iterations: int
    converged: bool
    history: list | None = field(default=None, repr=False)

    @property
    def feasible(self) -> bool:
        return not self.front.is_empty

    def to_json(self) -> dict:
        return {
            "feasible": self.feasible,
            "antichain": self.front.to_json(),
            "iterations": self.iterations,
            "converged": self.converged,
        }


def kleene_solve(
    dp: DesignProblem,
    f1,
    max_iter: int | None = None,
    keep_history: bool = False,
) -> SolveReport:
    """Least fixed point of the loop map by Kleene ascent from {bottom}.

    Iterations count applications of the loop map (re-evaluate the body
    at each point of the current front and keep only outputs above the
    point that produced them), including the one that confirms the
    front stopped changing.  Hitting the cap returns the last iterate,
    which under-approximates the true front, with converged=False.
    """
    f1sp, rsp = loop_signature(dp)
    f1sp.check_member(f1)
    if max_iter is None:
        max_iter = DEFAULT_MAX_ITER
    cache: dict = {}

    def eval_at(r):
        hit = cache.get(r)
        if hit is None:
            hit = cache[r] = dp._eval(_combine_loop_input(f1sp, f1, rsp, r))
        return hit

    front = _unchecked_front(rsp, [rsp.bottom()])
    history = [front] if keep_history else None
    iterations = 0
    converged = False
    while iterations < max_iter:
        pts = []
        for r in front.points:
            pts.extend(p for p in eval_at(r).points if rsp.leq(r, p))
        nxt = _unchecked_front(rsp, pts)
        iterations += 1
        if keep_history:
            history.append(nxt)
        if nxt == front:
            converged = True
            break
        front = nxt
    return SolveReport(front=front, iterations=iterations, converged=converged, history=history)


_loop_trace: contextvars.ContextVar = contextvars.ContextVar("loop_trace", default=None)


def solve(dp: DesignProblem, f, max_iter: int | None = None) -> SolveReport:
    """Evaluate dp at f, aggregating loop work across the whole run.

    iterations sums the loop-map applications of every loop solved on
    the way (nested loops re-solve under each outer step); converged is
    the conjunction.  A loop-free evaluation reports 0 iterations.
    """
    if max_iter is not None:
        dp = _override_max_iter(dp, max_iter)
    reports: list[SolveReport] = []
    token = _loop_trace.set(reports)
    try:
        front = dp.evaluate(f)
    finally:
        _loop_trace.reset(token)
    return SolveReport(
        front=front,
        iterations=sum(r.iterations for r in reports),
        converged=all(r.converged for r in reports),
    )


def _override_max_iter(dp: DesignProblem, max_iter: int) -> DesignProblem:
    if isinstance(dp, SeriesDP):
        return SeriesDP(
            _override_max_iter(dp.first, max_iter), _override_max_iter(dp.second, max_iter)
        )
    if isinstance(dp, ParDP):
        return ParDP(
            _override_max_iter(dp.left, max_iter), _override_max_iter(dp.right, max_iter)
        )
    if isinstance(dp, LoopDP):
        return LoopDP(_override_max_iter(dp.body, max_iter), max_iter=max_iter)
    return dp


# --- term algebra ---------------------------------------------------------


@dataclass(frozen=True)
class Term:
    pass


@dataclass(frozen=True)
class Atom(Term):
    name: str


@dataclass(frozen=True)
class Series(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Par(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Loop(Term):
    body: Term


def atoms_of(term: Term) -> list[str]:
    """Atom names in left-to-right order, without duplicates."""
    out: list[str] = []

    def walk(t: Term):
        if isinstance(t, Atom):
            if t.name not in out:
                out.append(t.name)
        elif isinstance(t, (Series, Par)):
            walk(t.left)
            walk(t.right)
        elif isinstance(t, Loop):
            walk(t.body)

    walk(term)
    return out


def term_to_text(term: Term) -> str:
    if isinstance(term, Atom):
        return term.name
    if isinstance(term, Series):
        return "series(%s, %s)" % (term_to_text(term.left), term_to_text(term.right))
    if isinstance(term, Par):
        return "par(%s, %s)" % (term_to_text(term.left), term_to_text(term.right))
    if isinstance(term, Loop):
        return "loop(%s)" % term_to_text(term.body)
    raise TypeError("not a term: %r" % (term,))


def evaluate_term(term: Term, valuation, max_iter: int | None = None, path: str = "term") -> DesignProblem:
    """Interpret a term over a valuation of its atoms.

    Composition type errors carry the path of the offending sub-term.
    """
    if isinstance(term, Atom):
        try:
            return valuation[term.name]
        except KeyError:
            raise DomainError("%s: no design problem named %r" % (path, term.name)) from None
    if isinstance(term, Series):
        left = evaluate_term(term.left, valuation, max_iter, path + ".series.left")
        right = evaluate_term(term.right, valuation, max_iter, path + ".series.right")
        try:
            return series(left, right)
        except CompositionError as e:
            raise CompositionError("%s: %s" % (path, e)) from None
    if isinstance(term, Par):
        left = evaluate_term(term.left, valuation, max_iter, path + ".par.left")
        right = evaluate_term(term.right, valuation, max_iter, path + ".par.right")
        return par(left, right)
    if isinstance(term, Loop):
        body = evaluate_term(term.body, valuation, max_iter, path + ".loop")
        try:
            return loop(body, max_iter=max_iter)
        except CompositionError as e:
            raise CompositionError("%s: %s" % (path, e)) from None
    raise TypeError("not a term: %r" % (term,))


# --- order and monotonicity checks ----------------------------------------


def _query_points(dp: DesignProblem, fs):
    if fs is not None:
        return list(fs)
    if dp.funsp.is_finite:
        return dp.funsp.elements()
    raise DomainError(
        "functionality space %s is infinite; pass explicit query points"
        % dp.funsp.describe()
    )


def dp_leq(dp1: DesignProblem, dp2: DesignProblem, fs=None) -> bool:
    """Pointwise front comparison; exhaustive when the space is finite."""
    if dp1.funsp != dp2.funsp or dp1.ressp != dp2.ressp:
        raise DomainError("design problems have different interfaces")
    return all(dp1.evaluate(f).leq(dp2.evaluate(f)) for f in _query_points(dp1, fs))


def find_monotonicity_violation(dp: DesignProblem, fs=None):
    """Search query pairs f <= g for a front order violation.

    Returns a witness pair or None.  Exhaustive on finite spaces, else
    checks the given sample points.
    """
    pts = _query_points(dp, fs)
    fronts = {f: dp.evaluate(f) for f in pts}
    for f in pts:
        for g in pts:
            if f != g and dp.funsp.leq(f, g):
                if not fronts[f].leq(fronts[g]):
                    return (f, g)
    return None
