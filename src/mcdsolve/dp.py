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
(valid) lower bound with converged=False.  The cap is an argument of
solve and kleene_solve, not part of the tree.

The ascent asks a loop body the same questions over and over: parts of
the body that never see the fed-back resources get the same input at
every front point of every iteration.  So a LoopDP switches on a bounded
memo (query -> front) in each series node of its body that contains no
loop.  Par nodes get none: a par node's input is the input of the
series above it or the output of that series' first part (at the body
root, the loop's own per-solve cache), so a repeat is answered above it
first; on the drone sweeps and random finite loops they never hit.
Outside loops, where a node is asked once per solve, a memo would only
cost time; atoms are never memoised, as they live as long as the model.
Loops, and composites containing one, are not memoised either: each
Kleene solve reports its iterations to solve, and a remembered front
would drop them from the count.  A memo lives as long as its tree, so
queries solved on one tree share it.

Queries are checked once, by evaluate, solve and kleene_solve; composites
call their parts' _eval directly.  Inside the kernel a front travels as
the frozenset of its points: every _eval returns one, a series node
minimises the union of its second part's fronts once, and a par node
takes the product of its parts' fronts, which needs no minimising.  An
Antichain object is made only where a front leaves the kernel: by
evaluate, and by kleene_solve for its report and history.  Atom outputs
are checked where they enter: a single MonotoneMap point by the resource
space's check_member, a list of them by the Antichain constructor,
catalogue rows in the Catalogue constructor.
"""

import bisect
import contextvars
import marshal
from dataclasses import dataclass, field

from .antichains import Antichain, _cross, _minimize
from .errors import CompositionError, DomainError
from .posets import (
    FinitePoset,
    Poset,
    ProductPoset,
    RealPlus,
    concat_elements,
    product,
    split_element,
)

DEFAULT_MAX_ITER = 10**6

MEMO_SIZE = 1024  # fronts a memoised node remembers; once full it adds no more

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
        return Antichain._of(self.ressp, self._eval(f))

    def _eval(self, f) -> frozenset:
        """Points of the front at f, a member of funsp."""
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

    def _eval(self, f) -> frozenset:
        out = self.fn(f)
        if isinstance(out, (list, set, frozenset)):
            return Antichain(self.ressp, out).points
        self.ressp.check_member(out)
        return frozenset((out,))


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

    def _eval(self, f) -> frozenset:
        entries, leq = self.entries, self.funsp.leq
        if self._order is None:
            pts = [r for fi, r in entries if leq(f, fi)]
        else:
            start = bisect.bisect_left(self._keys, self._lead(f))
            # rows in entry order, so the front is built exactly as by a full scan
            hits = sorted(i for i in self._order[start:] if leq(f, entries[i][0]))
            pts = [entries[i][1] for i in hits]
        return frozenset(_minimize(pts, self.ressp))


class ConstantResource(DesignProblem):
    """Fixed front regardless of the queried functionality."""

    def __init__(self, front: Antichain, funsp: Poset | None = None):
        super().__init__(funsp if funsp is not None else UNIT_POSET, front.poset)
        self.front = front

    def _eval(self, f) -> frozenset:
        return self.front.points


class BottomDP(DesignProblem):
    """Least DP: everything is free."""

    def _eval(self, f) -> frozenset:
        return frozenset((self.ressp.bottom(),))


class TopDP(DesignProblem):
    """Greatest DP: nothing is feasible."""

    def _eval(self, f) -> frozenset:
        return frozenset()


class IdentityDP(DesignProblem):
    """Passes the required functionality through as the needed resource."""

    def __init__(self, space: Poset):
        super().__init__(space, space)

    def _eval(self, f) -> frozenset:
        return frozenset((f,))


def _memo_key(f):
    # Equal values can print differently (0, 0.0 and -0.0; 1 and 1.0) and
    # an atom may pass its input through to its front, so the key keeps
    # the representation: marshal format 2 writes type and bits, no refs.
    try:
        return marshal.dumps(f, 2)
    except ValueError:  # not a builtin value
        return (f, repr(f))


class SeriesDP(DesignProblem):
    _memo = None  # dict key -> front, switched on under loops

    def __init__(self, first: DesignProblem, second: DesignProblem):
        if first.ressp != second.funsp:
            raise CompositionError(
                "series mismatch: first produces %s but second consumes %s"
                % (first.ressp.describe(), second.funsp.describe())
            )
        super().__init__(first.funsp, second.ressp)
        self.first = first
        self.second = second

    def _eval(self, f) -> frozenset:
        memo = self._memo
        if memo is not None:
            key = _memo_key(f)
            front = memo.get(key)
            if front is not None:
                return front
        pts = []
        for r1 in self.first._eval(f):
            pts.extend(self.second._eval(r1))
        front = frozenset(_minimize(pts, self.ressp))
        if memo is not None and len(memo) < MEMO_SIZE:
            memo[key] = front
        return front


class ParDP(DesignProblem):
    def __init__(self, left: DesignProblem, right: DesignProblem):
        super().__init__(
            product(left.funsp, right.funsp), product(left.ressp, right.ressp)
        )
        self.left = left
        self.right = right
        self._flat = (isinstance(left.ressp, ProductPoset), isinstance(right.ressp, ProductPoset))

    def _eval(self, f) -> frozenset:
        fl, fr = split_element(self.left.funsp, self.right.funsp, f)
        # both parts run, even when the left front is empty: a loop in
        # the right part reports its iterations to solve
        left = self.left._eval(fl)
        right = self.right._eval(fr)
        return _cross(left, self._flat[0], right, self._flat[1])


def loop_signature(funsp: Poset, ressp: Poset) -> tuple[Poset, Poset]:
    """Split a loop body's functionality into (kept, fed-back) parts.

    The fed-back part must equal the resource space and must leave at
    least one leading functionality factor.
    """
    ffac = funsp.factors
    rfac = ressp.factors
    n = len(rfac)
    if len(ffac) <= n or tuple(ffac[-n:]) != tuple(rfac):
        raise CompositionError(
            "loop mismatch: functionality %s does not end with resources %s"
            % (funsp.describe(), ressp.describe())
        )
    lead = ffac[:-n]
    f1sp = lead[0] if len(lead) == 1 else ProductPoset(lead)
    return f1sp, ressp


def _enable_memos(dp: DesignProblem) -> bool:
    """Switch memos on in the loop-free series nodes under dp, not
    looking inside loops; returns whether dp itself is loop-free."""
    if isinstance(dp, LoopDP):
        return False
    if isinstance(dp, SeriesDP):
        parts = (dp.first, dp.second)
    elif isinstance(dp, ParDP):
        parts = (dp.left, dp.right)
    else:
        return True
    loop_free = [_enable_memos(p) for p in parts]  # visit both parts
    if not all(loop_free):
        return False
    if isinstance(dp, SeriesDP) and dp._memo is None:
        dp._memo = {}
    return True


class LoopDP(DesignProblem):
    """Feedback closure: the trailing functionality inputs are the DP's
    own resources, solved to the least fixed point."""

    def __init__(self, body: DesignProblem):
        self.signature = loop_signature(body.funsp, body.ressp)
        super().__init__(*self.signature)
        self.body = body
        _enable_memos(body)

    def _eval(self, f1) -> frozenset:
        max_iter, reports = _solve_run.get()
        report = kleene_solve(self.body, f1, max_iter, signature=self.signature)
        if reports is not None:
            reports.append(report)
        return report.front.points


def series(first: DesignProblem, second: DesignProblem) -> SeriesDP:
    return SeriesDP(first, second)


def par(left: DesignProblem, right: DesignProblem) -> ParDP:
    return ParDP(left, right)


def loop(body: DesignProblem) -> LoopDP:
    return LoopDP(body)


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
    signature: tuple[Poset, Poset] | None = None,
) -> SolveReport:
    """Least fixed point of the loop map by Kleene ascent from {bottom}.

    Iterations count applications of the loop map (re-evaluate the body
    at each point of the current front and keep only outputs above the
    point that produced them), including the one that confirms the
    front stopped changing.  Hitting the cap returns the last iterate,
    which under-approximates the true front, with converged=False.

    A caller passing the body's loop signature (LoopDP, which derived it
    once) vouches for it and for f1; otherwise both are checked here.
    """
    if signature is None:
        f1sp, rsp = loop_signature(dp.funsp, dp.ressp)
        f1sp.check_member(f1)
    else:
        f1sp, rsp = signature
    if max_iter is None:
        max_iter = DEFAULT_MAX_ITER
    cache: dict = {}

    def eval_at(r):
        hit = cache.get(r)
        if hit is None:
            hit = cache[r] = dp._eval(concat_elements(f1sp, f1, rsp, r))
        return hit

    front = frozenset((rsp.bottom(),))
    history = [Antichain._of(rsp, front)] if keep_history else None
    iterations = 0
    converged = False
    while iterations < max_iter:
        pts = []
        for r in front:
            pts.extend(p for p in eval_at(r) if rsp.leq(r, p))
        nxt = frozenset(_minimize(pts, rsp))
        iterations += 1
        if keep_history:
            history.append(Antichain._of(rsp, nxt))
        if nxt == front:
            converged = True
            break
        front = nxt
    front = Antichain._of(rsp, front)
    return SolveReport(front=front, iterations=iterations, converged=converged, history=history)


# (cap, reports) of the solve in progress: each loop it solves takes the
# cap and appends its report
_solve_run: contextvars.ContextVar = contextvars.ContextVar("solve_run", default=(None, None))


def solve(dp: DesignProblem, f, max_iter: int | None = None) -> SolveReport:
    """Evaluate dp at f, aggregating loop work across the whole run.

    max_iter caps every loop solved on the way (DEFAULT_MAX_ITER when
    None).  iterations sums the loop-map applications of those loops
    (nested loops re-solve under each outer step); converged is the
    conjunction.  A loop-free evaluation reports 0 iterations.
    """
    reports: list[SolveReport] = []
    token = _solve_run.set((max_iter, reports))
    try:
        front = dp.evaluate(f)
    finally:
        _solve_run.reset(token)
    return SolveReport(
        front=front,
        iterations=sum(r.iterations for r in reports),
        converged=all(r.converged for r in reports),
    )


# --- term algebra ---------------------------------------------------------


@dataclass(frozen=True)
class Term:
    """A composition of named atoms.  A node's span is where the parser
    found it in the model text (None when built in code); it takes no
    part in equality, hashing or repr."""


@dataclass(frozen=True)
class Atom(Term):
    name: str
    span: object = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Series(Term):
    left: Term
    right: Term
    span: object = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Par(Term):
    left: Term
    right: Term
    span: object = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Loop(Term):
    body: Term
    span: object = field(default=None, compare=False, repr=False)


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


def evaluate_term(term: Term, valuation, path: str = "term") -> DesignProblem:
    """Interpret a term over a valuation of its atoms.

    Composition type errors carry the path of the offending sub-term.
    """
    if isinstance(term, Atom):
        try:
            return valuation[term.name]
        except KeyError:
            raise DomainError("%s: no design problem named %r" % (path, term.name)) from None
    if isinstance(term, Series):
        left = evaluate_term(term.left, valuation, path + ".series.left")
        right = evaluate_term(term.right, valuation, path + ".series.right")
        try:
            return series(left, right)
        except CompositionError as e:
            raise CompositionError("%s: %s" % (path, e)) from None
    if isinstance(term, Par):
        left = evaluate_term(term.left, valuation, path + ".par.left")
        right = evaluate_term(term.right, valuation, path + ".par.right")
        return par(left, right)
    if isinstance(term, Loop):
        body = evaluate_term(term.body, valuation, path + ".loop")
        try:
            return loop(body)
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
    fronts = {f: dp.evaluate(f) for f in _query_points(dp, fs)}
    return _violating_pair(dp.funsp, fronts)


def _violating_pair(funsp: Poset, fronts: dict):
    """First pair f <= g (f != g) of evaluated points whose fronts are out
    of order, or None; fronts maps each point to its front."""
    for f in fronts:
        for g in fronts:
            if f != g and funsp.leq(f, g) and not fronts[f].leq(fronts[g]):
                return (f, g)
    return None
