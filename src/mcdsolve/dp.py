"""Design problems and their composition algebra.

A design problem (DP) is a monotone map from a functionality poset to
antichains of a resource poset: more functionality can only demand more
resources.  The empty front means the requirement is infeasible.

DPs compose in series (resources of one feed the functionality of the
next), in parallel (product of interfaces), and by closing a feedback
loop.  A loop's front at f1 is Min{r : some p in h(f1, r) has p <= r},
with h the body.  It is the least fixed point of a one-step map over
resource fronts, computed by Kleene iteration.
The step takes each point r of the front to the minimal upper bounds of
r and each p in h(f1, r) (Poset.joins; just p when r <= p), so it is
monotone and every iterate lies below the answer.  On infinite posets
convergence additionally relies on the ascent reaching a fixed point
within the iteration cap, and a capped run is reported as a (valid)
lower bound with converged=False.  The cap is an argument of solve and
kleene_solve, not part of the tree.  Every loop solves through the one
ascent, kleene_solve, called through this module (bench/tracing.py
counts loop solves there).  Beyond its iterations a solve costs a few
constant steps per loop: choosing the start, one call of kleene_solve,
which reads the order, the joins and the body once, and one report; a
step evaluates the body once at each point of the front it has not met
in this solve.

The step is monotone in f1 too, so the least fixed point at f1' <= f1
lies below the one at f1 and is a post-fixed point of the step there:
an ascent from it reaches the least fixed point at f1, in no more steps
than one from the bottom front.  So a LoopDP keeps f1 and the front of
its last ascent that converged, for as long as its tree lives, and
starts the next ascent from that front when f1' <= f1; otherwise, and
when f1' equals f1 written differently (0.0 and -0.0, 1 and 1.0), from
the bottom front.  Where a loop is asked at several points in turn (a
Kleene step over its front, a series node over its middle front), the
points are visited in the order of their repr, so the front a loop
keeps, and the iterations it counts, do not depend on the hash seed.

A tree is asked the same questions over and over: a loop body at every
front point of every Kleene iteration, and a sweep on every row.  So
some nodes keep a bounded memo (query -> front) for as long as their
tree lives, and each node decides whether it keeps one when it is
built; nothing walks or changes a finished tree.  The rules:
every series node with no loop below it keeps up to MEMO_SIZE fronts,
wherever it sits; a catalogue whose first axis is real keeps the front
of each cell of its axes it is asked (see Catalogue); a loop keeps only
where its next ascent starts; loops, nodes that contain a loop, par
nodes and other atoms keep nothing.  A loop, and a node above one, runs
on every query because each Kleene solve reports its iterations to
solve, and a remembered front would drop them from the count.  A par
node's input is the input of the series above it or the output of that
series' first part (at a loop body's root, the loop's own per-solve
cache), so a repeat is answered above it first.  A memo changes no
answer: its key keeps how the query is written (_memo_key), so 0.0 and
-0.0, which a front may hand on, are remembered apart.

Queries are checked once, by evaluate, solve and kleene_solve; composites
call their parts' _eval directly.  Inside the kernel a front travels as
the frozenset of its points: every _eval returns one, already minimal.
A series node minimises the union of its second part's fronts once, and
when its middle front is one point it hands that point's front on as
it is, the same frozenset; a par node takes the product of its parts'
fronts, which needs no minimising.  A node whose every front is one
point has a point function, f -> that point: a one-point map built by
MonotoneMap._of (a compiled model map, uid's snaps), an identity, and a
series or par node whose parts both have one.  A point function made by
compile_point (every map the model language compiles) carries its
source, its body and its constants, and so does the identity's; uid's
snaps, and any function wrapped after it was made, carry none.  A body
is in statement form: ops, each an operator (+, *, max, min) over two
operands, then the operands it gives; an operand is the input, one of
its coordinates, a constant c[i] or an earlier op's result.
A series node whose middle front has several points pushes them through
point functions (below), and where they make its second part's front,
no node below runs its _eval.  An Antichain object is made only where a
front leaves the kernel: by evaluate, and by kleene_solve for its report
and history.  Atom outputs are checked where they enter: of a MonotoneMap
built by its constructor, a single point by the resource space's
check_member, a list of them by the Antichain constructor; catalogue
rows in the Catalogue constructor.  Outputs that are members by
construction enter unchecked through MonotoneMap._of: every output of
a map the model language compiles (it types them), and the sampled
inverses' fronts, which are minimised once.  The model language checks
each catalogue point as it reads it and builds the catalogue with
Catalogue._of, which does not check the rows again, and so does
scale_catalogue for its two sides.

A series node whose middle front has several points runs its second part
only where it must.  A DP is monotone, so the front at m' >= m adds no
minimal point to the front at m: the series front is that of the minimal
middle points alone.  When built, the node composes push, the point
functions heading its second part's chain of series nodes, and keeps
rest, the chain after them; it minimises the images of its middle points
under push once, then runs rest at each image left; with no rest, they
are the front.  The front is the one a visit of every middle point
gives, each point written alike, but for a point equal as a value to one
of a lower image's and written differently (0.0, -0.0): it keeps the
lower image's writing.  A second part that holds a loop runs at every
middle point, in repr order, so solve's iterations do not move.

The first time a node pushes a front of several points, it makes its
front function, which pushes the whole front in one call and lists the
images in the front's order.  Where every stage carries a source, it is
fused from their bodies: one loop over the front that runs each stage's
ops once per point, with the same float operations in the same order,
so its images are the composition's, bit for bit.  Otherwise it maps
push, which stays composed per point for a parent to compose with its
own heads.  Fusing walks the stages once per tree, never at a build.
One emitter (_text) writes point and front functions alike, one line
per op over fresh locals, x and c[i], calling only max and min.  What
it makes is kept by the stages' ops (posets._compile), so text is
written only for a new body; constants are bound as a function is made.

Terms, and the nodes of modellang's parse tree, are records: subclasses
of Node.  A node's fields are the __slots__ of its class, and its
constructor takes them in that order, then span.  ==, hash and repr go
by the node's type and fields, repr as Name(field=value, ...).  span is
where the parser found the node in a model text (None when built in
code); it takes no part in ==, hash or repr.  A node is not changed
once built.
"""

import bisect
import contextvars
import marshal

from .antichains import Antichain, _cross, _minimize
from .errors import CompositionError, DomainError
from .posets import (
    FinitePoset,
    Poset,
    ProductPoset,
    RealPlus,
    _compile,
    element_parts,
    product,
)

DEFAULT_MAX_ITER = 10**6

MEMO_SIZE = 1024  # fronts a memoised node remembers; once full it adds no more

UNIT_POSET = FinitePoset.chain(["*"], name="unit")


class DesignProblem:
    """Base class; subclasses implement _eval on validated input."""

    funsp: Poset
    ressp: Poset
    holds_loop = False  # whether a LoopDP is this node or below it
    point = None  # f -> the one point of the front at f, where every front has one

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

    _trusted = False  # set by _of(front=True): fn gives a list of members of ressp, unchecked

    def __init__(self, funsp, ressp, fn):
        super().__init__(funsp, ressp)
        self.fn = fn

    @classmethod
    def _of(cls, funsp, ressp, fn, front=False) -> "MonotoneMap":
        """Map whose fn returns one member of ressp for every member of
        funsp (with front=True, a list of members, minimised here),
        proved by its maker (the model language types each map it
        compiles; a sample of a member demand is a member), so its
        outputs are not checked.  A one-point fn is its point function."""
        m = cls(funsp, ressp, fn)
        m._trusted = front
        m.point = None if front else fn
        return m

    def _eval(self, f) -> frozenset:
        point = self.point
        if point is not None:
            return frozenset((point(f),))
        out = self.fn(f)
        if self._trusted:
            return frozenset(_minimize(out, self.ressp))
        if isinstance(out, (list, set, frozenset)):
            return Antichain(self.ressp, out).points
        self.ressp.check_member(out)
        return frozenset((out,))


class Catalogue(DesignProblem):
    """Finite list of implementations (f_i, r_i).

    A query f is answered by the minimal resources among implementations
    providing at least f; no such implementation means infeasible.
    Catalogues are monotone by construction.

    On a real axis, whether f <= f_i holds depends only on where f's
    coordinate falls among the rows' distinct values on that axis, so
    the front at f depends only on its cell: the bisect_left position of
    each real coordinate among those sorted values, and the element
    itself on each finite axis.  When the first axis is real, a
    catalogue keeps the front of each cell it is asked (up to MEMO_SIZE
    of them) and scans its rows only on a miss, in entry order, so a
    front's points are the rows' own, never f's.  All-finite catalogues
    keep no cells: the benchmark's finite_loops builds them fresh for
    each query, so a cell is seldom asked twice, and cells on them cost
    it 19 % of its queries a second and 10 % more peak memory (medians
    of three paired runs).
    """

    def __init__(self, funsp, ressp, entries):
        super().__init__(funsp, ressp)
        entries = [(f, r) for f, r in entries]
        for f, r in entries:
            funsp.check_member(f)
            ressp.check_member(r)
        self._index(entries)

    @classmethod
    def _of(cls, funsp, ressp, entries: list) -> "Catalogue":
        """Catalogue of (f_i, r_i) rows whose maker has already proved
        each f_i a member of funsp and each r_i of ressp (the model
        language checks every point it reads, scale_catalogue divides
        checked rows), so they are not checked again."""
        cat = object.__new__(cls)
        DesignProblem.__init__(cat, funsp, ressp)
        cat._index(entries)
        return cat

    def _index(self, entries: list):
        funsp = self.funsp
        self.entries = entries
        self._cells = None  # cell key -> front, when the first axis is real
        if isinstance(funsp.factors[0], RealPlus):
            rows = [element_parts(funsp, fi) for fi, _ in entries]
            self._cuts = tuple(
                sorted({row[j] for row in rows}) if isinstance(p, RealPlus) else None
                for j, p in enumerate(funsp.factors)
            )
            self._cells = {}

    def _cell(self, f):
        return tuple(
            v if cuts is None else bisect.bisect_left(cuts, v)
            for cuts, v in zip(self._cuts, element_parts(self.funsp, f))
        )

    def _eval(self, f) -> frozenset:
        cells = self._cells
        if cells is not None:
            key = self._cell(f)
            front = cells.get(key)
            if front is not None:
                return front
        leq = self.funsp.leq
        front = frozenset(_minimize([r for fi, r in self.entries if leq(f, fi)], self.ressp))
        if cells is not None and len(cells) < MEMO_SIZE:
            cells[key] = front
        return front


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

    point = staticmethod(lambda f: f)

    def __init__(self, space: Poset):
        super().__init__(space, space)

    def _eval(self, f) -> frozenset:
        return frozenset((f,))


IdentityDP.point.source = ((), (("x", None),), ())


def _memo_key(f):
    # Equal values can print differently (0, 0.0 and -0.0; 1 and 1.0) and
    # an atom may pass its input through to its front, so the key keeps
    # the representation: marshal format 2 writes type and bits, no refs.
    try:
        return marshal.dumps(f, 2)
    except ValueError:  # not a builtin value
        return (f, repr(f))


def _then(g, h):
    """The point function g, then h; None as either is the identity."""
    return g if h is None else h if g is None else lambda f: h(g(f))


# each operator's line over its operands' texts; 0 * inf is 0 here: a
# zero gain switches a contribution off
_LINES = {"+": "{0} + {1}", "*": "0.0 if {0} == 0 or {1} == 0 else {0} * {1}",
          "max": "max({0}, {1})", "min": "min({0}, {1})"}


def _operand(o, var: str, off: int, base: int) -> str:
    """Text of a map's operand: ("x", None) its input, named var, ("x", i)
    the input's coordinate i, ("c", i) its constant c[off + i], ("v", i)
    the result of its op i, the local v(base + i)."""
    kind, i = o
    if kind == "x":
        return var if i is None else "%s[%d]" % (var, i)
    return "c[%d]" % (off + i) if kind == "c" else "v%d" % (base + i)


def _text(form: str, stages: tuple) -> str:
    """Text defining make(c), whose function runs stages straight through:
    point(x) at one value, or push(xs) at each x of xs, listing the
    images.  A stage is a map's (ops, outs, number of constants) or a par
    node's (cut, split, flat, left stages, right stages); c holds the
    maps' constants in stage order."""
    lines, off = [], 0

    def local(expr):
        lines.append("v%d = %s" % (len(lines), expr))
        return "v%d" % (len(lines) - 1)

    def run(stages, var):
        nonlocal off
        for stage in stages:
            if len(stage) == 5:  # a par node: ParDP's split, _cross's tuples
                cut, (left_tuple, right_tuple), (lf, rf), left, right = stage
                a = run(left, local("%s[:%d]" % (var, cut) if left_tuple else var + "[0]"))
                b = run(right, local("%s[%d%s]" % (var, cut, ":" if right_tuple else "")))
                var = local("%s + %s" % (a if lf else "(%s,)" % a, b if rf else "(%s,)" % b)
                            if lf or rf else "(%s, %s)" % (a, b))
                continue
            ops, outs, n = stage
            base, c = len(lines), off
            for op, a, b in ops:
                local(_LINES[op].format(_operand(a, var, c, base), _operand(b, var, c, base)))
            off += n
            names = [_operand(o, var, c, base) for o in outs]
            var = names[0] if len(names) == 1 else local("(%s)" % ", ".join(names))
        return var

    out = run(stages, "x")
    if form == "point":
        return "def make(c):\n    def point(x):\n%s        return %s\n    return point\n" % (
            "".join("        %s\n" % line for line in lines), out)
    return ("def make(c):\n    def push(xs):\n        out = []\n        append = out.append\n"
            "        for x in xs:\n%s            append(%s)\n        return out\n    return push\n"
            % ("".join("            %s\n" % line for line in lines), out))


def compile_point(ops, outs, consts):
    """The point function of a map body: ops, each (operator, operand,
    operand) (see _operand), then outs, the operands it gives, one as
    itself and several as a tuple; consts are its constants.  It carries
    (ops, outs, consts) as its source, which a fan-out's push fuses."""
    ops, outs, consts = tuple(ops), tuple(outs), tuple(consts)
    stages = ((ops, outs, len(consts)),)
    fn = _compile(("point", stages), lambda: _text("point", stages))(consts)
    fn.source = (ops, outs, consts)
    return fn


def _stages(node, stop, consts: list):
    """The stages node's point function runs, up to the node stop of its
    series chain, as a tuple (see _text), their constants appended to
    consts; None where a stage's point function has no source."""
    stages = ()
    while isinstance(node, SeriesDP) and node is not stop:
        first = _stages(node.first, None, consts)
        if first is None:
            return None
        stages += first
        node = node.second
    if node is stop:
        return stages
    if isinstance(node, ParDP):
        left = _stages(node.left, None, consts)
        right = None if left is None else _stages(node.right, None, consts)
        if right is None:
            return None
        return stages + ((node._cut, node._split, node._flat, left, right),)
    source = getattr(node.point, "source", None)
    if source is None:
        return None
    ops, outs, c = source
    consts.extend(c)
    return stages + ((ops, outs, len(c)),)


class SeriesDP(DesignProblem):
    _push = None  # the point functions heading second's series chain, composed
    _front = None  # push over a whole front, made by _fuse on first use

    def __init__(self, first: DesignProblem, second: DesignProblem):
        if first.ressp != second.funsp:
            raise CompositionError(
                "series mismatch: first produces %s but second consumes %s"
                % (first.ressp.describe(), second.funsp.describe())
            )
        super().__init__(first.funsp, second.ressp)
        self.first = first
        self.second = second
        self.holds_loop = first.holds_loop or second.holds_loop
        self._memo = None if self.holds_loop else {}  # key -> front
        g, h = first.point, second.point
        if g is not None and h is not None:
            self.point = _then(g, h)
        # a fan-out runs rest only at the minimal images push gives (see
        # the module docstring); second decided its own when it was built
        self._rest = second
        if h is not None:
            self._push, self._rest = h, None
        elif isinstance(second, SeriesDP) and not second.holds_loop:
            head = second.first.point
            if head is not None:
                self._push, self._rest = _then(head, second._push), second._rest

    def _eval(self, f) -> frozenset:
        memo = self._memo
        if memo is not None:
            key = _memo_key(f)
            front = memo.get(key)
            if front is not None:
                return front
        mid = self.first._eval(f)
        if len(mid) == 1:
            (r1,) = mid  # a front is minimal already: hand it on as it is
            front = self.second._eval(r1)
        else:
            rest = self._rest
            if self._push is not None:  # rest runs only at the minimal images
                push = self._front or self._fuse()
                mid = _minimize(push(mid), self.ressp if rest is None else rest.funsp)
            if rest is None:
                front = frozenset(mid)
            else:
                if rest.holds_loop:  # a fixed order for the loop's starts
                    mid = sorted(mid, key=repr)
                pts = []
                for r1 in mid:
                    pts.extend(rest._eval(r1))
                front = frozenset(_minimize(pts, self.ressp))
        if memo is not None and len(memo) < MEMO_SIZE:
            memo[key] = front
        return front

    def _fuse(self):
        """The front function: push fused into one loop over the front
        where every stage has a source (see the module docstring), else
        the composed push mapped over it."""
        consts = []
        stages = _stages(self.second, self._rest, consts)
        if stages is None:
            push = self._push
            fn = lambda xs: list(map(push, xs))
        else:
            fn = _compile(("push", stages), lambda: _text("push", stages))(tuple(consts))
        self._front = fn
        return fn


class ParDP(DesignProblem):
    def __init__(self, left: DesignProblem, right: DesignProblem):
        super().__init__(
            product(left.funsp, right.funsp), product(left.ressp, right.ressp)
        )
        self.left = left
        self.right = right
        self.holds_loop = left.holds_loop or right.holds_loop
        self._flat = (isinstance(left.ressp, ProductPoset), isinstance(right.ressp, ProductPoset))
        # where a query splits, and whether each side's part is a tuple
        self._cut = len(left.funsp.factors)
        self._split = (isinstance(left.funsp, ProductPoset), isinstance(right.funsp, ProductPoset))
        g, h = left.point, right.point
        if g is not None and h is not None:
            cut = self._cut
            (left_tuple, right_tuple), (left_flat, right_flat) = self._split, self._flat

            def point(f):  # the split of _eval and the concatenation of _cross
                a = g(f[:cut] if left_tuple else f[0])
                b = h(f[cut:] if right_tuple else f[cut])
                return (a if left_flat else (a,)) + (b if right_flat else (b,))

            self.point = point

    def _eval(self, f) -> frozenset:
        cut = self._cut
        left_tuple, right_tuple = self._split
        fl = f[:cut] if left_tuple else f[0]
        fr = f[cut:] if right_tuple else f[cut]
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


class LoopDP(DesignProblem):
    """Feedback closure: the trailing functionality inputs are the DP's
    own resources, solved to the least fixed point."""

    holds_loop = True
    _last = None  # (f1, front) of the last ascent that converged

    def __init__(self, body: DesignProblem):
        self.signature = loop_signature(body.funsp, body.ressp)
        super().__init__(*self.signature)
        self.body = body

    def _eval(self, f1) -> frozenset:
        max_iter, reports = _solve_run.get()
        start = None
        if self._last is not None:
            last_f1, front = self._last
            if self.funsp.leq(last_f1, f1) and (
                last_f1 != f1 or _memo_key(last_f1) == _memo_key(f1)
            ):
                start = front
        report = kleene_solve(self.body, f1, max_iter, False, self.signature, start)
        if report.converged:
            self._last = (f1, report.front.points)
        if reports is not None:
            reports.append(report)
        return report.front.points


def series(first: DesignProblem, second: DesignProblem) -> SeriesDP:
    return SeriesDP(first, second)


def par(left: DesignProblem, right: DesignProblem) -> ParDP:
    return ParDP(left, right)


def loop(body: DesignProblem) -> LoopDP:
    return LoopDP(body)


class SolveReport:
    """Outcome of a solve: the front plus loop-iteration bookkeeping;
    history, the front of each iterate, is kept on request and left out
    of repr."""

    __slots__ = ("front", "iterations", "converged", "history")

    def __init__(self, front: Antichain, iterations: int, converged: bool, history=None):
        self.front = front
        self.iterations = iterations
        self.converged = converged
        self.history = history

    def __repr__(self):
        return "SolveReport(front=%r, iterations=%r, converged=%r)" % (
            self.front, self.iterations, self.converged
        )

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
    start: frozenset | None = None,
) -> SolveReport:
    """Least fixed point of the loop map by Kleene ascent from start,
    {bottom} when None.

    Iterations count applications of the loop map, including the one
    that confirms the front stopped changing.  The map re-evaluates the
    body at each point r of the current front and joins r with each
    output p: p itself when r <= p, else the minimal upper bounds of
    the two.  The map is monotone, so the ascent cannot skip the least
    fixed point.  Hitting the cap returns the last iterate, which
    under-approximates the true front, with converged=False.

    start, the points of a front, must lie at or below the least fixed
    point at f1 and be a post-fixed point of the loop map there; the
    least fixed point at any f1' <= f1 is both.  An ascent from it
    reaches the same front as one from {bottom}, in no more iterations.

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
    leq, joins, body = rsp.leq, rsp.joins, dp._eval
    # the body's input is (f1, r): f1's part is fixed, r's is r itself
    # on a product and (r,) on a scalar poset (concat_elements)
    head = element_parts(f1sp, f1)
    flat = isinstance(rsp, ProductPoset)
    cache = {}  # r -> the body's front at (f1, r), evaluated once per solve
    front = frozenset((rsp.bottom(),)) if start is None else start
    ordered = dp.holds_loop  # a fixed order for the inner loops' starts
    history = [Antichain._of(rsp, front)] if keep_history else None
    iterations = 0
    converged = False
    while iterations < max_iter:
        pts = []
        for r in sorted(front, key=repr) if ordered else front:
            out = cache.get(r)
            if out is None:
                out = cache[r] = body(head + r if flat else head + (r,))
            for p in out:
                if leq(r, p):
                    pts.append(p)
                else:
                    pts.extend(joins(r, p))
        nxt = frozenset(_minimize(pts, rsp))
        iterations += 1
        if keep_history:
            history.append(Antichain._of(rsp, nxt))
        if nxt == front:
            # equal points may be written differently (a warm start's 1.0,
            # the body's 1): keep the body's, as a cold ascent does
            front = nxt
            converged = True
            break
        front = nxt
    return SolveReport(Antichain._of(rsp, front), iterations, converged, history)


# (cap, reports) of the solve in progress: each loop it solves takes the
# cap and appends its report
_solve_run: contextvars.ContextVar = contextvars.ContextVar("solve_run", default=(None, None))


def solve(dp: DesignProblem, f, max_iter: int | None = None) -> SolveReport:
    """Evaluate dp at f, aggregating loop work across the whole run.

    max_iter caps every loop solved on the way (DEFAULT_MAX_ITER when
    None).  iterations sums the loop-map applications of those loops
    (an inner loop is solved again at each outer step, from the front
    it last found when that is a valid start); converged is the
    conjunction.  A loop-free evaluation reports 0 iterations.
    """
    reports: list[SolveReport] = []
    token = _solve_run.set((max_iter, reports))
    try:
        front = dp.evaluate(f)
    finally:
        _solve_run.reset(token)
    return SolveReport(
        front, sum([r.iterations for r in reports]), all([r.converged for r in reports])
    )


# --- term algebra ---------------------------------------------------------


class Node:
    """A term or a parse-tree node: a record, by the rule in the module
    docstring."""

    __slots__ = ("span",)

    def __init_subclass__(cls):
        # each class gets its constructor written out, which costs what a
        # hand-written one does (one taking *values parses a fifth slower)
        cls._fields = fields = cls.__slots__
        text = ("def make():\n    def __init__(self, %sspan=None):\n%s        self.span = span\n"
                "    return __init__\n") % (
            "".join(f + ", " for f in fields),
            "".join("        self.%s = %s\n" % (f, f) for f in fields),
        )
        cls.__init__ = _compile(text, lambda: text)()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        return type(other) is type(self) and self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (
            type(self).__qualname__,
            ", ".join("%s=%r" % (f, getattr(self, f)) for f in self._fields),
        )


class Term(Node):
    """A composition of named atoms."""

    __slots__ = ()


class Atom(Term):
    __slots__ = ("name",)


class Series(Term):
    __slots__ = ("left", "right")


class Par(Term):
    __slots__ = ("left", "right")


class Loop(Term):
    __slots__ = ("body",)


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
