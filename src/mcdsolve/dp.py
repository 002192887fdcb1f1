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
fronts, which needs no minimising.  A node is pointwise where its every
front is one point made from bodies: a one-point map made by
compile_point (every map the model language compiles, uid's snaps), an
identity, and a series or par node whose parts both are.  A body is in
statement form: ops, each an operator (+, *, max, min, or a snap of the
input down or up to a constant's grid) over two operands, then the
operands it gives; an operand is the input, one of its coordinates, one
of its constants or an earlier op's result.
A series node whose middle front has several points pushes them through
the pointwise nodes heading its second part (below), and where they make
its second part's front, no node below runs its _eval.  An Antichain
object is made only where a front leaves the kernel: by evaluate, and by
kleene_solve for its report and history.  Atom outputs are checked where
they enter: of a MonotoneMap built by its constructor, a single point by
the resource space's check_member, a list of them by the Antichain
constructor; catalogue rows in the Catalogue constructor.  Outputs that
are members by construction enter unchecked: every output of a map the
model language compiles (it types them) and of uid's snaps, through
compile_point, and the sampled inverses' fronts, which are minimised
once, through MonotoneMap._of.  The model language checks each catalogue
point as it reads it and builds the catalogue with Catalogue._of, which
does not check the rows again, and so does scale_catalogue for its two
sides.

A series node whose middle front has several points runs its second part
only where it must.  A DP is monotone, so the front at m' >= m adds no
minimal point to the front at m: the series front is that of the minimal
middle points alone.  When built, the node keeps rest, its second part's
chain of series nodes after the pointwise nodes heading it; it minimises
the images of its middle points under those heads once, then runs rest
at each image left; with no rest, they are the front.  The front is the
one a visit of every middle point gives, each point written alike, but
for a point equal as a value to one of a lower image's and written
differently (0.0, -0.0): it keeps the lower image's writing.  A second
part that holds a loop runs at every middle point, in repr order, so
solve's iterations do not move.

The first time a node pushes a front of several points, it makes its
front function, which pushes the whole front in one call and lists the
images in the front's order.  It is fused from the heads' bodies: one
loop over the front that runs each stage's ops once per point, with the
same float operations in the same order as each head's own function, so
its images are theirs, bit for bit.  Fusing walks the stages once per
tree, never at a build.  One emitter (_text) writes point and front
functions alike, one line per op over x, fresh locals and the constants.
The constants are unpacked into locals c0, c1, ... once, as a function
is made; each coordinate of a value is one local, which the next stage
reads by name, so a tuple is built only where a stage reads its whole
input and for the image.  What it makes is kept by the stages' ops
(posets._compile), so text is written only for a new body.

The two trees of a lower/upper pair are built in one walk of its term
(evaluate_sides).  At each sub-term the lower node is built by its
constructor, which checks the composition and derives the interfaces;
the upper node is its twin, built by its class's _of, which takes from
the lower node what depends only on interfaces: funsp and ressp (a par
node's products), a par node's split (_cut, _split, _flat) and a loop's
signature.  A pair's atoms have equal interfaces (UncertainDP), so a
composition the lower side passes, the upper passes too.  What depends
on a side's atoms stays the node's own: its parts, holds_loop (an atom
may be a loop on one side only), whether it is pointwise, its rest,
memo, front function, and a loop's last front.

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
    pointwise = False  # every front is one point, made from bodies (see the module docstring)

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

    _trusted = False  # set by _of: fn gives a list of members of ressp, unchecked

    def __init__(self, funsp, ressp, fn):
        super().__init__(funsp, ressp)
        self.fn = fn

    @classmethod
    def _of(cls, funsp, ressp, fn) -> "MonotoneMap":
        """Map whose fn returns a list of members of ressp for every
        member of funsp, proved by its maker (a sample of a member demand
        is a member), so its outputs are not checked, only minimised."""
        m = cls(funsp, ressp, fn)
        m._trusted = True
        return m

    def _eval(self, f) -> frozenset:
        out = self.fn(f)
        if self.pointwise:
            return frozenset((out,))
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
    def _of(cls, funsp, ressp, entries: list, like: "Catalogue | None" = None) -> "Catalogue":
        """Catalogue of (f_i, r_i) rows whose maker has already proved
        each f_i a member of funsp and each r_i of ressp (the model
        language checks every point it reads, scale_catalogue divides
        checked rows), so they are not checked again.  A catalogue like
        it, with the same functionality column, lends it its cuts."""
        cat = object.__new__(cls)
        DesignProblem.__init__(cat, funsp, ressp)
        cat._index(entries, like)
        return cat

    def _index(self, entries: list, like: "Catalogue | None" = None):
        funsp = self.funsp
        self.entries = entries
        self._cells = None  # cell key -> front, when the first axis is real
        if isinstance(funsp.factors[0], RealPlus):
            if like is not None:
                self._cuts = like._cuts
            else:
                fs = [fi for fi, _ in entries]
                columns = zip(*fs) if isinstance(funsp, ProductPoset) else (fs,)
                self._cuts = tuple(sorted(set(column)) if isinstance(p, RealPlus) else None
                                   for column, p in zip(columns, funsp.factors))
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

    pointwise = True
    body = ((), (("x", None),), ())  # hands its input on as it is

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


# each operator's line over its operands' texts; 0 * inf is 0 here: a
# zero gain switches a contribution off; a snap (uid) passes x through
# where x / alpha overflows: at inf, and at finite x whose float
# neighbours lie further apart than alpha
_LINES = {"+": "{0} + {1}", "*": "0.0 if {0} == 0 or {1} == 0 else {0} * {1}",
          "max": "max({0}, {1})", "min": "min({0}, {1})",
          "snap_down": "{0} if isinf({0} / {1}) else {1} * floor({0} / {1})",
          "snap_up": "{0} if isinf({0} / {1}) else {1} * ceil({0} / {1})"}


def _whole(value) -> str:
    """Text of a value read whole: the name that holds it, or the tuple of
    its coordinates' texts."""
    if isinstance(value, str):
        return value
    return "(%s%s)" % (", ".join(value), "," * (len(value) == 1))


def _operand(o, value, off: int, names: list) -> str:
    """Text of a map's operand: ("x", None) its input, value read whole,
    ("x", i) the input's coordinate i, ("c", i) its constant, the local
    c(off + i), ("v", i) the result of its op i, the local names[i].
    value is the name of the whole input or the list of its coordinates'
    texts."""
    kind, i = o
    if kind == "x":
        if i is None:
            return _whole(value)
        return "%s[%d]" % (value, i) if isinstance(value, str) else value[i]
    return "c%d" % (off + i) if kind == "c" else names[i]


def _text(form: str, stages: tuple) -> str:
    """Text defining make(c), whose function runs stages straight through:
    point(x) at one value, or push(xs) at each x of xs, listing the
    images.  A stage is a map's (ops, outs, number of constants) or a par
    node's (cut, width of its input, split, flat, left stages, right
    stages); c holds the maps' constants in stage order, and make unpacks
    it once, as (c0, c1, ...) = c, into the locals that the lines read.
    Each op is one line over fresh locals v0, v1, ...  A stage's result
    is held as the list of its coordinates' texts where it has several,
    so the next stage reads each by name and a par node's parts are
    concatenated as lists: a tuple is built only where a stage reads its
    whole input, and for the image."""
    lines, off = [], 0

    def local(expr):
        lines.append("v%d = %s" % (len(lines), expr))
        return "v%d" % (len(lines) - 1)

    def run(stages, value):
        nonlocal off
        for stage in stages:
            if len(stage) == 6:  # a par node: ParDP's split, _cross's tuples
                cut, width, (left_tuple, right_tuple), (lf, rf), left, right = stage
                if not isinstance(value, list):  # the whole input: name its coordinates
                    value = [local("%s[%d]" % (value, i)) for i in range(width)]
                a = run(left, value[:cut] if left_tuple else value[0])
                b = run(right, value[cut:] if right_tuple else value[cut])
                value = (a if lf else [a]) + (b if rf else [b])
                continue
            ops, outs, n = stage
            names = []
            for op, a, b in ops:
                names.append(local(_LINES[op].format(_operand(a, value, off, names),
                                                     _operand(b, value, off, names))))
            if outs != (("x", None),):  # else the input is handed on as it is
                texts = [_operand(o, value, off, names) for o in outs]
                value = texts[0] if len(texts) == 1 else texts
            off += n
        return value

    out = _whole(run(stages, "x"))
    head = "def make(c):\n"
    if off:
        head += "    %s = c\n" % _whole(["c%d" % i for i in range(off)])
    if form == "point":
        return "%s    def point(x):\n%s        return %s\n    return point\n" % (
            head, "".join("        %s\n" % line for line in lines), out)
    return ("%s    def push(xs):\n        out = []\n        append = out.append\n"
            "        for x in xs:\n%s            append(%s)\n        return out\n    return push\n"
            % (head, "".join("            %s\n" % line for line in lines), out))


def compile_point(funsp, ressp, ops, outs, consts) -> MonotoneMap:
    """The pointwise map of a body: ops, each (operator, operand, operand)
    (see _operand), then outs, the operands it gives, one as itself and
    several as a tuple; consts are its constants.  Its maker proves every
    output a member of ressp (the model language types each map it
    compiles; a snap of a member is a member), so none is checked."""
    ops, outs, consts = body = tuple(ops), tuple(outs), tuple(consts)
    stages = ((ops, outs, len(consts)),)
    make = _compile(("point", stages), lambda: _text("point", stages))
    m = MonotoneMap(funsp, ressp, make(consts))
    m.pointwise, m.body = True, body
    return m


def _stages(node, stop, consts: list) -> tuple:
    """The stages of the pointwise nodes from node up to the node stop of
    its series chain, as a tuple (see _text), their constants appended
    to consts."""
    stages = ()
    while isinstance(node, SeriesDP) and node is not stop:
        stages += _stages(node.first, None, consts)
        node = node.second
    if node is stop:
        return stages
    if isinstance(node, ParDP):
        left = _stages(node.left, None, consts)
        right = _stages(node.right, None, consts)
        return stages + ((node._cut, len(node.funsp.factors), node._split, node._flat,
                          left, right),)
    ops, outs, c = node.body
    consts.extend(c)
    return stages + ((ops, outs, len(c)),)


class SeriesDP(DesignProblem):
    _front = None  # the fused push over a whole front, made by _fuse on first use

    def __init__(self, first: DesignProblem, second: DesignProblem):
        if first.ressp != second.funsp:
            raise CompositionError(
                "series mismatch: first produces %s but second consumes %s"
                % (first.ressp.describe(), second.funsp.describe())
            )
        super().__init__(first.funsp, second.ressp)
        self._join(first, second)

    @classmethod
    def _of(cls, twin: "SeriesDP", first: DesignProblem, second: DesignProblem) -> "SeriesDP":
        """Series of first and second with twin's interfaces, where twin
        is a series node over parts with the same interfaces as these (the
        lower side of a pair, see evaluate_sides), so the composition is
        not checked again."""
        node = object.__new__(cls)
        DesignProblem.__init__(node, twin.funsp, twin.ressp)
        node._join(first, second)
        return node

    def _join(self, first: DesignProblem, second: DesignProblem):
        """What the node takes from its own parts."""
        self.first = first
        self.second = second
        self.holds_loop = first.holds_loop or second.holds_loop
        self.pointwise = first.pointwise and second.pointwise
        self._memo = None if self.holds_loop else {}  # key -> front
        # a fan-out pushes through the pointwise heads of second's chain and
        # runs rest only at the minimal images (see the module docstring);
        # it pushes where rest is not second, and no rest is left where
        # second is pointwise; second decided its own when it was built
        if second.pointwise:
            self._rest = None
        elif isinstance(second, SeriesDP) and not second.holds_loop and second.first.pointwise:
            self._rest = second._rest
        else:
            self._rest = second

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
            if rest is not self.second:  # rest runs only at the minimal images
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
        """The front function: the heads' stages fused into one loop over
        a front (see the module docstring)."""
        consts = []
        stages = _stages(self.second, self._rest, consts)
        self._front = fn = _compile(("push", stages), lambda: _text("push", stages))(tuple(consts))
        return fn


class ParDP(DesignProblem):
    def __init__(self, left: DesignProblem, right: DesignProblem):
        super().__init__(
            product(left.funsp, right.funsp), product(left.ressp, right.ressp)
        )
        self._flat = (isinstance(left.ressp, ProductPoset), isinstance(right.ressp, ProductPoset))
        # where a query splits, and whether each side's part is a tuple
        self._cut = len(left.funsp.factors)
        self._split = (isinstance(left.funsp, ProductPoset), isinstance(right.funsp, ProductPoset))
        self._join(left, right)

    @classmethod
    def _of(cls, twin: "ParDP", left: DesignProblem, right: DesignProblem) -> "ParDP":
        """Par node of left and right with twin's interfaces, and twin's
        split of them, where twin is a par node over parts with the same
        interfaces as these (see SeriesDP._of)."""
        node = object.__new__(cls)
        DesignProblem.__init__(node, twin.funsp, twin.ressp)
        node._flat, node._cut, node._split = twin._flat, twin._cut, twin._split
        node._join(left, right)
        return node

    def _join(self, left: DesignProblem, right: DesignProblem):
        """What the node takes from its own parts."""
        self.left = left
        self.right = right
        self.holds_loop = left.holds_loop or right.holds_loop
        self.pointwise = left.pointwise and right.pointwise

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

    @classmethod
    def _of(cls, twin: "LoopDP", body: DesignProblem) -> "LoopDP":
        """Loop over body with twin's signature, where twin is a loop over
        a body with the same interfaces as this one (see SeriesDP._of).
        It starts its ascents from its own fronts, never twin's."""
        node = object.__new__(cls)
        DesignProblem.__init__(node, twin.funsp, twin.ressp)
        node.signature = twin.signature
        node.body = body
        return node

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
    return evaluate_sides(term, {name: (dp,) for name, dp in valuation.items()}, path)[0]


def evaluate_sides(term: Term, sides, path: str = "term") -> tuple:
    """Interpret a term over each side of its atoms, in one walk.

    sides maps each atom's name to a tuple of one DP, or of two with
    equal interfaces (a lower and an upper side); the result is the tree
    of each side, in that order.  At each sub-term the first side's node
    is built by its constructor, which checks the composition and derives
    the interfaces; the second side's is its twin, built by _of, which
    takes them from the first's (the products of a par node, its split, a
    loop's signature).  So the composition errors raised are the first
    side's, each with the path of its sub-term, as evaluate_term raises
    them.  Each node has its own parts, rest, memo and loop start.
    """
    if isinstance(term, Atom):
        try:
            return sides[term.name]
        except KeyError:
            raise DomainError("%s: no design problem named %r" % (path, term.name)) from None
    if isinstance(term, Loop):
        body = evaluate_sides(term.body, sides, path + ".loop")
        try:
            node = LoopDP(body[0])
        except CompositionError as e:
            raise CompositionError("%s: %s" % (path, e)) from None
        return (node,) if len(body) == 1 else (node, LoopDP._of(node, body[1]))
    if isinstance(term, Series):
        left = evaluate_sides(term.left, sides, path + ".series.left")
        right = evaluate_sides(term.right, sides, path + ".series.right")
        try:
            node = SeriesDP(left[0], right[0])
        except CompositionError as e:
            raise CompositionError("%s: %s" % (path, e)) from None
    elif isinstance(term, Par):
        left = evaluate_sides(term.left, sides, path + ".par.left")
        right = evaluate_sides(term.right, sides, path + ".par.right")
        node = ParDP(left[0], right[0])
    else:
        raise TypeError("not a term: %r" % (term,))
    return (node,) if len(left) == 1 else (node, type(node)._of(node, left[1], right[1]))


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
