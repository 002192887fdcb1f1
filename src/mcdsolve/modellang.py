"""Line-oriented model language for co-design problems (.mcd files).

Grammar (EBNF; # starts a comment, statements begin at column 1):

    document   = { statement } ;
    statement  = modeldecl | posetdecl | dpdecl | udecl | termdecl ;
    modeldecl  = "model" NAME [ STRING ] ;
    posetdecl  = "poset" NAME "=" posetexpr ;
    posetexpr  = "R" "+" "[" UNIT "]"
               | "chain" "{" elem { "," elem } "}" ;
    dpdecl     = "dp" NAME "=" dpkind ;
    dpkind     = "constant" sig "{" point { "," point } "}"
               | "affine" sig "gain" point "offset" point
               | "catalogue" sig "{" [ entry { "," entry } [ "," ] ] "}"
               | "map" sig "{" assign { ";" assign } "}"
               | "identity" sig | "bottom" sig | "top" sig
               | builtin ;
    entry      = point "->" point ;
    assign     = NAME "=" mexpr ;
    mexpr      = mterm { "+" mterm } ;
    mterm      = mfactor { "*" mfactor } ;
    mfactor    = NUM | NAME | "(" mexpr ")"
               | ( "max" | "min" ) "(" mexpr "," mexpr ")" ;
    builtin    = "uid" "(" NUM [ UNIT ] ")"
               | "invplus_uniform" "(" INT [ "," UNIT ] ")"
               | "invplus_vdc" "(" INT [ "," UNIT ] ")"
               | "invtimes_vdc" "(" INT "," NUM "," NUM
                                 [ "," UNIT "," UNIT "," UNIT ] ")" ;
    sig        = [ "F" "(" axes ")" ] "R" "(" axes ")" ;
    axes       = axis { "," axis } ;
    axis       = NAME ( "[" UNIT "]" | ":" NAME ) ;
    point      = scalar | "(" scalar { "," scalar } ")" ;
    scalar     = NUM | "inf" | NAME ;
    elem       = NUM | NAME ;
    udecl      = "uncertain" NAME "=" ( "pm" "(" NAME "," NUM "%" ")"
               | "interval" "(" NAME "," NAME ")" ) ;
    termdecl   = "term" texpr ;
    texpr      = NAME | "series" "(" texpr "," texpr ")"
               | "par" "(" texpr "," texpr ")" | "loop" "(" texpr ")" ;

Omitting F(...) gives a constant a trivial one-point functionality.
`map` bodies are monotone by construction: nonnegative constants,
functionality names, +, *, max, min.  Elaboration turns each body into
one Python function of the functionality value, generated from the
expression tree in statement form, one operation a line, and holding no
model text (dp.compile_point), and types each output on the way
(compile_expr): a real output reads numbers, real axes and
chains of increasing numbers, a chain output is a bare axis on an equal
chain, and anything else, like an unknown name, is a diagnostic.  The
outputs are then members by construction and are not checked when the
map runs.  affine is compiled the same way, as the map r_i = o_i +
g_i * f.  The parser and the elaborator raise a _Fault at the first
fault of a statement, record its diagnostic and go on with the next
statement, so elaboration reports the first fault of each declaration;
the term reports one for each faulty side of a series or par.  A
duplicate name anywhere (posets, dps, uncertains share one namespace) is
an error.  A token is a (kind, text, offset) tuple, read by one match
with the whitespace and comments after it.  Parse-tree nodes are
records, as terms are (dp.Node; the rule is in the dp docstring), and a
node's span is the offset of its first token.  A diagnostic's line and
column are found from an offset when it is made, by bisecting a table
of the text's line starts (_Lines, which the Document keeps).  poset, dp
and uncertain statements are one node, StDecl, holding the keyword, the
name and the parsed body.  A term statement parses straight into the
kernel's term type (dp.Atom, Series, Par, Loop).  Catalogue points are
checked a column at a time.  A
number read as a chain element, in a chain or in a point on a chain
axis, is an int when integral (chain_number).  A point keeps the word
inf as written: on a chain axis it is the label inf, as in a chain or a
--f query, and on a real axis it is infinity.  Each builtin's argument
layout, axis names and relaxations constructor live in one table,
_BUILTINS, which the parser, renderer, elaborator and reserved words all
read.  Map expressions and terms are read with an explicit stack, not by
recursion.  Brackets (a parenthesis, max( or min( in a map expression;
series(, par( or loop( in a term) nest at most MAX_NESTING levels, and
so does a chain like a + b + c, where each operator after the first
opens a level (parse_mexpr); deeper text is a diagnostic.
"""

import math
import re
from bisect import bisect_right
from collections import namedtuple

from . import relaxations
from .antichains import Antichain
from .dp import (
    Atom,
    Catalogue,
    ConstantResource,
    DesignProblem,
    IdentityDP,
    Loop,
    MonotoneMap,
    Node,
    Par,
    Series,
    Term,
    UNIT_POSET,
    BottomDP,
    TopDP,
    compile_point,
    loop_signature,
    term_to_text,
)
from .errors import CompositionError, DomainError
from .posets import FinitePoset, Poset, ProductPoset, RealPlus
from .uncertainty import UncertainDP, check_udp, degenerate, scale_catalogue

KEYWORDS = ("model", "poset", "dp", "uncertain", "term")


# Argument layout and constructor of a builtin relaxation:
#   numbers         numeric arguments, always given
#   units           trailing units, all given or none
#   sep             text between the numbers and the units
#   counts_samples  the first number is a sample count
#   axes            (functionality names, resource names)
#   build           relaxations constructor, called as build(*numbers, *units)
_Builtin = namedtuple("_Builtin", "numbers units sep counts_samples axes build")


_SPLIT = (("f",), ("r1", "r2"))  # an inverse splits f into r1 and r2

_BUILTINS = {
    "uid": _Builtin(1, 1, " ", False, (("x",), ("x",)), relaxations.uid),
    "invplus_uniform": _Builtin(1, 1, ", ", True, _SPLIT, relaxations.relax_plus_uniform),
    "invplus_vdc": _Builtin(1, 1, ", ", True, _SPLIT, relaxations.relax_plus_vdc),
    "invtimes_vdc": _Builtin(3, 3, ", ", True, _SPLIT, relaxations.relax_times_vdc),
}

RESERVED = frozenset(
    KEYWORDS
    + tuple(_BUILTINS)
    + tuple(
        "chain constant affine catalogue map identity bottom top gain offset "
        "series par loop pm interval inf max min F R".split()
    )
)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

_PREC = {"+": 1, "*": 2}  # how tightly map operators bind, for parsing and printing

# Levels of brackets a map expression or a term may nest: a rule of the
# language.  The parser keeps its own stack; the elaborator recurses one
# or two frames a level.
MAX_NESTING = 200


def chain_number(v: float):
    """A number as a chain element: an integral one is an int, so a label
    written 2 or 2.0 is the element 2 wherever it is read."""
    return int(v) if v.is_integer() else v


def _reader(axis: Poset):
    """How axis reads a point's coordinate: on a chain axis a number is an
    element by chain_number and the word inf is the label inf; on a real
    axis the word inf is infinity."""
    if isinstance(axis, FinitePoset):
        return lambda v: chain_number(v) if isinstance(v, float) else v
    return lambda v: math.inf if v == "inf" else v


Span = namedtuple("Span", "line col")  # where a diagnostic points, 1-based


class _Lines:
    """The line and column of an offset in a text, by bisecting a table
    of the offsets where its lines start, made on the first call."""

    def __init__(self, text: str):
        self.text, self.starts = text, None

    def span(self, offset: int) -> Span:
        if self.starts is None:
            self.starts = [0] + [m.end() for m in re.finditer("\n", self.text)]
        line = bisect_right(self.starts, offset)
        return Span(line, offset - self.starts[line - 1] + 1)


class Diagnostic:
    """An error in a model text; any diagnostic makes the model unusable.
    Diagnostics are equal when their messages and spans are."""

    def __init__(self, message: str, span: Span):
        self.message = message
        self.span = span

    def __eq__(self, other):
        return isinstance(other, Diagnostic) and (self.message, self.span) == (
            other.message, other.span
        )

    def format(self, filename: str = "<model>") -> str:
        return "%s:%d:%d: error: %s" % (filename, self.span.line, self.span.col, self.message)


# --- lexer ------------------------------------------------------------------

_SKIP = r"(?:[ \t\r\n]+|#[^\n]*)*"  # whitespace and comments
_SKIP_RE = re.compile(_SKIP)
_TOKEN_RE = re.compile(
    r"(?:(?P<word>[A-Za-z_$][A-Za-z0-9_$/^]*)"
    r"|(?P<punct>->|<=|[(){}\[\],;=:%+*])"
    r"|(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+)"
    r"|(?P<string>\"[^\"\n]*\")"
    r"|(?P<bad>.))" + _SKIP
)


def tokenize(text: str, diagnostics: list) -> list[tuple]:
    """(kind, text, offset) of each token, then ("eof", "", len(text)).
    A character that starts no token is a diagnostic, not a token."""
    start = _SKIP_RE.match(text).end()
    toks = [(m.lastgroup, m[m.lastindex], m.start()) for m in _TOKEN_RE.finditer(text, start)]
    bad = [t for t in toks if t[0] == "bad"]
    if bad:
        at = _Lines(text).span
        diagnostics += [Diagnostic("unexpected character %r" % c, at(off)) for _, c, off in bad]
        toks = [t for t in toks if t[0] != "bad"]
    toks.append(("eof", "", len(text)))
    return toks


# --- syntax tree --------------------------------------------------------------


class PosetReal(Node):
    __slots__ = ("unit",)


class PosetChain(Node):
    __slots__ = ("labels",)


class Axis(Node):
    __slots__ = ("name", "unit", "ref")


class Sig(Node):
    __slots__ = ("f_axes", "r_axes")


class PointNode(Node):
    __slots__ = ("values",)


class Assign(Node):
    __slots__ = ("name", "expr")


class ENum(Node):
    __slots__ = ("value",)


class EVar(Node):
    __slots__ = ("name",)


class EBin(Node):
    __slots__ = ("op", "left", "right")


class KConstant(Node):
    __slots__ = ("sig", "points")


class KAffine(Node):
    __slots__ = ("sig", "gain", "offset")


class KCatalogue(Node):
    __slots__ = ("sig", "entries")


class KMap(Node):
    __slots__ = ("sig", "assigns")


class KSig(Node):
    __slots__ = ("word", "sig")  # word: identity, bottom or top, kinds given by their signature


class KBuiltin(Node):
    __slots__ = ("fn", "numbers", "units")


class UPm(Node):
    __slots__ = ("dp_name", "percent")


class UInterval(Node):
    __slots__ = ("lower_name", "upper_name")


class StModel(Node):
    __slots__ = ("name", "description")


class StDecl(Node):
    __slots__ = ("keyword", "name", "body")  # keyword: poset, dp or uncertain


class StTerm(Node):
    __slots__ = ("expr",)


class Document:
    """A parsed model text.  Documents are equal when their statements
    are; span and lines (the spans of the text's offsets) take no part."""

    def __init__(self, statements: list, span=None, lines=None):
        self.statements = statements
        self.span = span
        self.lines = lines

    def __eq__(self, other):
        return isinstance(other, Document) and self.statements == other.statements


class ParseResult:
    def __init__(self, document: Document, diagnostics: list):
        self.document = document
        self.diagnostics = diagnostics

    @property
    def ok(self) -> bool:
        return not self.diagnostics


# --- parser -------------------------------------------------------------------


class _Fault(Exception):
    """A fault in a model text; the parser and the elaborator raise it and
    record its diagnostic once per statement."""

    def __init__(self, diag: Diagnostic):
        super().__init__(diag.message)
        self.diag = diag


class _Chain:
    """A chain of a map expression still open (see _Parser.parse_mexpr):
    bracket is [opening token, first argument or None] if a bracket holds
    it, left the expression read so far, op its last operator ("" before
    the first)."""

    __slots__ = ("min_prec", "depth", "bracket", "left", "level", "op")

    def __init__(self, min_prec: int, depth: int, bracket):
        self.min_prec = min_prec
        self.depth = depth
        self.bracket = bracket
        self.left = None
        self.level = 0
        self.op = ""


class _Parser:
    def __init__(self, text: str, diagnostics: list):
        self.toks = tokenize(text, diagnostics)
        self.i = 0
        self.diags = diagnostics
        self.lines = _Lines(text)
        self.declared: dict[str, int] = {}

    def cur(self) -> tuple:
        return self.toks[self.i]

    def advance(self) -> tuple:
        tok = self.toks[self.i]
        if tok[0] != "eof":
            self.i += 1
        return tok

    def at(self, text: str) -> bool:
        # a string keeps its quotes, so it never reads as a word or a sign
        return self.toks[self.i][1] == text

    def _describe(self, tok: tuple) -> str:
        return "end of file" if tok[0] == "eof" else repr(tok[1])

    def fail(self, message: str, tok: tuple | None = None):
        tok = tok or self.cur()
        raise _Fault(Diagnostic(message, self.lines.span(tok[2])))

    def expect(self, text: str) -> tuple:
        tok = self.toks[self.i]
        if tok[1] != text:
            self.fail("expected %r, found %s" % (text, self._describe(tok)))
        self.i += 1  # not past the end: eof matches no text expected
        return tok

    def expect_name(self, what: str = "a name") -> tuple:
        tok = self.cur()
        if tok[0] != "word" or not _NAME_RE.match(tok[1]):
            self.fail("expected %s, found %s" % (what, self._describe(tok)))
        if tok[1] in RESERVED:
            self.fail("%r is a reserved word" % tok[1])
        return self.advance()

    def expect_unit(self) -> str:
        return self.expect_kind("word", "a unit")

    def expect_num(self) -> float:
        return float(self.expect_kind("num", "a number"))

    def expect_kind(self, kind: str, what: str) -> str:
        """The text of the current token, which must be a kind token."""
        tok = self.cur()
        if tok[0] != kind:
            self.fail("expected %s, found %s" % (what, self._describe(tok)))
        self.i += 1
        return tok[1]

    def deeper(self, depth: int, tok: tuple) -> int:
        """Nesting level of the brackets tok opens, inside depth levels."""
        if depth >= MAX_NESTING:
            self.fail("nested deeper than %d levels" % MAX_NESTING, tok)
        return depth + 1

    def comma_list(self, item, count: int = 0) -> list:
        """item { "," item }, or exactly count items when count is given."""
        items = [item()]
        while len(items) < count if count else self.at(","):
            self.expect(",")
            items.append(item())
        return items

    def declare(self, tok: tuple):
        _, name, offset = tok
        first = self.declared.setdefault(name, offset)
        if first != offset:
            message = "duplicate identifier %r (first declared at %d:%d)" % (
                name, *self.lines.span(first))
            self.diags.append(Diagnostic(message, self.lines.span(offset)))

    # statements

    def parse_document(self) -> Document:
        statements = []
        first = self.cur()
        while self.cur()[0] != "eof":
            tok = self.cur()
            try:
                if tok[1] == "model":
                    statements.append(self.parse_model())
                elif tok[1] in _DECLS:
                    statements.append(self.parse_decl())
                elif tok[1] == "term":
                    statements.append(self.parse_term_stmt())
                else:
                    self.fail(
                        "expected a statement (model, poset, dp, uncertain, term), "
                        "found %s" % self._describe(tok)
                    )
            except _Fault as e:
                self.diags.append(e.diag)
                self.recover()
        return Document(statements, span=first[2], lines=self.lines)

    def recover(self):
        """Skip to the next statement keyword at the start of a line, or stay
        on it (a statement cut short by the next one); statement parsers
        consume their keyword first, so this cannot loop."""
        while self.cur()[0] != "eof":
            _, text, offset = self.cur()
            if text in KEYWORDS and self.lines.span(offset).col == 1:
                return
            self.advance()

    def parse_model(self) -> StModel:
        kw = self.expect("model")
        name = self.expect_name("a model name")
        desc = self.advance()[1][1:-1] if self.cur()[0] == "string" else ""
        return StModel(name[1], desc, span=kw[2])

    def parse_decl(self) -> StDecl:
        kw = self.advance()
        what, body = _DECLS[kw[1]]
        name = self.expect_name(what)
        self.declare(name)
        self.expect("=")
        return StDecl(kw[1], name[1], body(self), span=kw[2])

    def parse_poset_expr(self):
        tok = self.cur()
        if tok[1] == "R":
            self.advance()
            self.expect("+")
            self.expect("[")
            unit = self.expect_unit()
            self.expect("]")
            return PosetReal(unit, span=tok[2])
        if tok[1] == "chain":
            self.advance()
            self.expect("{")
            labels = self.comma_list(self.parse_elem)
            self.expect("}")
            return PosetChain(labels, span=tok[2])
        self.fail("expected a poset expression (R+[...], chain)")

    def parse_elem(self):
        kind, text, _ = tok = self.cur()
        if kind == "num":
            self.advance()
            return chain_number(float(text))
        if kind == "word":
            self.advance()
            return text
        self.fail("expected a chain element, found %s" % self._describe(tok))

    def parse_dp_kind(self):
        tok = self.cur()
        word, span = tok[1], tok[2]
        if word in _BUILTINS:
            return self.parse_builtin()
        if word not in ("constant", "affine", "catalogue", "map", "identity", "bottom", "top"):
            self.fail("unknown design problem kind %s" % self._describe(tok))
        self.advance()
        sig = self.parse_sig()
        if word == "constant":
            self.expect("{")
            points = self.comma_list(self.parse_point)
            self.expect("}")
            return KConstant(sig, points, span=span)
        if word == "affine":
            self.expect("gain")
            gain = self.parse_point()
            self.expect("offset")
            return KAffine(sig, gain, self.parse_point(), span=span)
        if word == "catalogue":
            self.expect("{")
            entries = []
            while not self.at("}") and self.cur()[0] != "eof":
                fpoint = self.parse_point()
                self.expect("->")
                entries.append((fpoint, self.parse_point()))
                if not self.at(","):
                    break
                self.advance()
            self.expect("}")
            return KCatalogue(sig, entries, span=span)
        if word == "map":
            self.expect("{")
            assigns = [self.parse_assign()]
            while self.at(";"):
                self.advance()
                if self.at("}"):
                    break
                assigns.append(self.parse_assign())
            self.expect("}")
            return KMap(sig, assigns, span=span)
        return KSig(word, sig, span=span)

    def parse_builtin(self) -> KBuiltin:
        fn = self.advance()
        spec = _BUILTINS[fn[1]]
        self.expect("(")
        numbers = self.comma_list(self.expect_num, spec.numbers)
        units = []
        comma = spec.sep != " "
        if self.at(",") if comma else self.cur()[0] == "word":
            if comma:
                self.advance()
            units = self.comma_list(self.expect_unit, spec.units)
        self.expect(")")
        return KBuiltin(fn[1], numbers, units, span=fn[2])

    def parse_sig(self) -> Sig:
        f_axes = None
        start = self.cur()
        if self.at("F"):
            self.advance()
            self.expect("(")
            f_axes = self.comma_list(self.parse_axis)
            self.expect(")")
        self.expect("R")
        self.expect("(")
        r_axes = self.comma_list(self.parse_axis)
        self.expect(")")
        return Sig(f_axes, r_axes, span=start[2])

    def parse_axis(self) -> Axis:
        _, name, span = self.expect_name("an axis name")
        if self.at("["):
            self.advance()
            unit = self.expect_unit()
            self.expect("]")
            return Axis(name, unit, None, span=span)
        if self.at(":"):
            self.advance()
            ref = self.expect_name("a poset name")
            return Axis(name, None, ref[1], span=span)
        self.fail("axis %r needs [unit] or :poset" % name)

    def parse_point(self) -> PointNode:
        """point = scalar | "(" scalar { "," scalar } ")", read in one loop
        over its tokens; a scalar is a number or a word, inf too, which the
        axis reads."""
        toks, i = self.toks, self.i
        span = toks[i][2]
        bracket = toks[i][1] == "("
        i += bracket
        values = []
        while True:
            kind, text, _ = toks[i]
            if kind not in ("num", "word"):
                self.i = i
                self.fail("expected a number, 'inf', or a label, found %s"
                          % self._describe(toks[i]))
            values.append(float(text) if kind == "num" else text)
            i += 1
            if not bracket or toks[i][1] != ",":
                break
            i += 1
        self.i = i
        if bracket:
            self.expect(")")
        return PointNode(values, span=span)

    def parse_assign(self) -> Assign:
        name = self.expect_name("an output axis name")
        self.expect("=")
        return Assign(name[1], self.parse_mexpr(), span=name[2])

    def parse_mexpr(self):
        """A map expression, read with a stack of open chains: operands
        joined by operators of the chain's min_prec or above, grouped to the
        left, inside depth levels.  The operand after an operator is a chain
        at its precedence plus one; each argument of a bracket is a chain
        one level deeper.  A chain a + b + c is a tree as deep as it is long,
        so each operator after its first opens a level past the deepest one
        reached so far, by the chain and by its operands."""
        chains = [_Chain(1, 0, None)]
        while True:
            chain = chains[-1]
            tok = self.cur()
            if chain.left is None:  # its first operand
                if tok[1] in ("(", "max", "min"):
                    inner = self.deeper(chain.depth, tok)
                    self.advance()
                    if tok[1] != "(":
                        self.expect("(")
                    chains.append(_Chain(1, inner, [tok, None]))
                else:
                    chain.left, chain.level = self.parse_operand(), chain.depth
                continue
            prec = _PREC.get(tok[1], 0)
            if prec >= chain.min_prec:
                self.advance()
                if chain.op:
                    chain.level = self.deeper(chain.level, tok)
                chain.op = tok[1]
                chains.append(_Chain(prec + 1, chain.depth, None))
                continue
            chains.pop()
            node, level = chain.left, chain.level
            if chain.bracket is not None:
                opener, first = chain.bracket
                if opener[1] != "(" and first is None:  # max( or min( reads a second argument
                    self.expect(",")
                    chains.append(_Chain(1, chain.depth, [opener, (node, level)]))
                    continue
                self.expect(")")
                if first is not None:
                    node = EBin(opener[1], first[0], node, span=opener[2])
                    level = max(first[1], level)
            if not chains:
                return node
            outer = chains[-1]  # node is its first operand or the right one of its operator
            if outer.left is None:
                outer.left, outer.level = node, level
            else:
                outer.left = EBin(outer.op, outer.left, node, span=outer.left.span)
                outer.level = max(outer.level, level)

    def parse_operand(self):
        """A number or a name in a map expression."""
        kind, text, span = tok = self.cur()
        if kind == "num":
            self.advance()
            return ENum(float(text), span=span)
        if kind == "word" and _NAME_RE.match(text) and text not in RESERVED:
            self.advance()
            return EVar(text, span=span)
        self.fail("expected an expression, found %s" % self._describe(tok))

    def parse_uncertain_kind(self):
        tok = self.cur()
        if tok[1] == "pm":
            self.advance()
            self.expect("(")
            target = self.expect_name("a design problem name")
            self.expect(",")
            pct = self.expect_num()
            self.expect("%")
            self.expect(")")
            return UPm(target[1], pct, span=tok[2])
        if tok[1] == "interval":
            self.advance()
            self.expect("(")
            lo = self.expect_name("a design problem name")
            self.expect(",")
            hi = self.expect_name("a design problem name")
            self.expect(")")
            return UInterval(lo[1], hi[1], span=tok[2])
        self.fail("expected pm(...) or interval(...), found %s" % self._describe(tok))

    def parse_term_stmt(self) -> StTerm:
        kw = self.expect("term")
        return StTerm(self.parse_texpr(), span=kw[2])

    def parse_texpr(self):
        """A term, read with an explicit stack of the series, par and loop
        open: (node type, its token, the parts read so far)."""
        opened = []
        while True:
            tok = self.cur()
            node = _TERMS.get(tok[1])
            if node is not None:
                self.deeper(len(opened), tok)
                self.advance()
                self.expect("(")
                opened.append((node, tok, []))
                continue
            name = self.expect_name("a design problem name")
            term = Atom(name[1], span=name[2])
            while opened:
                node, tok, parts = opened[-1]
                parts.append(term)
                if len(parts) < (1 if node is Loop else 2):
                    self.expect(",")
                    break
                opened.pop()
                self.expect(")")
                term = node(*parts, span=tok[2])
            else:
                return term


_TERMS = {"series": Series, "par": Par, "loop": Loop}

# declaration keyword -> (what its name is called, parser of its body)
_DECLS = {
    "poset": ("a poset name", _Parser.parse_poset_expr),
    "dp": ("a design problem name", _Parser.parse_dp_kind),
    "uncertain": ("an uncertain name", _Parser.parse_uncertain_kind),
}


def parse(text: str) -> ParseResult:
    """Parse model text; errors do not abort, they accumulate."""
    diagnostics: list[Diagnostic] = []
    document = _Parser(text, diagnostics).parse_document()
    return ParseResult(document, diagnostics)


# --- renderer -----------------------------------------------------------------


def _fmt_num(v) -> str:
    # a NUM that overflows reads back as it; a point keeps the word inf as written
    if isinstance(v, float) and math.isinf(v):
        return "1e999"
    return repr(float(v))


def _fmt_label(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, float):
        return _fmt_num(v)
    return str(v)


def _fmt_point(p: PointNode) -> str:
    parts = [_fmt_label(v) for v in p.values]
    if len(parts) == 1:
        return parts[0]
    return "(%s)" % ", ".join(parts)


def _fmt_axis(a: Axis) -> str:
    if a.ref is not None:
        return "%s:%s" % (a.name, a.ref)
    return "%s[%s]" % (a.name, a.unit)


def _fmt_sig(sig: Sig) -> str:
    out = ""
    if sig.f_axes is not None:
        out += "F(%s) " % ", ".join(_fmt_axis(a) for a in sig.f_axes)
    out += "R(%s)" % ", ".join(_fmt_axis(a) for a in sig.r_axes)
    return out


def _fmt_expr(e, parent_prec: int = 0) -> str:
    if isinstance(e, ENum):
        return _fmt_num(e.value)
    if isinstance(e, EVar):
        return e.name
    if e.op in ("max", "min"):
        return "%s(%s, %s)" % (e.op, _fmt_expr(e.left), _fmt_expr(e.right))
    prec = _PREC[e.op]
    body = "%s %s %s" % (_fmt_expr(e.left, prec), e.op, _fmt_expr(e.right, prec + 1))
    return "(%s)" % body if prec < parent_prec else body


def _fmt_builtin(k: KBuiltin) -> str:
    spec = _BUILTINS[k.fn]
    n, *rest = k.numbers
    first = repr(int(n)) if spec.counts_samples and n.is_integer() else _fmt_num(n)
    inner = ", ".join([first] + [_fmt_num(v) for v in rest])
    if k.units:
        inner += spec.sep + ", ".join(k.units)
    return "%s(%s)" % (k.fn, inner)


def _fmt_body(k) -> str:
    """Text of a declaration's body, after its "="."""
    if isinstance(k, PosetReal):
        return "R+[%s]" % k.unit
    if isinstance(k, PosetChain):
        return "chain {%s}" % ", ".join(_fmt_label(x) for x in k.labels)
    if isinstance(k, KConstant):
        return "constant %s {%s}" % (_fmt_sig(k.sig), ", ".join(_fmt_point(p) for p in k.points))
    if isinstance(k, KAffine):
        return "affine %s gain %s offset %s" % (
            _fmt_sig(k.sig),
            _fmt_point(k.gain),
            _fmt_point(k.offset),
        )
    if isinstance(k, KCatalogue):
        rows = ",\n".join("    %s -> %s" % (_fmt_point(f), _fmt_point(r)) for f, r in k.entries)
        return "catalogue %s {\n%s\n}" % (_fmt_sig(k.sig), rows)
    if isinstance(k, KMap):
        assigns = "; ".join("%s = %s" % (a.name, _fmt_expr(a.expr)) for a in k.assigns)
        return "map %s { %s }" % (_fmt_sig(k.sig), assigns)
    if isinstance(k, KSig):
        return "%s %s" % (k.word, _fmt_sig(k.sig))
    if isinstance(k, KBuiltin):
        return _fmt_builtin(k)
    if isinstance(k, UPm):
        return "pm(%s, %s%%)" % (k.dp_name, _fmt_num(k.percent))
    return "interval(%s, %s)" % (k.lower_name, k.upper_name)


def _render_statement(st) -> str:
    if isinstance(st, StModel):
        if st.description:
            return 'model %s "%s"' % (st.name, st.description)
        return "model %s" % st.name
    if isinstance(st, StTerm):
        return "term %s" % term_to_text(st.expr)
    return "%s %s = %s" % (st.keyword, st.name, _fmt_body(st.body))


def render(doc: Document) -> str:
    """Canonical text for a document; parse(render(d)) == d structurally."""
    return "\n".join(_render_statement(st) for st in doc.statements) + "\n"


# --- elaboration --------------------------------------------------------------


class ElaboratedModel:
    """A checked model ready to solve."""

    def __init__(
        self, name: str, uvaluation: dict, term: Term, funsp: Poset, ressp: Poset,
        fnames: list, rnames: list, builtin_decls: dict,
    ):
        self.name = name
        self.uvaluation = uvaluation
        self.term = term
        self.funsp = funsp
        self.ressp = ressp
        self.fnames = fnames
        self.rnames = rnames
        self.builtin_decls = builtin_decls

    def query_axes(self) -> list:
        return list(zip(self.fnames, self.funsp.factors))

    def axis_index(self, key) -> int:
        """0-based index of a functionality axis given by name or by
        1-based index (an int or a digit string)."""
        if self.funsp == UNIT_POSET:
            raise DomainError("this model takes no functionality arguments")
        axes = self.query_axes()
        if isinstance(key, int) or (isinstance(key, str) and key.isdigit()):
            idx = int(key) - 1
            if not 0 <= idx < len(axes):
                raise DomainError("axis index %s out of range 1..%d" % (key, len(axes)))
            return idx
        hits = [i for i, (n, _) in enumerate(axes) if n == key]
        if not hits:
            names = ", ".join(n for n, _ in axes)
            raise DomainError("unknown axis %r; axes are: %s" % (key, names))
        if len(hits) > 1:
            raise DomainError("axis name %r is ambiguous; use its 1-based index" % key)
        return hits[0]

    def build_query(self, assignments: dict):
        """Functionality element from axis-name (or 1-based index) keys.

        Values are numbers (math.inf included) or finite-poset labels;
        every axis must be covered exactly once.
        """
        axes = self.query_axes()
        slots: list = [None] * len(axes)
        for key, value in assignments.items():
            idx = self.axis_index(key)
            if slots[idx] is not None:
                raise DomainError("axis %r assigned twice" % key)
            slots[idx] = value
        if self.funsp == UNIT_POSET:
            return "*"
        missing = [axes[i][0] for i, v in enumerate(slots) if v is None]
        if missing:
            raise DomainError("missing functionality axes: %s" % ", ".join(missing))
        element = tuple(slots) if len(slots) > 1 else slots[0]
        self.funsp.check_member(element)
        return element

    def override_relaxation(self, atom: str, n: int) -> dict:
        """New valuation with a sampling builtin re-instantiated at n."""
        decl = self.builtin_decls.get(atom)
        if decl is None or not _BUILTINS[decl.fn].counts_samples:
            sampling = (name for name, spec in _BUILTINS.items() if spec.counts_samples)
            raise DomainError("%r is not a sampling builtin (%s)" % (atom, ", ".join(sampling)))
        try:
            count = float(n)
        except OverflowError:
            raise DomainError("sample count is too large") from None
        replaced = KBuiltin(decl.fn, [count] + decl.numbers[1:], decl.units, decl.span)
        out = dict(self.uvaluation)
        out[atom] = _build_builtin(replaced)
        return out


def _build_builtin(k: KBuiltin) -> UncertainDP:
    spec = _BUILTINS[k.fn]
    numbers = list(k.numbers)
    if spec.counts_samples:
        if not (numbers[0].is_integer() and numbers[0] >= 1):
            raise DomainError("sample count must be a positive integer")
        numbers[0] = int(numbers[0])
    return spec.build(*numbers, *k.units)


class _Elaborator:
    def __init__(self, doc: Document):
        self.doc = doc
        self.diags: list[Diagnostic] = []
        self.posets: dict[str, Poset] = {}
        self.plain_dps: dict[str, DesignProblem] = {}
        self.uvaluation: dict[str, UncertainDP] = {}
        self.axis_names: dict[str, tuple] = {}
        self.builtin_decls: dict[str, KBuiltin] = {}
        self.model_name = ""

    def error(self, message: str, span: int):
        self.diags.append(Diagnostic(message, self.doc.lines.span(span)))

    def fail(self, message: str, span: int):
        raise _Fault(Diagnostic(message, self.doc.lines.span(span)))

    def run(self) -> ElaboratedModel | None:
        do = {"poset": self.do_poset, "dp": self.do_dp, "uncertain": self.do_uncertain}
        terms = []
        for st in self.doc.statements:
            if isinstance(st, StModel):
                if self.model_name:
                    self.error("model already named %r" % self.model_name, st.span)
                else:
                    self.model_name = st.name
            elif isinstance(st, StTerm):
                terms.append(st)
            else:
                try:
                    do[st.keyword](st)
                except _Fault as e:
                    self.diags.append(e.diag)
        if not terms:
            self.error("missing term: a model must declare exactly one", self.doc.span)
            return None
        for extra in terms[1:]:
            self.error("more than one term statement", extra.span)
        if self.diags:
            # poset/dp diagnostics already make the model unusable
            return None
        checked = self._texpr(terms[0].expr)
        if self.diags:
            return None
        # checked is (funsp, ressp, fnames, rnames)
        return ElaboratedModel(
            self.model_name, self.uvaluation, terms[0].expr, *checked, self.builtin_decls
        )

    # declarations: each raises _Fault at its first fault and binds nothing

    def do_poset(self, st: StDecl):
        e = st.body
        if isinstance(e, PosetReal):
            self.posets[st.name] = RealPlus(e.unit)
            return
        try:
            self.posets[st.name] = FinitePoset.chain(e.labels, name=st.name)
        except ValueError as err:
            self.fail(str(err), e.span)

    def space_from_axes(self, axes: list) -> Poset:
        parts = []
        for a in axes:
            if a.ref is None:
                parts.append(RealPlus(a.unit))
            elif a.ref in self.posets:
                parts.append(self.posets[a.ref])
            else:
                self.fail("unknown poset %r" % a.ref, a.span)
        return parts[0] if len(parts) == 1 else ProductPoset(parts)

    def point_element(self, node: PointNode, space: Poset, span_ctx: str):
        want = len(space.factors)
        if len(node.values) != want:
            self.fail("%s point has %d coordinates, space %s has %d"
                      % (span_ctx, len(node.values), space.describe(), want), node.span)
        values = [_reader(p)(v) for p, v in zip(space.factors, node.values)]
        element = tuple(values) if want > 1 else values[0]
        try:
            space.check_member(element)
        except DomainError as err:
            self.fail(str(err), node.span)
        return element

    def do_dp(self, st: StDecl):
        k = st.body
        if isinstance(k, KBuiltin):
            try:
                self.uvaluation[st.name] = _build_builtin(k)
            except DomainError as err:
                self.fail(str(err), k.span)
            self.axis_names[st.name] = _BUILTINS[k.fn].axes
            self.builtin_decls[st.name] = k
            return
        sig = k.sig
        r_space = self.space_from_axes(sig.r_axes)
        if sig.f_axes is None:
            f_space = UNIT_POSET
            fnames: list = []
        else:
            f_space = self.space_from_axes(sig.f_axes)
            fnames = [a.name for a in sig.f_axes]
        rnames = [a.name for a in sig.r_axes]
        dp = self.build_plain_dp(k, f_space, r_space, fnames, rnames)
        if isinstance(dp, IdentityDP) and sig.f_axes is None:
            # identity without an explicit F(...) mirrors its output axes
            fnames = list(rnames)
        self.plain_dps[st.name] = dp
        self.uvaluation[st.name] = degenerate(dp)
        self.axis_names[st.name] = (fnames, rnames)

    def build_plain_dp(self, k, f_space, r_space, fnames, rnames):
        if isinstance(k, KConstant):
            pts = [self.point_element(node, r_space, "resource") for node in k.points]
            return ConstantResource(Antichain(r_space, pts), f_space)
        if isinstance(k, KAffine):
            if not isinstance(f_space, RealPlus):
                self.fail("affine needs a single real functionality axis", k.sig.span)
            if not r_space.real_factors:
                self.fail("affine needs real resource axes", k.sig.span)
            width = len(r_space.factors)
            gain = self.scalars_of_width(k.gain, width, "gain")
            offset = self.scalars_of_width(k.offset, width, "offset")
            if not all(math.isfinite(g) and g >= 0 for g in gain):
                self.fail("gains must be finite and nonnegative", k.gain.span)
            # the map r_j = o_j + g_j * f, compiled as a map's body is
            consts, ops, axes = [], [], {"f": (("x", None), f_space)}
            outs = [self.compile_expr(EBin("+", ENum(o), EBin("*", ENum(g), EVar("f"))), "",
                                      r, axes, consts, ops)
                    for o, g, r in zip(offset, gain, r_space.factors)]
            return MonotoneMap._of(f_space, r_space, compile_point(ops, outs, consts))
        if isinstance(k, KCatalogue):
            fs = _column_elements([f for f, _ in k.entries], f_space)
            rs = _column_elements([r for _, r in k.entries], r_space)
            if fs is None or rs is None:  # point_element raises at the first faulty point
                for fnode, rnode in k.entries:
                    self.point_element(fnode, f_space, "functionality")
                    self.point_element(rnode, r_space, "resource")
            return Catalogue._of(f_space, r_space, list(zip(fs, rs)))  # checked
        if isinstance(k, KMap):
            return self.build_map_dp(k, f_space, r_space, fnames, rnames)
        if isinstance(k, KSig) and k.word == "identity":
            if k.sig.f_axes is not None and f_space != r_space:
                self.fail(
                    "identity must have equal sides, got %s and %s"
                    % (f_space.describe(), r_space.describe()),
                    k.sig.span,
                )
            return IdentityDP(r_space)
        if isinstance(k, KSig):
            return (BottomDP if k.word == "bottom" else TopDP)(f_space, r_space)
        raise TypeError("unknown dp kind %r" % (k,))

    def scalars_of_width(self, node: PointNode, width: int, what: str) -> list:
        values = node.values * width if len(node.values) == 1 else node.values
        if len(values) != width:
            self.fail("%s needs %d values, got %d" % (what, width, len(node.values)), node.span)
        out = list(map(_reader(RealPlus()), values))
        if not all(isinstance(v, float) for v in out):
            self.fail("%s values must be numbers" % what, node.span)
        return out

    def build_map_dp(self, k: KMap, f_space, r_space, fnames, rnames):
        if k.sig.f_axes is None:
            self.fail("map needs an explicit F(...) signature", k.sig.span)
        scalar = len(fnames) == 1
        # name -> (its operand, its poset); a repeated name reads its last axis
        axes = {
            n: (("x", None if scalar else i), p)
            for i, (n, p) in enumerate(zip(fnames, f_space.factors))
        }
        parts: list = [None] * len(rnames)
        consts: list = []
        ops: list = []
        for a in k.assigns:
            targets = [j for j, n in enumerate(rnames) if n == a.name]
            if not targets:
                self.fail("map assigns %r, which is not an output axis" % a.name, a.span)
            if parts[targets[0]] is not None:
                self.fail("output axis %r assigned twice" % a.name, a.span)
            for j in targets:
                parts[j] = self.compile_expr(a.expr, a.name, r_space.factors[j], axes,
                                             consts, ops)
        missing = [n for n, part in zip(rnames, parts) if part is None]
        if missing:
            self.fail("map leaves output axes unassigned: %s" % ", ".join(missing), k.span)
        return MonotoneMap._of(f_space, r_space, compile_point(ops, parts, consts))

    def compile_expr(self, e, out_name: str, out: Poset, axes: dict, consts: list,
                     ops: list) -> tuple:
        """The operand (see dp._operand) giving e for the output axis
        out_name on poset out, each operation of e appended to ops as an
        operator (+, *, max, min) over two operands, each number to
        consts; the first fault, left to right, raises.

        No model text reaches ops.  Each output is typed here, so that
        every value it gives is a member of out: a chain output must be a
        bare functionality axis on an equal chain, and a real output may read
        numbers, real axes and chains whose labels are numbers
        increasing upward.  Under +, * (0 * inf is 0), max and min those
        give a number >= 0 that is not NaN, monotone in every axis.
        """
        if isinstance(e, EVar):
            axis = axes.get(e.name)
            if axis is None:
                self.fail("unknown functionality %r in map expression" % e.name, e.span)
            operand, p = axis
            if isinstance(out, FinitePoset):
                if p != out:
                    self.fail("map output %r on %s cannot read %r on %s: a chain output takes "
                              "a functionality on the same chain"
                              % (out_name, out.describe(), e.name, p.describe()), e.span)
            elif not _reads_as_number(p):
                self.fail("map output %r is real, but %r is on chain %s, whose labels are not "
                          "numbers increasing upward" % (out_name, e.name, p.describe()), e.span)
            return operand
        if isinstance(out, FinitePoset):
            self.fail("map output %r on %s must be a functionality on the same chain, not a "
                      "computed value" % (out_name, out.describe()), e.span)
        if isinstance(e, ENum):
            consts.append(e.value)
            return ("c", len(consts) - 1)
        left = self.compile_expr(e.left, out_name, out, axes, consts, ops)
        right = self.compile_expr(e.right, out_name, out, axes, consts, ops)
        ops.append((e.op, left, right))
        return ("v", len(ops) - 1)

    def do_uncertain(self, st: StDecl):
        k = st.body
        try:
            if isinstance(k, UPm):
                dp = self.plain_dps.get(k.dp_name)
                if not isinstance(dp, Catalogue):
                    self.fail("pm needs a plain catalogue, %r is not one" % k.dp_name, k.span)
                if not 0 <= k.percent < 100:
                    self.fail("spread must satisfy 0 <= p < 100", k.span)
                udp = scale_catalogue(dp, k.percent / 100.0)
                axes_of = k.dp_name
            else:
                lo = self.plain_dps.get(k.lower_name)
                hi = self.plain_dps.get(k.upper_name)
                if lo is None or hi is None:
                    which = k.lower_name if lo is None else k.upper_name
                    self.fail("interval needs plain design problems, %r is not one" % which,
                              k.span)
                udp = UncertainDP(lo, hi)
                check_udp(udp)
                axes_of = k.lower_name
        except DomainError as err:
            self.fail(str(err), k.span)
        self.uvaluation[st.name] = udp
        self.axis_names[st.name] = self.axis_names[axes_of]

    # term type checking

    def _texpr(self, tex):
        """(funsp, ressp, fnames, rnames) of a parsed term, or None."""
        if isinstance(tex, Atom):
            udp = self.uvaluation.get(tex.name)
            if udp is None:
                self.error("no design problem named %r" % tex.name, tex.span)
                return None
            fnames, rnames = self.axis_names[tex.name]
            return udp.funsp, udp.ressp, list(fnames), list(rnames)
        if isinstance(tex, (Series, Par)):
            sides = self._texpr(tex.left), self._texpr(tex.right)
            if None in sides:
                return None
            (lf, lr, lfn, lrn), (rf, rr, rfn, rrn) = sides
            if isinstance(tex, Par):
                return ProductPoset((lf, rf)), ProductPoset((lr, rr)), lfn + rfn, lrn + rrn
            if lr != rf:
                self.error(
                    "series mismatch: left side (%d:%d) produces %s but right "
                    "side consumes %s"
                    % (*self.doc.lines.span(tex.left.span), lr.describe(), rf.describe()),
                    tex.right.span,
                )
                return None
            return lf, rr, lfn, rrn
        if isinstance(tex, Loop):
            body = self._texpr(tex.body)
            if body is None:
                return None
            bf, br, bfn, brn = body
            try:
                f1sp, _ = loop_signature(bf, br)
            except CompositionError:
                self.error(
                    "loop mismatch: body functionality %s must end with its "
                    "resources %s (body at %d:%d)"
                    % (bf.describe(), br.describe(), *self.doc.lines.span(tex.body.span)),
                    tex.span,
                )
                return None
            return f1sp, br, bfn[: len(f1sp.factors)], brn
        raise TypeError("not a term expression: %r" % (tex,))


def _column_elements(nodes: list, space: Poset) -> list | None:
    """The elements of points on space, read a column at a time with each
    axis's reader; None when a point is faulty.  A coordinate is a float or
    a word, so each distinct value of a column is checked once."""
    width = len(space.factors)
    if any(len(node.values) != width for node in nodes):
        return None
    columns = []
    for j, axis in enumerate(space.factors):
        read = _reader(axis)
        columns.append([read(node.values[j]) for node in nodes])
        if not all(map(axis.contains, set(columns[-1]))):
            return None
    return list(zip(*columns)) if width > 1 else columns[0]


def _reads_as_number(p: Poset) -> bool:
    """Whether a real output may read an axis on p: a real axis, or a
    chain whose labels are numbers increasing upward, so that reading a
    label as its number is monotone (the model language's chains are
    total orders in declaration order)."""
    if isinstance(p, RealPlus):
        return True
    labels = p.elements()
    return all(isinstance(v, (int, float)) for v in labels) and all(
        a < b for a, b in zip(labels, labels[1:])
    )


def elaborate(doc: Document) -> tuple[ElaboratedModel | None, list[Diagnostic]]:
    """Build posets, design problems, and the checked term from a parse tree.

    Returns (model, diagnostics); the model is None when any error
    diagnostic was produced.
    """
    el = _Elaborator(doc)
    return el.run(), el.diags


def load_model(text: str) -> tuple[ElaboratedModel | None, list[Diagnostic]]:
    """parse + elaborate in one step."""
    result = parse(text)
    if not result.ok:
        return None, result.diagnostics
    model, diags = elaborate(result.document)
    return model, result.diagnostics + diags
