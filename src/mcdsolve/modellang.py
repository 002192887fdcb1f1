"""Line-oriented model language for co-design problems (.mcd files).

Grammar (EBNF; # starts a comment, statements begin at column 1):

    document   = { statement } ;
    statement  = modeldecl | posetdecl | dpdecl | udecl | termdecl ;
    modeldecl  = "model" NAME [ STRING ] ;
    posetdecl  = "poset" NAME "=" posetexpr ;
    posetexpr  = "R" "+" "[" UNIT "]"
               | "chain" "{" elem { "," elem } "}"
               | "product" "(" NAME "," NAME { "," NAME } ")" ;
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
functionality names, +, *, max, min.  Elaboration compiles each body
once into closures over the argument positions, reporting unknown names
on the way; affine is built from the same closures, as the map
r_i = o_i + g_i * f.  Parsing recovers at statement boundaries, so one
file yields every diagnostic at once; a duplicate name anywhere (posets,
dps, uncertains share one namespace) is an error.  A node's span is the
position where it starts, the line and column of its first token, which
is what a diagnostic reports.  poset, dp and uncertain statements are one
node, StDecl, holding the keyword, the name and the parsed body.  A term
statement parses straight into the kernel's term type (dp.Atom, Series,
Par, Loop).  A number read as a chain element, in a chain or in a point
on a chain axis, is an int when integral (chain_number).  Each builtin's
argument layout, axis names and relaxations constructor live in one
table, _BUILTINS, which the parser, renderer, elaborator and reserved
words all read.
"""

import math
import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

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
    Par,
    Series,
    Term,
    UNIT_POSET,
    BottomDP,
    TopDP,
    loop_signature,
    term_to_text,
)
from .errors import CompositionError, DomainError
from .posets import FinitePoset, Poset, ProductPoset, RealPlus
from .uncertainty import UncertainDP, check_udp, degenerate, scale_catalogue

KEYWORDS = ("model", "poset", "dp", "uncertain", "term")


class _Builtin(NamedTuple):
    """Argument layout and constructor of a builtin relaxation."""

    numbers: int  # numeric arguments, always given
    units: int  # trailing units, all given or none
    sep: str  # text between the numbers and the units
    counts_samples: bool  # the first number is a sample count
    axes: tuple  # (functionality names, resource names)
    build: Callable  # relaxations constructor, called as build(*numbers, *units)


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
    + (
        "chain",
        "product",
        "constant",
        "affine",
        "catalogue",
        "map",
        "identity",
        "bottom",
        "top",
        "gain",
        "offset",
        "series",
        "par",
        "loop",
        "pm",
        "interval",
        "inf",
        "max",
        "min",
        "F",
        "R",
    )
)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

_PREC = {"+": 1, "*": 2}  # how tightly map operators bind, for parsing and printing


def chain_number(v: float):
    """A number as a chain element: an integral one is an int, so a label
    written 2 or 2.0 is the element 2 wherever it is read."""
    return int(v) if v.is_integer() else v


class Span(NamedTuple):
    """Where a token or node starts: 1-based line and column."""

    line: int
    col: int


def _sp():
    return field(compare=False, repr=False)


@dataclass
class Diagnostic:
    """An error in a model text; any diagnostic makes the model unusable."""

    message: str
    span: Span

    def format(self, filename: str = "<model>") -> str:
        return "%s:%d:%d: error: %s" % (filename, self.span.line, self.span.col, self.message)


# --- lexer ------------------------------------------------------------------


@dataclass(slots=True)  # one per token: slots keep a model's token list small
class Token:
    kind: str
    text: str
    span: Span


_TOKEN_RE = re.compile(
    r"(?P<skip>[ \t\r]+|#[^\n]*)"
    r"|(?P<nl>\n)"
    r"|(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+)"
    r"|(?P<arrow>->)"
    r"|(?P<le><=)"
    r"|(?P<word>[A-Za-z_$][A-Za-z0-9_$/^]*)"
    r"|(?P<string>\"[^\"\n]*\")"
    r"|(?P<punct>[(){}\[\],;=:%+*])"
    r"|(?P<bad>.)"
)


def tokenize(text: str, diagnostics: list) -> list[Token]:
    toks: list[Token] = []
    line = 1
    line_start = 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "nl":
            line += 1
            line_start = m.end()
        elif kind != "skip":
            span = Span(line, m.start() - line_start + 1)
            if kind == "bad":
                diagnostics.append(Diagnostic("unexpected character %r" % m.group(), span))
            else:
                if kind in ("punct", "arrow", "le"):
                    kind = m.group()
                toks.append(Token(kind, m.group(), span))
    toks.append(Token("eof", "", Span(line, len(text) - line_start + 1)))
    return toks


# --- syntax tree --------------------------------------------------------------


@dataclass
class PosetReal:
    unit: str
    span: Span = _sp()


@dataclass
class PosetChain:
    labels: list
    span: Span = _sp()


@dataclass
class PosetProduct:
    refs: list
    span: Span = _sp()


@dataclass
class Axis:
    name: str
    unit: str | None
    ref: str | None
    span: Span = _sp()


@dataclass
class Sig:
    f_axes: list | None
    r_axes: list
    span: Span = _sp()


@dataclass
class PointNode:
    values: list
    span: Span = _sp()


@dataclass
class Assign:
    name: str
    expr: object
    span: Span = _sp()


@dataclass
class ENum:
    value: float
    span: Span = _sp()


@dataclass
class EVar:
    name: str
    span: Span = _sp()


@dataclass
class EBin:
    op: str
    left: object
    right: object
    span: Span = _sp()


@dataclass
class KConstant:
    sig: Sig
    points: list
    span: Span = _sp()


@dataclass
class KAffine:
    sig: Sig
    gain: PointNode
    offset: PointNode
    span: Span = _sp()


@dataclass
class KCatalogue:
    sig: Sig
    entries: list
    span: Span = _sp()


@dataclass
class KMap:
    sig: Sig
    assigns: list
    span: Span = _sp()


@dataclass
class KSig:
    word: str  # identity, bottom or top: kinds given by their signature alone
    sig: Sig
    span: Span = _sp()


@dataclass
class KBuiltin:
    fn: str
    numbers: list
    units: list
    span: Span = _sp()


@dataclass
class UPm:
    dp_name: str
    percent: float
    span: Span = _sp()


@dataclass
class UInterval:
    lower_name: str
    upper_name: str
    span: Span = _sp()


@dataclass
class StModel:
    name: str
    description: str
    span: Span = _sp()


@dataclass
class StDecl:
    keyword: str  # poset, dp or uncertain
    name: str
    body: object
    span: Span = _sp()


@dataclass
class StTerm:
    expr: object
    span: Span = _sp()


@dataclass
class Document:
    statements: list
    span: Span = _sp()


@dataclass
class ParseResult:
    document: Document
    diagnostics: list

    @property
    def ok(self) -> bool:
        return not self.diagnostics


# --- parser -------------------------------------------------------------------


class _ParseError(Exception):
    def __init__(self, diag: Diagnostic):
        super().__init__(diag.message)
        self.diag = diag


class _Parser:
    def __init__(self, tokens: list[Token], diagnostics: list):
        self.toks = tokens
        self.i = 0
        self.diags = diagnostics
        self.declared: dict[str, Span] = {}

    def cur(self) -> Token:
        return self.toks[self.i]

    def advance(self) -> Token:
        tok = self.toks[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def at(self, text: str) -> bool:
        return self.cur().text == text and self.cur().kind != "string"

    def _describe(self, tok: Token) -> str:
        return "end of file" if tok.kind == "eof" else repr(tok.text)

    def fail(self, message: str, tok: Token | None = None):
        tok = tok or self.cur()
        raise _ParseError(Diagnostic(message, tok.span))

    def expect(self, text: str) -> Token:
        if not self.at(text):
            self.fail("expected %r, found %s" % (text, self._describe(self.cur())))
        return self.advance()

    def expect_name(self, what: str = "a name") -> Token:
        tok = self.cur()
        if tok.kind != "word" or not _NAME_RE.match(tok.text):
            self.fail("expected %s, found %s" % (what, self._describe(tok)))
        if tok.text in RESERVED:
            self.fail("%r is a reserved word" % tok.text)
        return self.advance()

    def expect_unit(self) -> Token:
        tok = self.cur()
        if tok.kind != "word":
            self.fail("expected a unit, found %s" % self._describe(tok))
        return self.advance()

    def expect_num(self) -> float:
        tok = self.cur()
        if tok.kind != "num":
            self.fail("expected a number, found %s" % self._describe(tok))
        self.advance()
        return float(tok.text)

    def comma_list(self, item, count: int = 0) -> list:
        """item { "," item }, or exactly count items when count is given."""
        items = [item()]
        while len(items) < count if count else self.at(","):
            self.expect(",")
            items.append(item())
        return items

    def declare(self, tok: Token):
        name = tok.text
        if name in self.declared:
            first = self.declared[name]
            self.diags.append(
                Diagnostic(
                    "duplicate identifier %r (first declared at %d:%d)"
                    % (name, first.line, first.col),
                    tok.span,
                )
            )
        else:
            self.declared[name] = tok.span

    # statements

    def parse_document(self) -> Document:
        statements = []
        first = self.cur()
        while self.cur().kind != "eof":
            tok = self.cur()
            try:
                if tok.text == "model":
                    statements.append(self.parse_model())
                elif tok.text in _DECLS:
                    statements.append(self.parse_decl())
                elif tok.text == "term":
                    statements.append(self.parse_term_stmt())
                else:
                    self.fail(
                        "expected a statement (model, poset, dp, uncertain, term), "
                        "found %s" % self._describe(tok)
                    )
            except _ParseError as e:
                self.diags.append(e.diag)
                self.recover()
        return Document(statements, span=first.span)

    def recover(self):
        """Skip to the next statement keyword at the start of a line.

        The failure position may already sit on that keyword (a statement
        cut short by the next one); resume there without skipping it.
        Statement parsers always consume their leading keyword first, so
        this cannot loop.
        """
        while self.cur().kind != "eof":
            tok = self.cur()
            if tok.text in KEYWORDS and tok.span.col == 1:
                return
            self.advance()

    def parse_model(self) -> StModel:
        kw = self.expect("model")
        name = self.expect_name("a model name")
        desc = ""
        if self.cur().kind == "string":
            desc = self.advance().text[1:-1]
        return StModel(name.text, desc, span=kw.span)

    def parse_decl(self) -> StDecl:
        kw = self.advance()
        what, body = _DECLS[kw.text]
        name = self.expect_name(what)
        self.declare(name)
        self.expect("=")
        return StDecl(kw.text, name.text, body(self), span=kw.span)

    def parse_poset_expr(self):
        tok = self.cur()
        if tok.text == "R":
            self.advance()
            self.expect("+")
            self.expect("[")
            unit = self.expect_unit()
            self.expect("]")
            return PosetReal(unit.text, span=tok.span)
        if tok.text == "chain":
            self.advance()
            self.expect("{")
            labels = self.comma_list(self.parse_elem)
            self.expect("}")
            return PosetChain(labels, span=tok.span)
        if tok.text == "product":
            self.advance()
            self.expect("(")
            refs = [self.parse_ref()]
            self.expect(",")
            refs += self.comma_list(self.parse_ref)
            self.expect(")")
            return PosetProduct(refs, span=tok.span)
        self.fail("expected a poset expression (R+[...], chain, product)")

    def parse_ref(self) -> str:
        return self.expect_name("a poset name").text

    def parse_elem(self):
        tok = self.cur()
        if tok.kind == "num":
            self.advance()
            return chain_number(float(tok.text))
        if tok.kind == "word":
            self.advance()
            return tok.text
        self.fail("expected a chain element, found %s" % self._describe(tok))

    def parse_dp_kind(self):
        tok = self.cur()
        if tok.text == "constant":
            self.advance()
            sig = self.parse_sig()
            self.expect("{")
            points = self.comma_list(self.parse_point)
            self.expect("}")
            return KConstant(sig, points, span=tok.span)
        if tok.text == "affine":
            self.advance()
            sig = self.parse_sig()
            self.expect("gain")
            gain = self.parse_point()
            self.expect("offset")
            offset = self.parse_point()
            return KAffine(sig, gain, offset, span=tok.span)
        if tok.text == "catalogue":
            self.advance()
            sig = self.parse_sig()
            self.expect("{")
            entries = []
            while not self.at("}") and self.cur().kind != "eof":
                fpoint = self.parse_point()
                self.expect("->")
                rpoint = self.parse_point()
                entries.append((fpoint, rpoint))
                if self.at(","):
                    self.advance()
                else:
                    break
            self.expect("}")
            return KCatalogue(sig, entries, span=tok.span)
        if tok.text == "map":
            self.advance()
            sig = self.parse_sig()
            self.expect("{")
            assigns = [self.parse_assign()]
            while self.at(";"):
                self.advance()
                if self.at("}"):
                    break
                assigns.append(self.parse_assign())
            self.expect("}")
            return KMap(sig, assigns, span=tok.span)
        if tok.text in ("identity", "bottom", "top"):
            self.advance()
            return KSig(tok.text, self.parse_sig(), span=tok.span)
        if tok.text in _BUILTINS:
            return self.parse_builtin()
        self.fail("unknown design problem kind %s" % self._describe(tok))

    def parse_builtin(self) -> KBuiltin:
        fn = self.advance()
        spec = _BUILTINS[fn.text]
        self.expect("(")
        numbers = self.comma_list(self.expect_num, spec.numbers)
        units = []
        comma = spec.sep != " "
        if self.at(",") if comma else self.cur().kind == "word":
            if comma:
                self.advance()
            units = self.comma_list(lambda: self.expect_unit().text, spec.units)
        self.expect(")")
        return KBuiltin(fn.text, numbers, units, span=fn.span)

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
        return Sig(f_axes, r_axes, span=start.span)

    def parse_axis(self) -> Axis:
        name = self.expect_name("an axis name")
        if self.at("["):
            self.advance()
            unit = self.expect_unit()
            self.expect("]")
            return Axis(name.text, unit.text, None, span=name.span)
        if self.at(":"):
            self.advance()
            ref = self.expect_name("a poset name")
            return Axis(name.text, None, ref.text, span=name.span)
        self.fail("axis %r needs [unit] or :poset" % name.text)

    def parse_point(self) -> PointNode:
        tok = self.cur()
        if self.at("("):
            self.advance()
            values = self.comma_list(self.parse_scalar)
            self.expect(")")
        else:
            values = [self.parse_scalar()]
        return PointNode(values, span=tok.span)

    def parse_scalar(self):
        tok = self.cur()
        if tok.kind == "num":
            self.advance()
            return float(tok.text)
        if tok.text == "inf":
            self.advance()
            return math.inf
        if tok.kind == "word":
            self.advance()
            return tok.text
        self.fail("expected a number, 'inf', or a label, found %s" % self._describe(tok))

    def parse_assign(self) -> Assign:
        name = self.expect_name("an output axis name")
        self.expect("=")
        return Assign(name.text, self.parse_mexpr(), span=name.span)

    def parse_mexpr(self, min_prec: int = 1):
        """Operands joined by + and * at precedence min_prec or above,
        grouped to the left."""
        left = self.parse_mfactor()
        while _PREC.get(self.cur().text, 0) >= min_prec:
            op = self.advance().text
            right = self.parse_mexpr(_PREC[op] + 1)
            left = EBin(op, left, right, span=left.span)
        return left

    def parse_mfactor(self):
        tok = self.cur()
        if tok.kind == "num":
            self.advance()
            return ENum(float(tok.text), span=tok.span)
        if tok.text in ("max", "min"):
            self.advance()
            self.expect("(")
            left = self.parse_mexpr()
            self.expect(",")
            right = self.parse_mexpr()
            self.expect(")")
            return EBin(tok.text, left, right, span=tok.span)
        if self.at("("):
            self.advance()
            expr = self.parse_mexpr()
            self.expect(")")
            return expr
        if tok.kind == "word" and _NAME_RE.match(tok.text) and tok.text not in RESERVED:
            self.advance()
            return EVar(tok.text, span=tok.span)
        self.fail("expected an expression, found %s" % self._describe(tok))

    def parse_uncertain_kind(self):
        tok = self.cur()
        if tok.text == "pm":
            self.advance()
            self.expect("(")
            target = self.expect_name("a design problem name")
            self.expect(",")
            pct = self.expect_num()
            self.expect("%")
            self.expect(")")
            return UPm(target.text, pct, span=tok.span)
        if tok.text == "interval":
            self.advance()
            self.expect("(")
            lo = self.expect_name("a design problem name")
            self.expect(",")
            hi = self.expect_name("a design problem name")
            self.expect(")")
            return UInterval(lo.text, hi.text, span=tok.span)
        self.fail("expected pm(...) or interval(...), found %s" % self._describe(tok))

    def parse_term_stmt(self) -> StTerm:
        kw = self.expect("term")
        return StTerm(self.parse_texpr(), span=kw.span)

    def parse_texpr(self):
        tok = self.cur()
        if tok.text == "series" or tok.text == "par":
            self.advance()
            self.expect("(")
            left = self.parse_texpr()
            self.expect(",")
            right = self.parse_texpr()
            self.expect(")")
            cls = Series if tok.text == "series" else Par
            return cls(left, right, span=tok.span)
        if tok.text == "loop":
            self.advance()
            self.expect("(")
            body = self.parse_texpr()
            self.expect(")")
            return Loop(body, span=tok.span)
        name = self.expect_name("a design problem name")
        return Atom(name.text, span=name.span)


# declaration keyword -> (what its name is called, parser of its body)
_DECLS = {
    "poset": ("a poset name", _Parser.parse_poset_expr),
    "dp": ("a design problem name", _Parser.parse_dp_kind),
    "uncertain": ("an uncertain name", _Parser.parse_uncertain_kind),
}

def parse(text: str) -> ParseResult:
    """Parse model text; errors do not abort, they accumulate."""
    diagnostics: list[Diagnostic] = []
    tokens = tokenize(text, diagnostics)
    parser = _Parser(tokens, diagnostics)
    doc = parser.parse_document()
    return ParseResult(doc, diagnostics)


# --- renderer -----------------------------------------------------------------


def _fmt_num(v) -> str:
    # only points read the word inf; a NUM that overflows reads back as it
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
    parts = ["inf" if v == math.inf else _fmt_label(v) for v in p.values]
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
    if isinstance(k, PosetProduct):
        return "product(%s)" % ", ".join(k.refs)
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


@dataclass
class ElaboratedModel:
    """A checked model ready to solve."""

    name: str
    uvaluation: dict
    term: Term
    funsp: Poset
    ressp: Poset
    fnames: list
    rnames: list
    builtin_decls: dict

    def query_axes(self) -> list:
        return list(zip(self.fnames, self.funsp.factors))

    def axis_index(self, key) -> int:
        """0-based index of a functionality axis given by name or by
        1-based index (an int or a digit string)."""
        axes = self.query_axes()
        if isinstance(key, int) or (isinstance(key, str) and key.isdigit()):
            idx = int(key) - 1
            if not 0 <= idx < len(axes):
                raise DomainError("axis index %s out of range 1..%d" % (key, len(axes)))
            return idx
        hits = [i for i, (n, _) in enumerate(axes) if n == key]
        if not hits:
            raise DomainError(
                "unknown axis %r; axes are: %s" % (key, ", ".join(n for n, _ in axes))
            )
        if len(hits) > 1:
            raise DomainError("axis name %r is ambiguous; use its 1-based index" % key)
        return hits[0]

    def build_query(self, assignments: dict):
        """Functionality element from axis-name (or 1-based index) keys.

        Values are numbers (math.inf included) or finite-poset labels;
        every axis must be covered exactly once.
        """
        if self.funsp == UNIT_POSET:
            if assignments:
                raise DomainError("this model takes no functionality arguments")
            return "*"
        axes = self.query_axes()
        slots: list = [None] * len(axes)
        for key, value in assignments.items():
            idx = self.axis_index(key)
            if slots[idx] is not None:
                raise DomainError("axis %r assigned twice" % key)
            slots[idx] = value
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

    def error(self, message: str, span: Span):
        self.diags.append(Diagnostic(message, span))

    def run(self) -> ElaboratedModel | None:
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
                do = {"poset": self.do_poset, "dp": self.do_dp, "uncertain": self.do_uncertain}
                do[st.keyword](st)
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
        funsp, ressp, fnames, rnames = checked
        return ElaboratedModel(
            name=self.model_name,
            uvaluation=self.uvaluation,
            term=terms[0].expr,
            funsp=funsp,
            ressp=ressp,
            fnames=fnames,
            rnames=rnames,
            builtin_decls=self.builtin_decls,
        )

    # declarations

    def poset_named(self, ref: str, span: Span) -> Poset | None:
        p = self.posets.get(ref)
        if p is None:
            self.error("unknown poset %r" % ref, span)
        return p

    def do_poset(self, st: StDecl):
        e = st.body
        if isinstance(e, PosetReal):
            self.posets[st.name] = RealPlus(e.unit)
            return
        if isinstance(e, PosetChain):
            try:
                self.posets[st.name] = FinitePoset.chain(e.labels, name=st.name)
            except ValueError as err:
                self.error(str(err), e.span)
            return
        factors = []
        for ref in e.refs:
            p = self.poset_named(ref, e.span)
            if p is None:
                return
            factors.append(p)
        self.posets[st.name] = ProductPoset(factors)

    def space_from_axes(self, axes: list) -> Poset | None:
        parts = []
        for a in axes:
            if a.ref is not None:
                p = self.poset_named(a.ref, a.span)
                if p is None:
                    return None
                if isinstance(p, ProductPoset):
                    self.error(
                        "axis %r must name a scalar poset, %r is a product"
                        % (a.name, a.ref),
                        a.span,
                    )
                    return None
                parts.append(p)
            else:
                parts.append(RealPlus(a.unit))
        return parts[0] if len(parts) == 1 else ProductPoset(parts)

    def point_element(self, node: PointNode, space: Poset, span_ctx: str):
        want = len(space.factors)
        if len(node.values) != want:
            self.error(
                "%s point has %d coordinates, space %s has %d"
                % (span_ctx, len(node.values), space.describe(), want),
                node.span,
            )
            return None
        values = [
            chain_number(v) if isinstance(p, FinitePoset) and isinstance(v, float) else v
            for p, v in zip(space.factors, node.values)
        ]
        element = tuple(values) if want > 1 else values[0]
        try:
            space.check_member(element)
        except DomainError as err:
            self.error(str(err), node.span)
            return None
        return element

    def do_dp(self, st: StDecl):
        k = st.body
        if isinstance(k, KBuiltin):
            try:
                udp = _build_builtin(k)
            except DomainError as err:
                self.error(str(err), k.span)
                return
            self.uvaluation[st.name] = udp
            self.axis_names[st.name] = _BUILTINS[k.fn].axes
            self.builtin_decls[st.name] = k
            return
        sig = k.sig
        r_space = self.space_from_axes(sig.r_axes)
        if r_space is None:
            return
        if sig.f_axes is None:
            f_space: Poset | None = UNIT_POSET
            fnames: list = []
        else:
            f_space = self.space_from_axes(sig.f_axes)
            fnames = [a.name for a in sig.f_axes]
        if f_space is None:
            return
        rnames = [a.name for a in sig.r_axes]
        dp = self.build_plain_dp(st.name, k, f_space, r_space, fnames, rnames)
        if dp is None:
            return
        if isinstance(dp, IdentityDP) and sig.f_axes is None:
            # identity without an explicit F(...) mirrors its output axes
            fnames = list(rnames)
        self.plain_dps[st.name] = dp
        self.uvaluation[st.name] = degenerate(dp)
        self.axis_names[st.name] = (fnames, rnames)

    def build_plain_dp(self, name, k, f_space, r_space, fnames, rnames):
        if isinstance(k, KConstant):
            pts = []
            for node in k.points:
                el = self.point_element(node, r_space, "resource")
                if el is None:
                    return None
                pts.append(el)
            return ConstantResource(Antichain(r_space, pts), f_space)
        if isinstance(k, KAffine):
            if not isinstance(f_space, RealPlus):
                self.error(
                    "affine needs a single real functionality axis", k.sig.span
                )
                return None
            width = len(r_space.factors)
            gain = self.scalars_of_width(k.gain, width, "gain")
            offset = self.scalars_of_width(k.offset, width, "offset")
            if gain is None or offset is None:
                return None
            for g in gain:
                if not (math.isfinite(g) and g >= 0):
                    self.error("gains must be finite and nonnegative", k.gain.span)
                    return None
            parts = [
                _combine("+", _constant(o), _combine("*", _constant(g), _axis(0)))
                for g, o in zip(gain, offset)
            ]
            return _map_dp(name, f_space, r_space, parts)
        if isinstance(k, KCatalogue):
            entries = []
            for fnode, rnode in k.entries:
                fe = self.point_element(fnode, f_space, "functionality")
                re_ = self.point_element(rnode, r_space, "resource")
                if fe is None or re_ is None:
                    return None
                entries.append((fe, re_))
            return Catalogue(f_space, r_space, entries, name=name)
        if isinstance(k, KMap):
            return self.build_map_dp(name, k, f_space, r_space, fnames, rnames)
        if isinstance(k, KSig) and k.word == "identity":
            if k.sig.f_axes is not None and f_space != r_space:
                self.error(
                    "identity must have equal sides, got %s and %s"
                    % (f_space.describe(), r_space.describe()),
                    k.sig.span,
                )
                return None
            return IdentityDP(r_space)
        if isinstance(k, KSig):
            return (BottomDP if k.word == "bottom" else TopDP)(f_space, r_space)
        raise TypeError("unknown dp kind %r" % (k,))

    def scalars_of_width(self, node: PointNode, width: int, what: str):
        if len(node.values) == 1 and width > 1:
            values = node.values * width
        elif len(node.values) != width:
            self.error(
                "%s needs %d values, got %d" % (what, width, len(node.values)),
                node.span,
            )
            return None
        else:
            values = node.values
        out = []
        for v in values:
            if not isinstance(v, float):
                self.error("%s values must be numbers" % what, node.span)
                return None
            out.append(v)
        return out

    def build_map_dp(self, name, k: KMap, f_space, r_space, fnames, rnames):
        if k.sig.f_axes is None:
            self.error("map needs an explicit F(...) signature", k.sig.span)
            return None
        index = {n: i for i, n in enumerate(fnames)}  # a repeated name reads its last axis
        assigned = {}
        for a in k.assigns:
            if a.name not in rnames:
                self.error(
                    "map assigns %r, which is not an output axis" % a.name, a.span
                )
                return None
            if a.name in assigned:
                self.error("output axis %r assigned twice" % a.name, a.span)
                return None
            compiled = self.compile_expr(a.expr, index)
            if compiled is None:
                return None
            assigned[a.name] = compiled
        missing = [n for n in rnames if n not in assigned]
        if missing:
            self.error(
                "map leaves output axes unassigned: %s" % ", ".join(missing),
                k.span,
            )
            return None
        return _map_dp(name, f_space, r_space, [assigned[n] for n in rnames])

    def compile_expr(self, e, index: dict):
        """Closure computing e from the tuple of functionality values, or
        None after reporting the first unknown name, left to right."""
        if isinstance(e, ENum):
            return _constant(e.value)
        if isinstance(e, EVar):
            i = index.get(e.name)
            if i is None:
                self.error(
                    "unknown functionality %r in map expression" % e.name, e.span
                )
                return None
            return _axis(i)
        left = self.compile_expr(e.left, index)
        right = left and self.compile_expr(e.right, index)
        if right is None:
            return None
        return _combine(e.op, left, right)

    def do_uncertain(self, st: StDecl):
        k = st.body
        if isinstance(k, UPm):
            dp = self.plain_dps.get(k.dp_name)
            if dp is None:
                self.error("pm needs a plain catalogue, %r is not one" % k.dp_name, k.span)
                return
            if not 0 <= k.percent < 100:
                self.error("spread must satisfy 0 <= p < 100", k.span)
                return

            def build():
                return scale_catalogue(dp, k.percent / 100.0)

            axes_of = k.dp_name
        else:
            lo = self.plain_dps.get(k.lower_name)
            hi = self.plain_dps.get(k.upper_name)
            if lo is None or hi is None:
                which = k.lower_name if lo is None else k.upper_name
                self.error("interval needs plain design problems, %r is not one" % which, k.span)
                return

            def build():
                udp = UncertainDP(lo, hi)
                check_udp(udp)
                return udp

            axes_of = k.lower_name
        try:
            self.uvaluation[st.name] = build()
        except DomainError as err:
            self.error(str(err), k.span)
            return
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
            left = self._texpr(tex.left)
            right = self._texpr(tex.right)
            if left is None or right is None:
                return None
            lf, lr, lfn, lrn = left
            rf, rr, rfn, rrn = right
            if isinstance(tex, Par):
                return ProductPoset((lf, rf)), ProductPoset((lr, rr)), lfn + rfn, lrn + rrn
            if lr != rf:
                self.error(
                    "series mismatch: left side (%d:%d) produces %s but right "
                    "side consumes %s"
                    % (tex.left.span.line, tex.left.span.col, lr.describe(), rf.describe()),
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
                    % (
                        bf.describe(),
                        br.describe(),
                        tex.body.span.line,
                        tex.body.span.col,
                    ),
                    tex.span,
                )
                return None
            return f1sp, br, bfn[: len(f1sp.factors)], brn
        raise TypeError("not a term expression: %r" % (tex,))


def _constant(value):
    return lambda x: value


def _axis(i: int):
    return lambda x: x[i]


def _combine(op: str, a, b):
    """Closure applying a map operator to two compiled operands."""
    if op == "+":
        return lambda x: a(x) + b(x)
    if op == "*":

        def times(x):
            u, v = a(x), b(x)
            # 0 * inf is 0 here: a zero gain switches a contribution off
            return 0.0 if u == 0 or v == 0 else u * v

        return times
    if op == "max":
        return lambda x: max(a(x), b(x))
    return lambda x: min(a(x), b(x))


def _map_dp(name: str, f_space, r_space, parts: list) -> MonotoneMap:
    # one compiled closure per output axis, each given the tuple of inputs
    def fn(f):
        x = f if isinstance(f, tuple) else (f,)
        return parts[0](x) if len(parts) == 1 else tuple(p(x) for p in parts)

    return MonotoneMap(f_space, r_space, fn, name=name)


def elaborate(doc: Document) -> tuple[ElaboratedModel | None, list[Diagnostic]]:
    """Build posets, design problems, and the checked term from a parse tree.

    Returns (model, diagnostics); the model is None when any error
    diagnostic was produced.
    """
    el = _Elaborator(doc)
    model = el.run()
    return model, el.diags


def load_model(text: str) -> tuple[ElaboratedModel | None, list[Diagnostic]]:
    """parse + elaborate in one step."""
    result = parse(text)
    if not result.ok:
        return None, result.diagnostics
    model, diags = elaborate(result.document)
    return model, result.diagnostics + diags
