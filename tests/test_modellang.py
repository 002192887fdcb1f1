import math
import re
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from mcdsolve import cli, examples, modellang
from mcdsolve.dp import Catalogue
from mcdsolve.errors import DomainError
from mcdsolve.modellang import (
    _BUILTINS,
    RESERVED,
    _Lines,
    Diagnostic,
    Span,
    elaborate,
    load_model,
    parse,
    render,
    tokenize,
)
from mcdsolve.posets import FinitePoset, RealPlus
from mcdsolve.uncertainty import solve_uncertain

SMALL = """\
model small "two stages"
poset grade = chain {low, high}
dp a = catalogue F(f[W], grade:grade) R(r[g]) {
    (1.0, low) -> 10.0,
    (2.0, high) -> 30.0
}
dp b = map F(r[g]) R(cost[$]) { cost = 0.5 * r + 1.0 }
term series(a, b)
"""


def parse_ok(text):
    result = parse(text)
    assert result.ok, [d.format("t.mcd") for d in result.diagnostics]
    return result.document


def elaborate_ok(text):
    model, diags = load_model(text)
    assert model is not None, [d.format("t.mcd") for d in diags]
    return model


class TestTokenize:
    def test_comments_stripped(self):
        toks = tokenize("term a # trailing\n# full line\n", [])
        assert [text for kind, text, _ in toks if kind != "eof"] == ["term", "a"]

    def test_spans_are_one_based(self):
        text = "dp x = identity R(v[W])"
        toks = tokenize(text, [])
        spans = [_Lines(text).span(offset) for _, _, offset in toks]
        assert spans[0].line == 1
        assert spans[0].col == 1
        assert toks[1][1] == "x"
        assert spans[1].col == 4

    def test_unit_words(self):
        toks = tokenize("poset v = R+[km/h]", [])
        assert any(text == "km/h" for _, text, _ in toks)
        toks = tokenize("x Wh/$ y", [])
        assert [text for kind, text, _ in toks if kind == "word"] == ["x", "Wh/$", "y"]

    def test_bad_character_reported(self):
        diags = []
        tokenize("dp a = ?", diags)
        assert [d.format("m.mcd") for d in diags] == ["m.mcd:1:8: error: unexpected character '?'"]


# pieces that end any comment or string they open, and characters that
# start no token and join no neighbour
_SAFE_PIECES = ["\n", "\n\n", "\t", "\r", "\r\n", " ", "# a ( ? \"\n", '"s # ?"', "dp", "x_1",
                "1.5e3", ".5", "(", "->", "<=", "}", ",", "Wh/$"]
_BAD_CHARACTERS = ["?", "@", "!", "~", "&", "\u00e9", "\x0b", "\x0c"]


def naive_position(text, offset):
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class TestPositions:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.lists(st.sampled_from(_SAFE_PIECES + _BAD_CHARACTERS), max_size=60))
    def test_positions_are_a_naive_count(self, pieces):
        text = "".join(pieces)
        bad_at, offset = [], 0
        for piece in pieces:
            if piece in _BAD_CHARACTERS:
                bad_at.append(offset)
            offset += len(piece)
        diags = []
        toks = tokenize(text, diags)
        lines = _Lines(text)
        for _, token_text, offset in toks:
            assert text.startswith(token_text, offset)
            assert tuple(lines.span(offset)) == naive_position(text, offset)
        assert [(d.message, tuple(d.span)) for d in diags] == [
            ("unexpected character %r" % text[at], naive_position(text, at)) for at in bad_at
        ]
        # the parser reports the same lexer diagnostics first
        assert parse(text).diagnostics[: len(diags)] == diags


class TestParse:
    def test_small_document(self):
        doc = parse_ok(SMALL)
        assert len(doc.statements) == 5

    def test_duplicate_name(self):
        result = parse("poset x = R+[g]\nposet x = R+[g]\nterm x\n")
        messages = [d.message for d in result.diagnostics]
        assert any("duplicate identifier 'x'" in m for m in messages)
        assert any("first declared at 1:7" in m for m in messages)

    def test_recovery_collects_multiple_errors(self):
        bad = (
            "poset p = chain {1, 2\n"  # unclosed brace
            "dp a = wigget F(f[W]) R(r[g])\n"  # unknown kind
            "term a\n"
        )
        result = parse(bad)
        assert len(result.diagnostics) >= 2
        # the term statement was still parsed despite earlier failures
        assert result.document is not None

    def test_spans_attached(self):
        result = parse("dp a = identity\nterm a\n")
        assert not result.ok
        for d in result.diagnostics:
            assert d.span.line >= 1 and d.span.col >= 1

    def test_diagnostic_format(self):
        d = Diagnostic(span=Span(3, 7), message="boom")
        assert d.format("m.mcd") == "m.mcd:3:7: error: boom"

    def test_never_crashes_on_truncations(self):
        # chopping a valid file anywhere must yield diagnostics, not throws
        for cut in range(0, len(SMALL), 7):
            result = parse(SMALL[:cut])
            assert result is not None

    def test_never_crashes_on_junk(self):
        for junk in (
            "",
            "\n\n\n",
            "}}}}",
            "term",
            "term series(",
            "dp = =",
            "poset p = product(a",
            "uncertain u = pm(",
            'model "unnamed"',
            "dp a = catalogue F() R() {}",
            "term series(a, b) extra",
        ):
            result = parse(junk)
            assert result is not None


class TestRecords:
    def test_span_takes_no_part_in_eq_or_repr(self):
        here, there = modellang.PosetReal("W", span=4), modellang.PosetReal("W", span=40)
        assert here == there
        assert repr(here) == repr(there) == "PosetReal(unit='W')"
        assert here != modellang.PosetReal("g", span=4)

    def test_node_types_with_equal_fields_differ(self):
        assert modellang.PosetReal("W", span=0) != modellang.EVar("W", span=0)
        assert modellang.ENum(1.0, span=0) != modellang.EVar(1.0, span=0)

    def test_document_eq_ignores_spans_and_lines(self):
        tight = parse_ok("poset w = R+[W]\nterm a\n")
        loose = parse_ok("# a comment\n\nposet w =   R+[W]\n\n\nterm a # the term\n")
        assert tight.lines.span(16) != loose.lines.span(16)
        assert tight.statements[1].span != loose.statements[1].span
        assert tight == loose
        assert tight != parse_ok("poset w = R+[W]\nterm b\n")

    def test_diagnostic_eq_reads_message_and_span(self):
        assert Diagnostic("boom", Span(3, 7)) == Diagnostic(span=Span(3, 7), message="boom")
        assert Diagnostic("boom", Span(3, 7)) != Diagnostic("boom", Span(3, 8))
        assert Diagnostic("boom", Span(3, 7)) != Diagnostic("bang", Span(3, 7))


class TestRoundTrip:
    def test_small_round_trip(self):
        doc = parse_ok(SMALL)
        text = render(doc)
        again = parse(text)
        assert again.ok
        assert again.document == doc

    def test_render_is_fixed_point(self):
        doc = parse_ok(SMALL)
        once = render(doc)
        twice = render(parse(once).document)
        assert once == twice

    def test_round_trip_covers_every_statement_kind(self):
        text = """\
model full "everything"
model untitled
poset m = chain {200, 1000}
poset w = R+[W]
dp c = constant R(r[g]) { 2.0 }
dp multi = constant F(f[W]) R(a[g], b[$]) { (1.0, 3.0), (2.0, 1.0) }
dp aff = affine F(f[g]) R(p[W], c[$]) gain (0.1, 0.2) offset (1.0, 2.0)
dp cat = catalogue F(f[W]) R(r[g]) { 1.0 -> 2.0 }
dp mp = map F(x[W], y[W]) R(z[W]) { z = max(x, 2.0 * y) + min(x, y) }
dp idp = identity R(v[h])
dp bot = bottom F(f[W]) R(r[g])
dp tp = top F(f[W]) R(r[g])
dp tol = uid(0.25 W)
dp pu = invplus_uniform(3, W)
dp pv = invplus_vdc(4)
dp tv = invtimes_vdc(8, 0.2, 150.0, km, km/h, h)
uncertain uc = pm(cat, 10 %)
uncertain iv = interval(bot, tp)
term series(cat, series(idp, idp))
"""
        # note: term above must type-check only at elaboration, parsing is
        # structural; round-trip happens on the parse tree
        doc = parse_ok(text)
        again = parse(render(doc))
        assert again.ok
        assert again.document == doc


class TestElaborate:
    def test_axis_names_flow_through(self):
        model = elaborate_ok(SMALL)
        assert [n for n, _ in model.query_axes()] == ["f", "grade"]
        assert model.rnames == ["cost"]

    def test_solves(self):
        model = elaborate_ok(SMALL)
        f = model.build_query({"f": 1.5, "grade": "high"})
        sol = solve_uncertain(model.term, model.uvaluation, f)
        assert sol.verdict == "feasible"
        assert sol.upper.front.points == {16.0}

    def test_build_query_by_index(self):
        model = elaborate_ok(SMALL)
        assert model.build_query({"1": 1.0, "2": "low"}) == (1.0, "low")
        with pytest.raises(DomainError, match="out of range"):
            model.build_query({"3": 1.0})
        with pytest.raises(DomainError, match="unknown axis"):
            model.build_query({"f": 1.0, "power": 1.0})
        with pytest.raises(DomainError, match="missing"):
            model.build_query({"f": 1.0})
        with pytest.raises(DomainError, match="twice"):
            model.build_query({"f": 1.0, "1": 2.0, "grade": "low"})

    def test_axis_index(self):
        model = elaborate_ok("dp a = identity R(x[W])\ndp b = identity R(x[W])\nterm par(a, b)\n")
        assert [model.axis_index(k) for k in ("1", 2, "2")] == [0, 1, 1]
        with pytest.raises(DomainError, match="ambiguous"):
            model.axis_index("x")
        with pytest.raises(DomainError, match="out of range"):
            model.axis_index(0)
        with pytest.raises(DomainError, match="unknown axis 'y'; axes are: x, x"):
            model.axis_index("y")

    def test_series_mismatch_reports_both_sides(self):
        text = (
            "dp a = identity R(x[W])\n"
            "dp b = identity R(y[g])\n"
            "term series(a, b)\n"
        )
        model, diags = load_model(text)
        assert model is None
        (d,) = diags
        assert "series mismatch" in d.message
        assert "R+[W]" in d.message and "R+[g]" in d.message
        # quotes the other port's location
        assert "3:13" in d.message
        assert d.span.line == 3

    def test_loop_needs_leftover_functionality(self):
        text = "dp a = identity R(x[W])\nterm loop(a)\n"
        model, diags = load_model(text)
        assert model is None
        assert any("loop mismatch" in d.message for d in diags)

    def test_unknown_atom_in_term(self):
        model, diags = load_model("dp a = identity R(x[W])\nterm series(a, ghost)\n")
        assert model is None
        assert any("ghost" in d.message for d in diags)

    def test_missing_term_statement(self):
        model, diags = load_model("dp a = identity R(x[W])\n")
        assert model is None
        assert any("missing term" in d.message for d in diags)

    def test_unused_dp_is_fine(self):
        model = elaborate_ok(
            "dp a = identity R(x[W])\ndp unused = identity R(y[g])\nterm a\n"
        )
        assert model.build_query({"x": 2.0}) == 2.0

    def test_map_rejects_unknown_variable(self):
        # only the first unknown name, left to right, is reported
        line = "dp m = map F(x[W]) R(y[W], w[W]) { y = x + z * q; w = v }"
        model, diags = load_model(line + "\nterm m\n")
        assert model is None
        assert [d.format("t.mcd") for d in diags] == [
            "t.mcd:1:%d: error: unknown functionality 'z' in map expression"
            % (line.index("z *") + 1)
        ]

    def test_map_zero_times_inf_is_zero(self):
        model = elaborate_ok("dp m = map F(x[W]) R(y[W]) { y = 0.0 * x }\nterm m\n")
        sol = solve_uncertain(model.term, model.uvaluation, math.inf)
        assert sol.upper.front.points == {0.0}

    def test_map_compiled_body(self):
        text = (
            "poset g = chain {200, 1000}\n"
            "dp m = map F(a[W], b[W], c:g) R(x[W], y[W], z[W], w:g, v[W]) {\n"
            "    x = max(a, b); y = min(a, b); z = a * b; w = c; v = 2.0 * a }\n"
            "term m\n"
        )
        fn = elaborate_ok(text).uvaluation["m"].lower.fn
        # 0 * inf is 0, either way round
        assert repr(fn((0.0, math.inf, 200))) == "(inf, 0.0, 0.0, 200, 0.0)"
        assert repr(fn((math.inf, 0.0, 200))) == "(inf, 0.0, 0.0, 200, inf)"
        # max and min keep their first argument on a tie; inputs pass
        # through unchanged, an int label as an int and -0.0 as -0.0
        assert repr(fn((200, 200.0, 1000))) == "(200, 200, 40000.0, 1000, 400.0)"
        assert repr(fn((200.0, 200, 200))) == "(200.0, 200.0, 40000.0, 200, 400.0)"
        assert repr(fn((-0.0, 0.0, 200))) == "(-0.0, -0.0, 0.0, 200, 0.0)"
        single = elaborate_ok(
            "poset g = chain {200, 1000}\ndp m = map F(c:g) R(w:g) { w = c }\nterm m\n"
        )
        assert repr(single.uvaluation["m"].lower.fn(200)) == "200"

    def test_chain_poset_numeric_labels(self):
        model = elaborate_ok(
            "poset m = chain {200, 1000}\ndp a = identity R(n:m)\nterm a\n"
        )
        assert model.build_query({"n": 200}) == 200
        with pytest.raises(DomainError):
            model.build_query({"n": 500})

    def test_word_inf_in_a_point_reads_as_its_axis(self):
        model = elaborate_ok(
            "poset lvl = chain {low, inf}\n"
            "dp a = catalogue F(x:lvl, e[W]) R(c:lvl, w[W]) {\n"
            "    (inf, inf) -> (inf, 1e999),\n"
            "    (low, 1.0) -> (low, inf)\n"
            "}\n"
            "dp k = affine F(f[W]) R(c[$]) gain 0 offset inf\n"
            "term a\n"
        )
        # the chain's label inf, and infinity on a real axis however written
        assert model.uvaluation["a"].lower.entries == [
            (("inf", math.inf), ("inf", math.inf)),
            (("low", 1.0), ("low", math.inf)),
        ]
        assert model.uvaluation["k"].lower.evaluate(1.0).points == {math.inf}

    def test_override_relaxation(self):
        model = elaborate_ok("dp s = invplus_vdc(2, W)\nterm s\n")
        coarse = solve_uncertain(model.term, model.uvaluation, 1.0)
        fine_val = model.override_relaxation("s", 8)
        fine = solve_uncertain(model.term, fine_val, 1.0)
        assert len(fine.upper.front.points) > len(coarse.upper.front.points)
        with pytest.raises(DomainError):
            model.override_relaxation("ghost", 4)

    def test_pm_requires_catalogue(self):
        text = "dp a = identity R(x[W])\nuncertain u = pm(a, 10 %)\nterm u\n"
        model, diags = load_model(text)
        assert model is None
        assert diags

    def test_interval_checks_order(self):
        text = (
            "dp hi = catalogue F(f[W]) R(r[g]) { 1.0 -> 9.0 }\n"
            "dp lo = catalogue F(f[W]) R(r[g]) { 1.0 -> 5.0 }\n"
            "uncertain u = interval(hi, lo)\n"
            "term u\n"
        )
        model, diags = load_model(text)
        assert model is None
        assert any("lower" in d.message or "upper" in d.message for d in diags)


# One model text per elaboration diagnostic: its id, the text, and every
# line load_model reports for it as "LINE:COL: error: MESSAGE".  Each
# declaration reports its first fault; a term reports one per faulty side.
ELABORATION_FAULTS = [
    ("unknown poset on an axis", "dp a = identity R(x:nope)\nterm a\n",
     ["1:19: error: unknown poset 'nope'"]),
    ("no product poset", "poset p = product(q, r)\ndp a = identity R(x[W])\nterm a\n",
     ["1:11: error: expected a poset expression (R+[...], chain)"]),
    ("model named twice", "model one\nmodel two\ndp a = identity R(x[W])\nterm a\n",
     ["2:1: error: model already named 'one'"]),
    ("missing term", "dp a = identity R(x[W])\n",
     ["1:1: error: missing term: a model must declare exactly one"]),
    ("two terms", "dp a = identity R(x[W])\nterm a\nterm a\n",
     ["3:1: error: more than one term statement"]),
    ("duplicate chain labels", "poset p = chain {a, a}\ndp x = identity R(v[W])\nterm x\n",
     ["1:11: error: duplicate labels in finite poset"]),
    ("point coordinate count", "dp c = constant R(a[g], b[$]) { 1.0 }\nterm c\n",
     ["1:33: error: resource point has 1 coordinates, space R+[g] x R+[$] has 2"]),
    ("label not in the chain",
     "poset lvl = chain {low, high}\ndp c = catalogue F(x:lvl) R(r[W]) { mid -> 1.0 }\nterm c\n",
     ["2:37: error: 'mid' is not an element of lvl"]),
    ("label on a real axis", "dp c = constant R(r[W]) { big }\nterm c\n",
     ["1:27: error: 'big' is not an element of R+[W]"]),
    ("both catalogue points bad", "dp c = catalogue F(f[W]) R(r[W]) { big -> small }\nterm c\n",
     ["1:36: error: 'big' is not an element of R+[W]"]),
    ("affine functionality", "dp a = affine F(f[W], g[W]) R(r[$]) gain 1 offset 0\nterm a\n",
     ["1:15: error: affine needs a single real functionality axis"]),
    ("affine resources",
     "poset lvl = chain {low}\ndp a = affine F(f[W]) R(r:lvl) gain 1 offset 0\nterm a\n",
     ["2:15: error: affine needs real resource axes"]),
    ("infinite gain", "dp a = affine F(f[W]) R(r[$]) gain inf offset 0\nterm a\n",
     ["1:36: error: gains must be finite and nonnegative"]),
    ("gain width", "dp a = affine F(f[W]) R(r[$], s[$]) gain (1, 2, 3) offset 0\nterm a\n",
     ["1:42: error: gain needs 2 values, got 3"]),
    ("gain label", "dp a = affine F(f[W]) R(r[$]) gain big offset 0\nterm a\n",
     ["1:36: error: gain values must be numbers"]),
    ("gain and offset both bad", "dp a = affine F(f[W]) R(r[$]) gain (1, 2) offset big\nterm a\n",
     ["1:36: error: gain needs 1 values, got 2"]),
    ("identity sides", "dp i = identity F(f[W]) R(r[g])\nterm i\n",
     ["1:17: error: identity must have equal sides, got R+[W] and R+[g]"]),
    ("map without F", "dp m = map R(y[W]) { y = 1.0 }\nterm m\n",
     ["1:12: error: map needs an explicit F(...) signature"]),
    ("map assigns a non-output", "dp m = map F(x[W]) R(y[W]) { z = x }\nterm m\n",
     ["1:30: error: map assigns 'z', which is not an output axis"]),
    ("map assigns twice", "dp m = map F(x[W]) R(y[W]) { y = x; y = 2.0 * x }\nterm m\n",
     ["1:37: error: output axis 'y' assigned twice"]),
    ("map leaves an output", "dp m = map F(x[W]) R(y[W], w[W], v[W]) { y = x }\nterm m\n",
     ["1:8: error: map leaves output axes unassigned: w, v"]),
    ("chain output reads another chain",
     "poset a = chain {1, 2}\nposet b = chain {3, 4}\ndp m = map F(x:a) R(y:b) { y = x }\nterm m\n",
     ["3:32: error: map output 'y' on b cannot read 'x' on a: a chain output takes a "
      "functionality on the same chain"]),
    ("real output reads a word chain",
     "poset lvl = chain {low, high}\ndp m = map F(x:lvl) R(y[W]) { y = 2.0 * x }\nterm m\n",
     ["2:41: error: map output 'y' is real, but 'x' is on chain lvl, whose labels are not "
      "numbers increasing upward"]),
    ("chain output computed",
     "poset a = chain {1, 2}\ndp m = map F(x:a) R(y:a) { y = max(x, 1.0) }\nterm m\n",
     ["2:32: error: map output 'y' on a must be a functionality on the same chain, not a "
      "computed value"]),
    ("sample count", "dp s = invplus_vdc(0)\nterm s\n",
     ["1:8: error: sample count must be a positive integer"]),
    ("pm of a builtin", "dp s = uid(0.25 W)\nuncertain u = pm(s, 10 %)\nterm u\n",
     ["2:15: error: pm needs a plain catalogue, 's' is not one"]),
    ("pm of a non-catalogue", "dp a = identity R(x[W])\nuncertain u = pm(a, 10 %)\nterm u\n",
     ["2:15: error: pm needs a plain catalogue, 'a' is not one"]),
    ("pm spread",
     "dp c = catalogue F(f[W]) R(r[g]) { 1.0 -> 2.0 }\nuncertain u = pm(c, 100 %)\nterm u\n",
     ["2:15: error: spread must satisfy 0 <= p < 100"]),
    ("pm of chain resources",
     "poset lvl = chain {low, high}\ndp c = catalogue F(f[W]) R(r:lvl) { 1.0 -> low }\n"
     "uncertain u = pm(c, 10 %)\nterm u\n",
     ["3:15: error: catalogue resources must be real chains to scale"]),
    ("interval of a builtin",
     "dp s = uid(0.25 W)\ndp a = identity R(x[W])\nuncertain u = interval(a, s)\nterm u\n",
     ["3:15: error: interval needs plain design problems, 's' is not one"]),
    ("interval interfaces",
     "dp a = identity R(x[W])\ndp b = identity R(x[g])\nuncertain u = interval(a, b)\nterm u\n",
     ["3:15: error: uncertain bounds have different interfaces: IdentityDP: R+[W] -> R+[W] "
      "vs IdentityDP: R+[g] -> R+[g]"]),
    ("interval order",
     "dp hi = catalogue F(f[W]) R(r[g]) { 1.0 -> 9.0 }\n"
     "dp lo = catalogue F(f[W]) R(r[g]) { 1.0 -> 5.0 }\nuncertain u = interval(hi, lo)\nterm u\n",
     ["3:15: error: not a valid uncertain DP: lower bound exceeds upper at f=0.0"]),
    ("unknown atom", "term ghost\n",
     ["1:6: error: no design problem named 'ghost'"]),
    ("series mismatch", "dp a = identity R(x[W])\ndp b = identity R(y[g])\nterm series(a, b)\n",
     ["3:16: error: series mismatch: left side (3:13) produces R+[W] but right side consumes "
      "R+[g]"]),
    ("loop mismatch", "dp a = identity R(x[W])\nterm loop(a)\n",
     ["2:6: error: loop mismatch: body functionality R+[W] must end with its resources R+[W] "
      "(body at 2:11)"]),
    ("two bad declarations",
     "dp i = identity F(f[W]) R(r[g])\ndp m = map R(y[W]) { y = 1.0 }\nterm i\n",
     ["1:17: error: identity must have equal sides, got R+[W] and R+[g]",
      "2:12: error: map needs an explicit F(...) signature"]),
    ("a fault on each side of series", "term series(ghost, spook)\n",
     ["1:13: error: no design problem named 'ghost'",
      "1:20: error: no design problem named 'spook'"]),
    ("a fault on each side of par",
     "dp a = identity R(x[W])\ndp b = identity R(y[g])\nterm par(series(a, b), loop(ghost))\n",
     ["3:20: error: series mismatch: left side (3:17) produces R+[W] but right side consumes "
      "R+[g]",
      "3:29: error: no design problem named 'ghost'"]),
    ("a bad declaration hides the term", "dp i = identity F(f[W]) R(r[g])\nterm ghost\n",
     ["1:17: error: identity must have equal sides, got R+[W] and R+[g]"]),
    ("a bad declaration and no term", "dp i = identity F(f[W]) R(r[g])\n",
     ["1:17: error: identity must have equal sides, got R+[W] and R+[g]",
      "1:1: error: missing term: a model must declare exactly one"]),
    ("a failed poset leaves its name unknown",
     "poset p = chain {a, a}\ndp x = identity R(v:p)\nterm x\n",
     ["1:11: error: duplicate labels in finite poset", "2:19: error: unknown poset 'p'"]),
    ("a failed dp leaves its name unknown",
     "dp c = constant R(r[W]) { big }\nuncertain u = pm(c, 10 %)\nterm u\n",
     ["1:27: error: 'big' is not an element of R+[W]",
      "2:15: error: pm needs a plain catalogue, 'c' is not one"]),
]


@pytest.mark.parametrize(
    "text, lines", [case[1:] for case in ELABORATION_FAULTS], ids=[c[0] for c in ELABORATION_FAULTS]
)
def test_elaboration_diagnostics(text, lines):
    model, diags = load_model(text)
    assert model is None
    assert [d.format("t.mcd") for d in diags] == ["t.mcd:" + line for line in lines]


_NONNEG = st.one_of(
    st.just(0.0), st.floats(min_value=0, max_value=1e6, allow_nan=False)
)
_QUERIES = st.one_of(
    st.sampled_from([0.0, -0.0, 0, 1, 7, math.inf]),
    st.floats(min_value=0, allow_nan=False),
)


class TestAffineIsMap:
    """affine F(f) ... gain g offset o evaluates exactly as the map
    r_i = o_i + g_i * f, 0 * inf = 0 included."""

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(
        st.integers(min_value=1, max_value=3).flatmap(
            lambda w: st.tuples(st.lists(_NONNEG, min_size=w, max_size=w),
                                st.lists(_NONNEG, min_size=w, max_size=w))
        ),
        st.lists(_QUERIES, min_size=1, max_size=4),
    )
    @example(([0.0], [5.0]), [math.inf])
    def test_same_fronts(self, gains_offsets, queries):
        gains, offsets = gains_offsets
        names = ["r%d" % i for i in range(len(gains))]
        sig = "F(f[W]) R(%s)" % ", ".join("%s[$]" % n for n in names)
        affine = elaborate_ok("dp a = affine %s gain (%s) offset (%s)\nterm a\n" % (
            sig, ", ".join(map(repr, gains)), ", ".join(map(repr, offsets))
        ))
        mapped = elaborate_ok("dp a = map %s { %s }\nterm a\n" % (sig, "; ".join(
            "%s = %r + %r * f" % t for t in zip(names, offsets, gains)
        )))
        for f in queries:
            got = affine.uvaluation["a"].lower.evaluate(f)
            assert repr(got) == repr(mapped.uvaluation["a"].lower.evaluate(f))


class TestBuiltinSpellings:
    """Every spelling of a builtin, pinned: the text it renders to (None
    when it does not parse) and the first diagnostic of loading it, as
    column and message (None when it loads)."""

    SAMPLE = "sample count must be a positive integer"

    CASES = [
        ("uid(0.25 W)", "uid(0.25 W)", None),
        ("uid(2)", "uid(2.0)", None),
        ("uid(0.25, W)", None, (16, "expected ')', found ','")),
        ("invplus_uniform(3, W)", "invplus_uniform(3, W)", None),
        ("invplus_vdc(4)", "invplus_vdc(4)", None),
        ("invplus_vdc(4 W)", None, (22, "expected ')', found 'W'")),
        ("invplus_vdc(2.5)", "invplus_vdc(2.5)", (8, SAMPLE)),
        ("invplus_vdc(0)", "invplus_vdc(0)", (8, SAMPLE)),
        (
            "invtimes_vdc(8, 0.2, 150.0, km, km/h, h)",
            "invtimes_vdc(8, 0.2, 150.0, km, km/h, h)",
            None,
        ),
        ("invtimes_vdc(8, 0.2, 150)", "invtimes_vdc(8, 0.2, 150.0)", None),
        ("invtimes_vdc(8, 0.2, 150, km)", None, (36, "expected ',', found ')'")),
    ]

    @pytest.mark.parametrize("spelling, rendered, diagnostic", CASES)
    def test_spelling(self, spelling, rendered, diagnostic):
        text = "dp a = %s\nterm a\n" % spelling
        result = parse(text)
        assert result.ok == (rendered is not None)
        if result.ok:
            assert render(result.document) == "dp a = %s\nterm a\n" % rendered
            assert parse(render(result.document)).document == result.document
        model, diags = load_model(text)
        if diagnostic is None:
            assert model is not None and diags == []
        else:
            assert model is None
            assert (diags[0].span.line, diags[0].span.col, diags[0].message) == (1, *diagnostic)

    @pytest.mark.parametrize("text", [
        "dp a = uid(1e999 W)\nterm a\n",
        "dp a = map F(f[W]) R(r[W]) { r = 1e999 * f }\nterm a\n",
        "poset p = chain {1, 1e999}\ndp a = identity R(x:p)\nterm a\n",
        "dp a = catalogue F(x[W]) R(c[W]) {\n    inf -> 1e999\n}\nterm a\n",
    ])
    def test_infinite_number_renders_as_a_number(self, text):
        # the number prints as 1e999; a point keeps the word inf as written
        doc = parse(text).document
        assert render(doc) == text
        assert parse(render(doc)).document == doc

    def test_infinite_sample_count_is_a_diagnostic(self):
        text = "dp a = invplus_uniform(1e999)\nterm a\n"
        model, diags = load_model(text)
        assert model is None
        assert [d.format("m.mcd") for d in diags] == ["m.mcd:1:8: error: " + self.SAMPLE]
        # render does not raise on it
        assert render(parse(text).document).startswith("dp a = invplus_uniform(")


class TestBuiltinTable:
    def test_names_reserved_and_documented(self):
        grammar = modellang.__doc__
        rule = grammar[grammar.index("builtin    ="):]
        rule = rule[: rule.index(";")]
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme[readme.index("## Model language"):]
        block = block[: block.index("```", block.index("```") + 3)]
        for name in _BUILTINS:
            assert name in RESERVED
            assert '"%s" "("' % name in rule
            assert "dp NAME = %s(" % name in block


# text before, the opener of one nesting level, the innermost operand, text after
NESTED = {
    "expression": ("dp m = map F(a[W]) R(y[W]) { y = ", "a + a * (", "a", " }\nterm m\n"),
    "term": ("dp i = identity R(x[W])\nterm ", "series(i, ", "i", "\n"),
}
# where the opener of level 201 starts
TOO_DEEP_AT = {"expression": "1:1842", "term": "2:2006"}


def nested(kind, levels):
    before, opener, inner, after = NESTED[kind]
    return before + opener * levels + inner + ")" * levels + after


class TestNesting:
    @pytest.mark.parametrize("kind", NESTED)
    def test_loads_at_the_bound(self, kind):
        model, diags = load_model(nested(kind, modellang.MAX_NESTING))
        assert diags == []
        assert model is not None

    @pytest.mark.parametrize("kind", NESTED)
    @pytest.mark.parametrize("levels", [modellang.MAX_NESTING - 1, modellang.MAX_NESTING])
    def test_loads_from_a_deep_stack(self, kind, levels):
        # the parser keeps its own stack, so a caller 400 frames deep has
        # room under the default limit of 1000 for the elaborator's
        # recursion of one or two frames a level
        def load_at_depth(frames):
            return load_model(nested(kind, levels)) if frames == 0 else load_at_depth(frames - 1)

        assert sys.getrecursionlimit() == 1000
        model, diags = load_at_depth(400)
        assert diags == []
        assert model is not None

    @pytest.mark.parametrize("kind", NESTED)
    @pytest.mark.parametrize("levels", [modellang.MAX_NESTING + 1, 1000])
    def test_deeper_is_a_diagnostic(self, kind, levels):
        model, diags = load_model(nested(kind, levels))
        assert model is None
        assert [d.format("t.mcd") for d in diags] == [
            "t.mcd:%s: error: nested deeper than 200 levels" % TOO_DEEP_AT[kind]
        ]

    @pytest.mark.parametrize("kind", NESTED)
    @pytest.mark.parametrize("command", [["check"], ["solve", "--f", "1=1"]])
    def test_cli(self, kind, command, tmp_path, capsys):
        path = tmp_path / "deep.mcd"
        args = command[:1] + [str(path)] + command[1:]
        path.write_text(nested(kind, modellang.MAX_NESTING))
        assert cli.main(args) == cli.EXIT_OK
        path.write_text(nested(kind, modellang.MAX_NESTING + 1))
        capsys.readouterr()
        assert cli.main(args) == cli.EXIT_ERROR
        assert capsys.readouterr().err == (
            "%s:%s: error: nested deeper than 200 levels\n" % (path, TOO_DEEP_AT[kind])
        )


def flat_sum(operands):
    return "dp m = map F(a[W]) R(y[W]) { y = %s }\nterm m\n" % " + ".join(["a"] * operands)


# a chain's first operator opens no level and each further one opens the
# next, so MAX_NESTING + 2 operands reach level 200; the operator after
# them opens level 201 at column 840
LONGEST_SUM = modellang.MAX_NESTING + 2
SUM_TOO_DEEP = "nested deeper than 200 levels"


class TestFlatChains:
    @pytest.mark.parametrize("operands", [200, 201, LONGEST_SUM])
    def test_loads_and_renders_up_to_the_bound(self, operands):
        text = flat_sum(operands)
        model, diags = load_model(text)
        assert diags == [] and model is not None
        assert render(parse_ok(text)) == text

    @pytest.mark.parametrize("operands", [LONGEST_SUM + 1, 1000, 2000, 5000])
    def test_longer_is_a_diagnostic_at_the_operator(self, operands):
        text = flat_sum(operands)
        model, diags = load_model(text)
        assert model is None
        assert [d.format("t.mcd") for d in diags] == ["t.mcd:1:840: error: " + SUM_TOO_DEEP]
        assert text[839] == "+"  # column 840 of line 1
        # the statement is dropped, so what is left renders
        assert render(parse(text).document) == "term m\n"

    @pytest.mark.parametrize("operands", [LONGEST_SUM, LONGEST_SUM + 1, 2000])
    def test_cli_check(self, operands, tmp_path, capsys):
        path = tmp_path / "sum.mcd"
        path.write_text(flat_sum(operands))
        code = cli.main(["check", str(path)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if operands == LONGEST_SUM:
            assert code == cli.EXIT_OK
        else:
            assert code == cli.EXIT_ERROR
            assert err == "%s:1:840: error: %s\n" % (path, SUM_TOO_DEEP)


# --- catalogue rows read in one pass -------------------------------------------

# the token regex with its rows alternative never matching: the token path alone
TOKEN_PATH_RE = re.compile(modellang._TOKEN_RE.pattern.replace(modellang._RUN, "(?!)"))

_ROW_SCALARS = ["1", "2", ".5", "1.", "1e3", "2E-2", "1e999", "10.0", "low", "high", "inf", "x_1",
                "Wh/$", "a^b", "dp", "term", "\u0663"]
# what may stand between two tokens: nothing, blanks, line ends (so the next
# token is at column 1) and comments that hold row-like text
_ROW_GAPS = ["", "", " ", "\n", "\n    ", "\t", "\r\n", " # c (1, 2) -> 3, }\n", "#\n  ",
             "# a # b # c\n"]
_ROW_FAULTS = ["none", "none", "trailing comma", "double comma", "no arrow", "bad character",
               "dp at column 1", "no comma", "no close"]
_GRADE = "poset g = chain {low, high, 2, inf, dp, term, x_1, Wh/$, 1, 10, 1000, 0.5}\n"
# what opens the rows: catalogues of each width, and the other braces
_ROW_HEADS = [
    "dp c = catalogue F(f[W]) R(r[g]) {",
    "dp c = catalogue F(f[W], k:g) R(r[g], s:g) {",
    "dp c = catalogue F(f[W], k:g, h[W]) R(r[g]) {",
    "dp c = catalogue F(k:g) R(r[g]) {",
    "dp c = catalogue F(f[W]) R(r) {",
    "dp c = constant R(r[g]) {",
    "dp c = map F(f[W]) R(r[g]) {",
    "poset q = chain {",
]
_BATTERY = examples.uav_model_text(10)
_BATTERY_START = _BATTERY.index("{", _BATTERY.index("dp battery"))
_BATTERY_END = _BATTERY.index("}", _BATTERY_START) + 1


@st.composite
def row_texts(draw):
    """A model whose brace holds rows, some of them faulty, or a prefix
    of the drone model cut inside its battery catalogue."""
    if draw(st.integers(0, 5)) == 0:
        cut = draw(st.integers(_BATTERY_START - 40, _BATTERY_END))
        return _BATTERY[:cut] + draw(st.sampled_from(["", "\n}\nterm battery\n", "}"]))
    point = st.lists(st.sampled_from(_ROW_SCALARS), min_size=1, max_size=3)
    toks = []
    for f, r in draw(st.lists(st.tuples(point, point), max_size=6)):
        for values in (f, r):
            bare = len(values) == 1 and draw(st.booleans())
            toks += values if bare else ["("] + sum(([v, ","] for v in values), [])[:-1] + [")"]
            toks.append("->")
        toks[-1] = ","
    if toks:
        toks.pop()  # the comma after the last row
    fault = draw(st.sampled_from(_ROW_FAULTS))
    at = draw(st.integers(0, len(toks)))
    if fault == "trailing comma":
        toks.append(",")
    elif fault == "double comma":
        toks.insert(at, ",")
        toks.insert(at, ",")
    elif fault == "no arrow" and "->" in toks:
        toks.remove("->")
    elif fault == "bad character":
        toks.insert(at, "@")
    elif fault == "dp at column 1":
        toks[at:at] = ["\ndp"]
    elif fault == "no comma" and "," in toks:
        commas = [i for i, t in enumerate(toks) if t == ","]
        del toks[commas[at % len(commas)]]
    gaps = draw(st.lists(st.sampled_from(_ROW_GAPS), min_size=len(toks) + 1,
                         max_size=len(toks) + 1))
    body = gaps[0] + "".join(t + g for t, g in zip(toks, gaps[1:]))
    close = "" if fault == "no close" else "}"
    tail = draw(st.sampled_from(["term c\n", "dp d = identity R(x[W])\nterm c\n"]))
    return _GRADE + draw(st.sampled_from(_ROW_HEADS)) + body + close + "\n" + tail


def _points(document) -> list:
    points = []
    for st_ in document.statements:
        body = getattr(st_, "body", None)
        if isinstance(body, modellang.KConstant):
            points += body.points
        elif isinstance(body, modellang.KAffine):
            points += [body.gain, body.offset]
        elif isinstance(body, modellang.KCatalogue):
            points += [p for row in body.entries for p in row]
    return points


def _read(text) -> tuple:
    """Everything the front end makes of text: the rendered document, each
    diagnostic, each point's values and span, and each catalogue's rows."""
    result = parse(text)
    model, diags = load_model(text)
    catalogues = None
    if model is not None:
        catalogues = {name: repr((udp.lower.entries, udp.upper.entries))
                      for name, udp in model.uvaluation.items()
                      if isinstance(udp.lower, Catalogue)}
    return (render(result.document),
            [(d.span.line, d.span.col, d.message) for d in result.diagnostics],
            [(repr(p.values), p.span) for p in _points(result.document)],
            [(d.span.line, d.span.col, d.message) for d in diags],
            catalogues)


def test_rows_token_reads_only_well_formed_rows():
    toks = tokenize(_BATTERY, [])
    assert [t for t in toks if t[0] == "rows"] == [("rows", "{", _BATTERY_START)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modellang, "_TOKEN_RE", TOKEN_PATH_RE)
        assert all(t[0] != "rows" for t in tokenize(_BATTERY, []))
    # after constant it is split back into its tokens
    result = parse("dp a = constant R(r[g]) { 1 -> 2 }\nterm a\n")
    assert [d.format("m.mcd") for d in result.diagnostics] == [
        "m.mcd:1:29: error: expected '}', found '->'"]


def test_a_failing_row_after_a_long_comment_backtracks_in_linear_time():
    text = "dp c = catalogue F(f[W]) R(r[g]) {\n  1 -> 2, %s\n  3 -> 4 5 -> 6 @\n}\nterm c\n" % (
        "# " * 400)
    assert _read(text)[1] == [(3, 17, "unexpected character '@'"),
                              (3, 10, "expected '}', found '5'")]


@pytest.mark.parametrize("after", ["", " ", "(", "x", "1", ".5", "/", ",", "#c\n", "}", "@", "->"])
def test_a_run_ends_where_the_token_path_reads_on(after):
    # each scalar ends a row, with what may follow it glued on
    for scalar in _ROW_SCALARS:
        for point in (scalar, "(%s)" % scalar):
            text = _GRADE + "dp c = catalogue F(f[W]) R(r[g]) {\n 1 -> %s%s(2) -> 3 }\nterm c\n" % (
                point, after)
            fast = _read(text)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(modellang, "_TOKEN_RE", TOKEN_PATH_RE)
                assert _read(text) == fast, text


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(row_texts())
@example(_BATTERY)
@example(_GRADE + "dp c = catalogue F(f[W]) R(r[g]) { 1 -> Wh/$(2, 3) -> 4 }\nterm c\n")
@example(_GRADE + "dp c = catalogue R(r[g]) {\ndp -> 1,\n1 -> 2 }\nterm c\n")
@example(_GRADE + "dp c = catalogue F(f[W]) R(r[g] {\n 1 -> 2,\ndp d = identity R(x[W])\nterm c\n")
@example(_GRADE + "dp c = catalogue F(f[W]) R(r) {\n1 -> 2,\ndp -> 3,\nterm -> 4 }\nterm c\n")
def test_rows_read_in_one_pass_equal_the_token_path(text):
    fast = _read(text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modellang, "_TOKEN_RE", TOKEN_PATH_RE)
        assert _read(text) == fast
