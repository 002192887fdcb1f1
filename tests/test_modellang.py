import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from mcdsolve import modellang
from mcdsolve.errors import DomainError
from mcdsolve.modellang import (
    _BUILTINS,
    RESERVED,
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
        assert [t.text for t in toks if t.kind != "eof"] == ["term", "a"]

    def test_spans_are_one_based(self):
        toks = tokenize("dp x = identity R(v[W])", [])
        assert toks[0].span.line == 1
        assert toks[0].span.col == 1
        assert toks[1].text == "x"
        assert toks[1].span.col == 4

    def test_unit_words(self):
        toks = tokenize("poset v = R+[km/h]", [])
        assert any(t.text == "km/h" for t in toks)
        toks = tokenize("x Wh/$ y", [])
        assert [t.text for t in toks if t.kind == "word"] == ["x", "Wh/$", "y"]

    def test_bad_character_reported(self):
        diags = []
        tokenize("dp a = ?", diags)
        assert [d.format("m.mcd") for d in diags] == ["m.mcd:1:8: error: unexpected character '?'"]


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
poset m = chain {200, 1000}
poset pp = product(m, m)
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
    ])
    def test_infinite_number_renders_as_a_number(self, text):
        # only points read the word inf, so elsewhere inf prints as 1e999
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
