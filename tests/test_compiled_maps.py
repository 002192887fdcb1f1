"""Maps of a model are compiled into one function each and typed when the
model is elaborated: a map that could give a non-member is a load
diagnostic, and a map that loads gives members without being checked."""

import math
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from mcdsolve import cli, modellang
from mcdsolve.examples import load_example
from mcdsolve.modellang import load_model
from mcdsolve.posets import Poset
from mcdsolve.uncertainty import solve_uncertain

LEVELS = "poset lvl = chain {low, high}\n"


def diagnostics(text):
    model, diags = load_model(text)
    assert model is None
    return [d.format("t.mcd") for d in diags]


class TestTyping:
    def test_real_output_cannot_read_a_chain_of_words(self):
        line = "dp m = map F(x:lvl) R(y[W]) { y = x + 1.0 }"
        assert diagnostics(LEVELS + line + "\nterm m\n") == [
            "t.mcd:2:%d: error: map output 'y' is real, but 'x' is on chain lvl, "
            "whose labels are not numbers increasing upward" % (line.index("x +") + 1)
        ]

    def test_chain_output_cannot_read_a_real_axis(self):
        line = "dp m = map F(x[W]) R(y:lvl) { y = x }"
        assert diagnostics(LEVELS + line + "\nterm m\n") == [
            "t.mcd:2:%d: error: map output 'y' on lvl cannot read 'x' on R+[W]: "
            "a chain output takes a functionality on the same chain"
            % (line.index("x }") + 1)
        ]

    def test_chain_output_cannot_be_computed(self):
        line = "dp m = map F(x:lvl) R(y:lvl) { y = max(x, x) }"
        assert diagnostics(LEVELS + line + "\nterm m\n") == [
            "t.mcd:2:%d: error: map output 'y' on lvl must be a functionality on "
            "the same chain, not a computed value" % (line.index("max") + 1)
        ]

    def test_numeric_chain_must_increase_upward(self):
        # read as numbers, 1000 below 200 would make the map not monotone
        text = "poset n = chain {1000, 200}\ndp m = map F(x:n) R(y[W]) { y = x }\nterm m\n"
        assert diagnostics(text) == [
            "t.mcd:2:33: error: map output 'y' is real, but 'x' is on chain n, "
            "whose labels are not numbers increasing upward"
        ]

    def test_numeric_chain_reads_as_its_numbers(self):
        model, _ = load_model(
            "poset n = chain {0, 200, 1e999}\n"
            "dp m = map F(x:n, w[W]) R(y[W]) { y = 2 * x + w }\nterm m\n"
        )
        fn = model.uvaluation["m"].lower.fn
        assert [fn((v, 1)) for v in (0, 200, math.inf)] == [1, 401.0, math.inf]

    def test_affine_needs_real_outputs(self):
        text = LEVELS + "dp a = affine F(f[W]) R(c:lvl) gain 1 offset 0\nterm a\n"
        assert diagnostics(text) == ["t.mcd:2:15: error: affine needs real resource axes"]

    def test_too_deep_to_compile_is_a_diagnostic(self):
        # the longest product the parser takes nests one _times( call per
        # operator, one past the parentheses Python compiles
        body = " * ".join(["a"] * (modellang.MAX_NESTING + 2))
        text = "dp m = map F(a[W]) R(y[W]) {\n    y = %s }\nterm m\n" % body
        assert diagnostics(text) == [
            "t.mcd:1:8: error: map expressions nest too deeply to compile"
        ]

    @pytest.mark.parametrize("text, command", [
        (LEVELS + "dp m = map F(x:lvl) R(y[W]) { y = x + 1.0 }\nterm m\n",
         ["solve", "--f", "x=low"]),
        (LEVELS + "dp m = map F(x[W]) R(y:lvl) { y = x }\nterm m\n", ["check"]),
    ])
    def test_cli_reports_at_load(self, text, command, tmp_path, capsys):
        path = tmp_path / "m.mcd"
        path.write_text(text)
        assert cli.main(command[:1] + [str(path)] + command[1:]) == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert "m.mcd:2:" in err and "map output 'y'" in err
        assert "Traceback" not in err


# --- the compiled function against a tree-walking reference -----------------

CHAIN = (0, 3, 7.5, math.inf)  # chain n = {0, 3, 7.5, 1e999}
INPUTS = st.one_of(
    st.sampled_from([0, 0.0, -0.0, 1, 7, 200, 0.1, 1e16, math.inf]),
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=0, allow_nan=False, allow_infinity=False),
)
CONSTANTS = st.one_of(
    st.sampled_from(["0", "0.0", "1", "2.5", "1e999"]),
    st.floats(min_value=0, allow_nan=False, allow_infinity=False).map(repr),
)


def expressions(n_axes):
    """Trees ("num", text) | ("var", i) | (op, left, right) over axes a0.."""
    leaves = st.one_of(
        CONSTANTS.map(lambda text: ("num", text)),
        st.integers(0, n_axes - 1).map(lambda i: ("var", i)),
    )
    return st.recursive(
        leaves,
        lambda sub: st.tuples(st.sampled_from(["+", "*", "max", "min"]), sub, sub),
        max_leaves=12,
    )


def text_of(e):
    if e[0] == "num":
        return e[1]
    if e[0] == "var":
        return "a%d" % e[1]
    if e[0] in ("max", "min"):
        return "%s(%s, %s)" % (e[0], text_of(e[1]), text_of(e[2]))
    return "(%s %s %s)" % (text_of(e[1]), e[0], text_of(e[2]))


def reference(e, x):
    if e[0] == "num":
        return float(e[1])
    if e[0] == "var":
        return x[e[1]]
    u, v = reference(e[1], x), reference(e[2], x)
    if e[0] == "+":
        return u + v
    if e[0] == "*":
        return 0.0 if u == 0 or v == 0 else u * v
    return max(u, v) if e[0] == "max" else min(u, v)


@st.composite
def cases(draw):
    n_real = draw(st.integers(1, 3))
    with_chain = draw(st.booleans())
    n_axes = n_real + with_chain
    outputs = draw(st.lists(expressions(n_axes), min_size=1, max_size=3))
    points = draw(st.lists(
        st.tuples(*[INPUTS] * n_real, *[st.sampled_from(CHAIN)] * with_chain),
        min_size=1, max_size=4,
    ))
    return n_real, with_chain, outputs, points


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(cases())
@example((1, False, [("*", ("num", "0"), ("var", 0))], [(math.inf,)]))
@example((2, False, [("max", ("var", 0), ("var", 1)), ("min", ("var", 1), ("var", 0))],
          [(-0.0, 0), (0, -0.0), (200, 200.0)]))
@example((3, False, [("+", ("var", 0), ("+", ("var", 1), ("var", 2)))], [(1e16, 1.0, 1.0)]))
def test_compiled_map_matches_the_reference(case):
    n_real, with_chain, outputs, points = case
    axes = ["a%d[W]" % i for i in range(n_real)] + ["a%d:n" % n_real] * with_chain
    names = ["y%d" % j for j in range(len(outputs))]
    model, diags = load_model(
        "poset n = chain {0, 3, 7.5, 1e999}\n"
        "dp m = map F(%s) R(%s) { %s }\nterm m\n" % (
            ", ".join(axes),
            ", ".join("%s[$]" % n for n in names),
            "; ".join("%s = %s" % (n, text_of(e)) for n, e in zip(names, outputs)),
        )
    )
    assert model is not None, diags
    m = model.uvaluation["m"].lower
    for x in points:
        got = m.fn(x if len(x) > 1 else x[0])
        want = [reference(e, x) for e in outputs]
        assert repr(got) == repr(want[0] if len(want) == 1 else tuple(want))
        m.ressp.check_member(got)


# --- no model text in the generated function --------------------------------

CLASH = """\
dp m = map F(x[W], c[W], _times[W], lambda[W], __import__[W])
           R(c[W], x[W], lambda[W], __builtins__[W]) {
    c = x + c * 2.0; x = max(_times, lambda); lambda = min(__import__, x);
    __builtins__ = 0 * __import__ }
term m
"""
ALLOWED = re.compile(r"x\[\d+\]|c\[\d+\]|_times\(|max\(|min\(|[(), +]")


def test_generated_source_holds_no_model_names(monkeypatch):
    sources = []

    def spy(source, scope):
        sources.append(source)
        return eval(source, scope)

    monkeypatch.setattr(modellang, "eval", spy, raising=False)
    model, diags = load_model(CLASH)
    assert model is not None, diags
    (source,) = sources
    assert source.startswith("lambda x: ")
    assert ALLOWED.sub("", source[len("lambda x: "):]) == ""
    assert "__" not in source and "lambda" not in source[len("lambda"):]
    sol = solve_uncertain(model.term, model.uvaluation, (1.0, 2.0, 3.0, 4.0, math.inf))
    # c = x + 2c, x = max(_times, lambda), lambda = min(__import__, x), 0 * inf = 0
    assert sol.upper.front.points == {(5.0, 4.0, 1.0, 0.0)}
    assert sol.lower.front.points == sol.upper.front.points


# --- membership is not checked per map evaluation ---------------------------

MAPS = ("requirements", "perception", "loading", "actuation", "power_budget",
        "capacity", "assembly")


def test_uav_solve_checks_no_map_output(monkeypatch):
    # every output of a compiled map is one call of its point function,
    # whether its own _eval makes it or a fan-out's push
    model = load_example("uav")
    inside, evals, checks = [False], [0], [0]
    check_member = Poset.check_member

    def counted(point):
        def wrapper(f):
            evals[0] += 1
            inside[0] = True
            try:
                return point(f)
            finally:
                inside[0] = False
        return wrapper

    def counted_check(self, x):
        checks[0] += inside[0]
        return check_member(self, x)

    for name in MAPS:
        m = model.uvaluation[name].lower  # a plain atom is both sides
        monkeypatch.setattr(m, "point", counted(m.point))
    monkeypatch.setattr(Poset, "check_member", counted_check)
    query = model.build_query(
        {"endurance": 1.0, "distance": 20.0, "payload": 300.0, "missions": 200}
    )
    sol = solve_uncertain(model.term, model.uvaluation, query)
    assert sol.verdict == "feasible"
    assert evals[0] > 200  # 375 outputs
    assert checks[0] == 0  # one per evaluation when each output was checked
