"""Maps of a model are compiled into one function each and typed when the
model is elaborated: a map that could give a non-member is a load
diagnostic, and a map that loads gives members without being checked.
A fan-out pushes its whole middle front, in one call, through one function
compiled from the bodies of its maps, which answers as their composition
does at each point."""

import ast
import math
import re
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from map_reference import expressions, reference, text_of

import mcdsolve
from mcdsolve import cli, dp, modellang, posets
from mcdsolve.dp import LoopDP, MonotoneMap, ParDP, SeriesDP, evaluate_term, par, series
from mcdsolve.examples import EXAMPLE_NAMES, load_example
from mcdsolve.modellang import load_model
from mcdsolve.posets import Poset, ProductPoset, RealPlus, product
from mcdsolve.uncertainty import evaluate_uncertain, solve_uncertain

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


@pytest.mark.parametrize("op", ["*", "+"])
def test_longest_product_and_sum_load_and_answer_as_the_reference(op):
    # the parser takes MAX_NESTING + 2 operands, grouped to the left; the
    # map's function is one line per operation, so no text nests
    operands = modellang.MAX_NESTING + 2
    model, diags = load_model("dp m = map F(a[W]) R(y[W]) {\n    y = %s }\nterm m\n"
                              % (" %s " % op).join(["a"] * operands))
    assert diags == [] and model is not None
    tree = ("var", 0)
    for _ in range(operands - 1):
        tree = (op, tree, ("var", 0))
    m = model.uvaluation["m"].lower
    for a in (0, 2.0, math.inf):
        assert repr(m.evaluate(a).points) == repr(frozenset((reference(tree, (a,)),)))


# --- no model text in the generated function --------------------------------

CLASH = """\
dp m = map F(x[W], c[W], v0[W], lambda[W], __import__[W])
           R(c[W], x[W], lambda[W], __builtins__[W]) {
    c = x + c * 2.0; x = max(v0, lambda); lambda = min(__import__, x);
    __builtins__ = 0 * __import__ }
term m
"""
# a fan-out whose push fuses a map, a par of a map and an identity, and a map
CLASH_FAN = """\
dp s = invplus_vdc(4, W)
dp m = map F(x[W], c[W]) R(c[W], lambda[W]) { c = x + c * 2.0; lambda = max(x, c) }
dp n = map F(c[W]) R(v0[W]) { v0 = 3.0 * c }
dp i = identity R(lambda[W])
dp k = map F(v0[W], __import__[W]) R(__builtins__[W]) {
    __builtins__ = min(v0, __import__) + 1.0 }
term series(s, series(m, series(par(n, i), k)))
"""
# each line's expression: locals, the input and its parts, constants, the
# guard of *, max and min
ALLOWED = re.compile(r"0\.0 if | == 0 (?:or|else) |(?:x|v\d+)(?:\[:?\d+:?\])?|c\[\d+\]|max\(|min\("
                     r"|[(), +*]")
MAP_HEAD = "def make(c):\n    def point(x):\n"
MAP_TAIL = "    return point\n"
MAP_LINE = re.compile(r"        (v\d+ = .*|return (?:x|v\d+))\n")
FUSED_HEAD = ("def make(c):\n    def push(xs):\n        out = []\n        append = out.append\n"
              "        for x in xs:\n")
FUSED_TAIL = "        return out\n    return push\n"
FUSED_LINE = re.compile(r"            (v\d+ = .*|append\((?:x|v\d+)\))\n")


def assert_lines(body, line):
    """Every line of body matches line, and its expression holds only
    what ALLOWED names."""
    assert line.sub("", body) == ""
    for text in body.splitlines():
        expr = text.split(" = ", 1)[-1].replace("append(", "(").replace("return ", "")
        assert ALLOWED.sub("", expr) == "", text
    assert "__" not in body and "lambda" not in body


def test_generated_source_holds_no_model_names(monkeypatch):
    sources = []

    def spy(source, scope):
        sources.append(source)
        exec(source, scope)

    monkeypatch.setattr(posets, "exec", spy, raising=False)
    monkeypatch.setattr(posets, "_made", {})
    model, diags = load_model(CLASH)
    assert model is not None, diags
    (source,) = [t for t in sources if t.startswith("def make(c):")]  # not a product's order
    assert source.startswith(MAP_HEAD) and source.endswith(MAP_TAIL)
    assert_lines(source[len(MAP_HEAD):-len(MAP_TAIL)], MAP_LINE)
    sol = solve_uncertain(model.term, model.uvaluation, (1.0, 2.0, 3.0, 4.0, math.inf))
    # c = x + 2c, x = max(v0, lambda), lambda = min(__import__, x), 0 * inf = 0
    assert sol.upper.front.points == {(5.0, 4.0, 1.0, 0.0)}
    assert sol.lower.front.points == sol.upper.front.points

    sources.clear()
    model, diags = load_model(CLASH_FAN)
    assert model is not None, diags
    sol = solve_uncertain(model.term, model.uvaluation, 2.0)
    # both sides fuse the same parts: one text for them
    (fused,) = [t for t in sources if t.startswith(FUSED_HEAD)]
    assert fused.endswith(FUSED_TAIL)
    assert_lines(fused[len(FUSED_HEAD):-len(FUSED_TAIL)], FUSED_LINE)
    # at the samples (0, 2), (1, 1), (0.5, 1.5), (1.5, 0.5) of 2: the cost
    # min(3 (x + 2c), max(x, c)) + 1 is least, 2, at (1, 1)
    assert sol.upper.front.points == {2.0}


def nodes_in(node, fn=None):
    """(name of the innermost function around it, node) for each node
    below node."""
    for child in ast.iter_child_nodes(node):
        yield fn, child
        yield from nodes_in(child, child.name if isinstance(child, ast.FunctionDef) else fn)


def test_the_package_compiles_code_in_one_place():
    # one exec, in posets._compile, and no call-per-* helper left
    execs, times = [], []
    for path in sorted(Path(mcdsolve.__file__).parent.rglob("*.py")):
        for fn, node in nodes_in(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "exec":
                execs.append((path.name, fn))
            names = [getattr(node, a, None) for a in ("id", "attr", "name", "arg", "asname")]
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names += re.findall(r"\b_times\b", node.value)
            times += [(path.name, node.lineno) for name in names if name == "_times"]
    assert execs == [("posets.py", "_compile")]
    assert times == []


# --- a fused push against the composition of its stages ---------------------


@st.composite
def chains(draw):
    """Model text of a chain of maps, identities and pars over one to three
    W axes and a numeric chain, inputs to push through it, and the
    reference for each stage, from the tuple of its axes' values to the
    tuple of its outputs'."""
    kinds = start = ["W"] * draw(st.integers(1, 3)) + ["n"] * draw(st.booleans())
    decls = ["poset n = chain {0, 3, 7.5, 1e999}"]

    def axes(ks, prefix):
        return ", ".join("%s%d%s" % (prefix, i, "[W]" if k == "W" else ":n")
                         for i, k in enumerate(ks))

    def atom(ks):
        name = "d%d" % len(decls)
        if draw(st.booleans()):
            outs = draw(st.lists(expressions(len(ks)), min_size=1, max_size=3))
            out_kinds = ["W"] * len(outs)
            if "n" in ks and draw(st.booleans()):  # a chain output reads its axis as it is
                outs.append(("var", ks.index("n")))
                out_kinds.append("n")
            texts = ["y%d = %s" % (j, text_of(e)) for j, e in enumerate(outs)]
            decls.append("dp %s = map F(%s) R(%s) { %s }"
                         % (name, axes(ks, "a"), axes(out_kinds, "y"), "; ".join(texts)))
            return name, out_kinds, lambda x: tuple(reference(e, x) for e in outs)
        decls.append("dp %s = identity R(%s)" % (name, axes(ks, "a")))
        return name, list(ks), lambda x: x

    stages, steps = [], []
    for _ in range(draw(st.integers(1, 4))):
        if len(kinds) > 1 and draw(st.booleans()):  # split the tuple, concatenate the parts
            cut = draw(st.integers(1, len(kinds) - 1))
            (left, lk, lstep), (right, rk, rstep) = atom(kinds[:cut]), atom(kinds[cut:])
            stages.append("par(%s, %s)" % (left, right))
            steps.append(lambda x, cut=cut, lstep=lstep, rstep=rstep:
                         lstep(x[:cut]) + rstep(x[cut:]))
            kinds = lk + rk
        else:
            name, kinds, step = atom(kinds)
            stages.append(name)
            steps.append(step)
    term = stages[-1]
    for stage in reversed(stages[:-1]):
        term = "series(%s, %s)" % (stage, term)
    points = draw(st.lists(
        st.tuples(*[INPUTS if k == "W" else st.sampled_from(CHAIN) for k in start]),
        min_size=1, max_size=4,
    ))
    return "\n".join(decls + ["term " + term, ""]), points, steps


def fan_out(chain, points):
    """series(a map giving points, chain), its push not yet fused."""
    return series(MonotoneMap(RealPlus(), chain.funsp, lambda f: list(points)), chain)


def mapped(push):
    """The front function of a push left unfused."""
    return lambda xs: list(map(push, xs))


def is_fused(front):
    """Whether a front function was compiled from its stages' sources."""
    return front.__name__ == "push"


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(chains())
def test_fused_push_answers_as_the_composition(case):
    text, points, steps = case
    model, diags = load_model(text)
    assert model is not None, (text, diags)
    chain = evaluate_term(model.term, {k: u.lower for k, u in model.uvaluation.items()})
    inputs = [x if len(x) > 1 else x[0] for x in points]
    node = fan_out(chain, [])
    composed = node._push
    fused = node._fuse()
    assert is_fused(fused) and fused is node._front and node._push is composed
    assert repr(fused(inputs)) == repr([composed(x) for x in inputs]), text
    # and the reference, stage by stage
    want = []
    for x in points:
        for step in steps:
            x = step(x)
        want.append(x if len(x) > 1 else x[0])
    assert repr(fused(inputs)) == repr(want), text
    # and a whole fan-out: minimal images written alike
    fronts = []
    for fuse in (True, False):
        node = fan_out(chain, inputs)
        if not fuse:
            node._front = mapped(node._push)
        fronts.append(repr(sorted(node._eval(1.0), key=repr)))
    assert fronts[0] == fronts[1], text


def test_fused_pushes_tell_equal_constants_apart_by_type_and_sign():
    # -0.0 + -0.0 is -0.0 and 0 + 1 is 1, where 0.0 + -0.0 is 0.0 and
    # 0.0 + 1 is 1.0: a fused push found by its parts keeps its constants' bits
    space = product(RealPlus(), RealPlus())
    for consts in ((0.0,), (-0.0,), (0,)):
        fn = dp.compile_point((("+", ("c", 0), ("x", 0)),), (("v", 0), ("x", 1)), consts)
        node = fan_out(MonotoneMap._of(space, space, fn), [])
        xs = [(-0.0, 1.0), (1, -0.0)]
        assert repr(node._fuse()(xs)) == repr([fn(x) for x in xs]), consts


LINE = load_model(
    "dp m = map F(a[W], b[W]) R(a[W], b[W]) { a = a + 1.0; b = max(b, a) * 0.5 }\n"
    "dp u = map F(a[W]) R(y[W]) { y = 2.0 * a + 1.0 }\nterm m\n"
)[0].uvaluation


def chain_of(shape):
    """300 maps in series, or pars nested MAX_NESTING deep."""
    if shape == "series":
        chain = m = LINE["m"].lower
        for _ in range(299):
            chain = series(m, chain)
    else:
        chain = u = LINE["u"].lower
        for _ in range(modellang.MAX_NESTING):
            chain = par(u, chain)
    return chain


@pytest.mark.parametrize("shape", ["series", "par"])
def test_long_chains_and_deep_pars_fuse(shape):
    # long chains and deep pars still build, and the fused push answers
    # as the composition does
    chain = chain_of(shape)
    if shape == "series":
        points = [(0.0, 3.0), (1.0, 2.0), (2.5, -0.0), (math.inf, 0.0)]
    else:
        assert isinstance(chain, ParDP) and len(chain.funsp.factors) == modellang.MAX_NESTING + 1
        # rotations of one pattern: no point lies below another
        points = [tuple(float((i + j) % 3) for j in range(modellang.MAX_NESTING + 1))
                  for i in range(3)]
    fronts = []
    for fuse in (True, False):
        node = fan_out(chain, points)
        if not fuse:
            node._front = mapped(node._push)
        fronts.append(repr(sorted(node._eval(1.0), key=repr)))
        assert node._push is chain.point and is_fused(node._front) == fuse
    assert fronts[0] == fronts[1]


def example_fan_outs(name):
    """The fan-out nodes of both sides of a shipped model."""
    model = load_example(name)
    pair = evaluate_uncertain(model.term, model.uvaluation)
    found, todo = [], [pair.lower, pair.upper]
    while todo:
        node = todo.pop()
        if isinstance(node, SeriesDP):
            if node._push is not None:
                found.append(node)
            todo += [node.first, node.second]
        elif isinstance(node, ParDP):
            todo += [node.left, node.right]
        elif isinstance(node, LoopDP):
            todo.append(node.body)
    return found


CHAIN_FAN_OUTS = [fan_out(chain_of(shape), []) for shape in ("series", "par")]
EXAMPLE_FAN_OUTS = {name: example_fan_outs(name) for name in EXAMPLE_NAMES}
FAN_OUTS = CHAIN_FAN_OUTS + [node for nodes in EXAMPLE_FAN_OUTS.values() for node in nodes]
# 0 and -0.0, ints, subnormals and inf, where a front may hold them
FRONT_VALUES = st.one_of(
    st.sampled_from([0, 0.0, -0.0, 1, 1.0, 5e-324, 2.2250738585072014e-308, math.inf]),
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=0, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_front_function_pushes_as_the_composed_push(data):
    # each fan-out's front function, in one call, against its per-point
    # push at each point in turn: the same images, written alike, in order
    node = data.draw(st.sampled_from(FAN_OUTS))
    point = st.tuples(*[
        FRONT_VALUES if isinstance(p, RealPlus) else st.sampled_from(p.elements())
        for p in node.second.funsp.factors
    ])
    xs = data.draw(st.lists(point, max_size=6))
    if not isinstance(node.second.funsp, ProductPoset):
        xs = [x for (x,) in xs]
    front = node._front or node._fuse()
    assert repr(front(xs)) == repr([node._push(x) for x in xs])


def test_fan_outs_fuse_unless_a_stage_has_no_source():
    # energy_meter's fan-outs push through uid's snaps, which carry none
    assert all(is_fused(node._front or node._fuse()) for node in CHAIN_FAN_OUTS)
    for name, nodes in EXAMPLE_FAN_OUTS.items():
        fused = [is_fused(node._front or node._fuse()) for node in nodes]
        assert fused == [name != "energy_meter"] * len(nodes) and fused, name


def test_power_split_pushes_each_front_in_one_call(monkeypatch):
    # at 256 samples each side's fan-outs push their whole middle front in
    # one call, and no point function runs once per point
    model = load_example("power_split")
    uvaluation = model.override_relaxation("split", 256)
    per_point, calls = [0], []

    def counted_point(point):
        def wrapper(f):
            per_point[0] += 1
            return point(f)
        wrapper.source = point.source  # still fuses
        return wrapper

    for name in ("solar", "mains", "total"):
        m = uvaluation[name].lower  # a plain atom is both sides
        monkeypatch.setattr(m, "point", counted_point(m.point))
    fuse = SeriesDP._fuse

    def counted_fuse(self):
        front, sizes = fuse(self), []
        calls.append(sizes)

        def counted(xs):
            sizes.append(len(xs))
            return front(xs)

        self._front = counted
        return counted

    monkeypatch.setattr(SeriesDP, "_fuse", counted_fuse)
    sol = solve_uncertain(model.term, uvaluation, model.build_query({"demand": 10.0}))
    assert sol.verdict == "feasible"
    # per side: the split's 256 samples, or the 256 meets of its 257
    # distinct lower samples, through par and total; the fan-out below,
    # series(par(solar, mains), total), is fused into that call
    assert calls == [[256], [256]]
    assert per_point[0] == 0


def test_power_split_solve_makes_as_many_calls_at_any_sample_count():
    # the front functions run each * of the maps inline, so a solve over
    # 256 samples makes no more Python calls than one over 20
    model = load_example("power_split")
    query = model.build_query({"demand": 10.0})

    def calls(n):
        uvaluation = model.override_relaxation("split", n)
        solve_uncertain(model.term, uvaluation, query)  # compiles what the solve needs
        count = [0]

        def profile(frame, event, arg):
            count[0] += event == "call"

        sys.setprofile(profile)
        try:
            solve_uncertain(model.term, uvaluation, query)
        finally:
            sys.setprofile(None)
        return count[0]

    assert calls(20) == calls(256)


# --- membership is not checked per map evaluation ---------------------------

MAPS = ("requirements", "perception", "loading", "actuation", "power_budget",
        "capacity", "assembly")


def test_uav_solve_checks_no_map_output(monkeypatch):
    # every output of a compiled map is one call of its point function,
    # whether its own _eval makes it or a fan-out's push; a wrapped point
    # function has no source, so no push fuses in the first solve, and the
    # second, unwrapped, counts the calls of each fused push instead
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

    fuse, fused = SeriesDP._fuse, []

    def counted_fuse(self):
        front = fuse(self)
        fused.append(front)

        def outputs(xs):
            inside[0] = True
            try:
                out = front(xs)
            finally:
                inside[0] = False
            evals[0] += len(out)  # one output of the fused maps per pushed point
            return out

        self._front = outputs
        return outputs

    monkeypatch.setattr(SeriesDP, "_fuse", counted_fuse)
    evals[0] = 0
    model = load_example("uav")
    fused_sol = solve_uncertain(model.term, model.uvaluation, query)
    assert repr(fused_sol) == repr(sol)
    # three fan-outs on each side, and both sides push through the same maps:
    # one compiled function for each pair
    assert len(fused) == 6 and len({f.__code__ for f in fused}) == 3
    assert all(map(is_fused, fused))
    assert evals[0] > 100  # 192 pushed middle points
    assert checks[0] == 0
