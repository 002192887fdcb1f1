"""A tree-walking reference for the model language's map expressions,
written apart from the package's compiler: hypothesis strategies for
expression trees, their model text, and their value at a point."""

from hypothesis import strategies as st

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
    """The value of e at x, the tuple of the axes' values; 0 * inf is 0."""
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
