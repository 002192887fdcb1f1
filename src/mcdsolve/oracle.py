"""Brute-force reference solvers and random instance generators.

Everything here exists to cross-check the solver kernel, so it avoids
the kernel's own machinery on purpose: fronts are plain frozensets
minimized with local helpers, and composition is evaluated by direct set
computation.  A loop is read from its definition, with no step map and
no iteration: its front at f1 is the set of minimal r for which some p
in the body's front at (f1, r) has p <= r, found by evaluating the body
at every element r of the (finite) resource poset.
"""

from .antichains import Antichain
from .dp import (
    Atom,
    BottomDP,
    Catalogue,
    ConstantResource,
    DesignProblem,
    IdentityDP,
    Loop,
    MonotoneMap,
    Par,
    Series,
    Term,
    TopDP,
    loop_signature,
)
from .errors import DomainError
from .posets import (
    FinitePoset,
    Poset,
    ProductPoset,
    concat_elements,
    product,
    split_element,
)


def _min_set(points, poset: Poset) -> frozenset:
    pts = list(dict.fromkeys(points))
    return frozenset(
        p
        for i, p in enumerate(pts)
        if not any(i != j and poset.leq(q, p) for j, q in enumerate(pts))
    )


def _loop_front(rsp: Poset, body_front) -> frozenset:
    """Min{r in rsp : some p in body_front(r) has p <= r}."""
    return _min_set(
        [r for r in rsp.elements() if any(rsp.leq(p, r) for p in body_front(r))],
        rsp,
    )


def brute_lfp(dp: DesignProblem, f1) -> Antichain:
    """Front of loop(dp) at f1, read from the definition of a loop.

    Validates the iterative solver: no ascent, no iteration cap, just
    every element of the resource poset tested for feasibility.
    """
    f1sp, rsp = loop_signature(dp.funsp, dp.ressp)
    f1sp.check_member(f1)
    return Antichain(
        rsp,
        _loop_front(
            rsp, lambda r: dp.evaluate(concat_elements(f1sp, f1, rsp, r)).points
        ),
    )


class FiniteInstance:
    """A term over finite posets plus the queries to compare on."""

    def __init__(self, term: Term, valuation: dict, queries=None):
        self.term = term
        self.valuation = valuation
        self.queries = [] if queries is None else queries


def term_spaces(term: Term, valuation) -> tuple[Poset, Poset]:
    """Interfaces of a term computed structurally, without building DPs."""
    if isinstance(term, Atom):
        dp = valuation[term.name]
        return dp.funsp, dp.ressp
    if isinstance(term, Series):
        f1, _ = term_spaces(term.left, valuation)
        _, r2 = term_spaces(term.right, valuation)
        return f1, r2
    if isinstance(term, Par):
        lf, lr = term_spaces(term.left, valuation)
        rf, rr = term_spaces(term.right, valuation)
        return product(lf, rf), product(lr, rr)
    if isinstance(term, Loop):
        bf, br = term_spaces(term.body, valuation)
        n = len(br.factors)
        if len(bf.factors) <= n or tuple(bf.factors[-n:]) != tuple(br.factors):
            raise DomainError(
                "loop body %s does not end with its resources %s"
                % (bf.describe(), br.describe())
            )
        lead = bf.factors[:-n]
        f1sp = lead[0] if len(lead) == 1 else ProductPoset(lead)
        return f1sp, br
    raise TypeError("not a term: %r" % (term,))


def _eval_atom(dp: DesignProblem, f) -> frozenset:
    if isinstance(dp, Catalogue):
        return _min_set(
            [r for fi, r in dp.entries if dp.funsp.leq(f, fi)], dp.ressp
        )
    if isinstance(dp, IdentityDP):
        return frozenset([f])
    if isinstance(dp, BottomDP):
        return frozenset([dp.ressp.bottom()])
    if isinstance(dp, TopDP):
        return frozenset()
    if isinstance(dp, ConstantResource):
        return frozenset(dp.front.points)
    if isinstance(dp, MonotoneMap):
        out = dp.fn(f)
        pts = list(out) if isinstance(out, (list, set, frozenset)) else [out]
        return _min_set(pts, dp.ressp)
    raise DomainError("oracle cannot evaluate composite atom %s" % dp.describe())


def _eval_sets(term: Term, valuation, f) -> frozenset:
    if isinstance(term, Atom):
        return _eval_atom(valuation[term.name], f)
    if isinstance(term, Series):
        _, rsp = term_spaces(term, valuation)
        pts = []
        for r1 in _eval_sets(term.left, valuation, f):
            pts.extend(_eval_sets(term.right, valuation, r1))
        return _min_set(pts, rsp)
    if isinstance(term, Par):
        lf, lr = term_spaces(term.left, valuation)
        rf, rr = term_spaces(term.right, valuation)
        fl, fr = split_element(lf, rf, f)
        prod = product(lr, rr)
        pts = [
            concat_elements(lr, a, rr, b)
            for a in _eval_sets(term.left, valuation, fl)
            for b in _eval_sets(term.right, valuation, fr)
        ]
        return _min_set(pts, prod)
    if isinstance(term, Loop):
        f1sp, rsp = term_spaces(term, valuation)
        return _loop_front(
            rsp,
            lambda r: _eval_sets(term.body, valuation, concat_elements(f1sp, f, rsp, r)),
        )
    raise TypeError("not a term: %r" % (term,))


def brute_compose(instance: FiniteInstance) -> dict:
    """Map each query to the front computed by direct set semantics."""
    _, rsp = term_spaces(instance.term, instance.valuation)
    return {
        f: Antichain(rsp, _eval_sets(instance.term, instance.valuation, f))
        for f in instance.queries
    }


# --- random instances -------------------------------------------------------


def random_finite_poset(rng, max_size: int = 4, name: str = "") -> FinitePoset:
    """Small random poset with a guaranteed unique bottom.

    Edges only go from lower to higher label index, so the order-pair
    list is acyclic by construction.
    """
    n = rng.randint(1, max_size)
    labels = ["%s%d" % (name or "x", i) for i in range(n)]
    pairs = [(labels[0], lab) for lab in labels[1:]]
    for i in range(1, n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                pairs.append((labels[i], labels[j]))
    return FinitePoset(labels, pairs)


def random_space(rng, max_factors: int = 2, max_size: int = 4) -> Poset:
    k = rng.randint(1, max_factors)
    factors = [random_finite_poset(rng, max_size, name="p%d" % i) for i in range(k)]
    return factors[0] if k == 1 else ProductPoset(factors)


def random_catalogue(rng, funsp: Poset, ressp: Poset, max_entries: int = 6) -> Catalogue:
    felems = funsp.elements()
    relems = ressp.elements()
    n = rng.randint(0, max_entries)
    entries = [(rng.choice(felems), rng.choice(relems)) for _ in range(n)]
    return Catalogue(funsp, ressp, entries)


def _random_atom(rng, funsp: Poset, ressp: Poset, names: list) -> tuple[Term, dict]:
    roll = rng.random()
    if roll < 0.08:
        dp: DesignProblem = BottomDP(funsp, ressp)
    elif roll < 0.12:
        dp = TopDP(funsp, ressp)
    else:
        dp = random_catalogue(rng, funsp, ressp)
    name = "a%d" % len(names)
    names.append(name)
    return Atom(name), {name: dp}


def _total_elements(p: Poset) -> int:
    n = 1
    for f in p.factors:
        n *= len(f.elements())
    return n


def random_term(rng, funsp: Poset, ressp: Poset, depth: int, names: list) -> tuple[Term, dict]:
    """Random well-typed term between the two given interfaces."""
    if depth <= 0:
        return _random_atom(rng, funsp, ressp, names)
    roll = rng.random()
    if roll < 0.34:
        mid = random_space(rng)
        lt, lv = random_term(rng, funsp, mid, depth - 1, names)
        rt, rv = random_term(rng, mid, ressp, depth - 1, names)
        return Series(lt, rt), {**lv, **rv}
    if roll < 0.55 and len(funsp.factors) >= 2 and len(ressp.factors) >= 2:
        fcut = rng.randint(1, len(funsp.factors) - 1)
        rcut = rng.randint(1, len(ressp.factors) - 1)

        def part(facs):
            return facs[0] if len(facs) == 1 else ProductPoset(facs)

        lt, lv = random_term(
            rng, part(funsp.factors[:fcut]), part(ressp.factors[:rcut]), depth - 1, names
        )
        rt, rv = random_term(
            rng, part(funsp.factors[fcut:]), part(ressp.factors[rcut:]), depth - 1, names
        )
        return Par(lt, rt), {**lv, **rv}
    if roll < 0.7 and _total_elements(ressp) <= 5:
        body_funsp = ProductPoset(funsp.factors + ressp.factors)
        bt, bv = random_term(rng, body_funsp, ressp, depth - 1, names)
        return Loop(bt), bv
    return _random_atom(rng, funsp, ressp, names)


def random_instance(rng, depth: int = 3) -> FiniteInstance:
    """Random finite instance queried at every functionality element."""
    funsp = random_space(rng)
    ressp = random_space(rng)
    term, valuation = random_term(rng, funsp, ressp, depth, [])
    queries = funsp.elements()
    return FiniteInstance(term=term, valuation=valuation, queries=queries)


def random_ordered_uvaluation(rng, valuation: dict) -> tuple[dict, dict]:
    """Two uncertain valuations with v1 <= v2 atomwise.

    Catalogue atoms get nested entry subsets E(L2) >= E(L1) >= E(U1) >=
    E(U2): more entries can only lower a catalogue's fronts, so the
    construction yields valid, ordered intervals.  Non-catalogue atoms
    stay exact on both sides.
    """
    from .uncertainty import UncertainDP, degenerate

    def drop_some(entries):
        return [e for e in entries if rng.random() < 0.75]

    v1 = {}
    v2 = {}
    for name, dp in valuation.items():
        if not isinstance(dp, Catalogue):
            v1[name] = degenerate(dp)
            v2[name] = degenerate(dp)
            continue
        e_l2 = list(dp.entries)
        e_l1 = drop_some(e_l2)
        e_u1 = drop_some(e_l1)
        e_u2 = drop_some(e_u1)

        def cat(entries):
            return Catalogue(dp.funsp, dp.ressp, entries)

        v1[name] = UncertainDP(cat(e_l1), cat(e_u1))
        v2[name] = UncertainDP(cat(e_l2), cat(e_u2))
    return v1, v2
