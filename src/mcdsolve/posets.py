"""Partially ordered value spaces.

Functionality and resource quantities live in posets.  Three kinds are
supported: nonnegative real chains with a unit tag (including +inf as the
top element), finite posets given by an explicit order-pair list, and
flat n-ary products ordered componentwise.  A member of a real chain is
a nonnegative float or int; an int above the largest float is not one,
since the kernel's sums and products could not convert it.

Membership is checked where values enter the program: the public
Antichain constructor, the outputs of a MonotoneMap built by its
constructor, the Catalogue constructor, each point written in a model
as the elaborator reads it, DesignProblem.evaluate, solve and
kleene_solve on their query, model queries (build_query) and
lower_from_points.  A map compiled from a model is typed when the model
is elaborated, so its outputs are members by construction and are not
checked per evaluation; nor are the samples of the sampled inverses of
+ and * at a member demand, their meets, or uid's snaps of a member,
which are members too.  A model's catalogue rows, checked as they are
read, and the rows scale_catalogue divides are members already and enter
through Catalogue._of unchecked.  Past those points values are trusted: leq,
meet and joins do not re-validate their arguments, and a non-member
passed to them gives an unspecified result or an arbitrary exception.

Products are kept flat: the product of two products concatenates their
factor lists, and elements of a product are plain tuples with one slot
per factor.  Scalars are never wrapped in 1-tuples.

A product's leq and joins are straight-line functions, compiled the
first time the product is compared, never when it is built: most
products built are never compared.  A RealPlus factor is written out as
a[i] <= b[i] and max(a[i], b[i]), a FinitePoset factor as a look-up in
its up-sets and one call of its joins, any other factor as calls of its
own leq and joins; the joins nest in itertools.product's order.  The
text depends only on the kinds of the factors and is compiled once per
tuple of kinds by _compile, which makes all of the package's generated
code under one memo of up to MEMO_SIZE entries.  Each product binds its
own factors' data and keeps the two functions, so later reads of p.leq find
a plain function; read on the class, ProductPoset.leq and joins stay
callable as (product, a, b).  The compiled functions trust their
arguments as every leq and joins does.
"""

import itertools
import math
import sys

from .errors import DomainError


class Poset:
    """Base class: a set of admissible elements plus a partial order."""

    # every factor is a RealPlus: set once per poset, read by
    # antichains._minimize on each front it minimises
    real_factors = False

    def contains(self, x) -> bool:
        raise NotImplementedError

    def check_member(self, x):
        """Raise DomainError unless x is an element of this poset."""
        if not self.contains(x):
            raise DomainError("%r is not an element of %s" % (x, self.describe()))

    def leq(self, a, b) -> bool:
        """Whether a <= b.  Trusts its arguments: both must already be
        members (see check_member); they are not validated here."""
        raise NotImplementedError

    def bottom(self):
        raise NotImplementedError

    def meet(self, a, b):
        """Greatest lower bound of a and b.  Like leq, trusts that both
        arguments are members."""
        raise NotImplementedError

    def joins(self, a, b) -> list:
        """Minimal upper bounds of a and b: none, one or several.  Like
        leq, trusts that both arguments are members."""
        raise NotImplementedError

    @property
    def is_finite(self) -> bool:
        raise NotImplementedError

    def elements(self) -> list:
        raise NotImplementedError

    @property
    def factors(self) -> tuple:
        """Scalar posets count as a single factor of themselves."""
        return (self,)

    def describe(self) -> str:
        raise NotImplementedError

    def render(self, x):
        """JSON-ready rendering of an element."""
        raise NotImplementedError

    def format(self, x) -> str:
        """Compact text rendering of an element (CSV cells, messages)."""
        raise NotImplementedError

    def sort_key(self, x):
        """Total-order key used only to make rendered output deterministic."""
        raise NotImplementedError

    def __repr__(self):
        return "<%s %s>" % (type(self).__name__, self.describe())


class RealPlus(Poset):
    """Chain of nonnegative reals with a unit tag; +inf is the top."""

    __slots__ = ("unit",)

    real_factors = True

    def __init__(self, unit: str = ""):
        self.unit = unit

    def contains(self, x) -> bool:
        # NaN fails x >= 0; an int above the largest float has no float
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            return False
        return x >= 0 and (isinstance(x, float) or x <= sys.float_info.max)

    def leq(self, a, b) -> bool:
        return a <= b

    def bottom(self):
        return 0.0

    def meet(self, a, b):
        return min(a, b)

    def joins(self, a, b) -> list:
        return [max(a, b)]

    @property
    def is_finite(self) -> bool:
        return False

    def elements(self) -> list:
        raise DomainError("cannot enumerate the infinite poset %s" % self.describe())

    def describe(self) -> str:
        return "R+[%s]" % self.unit if self.unit else "R+"

    def render(self, x):
        v = float(x)
        return {"value": "inf" if math.isinf(v) else v, "unit": self.unit}

    def format(self, x) -> str:
        v = float(x)
        return "inf" if math.isinf(v) else repr(v)

    def sort_key(self, x):
        return float(x)

    def __eq__(self, other):
        return isinstance(other, RealPlus) and other.unit == self.unit

    def __hash__(self):
        return hash(("R+", self.unit))


class FinitePoset(Poset):
    """Finite poset built from an order-pair list.

    The constructor takes the reflexive-transitive closure of the given
    pairs, rejects antisymmetry violations, and requires a unique least
    element.  Label declaration order is kept for deterministic output.
    """

    def __init__(self, labels, pairs=(), name: str = ""):
        labels = list(labels)
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate labels in finite poset")
        if not labels:
            raise ValueError("finite poset needs at least one element")
        self.name = name
        self._labels = labels
        self._index = {x: i for i, x in enumerate(labels)}
        up = {x: {x} for x in labels}
        for a, b in pairs:
            if a not in self._index or b not in self._index:
                raise ValueError("order pair (%r, %r) uses undeclared labels" % (a, b))
            up[a].add(b)
        # Warshall closure; n is small by design
        for k in labels:
            for a in labels:
                if k in up[a]:
                    up[a] |= up[k]
        for a in labels:
            for b in up[a]:
                if a != b and a in up[b]:
                    raise ValueError("antisymmetry violated: %r and %r" % (a, b))
        self._up = {a: frozenset(s) for a, s in up.items()}
        self._down = {
            b: frozenset(a for a in labels if b in self._up[a]) for b in labels
        }
        bottoms = [a for a in labels if len(self._up[a]) == len(labels)]
        if len(bottoms) != 1:
            raise ValueError("finite poset must have a unique least element")
        self._bottom = bottoms[0]
        self._key = (tuple(labels), frozenset((a, b) for a in labels for b in self._up[a]))

    @classmethod
    def chain(cls, labels, name: str = ""):
        """Total order in declaration order."""
        labels = list(labels)
        pairs = [(labels[i], labels[i + 1]) for i in range(len(labels) - 1)]
        return cls(labels, pairs, name=name)

    def contains(self, x) -> bool:
        try:
            return x in self._index
        except TypeError:
            return False

    def leq(self, a, b) -> bool:
        return b in self._up[a]

    def bottom(self):
        return self._bottom

    def meet(self, a, b):
        common = self._down[a] & self._down[b]
        greatest = [c for c in common if all(d in self._down[c] for d in common)]
        if len(greatest) != 1:
            raise DomainError(
                "no unique greatest lower bound of %r and %r in %s"
                % (a, b, self.describe())
            )
        return greatest[0]

    def joins(self, a, b) -> list:
        common = self._up[a] & self._up[b]
        # c is minimal in common when nothing of common lies below it
        return [c for c in self._labels if self._down[c] & common == {c}]

    @property
    def is_finite(self) -> bool:
        return True

    def elements(self) -> list:
        return list(self._labels)

    def describe(self) -> str:
        if self.name:
            return self.name
        return "poset{%s}" % ",".join(str(x) for x in self._labels)

    def render(self, x):
        return x

    def format(self, x) -> str:
        return str(x)

    def sort_key(self, x):
        return self._index[x]

    def __eq__(self, other):
        return isinstance(other, FinitePoset) and other._key == self._key

    def __hash__(self):
        return hash(self._key)


MEMO_SIZE = 1024  # makes _compile keeps; once full it adds no more
_made: dict = {}  # key -> the make its text defines


def _compile(key, write):
    """The function make defined by the text write() returns, which sees
    only max, min, and isinf, floor and ceil of math (dp's snaps); write
    runs only for a key not kept yet.  Keys: a product's tuple of
    one-letter factor kinds, a map body's form and stages (dp), a record
    constructor's text."""
    make = _made.get(key)
    if make is None:
        scope = {"__builtins__": {}, "max": max, "min": min,
                 "isinf": math.isinf, "floor": math.floor, "ceil": math.ceil}
        exec(write(), scope)
        make = scope["make"]
        if len(_made) < MEMO_SIZE:
            _made[key] = make
    return make


_KINDS = {RealPlus: "r", FinitePoset: "f"}  # a factor of any other type is "p"
# each kind's test in leq, and its line, slot and loop in joins; the
# first factor's joins vary slowest, as in itertools.product
_OWN_JOINS = ("s{0} = j{0}(a[{0}], b[{0}])", "x{0}", " for x{0} in s{0}")
_TEXTS = {
    "r": ("a[{0}] <= b[{0}]", "m{0} = max(a[{0}], b[{0}])", "m{0}", ""),
    "f": ("b[{0}] in o{0}[a[{0}]]",) + _OWN_JOINS,
    "p": ("o{0}(a[{0}], b[{0}])",) + _OWN_JOINS,
}


def _order_text(kinds: tuple) -> str:
    """Text defining make(o_i, j_i, ...): it takes, for each factor i that
    is not a RealPlus, its up-sets (a FinitePoset's) or leq, and its
    joins, and returns straight-line leq and joins."""
    tests, lines, slots, loops = zip(*(
        [t.format(i) for t in _TEXTS[k]] for i, k in enumerate(kinds)))
    return (
        "def make(%s):\n"
        "    def leq(a, b):\n        return %s\n"
        "    def joins(a, b):\n        %s\n        return [(%s)%s]\n"
        "    return leq, joins\n"
    ) % ("".join("o%d, j%d, " % (i, i) for i, k in enumerate(kinds) if k != "r"),
         " and ".join(tests), "; ".join(lines), ", ".join(slots), "".join(loops))


class _Compiled:
    """A product's leq or joins.  The first read on a product compiles
    both and keeps them on it, where they hide this descriptor; read on
    the class it is itself, callable as (product, a, b)."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, p, owner=None):
        if p is None:
            return self
        kinds = tuple(_KINDS.get(type(f), "p") for f in p._factors)
        data = []
        for f, k in zip(p._factors, kinds):
            if k != "r":
                data += (f._up if k == "f" else f.leq, f.joins)
        p.leq, p.joins = _compile(kinds, lambda: _order_text(kinds))(*data)
        return getattr(p, self.name)

    def __call__(self, p, a, b):
        return (vars(p).get(self.name) or self.__get__(p))(a, b)


class ProductPoset(Poset):
    """Flat product of two or more scalar posets, ordered componentwise."""

    def __init__(self, factors):
        flat = []
        real = True
        for p in factors:
            flat.extend(p.factors)
            real = real and p.real_factors
        if len(flat) < 2:
            raise ValueError("product poset needs at least two factors")
        self._factors = tuple(flat)
        self.real_factors = real

    @property
    def factors(self) -> tuple:
        return self._factors

    def contains(self, x) -> bool:
        if not isinstance(x, tuple) or len(x) != len(self._factors):
            return False
        for p, v in zip(self._factors, x):
            if not p.contains(v):
                return False
        return True

    leq = _Compiled()
    joins = _Compiled()

    def bottom(self):
        return tuple(p.bottom() for p in self._factors)

    def meet(self, a, b):
        return tuple(p.meet(u, v) for p, u, v in zip(self._factors, a, b))

    @property
    def is_finite(self) -> bool:
        return all(p.is_finite for p in self._factors)

    def elements(self) -> list:
        if not self.is_finite:
            raise DomainError("cannot enumerate the infinite poset %s" % self.describe())
        return [tuple(t) for t in itertools.product(*(p.elements() for p in self._factors))]

    def describe(self) -> str:
        return " x ".join(p.describe() for p in self._factors)

    def render(self, x):
        return [p.render(v) for p, v in zip(self._factors, x)]

    def format(self, x) -> str:
        return "(%s)" % ",".join(p.format(v) for p, v in zip(self._factors, x))

    def sort_key(self, x):
        return tuple(p.sort_key(v) for p, v in zip(self._factors, x))

    def __eq__(self, other):
        return isinstance(other, ProductPoset) and other._factors == self._factors

    def __hash__(self):
        return hash(self._factors)


def product(p1: Poset, p2: Poset) -> ProductPoset:
    """Flat product of two posets (factor lists concatenate)."""
    return ProductPoset((p1, p2))


def arity(p: Poset) -> int:
    return len(p.factors)


def element_parts(p: Poset, x) -> tuple:
    """View an element as the tuple of its factor components."""
    return tuple(x) if isinstance(p, ProductPoset) else (x,)


def concat_elements(p1: Poset, x1, p2: Poset, x2):
    """Element of product(p1, p2) from elements of the two operands."""
    return element_parts(p1, x1) + element_parts(p2, x2)


def split_element(p1: Poset, p2: Poset, x) -> tuple:
    """Inverse of concat_elements: split a flat tuple along (p1, p2)."""
    n1 = arity(p1)
    a = x[:n1] if isinstance(p1, ProductPoset) else x[0]
    b = x[n1:] if isinstance(p2, ProductPoset) else x[n1]
    return a, b
