"""Antichains: Pareto fronts of minimal elements.

An antichain is a finite set of pairwise incomparable points of a poset.
Fronts of minimal resources are compared by reverse inclusion of their
upper sets: S1 is below S2 when every point of S2 is dominated by some
point of S1 (S1 offers at least everything S2 offers).  Under this order
the empty antichain is the greatest element and encodes infeasibility,
while {bottom} is the least.

The public constructor checks that every point is a member of the poset;
it is where values from outside the kernel enter: the lists a MonotoneMap
built by its constructor returns, a model's constant points, and the
meets of lower_from_points.  The sampled inverses' fronts are members by
construction and enter unchecked, through MonotoneMap._of(...,
front=True) (see dp).  Inside the DP kernel fronts travel as plain
frozensets of points; an Antichain object is made only where a front
leaves it (DesignProblem.evaluate, a SolveReport and its history), by
Antichain._of, which trusts a frozenset that is already minimal.  The
product of two antichains is one already, so cross (and a par node)
builds it with _cross and minimises nothing.
"""

from .errors import DomainError
from .posets import Poset, ProductPoset, product


def _minimize_pairwise(unique, poset):
    # a point above a dropped one is above a kept one (transitivity), so
    # each point is tested only against the points kept so far, and drops
    # those above it; the kept stay in input order
    leq = poset.leq
    kept = []
    for p in unique:
        for q in kept:
            if leq(q, p):
                break
        else:
            kept = [q for q in kept if not leq(p, q)]
            kept.append(p)
    return kept


def _minimize_real(unique):
    # On two real chains the lexicographic order extends the componentwise
    # one, so one pass over the sorted points keeps each whose second
    # coordinate is below all kept before it (Kung, Luccio & Preparata
    # 1975).  The points are distinct, so their sort has one order; the
    # kept are listed in input order, as the pairwise path lists them.
    ordered = sorted(unique)
    lowest = ordered[0][1]
    kept = [ordered[0]]
    for p in ordered:
        if p[1] < lowest:
            kept.append(p)
            lowest = p[1]
    if len(kept) == len(unique):
        return unique
    kept = set(kept)
    return [p for p in unique if p in kept]


def _minimize(points, poset):
    if len(points) < 2:  # most fronts a loop meets: nothing to compare
        return list(points)
    if poset.real_factors and len(poset.factors) == 1:
        # one real chain: min keeps the first of equal values (0, 0.0, -0.0)
        return [min(points)]
    # drop duplicates first so only strict domination remains; the first
    # of equal values is the one kept
    unique = list(dict.fromkeys(points))
    if len(unique) < 2:
        return unique
    if poset.real_factors and len(poset.factors) == 2:
        return _minimize_real(unique)
    return _minimize_pairwise(unique, poset)


def _cross(left, left_flat: bool, right, right_flat: bool) -> frozenset:
    """Points of the product of two fronts, given as point sets; *_flat
    tells whether that side's points are tuples of a product poset.
    No point of the product dominates another, so none is dropped."""
    if left_flat:
        if right_flat:
            return frozenset([a + b for a in left for b in right])
        return frozenset([a + (b,) for a in left for b in right])
    if right_flat:
        return frozenset([(a,) + b for a in left for b in right])
    return frozenset([(a, b) for a in left for b in right])


class Antichain:
    """Immutable antichain over a poset; construction minimizes."""

    __slots__ = ("poset", "points")

    def __init__(self, poset: Poset, points=()):
        points = list(points)
        for p in points:
            poset.check_member(p)
        object.__setattr__(self, "poset", poset)
        object.__setattr__(self, "points", frozenset(_minimize(points, poset)))

    @classmethod
    def _of(cls, poset: Poset, points: frozenset) -> "Antichain":
        """Antichain of points already known to be minimal members of poset."""
        front = object.__new__(cls)
        object.__setattr__(front, "poset", poset)
        object.__setattr__(front, "points", points)
        return front

    def __setattr__(self, name, value):
        raise AttributeError("antichains are immutable")

    @property
    def is_empty(self) -> bool:
        return not self.points

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other):
        return (
            isinstance(other, Antichain)
            and other.poset == self.poset
            and other.points == self.points
        )

    def __hash__(self):
        return hash((self.poset, self.points))

    def _check_same_space(self, other: "Antichain"):
        if self.poset != other.poset:
            raise DomainError(
                "antichains live in different posets: %s vs %s"
                % (self.poset.describe(), other.poset.describe())
            )

    def leq(self, other: "Antichain") -> bool:
        """True when self's upper set contains other's upper set.

        Every point of `other` must be dominated by some point of self.
        Consequences: anything <= empty, and empty <= S only for empty S.
        """
        self._check_same_space(other)
        return all(
            any(self.poset.leq(s1, s2) for s1 in self.points) for s2 in other.points
        )

    def union_min(self, other: "Antichain") -> "Antichain":
        """Minimal elements of the union; the meet of the two fronts."""
        self._check_same_space(other)
        pts = list(self.points) + list(other.points)
        return Antichain._of(self.poset, frozenset(_minimize(pts, self.poset)))

    def cross(self, other: "Antichain") -> "Antichain":
        """Antichain product over the flat product poset."""
        pts = _cross(
            self.points, isinstance(self.poset, ProductPoset),
            other.points, isinstance(other.poset, ProductPoset),
        )
        return Antichain._of(product(self.poset, other.poset), pts)

    def up_contains(self, r) -> bool:
        """Whether r belongs to the upper set of the front."""
        self.poset.check_member(r)
        return any(self.poset.leq(p, r) for p in self.points)

    def sorted_points(self) -> list:
        return sorted(self.points, key=self.poset.sort_key)

    def to_json(self) -> list:
        return [self.poset.render(p) for p in self.sorted_points()]

    def format(self) -> str:
        return ";".join(self.poset.format(p) for p in self.sorted_points())

    def __repr__(self):
        inner = ", ".join(self.poset.format(p) for p in self.sorted_points())
        return "Antichain{%s}" % inner
