"""Monotone co-design solver.

Compose design problems over partially ordered functionality and
resource spaces, solve feedback loops to least fixed points, and
propagate interval uncertainty through any composition.
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
    SolveReport,
    Term,
    TopDP,
    UNIT_POSET,
    dp_leq,
    evaluate_term,
    find_monotonicity_violation,
    kleene_solve,
    loop,
    par,
    series,
    solve,
)
from .errors import CodesignError, CompositionError, DomainError
from .posets import FinitePoset, Poset, ProductPoset, RealPlus, product
from .relaxations import (
    inject_tolerance,
    lower_from_points,
    relax_plus_uniform,
    relax_plus_vdc,
    relax_times_vdc,
    uid,
    vdc,
)
from .uncertainty import (
    UncertainDP,
    UncertainSolution,
    check_udp,
    degenerate,
    evaluate_uncertain,
    scale_catalogue,
    solve_uncertain,
    udp_leq,
)

__version__ = "0.1.0"

__all__ = [
    "Antichain",
    "Atom",
    "BottomDP",
    "Catalogue",
    "CodesignError",
    "CompositionError",
    "ConstantResource",
    "DesignProblem",
    "DomainError",
    "FinitePoset",
    "IdentityDP",
    "Loop",
    "MonotoneMap",
    "Par",
    "Poset",
    "ProductPoset",
    "RealPlus",
    "Series",
    "SolveReport",
    "Term",
    "TopDP",
    "UNIT_POSET",
    "UncertainDP",
    "UncertainSolution",
    "check_udp",
    "degenerate",
    "dp_leq",
    "evaluate_term",
    "evaluate_uncertain",
    "find_monotonicity_violation",
    "inject_tolerance",
    "kleene_solve",
    "loop",
    "lower_from_points",
    "par",
    "product",
    "relax_plus_uniform",
    "relax_plus_vdc",
    "relax_times_vdc",
    "scale_catalogue",
    "series",
    "solve",
    "solve_uncertain",
    "udp_leq",
    "uid",
    "vdc",
]
