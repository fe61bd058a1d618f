"""Generalized inverses over exact and floating *-rings.

Computes and certifies {1}/{1,3}/{1,4}/Moore-Penrose, group, Drazin, core,
dual-core, pseudo-core (core-EP), inverse-along-an-element, (b,c)-, w-core
and dual v-core inverses over exact scalar domains and complex floats, and
exhaustively verifies the governing theorems on small finite *-rings.  That
oracle (rings, theorems) loads on first use of `ginv verify` or of one of its
names; `ginv compute` and `ginv check` load only the inverse engine.
"""

from .along import (
    bc_inverse,
    green_leq,
    group_formula_along,
    inverse_along,
    inverse_along_via_unit,
    jacobson_partner,
    one_along_a,
)
from .classical import (
    IndexedInverse,
    core_ep_inverse,
    core_inverse,
    drazin_index,
    drazin_inverse,
    dual_core_inverse,
    group_inverse,
)
from .domains import (
    COMPLEX_FLOAT,
    GAUSSIAN_RATIONAL,
    RATIONAL,
    GaussianRational,
    ScalarDomain,
    integer_mod,
    make_domain,
    prime_field,
)
from .equations import Certificate, InverseResult, certify
from .errors import (
    DomainMismatch,
    GinvError,
    NotInvertible,
    PreconditionFailed,
    RouteDisagreement,
    ShapeMismatch,
    TooLarge,
    ToleranceWarning,
    UnknownTheorem,
    UnsupportedDomain,
)
from .matrix import (
    DEFAULT_TOL,
    RankFactorization,
    StarMatrix,
    ToleranceThresholds,
    full_rank_factorize,
    is_projection,
    matrix_from_json,
    matrix_to_json,
    rank,
    solve_left,
    solve_right,
)
from .regular import (
    canonical_one_four,
    canonical_one_three,
    inner_inverse,
    mp_inverse,
    mp_via_unit,
    one_four_inverse,
    one_three_inverse,
)
from .wcore import (
    UnitReport,
    dual_v_core,
    ideal_form_membership,
    section3_units,
    special_cases,
    star_duality_check,
    w_core,
    w_core_exists,
    w_core_of_w_core,
    w_core_via_projection,
    wcore_as_along,
    wcore_as_bc,
)

__version__ = "0.1.0"

_RINGS = ("FiniteStarRing", "enumerate_ring", "green_relations", "solve_equations")
_THEOREMS = ("CATALOG", "TheoremReport", "verify_all", "verify_theorem")
__all__ = [n for n in globals() if not n.startswith("_")] + [*_RINGS, *_THEOREMS]


def __getattr__(name):  # PEP 562: runs only for unbound names; later reads are plain hits
    if name not in _RINGS + _THEOREMS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    module = import_module(".rings" if name in _RINGS else ".theorems", __name__)
    return globals().setdefault(name, getattr(module, name))


def __dir__():
    return sorted(globals().keys() | {*_RINGS, *_THEOREMS})
