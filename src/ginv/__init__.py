"""Generalized inverses over exact and floating *-rings.

Computes and certifies {1}/{1,3}/{1,4}/Moore-Penrose, group, Drazin, core,
dual-core, pseudo-core (core-EP), inverse-along-an-element, (b,c)-, w-core
and dual v-core inverses over exact scalar domains and complex floats, and
exhaustively verifies the governing theorems on small finite *-rings.

`import ginv` loads no submodule and not numpy: each public name loads its
defining module on first read (PEP 562), so `ginv compute --kind mp` loads
only `regular` and what it imports, and the finite-ring oracle (rings,
theorems) loads only for `ginv verify` or one of its names.
"""

__version__ = "0.1.0"

# (defining module, public names) in the order of __all__; "" marks the
# names of engine submodules, which read as the submodules themselves
_SOURCES = (
    ("", "errors domains matrix equations regular classical along"),
    ("along", "bc_inverse green_leq group_formula_along inverse_along inverse_along_via_unit"),
    ("along", "jacobson_partner one_along_a"),
    ("classical", "IndexedInverse core_ep_inverse core_inverse drazin_index drazin_inverse"),
    ("classical", "dual_core_inverse group_inverse"),
    ("domains", "COMPLEX_FLOAT GAUSSIAN_RATIONAL RATIONAL GaussianRational ScalarDomain"),
    ("domains", "integer_mod make_domain prime_field"),
    ("equations", "Certificate InverseResult certify"),
    ("errors", "DomainMismatch GinvError NotInvertible PreconditionFailed RouteDisagreement"),
    ("errors", "ShapeMismatch TooLarge ToleranceWarning UnknownTheorem UnsupportedDomain"),
    ("matrix", "DEFAULT_TOL RankFactorization StarMatrix ToleranceThresholds full_rank_factorize"),
    ("matrix", "is_projection matrix_from_json matrix_to_json rank solve_left solve_right"),
    ("regular", "canonical_one_four canonical_one_three inner_inverse mp_inverse mp_via_unit"),
    ("regular", "one_four_inverse one_three_inverse"),
    ("", "wcore"),
    ("wcore", "UnitReport dual_v_core ideal_form_membership section3_units special_cases"),
    ("wcore", "star_duality_check w_core w_core_exists w_core_of_w_core w_core_via_projection"),
    ("wcore", "wcore_as_along wcore_as_bc"),
    ("rings", "FiniteStarRing enumerate_ring green_relations solve_equations"),
    ("theorems", "CATALOG TheoremReport verify_all verify_theorem"),
)
_MODULE = {name: module or name for module, names in _SOURCES for name in names.split()}
__all__ = [*_MODULE]


def __getattr__(name):  # PEP 562: runs only for unbound names; later reads are plain hits
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    module = import_module(f".{_MODULE[name]}", __name__)
    return globals().setdefault(name, module if _MODULE[name] == name else getattr(module, name))


def __dir__():
    return sorted(globals().keys() | _MODULE.keys())
