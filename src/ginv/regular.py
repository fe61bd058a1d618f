"""{1}, {1,3}, {1,4} inverses and the Moore-Penrose inverse.

Exact constructions follow the solvability criteria: a is {1,3}-invertible
iff a = x a* a is solvable (then x* is a {1,3}-inverse), and a is
MP-invertible iff a = y a a* a is solvable (then (y a)* is the MP inverse);
the {1,4} constructions are the stars of the {1,3} ones run on a*.  Over Q
and Q(i) these always succeed; over GF(p) with the transpose involution they
can genuinely fail (isotropic columns), which the solve decides honestly.
Complex floats never solve against a* a, whose condition number is the
square of a's: the inner, {1,3}-, {1,4}- and MP inverses are all a^+, read
from a's kept SVD.
"""

from __future__ import annotations

from .equations import SYSTEMS, assert_system, require_inner
from .errors import PreconditionFailed, RouteDisagreement, UnsupportedDomain
from .matrix import (
    DEFAULT_TOL,
    StarMatrix,
    ToleranceThresholds,
    full_rank_factorize,
    inverse,
    pinv,
    pivot_right_inverse,
    solve_left,
)


def inner_inverse(a: StarMatrix, tol: ToleranceThresholds = DEFAULT_TOL) -> StarMatrix:
    """Deterministic inner inverse a^- with a a^- a = a (always exists over a field)."""
    dom = a.domain
    if dom.kind == "integer_mod":
        raise UnsupportedDomain(
            "not every element of Z/nZ is regular; use the finite-ring oracle"
        )
    if dom.kind == "complex_float":
        return pinv(a, tol)
    frf = full_rank_factorize(a, tol)
    g_right = pivot_right_inverse(a)  # G (n x r) right inverse
    f_left = solve_left(frf.f, StarMatrix.identity(frf.rank, dom), tol)  # F (r x m) left inverse
    if f_left is None:
        raise RouteDisagreement("full-rank factors lost one-sided invertibility")
    x = g_right @ f_left
    assert_system(SYSTEMS["one"], {"a": a, "x": x}, tol, "inner inverse")
    return x


def one_three_inverse(
    a: StarMatrix, tol: ToleranceThresholds = DEFAULT_TOL
) -> StarMatrix | None:
    """A {1,3}-inverse of a, or None when a is not in S a* a; a^+ in float."""
    if a.domain.kind == "complex_float":
        out = pinv(a, tol)
    elif (x := solve_left(a.adjoint() @ a, a, tol)) is None:
        return None
    else:
        out = x.adjoint()
    assert_system(SYSTEMS["one3"], {"a": a, "x": out}, tol, "{1,3}-inverse")
    return out


def one_four_inverse(
    a: StarMatrix, tol: ToleranceThresholds = DEFAULT_TOL
) -> StarMatrix | None:
    """A {1,4}-inverse of a, or None when a is not in a a* S: the star of a
    {1,3}-inverse of a*, whose guard checks the {1,4} equations up to the star."""
    t = one_three_inverse(a.adjoint(), tol)
    return None if t is None else t.adjoint()


def mp_inverse(a: StarMatrix, tol: ToleranceThresholds = DEFAULT_TOL) -> StarMatrix | None:
    """Moore-Penrose inverse: SVD in float, ideal-criterion solve in exact domains."""
    if a.domain.kind == "complex_float":
        x = pinv(a, tol)
        assert_system(SYSTEMS["mp"], {"a": a, "x": x}, tol, "MP inverse (SVD)")
        return x
    y = solve_left(a @ a.adjoint() @ a, a, tol)
    if y is None:
        return None
    x = (y @ a).adjoint()
    assert_system(SYSTEMS["mp"], {"a": a, "x": x}, tol, "MP inverse (solve route)")
    return x


def mp_via_unit(
    a: StarMatrix, a_inner: StarMatrix, tol: ToleranceThresholds = DEFAULT_TOL
) -> StarMatrix | None:
    """MP inverse as (u^{-1} a)* with u = a a* + 1 - a a^-; None iff u is singular.

    A singular u signals that a is not MP-invertible (criterion failure),
    not a fault.
    """
    if not a.is_square():
        raise PreconditionFailed("unit criterion lives in the square matrix ring")
    require_inner(a, a_inner, tol)
    ident = StarMatrix.identity(a.rows, a.domain)
    u = a @ a.adjoint() + ident - a @ a_inner
    u_inv = inverse(u, tol)
    if u_inv is None:
        return None
    x = (u_inv @ a).adjoint()
    assert_system(SYSTEMS["mp"], {"a": a, "x": x}, tol, "MP inverse (unit route)")
    return x


def canonical_one_three(
    a: StarMatrix, tol: ToleranceThresholds = DEFAULT_TOL
) -> StarMatrix | None:
    """Canonical {1,3}-inverse: the MP inverse when it exists, else the solve route."""
    x = mp_inverse(a, tol)
    if x is not None:
        return x
    return one_three_inverse(a, tol)


def canonical_one_four(
    a: StarMatrix, tol: ToleranceThresholds = DEFAULT_TOL
) -> StarMatrix | None:
    """Canonical {1,4}-inverse: the star of the canonical {1,3}-inverse of a*."""
    t = canonical_one_three(a.adjoint(), tol)
    return None if t is None else t.adjoint()
