"""Green's preorders, the inverse along an element, (b,c)-inverses, Jacobson pairs.

The inverse of a along d exists iff d <=_H d a d; when it does, any solution
x of d = d a d x gives the value d x (and any y with d = y d a d gives y d,
the same element).  The (b,c)-inverse is built as b (c a b)^- c and is
accepted only after its definitional certificate passes.
"""

from __future__ import annotations

import warnings

from .classical import group_inverse
from .equations import SYSTEMS, InverseResult, certify, system_residuals
from .errors import PreconditionFailed, RouteDisagreement, ShapeMismatch, ToleranceWarning
from .matrix import (
    DEFAULT_TOL,
    StarMatrix,
    ToleranceThresholds,
    acceptance_bound,
    all_within,
    condition_number,
    disagree,
    inverse,
    norm_fro,
    rank,
    solve_left,
    solve_right,
)
from .regular import inner_inverse

# beyond this condition number an SVD-based solve loses more than the
# route-agreement slack (eps * kappa ~ 1e-8), so values get flagged
_KAPPA_DEGRADED = 1e8


def green_leq(
    a: StarMatrix, b: StarMatrix, relation: str, tol: ToleranceThresholds = DEFAULT_TOL
) -> bool:
    """a <=_L b / a <=_R b / a <=_H b as solvability of a = x b / a = b y / both."""
    if a.shape != b.shape:
        raise ShapeMismatch("Green preorders compare same-shape elements")
    if relation == "L":
        return solve_left(b, a, tol) is not None
    if relation == "R":
        return solve_right(b, a, tol) is not None
    if relation == "H":
        return green_leq(a, b, "L", tol) and green_leq(a, b, "R", tol)
    raise PreconditionFailed(f"unknown Green relation {relation!r}")


def inverse_along(
    a: StarMatrix, d: StarMatrix, tol: ToleranceThresholds = DEFAULT_TOL
) -> InverseResult:
    """Inverse of a along d; exists iff d <=_H d a d."""
    if not (a.is_square() and a.shape == d.shape):
        raise ShapeMismatch("inverse along an element needs square, same-size inputs")
    dad = d @ a @ d
    if not a.domain.exact:
        # float existence by rank: d <=_H dad over a field iff the ranks
        # match, and the SVD rank is robust where residual solves are not
        if rank(dad, tol) != rank(d, tol):
            return InverseResult(False, reason="rank(dad) != rank(d)")
    x = solve_right(dad, d, tol)
    if x is None:
        return InverseResult(False, reason="d is not below dad in the R-preorder")
    y = solve_left(dad, d, tol)
    if y is None:
        return InverseResult(False, reason="d is not below dad in the L-preorder")
    b = d @ x
    exact = a.domain.exact
    yd = y @ d
    if exact:
        if b != yd:
            raise RouteDisagreement("d x and y d disagree for the inverse along d")
    else:
        # dx - yd = y(d - dad x) - (y dad - d)x: the allowed gap follows the
        # solve acceptance bound, so ill-conditioned dad does not false-alarm
        nx, ny = norm_fro(x), norm_fro(y)
        nd, ndad = norm_fro(d), norm_fro(dad)
        allowed = acceptance_bound(a.domain, tol) * max(
            1.0, ny * (ndad * nx + nd) + nx * (ndad * ny + nd)
        )
        if norm_fro(b - yd) > allowed:
            raise RouteDisagreement("d x and y d disagree for the inverse along d")
    cert = certify("along", {"a": a, "d": d, "x": b}, tol, route="solve")
    cert.witnesses = {"x": x, "y": y}
    if not exact and condition_number(dad, tol) > _KAPPA_DEGRADED:
        # small residuals do not imply small value error at this conditioning
        cert.warnings.append("dad is ill-conditioned; value accuracy degraded")
    if not cert.ok:
        if exact:
            raise RouteDisagreement(f"inverse-along certificate failed: {cert.residuals}")
        # squared conditioning of dad can push residuals past the base
        # tolerance; within two extra orders the value is still accepted
        # (downstream users re-verify their own defining equations)
        if all_within(cert.residuals.values(), acceptance_bound(a.domain, tol, guard=True)):
            cert.ok = True
            cert.warnings.append("residuals accepted within conditioning slack")
        else:
            cert.warnings.append("residuals exceed conditioning slack")
    return InverseResult(True, value=b, certificate=cert)


def inverse_along_via_unit(
    a: StarMatrix,
    d: StarMatrix,
    d_inner: StarMatrix,
    tol: ToleranceThresholds = DEFAULT_TOL,
) -> StarMatrix | None:
    """a^{||d} = u^{-1} d with u = d a + 1 - d d^-; None when u is singular."""
    res = system_residuals(SYSTEMS["one"], {"a": d, "x": d_inner}, tol)
    bound = acceptance_bound(a.domain, tol)
    if not all_within(res.values(), bound):
        raise PreconditionFailed("d_inner is not an inner inverse of d")
    ident = StarMatrix.identity(a.rows, a.domain)
    u = d @ a + ident - d @ d_inner
    u_inv = inverse(u, tol)
    if u_inv is None:
        return None
    value = u_inv @ d
    v = a @ d + ident - d_inner @ d
    v_inv = inverse(v, tol)
    if v_inv is None or disagree(value, d @ v_inv, bound):
        raise RouteDisagreement("u^{-1} d and d v^{-1} disagree (Jacobson pair broke)")
    return value


def one_along_a(a: StarMatrix, tol: ToleranceThresholds = DEFAULT_TOL) -> StarMatrix | None:
    """1^{||a} = a a^#; exists iff a is group invertible."""
    g = group_inverse(a, tol)
    if g is None:
        return None
    value = a @ g
    check = inverse_along(StarMatrix.identity(a.rows, a.domain), a, tol)
    if not check.exists or disagree(value, check.value, acceptance_bound(a.domain, tol)):
        raise RouteDisagreement("a a^# disagrees with the direct inverse of 1 along a")
    return value


def group_formula_along(
    w: StarMatrix, a: StarMatrix, tol: ToleranceThresholds = DEFAULT_TOL
) -> StarMatrix | None:
    """w^{||a} = a (w a)^# = (a w)^# a; exists iff a w is group invertible and R-equivalent to a."""
    if not (w.is_square() and w.shape == a.shape):
        raise ShapeMismatch("square, same-size inputs required")
    aw = a @ w
    if not (green_leq(aw, a, "R", tol) and green_leq(a, aw, "R", tol)):
        return None
    g_aw = group_inverse(aw, tol)
    if g_aw is None:
        return None
    g_wa = group_inverse(w @ a, tol)
    if g_wa is None:
        raise RouteDisagreement("aw group invertible but wa is not")
    left = a @ g_wa
    right = g_aw @ a
    if disagree(left, right, acceptance_bound(a.domain, tol)):
        raise RouteDisagreement("a(wa)^# and (aw)^# a disagree")
    return left


def bc_inverse(
    a: StarMatrix,
    b: StarMatrix,
    c: StarMatrix,
    tol: ToleranceThresholds = DEFAULT_TOL,
) -> StarMatrix | None:
    """(b,c)-inverse of a as b (c a b)^- c, accepted via its definitional certificate."""
    if not (a.is_square() and a.shape == b.shape == c.shape):
        raise ShapeMismatch("square, same-size inputs required")
    cab = c @ a @ b
    if not (rank(cab, tol) == rank(b, tol) == rank(c, tol)):
        return None
    y = b @ inner_inverse(cab, tol) @ c
    residuals = certify("bc", {"a": a, "b": b, "c": c, "x": y}, tol).residuals
    if not all_within(residuals.values(), acceptance_bound(a.domain, tol, guard=True)):
        if a.domain.exact:
            raise RouteDisagreement(f"(b,c)-inverse certificate failed: {residuals}")
        warnings.warn(
            f"(b,c)-inverse certificate failed near tolerance: {residuals}",
            ToleranceWarning,
        )
        return None
    return y


def jacobson_partner(
    a: StarMatrix,
    b: StarMatrix,
    alpha_inv: StarMatrix,
    tol: ToleranceThresholds = DEFAULT_TOL,
) -> StarMatrix:
    """beta^{-1} = 1 + b alpha^{-1} a for the Jacobson pair (1-ab, 1-ba)."""
    if not (a.is_square() and a.shape == b.shape):
        raise ShapeMismatch("square, same-size inputs required")
    ident = StarMatrix.identity(a.rows, a.domain)
    alpha = ident - a @ b
    bound = acceptance_bound(a.domain, tol)
    if disagree(alpha_inv @ alpha, ident, bound) or disagree(alpha @ alpha_inv, ident, bound):
        raise PreconditionFailed("alpha_inv is not the inverse of 1 - ab")
    beta_inv = ident + b @ alpha_inv @ a
    beta = ident - b @ a
    if disagree(beta_inv @ beta, ident, bound) or disagree(beta @ beta_inv, ident, bound):
        raise RouteDisagreement("Jacobson partner is not a two-sided inverse of 1 - ba")
    return beta_inv
