"""Green's preorders, the inverse along an element, (b,c)-inverses, Jacobson pairs.

Both inverses are decided by Drazin's criterion: the (b,c)-inverse of a
exists iff c is in cab S and b in S cab, and the inverse of a along d is its
(d,d)-inverse, so it exists iff d <=_H d a d.  From c = cab v and b = u cab
the (b,c)-inverse is u c and the inverse along d is d v (= u d, the same
element); each is accepted only after its definitional certificate passes.
Complex floats decide by SVD rank first.
"""

from __future__ import annotations

import warnings

from .classical import group_inverse
from .equations import InverseResult, certify, require_inner
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
    rank,
    require_square,
    solve_left,
    solve_right,
)

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


def _drazin_criterion(cab, b, c, tol) -> tuple[StarMatrix, StarMatrix] | None:
    """Drazin's criterion for the (b,c)-inverse of a, given cab = c a b: the
    witnesses (v, u) of c = cab v and b = u cab, or None when either fails.
    Complex floats first need rank(cab) = rank(b) = rank(c), the criterion
    over a field: the residual-accepted solves alone take a pinv(cab) that
    drops a singular value the ranks of b and c keep."""
    if not cab.domain.exact and not (rank(cab, tol) == rank(b, tol) == rank(c, tol)):
        return None
    # c = cab v first: in float, b = u cab then reuses cab's SVD through the transpose
    if (v := solve_right(cab, c, tol)) is None or (u := solve_left(cab, b, tol)) is None:
        return None
    return v, u


def inverse_along(
    a: StarMatrix, d: StarMatrix, tol: ToleranceThresholds = DEFAULT_TOL, *, dad=None
) -> InverseResult:
    """Inverse of a along d; exists iff d <=_H d a d.  dad, when given, is d a d.
    A float value comes with its certificate, which may fail; exact ones raise."""
    require_square(a, d)
    dad = d @ a @ d if dad is None else dad
    if (found := _drazin_criterion(dad, d, d, tol)) is None:
        return InverseResult(False, reason="d is not below dad in the H-preorder")
    x, y = found
    b = d @ x
    # b = d x, and b = y d as dx - yd = y(dad x - d) - (y dad - d)x: exact
    # witnesses, so an exact certificate fails, and raises below, iff b != y d
    members = {"x_leq_R_d": x, "x_leq_L_d": y}
    cert = certify("along", {"a": a, "d": d, "x": b}, tol, route="solve", members=members)
    cert.witnesses = {"x": x, "y": y}
    if a.domain.exact and not cert.ok:
        raise RouteDisagreement(f"inverse-along certificate failed: {cert.residuals}")
    if not a.domain.exact and condition_number(dad, tol) > _KAPPA_DEGRADED:
        # small residuals do not imply small value error at this conditioning
        cert.warnings.append("dad is ill-conditioned; value accuracy degraded")
    return InverseResult(True, value=b, certificate=cert)


def inverse_along_via_unit(
    a: StarMatrix,
    d: StarMatrix,
    d_inner: StarMatrix,
    tol: ToleranceThresholds = DEFAULT_TOL,
) -> StarMatrix | None:
    """a^{||d} = u^{-1} d with u = d a + 1 - d d^-; None when u is singular."""
    require_inner(d, d_inner, tol, "d")
    bound = acceptance_bound(a.domain, tol)
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
    require_square(w, a)
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
    """(b,c)-inverse of a by Drazin's criterion: u c when c = cab v and b = u cab
    are solvable, else None; accepted via its definitional certificate."""
    return _bc_certified(a, b, c, tol).value


def _bc_certified(a, b, c, tol) -> InverseResult:
    """bc_inverse's value and accepting certificate; where it gives None, neither."""
    require_square(a, b, c)
    cab = (ca := c @ a) @ b
    if (found := _drazin_criterion(cab, b, c, tol)) is None:
        return InverseResult(False)
    v, u = found
    y = u @ c
    members = None
    if a.domain.exact:  # y = u c = u cab v = b v, b = u cab = y ab, c = cab v = ca y
        members = {"x_leq_R_b": v, "b_leq_R_x": a @ b, "x_leq_L_c": u, "c_leq_L_x": ca}
    cert = certify("bc", {"a": a, "b": b, "c": c, "x": y}, tol, members=members)
    bound = acceptance_bound(a.domain, tol, guard=True)
    if failed := [n for n, r in cert.residuals.items() if not all_within((r,), bound)]:
        if a.domain.exact:
            raise RouteDisagreement(f"(b,c)-inverse certificate failed on equations {failed}")
        msg = f"(b,c)-inverse certificate failed near tolerance on equations {failed}"
        warnings.warn(msg, ToleranceWarning)
        return InverseResult(False)
    return InverseResult(True, value=y, certificate=cert)


def jacobson_partner(
    a: StarMatrix,
    b: StarMatrix,
    alpha_inv: StarMatrix,
    tol: ToleranceThresholds = DEFAULT_TOL,
) -> StarMatrix:
    """beta^{-1} = 1 + b alpha^{-1} a for the Jacobson pair (1-ab, 1-ba)."""
    require_square(a, b)
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
