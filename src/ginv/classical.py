"""Group, Drazin, core, dual-core, and pseudo-core (core-EP) inverses.

Existence goes through the membership criteria (a in a^2 S and S a^2 for the
group inverse, and their power versions for Drazin), which work uniformly
over fields and over Z/nZ; certificates re-verify the original defining
equations rather than the construction route.
"""

from __future__ import annotations

from typing import NamedTuple

from .equations import (
    SYSTEMS,
    assert_system,
    core_ep_system,
    drazin_system,
    index_cap,
    system_residuals,
)
from .errors import RouteDisagreement, ShapeMismatch
from .matrix import (
    DEFAULT_TOL,
    StarMatrix,
    ToleranceThresholds,
    acceptance_bound,
    all_within,
    rank,
    solve_left,
    solve_right,
)
from .regular import one_three_inverse, one_four_inverse


class IndexedInverse(NamedTuple):
    """Inverse together with its Drazin / pseudo-core index."""

    value: StarMatrix
    index: int


def _require_square(a: StarMatrix):
    if not a.is_square():
        raise ShapeMismatch("this inverse is defined for square matrices only")


def group_inverse(a: StarMatrix, tol: ToleranceThresholds = DEFAULT_TOL) -> StarMatrix | None:
    """Group inverse via a = a^2 x = y a^2; None when a is not group invertible."""
    _require_square(a)
    a2 = a @ a
    x = solve_right(a2, a, tol)
    if x is None:
        return None
    y = solve_left(a2, a, tol)
    if y is None:
        return None
    g = y @ a @ x
    assert_system(SYSTEMS["group"], {"a": a, "x": g}, tol, "group inverse")
    return g


def drazin_index(a: StarMatrix, tol: ToleranceThresholds = DEFAULT_TOL) -> int:
    """Smallest k >= 1 with a^k group invertible (rank stabilization in float)."""
    _require_square(a)
    if a.domain.kind == "complex_float":
        k = 1
        p = a
        while k < a.rows:
            if rank(p, tol) == rank(p @ a, tol):
                return k
            p = p @ a
            k += 1
        return max(1, a.rows)
    cap = index_cap(a)
    for k in range(1, cap + 1):
        p = a.pow(k)
        p2 = p @ a
        if solve_right(p2, p, tol) is not None and solve_left(p2, p, tol) is not None:
            return k
    raise RouteDisagreement(f"no Drazin index found up to cap {cap}")


def drazin_inverse(a: StarMatrix, tol: ToleranceThresholds = DEFAULT_TOL) -> IndexedInverse:
    """Drazin inverse a^D = a^{n-1} (a^n)^# with n the Drazin index."""
    _require_square(a)
    n = drazin_index(a, tol)
    g = group_inverse(a.pow(n), tol)
    if g is None:
        raise RouteDisagreement(f"a^{n} lost group invertibility at the found index")
    value = a.pow(n - 1) @ g
    assert_system(drazin_system(n), {"a": a, "x": value}, tol, "Drazin inverse")
    return IndexedInverse(value, n)


def core_inverse(a: StarMatrix, tol: ToleranceThresholds = DEFAULT_TOL) -> StarMatrix | None:
    """Core inverse a^# a a^{(1,3)}; exists iff both factors do."""
    _require_square(a)
    g = group_inverse(a, tol)
    if g is None:
        return None
    t = one_three_inverse(a, tol)
    if t is None:
        return None
    x = g @ a @ t
    assert_system(SYSTEMS["core5"], {"a": a, "x": x}, tol, "core inverse")
    return x


def dual_core_inverse(
    a: StarMatrix, tol: ToleranceThresholds = DEFAULT_TOL
) -> StarMatrix | None:
    """Dual-core inverse a^{(1,4)} a a^#."""
    _require_square(a)
    g = group_inverse(a, tol)
    if g is None:
        return None
    t = one_four_inverse(a, tol)
    if t is None:
        return None
    x = t @ a @ g
    assert_system(SYSTEMS["dual-core5"], {"a": a, "x": x}, tol, "dual-core inverse")
    return x


def core_ep_inverse(
    a: StarMatrix, tol: ToleranceThresholds = DEFAULT_TOL
) -> IndexedInverse | None:
    """Pseudo-core (core-EP) inverse a^D a^m (a^m)^{(1,3)} at the Drazin index m.

    Over GF(p) the needed {1,3}-inverse of a^m can be missing; that is a
    NotExists outcome, not an error.
    """
    _require_square(a)
    dz = drazin_inverse(a, tol)
    m = dz.index
    t = one_three_inverse(a.pow(m), tol)
    if t is None:
        return None
    x = dz.value @ a.pow(m) @ t
    assert_system(core_ep_system(m), {"a": a, "x": x}, tol, "pseudo-core inverse")
    if m > 1:
        # minimality: the same x must fail the exponent-(m-1) equation
        res = system_residuals(core_ep_system(m - 1), {"a": a, "x": x}, tol)
        if all_within(res.values(), acceptance_bound(a.domain, tol)):
            raise RouteDisagreement("pseudo-core index is not minimal")
    return IndexedInverse(x, m)
