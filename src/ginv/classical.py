"""Group, Drazin, core, dual-core, and pseudo-core (core-EP) inverses.

Exact domains decide existence by the membership criteria (a in a^2 S and
S a^2 for the group inverse, and their power versions for Drazin), which work
uniformly over fields and over Z/nZ.  Complex floats read a's kept SVD as
a = FG (F = U_r S_r, G = V_r*) and never solve against a^2, whose condition
number is the square of a's: a^# = F (GF)^-2 G (Cline), existing iff the
r x r matrix GF is invertible, and the core inverse a^# a a^+ takes a^+ from
the same SVD.  The Drazin index, the Drazin inverse and the core-EP inverse
share one chain of powers, each formed and factored once (ranks in float).
Certificates re-verify the original defining equations rather than the
construction route.  The dual-core inverse is the star of the core inverse
of a*, whose guard checks the dual equations up to the star.
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
from .errors import RouteDisagreement
from .matrix import (
    DEFAULT_TOL,
    StarMatrix,
    ToleranceThresholds,
    acceptance_bound,
    all_within,
    full_rank_factorize,
    inverse,
    rank,
    require_square,
    solve_left,
    solve_right,
)
from .regular import one_three_inverse


class IndexedInverse(NamedTuple):
    """Inverse together with its Drazin / pseudo-core index."""

    value: StarMatrix
    index: int


def group_inverse(a: StarMatrix, tol: ToleranceThresholds = DEFAULT_TOL) -> StarMatrix | None:
    """Group inverse via a = a^2 x = y a^2, in float F (GF)^-2 G; None when a
    is not group invertible."""
    require_square(a)
    if a.domain.kind == "complex_float":
        frf = full_rank_factorize(a, tol)
        k = inverse(frf.g @ frf.f, tol)
        if k is None:
            return None
        g = frf.f @ k @ k @ frf.g
    else:
        a2 = a @ a
        x = solve_right(a2, a, tol)
        y = None if x is None else solve_left(a2, a, tol)
        if y is None:
            return None
        g = y @ a @ x
    assert_system(SYSTEMS["group"], {"a": a, "x": g}, tol, "group inverse")
    return g


def _power_chain(a: StarMatrix, tol: ToleranceThresholds) -> tuple[int, StarMatrix, StarMatrix]:
    """The Drazin index n of a, with a^{n-1} and a^n as the chain formed them."""
    require_square(a)
    flt, cap = a.domain.kind == "complex_float", index_cap(a)
    below, p = StarMatrix.identity(a.rows, a.domain), a
    for k in range(1, cap + 1):
        if flt and k == cap:  # float ranks stabilize by the dimension
            return k, below, p
        q = p @ a
        # a^k = a^{k+1} x gives a^k S = a^{k+1} S, and one side suffices: over
        # a field the ranks agree, so S a^k = S a^{k+1}; over Z/n the matrix
        # ring is finite, hence stable, and a^k R a a^k forces a^k L a^{k+1}
        if (rank(p, tol) == rank(q, tol)) if flt else (solve_right(q, p, tol) is not None):
            return k, below, p
        below, p = p, q
    raise RouteDisagreement(f"no Drazin index found up to cap {cap}")


def drazin_index(a: StarMatrix, tol: ToleranceThresholds = DEFAULT_TOL) -> int:
    """Smallest k >= 1 with a^k group invertible (rank stabilization in float)."""
    return _power_chain(a, tol)[0]


def drazin_inverse(a: StarMatrix, tol: ToleranceThresholds = DEFAULT_TOL) -> IndexedInverse:
    """Drazin inverse a^D = a^{n-1} (a^n)^# with n the Drazin index."""
    return _drazin(a, tol)[0]


def _drazin(a: StarMatrix, tol: ToleranceThresholds) -> tuple:
    """a's Drazin inverse (an IndexedInverse) with the a^{n-1} and a^n of its chain."""
    n, below, an = _power_chain(a, tol)
    g = group_inverse(an, tol)
    if g is None:
        raise RouteDisagreement(f"a^{n} lost group invertibility at the found index")
    value = below @ g
    assert_system(drazin_system(n), {"a": a, "x": value}, tol, "Drazin inverse")
    return IndexedInverse(value, n), below, an


def core_inverse(a: StarMatrix, tol: ToleranceThresholds = DEFAULT_TOL) -> StarMatrix | None:
    """Core inverse a^# a a^{(1,3)}; exists iff both factors do."""
    require_square(a)
    g = group_inverse(a, tol)
    return None if g is None else _core_from_group(a, g, tol)


def _core_from_group(a: StarMatrix, g: StarMatrix, tol: ToleranceThresholds) -> StarMatrix | None:
    """The core inverse g a a^{(1,3)} from a's group inverse g; None without a^{(1,3)}."""
    t = one_three_inverse(a, tol)
    if t is None:
        return None
    x = g @ a @ t
    assert_system(SYSTEMS["core5"], {"a": a, "x": x}, tol, "core inverse")
    return x


def dual_core_inverse(
    a: StarMatrix, tol: ToleranceThresholds = DEFAULT_TOL
) -> StarMatrix | None:
    """Dual-core inverse a^{(1,4)} a a^#, the star of the core inverse of a*."""
    x = core_inverse(a.adjoint(), tol)
    return None if x is None else x.adjoint()


def core_ep_inverse(
    a: StarMatrix, tol: ToleranceThresholds = DEFAULT_TOL
) -> IndexedInverse | None:
    """Pseudo-core (core-EP) inverse a^D a^m (a^m)^{(1,3)} at the Drazin index m.

    Over GF(p) the needed {1,3}-inverse of a^m can be missing; that is a
    NotExists outcome, not an error.
    """
    return _core_ep(a, tol)[0]


def _core_ep(a: StarMatrix, tol: ToleranceThresholds) -> tuple:
    """a's core-EP inverse (an IndexedInverse, None without one) with the a^{m-1}
    and a^m of its chain."""
    dz, below, am = _drazin(a, tol)
    m = dz.index
    t = one_three_inverse(am, tol)
    if t is None:
        return None, below, am
    x = dz.value @ am @ t
    assert_system(core_ep_system(m), {"a": a, "x": x}, tol, "pseudo-core inverse")
    if m > 1:
        # minimality: the same x must fail the exponent-(m-1) equation
        res = system_residuals(core_ep_system(m - 1), {"a": a, "x": x}, tol)
        if all_within(res.values(), acceptance_bound(a.domain, tol)):
            raise RouteDisagreement("pseudo-core index is not minimal")
    return IndexedInverse(x, m), below, am
