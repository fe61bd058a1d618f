"""Green preorders, inverse along an element, (b,c)-inverses, Jacobson pairs."""

import math
import random
from fractions import Fraction

import pytest

import ginv.along
from ginv import (
    PreconditionFailed,
    RouteDisagreement,
    StarMatrix,
    ToleranceWarning,
    bc_inverse,
    certify,
    green_leq,
    group_formula_along,
    group_inverse,
    inverse_along,
    inverse_along_via_unit,
    jacobson_partner,
    mp_inverse,
    one_along_a,
)
from ginv.domains import COMPLEX_FLOAT, GAUSSIAN_RATIONAL, RATIONAL
from ginv.matrix import inverse, left_nullspace, rel_diff
from ginv.regular import inner_inverse

from conftest import cm, fm, gm, lists, mul_lists, qm, zm


def test_green_reflexive():
    a = qm([[0, 1], [0, 0]])
    for rel in ("L", "R", "H"):
        assert green_leq(a, a, rel)


def test_green_everything_below_identity():
    a = qm([[0, 1], [0, 0]])
    i2 = StarMatrix.identity(2, RATIONAL)
    for rel in ("L", "R", "H"):
        assert green_leq(a, i2, rel)


def test_green_rank_obstruction():
    i2 = StarMatrix.identity(2, RATIONAL)
    b = qm([[0, 1], [0, 0]])
    assert not green_leq(i2, b, "L")
    assert not green_leq(i2, b, "R")


def test_inverse_along_identity_gives_inverse():
    a = qm([[2, 1], [1, 1]])
    res = inverse_along(a, StarMatrix.identity(2, RATIONAL))
    assert res.exists and res.value == inverse(a)


def test_inverse_along_self_gives_group_inverse():
    a = qm([[1, 0], [0, 0]])
    res = inverse_along(a, a)
    assert res.exists and res.value == group_inverse(a)


def test_inverse_along_adjoint_gives_mp():
    a = gm([[0, 1], [0, 0]])
    res = inverse_along(a, a.adjoint())
    assert res.exists and res.value == mp_inverse(a)


def test_inverse_along_zero_convention():
    # a^{||0} = 0: the zero element is invertible along zero with inverse 0
    a = qm([[1, 2], [3, 4]])
    res = inverse_along(a, StarMatrix.zeros(2, 2, RATIONAL))
    assert res.exists and res.value.is_zero()


def test_inverse_along_not_exists():
    n = qm([[0, 1], [0, 0]])
    # d a d = n^3 = 0 but d = n != 0, so d is not below dad
    res = inverse_along(n, n)
    assert not res.exists
    i2 = StarMatrix.identity(2, RATIONAL)
    assert not inverse_along(i2, n).exists  # 1^{||n} needs n group invertible


def test_inverse_along_is_outer_inverse():
    rng = random.Random(41)
    for _ in range(10):
        a = qm([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
        d = qm([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
        res = inverse_along(a, d)
        if res.exists:
            b = res.value
            assert b @ a @ b == b


def test_inverse_along_via_unit_examples():
    e = qm([[1, 0], [0, 0]])
    assert inverse_along_via_unit(e, e, e) == e
    z = StarMatrix.zeros(2, 2, RATIONAL)
    assert inverse_along_via_unit(qm([[1, 2], [3, 4]]), z, z) == z
    a = qm([[2, 1], [1, 1]])
    i2 = StarMatrix.identity(2, RATIONAL)
    assert inverse_along_via_unit(a, i2, i2) == inverse(a)


def test_inverse_along_via_unit_agrees_with_solve_route():
    rng = random.Random(43)
    for _ in range(10):
        a = qm([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
        d = qm([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
        res = inverse_along(a, d)
        via = inverse_along_via_unit(a, d, inner_inverse(d))
        assert res.exists == (via is not None)
        if res.exists:
            assert via == res.value


def test_inverse_along_via_unit_float():
    import numpy as np

    rng = np.random.default_rng(8)
    a = cm((rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))).tolist())
    x = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    d = cm((x @ x.conj().T).tolist())  # rank-2 Hermitian
    res = inverse_along(a, d)
    via = inverse_along_via_unit(a, d, inner_inverse(d))
    assert res.exists == (via is not None)
    if res.exists:
        assert rel_diff(via, res.value) < 1e-6


def test_one_along_a():
    e = qm([[1, 0], [0, 0]])
    assert one_along_a(e) == e  # a a^# = e for an idempotent
    a = qm([[2, 1], [1, 1]])
    assert one_along_a(a) == StarMatrix.identity(2, RATIONAL)
    assert one_along_a(qm([[0, 1], [0, 0]])) is None


def test_group_formula_along():
    a = gm([[0, 1], [0, 0]])
    w = gm([[3, 6], [1, 0]])
    got = group_formula_along(w, a)
    assert got is not None
    # cross-check against the definition-based route
    assert got == inverse_along(w, a).value
    # w = identity on a group-invertible element reduces to a a^#
    e = qm([[1, 0], [0, 0]])
    assert group_formula_along(StarMatrix.identity(2, RATIONAL), e) == one_along_a(e)
    inv_a = qm([[2, 1], [1, 1]])
    assert group_formula_along(inv_a, inv_a) == inverse(inv_a) @ inverse(inv_a) @ inv_a


def test_group_formula_along_no_inverse():
    i2, e12 = StarMatrix.identity(2, RATIONAL), qm([[0, 1], [0, 0]])
    # aw = 0 is not R-equivalent to a = 1
    assert group_formula_along(StarMatrix.zeros(2, 2, RATIONAL), i2) is None
    # aw = a = e12, R-equivalent to a, but nilpotent: no group inverse
    assert group_formula_along(i2, e12) is None
    assert not inverse_along(i2, e12).exists


def test_bc_inverse_star_pair_is_mp():
    a = gm([[0, 1], [0, 0]])
    y = bc_inverse(a, a.adjoint(), a.adjoint())
    assert y == mp_inverse(a)


def test_bc_inverse_self_pair_is_group():
    e = qm([[1, 0], [0, 0]])
    assert bc_inverse(e, e, e) == group_inverse(e)


def test_bc_inverse_identity_pair():
    a = qm([[2, 1], [1, 1]])
    i2 = StarMatrix.identity(2, RATIONAL)
    assert bc_inverse(a, i2, i2) == inverse(a)


def test_bc_inverse_not_exists():
    a = qm([[0, 1], [0, 0]])
    assert bc_inverse(a, a, a) is None  # rank(a a a) = 0 < rank a


@pytest.mark.parametrize(
    "a, b",
    [
        # b has rank 2 under the SVD cutoff, cab = diag(1, 1e-18) has rank 1
        ([[1, 0], [0, 1]], [[1, 0], [0, 1e-9]]),
        # cab = a^3 underflows to 0 though a is invertible
        ([[1e-300, 0], [0, 1e-300]], [[1e-300, 0], [0, 1e-300]]),
    ],
)
def test_float_bc_inverse_returns_no_value_its_residual_solves_alone_accept(a, b):
    # pinv(cab) drops the small singular value and both solves of Drazin's
    # criterion pass their residual test, so u c would be diag(1, 0) or 0; the
    # true (b,c)-inverse is a^{-1} in both cases
    a, b = cm(a), cm(b)
    y = bc_inverse(a, b, b)
    assert y is None or rel_diff(y, inverse(a)) < 1e-6


def test_jacobson_scalar_example():
    a, b = qm([[2]]), qm([[3]])
    alpha_inv = qm([[Fraction(-1, 5)]])
    beta_inv = jacobson_partner(a, b, alpha_inv)
    assert beta_inv == qm([[Fraction(-1, 5)]])


def test_jacobson_nilpotent_example():
    n = qm([[0, 1], [0, 0]])
    i2 = StarMatrix.identity(2, RATIONAL)
    assert jacobson_partner(n, n, i2) == i2  # ab = 0 so alpha = 1, beta^{-1} = 1 + n^2


def test_jacobson_precondition():
    a = qm([[0, 1], [0, 0]])
    b = qm([[0, 0], [1, 0]])
    # 1 - ab = diag(0, 1) is singular; the claimed inverse must be rejected
    with pytest.raises(PreconditionFailed):
        jacobson_partner(a, b, StarMatrix.identity(2, RATIONAL))


def test_jacobson_symmetry_random():
    rng = random.Random(47)
    i2 = StarMatrix.identity(2, RATIONAL)
    for _ in range(20):
        a = qm([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
        b = qm([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
        alpha_inv = inverse(i2 - a @ b)
        beta_inv = inverse(i2 - b @ a)
        assert (alpha_inv is None) == (beta_inv is None)
        if alpha_inv is not None:
            assert jacobson_partner(a, b, alpha_inv) == beta_inv


def test_green_lemma_nullspace_inclusion():
    # a <=_R b implies left annihilators of b annihilate a
    rng = random.Random(53)
    for _ in range(10):
        b = qm([[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
        y = qm([[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
        a = b @ y  # a <=_R b by construction
        lns = left_nullspace(b)
        assert (lns @ a).is_zero()


def test_bc_inverse_failing_certificate_raises_in_exact_domains(failing_bc_certificate):
    e = qm([[1, 0], [0, 0]])
    with pytest.raises(RouteDisagreement, match="certificate failed"):
        bc_inverse(StarMatrix.identity(2, RATIONAL), e, e)


def test_bc_inverse_failing_certificate_warns_in_float(failing_bc_certificate):
    e = cm([[1, 0], [0, 0]])
    with pytest.warns(ToleranceWarning, match="certificate failed near tolerance"):
        assert bc_inverse(StarMatrix.identity(2, COMPLEX_FLOAT), e, e) is None


def test_bc_inverse_certificate_failures_name_the_failing_equations(failing_bc_certificate):
    e = qm([[1, 0], [0, 0]])
    with pytest.raises(RouteDisagreement) as exc:
        bc_inverse(StarMatrix.identity(2, RATIONAL), e, e)
    assert str(exc.value) == "(b,c)-inverse certificate failed on equations ['B3']"
    e = cm([[1, 0], [0, 0]])
    with pytest.warns(ToleranceWarning) as record:
        bc_inverse(StarMatrix.identity(2, COMPLEX_FLOAT), e, e)
    expected = "(b,c)-inverse certificate failed near tolerance on equations ['B3']"
    assert [str(w.message) for w in record] == [expected]


# one exact example per domain kind: a = [[1, 1], [0, 1]], d = b = e = diag(1, 0)
# and c = [[1, 0], [1, 0]]; the inverse of a along e and the (e, c)-inverse of a
# are both e, and every membership residual holds through some z
EXACT_KINDS = {"Q": qm, "Q(i)": gm, "GF(7)": lambda rows: fm(rows, 7), "Z/6": zm}
ALONG_MEMBERS = ["x_leq_L_d", "x_leq_R_d"]
BC_MEMBERS = ["x_leq_R_b", "b_leq_R_x", "x_leq_L_c", "c_leq_L_x"]


def witness_example(make):
    return make([[1, 1], [0, 1]]), make([[1, 0], [0, 0]]), make([[1, 0], [1, 0]])


def off_by_one(z):
    # z + 1 is a wrong witness: t = m z, so m (z + 1) = t + m != t for m != 0
    return z + StarMatrix.identity(z.rows, z.domain)


@pytest.mark.parametrize("make", EXACT_KINDS.values(), ids=EXACT_KINDS)
@pytest.mark.parametrize("name", ALONG_MEMBERS + BC_MEMBERS)
def test_a_wrong_membership_witness_fails_the_exact_certificate(make, name):
    a, e, c = witness_example(make)
    kind, env = "along", {"a": a, "d": e, "x": e}
    right = {"x_leq_L_d": e, "x_leq_R_d": e}
    if name in BC_MEMBERS:
        kind, env = "bc", {"a": a, "b": e, "c": c, "x": e}
        right = {"x_leq_R_b": e, "b_leq_R_x": e, "x_leq_L_c": e, "c_leq_L_x": c @ a}
    solved = certify(kind, env)
    assert solved.ok and set(solved.residuals.values()) == {0.0}
    assert certify(kind, env, members=right).residuals == solved.residuals
    cert = certify(kind, env, members={**right, name: off_by_one(right[name])})
    assert cert.residuals == {**solved.residuals, name: math.inf}  # never solved again
    out = cert.to_json()
    assert not cert.ok and out["ok"] is False and out["residuals"][name] is None


def test_float_memberships_are_solved_whatever_the_witness():
    a, e, c = witness_example(cm)
    zero = StarMatrix.zeros(2, 2, COMPLEX_FLOAT)
    along = certify("along", {"a": a, "d": e, "x": e}, members=dict.fromkeys(ALONG_MEMBERS, zero))
    bc = certify("bc", {"a": a, "b": e, "c": c, "x": e}, members=dict.fromkeys(BC_MEMBERS, zero))
    assert along.ok and bc.ok
    assert set(along.residuals.values()) | set(bc.residuals.values()) == {0.0}


@pytest.fixture
def wrong_witness(monkeypatch):
    """Once wrong_witness["name"] is set, the membership witness of that name
    that inverse_along or bc_inverse passes to its certificate becomes z + 1;
    wrong_witness["hits"] counts the replacements."""
    real, state = ginv.along.certify, {"name": None, "hits": 0}

    def certify(kind, env, *args, members=None, **kwargs):
        if state["name"] in (members or {}):
            members = {**members, state["name"]: off_by_one(members[state["name"]])}
            state["hits"] += 1
        return real(kind, env, *args, members=members, **kwargs)

    monkeypatch.setattr(ginv.along, "certify", certify)
    return state


@pytest.mark.parametrize("make", EXACT_KINDS.values(), ids=EXACT_KINDS)
@pytest.mark.parametrize("name", ALONG_MEMBERS + BC_MEMBERS)
def test_a_wrong_construction_witness_is_a_route_disagreement(make, name, wrong_witness):
    a, e, c = witness_example(make)
    assert inverse_along(a, e).value == e and bc_inverse(a, e, c) == e  # right witnesses
    wrong_witness["name"] = name
    if name in ALONG_MEMBERS:
        failed = rf"^inverse-along certificate failed: .*'{name}': inf"
        with pytest.raises(RouteDisagreement, match=failed):
            inverse_along(a, e)
    else:
        failed = rf"^\(b,c\)-inverse certificate failed on equations \['{name}'\]$"
        with pytest.raises(RouteDisagreement, match=failed):
            bc_inverse(a, e, c)
    assert wrong_witness["hits"] == 1
