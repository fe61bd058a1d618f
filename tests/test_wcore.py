"""w-core and dual v-core inverses: routes, duality, special cases, units."""

import random
from fractions import Fraction

import numpy as np
import pytest

from ginv import (
    PreconditionFailed,
    StarMatrix,
    core_ep_inverse,
    core_inverse,
    dual_v_core,
    group_inverse,
    ideal_form_membership,
    inverse_along,
    mp_inverse,
    rank,
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
from ginv.domains import GAUSSIAN_RATIONAL, GaussianRational, integer_mod
from ginv.matrix import inverse, left_nullspace, rel_diff, right_nullspace
from ginv.wcore import DUAL_V_CORE_ROUTES, W_CORE_ROUTES

from conftest import assert_w_core_equations, cm, fm, gm, lists, mul_lists, qm, zm

EX1_VALUE = [[1, 0], [0, 0]]


def rand_g(rng, n=2, lo=-2, hi=2):
    return gm([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def test_example_value_all_routes(nilp2_g, w_ex1_g):
    res = w_core(nilp2_g, w_ex1_g)
    assert res.exists
    assert res.value == gm(EX1_VALUE)
    assert_w_core_equations(nilp2_g, w_ex1_g, res.value)
    assert all(v == 0.0 for v in res.certificate.residuals.values())
    for route in W_CORE_ROUTES:
        rr = w_core(nilp2_g, w_ex1_g, route=route)
        assert rr.exists and rr.value == gm(EX1_VALUE), route


def test_example_witnesses(nilp2_g, w_ex1_g):
    res = w_core(nilp2_g, w_ex1_g)
    wit = res.certificate.witnesses
    assert wit["w_along_a"] == nilp2_g  # w^{||a} = a for this pair
    assert wit["projection"] == gm([[0, 0], [0, 1]])
    assert wit["unit"] == StarMatrix.identity(2, GAUSSIAN_RATIONAL)


def test_w_core_exists_examples(nilp2_g, w_ex1_g):
    assert w_core_exists(nilp2_g, w_ex1_g)
    assert not w_core_exists(nilp2_g, StarMatrix.identity(2, GAUSSIAN_RATIONAL))
    i2 = StarMatrix.identity(2, GAUSSIAN_RATIONAL)
    assert w_core_exists(i2, gm([[1, 2], [3, 7]]))


def test_one_core_is_core_inverse():
    # w = 1 reduces to the classical core inverse
    e = gm([[1, 0], [0, 0]])
    i2 = StarMatrix.identity(2, GAUSSIAN_RATIONAL)
    assert w_core(e, i2).value == core_inverse(e)
    assert w_core(i2, i2).value == i2


def test_family_of_w_matrices(nilp2_g):
    # every w of the shape [[*, *], [1, 0]] produces the same w-core inverse
    for x in range(3):
        for y in range(3):
            w = gm([[x, y], [1, 0]])
            assert w_core(nilp2_g, w).value == gm(EX1_VALUE)


def test_construction_not_idempotent(nilp2_g):
    w = gm([[0, 0], [1, 0]])
    res = w_core(nilp2_g, w)
    assert res.value == gm(EX1_VALUE)
    b = res.value
    # b w b = 0, so no x can satisfy x(bw)b = b
    assert (b @ w @ b).is_zero()
    again = w_core(b, w)
    assert not again.exists


def test_projection_route_example(nilp2_g, w_ex1_g):
    res = w_core_via_projection(nilp2_g, w_ex1_g)
    assert res.exists and res.value == gm(EX1_VALUE)
    res2 = w_core_via_projection(nilp2_g, StarMatrix.identity(2, GAUSSIAN_RATIONAL))
    assert not res2.exists  # aw = a has no core inverse


def test_wcore_as_along_examples(nilp2_g, w_ex1_g):
    assert wcore_as_along(nilp2_g, w_ex1_g) == gm(EX1_VALUE)
    i2 = StarMatrix.identity(2, GAUSSIAN_RATIONAL)
    assert wcore_as_along(i2, i2) == i2
    # Hermitian projection with w = 1: a = a^{||aa*}
    p = gm([[1, 0], [0, 0]])
    assert wcore_as_along(p, i2) == p
    assert inverse_along(p, p @ p.adjoint()).value == p


def test_wcore_as_bc_examples(nilp2_g, w_ex1_g):
    assert wcore_as_bc(nilp2_g, w_ex1_g) == gm(EX1_VALUE)
    i2 = StarMatrix.identity(2, GAUSSIAN_RATIONAL)
    assert wcore_as_bc(i2, i2) == i2
    assert wcore_as_bc(nilp2_g, i2) is None  # matches w_core NotExists


def test_dual_v_core_star_dual_of_example(nilp2_g, w_ex1_g):
    res = dual_v_core(nilp2_g.adjoint(), w_ex1_g.adjoint())
    assert res.exists
    assert res.value == gm(EX1_VALUE)  # adjoint of the (Hermitian) example value
    assert all(v == 0.0 for v in res.certificate.residuals.values())


def test_dual_v_core_identity_and_projection():
    i2 = StarMatrix.identity(2, GAUSSIAN_RATIONAL)
    assert dual_v_core(i2, i2).value == i2
    p = gm([[1, 0], [0, 0]])
    assert dual_v_core(p, i2).value == p


def test_star_duality(nilp2_g, w_ex1_g):
    assert star_duality_check(nilp2_g, w_ex1_g)
    i2 = StarMatrix.identity(2, GAUSSIAN_RATIONAL)
    assert star_duality_check(i2, i2)
    rng = random.Random(61)
    for _ in range(10):
        a, w = rand_g(rng), rand_g(rng)
        assert star_duality_check(a, w)


def test_star_duality_float():
    rng = np.random.default_rng(9)
    for _ in range(10):
        a = cm((rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))).tolist())
        w = cm((rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))).tolist())
        assert star_duality_check(a, w)


def test_w_core_of_w_core(nilp2_g, w_ex1_g):
    got = w_core_of_w_core(nilp2_g, w_ex1_g)
    assert got == gm(EX1_VALUE)  # the value is a Hermitian projection, its own core
    i2 = StarMatrix.identity(2, GAUSSIAN_RATIONAL)
    assert w_core_of_w_core(i2, i2) == i2
    with pytest.raises(PreconditionFailed):
        w_core_of_w_core(nilp2_g, i2)


def test_w_core_of_w_core_group_invertible_random():
    rng = random.Random(67)
    i2 = StarMatrix.identity(2, GAUSSIAN_RATIONAL)
    hits = 0
    for _ in range(20):
        a = rand_g(rng)
        if core_inverse(a) is None:
            continue
        hits += 1
        c = core_inverse(a)
        assert w_core_of_w_core(a, i2) == a @ a @ c  # (a_core)_core = a^2 a_core
    assert hits >= 3


def test_w_along_a_equals_wcore_times_a(nilp2_g, w_ex1_g):
    res = w_core(nilp2_g, w_ex1_g)
    wpa = inverse_along(w_ex1_g, nilp2_g)
    assert wpa.exists
    assert wpa.value == res.value @ nilp2_g


def test_wx_is_one_two_three_inverse(nilp2_g, w_ex1_g):
    x = w_core(nilp2_g, w_ex1_g).value
    z = w_ex1_g @ x
    a = nilp2_g
    assert a @ z @ a == a
    assert z @ a @ z == z
    assert (a @ z).adjoint() == a @ z


def test_ideal_form_membership(nilp2_g, w_ex1_g):
    for n in (2, 3):
        assert ideal_form_membership(nilp2_g, w_ex1_g, n)
        assert not ideal_form_membership(
            nilp2_g, StarMatrix.identity(2, GAUSSIAN_RATIONAL), n
        )
    rng = random.Random(71)
    for _ in range(10):
        a, w = rand_g(rng), rand_g(rng)
        ex = w_core_exists(a, w)
        assert ideal_form_membership(a, w, 2) == ex
        assert ideal_form_membership(a, w, 3) == ex


def test_annihilator_characterization_nullspaces(nilp2_g, w_ex1_g):
    # ^0 x = ^0 a and x^0 = (a*)^0, read as nullspace equalities over a field
    a = nilp2_g
    x = w_core(a, w_ex1_g).value
    lx, la = left_nullspace(x), left_nullspace(a)
    assert (lx @ a).is_zero() and (la @ x).is_zero()
    assert rank(x) == rank(a)  # equal dimensions + mutual inclusion
    rx, ra = right_nullspace(x), right_nullspace(a.adjoint())
    assert (x @ ra).is_zero() and (a.adjoint() @ rx).is_zero()


def test_special_case_a_core():
    rng = random.Random(73)
    hits = 0
    for _ in range(20):
        a = rand_g(rng)
        res = special_cases(a, "a_core")
        if res.exists:
            hits += 1
    assert hits >= 3


def test_special_case_astar_core():
    p = gm([[1, 0], [0, 0]])
    res = special_cases(p, "astar_core")
    assert res.exists and res.value == p  # (a+)* a+ = a for a Hermitian projection
    res_d = special_cases(p, "dual_astar_core")
    assert res_d.exists and res_d.value == p
    rng = random.Random(79)
    for _ in range(10):
        a = rand_g(rng)
        assert special_cases(a, "astar_core").exists  # MP always exists over Q(i)
        assert special_cases(a, "dual_astar_core").exists


def test_special_case_pseudo_power():
    a = gm([[0, 1], [0, 0]])
    res = special_cases(a, "pseudo_power")
    assert res.exists and res.index == 2 and res.value.is_zero()
    b = qm([[0, 1, 0], [0, 0, 0], [0, 0, 1]])
    res_b = special_cases(b, "pseudo_power")
    assert res_b.index == 2 and res_b.value == core_ep_inverse(b).value


def test_special_case_unknown():
    with pytest.raises(PreconditionFailed):
        special_cases(gm([[1]]), "bogus")


def test_scaling_law_exact(nilp2_g, w_ex1_g):
    base = w_core(nilp2_g, w_ex1_g).value
    for lam in (GaussianRational(2), GaussianRational(-1), GaussianRational(3, 4)):
        scaled = w_core(nilp2_g.scale(lam), w_ex1_g)
        assert scaled.value == base.scale(GaussianRational(1) / lam)


def test_section3_units_identity():
    i2 = StarMatrix.identity(2, GAUSSIAN_RATIONAL)
    rep = section3_units(i2, i2, i2)
    assert rep.hypothesis_met
    assert all(rep.units.values())
    assert rep.exists_w_core and rep.exists_dual_v_core and rep.exists_dual_w_core
    assert rep.values["w_core_w"] == i2


def test_section3_units_example(nilp2_g, w_ex1_g):
    rep = section3_units(nilp2_g, w_ex1_g, nilp2_g.adjoint())
    assert rep.hypothesis_met  # a* is invertible along a iff a is MP-invertible
    assert rep.exists_w_core and rep.exists_dual_v_core
    assert all(rep.units[n] for n in ("u_wv", "r_wv", "s_wv", "t_wv"))
    assert rep.values["w_core_wv"] == gm([[1, 0], [0, 0]])


def test_section3_units_hypothesis_unmet():
    # v nilpotent is not invertible along an invertible a unless ... pick a case
    a = gm([[1, 0], [0, 1]])
    v = gm([[0, 1], [0, 0]])
    rep = section3_units(a, a, v)
    assert not rep.hypothesis_met
    assert not (rep.exists_w_core and rep.exists_dual_v_core)


def test_section3_units_z6_scalar_case():
    # 1x1 matrices over Z/6Z: a = w = v = 3 with inner inverse 3
    a = zm([[3]])
    rep = section3_units(a, a, a, a_inner=zm([[3]]))
    assert rep.hypothesis_met
    joint = rep.exists_w_core and rep.exists_dual_v_core
    for name in ("u_wv", "r_wv", "s_wv", "t_wv"):
        assert rep.units[name] == joint


def test_float_route_coherence_small():
    rng = np.random.default_rng(17)
    for _ in range(25):
        ra, rw = int(rng.integers(0, 4)), int(rng.integers(0, 4))

        def rand_rank(r):
            if r == 0:
                return np.zeros((3, 3), dtype=complex)
            x = rng.standard_normal((3, r)) + 1j * rng.standard_normal((3, r))
            y = rng.standard_normal((r, 3)) + 1j * rng.standard_normal((r, 3))
            return x @ y

        a = StarMatrix.from_numpy(rand_rank(ra))
        w = StarMatrix.from_numpy(rand_rank(rw))
        ex = rank(a) == rank(a @ w @ a)
        res = w_core(a, w)
        assert res.exists == ex
        if ex:
            assert res.certificate.ok
            assert not res.certificate.warnings


def test_integer_mod_scalar_wcore():
    # 1x1 over Z/6Z: brute-force oracle over the 6 candidates
    a, w = 3, 3
    sols = [
        x
        for x in range(6)
        if (a * w * x * x) % 6 == x and (x * a * w * a) % 6 == a % 6
    ]
    res = w_core(zm([[a]]), zm([[w]]))
    assert res.exists == bool(sols)
    if sols:
        assert res.value.data[0][0] == sols[0]


def test_shape_validation():
    with pytest.raises(Exception):
        w_core(gm([[1, 2]]), gm([[1], [2]]))


def test_dual_routes_on_star_of_example(nilp2_g, w_ex1_g):
    # every dual route alone on (a*, w*) gives the adjoint of the example value
    a, v = nilp2_g.adjoint(), w_ex1_g.adjoint()
    for route in DUAL_V_CORE_ROUTES:
        res = dual_v_core(a, v, route=route)
        assert res.exists and res.value == gm(EX1_VALUE).adjoint(), route
        assert res.certificate.route == route
        assert all(r == 0.0 for r in res.certificate.residuals.values()), route


def test_dual_existence_reasons():
    i2 = StarMatrix.identity(2, GAUSSIAN_RATIONAL)
    res = dual_v_core(gm([[0, 1], [0, 0]]), i2)
    assert not res.exists and res.reason == "v is not invertible along a"
    # over GF(2) with the transpose, a a* = 0: no {1,4}-inverse, yet a v a = a
    a, v = fm([[1, 1], [0, 0]], p=2), fm([[1, 0], [0, 0]], p=2)
    assert inverse_along(v, a).exists
    res = dual_v_core(a, v)
    assert not res.exists and res.reason == "a has no {1,4}-inverse"
    res = dual_v_core(cm([[0, 1], [0, 0]]), cm([[1, 0], [0, 1]]))
    assert not res.exists and res.reason == "rank(A) != rank(AVA)"


def test_dual_witnesses_keep_dual_keys(nilp2_g, w_ex1_g):
    a, v = nilp2_g.adjoint(), w_ex1_g.adjoint()
    res = dual_v_core(a, v)
    wit = res.certificate.witnesses
    assert wit["v_along_a"] == inverse_along(v, a).value
    assert wit["one_four"] == mp_inverse(a)
    # y = a* a s^{-1} with s = v a a* a + 1 - a^- a
    s = wit["section3_unit_dual"]
    assert a.adjoint() @ a @ inverse(s) == res.value
    assert not {"w_along_a", "one_three", "section3_unit"} & set(wit)
