"""w-core and dual v-core inverses: routes, duality, special cases, units."""

import hashlib
import json
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from ginv import (
    DomainMismatch,
    PreconditionFailed,
    RouteDisagreement,
    ShapeMismatch,
    StarMatrix,
    ToleranceWarning,
    bc_inverse,
    core_ep_inverse,
    core_inverse,
    dual_v_core,
    enumerate_ring,
    group_inverse,
    ideal_form_membership,
    inner_inverse,
    inverse_along,
    inverse_along_via_unit,
    mp_inverse,
    mp_via_unit,
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
import ginv.matrix
from ginv.domains import GAUSSIAN_RATIONAL, RATIONAL, GaussianRational, integer_mod, prime_field
from ginv.matrix import inverse, left_nullspace, matrix_to_json, rel_diff, right_nullspace
from ginv import wcore
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


@pytest.mark.parametrize("entry", [w_core, dual_v_core, w_core_exists])
def test_mixed_domains_raise_domain_mismatch(entry):
    # as inverse_along, bc_inverse and the matrix operations do
    with pytest.raises(DomainMismatch, match="inputs must share a domain"):
        entry(qm([[1, 0], [0, 0]]), fm([[1, 0], [0, 1]]))


def test_a_non_square_dual_v_core_operand_raises_a_shape_mismatch_naming_no_kind():
    # one shape guard serves every kind, so its message names none of them
    with pytest.raises(ShapeMismatch) as exc:
        dual_v_core(qm([[1, 0]]), StarMatrix.identity(2, RATIONAL))
    assert "w-core" not in str(exc.value)


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


def _failing_route(value):
    def route(ctx):
        return wcore._RouteOutcome(value=value)

    return route


def test_single_route_failing_certificate_carries_its_reason(monkeypatch):
    # a single route returns its value with exists false when the value fails
    # its certificate; the reason names the failing equations, as the CLI does
    a, v = qm([[1, 1], [0, 0]]), qm([[1, 0], [0, 1]])
    monkeypatch.setitem(wcore._ROUTES, "group_wa", _failing_route(qm([[1, 0], [1, 0]])))
    res = dual_v_core(a, v, route="group_av")
    assert res.exists is False and res.value is not None and not res.certificate.ok
    failed = [k for k, r in res.certificate.residuals.items() if r > res.certificate.tolerance]
    assert failed and res.reason == f"certificate fails equations {failed}"
    assert res.reason == res.certificate.failure()
    assert dual_v_core(a, v, route="group_va").reason is None


def test_single_float_route_failing_certificate_carries_its_reason():
    # a = U diag(1, s1, s2, 0) V with Haar U, V and s log-uniform, v Gaussian:
    # the group_av value misses F1 and F3 (F3 1.2e-8 against 1e-8 here)
    g = np.random.default_rng(0)

    def gauss(m, n):
        return (g.standard_normal((m, n)) + 1j * g.standard_normal((m, n))) / np.sqrt(2)

    def haar(n):
        q, r = np.linalg.qr(gauss(n, n))
        return q * (np.diag(r) / np.abs(np.diag(r)))

    u, w = haar(4), haar(4)
    s = np.sort(10 ** g.uniform(-6, 0, 2))[::-1]
    a, v = u @ np.diag([1, s[0], s[1], 0]) @ w, gauss(4, 4)
    res = dual_v_core(cm(a.tolist()), cm(v.tolist()), route="group_av")
    cert = res.certificate
    assert res.exists == cert.ok
    assert res.reason == (None if cert.ok else cert.failure())
    if not cert.ok:
        assert res.reason.startswith("certificate fails equations [")


# ---------------------------------------------------------------------------
# pins: exact outputs byte for byte, and how often one call factors a matrix

PIN_DOMAINS = {
    "rational": RATIONAL,
    "gaussian_rational": GAUSSIAN_RATIONAL,
    "gf7": prime_field(7),
    "zmod6": integer_mod(6),
}


def _pin_entry(dom, rng):
    if dom is GAUSSIAN_RATIONAL:
        return GaussianRational(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2), 2))
    if dom is RATIONAL:
        return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
    return dom.from_int(rng.randrange(dom.modulus))


def _pin_matrix(dom, rng, m, n):
    return StarMatrix.from_rows([[_pin_entry(dom, rng) for _ in range(n)] for _ in range(m)], dom)


def pin_pairs(dom, seed):
    """Seeded (a, w) of sizes 2-4 (2-3 over Z/6): invertible-looking,
    low-rank a, and low-rank a with lower-rank w."""
    rng = random.Random(seed)
    for n in (2, 3) if dom.modulus == 6 else (2, 3, 4):
        for ra, rw in ((n, n), (n - 1, n), (n - 1, n - 2)):
            a = _pin_matrix(dom, rng, n, ra) @ _pin_matrix(dom, rng, ra, n)
            w = _pin_matrix(dom, rng, n, max(rw, 1)) @ _pin_matrix(dom, rng, max(rw, 1), n)
            yield a, w


def output_digest(dom, seed=7, witnesses=True):
    """sha256 of every w_core / dual_v_core output on the seeded pairs: the
    existence flag, matrix_to_json(value), certificate.to_json() and reason.
    witnesses=False keeps the witness names and drops their values, which
    need not be unique (a {1,3}-inverse over Z/n, say)."""
    blob = []
    for a, w in pin_pairs(dom, seed):
        for call in (w_core, dual_v_core):
            res = call(a, w)
            value = None if res.value is None else matrix_to_json(res.value)
            cert = None if res.certificate is None else res.certificate.to_json()
            if cert is not None and not witnesses:
                cert["witnesses"] = sorted(cert["witnesses"])
            blob.append([res.exists, value, cert, res.reason])
    return hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()[:16]


# taken from kernels that eliminate afresh at every call: keeping the
# factorizations on the matrices must not change a byte
OUTPUT_DIGESTS = {
    "rational": "3a57458f4470be6a",
    "gaussian_rational": "0a777d239cc369cf",
    "gf7": "2f3a1a96040d76ef",
    "zmod6": "fe3f15db4b298e2a",
}


@pytest.mark.parametrize("name", PIN_DOMAINS)
def test_exact_outputs_are_pinned_byte_for_byte(name):
    assert output_digest(PIN_DOMAINS[name]) == OUTPUT_DIGESTS[name]


# Z/6 without witness values, as the exhaustive Z/n solve gave them: the
# Howell elimination that replaced it finds other witnesses, never other
# answers, residuals, reasons or warnings
WITNESS_FREE_DIGESTS = {"zmod6": "5ac26e1a7d253fc2"}


@pytest.mark.parametrize("name", WITNESS_FREE_DIGESTS)
def test_exact_outputs_without_witness_values_are_pinned(name):
    assert output_digest(PIN_DOMAINS[name], witnesses=False) == WITNESS_FREE_DIGESTS[name]


def low_rank_float_pair(n=8, seed=3):
    g = np.random.default_rng(seed)

    def cgauss(m, k):
        return g.standard_normal((m, k)) + 1j * g.standard_normal((m, k))

    a = cgauss(n, n // 2) @ cgauss(n // 2, n)
    return StarMatrix.from_numpy(a), StarMatrix.from_numpy(cgauss(n, n))


def counting(monkeypatch, owner, name):
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


# a complex matrix is decomposed once however many ranks, solves, transposes
# and adjoints read it, and an exact one eliminated once for its ranks and
# factorizations; factoring afresh at every call takes 33 and 21 SVDs and 51
# eliminations here.  (aw)^# is computed once per call, and a float inverse
# is read from the kept SVD, with no LU factorization.  In float the {1,3}-
# and core inverses of aw read aw's kept SVD, (aw)^# is Cline's formula on its
# factors (one r x r SVD), and the inverse of w along a reads the context's
# awa, factored once.  An exact certificate decides the along and bc
# memberships by the construction's witnesses, and G's right inverse in the
# inner inverse is read from its pivots: 39 eliminations before both
SVD_BUDGET = {"w_core": 10, "dual_v_core": 7}
# pseudoinverses formed per call (distinct matrices pinv returns): each float
# matrix keeps its pseudoinverse for its thresholds, so a second pinv of one
# instance reads it back; 22 and 12 when every call forms it again
PINV_BUDGET = {"w_core": 17, "dual_v_core": 8}
RREF_BUDGET = 29
# eliminations of one call on fresh operands: inverse_along and bc_inverse
# solve twice against dad / cab, the inner inverse factors a and solves X F = 1;
# 4, 6 and 3 if the witnesses were solved for again
ELIMINATIONS = {"inverse_along": 2, "bc_inverse": 2, "inner_inverse": 2}


@pytest.mark.parametrize("call", [w_core, dual_v_core], ids=["w_core", "dual_v_core"])
def test_svd_count_of_a_float_call_is_pinned(call, monkeypatch):
    a, w = low_rank_float_pair()
    svd = counting(monkeypatch, np.linalg, "svd")
    inv = counting(monkeypatch, np.linalg, "inv")
    res = call(a, w)
    assert res.exists and res.certificate.ok
    assert len(svd) <= SVD_BUDGET[call.__name__]
    assert not inv


@pytest.mark.parametrize("call", [w_core, dual_v_core], ids=["w_core", "dual_v_core"])
def test_pinv_count_of_a_float_call_is_pinned(call, monkeypatch):
    formed = []
    real = ginv.matrix.pinv

    def counted(*args, **kwargs):
        p = real(*args, **kwargs)
        if not any(p is q for q in formed):  # formed holds p, so no id is reused
            formed.append(p)
        return p

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("ginv") and getattr(mod, "pinv", None) is real:
            monkeypatch.setattr(mod, "pinv", counted)
    a, w = low_rank_float_pair()
    res = call(a, w)
    assert res.exists and res.certificate.ok
    assert len(formed) <= PINV_BUDGET[call.__name__]


def test_elimination_count_of_an_exact_pair_is_pinned(monkeypatch):
    a, w = list(pin_pairs(GAUSSIAN_RATIONAL, 7))[4]  # n = 3, rank(a) = 2
    rref = counting(monkeypatch, ginv.matrix, "_rref")
    assert w_core(a, w).exists and dual_v_core(a, w).exists
    assert len(rref) <= RREF_BUDGET


@pytest.mark.parametrize("name", ELIMINATIONS)
def test_elimination_count_of_one_construction_is_pinned(name, monkeypatch):
    a, _ = list(pin_pairs(GAUSSIAN_RATIONAL, 7))[4]
    s = a.adjoint()  # a fresh matrix: along s and (s, s) give the MP inverse
    calls = {
        "inverse_along": lambda: inverse_along(a, s).value,
        "bc_inverse": lambda: bc_inverse(a, s, s),
        "inner_inverse": lambda: inner_inverse(a),
    }
    rref = counting(monkeypatch, ginv.matrix, "_rref")
    assert calls[name]() is not None
    assert len(rref) == ELIMINATIONS[name]


def test_float_w_core_keeps_its_value_when_as_bc_fails_near_tolerance(failing_bc_certificate):
    # the (a, a*)-inverse of aw fails its certificate; the other routes agree
    a, w = cm([[1, 0], [0, 0]]), cm([[1, 0], [0, 1]])
    with pytest.warns(ToleranceWarning):
        res = w_core(a, w)
    assert res.exists and rel_diff(res.value, a) < 1e-12
    assert any(m.startswith("route as_bc failed near tolerance") for m in res.certificate.warnings)


# a = diag(1, 0) over Q; x is not an inner inverse of a: axa = diag(5, 0)
_BAD_INNER = qm([[5, 7], [1, 3]])


@pytest.mark.parametrize(
    "call",
    [
        lambda a, w: w_core(a, w, a_inner=_BAD_INNER),
        lambda a, w: w_core(a, w, route="section3_unit", a_inner=_BAD_INNER),
        lambda a, w: section3_units(a, w, w, a_inner=_BAD_INNER),
        lambda a, w: mp_via_unit(a, _BAD_INNER),
        lambda a, w: inverse_along_via_unit(w, a, _BAD_INNER),
    ],
    ids=["w_core", "w_core_section3_unit", "section3_units", "mp_via_unit", "along_via_unit"],
)
def test_a_supplied_witness_that_is_not_an_inner_inverse_is_rejected(call):
    a, w = qm([[1, 0], [0, 0]]), StarMatrix.identity(2, RATIONAL)
    with pytest.raises(PreconditionFailed, match="is not an inner inverse"):
        call(a, w)


@pytest.mark.parametrize("route", ["all", "section3_unit"])
def test_a_non_canonical_inner_inverse_gives_the_same_w_core(route):
    a, w = qm([[1, 0], [0, 0]]), qm([[2, 1], [1, 1]])
    other = qm([[1, 4], [-3, 9]])  # a other a = a, and other is not inner_inverse(a)
    assert a @ other @ a == a and other != wcore.inner_inverse(a)
    got, want = w_core(a, w, route=route, a_inner=other), w_core(a, w, route=route)
    assert got.exists and got.value == want.value


def test_dual_v_core_route_names_keep_their_order():
    # the public names, in the order the CLI's "choose from (...)" lists them
    names = ("mary_14", "dual_core_of_va", "group_va", "group_av", "rank_formula", "section3_unit")
    assert DUAL_V_CORE_ROUTES == names


# the reason each single route gives for a = e12 over Q(i), w = v = 1: a is
# nilpotent, so neither inverse exists and every route says why
SINGLE_ROUTE_REASONS = {
    "mary_13": "w is not invertible along a",
    "core_of_aw": "aw has no core inverse",
    "projection_unit": "aw has no core inverse",
    "rank_formula": "rank(A) != rank(AWA)",
    "section3_unit": "a a* a w + 1 - a a^- is not invertible",
    "as_along": "aw is not invertible along aa*",
    "as_bc": "aw is not (a, a*)-invertible",
}
DUAL_SINGLE_ROUTE_REASONS = {
    "mary_14": "v is not invertible along a",
    "dual_core_of_va": "va has no dual-core inverse",
    "group_va": "va has no group inverse",
    "group_av": "av has no group inverse",
    "rank_formula": "rank(A) != rank(AVA)",
    "section3_unit": "v a a* a + 1 - a^- a is not invertible",
}


def test_single_routes_name_why_no_inverse_exists():
    a, one = gm([[0, 1], [0, 0]]), StarMatrix.identity(2, GAUSSIAN_RATIONAL)
    got = {route: w_core(a, one, route=route) for route in W_CORE_ROUTES}
    assert not any(res.exists for res in got.values())
    assert {route: res.reason for route, res in got.items()} == SINGLE_ROUTE_REASONS
    dual = {route: dual_v_core(a, one, route=route) for route in DUAL_V_CORE_ROUTES}
    assert not any(res.exists for res in dual.values())
    assert {route: res.reason for route, res in dual.items()} == DUAL_SINGLE_ROUTE_REASONS
    # each dual reason is the wording image of its w-core-form route's reason
    # on (a*, v*), the pair the dual routes run on
    form = wcore._DUAL_FORM
    ctx = wcore._Context(a.adjoint(), one.adjoint(), ginv.matrix.DEFAULT_TOL)
    for route, reason in DUAL_SINGLE_ROUTE_REASONS.items():
        assert form.wording[ctx.route(form.routes[route]).reason] == reason


def test_definite_only_routes_are_inapplicable_over_gf7():
    # rank_formula and section3_unit need a definite involution, which GF(7)'s
    # transpose is not: run alone, each says so instead of answering
    a, one = fm([[1, 2], [0, 0]], p=7), StarMatrix.identity(2, prime_field(7))
    res = w_core(a, one, route="rank_formula")
    assert not res.exists and res.reason == "route rank_formula not applicable here"
    res = dual_v_core(a, one, route="section3_unit")
    assert not res.exists and res.reason == "route section3_unit not applicable here"


def test_wcore_as_along_needs_an_mp_invertible_a():
    # over GF(5), a a* = 0 for a = [[1, 2], [0, 0]], so a has no MP inverse
    a = fm([[1, 2], [0, 0]], p=5)
    assert mp_inverse(a) is None
    with pytest.raises(PreconditionFailed, match="MP-invertible"):
        wcore_as_along(a, StarMatrix.identity(2, prime_field(5)))


def test_wcore_as_bc_over_zmod_equals_the_w_core_inverse():
    # Drazin's criterion for the (a, a*)-inverse of aw needs solves only, so
    # the route runs over Z/n; 3 is a self-adjoint idempotent of Z/6
    a, one = zm([[3, 0], [0, 1]]), StarMatrix.identity(2, integer_mod(6))
    ref = w_core(a, one)
    assert ref.exists and wcore_as_bc(a, one) == ref.value == a
    w = zm([[0, 1], [1, 1]])
    assert wcore_as_bc(a, w) == w_core(a, w).value == zm([[3, 3], [3, 4]])
    nilp = zm([[0, 1], [0, 0]])
    assert not w_core(nilp, one).exists and wcore_as_bc(nilp, one) is None


def test_w_core_over_zmod_runs_the_as_bc_route(monkeypatch):
    ran = []
    real = wcore._ROUTES["as_bc"]
    monkeypatch.setitem(wcore._ROUTES, "as_bc", lambda ctx: ran.append(ctx) or real(ctx))
    a, w = zm([[3, 0], [0, 1]]), zm([[0, 1], [1, 1]])
    res = w_core(a, w, route="all")
    assert res.exists and len(ran) == 1
    assert ran[0].outcomes["as_bc"].value == res.value


@pytest.mark.parametrize("call, route", [(wcore_as_along, "as_along"), (wcore_as_bc, "as_bc")])
def test_checked_route_that_finds_nothing_while_the_w_core_exists_raises(call, route, monkeypatch):
    # over Q the w-core inverse of diag(1, 0) with w = 1 exists, so an exact
    # route that finds none is an internal fault, for both checked routes
    a, one = qm([[1, 0], [0, 0]]), StarMatrix.identity(2, RATIONAL)
    assert call(a, one) == a
    monkeypatch.setitem(wcore._ROUTES, route, lambda ctx: wcore._RouteOutcome(reason="none"))
    with pytest.raises(RouteDisagreement):
        call(a, one)


@pytest.mark.parametrize("call, route", [(wcore_as_along, "as_along"), (wcore_as_bc, "as_bc")])
def test_checked_route_whose_value_differs_raises(call, route, monkeypatch):
    a, one = qm([[1, 0], [0, 0]]), StarMatrix.identity(2, RATIONAL)
    monkeypatch.setitem(wcore._ROUTES, route, _failing_route(qm([[1, 1], [0, 0]])))
    with pytest.raises(RouteDisagreement):
        call(a, one)


# (aw)_core replaced by x = [[1, 1], [0, 0]] for a = diag(1, 0), w = 1: then
# p = 1 - aw x = [[0, -1], [0, 1]] is idempotent with pa = 0 but not Hermitian


def test_float_projection_unit_refuses_a_lossy_projection(monkeypatch):
    monkeypatch.setitem(wcore._SHARED, "core_aw", lambda c: cm([[1, 1], [0, 0]]))
    res = w_core(cm([[1, 0], [0, 0]]), cm([[1, 0], [0, 1]]), route="projection_unit")
    assert not res.exists and res.value is None
    assert res.reason == "projection construction lost precision"


def test_exact_projection_unit_leaves_the_projection_to_the_certificate(monkeypatch):
    # exact: the core5 guard already made p a projection, so the route does not
    # test it again; this p passes pa = 0, and the certificate refuses the value
    monkeypatch.setitem(wcore._SHARED, "core_aw", lambda c: qm([[1, 1], [0, 0]]))
    res = w_core(qm([[1, 0], [0, 0]]), qm([[1, 0], [0, 1]]), route="projection_unit")
    assert not res.exists and res.value == qm([[1, 1], [0, 0]])
    assert res.reason == "certificate fails equations ['E3']"  # (awx)* = awx


# ---------------------------------------------------------------------------
# the rank_formula value A (AWA)^+: the identity behind dropping A A^+


@pytest.mark.parametrize("spec", ["zmod:12", "mat:2:gf2", "mat:2:gf3", "mat:3:gf2", "mat:2:gf5"])
def test_a_awa_mp_absorbs_every_one_three_projection(spec):
    # a (awa)^+ a t = a (awa)^+ for every {1,3}-inverse t of a wherever awa
    # has an MP inverse: p = a t is Hermitian with pa = a, so (awa)^+ p =
    # (awa)^+ ((awa)^+)* (p awa)* = (awa)^+.  The rank_formula route adds
    # aR = awaR, which the identity does not need.  And a (awa)^+ is a_w
    # wherever both exist
    ring = enumerate_ring(spec)
    mul, mp, t13 = ring.mul_arr, ring.table("mp_inv"), ring.table("one_three_set")
    ids, (first, count) = ring.table("right_ideal")[0], ring.table("wcore_solutions")
    a, w = np.indices((ring.size,) * 2, sparse=True)
    awa = mul[mul[a, w], a]
    x = mul[a, np.maximum(mp[awa], 0)]  # read only where mp[awa] >= 0
    hyp = (mp[awa] >= 0) & t13.any(axis=1)[:, None]
    assert (hyp & (ids[a] == ids[awa]) & (count > 0)).any()
    at, tt = np.nonzero(t13)  # every (a, t) with t a {1,3}-inverse of a
    xa = x[at]  # one row of w per (a, t)
    held = mul[mul[xa, at[:, None]], tt[:, None]] == xa
    assert held[hyp[at]].all()
    both = (count > 0) & (mp[awa] >= 0)
    assert (x[both] == first[both]).all() and both.any()


@pytest.mark.parametrize("dom", [RATIONAL, GAUSSIAN_RATIONAL], ids=["rational", "gaussian"])
@pytest.mark.parametrize("call", [w_core, dual_v_core], ids=["w_core", "dual_v_core"])
def test_rank_formula_route_equals_route_all_exactly(dom, call):
    seen = 0
    for a, w in pin_pairs(dom, 7):
        ref, one = call(a, w), call(a, w, route="rank_formula")
        assert one.exists == ref.exists
        if ref.exists:
            assert one.value == ref.value and one.certificate.ok
            seen += 1
    assert seen


# a = diag(1, 0), w = 0 over Q: awa = 0, so a has no w-core inverse, and each
# route run alone refuses with its own reason, among them the two that the
# nilpotent pair above never reaches
ZERO_W_ROUTE_REASONS = {
    "mary_13": "w is not invertible along a",
    "core_of_aw": "a is not in awS",
    "projection_unit": "projection criterion fails: pa != 0",
    "rank_formula": "rank(A) != rank(AWA)",
    "section3_unit": "a a* a w + 1 - a a^- is not invertible",
    "as_along": "aw is not invertible along aa*",
    "as_bc": "aw is not (a, a*)-invertible",
}


@pytest.mark.parametrize("route", W_CORE_ROUTES)
def test_each_single_route_refuses_a_zero_w_with_its_own_reason(route):
    res = w_core(qm([[1, 0], [0, 0]]), qm([[0, 0], [0, 0]]), route=route)
    assert not res.exists and res.value is None and res.certificate is None
    assert res.reason == ZERO_W_ROUTE_REASONS[route]


def ill_conditioned_pair(n, seed):
    """a = U diag(geomspace(1, 10**-4.1, n)) V* and w = V U* for random
    unitaries U, V, so that AWA = U diag(s)^2 V* has condition number 1.6e8,
    past the 1e8 at which the inverse of w along a is marked degraded."""
    g = np.random.default_rng(seed)

    def unitary():
        z = (g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))) / np.sqrt(2)
        q, r = np.linalg.qr(z)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    u, v = unitary(), unitary()
    a = (u * np.geomspace(1, 10**-4.1, n)) @ v.conj().T
    return StarMatrix.from_numpy(a), StarMatrix.from_numpy(v @ u.conj().T)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize(
    "call, route", [(w_core, "mary_13"), (dual_v_core, "mary_14")], ids=["w_core", "dual_v_core"]
)
def test_a_degraded_route_is_kept_out_of_the_agreement_set(call, route, n, seed):
    # the route through the inverse of w along a carries the squared
    # conditioning; taken as the value it leaves residuals up to about 1e-9
    res = call(*ill_conditioned_pair(n, seed))
    assert res.exists and res.certificate.ok
    assert f"route {route} degraded by conditioning; excluded" in res.certificate.warnings
    assert max(res.certificate.residuals.values()) <= 1e-11


def test_an_inverse_along_whose_certificate_fails_is_kept_out_of_the_agreement_set(monkeypatch):
    # a float inverse along is judged at its certificate's own tolerance, and
    # mary_13 does not offer a value built on one that fails it
    def failing(c):
        res = inverse_along(c.w, c.a, c.tol, dad=c.awa)
        res.certificate.ok = False
        return res

    monkeypatch.setitem(wcore._SHARED, "w_along_a", failing)
    a, w = low_rank_float_pair()
    res = w_core(a, w)
    assert res.exists and res.certificate.ok
    assert "route mary_13 degraded by conditioning; excluded" in res.certificate.warnings


# ROADMAP item 1 at ordinary magnitudes: complex a = s I with w = v = [[1, 2],
# [3, 4]], so the answers are (aw)^-1 and (va)^-1 and κ(aw) is about 15.  The
# unit t = a a* a w + 1 - a a^- of section3_unit adds an s^3 term to the O(eps)
# rounding of 1 - a a^-: route "all" raises RouteDisagreement, and route
# section3_unit alone passes its certificate with a wrong value (87 % off at
# s = 1e-8), since the residual scales are floored at 1
@pytest.mark.xfail(strict=True, raises=(AssertionError, RouteDisagreement))
@pytest.mark.parametrize("s", [1e-4, 1e-8])
@pytest.mark.parametrize("route", ["all", "section3_unit"])
@pytest.mark.parametrize("call", [w_core, dual_v_core], ids=["w_core", "dual_v_core"])
def test_roadmap_item_1_small_scalar_a_with_a_well_conditioned_w(call, route, s):
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    res = call(StarMatrix.from_numpy(s * np.eye(2)), StarMatrix.from_numpy(m), route=route)
    assert res.exists and res.certificate.ok
    assert rel_diff(res.value, StarMatrix.from_numpy(np.linalg.inv(s * m))) <= 1e-10
