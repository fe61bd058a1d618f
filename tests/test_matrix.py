"""StarMatrix algebra, exact/float rank and solve machinery, JSON format."""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ginv.equations
import ginv.matrix
from ginv import (
    DomainMismatch,
    PreconditionFailed,
    ShapeMismatch,
    StarMatrix,
    UnsupportedDomain,
    full_rank_factorize,
    is_projection,
    matrix_from_json,
    matrix_to_json,
    rank,
    solve_left,
    solve_right,
)
from ginv.domains import (
    COMPLEX_FLOAT,
    GAUSSIAN_RATIONAL,
    RATIONAL,
    GaussianRational,
    integer_mod,
    prime_field,
)
from ginv.along import green_leq, inverse_along_via_unit
from ginv.matrix import (
    DEFAULT_TOL,
    ToleranceThresholds,
    acceptance_bound,
    all_within,
    condition_number,
    disagree,
    inverse,
    left_nullspace,
    pinv,
    rel_diff,
    right_nullspace,
)
from ginv.regular import mp_via_unit

from conftest import adj_lists, cm, eq_lists, fm, gm, lists, mul_lists, qm, zm


def small_gf5_matrices(rows=3, cols=3):
    return st.lists(
        st.lists(st.integers(0, 4), min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(lambda r: fm(r, 5))


def test_adjoint_of_real_nilpotent():
    assert qm([[0, 1], [0, 0]]).adjoint() == qm([[0, 0], [1, 0]])


def test_product_example():
    a = qm([[3, 6], [1, 0]])
    b = qm([[0, 1], [0, 0]])
    got = a @ b
    assert lists(got) == mul_lists(lists(a), lists(b))
    assert got == qm([[0, 3], [0, 1]])


@settings(max_examples=40)
@given(small_gf5_matrices())
def test_adjoint_is_involutive(a):
    assert a.adjoint().adjoint() == a


@settings(max_examples=40)
@given(small_gf5_matrices())
def test_rank_invariant_under_adjoint(a):
    assert rank(a) == rank(a.adjoint())


def test_rank_examples():
    assert rank(qm([[0, 1], [0, 0]])) == 1
    assert rank(StarMatrix.identity(3, RATIONAL)) == 3
    assert rank(qm([[1, 2], [2, 4]])) == 1


def test_rank_unsupported_over_composite_modulus():
    with pytest.raises(UnsupportedDomain):
        rank(zm([[1, 0], [0, 1]]))


def test_full_rank_factorize_nilpotent():
    frf = full_rank_factorize(qm([[0, 1], [0, 0]]))
    assert frf.rank == 1
    assert frf.f == qm([[1], [0]])
    assert frf.g == qm([[0, 1]])


def test_full_rank_factorize_zero_and_identity():
    z = StarMatrix.zeros(2, 3, RATIONAL)
    frf = full_rank_factorize(z)
    assert frf.rank == 0 and frf.f.shape == (2, 0) and frf.g.shape == (0, 3)
    assert frf.f @ frf.g == z
    i2 = StarMatrix.identity(2, RATIONAL)
    frf = full_rank_factorize(i2)
    assert frf.f == i2 and frf.g == i2


@settings(max_examples=40)
@given(small_gf5_matrices(3, 4))
def test_full_rank_factorize_reproduces(a):
    frf = full_rank_factorize(a)
    assert frf.f @ frf.g == a
    assert rank(frf.f) == frf.rank == rank(frf.g)


def test_full_rank_factorize_float():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    y = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    a = StarMatrix.from_numpy(x @ y)
    frf = full_rank_factorize(a)
    assert frf.rank == 2
    assert rel_diff(frf.f @ frf.g, a) <= DEFAULT_TOL.residual_rel_tol


def test_solve_right_identity():
    b = qm([[1, 2], [3, 4]])
    assert solve_right(StarMatrix.identity(2, RATIONAL), b) == b


def test_solve_right_particular_solution():
    a = qm([[0, 1], [0, 0]])
    x = solve_right(a, a)
    assert x == qm([[0, 0], [0, 1]])
    assert a @ x == a


def test_solve_right_inconsistent():
    assert solve_right(StarMatrix.zeros(2, 2, RATIONAL), qm([[1, 0], [0, 0]])) is None


@settings(max_examples=40)
@given(small_gf5_matrices(3, 3), small_gf5_matrices(3, 2))
def test_solve_right_verifies_when_solvable(a, b):
    x = solve_right(a, b)
    if x is not None:
        assert a @ x == b


def test_solve_float_minimum_norm_and_residual():
    a = cm([[1, 0], [0, 0]])
    b = cm([[2, 0], [0, 0]])
    x = solve_right(a, b)
    an, xn, bn = a.to_numpy(), x.to_numpy(), b.to_numpy()
    res = np.linalg.norm(an @ xn - bn)
    assert res <= DEFAULT_TOL.residual_rel_tol * (
        np.linalg.norm(an) * np.linalg.norm(xn) + np.linalg.norm(bn)
    )
    assert solve_right(a, cm([[0, 0], [0, 1]])) is None


def test_float_rank_svd():
    a = cm([[1, 0], [1e-14, 0]])
    assert rank(a) == 1
    assert rank(cm([[0, 0], [0, 0]])) == 0


def test_is_projection():
    assert is_projection(qm([[1, 0], [0, 0]]))
    assert not is_projection(qm([[1, 1], [0, 0]]))  # idempotent but not Hermitian
    assert is_projection(StarMatrix.identity(3, RATIONAL))


def test_integer_mod_solve():
    a = zm([[3]])
    x = solve_right(a, zm([[3]]))
    assert x is not None and (3 * x.data[0][0]) % 6 == 3
    assert solve_right(zm([[2]]), zm([[1]])) is None  # 2x=1 has no solution mod 6


def test_integer_mod_solve_has_no_size_cap():
    # 12**9 candidates per column: beyond any exhaustive search
    big = zm([[1] * 9 for _ in range(9)], n=12)
    x = solve_right(big, big)
    assert x is not None and big @ x == big
    # every entry of big x is x1 + ... + x9: a right side with two values has no solution
    b = zm([[1], [2], [3], [4], [5], [6], [7], [8], [9]], n=12)
    assert solve_right(big, b) is None
    assert solve_right(big.scale(2), zm([[1]] * 9, n=12)) is None  # 2 (x1 + ... + x9) = 1


def test_shape_and_domain_mismatch():
    with pytest.raises(ShapeMismatch):
        qm([[1, 2]]) + qm([[1], [2]])
    with pytest.raises(DomainMismatch):
        qm([[1]]) @ fm([[1]], 5)
    with pytest.raises(ShapeMismatch):
        qm([[1, 2]]) @ qm([[1, 2]])


def test_inverse_exact_and_none():
    a = qm([[1, 1], [0, 1]])
    ai = inverse(a)
    assert a @ ai == StarMatrix.identity(2, RATIONAL)
    assert inverse(qm([[1, 2], [2, 4]])) is None


def test_nullspaces():
    a = qm([[1, 2], [2, 4]])
    ns = right_nullspace(a)
    assert ns.shape == (2, 1)
    assert (a @ ns).is_zero()
    lns = left_nullspace(a)
    assert lns.shape == (1, 2)
    assert (lns @ a).is_zero()


def test_scale_and_neg():
    a = gm([[1, 2], [3, 4]])
    assert a.scale(Fraction(1, 2)) + a.scale(Fraction(1, 2)) == a
    assert -a + a == StarMatrix.zeros(2, 2, GAUSSIAN_RATIONAL)


@pytest.mark.parametrize(
    "mat",
    [
        qm([[1, Fraction(1, 3)], [0, 2]]),
        gm([[(1, 2), 0], [3, (0, -1)]]),
        fm([[1, 2], [3, 4]], 5),
        zm([[7, 0], [1, 11]], 12),
        cm([[1.5 + 2j, 0], [0.25, -1j]]),
    ],
)
def test_matrix_json_round_trip(mat):
    blob = json.dumps(matrix_to_json(mat))
    back = matrix_from_json(json.loads(blob))
    if mat.domain.exact:
        assert back == mat
    else:
        assert rel_diff(back, mat) == 0.0


def test_matrix_json_rejects_bad_shape():
    obj = matrix_to_json(qm([[1, 2], [3, 4]]))
    obj["rows"] = 3
    with pytest.raises(ShapeMismatch):
        matrix_from_json(obj)


def test_float_serialization_round_trips_exactly():
    x = 0.1 + 0.2  # not representable in short decimal
    m = cm([[x]])
    back = matrix_from_json(json.loads(json.dumps(matrix_to_json(m))))
    assert back.data[0][0] == m.data[0][0]


def test_solve_left_matches_transposed_solve():
    rng = random.Random(7)
    a = fm([[rng.randrange(5) for _ in range(3)] for _ in range(3)], 5)
    b = fm([[rng.randrange(5) for _ in range(3)] for _ in range(2)], 5)
    x = solve_left(a, b)
    if x is not None:
        assert x @ a == b


def test_projection_float_tolerance():
    p = cm([[1, 1e-12], [1e-12, 0]])
    assert is_projection(p)


def test_adjoint_conjugates():
    a = gm([[(0, 1)]])
    assert lists(a.adjoint()) == adj_lists(lists(a))


# ---------------------------------------------------------------------------
# the acceptance rule: one bound, one value comparison, one all-values test

RULE_DOMAINS = (RATIONAL, GAUSSIAN_RATIONAL, prime_field(7), integer_mod(6), COMPLEX_FLOAT)
RULE_TOLS = (DEFAULT_TOL, ToleranceThresholds(rank_rel_tol=1e-6, residual_rel_tol=3e-5))


@pytest.mark.parametrize("tol", RULE_TOLS)
@pytest.mark.parametrize("dom", RULE_DOMAINS, ids=repr)
def test_acceptance_bound_levels(dom, tol):
    base = acceptance_bound(dom, tol)
    guard = acceptance_bound(dom, tol, guard=True)
    if dom.exact:
        assert base == guard == 0.0
    else:
        assert base == tol.residual_rel_tol
        assert guard == 100.0 * tol.residual_rel_tol


@pytest.mark.parametrize("guard", (False, True))
@pytest.mark.parametrize("tol", RULE_TOLS)
@pytest.mark.parametrize("dom", RULE_DOMAINS, ids=repr)
def test_acceptance_edges(dom, tol, guard, monkeypatch):
    b = acceptance_bound(dom, tol, guard=guard)
    x = StarMatrix.zeros(1, 1, dom)
    # (value, passes the all-values test, is a disagreement as a distance)
    cases = (
        (0.0, True, False),
        (b, True, False),
        (math.nextafter(b, math.inf), False, True),
        (math.inf, False, True),
        (math.nan, False, False),  # NaN fails the test but is no disagreement
    )
    for v, within, differs in cases:
        assert all_within([v], b) is within
        assert all_within([0.0, v, b], b) is within
        monkeypatch.setattr(ginv.matrix, "rel_diff", lambda p, q, v=v: v)
        assert disagree(x, x, b) is differs


@pytest.mark.parametrize("dom", RULE_DOMAINS, ids=repr)
def test_disagree_on_matrices(dom):
    one = StarMatrix.identity(2, dom)
    two = one + one
    for guard in (False, True):
        b = acceptance_bound(dom, DEFAULT_TOL, guard=guard)
        assert not disagree(one, one, b)
        assert disagree(one, two, b)
    if not dom.exact:
        b = acceptance_bound(dom)
        assert not disagree(one, one.scale(1 + 1e-12), b)
        nan = StarMatrix.from_numpy(np.array([[np.nan, 0], [0, 1]]))
        assert not disagree(one, nan, b)
        assert not all_within([rel_diff(one, nan)], b)


def test_unit_routes_refuse_nan_inner_inverse():
    a = cm([[1, 0], [0, 1]])
    bad = StarMatrix.from_numpy(np.array([[np.nan, 0], [0, 1]]))
    with np.errstate(invalid="ignore"):
        with pytest.raises(PreconditionFailed):
            mp_via_unit(a, bad)
        with pytest.raises(PreconditionFailed):
            inverse_along_via_unit(a, a, bad)


def _reference_residuals(system, env):
    """Residuals from StarMatrix products and adjoints, each word afresh."""
    out = {}
    for name, lhs, rhs in system:
        sides = []
        for word in (lhs, rhs):
            mats = [env[s[:-1]].adjoint() if s.endswith("*") else env[s] for s in word]
            acc = mats[0]
            for m in mats[1:]:
                acc = acc @ m
            sides.append(acc)
        if env["a"].domain.exact:
            out[name] = rel_diff(*sides)
        else:
            norms = {k: max(1.0, ginv.matrix.norm_fro(m)) for k, m in env.items()}
            scale = max(math.prod(norms[s.rstrip("*")] for s in word) for word in (lhs, rhs))
            out[name] = ginv.matrix.norm_fro(sides[0] - sides[1]) / scale
    return out


RESIDUAL_DOMAINS = [RATIONAL, GAUSSIAN_RATIONAL, prime_field(7), integer_mod(6), COMPLEX_FLOAT]


@pytest.mark.parametrize("dom", RESIDUAL_DOMAINS, ids=repr)
def test_residuals_on_payloads_equal_the_matrix_level_words(dom):
    # every defining system, on random letters (most exact residuals inf) and
    # on letters where many equations hold: a unit a with x its inverse, the
    # other letters 1 (exact residuals 0.0, float ones of rounding size)
    from ginv.equations import SYSTEMS, core_ep_system, drazin_system, system_residuals

    rng = random.Random(13)

    def entry():
        if dom.modulus is not None:
            return rng.randint(0, dom.modulus - 1)
        q = [Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3, 6])) for _ in range(2)]
        if dom.kind == "rational":
            return q[0]
        return GaussianRational(*q) if dom.exact else complex(*map(float, q))

    def rand():
        return StarMatrix.from_rows([[entry() for _ in range(3)] for _ in range(3)], dom)

    randoms = {k: rand() for k in "awvdbcx"}
    while (a_inv := inverse(a := rand())) is None:
        pass
    one = StarMatrix.identity(3, dom)
    held = {k: one for k in "wvdbc"} | {"a": a, "x": a_inv}
    systems = list(SYSTEMS.values())
    systems += [drazin_system(k) for k in (1, 2, 3)] + [core_ep_system(k) for k in (1, 2, 3)]
    held_count = 0
    for env in (randoms, held):
        for system in systems:
            got = system_residuals(system, env)
            assert got == _reference_residuals(system, env)
            held_count += sum(v <= 1e-12 for v in got.values())
    assert held_count > 30


@pytest.mark.parametrize("dom", RESIDUAL_DOMAINS, ids=repr)
def test_residual_words_refuse_mismatched_shapes_and_domains(dom):
    from ginv.equations import SYSTEMS, system_residuals

    other = COMPLEX_FLOAT if dom.exact else RATIONAL
    a = StarMatrix.identity(2, dom)
    with pytest.raises(ShapeMismatch):
        system_residuals(SYSTEMS["one"], {"a": a, "x": StarMatrix.identity(3, dom)})
    with pytest.raises(DomainMismatch):
        system_residuals(SYSTEMS["one"], {"a": a, "x": StarMatrix.identity(2, other)})
    with pytest.raises(ShapeMismatch):  # A1's sides are 1 x 2 and 2 x 2, A2 has no product
        system_residuals(SYSTEMS["along"], {"a": a, "d": a, "x": StarMatrix.zeros(1, 2, dom)})


@pytest.mark.parametrize("dom", [GAUSSIAN_RATIONAL, prime_field(7), COMPLEX_FLOAT], ids=repr)
def test_residuals_evaluate_each_prefix_and_starred_letter_once(dom, monkeypatch):
    from ginv.equations import SYSTEMS, eval_word, system_residuals

    rng = random.Random(5)
    rows = {k: [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)] for k in "awx"}
    env = {k: StarMatrix.from_rows(r, dom) for k, r in rows.items()}
    system = SYSTEMS["w-core-full"]
    fresh = {name: (eval_word(lhs, env), eval_word(rhs, env)) for name, lhs, rhs in system}
    # words run on the kernels' payloads: count the payload products and the
    # starred payloads, and check that no matrix product is taken
    calls = {"product": 0, "star": 0, "matmul": 0}
    kernel = type(env["a"])

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    def payload(m, star=False, real=kernel._payload):
        calls["star"] += star
        return real(m, star)

    product = ginv.equations._payload_product
    monkeypatch.setattr(ginv.equations, "_payload_product", counted("product", product))
    monkeypatch.setattr(kernel, "_payload", payload)
    monkeypatch.setattr(StarMatrix, "__matmul__", counted("matmul", StarMatrix.__matmul__))
    res = system_residuals(system, env)
    words = [w for _, lhs, rhs in system for w in (lhs, rhs)]
    prefixes = {w[:k] for w in words for k in range(2, len(w) + 1)}
    starred = {sym for w in words for sym in w if sym.endswith("*")}
    expected = {"product": len(prefixes), "star": len(starred), "matmul": 0}
    assert calls == expected == {"product": 10, "star": 3, "matmul": 0}
    if dom.exact:  # float residuals are checked against fresh words in test_matrix_complex
        assert res == {name: rel_diff(left, right) for name, (left, right) in fresh.items()}


@pytest.mark.parametrize("dom", RESIDUAL_DOMAINS, ids=repr)
def test_equal_systems_share_one_plan_and_systems_in_turn_keep_their_residuals(dom):
    from ginv.equations import SYSTEMS, _plan, core_ep_system, drazin_system, system_residuals

    # a plan is kept per distinct system tuple: rebuilt equal tuples share it
    assert _plan(drazin_system(2)) is _plan(drazin_system(2))
    assert _plan(core_ep_system(3)) is _plan(core_ep_system(3))
    assert _plan(drazin_system(2)) is not _plan(drazin_system(3))
    rng = random.Random(17)
    env = {k: StarMatrix.from_rows([[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)], dom)
           for k in "awvdbcx"}
    systems = [SYSTEMS["w-core-full"], SYSTEMS["mp"], drazin_system(2), core_ep_system(1)]
    alone = [_reference_residuals(system, env) for system in systems]
    for _ in range(2):  # each system after every other one, twice over
        assert [system_residuals(system, env) for system in systems] == alone


@pytest.mark.parametrize("dom", [RATIONAL, COMPLEX_FLOAT], ids=repr)
def test_residual_words_raise_at_the_first_failing_step(dom):
    # letters are taken and prefixes formed as a left-to-right walk meets
    # them, equation by equation: the first bad step decides the error
    from ginv.equations import system_residuals

    other = COMPLEX_FLOAT if dom.exact else RATIONAL
    a, big = StarMatrix.identity(2, dom), StarMatrix.identity(3, dom)
    env = {"a": a, "x": big, "w": StarMatrix.identity(2, other), "d": a}
    holds = ("H", ("a", "d"), ("d", "a"))  # passes: the error comes from the next equation
    cases = [
        ((holds, ("T", ("a", "x", "w"), ("a",))), ShapeMismatch),  # a x formed before w is taken
        ((holds, ("T", ("a", "w", "x"), ("a",))), DomainMismatch),  # w taken before a w is formed
        ((("T", ("a", "x"), ("a",)), ("U", ("w",), ("a",))), ShapeMismatch),
        ((("T", ("w",), ("a",)), ("U", ("a", "x"), ("a",))), DomainMismatch),
    ]
    for system, error in cases:
        with pytest.raises(error):
            system_residuals(system, env)
    missing = (("T", ("a", "x"), ("a",)), ("U", ("v",), ("a",)))
    # float residuals take every letter's norm first, so a missing letter
    # raises before any product; exact ones meet a x first
    with pytest.raises(KeyError if not dom.exact else ShapeMismatch):
        system_residuals(missing, env)
    with pytest.raises(KeyError):
        system_residuals((holds, ("U", ("a", "v"), ("a",))), env)


def _cross_multiplied(system, env):
    """Exact residuals with every pair of sides cross-multiplied by the other
    side's denominator, from payload products taken here letter by letter."""
    dom, out = env["a"].domain, {}
    for name, lhs, rhs in system:
        sides = []
        for word in (lhs, rhs):
            acc = None
            for sym in word:
                p = env[sym.rstrip("*")]._payload(sym.endswith("*"))
                acc = p if acc is None else ginv.matrix._payload_product(dom, acc, p)
            sides.append(acc)
        (left, d), (right, e) = sides
        same = all((x * e).tolist() == (y * d).tolist() for x, y in zip(left, right))
        out[name] = 0.0 if same else math.inf
    return out


@pytest.mark.parametrize("dom", [RATIONAL, GAUSSIAN_RATIONAL], ids=repr)
def test_equal_denominators_compare_as_cross_multiplication_does(dom):
    from ginv.equations import eval_word, system_residuals

    q = Fraction
    a = StarMatrix.from_rows([[q(1, 2), q(1, 3)], [0, 1]], dom)  # den 6
    x = StarMatrix.from_rows([[2, 0], [0, 3]], dom)  # den 1, and a x = [[1, 1], [0, 3]]
    env = {"a": a, "x": x, "w": a @ x, "d": a.adjoint()}
    assert (a @ x).den != a.den * x.den  # so "S3" compares unequal denominators
    system = (
        ("S1", ("a", "x"), ("a", "x")),  # equal sides, equal denominators
        ("S2", ("a", "x"), ("x", "a")),  # unequal sides, equal denominators
        ("S3", ("a", "x"), ("w",)),  # equal sides, denominators 6 and 1
        ("S4", ("a", "x"), ("x",)),  # unequal sides, denominators 6 and 1
        ("S5", ("a*", "x"), ("d", "x")),  # equal sides, a starred letter
    )
    res = system_residuals(system, env)
    assert res == _cross_multiplied(system, env)
    assert res == {n: rel_diff(eval_word(l, env), eval_word(r, env)) for n, l, r in system}
    assert res == {"S1": 0.0, "S2": math.inf, "S3": 0.0, "S4": math.inf, "S5": 0.0}


# each public refusal raises its documented error
REFUSALS = {
    "from_rows ragged": (lambda: StarMatrix.from_rows([[1, 2], [3]], RATIONAL), ShapeMismatch),
    "pow non-square": (lambda: qm([[1, 2]]).pow(2), ShapeMismatch),
    "pow negative": (lambda: qm([[1]]).pow(-1), ValueError),
    "from_numpy 1-d": (lambda: StarMatrix.from_numpy(np.ones(3)), ShapeMismatch),
    "solve_right domains": (lambda: solve_right(qm([[1]]), fm([[1]])), DomainMismatch),
    "solve_right rows": (lambda: solve_right(qm([[1]]), qm([[1], [2]])), ShapeMismatch),
    "inverse non-square": (lambda: inverse(qm([[1, 2]])), ShapeMismatch),
    "is_projection non-square": (lambda: is_projection(qm([[1, 2]])), ShapeMismatch),
    "pinv exact": (lambda: pinv(qm([[1]])), UnsupportedDomain),
    "condition_number exact": (lambda: condition_number(qm([[1]])), UnsupportedDomain),
    "full_rank_factorize Z6": (lambda: full_rank_factorize(zm([[2]])), UnsupportedDomain),
    "right_nullspace Z6": (lambda: right_nullspace(zm([[2]])), UnsupportedDomain),
    "matrix_from_json no data": (
        lambda: matrix_from_json({"rows": 1, "cols": 1, "domain": {"kind": "rational"}}),
        PreconditionFailed,
    ),
    "green_leq shapes": (lambda: green_leq(qm([[1]]), qm([[1, 0], [0, 1]]), "L"), ShapeMismatch),
    "green_leq relation": (lambda: green_leq(qm([[1]]), qm([[1]]), "X"), PreconditionFailed),
    "mp_via_unit non-square": (lambda: mp_via_unit(qm([[1, 2]]), qm([[1], [0]])), PreconditionFailed),
}


@pytest.mark.parametrize("call, error", REFUSALS.values(), ids=REFUSALS)
def test_public_refusals_raise_their_documented_errors(call, error):
    with pytest.raises(error):
        call()


def test_comparisons_across_shapes_and_domains():
    assert rel_diff(cm([[1, 0]]), cm([[1], [0]])) == math.inf
    assert rel_diff(qm([[1]]), qm([[1, 0]])) == math.inf
    assert (qm([[1]]) == fm([[1]])) is False
