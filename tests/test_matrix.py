"""StarMatrix algebra, exact/float rank and solve machinery, JSON format."""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ginv.matrix
from ginv import (
    DomainMismatch,
    PreconditionFailed,
    ShapeMismatch,
    StarMatrix,
    TooLarge,
    UnsupportedDomain,
    full_rank_factorize,
    is_projection,
    matrix_from_json,
    matrix_to_json,
    rank,
    solve_left,
    solve_right,
)
from ginv.domains import COMPLEX_FLOAT, GAUSSIAN_RATIONAL, RATIONAL, integer_mod, prime_field
from ginv.along import inverse_along_via_unit
from ginv.matrix import (
    DEFAULT_TOL,
    ToleranceThresholds,
    acceptance_bound,
    all_within,
    disagree,
    inverse,
    left_nullspace,
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


def test_integer_mod_brute_solve():
    a = zm([[3]])
    x = solve_right(a, zm([[3]]))
    assert x is not None and (3 * x.data[0][0]) % 6 == 3
    assert solve_right(zm([[2]]), zm([[1]])) is None  # 2x=1 has no solution mod 6


def test_integer_mod_brute_solve_cap():
    big = zm([[1] * 9 for _ in range(9)], n=12)
    with pytest.raises(TooLarge):
        solve_right(big, big)


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


@pytest.mark.parametrize("dom", [GAUSSIAN_RATIONAL, prime_field(7), COMPLEX_FLOAT], ids=repr)
def test_residuals_evaluate_each_prefix_and_starred_letter_once(dom, monkeypatch):
    from ginv.equations import SYSTEMS, eval_word, system_residuals

    rng = random.Random(5)
    rows = {k: [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)] for k in "awx"}
    env = {k: StarMatrix.from_rows(r, dom) for k, r in rows.items()}
    system = SYSTEMS["w-core-full"]
    fresh = {name: (eval_word(lhs, env), eval_word(rhs, env)) for name, lhs, rhs in system}
    calls = {"matmul": 0, "adjoint": 0}
    kernel = type(env["a"])

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(StarMatrix, "__matmul__", counted("matmul", StarMatrix.__matmul__))
    monkeypatch.setattr(kernel, "adjoint", counted("adjoint", kernel.adjoint))
    res = system_residuals(system, env)
    words = [w for _, lhs, rhs in system for w in (lhs, rhs)]
    prefixes = {w[:k] for w in words for k in range(2, len(w) + 1)}
    starred = {sym for w in words for sym in w if sym.endswith("*")}
    assert calls == {"matmul": len(prefixes), "adjoint": len(starred)} == {"matmul": 10, "adjoint": 3}
    if dom.exact:  # float residuals are checked against fresh words in test_matrix_complex
        assert res == {name: rel_diff(left, right) for name, (left, right) in fresh.items()}
