"""The complex128 array payload of ComplexFloat matrices, checked entry by
entry against plain Python complex arithmetic on nested lists."""

import json
import random

import numpy as np
import pytest

from ginv import StarMatrix, matrix_from_json, matrix_to_json, w_core
from ginv.domains import COMPLEX_FLOAT, ComplexFloatDomain

SHAPES = [(3, 4), (1, 1), (0, 3), (3, 0), (0, 0)]


def rand_lists(rng, m, n):
    def entry():
        pick = rng.random()
        if pick < 0.1:
            return complex(0.0, -0.0)
        return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))

    return [[entry() for _ in range(n)] for _ in range(m)]


def build(rows, m, n):
    return StarMatrix(m, n, tuple(tuple(r) for r in rows), COMPLEX_FLOAT)


def entries(x: StarMatrix):
    assert all(isinstance(v, complex) for r in x.data for v in r)
    return [list(r) for r in x.data]


def ref_mul(a, b, m, k, n):
    return [[sum((a[i][t] * b[t][j] for t in range(k)), 0j) for j in range(n)] for i in range(m)]


def ref_adj(a, m, n):
    return [[a[i][j].conjugate() for i in range(m)] for j in range(n)]


def close(got, want, tol=1e-12):
    return len(got) == len(want) and all(
        len(r) == len(s) and all(abs(x - y) <= tol * (1 + abs(y)) for x, y in zip(r, s))
        for r, s in zip(got, want)
    )


@pytest.mark.parametrize("m, n", SHAPES)
def test_elementwise_ops_match_python_complex(m, n):
    rng = random.Random(m * 10 + n)
    al, bl = rand_lists(rng, m, n), rand_lists(rng, m, n)
    a, b = build(al, m, n), build(bl, m, n)
    assert isinstance(a, StarMatrix) and a.shape == (m, n)
    assert entries(a + b) == [[x + y for x, y in zip(r, s)] for r, s in zip(al, bl)]
    assert entries(a - b) == [[x - y for x, y in zip(r, s)] for r, s in zip(al, bl)]
    assert entries(-a) == [[-x for x in r] for r in al]
    c = complex(0.5, -1.25)
    assert close(entries(a.scale(c)), [[c * x for x in r] for r in al], tol=0.0)
    t = a.transpose()
    assert t.shape == (n, m)
    assert entries(t) == [[al[i][j] for i in range(m)] for j in range(n)]
    h = a.adjoint()
    assert h.shape == (n, m) and entries(h) == ref_adj(al, m, n)
    assert a == build([list(r) for r in al], m, n)
    assert (a == b) == (al == bl)
    assert (a - a).is_zero()
    assert a.is_zero() == all(x == 0 for r in al for x in r)


@pytest.mark.parametrize("m, k, n", [(3, 4, 2), (2, 0, 3), (0, 3, 2), (3, 2, 0), (1, 1, 1)])
def test_product_matches_python_complex(m, k, n):
    rng = random.Random(100 * m + 10 * k + n)
    al, bl = rand_lists(rng, m, k), rand_lists(rng, k, n)
    got = build(al, m, k) @ build(bl, k, n)
    assert got.shape == (m, n)
    assert close(entries(got), ref_mul(al, bl, m, k, n))
    if k == 0:
        assert got.is_zero()


@pytest.mark.parametrize("n", [0, 1, 3])
def test_power_matches_python_complex(n):
    rng = random.Random(n)
    al = rand_lists(rng, n, n)
    want = [[complex(i == j) for j in range(n)] for i in range(n)]
    for k in range(4):
        assert close(entries(build(al, n, n).pow(k)), want)
        want = ref_mul(want, al, n, n, n)


def test_signed_zeros_are_equal_and_hash_alike():
    neg = build([[complex(-0.0, 0.0), complex(1.0, -0.0)], [complex(-0.0, -0.0), 2j]], 2, 2)
    pos = build([[0j, complex(1.0, 0.0)], [0j, 2j]], 2, 2)
    assert neg == pos
    assert hash(neg) == hash(pos)
    assert len({neg, pos}) == 1
    assert neg.is_zero() is False and build([[complex(-0.0, -0.0)]], 1, 1).is_zero()


def test_to_numpy_is_a_writeable_copy():
    m = build([[1 + 2j, 3j], [4.0, -1j]], 2, 2)
    arr = m.to_numpy()
    assert arr.dtype == np.complex128 and arr.flags.writeable
    arr[0, 0] = 99.0
    arr[1, :] = 0.0
    assert entries(m) == [[1 + 2j, 3j], [4 + 0j, -1j]]
    assert m.to_numpy()[0, 0] == 1 + 2j


def test_from_numpy_copies_its_input():
    for src in (np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[1, 2j], [3, 4]])):
        m = StarMatrix.from_numpy(src)
        src[0, 0] = -7.0
        assert m.data[0][0] == 1.0
    with pytest.raises(ValueError):
        m.data[0, 0] = 5.0


@pytest.mark.parametrize(
    "rows",
    [
        [[[1e-300, -0.0], [-0.0, 1e-300]]],
        [[[0.30000000000000004, -1.0000000000000002]], [[-0.0, 0.0]]],
        [[[1.2345678901234567e-5, 9.876543210987654e300], [0.1, -0.0]]],
    ],
)
def test_complex_json_round_trip_is_byte_identical(rows):
    obj = {"rows": len(rows), "cols": len(rows[0]), "domain": {"kind": "complex_float"}, "data": rows}
    blob = json.dumps(obj)
    m = matrix_from_json(json.loads(blob))
    assert json.dumps(matrix_to_json(m)) == blob
    # the same bytes as encoding each entry through the domain
    per_entry = [[COMPLEX_FLOAT.scalar_to_json(complex(x)) for x in r] for r in m.data]
    assert json.dumps(matrix_to_json(m)["data"]) == json.dumps(per_entry)


@pytest.mark.parametrize("m, n", [(0, 3), (3, 0)])
def test_complex_json_empty_shapes(m, n):
    obj = {"rows": m, "cols": n, "domain": {"kind": "complex_float"}, "data": [[]] * m}
    back = matrix_from_json(obj)
    assert back.shape == (m, n)
    assert matrix_to_json(back) == obj


def test_w_core_never_uses_scalar_arithmetic(monkeypatch):
    def boom(*args):
        raise AssertionError("complex matrix arithmetic went through the scalar domain")

    for name in ("add", "sub", "mul", "neg", "star"):
        monkeypatch.setattr(ComplexFloatDomain, name, boom)
    a = build([[0, 1], [0, 0]], 2, 2)
    w = build([[3, 6], [1, 0]], 2, 2)
    res = w_core(a, w)
    assert res.exists and res.certificate.ok
    assert close(entries(res.value), [[1, 0], [0, 0]], tol=1e-9)


def test_residual_scales_match_factor_by_factor_norms():
    # system_residuals computes each letter's norm once per call; the scale
    # must equal the product taken afresh for every factor of every word
    from ginv.equations import SYSTEMS, core_ep_system, eval_word, system_residuals
    from ginv.matrix import norm_fro

    rng = random.Random(11)
    # some letters have norm below 1, where the max(1, .) floor matters
    factors = {"a": 1, "w": 0.05, "v": 3, "x": 0.2}
    env = {k: build(rand_lists(rng, 3, 3), 3, 3).scale(c) for k, c in factors.items()}
    systems = [SYSTEMS["w-core-full"], SYSTEMS["dual-v-core-full"], SYSTEMS["mp"], core_ep_system(2)]
    for system in systems:
        got = system_residuals(system, env)
        for name, lhs, rhs in system:
            left, right = eval_word(lhs, env), eval_word(rhs, env)
            scales = []
            for word in (lhs, rhs):
                s = 1.0
                for sym in word:
                    s *= max(1.0, norm_fro(env[sym.rstrip("*")]))
                scales.append(s)
            scale = max(1.0, norm_fro(left), norm_fro(right), *scales)
            assert got[name] == norm_fro(left - right) / scale
