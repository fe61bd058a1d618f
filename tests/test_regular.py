"""{1}, {1,3}, {1,4}, Moore-Penrose inverses and the unit criterion."""

import itertools
import random
from fractions import Fraction

import pytest

from ginv import (
    PreconditionFailed,
    StarMatrix,
    UnsupportedDomain,
    canonical_one_four,
    canonical_one_three,
    inner_inverse,
    mp_inverse,
    mp_via_unit,
    one_four_inverse,
    one_three_inverse,
)
from ginv.domains import GAUSSIAN_RATIONAL, RATIONAL, prime_field
from ginv.matrix import inverse, rel_diff

from conftest import assert_penrose, cm, fm, gm, gr, lists, mul_lists, qm, zm


def rand_q(rng, m, n, max_rank=None):
    r = max_rank if max_rank is not None else min(m, n)
    if r == 0:
        return qm([[Fraction(0)] * n for _ in range(m)])
    x = [[Fraction(rng.randint(-3, 3)) for _ in range(r)] for _ in range(m)]
    y = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(r)]
    return qm(mul_lists(x, y))


def test_inner_inverse_identity_and_zero():
    i2 = StarMatrix.identity(2, RATIONAL)
    assert inner_inverse(i2) == i2
    z = StarMatrix.zeros(2, 2, RATIONAL)
    assert inner_inverse(z) == z


def test_inner_inverse_nilpotent():
    a = qm([[0, 1], [0, 0]])
    x = inner_inverse(a)
    assert_penrose(a, x, which=(1,))


def test_inner_inverse_rectangular():
    rng = random.Random(11)
    for _ in range(10):
        a = rand_q(rng, 3, 4, max_rank=rng.randint(0, 3))
        assert_penrose(a, inner_inverse(a), which=(1,))


def test_inner_inverse_unsupported_over_z6():
    with pytest.raises(UnsupportedDomain):
        inner_inverse(zm([[3]]))


def test_one_three_example_exact_value():
    a = gm([[0, 1], [0, 0]])
    x = one_three_inverse(a)
    assert x == gm([[0, 0], [1, 0]])
    assert_penrose(a, x, which=(1, 3))


def test_one_three_identity_and_projection():
    i2 = StarMatrix.identity(2, GAUSSIAN_RATIONAL)
    assert one_three_inverse(i2) == i2
    p = gm([[1, 0], [0, 0]])  # Hermitian projection is its own {1,3}-inverse
    assert_penrose(p, p, which=(1, 3))
    assert one_three_inverse(p) is not None


def test_one_four_example():
    a = gm([[0, 1], [0, 0]])
    y = one_four_inverse(a)
    assert y == gm([[0, 0], [1, 0]])
    assert_penrose(a, y, which=(1, 4))
    z = StarMatrix.zeros(2, 2, GAUSSIAN_RATIONAL)
    assert one_four_inverse(z) == z


def test_one_three_can_fail_over_gf2():
    # a* a = 0 for this nonzero matrix, so a is not in S a* a: brute-force
    # scan of all 16 candidates confirms no {1,3}-inverse exists
    a = fm([[1, 1], [1, 1]], 2)
    al = lists(a)
    found = False
    for bits in itertools.product(range(2), repeat=4):
        x = [[bits[0], bits[1]], [bits[2], bits[3]]]
        ax = mul_lists(al, x, 2)
        if mul_lists(ax, al, 2) == al and [[ax[j][i] % 2 for j in range(2)] for i in range(2)] == ax:
            found = True
    assert not found
    assert one_three_inverse(a) is None
    assert mp_inverse(a) is None


def test_mp_examples():
    a = gm([[0, 1], [0, 0]])
    assert mp_inverse(a) == gm([[0, 0], [1, 0]])
    d = qm([[2, 0], [0, 0]])
    assert mp_inverse(d) == qm([[Fraction(1, 2), 0], [0, 0]])
    z = StarMatrix.zeros(3, 2, RATIONAL)
    assert mp_inverse(z) == StarMatrix.zeros(2, 3, RATIONAL)


def test_mp_penrose_equations_random():
    rng = random.Random(5)
    for _ in range(15):
        a = rand_q(rng, 3, 3, max_rank=rng.randint(0, 3))
        x = mp_inverse(a)
        assert_penrose(a, x)


def test_mp_float_matches_exact():
    rng = random.Random(13)
    for _ in range(10):
        a = rand_q(rng, 3, 4, max_rank=2)
        x = mp_inverse(a)
        xf = mp_inverse(cm([[float(v) for v in row] for row in lists(a)]))
        assert rel_diff(cm([[float(v) for v in row] for row in lists(x)]), xf) < 1e-9


def test_mp_uniqueness_across_routes():
    rng = random.Random(3)
    for _ in range(10):
        a = rand_q(rng, 3, 3, max_rank=rng.randint(1, 3))
        x1 = mp_inverse(a)
        x2 = mp_via_unit(a, inner_inverse(a))
        assert x1 == x2


def test_mp_via_unit_example():
    a = gm([[0, 1], [0, 0]])
    a_in = gm([[0, 0], [1, 0]])
    # u = aa* + 1 - a a^- works out to the identity here
    assert mp_via_unit(a, a_in) == gm([[0, 0], [1, 0]])
    i2 = StarMatrix.identity(2, GAUSSIAN_RATIONAL)
    assert mp_via_unit(i2, i2) == i2


def test_mp_via_unit_singular_unit_is_none():
    # over GF(5), a a* = 0 for a = [[1, 2], [0, 0]]: u = 1 - a a^- is singular,
    # and a has no MP inverse
    a = fm([[1, 2], [0, 0]])
    assert mp_via_unit(a, inner_inverse(a)) is None
    assert mp_inverse(a) is None


def test_mp_via_unit_invertible_case():
    a = qm([[2, 1], [1, 1]])
    assert mp_via_unit(a, inverse(a)) == inverse(a)


def test_mp_via_unit_float():
    import numpy as np

    rng = np.random.default_rng(6)
    x = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    y = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    a = cm((x @ y).tolist())
    got = mp_via_unit(a, inner_inverse(a))
    assert rel_diff(got, mp_inverse(a)) < 1e-8


def test_mp_via_unit_rejects_non_inner():
    a = qm([[0, 1], [0, 0]])
    with pytest.raises(PreconditionFailed):
        mp_via_unit(a, qm([[1, 0], [0, 1]]))


def test_one_three_product_is_choice_independent():
    # for x, y both {1,3}-inverses of a: ax = ay
    rng = random.Random(23)
    for _ in range(10):
        a = rand_q(rng, 2, 2, max_rank=1)
        x = one_three_inverse(a)
        y = mp_inverse(a)
        if x is None or y is None:
            continue
        assert a @ x == a @ y


def test_canonical_one_three_and_one_four():
    # over GF(2), a = [[1, 1], [0, 0]] has a a* = 0: no MP inverse and no
    # {1,4}-inverse, while a* a = [[1, 1], [1, 1]] leaves a {1,3}-inverse
    a = fm([[1, 1], [0, 0]], 2)
    assert mp_inverse(a) is None
    assert canonical_one_three(a) == fm([[1, 0], [0, 0]], 2)
    assert_penrose(a, canonical_one_three(a), which=(1, 3))
    assert canonical_one_four(a) is None
    # over Q(i) the MP inverse always exists, and both are the MP inverse
    rng = random.Random(41)
    for _ in range(6):
        a = gm([[gr(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(3)] for _ in range(2)])
        assert canonical_one_three(a) == mp_inverse(a) == canonical_one_four(a)
