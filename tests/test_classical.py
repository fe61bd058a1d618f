"""Group, Drazin, core, dual-core, and pseudo-core inverses."""

import random
from fractions import Fraction

import numpy as np
import pytest

from ginv import (
    ShapeMismatch,
    StarMatrix,
    certify,
    core_ep_inverse,
    core_inverse,
    drazin_index,
    drazin_inverse,
    dual_core_inverse,
    group_inverse,
    one_four_inverse,
    solve_right,
    special_cases,
)
from ginv.domains import GAUSSIAN_RATIONAL, RATIONAL, GaussianRational, integer_mod
from ginv.matrix import inverse, rel_diff

from conftest import adj_lists, assert_penrose, cm, eq_lists, fm, gm, gr, lists, mul_lists, qm, zm


def test_group_inverse_idempotent():
    a = qm([[1, 0], [0, 0]])
    assert group_inverse(a) == a


def test_group_inverse_nilpotent_not_exists():
    assert group_inverse(qm([[0, 1], [0, 0]])) is None


def test_group_inverse_z6_scalar():
    g = group_inverse(zm([[3]]))
    assert g is not None
    x = g.data[0][0]
    # all three defining equations, checked directly mod 6
    assert (3 * x * 3) % 6 == 3 and (x * 3 * x) % 6 == x and (3 * x) % 6 == (x * 3) % 6
    assert x == 3


def test_group_inverse_equations_random():
    rng = random.Random(17)
    for _ in range(10):
        c = qm([[rng.randint(1, 3), rng.randint(0, 2)], [0, rng.randint(1, 3)]])
        g = group_inverse(c)  # invertible upper triangular: group inverse = inverse
        assert g == inverse(c)


def test_drazin_nilpotent():
    res = drazin_inverse(qm([[0, 1], [0, 0]]))
    assert res.value.is_zero() and res.index == 2


def test_drazin_invertible():
    a = qm([[2, 1], [1, 1]])
    res = drazin_inverse(a)
    assert res.index == 1 and res.value == inverse(a)


def test_drazin_block_example():
    a = qm([[0, 1, 0], [0, 0, 0], [0, 0, 1]])
    res = drazin_inverse(a)
    assert res.index == 2
    assert res.value == qm([[0, 0, 0], [0, 0, 0], [0, 0, 1]])
    # defining equations, independent check
    al, xl = lists(a), lists(res.value)
    assert mul_lists(al, xl) == mul_lists(xl, al)
    assert mul_lists(mul_lists(xl, al), xl) == xl
    a2 = mul_lists(al, al)
    assert mul_lists(mul_lists(a2, al), xl) == a2  # a^2 = a^3 x


def test_zmod_drazin_index_can_exceed_the_dimension():
    # over Z/8, a = [[2]] is nilpotent of index 3 > 1 = dim: the index search
    # runs past the dimension (equations.index_cap's Z/n branch)
    a = StarMatrix.from_rows([[2]], integer_mod(8))
    res = drazin_inverse(a)
    assert res.index == drazin_index(a) == 3 and res.value.is_zero()
    cert = certify("drazin", {"a": a, "x": res.value})
    assert cert.ok and cert.witnesses == {"index": 3}


def test_drazin_index_one_iff_group():
    a = qm([[1, 0], [0, 0]])
    assert drazin_index(a) == 1 and drazin_inverse(a).value == group_inverse(a)
    b = qm([[0, 1], [0, 0]])
    assert drazin_index(b) == 2 and group_inverse(b) is None


def test_core_inverse_projection():
    a = gm([[1, 0], [0, 0]])
    x = core_inverse(a)
    assert x == a
    # three-equation system, independent check
    al, xl = lists(a), lists(x)
    assert mul_lists(mul_lists(al, xl), xl) == xl
    assert mul_lists(mul_lists(xl, al), al) == al
    ax = mul_lists(al, xl)
    assert adj_lists(ax) == ax


def test_core_inverse_not_exists_for_nilpotent():
    assert core_inverse(gm([[0, 1], [0, 0]])) is None


def test_core_inverse_identity():
    i3 = StarMatrix.identity(3, GAUSSIAN_RATIONAL)
    assert core_inverse(i3) == i3


def test_core_satisfies_all_five_equations():
    rng = random.Random(29)
    for _ in range(10):
        # group-invertible by construction: projection-like similarity image
        s = qm([[1, rng.randint(-2, 2)], [rng.randint(-2, 2), 1]])
        if inverse(s) is None:
            continue
        a = s @ qm([[rng.randint(1, 3), 0], [0, 0]]) @ inverse(s)
        x = core_inverse(a)
        if x is None:
            continue
        assert_penrose(a, x, which=(1, 2))
        al, xl = lists(a), lists(x)
        assert mul_lists(mul_lists(al, xl), xl) == xl
        assert mul_lists(mul_lists(xl, al), al) == al


def test_dual_core_examples():
    a = gm([[1, 0], [0, 0]])
    assert dual_core_inverse(a) == a
    assert dual_core_inverse(gm([[0, 1], [0, 0]])) is None
    i2 = StarMatrix.identity(2, GAUSSIAN_RATIONAL)
    assert dual_core_inverse(i2) == i2


def test_core_dual_core_star_duality():
    rng = random.Random(31)
    for _ in range(10):
        a = gm([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
        c = core_inverse(a)
        d = dual_core_inverse(a.adjoint())
        assert (c is None) == (d is None)
        if c is not None:
            assert c.adjoint() == d


@pytest.mark.parametrize(
    "make, entries",
    [
        (gm, lambda rng: gr(rng.randint(-2, 2), rng.randint(-2, 2))),
        (lambda rows: fm(rows, 3), lambda rng: rng.randrange(3)),
        (lambda rows: zm(rows, 4), lambda rng: rng.randrange(4)),
        (lambda rows: zm(rows, 6), lambda rng: rng.randrange(6)),
    ],
)
def test_dual_constructions_match_their_own_equations(make, entries):
    # the {1,4}- and dual-core inverses exist exactly when their defining
    # factors do, and each value certifies against its own (dual) equations
    rng = random.Random(53)
    for shape in [(2, 2)] * 12 + [(2, 3), (3, 2)] * 3:
        a = make([[entries(rng) for _ in range(shape[1])] for _ in range(shape[0])])
        t = one_four_inverse(a)
        no_t = solve_right(a @ a.adjoint(), a) is None
        assert (t is None) == no_t
        if t is not None:
            assert certify("one4", {"a": a, "x": t}).ok
        if shape[0] != shape[1]:
            continue
        x = dual_core_inverse(a)
        assert (x is None) == (no_t or group_inverse(a) is None)
        if x is not None:
            assert certify("dual-core5", {"a": a, "x": x}).ok


def test_core_ep_nilpotent():
    res = core_ep_inverse(gm([[0, 1], [0, 0]]))
    assert res.value.is_zero() and res.index == 2


def test_core_ep_invertible():
    a = qm([[2, 1], [1, 1]])
    res = core_ep_inverse(a)
    assert res.index == 1 and res.value == inverse(a)


def test_core_ep_block():
    a = qm([[0, 1, 0], [0, 0, 0], [0, 0, 1]])
    res = core_ep_inverse(a)
    assert res.index == 2
    assert res.value == qm([[0, 0, 0], [0, 0, 0], [0, 0, 1]])


def test_core_ep_index_one_equals_core():
    a = gm([[1, 0], [0, 0]])
    res = core_ep_inverse(a)
    assert res.index == 1 and res.value == core_inverse(a)


def test_scaling_law_exact():
    a = gm([[1, 1], [0, 0]])
    lam = GaussianRational(3, 4)
    g = group_inverse(a)
    gl = group_inverse(a.scale(lam))
    assert gl == g.scale(GaussianRational(1) / lam)
    c = core_inverse(a)
    cl = core_inverse(a.scale(lam))
    assert cl == c.scale(GaussianRational(1) / lam)


def test_scaling_law_float():
    rng = np.random.default_rng(1)
    s = rng.standard_normal((3, 3))
    a = cm((s @ np.diag([2.0, 1.0, 0.0]) @ np.linalg.inv(s)).tolist())
    lam = 2.0 - 1.0j
    d = drazin_inverse(a)
    dl = drazin_inverse(a.scale(lam))
    assert dl.index == d.index
    assert rel_diff(dl.value, d.value.scale(1 / lam)) < 1e-8


def test_square_required():
    with pytest.raises(ShapeMismatch):
        group_inverse(qm([[1, 2, 3], [4, 5, 6]]))


def test_float_group_and_core_inverses_refuse_a_nilpotent():
    # a = e12 = F G with G F = 0, which is not invertible: no group inverse,
    # hence no core inverse
    a = cm([[0, 1], [0, 0]])
    assert group_inverse(a) is None and core_inverse(a) is None


def test_float_drazin_index_of_a_full_jordan_nilpotent_is_the_dimension():
    # the ranks of a, a^2 and a^3 fall 2, 1, 0: no power below the third
    # keeps the rank of the next, so the index is the dimension
    a = cm([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert drazin_index(a) == 3
    res = drazin_inverse(a)
    assert res.index == 3 and res.value.is_zero()


# a float Drazin-family call forms each power of a once, and a^n's SVD from
# the index test also gives Cline's group inverse and a^+: one SVD per power
# tested and one of the r x r G F.  Forming a^n again for the group inverse
# and again for a^+ took 4 and 5 SVDs at index 1, 5 and 6 at index 2
DRAZIN_SVD_BUDGET = {1: 3, 2: 4}


def float_of_index(index, seed=0):
    """8 x 8 complex a of Drazin index 1 or 2: a random invertible 6 x 6 block
    beside a zero or a Jordan 2 x 2 nilpotent block, unitarily conjugated."""
    g = np.random.default_rng(seed)
    d = np.zeros((8, 8), complex)
    d[:6, :6] = g.standard_normal((6, 6)) + 1j * g.standard_normal((6, 6))
    d[6, 7] = index - 1
    q, _ = np.linalg.qr(g.standard_normal((8, 8)) + 1j * g.standard_normal((8, 8)))
    return StarMatrix.from_numpy(q @ d @ q.conj().T)


@pytest.mark.parametrize("index", [1, 2])
@pytest.mark.parametrize("call", [drazin_inverse, core_ep_inverse])
def test_svd_count_of_a_float_drazin_family_call_is_pinned(call, index, monkeypatch):
    a, calls, real = float_of_index(index), [], np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    assert call(a).index == index
    assert len(calls) <= DRAZIN_SVD_BUDGET[index]


# special_cases(a, "pseudo_power") reads a^{n-1} and a^n from the chain of
# core_ep_inverse, so core_inverse(a^n) reuses a^n's kept SVD; forming a^n
# again with a.pow took 14 and 15 SVDs
PSEUDO_POWER_SVD_BUDGET = {1: 13, 2: 14}


@pytest.mark.parametrize("index", [1, 2])
def test_svd_count_of_a_float_pseudo_power_case_is_pinned(index, monkeypatch):
    a, calls, real = float_of_index(index), [], np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    res = special_cases(a, "pseudo_power")
    assert res.exists and res.index == index
    assert len(calls) <= PSEUDO_POWER_SVD_BUDGET[index]
