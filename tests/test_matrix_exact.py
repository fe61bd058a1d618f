"""The exact-domain kernels, checked against the scalar loops they replaced:
one domain operation per entry, division-based Gauss-Jordan elimination with
first-nonzero-column / first-nonzero-row pivots.  Also the payload's
canonical form: one value, one payload, however it was reached."""

import itertools
import json
import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest

from ginv import (
    StarMatrix,
    full_rank_factorize,
    matrix_from_json,
    matrix_to_json,
    rank,
    solve_right,
)
from ginv.domains import (
    GAUSSIAN_RATIONAL,
    RATIONAL,
    GaussianRational,
    GaussianRationalDomain,
    IntegerModDomain,
    PrimeFieldDomain,
    RationalDomain,
    integer_mod,
    prime_field,
)
from ginv.matrix import right_nullspace

GF7 = prime_field(7)
GF_M31 = prime_field(2**31 - 1)  # int64 products up to 2 columns, then Python ints
GF_M61 = prime_field(2**61 - 1)  # Python ints throughout
FIELDS = [RATIONAL, GAUSSIAN_RATIONAL, GF7, GF_M31, GF_M61]
RINGS = FIELDS + [integer_mod(6), integer_mod(2**40)]
# large, pairwise coprime denominators: lcm scaling must not lose any of them
DENOMINATORS = [1, 1, 2, 3, 7, 10**9 + 7, 998244353, 2**31 - 1, 1000003]
PRODUCT_SHAPES = [(3, 4, 2), (1, 1, 1), (4, 2, 5), (0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0)]
SQUARE_SHAPES = [(1, 1), (3, 3), (4, 4), (3, 5), (5, 3), (0, 3), (3, 0)]


# ---------------------------------------------------------------------------
# the scalar-loop references


def ref_matmul(a, b):
    dom = a.domain
    if a.cols == 0:
        return StarMatrix.zeros(a.rows, b.cols, dom)
    add, mul, zero = dom.add, dom.mul, dom.zero()
    bt = tuple(zip(*b.data)) if b.data else ()
    out = []
    for r in a.data:
        row = []
        for c in range(b.cols):
            acc = zero
            for x, y in zip(r, bt[c]):
                acc = add(acc, mul(x, y))
            row.append(acc)
        out.append(tuple(row))
    return StarMatrix(a.rows, b.cols, tuple(out), dom)


def ref_entrywise(a, b, op):
    data = tuple(tuple(op(x, y) for x, y in zip(r1, r2)) for r1, r2 in zip(a.data, b.data))
    return StarMatrix(a.rows, a.cols, data, a.domain)


def ref_neg(a):
    neg = a.domain.neg
    return StarMatrix(a.rows, a.cols, tuple(tuple(neg(x) for x in r) for r in a.data), a.domain)


def ref_scale(a, c):
    c, mul = a.domain.coerce(c), a.domain.mul
    return StarMatrix(a.rows, a.cols, tuple(tuple(mul(c, x) for x in r) for r in a.data), a.domain)


def ref_transpose(a):
    data = tuple(tuple(a.data[i][j] for i in range(a.rows)) for j in range(a.cols))
    return StarMatrix(a.cols, a.rows, data, a.domain)


def ref_adjoint(a):
    star, t = a.domain.star, ref_transpose(a)
    return StarMatrix(t.rows, t.cols, tuple(tuple(star(x) for x in r) for r in t.data), a.domain)


def ref_is_zero(a):
    return all(a.domain.is_zero(x) for r in a.data for x in r)


def ref_rref(rows, domain, width):
    # in place on a list of lists; returns the pivot columns
    is_zero, inv, mul, sub = domain.is_zero, domain.inv, domain.mul, domain.sub
    m = len(rows)
    pivots = []
    r = 0
    for c in range(width):
        pr = None
        for i in range(r, m):
            if not is_zero(rows[i][c]):
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        piv_inv = inv(rows[r][c])
        rows[r] = [mul(piv_inv, v) for v in rows[r]]
        for i in range(m):
            if i != r and not is_zero(rows[i][c]):
                f = rows[i][c]
                ref = rows[r]
                rows[i] = [sub(v, mul(f, w)) for v, w in zip(rows[i], ref)]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return pivots


def ref_rank(a):
    if a.rows == 0 or a.cols == 0:
        return 0
    return len(ref_rref([list(r) for r in a.data], a.domain, a.cols))


def ref_factorize(a):
    dom = a.domain
    rows = [list(r) for r in a.data]
    pivots = ref_rref(rows, dom, a.cols)
    r = len(pivots)
    f = StarMatrix(a.rows, r, tuple(tuple(row[c] for c in pivots) for row in a.data), dom)
    g = StarMatrix(r, a.cols, tuple(tuple(rows[i]) for i in range(r)), dom)
    return f, g, r


def ref_solve_right(a, b):
    dom = a.domain
    rows = [list(ra) + list(rb) for ra, rb in zip(a.data, b.data)]
    pivots = ref_rref(rows, dom, a.cols)
    r = len(pivots)
    for i in range(r, a.rows):
        if any(not dom.is_zero(rows[i][a.cols + j]) for j in range(b.cols)):
            return None
    xdata = [[dom.zero()] * b.cols for _ in range(a.cols)]
    for i, pc in enumerate(pivots):
        for j in range(b.cols):
            xdata[pc][j] = rows[i][a.cols + j]
    return StarMatrix(a.cols, b.cols, tuple(tuple(r) for r in xdata), dom)


def ref_nullspace(a):
    dom = a.domain
    rows = [list(r) for r in a.data]
    pivots = ref_rref(rows, dom, a.cols)
    free = [c for c in range(a.cols) if c not in set(pivots)]
    cols = []
    for f in free:
        vec = [dom.zero()] * a.cols
        vec[f] = dom.one()
        for i, pc in enumerate(pivots):
            vec[pc] = dom.neg(rows[i][f])
        cols.append(vec)
    data = tuple(tuple(cols[j][i] for j in range(len(free))) for i in range(a.cols))
    return StarMatrix(a.cols, len(free), data, dom)


def ref_brute_solve(a, b):
    # the first solution of each column in itertools.product order, or None
    dom = a.domain
    cols = []
    for j in range(b.cols):
        for cand in itertools.product(range(dom.modulus), repeat=a.cols):
            acc = [dom.zero()] * a.rows
            for i in range(a.rows):
                for t in range(a.cols):
                    acc[i] = dom.add(acc[i], dom.mul(a.data[i][t], cand[t]))
            if all(acc[i] == b.data[i][j] for i in range(a.rows)):
                cols.append(cand)
                break
        else:
            return None
    data = tuple(tuple(cols[j][i] for j in range(b.cols)) for i in range(a.cols))
    return StarMatrix(a.cols, b.cols, data, dom)


# ---------------------------------------------------------------------------
# seeded inputs


def scalar(dom, rng):
    if rng.random() < 0.25:
        return dom.zero()
    if dom is RATIONAL:
        return Fraction(rng.randint(-10**6, 10**6), rng.choice(DENOMINATORS))
    if dom is GAUSSIAN_RATIONAL:
        return GaussianRational(scalar(RATIONAL, rng), scalar(RATIONAL, rng))
    p = dom.modulus
    return rng.choice([rng.randrange(p), p - 1, 1])


def rand_matrix(dom, rng, m, n):
    return StarMatrix(m, n, tuple(tuple(scalar(dom, rng) for _ in range(n)) for _ in range(m)), dom)


def low_rank(dom, rng, m, n, r):
    # a product through an inner dimension r < min(m, n) has rank at most r
    return ref_matmul(rand_matrix(dom, rng, m, r), rand_matrix(dom, rng, r, n))


def full_of(dom, m, n):
    # every entry p - 1: the largest sums of products a modulus allows
    v = dom.from_int(-1)
    return StarMatrix(m, n, tuple((v,) * n for _ in range(m)), dom)


def inputs(dom, seed, m, n):
    rng = random.Random(seed)
    mats = [rand_matrix(dom, rng, m, n) for _ in range(3)]
    if min(m, n) > 1:
        mats += [low_rank(dom, rng, m, n, r) for r in (1, min(m, n) - 1)]
    if dom.modulus is not None:
        mats.append(full_of(dom, m, n))
    return mats


def same(got, want):
    """Equal entries of the same Python types, and the same JSON bytes."""
    assert isinstance(got, StarMatrix) and got.shape == want.shape
    assert got.data == want.data
    assert [type(x) for r in got.data for x in r] == [type(x) for r in want.data for x in r]
    assert json.dumps(matrix_to_json(got)) == json.dumps(matrix_to_json(want))


def ids(doms):
    return [repr(d) for d in doms]


# ---------------------------------------------------------------------------
# kernels against the references


@pytest.mark.parametrize("dom", RINGS, ids=ids(RINGS))
@pytest.mark.parametrize("m, k, n", PRODUCT_SHAPES)
def test_product_matches_scalar_loop(dom, m, k, n):
    rng = random.Random(m * 100 + k * 10 + n)
    for a in inputs(dom, rng.randrange(10**6), m, k):
        for b in inputs(dom, rng.randrange(10**6), k, n):
            same(a @ b, ref_matmul(a, b))


@pytest.mark.parametrize("p", [2**31 - 1, 2**61 - 1, 2**40])
@pytest.mark.parametrize("k", [1, 2, 3, 8])
def test_product_at_the_int64_bound(p, k):
    # k * (p - 1)^2 crosses 2^63 between k = 2 and 3 for p = 2^31 - 1
    dom = prime_field(p) if p % 2 else integer_mod(p)
    a, b = full_of(dom, 2, k), full_of(dom, k, 3)
    want = k * (p - 1) ** 2 % p
    got = a @ b
    assert got.data == ((want,) * 3,) * 2
    assert {type(x) for r in got.data for x in r} == {int}
    same(got, ref_matmul(a, b))


@pytest.mark.parametrize("dom", FIELDS, ids=ids(FIELDS))
@pytest.mark.parametrize("m, n", SQUARE_SHAPES)
def test_elimination_matches_scalar_loop(dom, m, n):
    for a in inputs(dom, m * 10 + n, m, n):
        assert rank(a) == ref_rank(a)
        rf = full_rank_factorize(a)
        f, g, r = ref_factorize(a)
        assert rf.rank == r
        same(rf.f, f)
        same(rf.g, g)
        same(right_nullspace(a), ref_nullspace(a))


@pytest.mark.parametrize("dom", FIELDS, ids=ids(FIELDS))
@pytest.mark.parametrize("m, n", SQUARE_SHAPES)
def test_solve_right_matches_scalar_loop(dom, m, n):
    rng = random.Random(m * 10 + n + 1)
    for a in inputs(dom, m * 10 + n, m, n):
        consistent = ref_matmul(a, rand_matrix(dom, rng, n, 2))
        for b in (consistent, rand_matrix(dom, rng, m, 2), StarMatrix.zeros(m, 0, dom)):
            want = ref_solve_right(a, b)
            got = solve_right(a, b)
            if want is None:
                assert got is None
            else:
                same(got, want)
        assert ref_solve_right(a, consistent) is not None


@pytest.mark.parametrize("dom", FIELDS, ids=ids(FIELDS))
def test_inconsistent_systems_are_rejected(dom):
    # unit vectors outside the column space of a rank-2 matrix: no solution
    rng = random.Random(5)
    a = low_rank(dom, rng, 4, 4, 2)
    units = StarMatrix.identity(4, dom).transpose()  # columns e_1 .. e_4
    outside = 0
    for j in range(4):
        e = StarMatrix(4, 1, tuple((v,) for v in units.data[j]), dom)
        want = ref_solve_right(a, e)
        outside += want is None
        if want is None:
            assert solve_right(a, e) is None
        else:
            same(solve_right(a, e), want)
    # a column space of dimension at most 2 misses at least two of them
    assert outside >= 2


def test_rref_rows_come_out_reduced():
    # pivot rows of the fraction-free kernels equal the unique RREF, in pivot order
    a = StarMatrix.from_rows([[0, 2, 4, 1], [3, 0, 0, 1], [6, 2, 4, 3]], RATIONAL)
    rf = full_rank_factorize(a)
    assert rf.rank == 2
    assert rf.g.data == (
        (Fraction(1), Fraction(0), Fraction(0), Fraction(1, 3)),
        (Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2)),
    )
    assert all(type(x) is Fraction for r in rf.g.data for x in r)
    gi = StarMatrix.from_rows([[(0, 2), (1, 1)], [(3, 0), (0, 1)]], GAUSSIAN_RATIONAL)
    g = full_rank_factorize(gi).g
    assert g == StarMatrix.identity(2, GAUSSIAN_RATIONAL)
    assert all(type(x) is GaussianRational for r in g.data for x in r)


# ---------------------------------------------------------------------------
# the kernels never fall back to the domains' scalar arithmetic


def test_kernels_never_use_scalar_arithmetic(monkeypatch):
    cases = []
    for dom in RINGS:
        rng = random.Random(3)
        a = low_rank(dom, rng, 4, 5, 2) if dom.field else rand_matrix(dom, rng, 4, 5)
        b = rand_matrix(dom, rng, 5, 3)
        cases.append((dom, a, b, ref_matmul(a, b), ref_rank(a) if dom.field else None))

    def boom(*args):
        raise AssertionError("an exact kernel went through the scalar domain")

    for cls in (RationalDomain, GaussianRationalDomain, PrimeFieldDomain, IntegerModDomain):
        for name in ("add", "sub", "mul", "inv"):
            monkeypatch.setattr(cls, name, boom)
    with pytest.raises(AssertionError):
        RATIONAL.add(Fraction(1), Fraction(2))
    for dom, a, b, ab, r in cases:
        assert (a @ b) == ab
        if not dom.field:
            continue
        assert rank(a) == r
        rf = full_rank_factorize(a)
        assert rf.rank == r and rf.f.shape == (4, r) and rf.g.shape == (r, 5)
        x = solve_right(a, ab)
        assert x is not None and x.shape == (5, 3)
        assert right_nullspace(a).shape == (5, 5 - r)


@pytest.mark.parametrize("dom", RINGS, ids=ids(RINGS))
@pytest.mark.parametrize("m, n", SQUARE_SHAPES + [(2, 1), (1, 2)])
def test_entrywise_kernels_match_scalar_loops(dom, m, n):
    rng = random.Random(m * 10 + n + 2)
    mats = inputs(dom, m * 10 + n, m, n) + [StarMatrix.zeros(m, n, dom)]
    for a in mats:
        for b in (a, ref_neg(a), rand_matrix(dom, rng, m, n)):
            same(a + b, ref_entrywise(a, b, dom.add))
            same(a - b, ref_entrywise(a, b, dom.sub))
        same(-a, ref_neg(a))
        same(a.transpose(), ref_transpose(a))
        same(a.adjoint(), ref_adjoint(a))
        for c in (dom.zero(), dom.one(), dom.from_int(-1), scalar(dom, rng), scalar(dom, rng)):
            same(a.scale(c), ref_scale(a, c))
        assert a.is_zero() == ref_is_zero(a)
        assert (a - a).is_zero() and (a + ref_neg(a)).is_zero()


def test_entrywise_kernels_never_use_scalar_arithmetic(monkeypatch):
    cases = []
    for dom in RINGS:
        rng = random.Random(4)
        a, b = rand_matrix(dom, rng, 3, 4), rand_matrix(dom, rng, 3, 4)
        c = scalar(dom, rng)
        want = [ref_entrywise(a, b, dom.add), ref_entrywise(a, b, dom.sub), ref_neg(a)]
        want += [ref_scale(a, c), ref_adjoint(a), ref_transpose(a)]
        cases.append((a, b, c, want))

    def boom(*args):
        raise AssertionError("an exact kernel went through the scalar domain")

    for cls in (RationalDomain, GaussianRationalDomain, PrimeFieldDomain, IntegerModDomain):
        for name in ("add", "sub", "mul", "neg", "inv", "star", "is_zero"):
            monkeypatch.setattr(cls, name, boom)
    for a, b, c, want in cases:
        got = [a + b, a - b, -a, a.scale(c), a.adjoint(), a.transpose()]
        assert got == want
        assert not a.is_zero() and (a - a).is_zero()


# ---------------------------------------------------------------------------
# canonical payloads: one value, one payload, whichever way it was reached

BOUNDARY = prime_field(2**31 - 1)  # int64 payload up to 2 columns, Python ints above


def payload_is_canonical(m):
    dom, flat = m.domain, [v for x in m.ints for v in x.ravel().tolist()]
    assert all(type(v) is int for v in flat)
    if dom.modulus is None:
        assert len(m.ints) == (2 if dom.kind == "gaussian_rational" else 1)
        assert all(x.dtype == object for x in m.ints)
        assert m.den > 0 and math.gcd(m.den, *flat) == 1
    else:
        p = dom.modulus
        assert len(m.ints) == 1 and m.den == 1 and all(0 <= v < p for v in flat)
        assert m.ints[0].dtype == (np.int64 if m.cols * (p - 1) ** 2 < 2**63 else object)
    assert all(not x.flags.writeable for x in m.ints)
    types = {"rational": Fraction, "gaussian_rational": GaussianRational}
    assert {type(v) for r in m.data for v in r} <= {types.get(dom.kind, int)}


def reached(m):
    """m by six routes: from_rows, the JSON codec, products with identities,
    solve_right against an identity, a double adjoint and a double negation."""
    dom = m.domain
    left, right = StarMatrix.identity(m.rows, dom), StarMatrix.identity(m.cols, dom)
    out = {
        "json": matrix_from_json(json.loads(json.dumps(matrix_to_json(m)))),
        "product": left @ m @ right,
        "adjoint": m.adjoint().adjoint(),
        "negation": -(-m),
    }
    if m.rows:  # rows alone cannot say how many columns an empty matrix has
        out["from_rows"] = StarMatrix.from_rows(m.data, dom)
    if dom.field:
        out["solve_right"] = solve_right(left, m)
    return out


def canonical_cases():
    q, g = RATIONAL, GAUSSIAN_RATIONAL
    half = Fraction(1, 2)
    cases = [
        # unreduced inputs: 2/4 is 1/2, and an all-even numerator over 4
        StarMatrix.from_rows([["2/4", "6/4"], ["-10/4", 0]], q),
        StarMatrix.from_rows([[(Fraction(2, 4), Fraction(4, 8)), 0], [(0, Fraction(-6, 4)), 1]], g),
        # a common factor that only appears in a sum or a product
        StarMatrix.from_rows([[half, half]], q) + StarMatrix.from_rows([[half, Fraction(3, 2)]], q),
        StarMatrix.from_rows([[half, half]], q) @ StarMatrix.from_rows([[2], [2]], q),
        StarMatrix.from_rows([[(half, half)]], g) @ StarMatrix.from_rows([[(1, -1)]], g),
        # zero rows and columns, and all-zero matrices (denominator 1)
        StarMatrix.zeros(0, 3, q),
        StarMatrix.zeros(3, 0, g),
        StarMatrix.from_rows([["0/5", 0], [0, 0]], q),
        StarMatrix.from_rows([[half]], q) - StarMatrix.from_rows([[half]], q),
        StarMatrix.zeros(2, 2, g),
        # unreduced residues, and both sides of the int64/object boundary
        StarMatrix(2, 2, ((8, -1), (14, 7)), prime_field(7)),
        StarMatrix(1, 3, ((6, -6, 13),), integer_mod(6)),
        StarMatrix.zeros(2, 3, integer_mod(6)),
        StarMatrix.from_rows([[-1, 2], [3, -4]], BOUNDARY),
        StarMatrix.from_rows([[-1, 2, 5], [3, -4, 0]], BOUNDARY),
        StarMatrix.from_rows([[-1, 2, 5], [3, -4, 0]], BOUNDARY).transpose(),
        StarMatrix.from_rows([[-1, 2, 5]], GF_M61),
    ]
    for dom in RINGS:
        cases += inputs(dom, 11, 3, 4)
    return cases


@pytest.mark.parametrize("m", canonical_cases(), ids=lambda m: f"{m.domain!r}-{m.rows}x{m.cols}")
def test_every_route_reaches_the_same_payload(m):
    payload_is_canonical(m)
    for route, other in reached(m).items():
        payload_is_canonical(other)
        assert other == m and hash(other) == hash(m), route
        assert other.den == m.den, route
        assert [x.tolist() for x in other.ints] == [x.tolist() for x in m.ints], route
        same(other, m)


def test_unreduced_inputs_read_back_reduced():
    q = StarMatrix.from_rows([["2/4", "6/4"], ["-10/4", 0]], RATIONAL)
    assert q.den == 2
    assert q.data == ((Fraction(1, 2), Fraction(3, 2)), (Fraction(-5, 2), Fraction(0)))
    assert q == StarMatrix.from_rows([["1/2", "3/2"], ["-5/2", 0]], RATIONAL)
    two = StarMatrix.from_rows([[Fraction(1, 2), Fraction(1, 2)]], RATIONAL)
    two = two @ StarMatrix.from_rows([[2], [2]], RATIONAL)
    assert two.den == 1 and two.data == ((Fraction(2),),)
    z = StarMatrix.from_rows([["1/3"]], RATIONAL) - StarMatrix.from_rows([["2/6"]], RATIONAL)
    assert z.den == 1 and z.is_zero() and z == StarMatrix.zeros(1, 1, RATIONAL)
    r = StarMatrix(2, 2, ((8, -1), (14, 7)), prime_field(7))
    assert r.data == ((1, 6), (0, 0)) and all(type(v) is int for row in r.data for v in row)
    assert hash(r) == hash(StarMatrix.from_rows([[1, 6], [0, 0]], prime_field(7)))


def test_payload_dtype_follows_the_column_count():
    # cols * (p - 1)^2 < 2^63 holds for 2 columns of GF(2^31 - 1), not 3
    wide = StarMatrix.from_rows([[1, 2, 3], [4, 5, 6]], BOUNDARY)
    assert wide.ints[0].dtype == object and wide.transpose().ints[0].dtype == np.int64
    narrow = wide @ StarMatrix.from_rows([[1, 0], [0, 1], [0, 0]], BOUNDARY)
    assert narrow.ints[0].dtype == np.int64
    assert narrow == StarMatrix.from_rows([[1, 2], [4, 5]], BOUNDARY)
    assert {type(v) for r in wide.data + narrow.data for v in r} == {int}


def test_distinct_values_have_distinct_payloads():
    one, half = StarMatrix.from_rows([[1]], RATIONAL), StarMatrix.from_rows([["1/2"]], RATIONAL)
    assert one.ints[0].tolist() == half.ints[0].tolist() and one != half
    i = StarMatrix.from_rows([[(0, 1)]], GAUSSIAN_RATIONAL)
    assert i != StarMatrix.from_rows([[(1, 0)]], GAUSSIAN_RATIONAL) and i != i.adjoint()
    assert StarMatrix.from_rows([[1, 2]], prime_field(7)) != StarMatrix.from_rows([[1, 3]], prime_field(7))


@pytest.mark.parametrize("n", [4, 6, 8])
def test_integer_mod_solve_matches_scalar_loop(n):
    # includes systems solvable only through a wrap-around mod n
    dom, rng = integer_mod(n), random.Random(n)
    for m, k in ((2, 2), (3, 2), (2, 3), (3, 3)):
        for _ in range(6):
            a = rand_matrix(dom, rng, m, k)
            for b in (ref_matmul(a, rand_matrix(dom, rng, k, 2)), rand_matrix(dom, rng, m, 2)):
                want = ref_brute_solve(a, b)
                got = solve_right(a, b)
                if want is None:
                    assert got is None
                else:
                    same(got, want)
