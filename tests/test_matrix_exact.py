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

import ginv.matrix
from ginv import (
    StarMatrix,
    full_rank_factorize,
    matrix_from_json,
    matrix_to_json,
    rank,
    solve_left,
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
from ginv.matrix import inverse, pivot_right_inverse, right_nullspace

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


PIVOT_FIELDS = [RATIONAL, GAUSSIAN_RATIONAL, GF7]


@pytest.mark.parametrize("dom", PIVOT_FIELDS, ids=ids(PIVOT_FIELDS))
@pytest.mark.parametrize("m, n", [(1, 1), (3, 3), (4, 4), (3, 5), (5, 3), (2, 6)])
def test_the_pivot_right_inverse_is_the_solved_one(dom, m, n):
    # G is a's RREF, so the right inverse read from G's pivots is solve_right's
    # particular solution of G X = 1, to the payload
    rng = random.Random(m * 10 + n)
    for r in range(min(m, n) + 1):
        for a in (low_rank(dom, rng, m, n, r), low_rank(dom, rng, m, n, r)):
            got = pivot_right_inverse(a)
            g = full_rank_factorize(a).g
            ident = StarMatrix.identity(g.rows, dom)
            want = solve_right(g, ident)
            same(got, want)
            assert got.den == want.den
            assert [x.dtype for x in got.ints] == [x.dtype for x in want.ints]
            assert [x.tolist() for x in got.ints] == [x.tolist() for x in want.ints]
            assert g @ got == ident


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


def gaussian_integers(rng, m, n):
    return StarMatrix.from_rows(
        [[(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n)] for _ in range(m)],
        GAUSSIAN_RATIONAL,
    )


def invertible_gaussian_16():
    rng = random.Random(16)
    rows = [[(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(16)] for _ in range(16)]
    return rows, StarMatrix.from_rows(rows, GAUSSIAN_RATIONAL)


def test_gaussian_record_stays_within_the_hadamard_bound():
    # Bareiss division keeps every entry a minor of the input, so the
    # elimination's one denominator is |det|^2, at most the squared Hadamard
    # bound (96 bits here); without it the denominator reached 74,198 bits
    rows, a = invertible_gaussian_16()
    hadamard_sq = math.prod(sum(re * re + im * im for re, im in row) for row in rows)
    den = ginv.matrix._rref(a.domain, a.ints, a.cols)[2]
    assert den.bit_length() <= math.ceil(math.log2(hadamard_sq)) == 96
    assert full_rank_factorize(a).g == StarMatrix.identity(16, GAUSSIAN_RATIONAL)


def test_the_record_of_a_unit_is_the_identity_over_one():
    # the kept record is in lowest terms: the RREF of an invertible matrix is
    # I, whether the record comes from a rank or from a solve
    ident = StarMatrix.identity(16, GAUSSIAN_RATIONAL)
    for first in (rank, lambda a: solve_right(a, ident)):
        _, a = invertible_gaussian_16()
        first(a)
        pivots, (re, im), den = ginv.matrix._factors(a)
        assert den == 1 and pivots == list(range(16))
        assert re.tolist() == np.eye(16, dtype=int).tolist() and not im.any()


@pytest.mark.parametrize("m, n", [(6, 6), (8, 12), (12, 12), (12, 24), (10, 5)])
def test_gaussian_elimination_at_larger_shapes(m, n):
    # full-rank, rank-deficient and augmented ([a | b]) eliminations over Q(i)
    rng = random.Random(m * 100 + n)
    r = min(m, n) // 2
    low = ref_matmul(gaussian_integers(rng, m, r), gaussian_integers(rng, r, n))
    for a in (gaussian_integers(rng, m, n), low, low.scale(GaussianRational(Fraction(2, 3), 1))):
        assert rank(a) == ref_rank(a)
        fact, (f, g, k) = full_rank_factorize(a), ref_factorize(a)
        assert fact.rank == k
        same(fact.g, g)
        same(right_nullspace(a), ref_nullspace(a))
        consistent = ref_matmul(a, gaussian_integers(rng, n, 3))
        for b in (consistent, gaussian_integers(rng, m, n)):
            same_or_none(solve_right(a, b), ref_solve_right(a, b))


@pytest.mark.parametrize("n", [4, 6])
def test_integer_mod_inverse_exists_iff_the_determinant_is_a_unit(n):
    # a x = 1 alone decides: over a commutative ring it gives det(a) det(x) = 1
    dom = integer_mod(n)
    ident = StarMatrix.identity(2, dom)
    for p, q, r, s in itertools.product(range(n), repeat=4):
        a = StarMatrix.from_rows([[p, q], [r, s]], dom)
        x = inverse(a)
        assert (x is None) == (math.gcd(p * s - q * r, n) != 1)
        if x is not None:
            assert a @ x == ident and x @ a == ident


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
        x = solve_right(a, ab)
        assert x is not None and x.shape == (5, 3) and a @ x == ab
        if not dom.field:
            continue
        assert rank(a) == r
        rf = full_rank_factorize(a)
        assert rf.rank == r and rf.f.shape == (4, r) and rf.g.shape == (r, 5)
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
    # includes systems solvable only through a wrap-around mod n; a solution
    # over Z/n need not be unique, so any x with a x = b answers
    dom, rng = integer_mod(n), random.Random(n)
    for m, k in ((2, 2), (3, 2), (2, 3), (3, 3)):
        for _ in range(6):
            a = rand_matrix(dom, rng, m, k)
            for b in (ref_matmul(a, rand_matrix(dom, rng, k, 2)), rand_matrix(dom, rng, m, 2)):
                got = solve_right(a, b)
                assert (got is None) == (ref_brute_solve(a, b) is None)
                if got is not None:
                    same(ref_matmul(a, got), b)


def ref_solvable(a, b):
    """A brute scan, vectorized: for each column of b, whether a x = b mod n
    for some x among all n**k vectors."""
    n, k = a.domain.modulus, a.cols
    xs = np.indices((n,) * k).reshape(k, -1)  # every x, as a column
    ax = np.array(a.data, dtype=np.int64).reshape(a.rows, k) @ xs % n
    bs = np.array(b.data, dtype=np.int64).reshape(b.rows, b.cols)
    return (ax[:, :, None] == bs[:, None, :]).all(axis=0).any(axis=0)


def check_against_the_scan(a, b):
    # the solvable columns in one solve, each other column alone
    dom, ok = a.domain, ref_solvable(a, b)
    cols = list(zip(*b.data))
    inside = StarMatrix(b.rows, int(ok.sum()), tuple(zip(*[c for c, y in zip(cols, ok) if y])), dom)
    x = solve_right(a, inside)
    assert x is not None and a @ x == inside
    for c in (c for c, y in zip(cols, ok) if not y):
        assert solve_right(a, StarMatrix(b.rows, 1, tuple((v,) for v in c), dom)) is None


@pytest.mark.parametrize("n", [4, 6])
def test_integer_mod_solvability_on_every_2x2_system(n):
    dom = integer_mod(n)
    every_b = StarMatrix.from_rows(np.indices((n, n)).reshape(2, -1).tolist(), dom)
    for p, q, r, t in itertools.product(range(n), repeat=4):
        check_against_the_scan(StarMatrix.from_rows([[p, q], [r, t]], dom), every_b)


@pytest.mark.parametrize("n", [8, 12, 18, 36])
def test_integer_mod_solvability_on_seeded_3x3_and_3x2_systems(n):
    # entries drawn mostly from zero divisors, so that columns often hold no
    # unit and the Bezout steps and the Howell rows decide
    dom, rng = integer_mod(n), random.Random(n)
    divisors = [d for d in range(2, n) if n % d == 0]
    for k in (3, 2):
        for _ in range(12):
            rows = [[rng.choice(divisors) * rng.randrange(n) for _ in range(k)] for _ in range(3)]
            a = StarMatrix.from_rows(rows, dom)
            # two consistent columns, then four random ones
            inside, other = ref_matmul(a, rand_matrix(dom, rng, k, 2)), rand_matrix(dom, rng, 3, 4)
            b = StarMatrix.from_rows([r + s for r, s in zip(inside.data, other.data)], dom)
            check_against_the_scan(a, b)


# ---------------------------------------------------------------------------
# the kept echelon form: taken once per instance (by a rank, a factorization,
# a null space or the first solve) and read by every later rank, factorization
# and null space; solves still eliminate [a | b] and answer as before

KEPT_FIELDS = [RATIONAL, GAUSSIAN_RATIONAL, GF7, GF_M31]
KEPT_SHAPES = [(3, 3), (4, 2), (2, 5), (5, 3)]  # square, tall and wide


def count_rref(monkeypatch):
    calls = []
    kernel = ginv.matrix._rref

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(ginv.matrix, "_rref", counted)
    return calls


def ref_solve_left(a, b):
    xt = ref_solve_right(ref_transpose(a), ref_transpose(b))
    return None if xt is None else ref_transpose(xt)


def right_sides(dom, rng, a, k):
    """Consistent and (for a rank-deficient a, almost surely) inconsistent
    right-hand sides for A X = B, then for X A = B."""
    m, n = a.shape
    right = [ref_matmul(a, rand_matrix(dom, rng, n, k)), rand_matrix(dom, rng, m, k)]
    left = [ref_matmul(rand_matrix(dom, rng, k, m), a), rand_matrix(dom, rng, k, n)]
    return right, left


def same_or_none(got, want):
    if want is None:
        assert got is None
    else:
        same(got, want)


@pytest.mark.parametrize("dom", KEPT_FIELDS, ids=ids(KEPT_FIELDS))
@pytest.mark.parametrize("m, n", KEPT_SHAPES)
def test_kept_echelon_form_answers_like_a_fresh_elimination(dom, m, n):
    rng = random.Random(m * 10 + n + 7)
    r = min(m, n) - 1
    for a in (rand_matrix(dom, rng, m, n), low_rank(dom, rng, m, n, r), StarMatrix.zeros(m, n, dom)):
        right, left = right_sides(dom, rng, a, 3)
        # every right side twice: the second solve meets a kept record
        for b in right + right:
            same_or_none(solve_right(a, b), ref_solve_right(a, b))
        for b in left + left:
            same_or_none(solve_left(a, b), ref_solve_left(a, b))
        assert rank(a) == ref_rank(a)
        same(right_nullspace(a), ref_nullspace(a))
        fact, (f, g, k) = full_rank_factorize(a), ref_factorize(a)
        assert fact.rank == k
        same(fact.f, f)
        same(fact.g, g)
    # rank-deficient a: the random right sides miss the column and row spaces
    a = low_rank(dom, rng, m, n, r)
    right, left = right_sides(dom, rng, a, 3)
    assert solve_right(a, right[1]) is None and solve_left(a, left[1]) is None


@pytest.mark.parametrize("dom", KEPT_FIELDS, ids=ids(KEPT_FIELDS))
def test_echelon_form_is_taken_once_per_matrix(dom, monkeypatch):
    rng = random.Random(11)
    calls = count_rref(monkeypatch)
    # a fresh matrix: its null space eliminates a alone, once
    a = low_rank(dom, rng, 4, 5, 2)
    same(right_nullspace(a), ref_nullspace(a))
    assert len(calls) == 1
    for _ in range(2):
        rank(a)
        full_rank_factorize(a)
        right_nullspace(a)
    assert len(calls) == 1
    # a solved matrix: the elimination of [a | b] leaves a's echelon form
    a = low_rank(dom, rng, 4, 5, 2)
    solve_right(a, ref_matmul(a, rand_matrix(dom, rng, 5, 2)))
    assert len(calls) == 2
    rank(a)
    full_rank_factorize(a)
    same(right_nullspace(a), ref_nullspace(a))
    assert len(calls) == 2
    solve_right(a, rand_matrix(dom, rng, 4, 2))  # each solve eliminates its own [a | b]
    assert len(calls) == 3


HUGE_MODULI = [prime_field(2**64 - 59), integer_mod(2**64)]


@pytest.mark.parametrize("dom", HUGE_MODULI, ids=ids(HUGE_MODULI))
def test_moduli_beyond_int64(dom):
    # residues and their products pass 2**63: the payload is Python ints
    ident = StarMatrix.identity(3, dom)
    big = dom.modulus - 1
    a = StarMatrix.from_rows([[big, 2, 0], [0, big, 5], [1, 0, big]], dom)
    assert ident @ a == a == a @ ident and a.pow(0) == ident
    assert (a @ a).data[0][0] == (big * big + 0 * 2) % dom.modulus
    x = inverse(a)
    assert x @ a == ident and a @ x == ident
    xs = StarMatrix.from_rows([[1, big], [2, 3], [big, 0]], dom)
    if dom.field:
        same(x, ref_solve_right(a, ident))
        b = a @ xs
        same(solve_right(a, b), ref_solve_right(a, b))
        assert rank(a) == 3 and right_nullspace(a).shape == (3, 0)
    else:
        # an even first column holds no unit mod 2**64: Bezout steps fold it
        e = StarMatrix.from_rows([[2, big, 0], [6, 3, 5], [4, 0, big]], dom)
        b = e @ xs
        assert e @ solve_right(e, b) == b
        assert solve_right(e.scale(2), ident) is None  # 2 e x is even in every entry


def test_bezout_steps_at_the_int64_bound():
    # one column keeps (n - 1)**2 < 2**63, so [a | b] stays int64 while the
    # Bezout steps and the Howell rows n/g (pivot row) run near that bound
    n = 3_000_000_000
    dom = integer_mod(n)
    for col in ([n - 2, n - 3, n - 4], [n - 2, n - 4, 6], [n - 3, n - 6], [n - 5, 10]):
        assert all(math.gcd(v, n) > 1 for v in col)  # no unit to pivot on
        a = StarMatrix.from_rows([[v] for v in col], dom)
        assert a.ints[0].dtype == np.int64
        for v in (1, 2, n - 1, n // 2 + 1, 1_234_567_891):
            b = a @ StarMatrix.from_rows([[v]], dom)
            x = solve_right(a, b)
            assert x is not None and all(c * x.data[0][0] % n == r for c, (r,) in zip(col, b.data))
        g = math.gcd(n, *col)
        if g > 1:  # every a x is a multiple of g
            assert solve_right(a, StarMatrix.from_rows([[1]] + [[0]] * (len(col) - 1), dom)) is None


@pytest.mark.parametrize("dom", RINGS, ids=lambda d: d.kind + str(d.modulus or ""))
def test_sign_changes_and_transposes_keep_the_canonical_payload(dom, monkeypatch):
    # a lowest payload stays lowest under -m, m^T and m*, so they reduce
    # nothing; each equals the matrix built afresh from its entries
    rng = random.Random(7)
    built = [rand_matrix(dom, rng, m, n) for m, n in SQUARE_SHAPES]
    assert any(m.den != 1 for m in built) == (dom.modulus is None)
    calls = []
    monkeypatch.setattr(ginv.matrix, "_lowest", lambda *args: calls.append(args))
    derived = [x for m in built for x in (-m, m.transpose(), m.adjoint())]
    monkeypatch.undo()
    assert calls == []
    for got in derived:
        fresh = StarMatrix(got.rows, got.cols, got.data, dom)
        assert got.den == fresh.den and [x.dtype for x in got.ints] == [y.dtype for y in fresh.ints]
        assert [x.tolist() for x in got.ints] == [y.tolist() for y in fresh.ints]
