"""Matrices over a scalar *-domain; adjoint is the conjugate transpose.

Exact fields (rationals, Gaussian rationals, GF(p)) use deterministic
Gaussian elimination with first-nonzero-column / first-nonzero-row pivoting,
so factorizations and particular solutions are reproducible.  Products and
elimination over the exact domains run in per-domain kernels: fraction-free
integer arithmetic over Q and Q(i), numpy residue arrays over GF(p) and Z/nZ.
Their entries stay Fraction, GaussianRational or int.  ComplexFloat
decisions (rank, solvability, projection tests) all go through SVD with
ToleranceThresholds; Gaussian-elimination rank is never used in float.
ComplexFloat matrices hold one read-only complex128 array, so their sums,
products, adjoints and norms are numpy calls, not scalar loops.
Z/nZ with composite n is supported for small systems via exhaustive solving
(division is only by units there, so elimination is unavailable).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .domains import (
    COMPLEX_FLOAT,
    GaussianRational,
    ScalarDomain,
    domain_from_json,
    domain_to_json,
)
from .errors import DomainMismatch, ShapeMismatch, TooLarge, UnsupportedDomain

_BRUTE_CAP = 2_000_000  # candidate vectors per exhaustive Z/nZ solve


@dataclass(frozen=True)
class ToleranceThresholds:
    """Decision thresholds for ComplexFloat matrices; ignored in exact domains."""

    rank_rel_tol: float = 1e-10
    residual_rel_tol: float = 1e-8


DEFAULT_TOL = ToleranceThresholds()

# Invariant guards on constructed inverses and agreement between independently
# computed route values accumulate the squared conditioning of product words
# (e.g. aa* (aw) aa*), so they allow two orders more than a certificate: 1e-6
# at the default residual_rel_tol.
_GUARD_SLACK = 100.0


class StarMatrix:
    """Immutable rectangular matrix over a ScalarDomain.

    Exact domains store `data` as a tuple of row-tuples of scalars.  A
    ComplexFloat matrix is built as the private subclass `_ComplexMatrix`,
    whose `data` is a read-only C-contiguous complex128 array; indexing it
    still yields `complex` scalars (np.complex128 subclasses complex).
    """

    __slots__ = ("rows", "cols", "domain", "data")

    def __new__(cls, rows=None, cols=None, data=None, domain=None):
        # the kernel is chosen once, here, from the domain
        if cls is StarMatrix and domain is not None and domain.kind == "complex_float":
            cls = _ComplexMatrix
        return object.__new__(cls)

    def __init__(self, rows, cols, data, domain):
        # data: tuple of row-tuples of already-coerced scalars
        self.rows = rows
        self.cols = cols
        self.data = data
        self.domain = domain

    @classmethod
    def from_rows(cls, rows, domain: ScalarDomain) -> "StarMatrix":
        data = tuple(tuple(domain.coerce(v) for v in row) for row in rows)
        m = len(data)
        n = len(data[0]) if m else 0
        if any(len(r) != n for r in data):
            raise ShapeMismatch("ragged rows")
        return cls(m, n, data, domain)

    @classmethod
    def zeros(cls, rows: int, cols: int, domain: ScalarDomain) -> "StarMatrix":
        z = domain.zero()
        return cls(rows, cols, tuple((z,) * cols for _ in range(rows)), domain)

    @classmethod
    def identity(cls, n: int, domain: ScalarDomain) -> "StarMatrix":
        z, o = domain.zero(), domain.one()
        return cls(
            n, n, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)), domain
        )

    @property
    def shape(self):
        return (self.rows, self.cols)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def _check_domain(self, other: "StarMatrix"):
        if self.domain != other.domain:
            raise DomainMismatch(f"{self.domain!r} vs {other.domain!r}")

    def _check_same_shape(self, other: "StarMatrix", op: str):
        self._check_domain(other)
        if self.shape != other.shape:
            raise ShapeMismatch(f"{self.shape} {op} {other.shape}")

    def __add__(self, other):
        if not isinstance(other, StarMatrix):
            return NotImplemented
        self._check_same_shape(other, "+")
        return self._add(other)

    def __sub__(self, other):
        if not isinstance(other, StarMatrix):
            return NotImplemented
        self._check_same_shape(other, "-")
        return self._sub(other)

    def __matmul__(self, other):
        if not isinstance(other, StarMatrix):
            return NotImplemented
        self._check_domain(other)
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.shape} @ {other.shape}")
        return self._matmul(other)

    # -- exact kernels: entrywise ops loop over scalars; products use _PRODUCTS

    def _zip(self, other, op):
        data = tuple(
            tuple(op(x, y) for x, y in zip(r1, r2)) for r1, r2 in zip(self.data, other.data)
        )
        return StarMatrix(self.rows, self.cols, data, self.domain)

    def _add(self, other):
        return self._zip(other, self.domain.add)

    def _sub(self, other):
        return self._zip(other, self.domain.sub)

    def __neg__(self):
        neg = self.domain.neg
        return StarMatrix(
            self.rows, self.cols, tuple(tuple(neg(x) for x in r) for r in self.data), self.domain
        )

    def _matmul(self, other):
        dom = self.domain
        if self.cols == 0:  # empty inner dimension: zero product by convention
            return StarMatrix.zeros(self.rows, other.cols, dom)
        return StarMatrix(self.rows, other.cols, _PRODUCTS[dom.kind](self, other), dom)

    def scale(self, c) -> "StarMatrix":
        c = self.domain.coerce(c)
        mul = self.domain.mul
        return StarMatrix(
            self.rows, self.cols, tuple(tuple(mul(c, x) for x in r) for r in self.data), self.domain
        )

    def transpose(self) -> "StarMatrix":
        # plain transpose, no conjugation (internal: used to dualize solves)
        if self.rows == 0:
            data = tuple(() for _ in range(self.cols))
        else:
            data = tuple(tuple(r) for r in zip(*self.data))
        return StarMatrix(self.cols, self.rows, data, self.domain)

    def adjoint(self) -> "StarMatrix":
        """Conjugate transpose: the *-involution of the matrix ring."""
        star = self.domain.star
        t = self.transpose()
        return StarMatrix(
            t.rows, t.cols, tuple(tuple(star(x) for x in r) for r in t.data), self.domain
        )

    def pow(self, k: int) -> "StarMatrix":
        if not self.is_square():
            raise ShapeMismatch("matrix power needs a square matrix")
        if k < 0:
            raise ValueError("negative power")
        acc = StarMatrix.identity(self.rows, self.domain)
        for _ in range(k):
            acc = acc @ self
        return acc

    def is_zero(self) -> bool:
        z = self.domain.is_zero
        return all(z(x) for r in self.data for x in r)

    def __eq__(self, other):
        if not isinstance(other, StarMatrix):
            return NotImplemented
        if self.domain != other.domain or self.shape != other.shape:
            return False
        return self._same_entries(other)

    def _same_entries(self, other) -> bool:
        # exact scalars compare with ==, so the row tuples can compare whole
        return self.data == other.data

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.data)
        return f"StarMatrix<{self.rows}x{self.cols} {self.domain!r}>[{body}]"

    def _array(self) -> np.ndarray:
        # the entries as a complex128 array; never written to by callers
        return np.array(
            [[complex(x) for x in r] for r in self.data], dtype=np.complex128
        ).reshape(self.rows, self.cols)

    def _data_json(self) -> list:
        enc = self.domain.scalar_to_json
        return [[enc(x) for x in r] for r in self.data]

    def to_numpy(self) -> np.ndarray:
        """A fresh, writeable complex128 copy of the entries."""
        return np.array(self._array(), dtype=np.complex128)

    @classmethod
    def from_numpy(cls, arr: np.ndarray) -> "StarMatrix":
        arr = np.array(arr, dtype=np.complex128, order="C")  # a copy the caller cannot reach
        if arr.ndim != 2:
            raise ShapeMismatch("expected a 2-d array")
        return _ComplexMatrix._adopt(arr)


class _ComplexMatrix(StarMatrix):
    """ComplexFloat kernel: `data` is a read-only C-contiguous complex128
    array and every operation is one numpy call on it."""

    __slots__ = ()

    def __init__(self, rows, cols, data, domain):
        arr = np.array(data, dtype=np.complex128, order="C").reshape(rows, cols)
        arr.flags.writeable = False
        super().__init__(rows, cols, arr, domain)

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> "_ComplexMatrix":
        """Wrap a complex128 array that nothing else will write to."""
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        m = object.__new__(cls)
        StarMatrix.__init__(m, arr.shape[0], arr.shape[1], arr, COMPLEX_FLOAT)
        return m

    def _add(self, other):
        return self._adopt(self.data + other.data)

    def _sub(self, other):
        return self._adopt(self.data - other.data)

    def __neg__(self):
        return self._adopt(-self.data)

    def _matmul(self, other):
        return self._adopt(self.data @ other.data)

    def scale(self, c) -> "StarMatrix":
        return self._adopt(self.domain.coerce(c) * self.data)

    def transpose(self) -> "StarMatrix":
        return self._adopt(self.data.T)

    def adjoint(self) -> "StarMatrix":
        return self._adopt(self.data.T.conj())

    def is_zero(self) -> bool:
        return not self.data.any()

    def _same_entries(self, other) -> bool:
        return bool(np.array_equal(self.data, other.data))

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, so entries that compare equal hash alike
        return hash((self.rows, self.cols, (self.data + 0.0).tobytes()))

    def _array(self) -> np.ndarray:
        return self.data

    def _data_json(self) -> list:
        return np.stack((self.data.real, self.data.imag), axis=-1).tolist()


@dataclass(frozen=True)
class RankFactorization:
    """A = F G with F full column rank (m x r) and G full row rank (r x n)."""

    f: StarMatrix
    g: StarMatrix
    rank: int


def _fro(arr: np.ndarray) -> float:
    # the one Frobenius norm behind every float residual, bound and distance
    return float(np.linalg.norm(arr))


def norm_fro(a: StarMatrix) -> float:
    return _fro(a._array())


def rel_diff(a: StarMatrix, b: StarMatrix) -> float:
    """Relative Frobenius distance; 0.0/inf for exact domains."""
    if a.shape != b.shape or a.domain != b.domain:
        return math.inf
    if a.domain.exact:
        return 0.0 if a == b else math.inf
    na, nb = a._array(), b._array()
    return _fro(na - nb) / max(1.0, _fro(na), _fro(nb))


def acceptance_bound(
    domain: ScalarDomain, tol: ToleranceThresholds = DEFAULT_TOL, guard: bool = False
) -> float:
    """The largest residual or relative distance that counts as zero.

    0.0 in exact domains.  In ComplexFloat, residual_rel_tol for certificates,
    preconditions and comparisons inside one construction; _GUARD_SLACK times
    that (guard=True) for invariant guards on constructed inverses and for
    agreement between independently computed route values.
    """
    base = 0.0 if domain.exact else tol.residual_rel_tol
    return _GUARD_SLACK * base if guard else base


def all_within(values, bound: float) -> bool:
    """True iff every value is at most bound.  A NaN value fails."""
    return all(v <= bound for v in values)


def disagree(a: StarMatrix, b: StarMatrix, bound: float) -> bool:
    """True iff rel_diff(a, b) exceeds bound.

    A NaN distance is not a disagreement, so NaN alone never raises
    RouteDisagreement; the certificate, whose all_within test fails on NaN,
    reports it instead.
    """
    return rel_diff(a, b) > bound


# ---------------------------------------------------------------------------
# exact kernels: one product and one elimination per exact domain kind.  They
# compute on integers (Q, Q(i)) or numpy residue arrays (GF(p), Z/n) and hand
# back domain scalars, never calling the domain's scalar operations.


def _scaled_rationals(vectors):
    """Each vector of rationals as (integers, d) with vector = integers / d."""
    out = []
    for v in vectors:
        pairs = [x.as_integer_ratio() for x in v]
        d = math.lcm(*[q for _, q in pairs])
        out.append(([n * (d // q) for n, q in pairs], d))
    return out


def _scaled_gaussians(vectors):
    """Each vector of Gaussian rationals as (re integers, im integers, d)."""
    out = []
    for v in vectors:
        re = [x.re.as_integer_ratio() for x in v]
        im = [x.im.as_integer_ratio() for x in v]
        d = math.lcm(*[q for _, q in re], *[q for _, q in im])
        out.append(([n * (d // q) for n, q in re], [n * (d // q) for n, q in im], d))
    return out


def _residues(rows, p: int, terms: int) -> np.ndarray:
    """Residues mod p as an int64 array, or as Python ints (dtype object) when
    a sum of `terms` products of residues could overflow int64."""
    return np.array(rows, dtype=np.int64 if terms * (p - 1) ** 2 < 2**63 else object)


def _rational_product(a: StarMatrix, b: StarMatrix) -> tuple:
    cols = _scaled_rationals(zip(*b.data))
    return tuple(
        tuple(Fraction(sum(map(operator.mul, x, y)), dx * dy) for y, dy in cols)
        for x, dx in _scaled_rationals(a.data)
    )


def _gaussian_product(a: StarMatrix, b: StarMatrix) -> tuple:
    mul = operator.mul
    cols = _scaled_gaussians(zip(*b.data))
    out = []
    for xr, xi, dx in _scaled_gaussians(a.data):
        row = []
        for yr, yi, dy in cols:
            re = sum(map(mul, xr, yr)) - sum(map(mul, xi, yi))
            im = sum(map(mul, xr, yi)) + sum(map(mul, xi, yr))
            row.append(GaussianRational(Fraction(re, dx * dy), Fraction(im, dx * dy)))
        out.append(tuple(row))
    return tuple(out)


def _modular_product(a: StarMatrix, b: StarMatrix) -> tuple:
    p = a.domain.modulus
    x = _residues(a.data, p, a.cols).reshape(a.rows, a.cols)
    y = _residues(b.data, p, a.cols).reshape(b.rows, b.cols)
    return tuple(map(tuple, (x @ y % p).tolist()))


_PRODUCTS = {
    "rational": _rational_product,
    "gaussian_rational": _gaussian_product,
    "prime_field": _modular_product,
    "integer_mod": _modular_product,
}


def _fraction_free_rref(rows: list, width: int, lead, combine) -> list[int]:
    """Gauss-Jordan elimination without division, in place; returns the pivots.

    lead(row, c) is the entry in column c, falsy iff it is zero.
    combine(row, ref, c) is a nonzero multiple of row - (row[c]/ref[c]) ref.
    Every row therefore stays a nonzero multiple of the row that elimination
    with division would hold: the zero patterns, pivots and swaps are the same.
    """
    m = len(rows)
    pivots: list[int] = []
    for c in range(width):
        r = len(pivots)
        pr = next((i for i in range(r, m) if lead(rows[i], c)), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        ref = rows[r]
        for i in range(m):
            if i != r and lead(rows[i], c):
                rows[i] = combine(rows[i], ref, c)
        pivots.append(c)
        if len(pivots) == m:
            break
    return pivots


def _combine_integers(row, ref, c):
    g = math.gcd(row[c], ref[c])
    f, p = row[c] // g, ref[c] // g
    new = [p * v - f * w for v, w in zip(row, ref)]
    g = math.gcd(*new)  # content: keeps the integers small
    return [v // g for v in new] if g > 1 else new


def _combine_gaussian(row, ref, c):
    (xr, xi), (yr, yi) = row, ref
    g = math.gcd(xr[c], xi[c], yr[c], yi[c])
    fr, fi, pr, pi = xr[c] // g, xi[c] // g, yr[c] // g, yi[c] // g
    # (pr + pi i) x - (fr + fi i) y, entry by entry
    re = [pr * a - pi * b - fr * u + fi * v for a, b, u, v in zip(xr, xi, yr, yi)]
    im = [pr * b + pi * a - fr * v - fi * u for a, b, u, v in zip(xr, xi, yr, yi)]
    g = math.gcd(*re, *im)
    if g > 1:
        re, im = [v // g for v in re], [v // g for v in im]
    return re, im


def _rational_rref(rows, domain, width):
    ints = [x for x, _ in _scaled_rationals(rows)]
    pivots = _fraction_free_rref(ints, width, operator.getitem, _combine_integers)
    r = len(pivots)
    reduced = [[Fraction(v, row[c]) for v in row] for row, c in zip(ints, pivots)]
    return pivots, reduced, not any(map(any, ints[r:]))


def _gaussian_rref(rows, domain, width):
    ints = [(re, im) for re, im, _ in _scaled_gaussians(rows)]
    pivots = _fraction_free_rref(
        ints, width, lambda row, c: row[0][c] or row[1][c], _combine_gaussian
    )
    r = len(pivots)
    reduced = []
    for (re, im), c in zip(ints, pivots):
        pr, pi = re[c], im[c]
        n = pr * pr + pi * pi  # v / p = v conj(p) / |p|^2
        reduced.append(
            [
                GaussianRational(Fraction(a * pr + b * pi, n), Fraction(b * pr - a * pi, n))
                for a, b in zip(re, im)
            ]
        )
    return pivots, reduced, not any(any(re) or any(im) for re, im in ints[r:])


def _modular_rref(rows, domain, width):
    p = domain.modulus
    t = _residues(rows, p, 1)
    m = len(rows)
    pivots: list[int] = []
    for c in range(width):
        r = len(pivots)
        nz = np.flatnonzero(t[r:, c])
        if not nz.size:
            continue
        pr = r + int(nz[0])
        if pr != r:
            t[[r, pr]] = t[[pr, r]]
        t[r] = t[r] * pow(int(t[r, c]), -1, p) % p
        f = t[:, c].copy()
        f[r] = 0
        t = (t - np.outer(f, t[r])) % p
        pivots.append(c)
        if len(pivots) == m:
            break
    r = len(pivots)
    return pivots, t[:r].tolist(), not np.count_nonzero(t[r:])


_ELIMINATIONS = {
    "rational": _rational_rref,
    "gaussian_rational": _gaussian_rref,
    "prime_field": _modular_rref,
}


def _rref(rows, domain: ScalarDomain, width: int):
    """Reduced row echelon form of `rows` (an exact field) on their first
    `width` columns.

    Columns >= width (augmented part) are carried along.  Returns the pivot
    columns, the pivot rows of the RREF as domain scalars, and whether every
    other row is zero.  Deterministic: first nonzero column, first nonzero row.
    """
    if not rows:
        return [], [], True
    return _ELIMINATIONS[domain.kind](rows, domain, width)


def _svd_cutoff(s: np.ndarray, a: StarMatrix, tol: ToleranceThresholds) -> float:
    """Singular values at or below this are numerically zero: the one rank
    cutoff rank_rel_tol * sigma_max * max(rows, cols).  s is descending, so a
    zero or NaN sigma_max leaves no singular value above it."""
    return tol.rank_rel_tol * float(s[0]) * max(a.rows, a.cols) if s.size else 0.0


def rank(a: StarMatrix, tol: ToleranceThresholds = DEFAULT_TOL) -> int:
    """Rank of a.  Exact fields: Gaussian elimination; ComplexFloat: SVD."""
    if a.rows == 0 or a.cols == 0:
        return 0
    dom = a.domain
    if dom.kind == "complex_float":
        s = np.linalg.svd(a.data, compute_uv=False)
        return int(np.count_nonzero(s > _svd_cutoff(s, a, tol)))
    if not dom.field:
        raise UnsupportedDomain(f"rank is not defined over {dom!r}")
    return len(_rref(a.data, dom, a.cols)[0])


def full_rank_factorize(
    a: StarMatrix, tol: ToleranceThresholds = DEFAULT_TOL
) -> RankFactorization:
    """A = F G with inner dimension rank(A); rank 0 gives empty factors."""
    dom = a.domain
    if dom.kind == "complex_float":
        if a.rows == 0 or a.cols == 0:
            return RankFactorization(
                StarMatrix.zeros(a.rows, 0, dom), StarMatrix.zeros(0, a.cols, dom), 0
            )
        u, s, vh = np.linalg.svd(a.data, full_matrices=False)
        r = int(np.count_nonzero(s > _svd_cutoff(s, a, tol)))
        f = _ComplexMatrix._adopt(u[:, :r] * s[:r])
        g = _ComplexMatrix._adopt(vh[:r, :])
        return RankFactorization(f, g, r)
    if not dom.field:
        raise UnsupportedDomain(f"full-rank factorization unavailable over {dom!r}")
    pivots, reduced, _ = _rref(a.data, dom, a.cols)
    r = len(pivots)
    f = StarMatrix(a.rows, r, tuple(tuple(row[c] for c in pivots) for row in a.data), dom)
    g = StarMatrix(r, a.cols, tuple(map(tuple, reduced)), dom)
    return RankFactorization(f, g, r)


def _brute_solve_right(a: StarMatrix, b: StarMatrix):
    """Exhaustive column-wise solve over Z/nZ (small systems only)."""
    dom = a.domain
    n = dom.modulus
    k = a.cols
    if n**k > _BRUTE_CAP:
        raise TooLarge(f"exhaustive solve over Z/{n} with {k} unknowns per column")
    add, mul, zero = dom.add, dom.mul, dom.zero()
    cols_x = []
    for j in range(b.cols):
        target = tuple(b.data[i][j] for i in range(b.rows))
        found = None
        for cand in itertools.product(range(n), repeat=k):
            ok = True
            for i in range(a.rows):
                acc = zero
                arow = a.data[i]
                for t in range(k):
                    acc = add(acc, mul(arow[t], cand[t]))
                if acc != target[i]:
                    ok = False
                    break
            if ok:
                found = cand
                break
        if found is None:
            return None
        cols_x.append(found)
    data = tuple(tuple(cols_x[j][i] for j in range(b.cols)) for i in range(k))
    return StarMatrix(k, b.cols, data, dom)


def solve_right(
    a: StarMatrix, b: StarMatrix, tol: ToleranceThresholds = DEFAULT_TOL
) -> StarMatrix | None:
    """Particular X with A X = B, or None when the system is inconsistent.

    Exact fields return the fixed-pivot particular solution (free variables
    zero); ComplexFloat returns the minimum-norm solution and accepts it only
    if the residual passes the tolerance test.
    """
    if a.domain != b.domain:
        raise DomainMismatch(f"{a.domain!r} vs {b.domain!r}")
    if a.rows != b.rows:
        raise ShapeMismatch(f"{a.shape} X = {b.shape}")
    dom = a.domain
    if dom.kind == "complex_float":
        an, bn = a.data, b.data
        x = pinv(a, tol).data @ bn
        bound = acceptance_bound(dom, tol) * (_fro(an) * _fro(x) + _fro(bn))
        if _fro(an @ x - bn) > bound:
            return None
        return _ComplexMatrix._adopt(x)
    if not dom.field:
        if dom.kind != "integer_mod":
            raise UnsupportedDomain(f"no solver for {dom!r}")
        return _brute_solve_right(a, b)
    augmented = [ra + rb for ra, rb in zip(a.data, b.data)]
    pivots, reduced, consistent = _rref(augmented, dom, a.cols)
    if not consistent:
        return None
    zero = dom.zero()
    xdata = [(zero,) * b.cols] * a.cols
    for row, pc in zip(reduced, pivots):
        xdata[pc] = tuple(row[a.cols :])
    return StarMatrix(a.cols, b.cols, tuple(xdata), dom)


def solve_left(
    a: StarMatrix, b: StarMatrix, tol: ToleranceThresholds = DEFAULT_TOL
) -> StarMatrix | None:
    """Particular X with X A = B, or None.  Scalars commute, so transpose works."""
    xt = solve_right(a.transpose(), b.transpose(), tol)
    return None if xt is None else xt.transpose()


def inverse(a: StarMatrix, tol: ToleranceThresholds = DEFAULT_TOL) -> StarMatrix | None:
    """Two-sided inverse, or None when a is not a unit of the matrix ring."""
    if not a.is_square():
        raise ShapeMismatch("only square matrices can be inverted")
    n = a.rows
    if a.domain.kind == "complex_float":
        if rank(a, tol) < n:
            return None
        return _ComplexMatrix._adopt(np.linalg.inv(a.data))
    ident = StarMatrix.identity(n, a.domain)
    x = solve_right(a, ident, tol)
    if x is None:
        return None
    if a.domain.field:
        return x  # one-sided suffices over a field
    if (x @ a) == ident and (a @ x) == ident:
        return x
    return None


def pinv(a: StarMatrix, tol: ToleranceThresholds = DEFAULT_TOL) -> StarMatrix:
    """SVD pseudoinverse with the shared rank cutoff (ComplexFloat only)."""
    if a.domain.kind != "complex_float":
        raise UnsupportedDomain("pinv is the float path; exact domains use solve routes")
    if a.rows == 0 or a.cols == 0:
        return StarMatrix.zeros(a.cols, a.rows, a.domain)
    u, s, vh = np.linalg.svd(a.data, full_matrices=False)
    keep = s > _svd_cutoff(s, a, tol)
    if not keep.any():
        return StarMatrix.zeros(a.cols, a.rows, a.domain)
    with np.errstate(divide="ignore"):
        s_inv = np.where(keep, 1.0 / s, 0.0)
    return _ComplexMatrix._adopt((vh.conj().T * s_inv) @ u.conj().T)


def condition_number(a: StarMatrix, tol: ToleranceThresholds = DEFAULT_TOL) -> float:
    """sigma_max / sigma_min over the numerically nonzero spectrum (float only)."""
    if a.domain.kind != "complex_float":
        raise UnsupportedDomain("condition numbers are a float-path notion")
    if a.rows == 0 or a.cols == 0:
        return 1.0
    s = np.linalg.svd(a.data, compute_uv=False)
    nz = s[s > _svd_cutoff(s, a, tol)]
    return float(s[0] / nz[-1]) if nz.size else 1.0


def is_projection(p: StarMatrix, tol: ToleranceThresholds = DEFAULT_TOL) -> bool:
    """True iff p = p^2 = p* (Hermitian idempotent)."""
    if not p.is_square():
        raise ShapeMismatch("projection test needs a square matrix")
    bound = acceptance_bound(p.domain, tol)
    return all_within((rel_diff(q, p) for q in (p @ p, p.adjoint())), bound)


def right_nullspace(a: StarMatrix) -> StarMatrix:
    """Basis (as columns) of {x : A x = 0} over an exact field."""
    dom = a.domain
    if not (dom.exact and dom.field):
        raise UnsupportedDomain("nullspace basis requires an exact field")
    pivots, reduced, _ = _rref(a.data, dom, a.cols)
    pivset = set(pivots)
    free = [c for c in range(a.cols) if c not in pivset]
    zero, one, neg = dom.zero(), dom.one(), dom.neg
    cols = []
    for f in free:
        vec = [zero] * a.cols
        vec[f] = one
        for row, pc in zip(reduced, pivots):
            vec[pc] = neg(row[f])
        cols.append(vec)
    data = tuple(tuple(cols[j][i] for j in range(len(free))) for i in range(a.cols))
    return StarMatrix(a.cols, len(free), data, dom)


def left_nullspace(a: StarMatrix) -> StarMatrix:
    """Basis (as rows) of {x : x A = 0} over an exact field."""
    return right_nullspace(a.transpose()).transpose()


# ---------------------------------------------------------------------------
# JSON wire format


def matrix_to_json(a: StarMatrix) -> dict:
    return {
        "rows": a.rows,
        "cols": a.cols,
        "domain": domain_to_json(a.domain),
        "data": a._data_json(),
    }


def matrix_from_json(obj: dict) -> StarMatrix:
    dom = domain_from_json(obj["domain"])
    rows, cols = int(obj["rows"]), int(obj["cols"])
    data = obj["data"]
    if len(data) != rows or any(len(r) != cols for r in data):
        raise ShapeMismatch("data does not match declared rows/cols")
    dec = dom.scalar_from_json
    return StarMatrix(rows, cols, tuple(tuple(dec(x) for x in r) for r in data), dom)
