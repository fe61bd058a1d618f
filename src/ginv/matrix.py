"""Matrices over a scalar *-domain; adjoint is the conjugate transpose.

An exact matrix holds one integer payload: over Q and Q(i), integer arrays
over one gcd-reduced positive denominator; over GF(p) and Z/nZ, one residue
array.  Products, fraction-free elimination, sums, adjoints and comparisons
run on it; the entries of `.data` are built only when read.  ComplexFloat
matrices hold one read-only complex128 array, so their arithmetic and norms
are numpy calls, and their decisions (rank, solvability, projection tests)
all go through the SVD under ToleranceThresholds.  Each matrix keeps its
factorization from `_factors` on the instance (never in a module cache):
the thin SVD in float, which transposes and adjoints inherit, or over exact
fields the echelon form from deterministic first-nonzero-column /
first-nonzero-row Gauss-Jordan elimination, which a's first solve, rank or
factorization leaves.  Neither holds a tolerance.  A float matrix also keeps
its Frobenius norm, and its pseudoinverse with the ToleranceThresholds it was
formed under; transposes and adjoints inherit neither.  Z/nZ shares the GF(p)
kernel, which folds non-unit pivots by Bezout steps into a Howell form.
"""

from __future__ import annotations

import functools
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
from .errors import DomainMismatch, PreconditionFailed, RouteDisagreement, ShapeMismatch
from .errors import UnsupportedDomain


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

    The constructor takes a tuple of row-tuples of coerced scalars and builds
    the private subclass that holds the domain's payload: `_ComplexMatrix`,
    whose `data` is a read-only C-contiguous complex128 array (indexing it
    yields `complex` scalars, since np.complex128 subclasses complex), or
    `_ExactMatrix`, whose `data` tuples are built from its integer payload
    on first read.
    """

    __slots__ = ("rows", "cols", "domain", "_f")

    def __new__(cls, rows=None, cols=None, data=None, domain=None):
        # the kernel is chosen once, here, from the domain
        if cls is StarMatrix and domain is not None:
            cls = _ComplexMatrix if domain.kind == "complex_float" else _ExactMatrix
        return object.__new__(cls)

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
        return _from_ints(domain, np.zeros((rows, cols), dtype=object))

    @classmethod
    def identity(cls, n: int, domain: ScalarDomain) -> "StarMatrix":
        return _from_ints(domain, np.eye(n, dtype=object))

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
        return self._entrywise(other, operator.add)

    def __sub__(self, other):
        if not isinstance(other, StarMatrix):
            return NotImplemented
        self._check_same_shape(other, "-")
        return self._entrywise(other, operator.sub)

    def __matmul__(self, other):
        if not isinstance(other, StarMatrix):
            return NotImplemented
        self._check_domain(other)
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.shape} @ {other.shape}")
        return self._matmul(other)

    def pow(self, k: int) -> "StarMatrix":
        if not self.is_square():
            raise ShapeMismatch("matrix power needs a square matrix")
        if k < 0:
            raise ValueError("negative power")
        acc = StarMatrix.identity(self.rows, self.domain)
        for _ in range(k):
            acc = acc @ self
        return acc

    def __eq__(self, other):
        if not isinstance(other, StarMatrix):
            return NotImplemented
        if self.domain != other.domain or self.shape != other.shape:
            return False
        return self._same_entries(other)

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

    __slots__ = ("data", "_norm", "_pinv")  # norm_fro and pinv keep theirs here

    def __init__(self, rows, cols, data, domain):
        self._set(np.array(data, dtype=np.complex128, order="C").reshape(rows, cols))

    @classmethod
    def _adopt(cls, arr: np.ndarray, svd=None) -> "_ComplexMatrix":
        """Wrap a complex128 array that nothing else will write to (and its SVD)."""
        m = object.__new__(cls)
        m._set(np.ascontiguousarray(arr), svd)
        return m

    def _set(self, arr, svd=None):
        arr.flags.writeable = False
        (self.rows, self.cols), self.domain, self.data = arr.shape, COMPLEX_FLOAT, arr
        self._f, self._norm, self._pinv = svd, None, None

    def _payload(self, star=False):
        return (np.ascontiguousarray(self.data.T.conj()) if star else self.data,), 1

    def _entrywise(self, other, op):
        return self._adopt(op(self.data, other.data))

    def __neg__(self):
        return self._adopt(-self.data)

    def _matmul(self, other):
        return self._adopt(self.data @ other.data)

    def scale(self, c) -> "StarMatrix":
        return self._adopt(self.domain.coerce(c) * self.data)

    def transpose(self) -> "StarMatrix":
        f = self._f  # a = u s vh gives a.T = vh.T s u.T and a* = vh* s u*
        return self._adopt(self.data.T, f and (f[2].T, f[1], f[0].T))

    def adjoint(self) -> "StarMatrix":
        f = self._f
        return self._adopt(self.data.T.conj(), f and (f[2].T.conj(), f[1], f[0].T.conj()))

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


class _ExactMatrix(StarMatrix):
    """Exact kernel over Q, Q(i), GF(p) and Z/nZ: the entries are ints / den.

    `ints` holds read-only integer arrays, (re, im) over Q(i) and one array
    otherwise.  Over Q and Q(i) they hold Python ints (dtype object) and
    den > 0 with gcd(den, every integer) = 1, so equal matrices have equal
    payloads.  Over GF(p) and Z/nZ, den = 1 and the array holds residues in
    [0, p): int64 while cols * (p - 1)**2 < 2**63, so products cannot
    overflow, and Python ints above that.  `data` is built on first read.
    """

    __slots__ = ("ints", "den", "_data")

    def __init__(self, rows, cols, data, domain):
        flat, den = [x for r in data for x in r], 1
        gaussian = domain.kind == "gaussian_rational"
        if gaussian:
            flat = [x.re for x in flat] + [x.im for x in flat]
        if domain.modulus is None:
            pairs = [x.as_integer_ratio() for x in flat]
            den = math.lcm(*[q for _, q in pairs])
            flat = [n * (den // q) for n, q in pairs]
        ints = np.array(flat, dtype=object).reshape(1 + gaussian, rows, cols)
        self._set(domain, tuple(ints), den)

    def _set(self, dom, ints, den, lowest=False):
        # the canonical payload: residues reduced mod p in their dtype, or
        # integers and denominator divided by their gcd unless already lowest
        p = dom.modulus
        if p is not None:
            dtype = np.int64 if ints[0].shape[1] * (p - 1) ** 2 < 2**63 else object
            ints = ((ints[0] % p).astype(dtype, copy=False),)
        elif den != 1 and not lowest:
            ints, den = _lowest(ints, den)
        for x in ints:
            x.flags.writeable = False
        self.rows, self.cols = ints[0].shape
        self.domain, self.ints, self.den, self._data, self._f = dom, ints, den, None, None

    @property
    def data(self):
        if self._data is None:
            rows, d = [x.tolist() for x in self.ints], self.den
            if self.domain.modulus is not None:
                data = rows[0]
            elif len(rows) == 1:
                data = [[Fraction(n, d) for n in r] for r in rows[0]]
            else:
                data = [
                    [GaussianRational(Fraction(a, d), Fraction(b, d)) for a, b in zip(*r)]
                    for r in zip(*rows)
                ]
            self._data = tuple(map(tuple, data))
        return self._data

    def _aligned(self, other):
        # both integer payloads over the least common denominator
        d1, d2 = self.den, other.den
        if d1 == d2:
            return self.ints, other.ints, d1
        d = math.lcm(d1, d2)
        return tuple(x * (d // d1) for x in self.ints), tuple(y * (d // d2) for y in other.ints), d

    def _entrywise(self, other, op):
        x, y, den = self._aligned(other)
        return _exact(self.domain, tuple(map(op, x, y)), den)

    # a sign change, a transpose and an adjoint keep the gcd of a lowest payload
    def __neg__(self):
        return _exact(self.domain, tuple(-x for x in self.ints), self.den, lowest=True)

    def _matmul(self, other):
        ints = _times(self.ints, other.ints, operator.matmul)
        return _exact(self.domain, ints, self.den * other.den)

    def scale(self, c) -> "StarMatrix":
        s = StarMatrix(1, 1, ((self.domain.coerce(c),),), self.domain)
        return _exact(self.domain, _times(self.ints, s.ints, operator.mul), self.den * s.den)

    def transpose(self) -> "StarMatrix":
        # plain transpose, no conjugation (internal: used to dualize solves)
        return _exact(self.domain, tuple(x.T for x in self.ints), self.den, lowest=True)

    def adjoint(self) -> "StarMatrix":
        """Conjugate transpose: the *-involution of the matrix ring."""
        t = tuple(x.T for x in self.ints)
        return _exact(self.domain, t[:1] + tuple(-x for x in t[1:]), self.den, lowest=True)

    def _payload(self, star=False):
        return (m := self.adjoint() if star else self).ints, m.den

    def is_zero(self) -> bool:
        return not any(x.any() for x in self.ints)

    def _same_entries(self, other) -> bool:
        return self.den == other.den and all(
            x.tolist() == y.tolist() for x, y in zip(self.ints, other.ints)
        )

    def __hash__(self):
        return hash((self.shape, self.den, *(tuple(x.ravel().tolist()) for x in self.ints)))


def _exact(dom: ScalarDomain, ints: tuple, den: int = 1, lowest: bool = False) -> _ExactMatrix:
    m = object.__new__(_ExactMatrix)
    m._set(dom, ints, den, lowest)
    return m


def _from_ints(dom: ScalarDomain, arr: np.ndarray) -> StarMatrix:
    """The matrix with integer entries arr (dtype object)."""
    if dom.kind == "complex_float":
        return _ComplexMatrix._adopt(arr.astype(np.complex128))
    return _exact(dom, (arr, np.zeros_like(arr)) if dom.kind == "gaussian_rational" else (arr,))


def _payload_product(dom: ScalarDomain, x: tuple, y: tuple) -> tuple:
    """x y on `_payload` pairs (arrays, den): dens multiply unreduced, residues mod n."""
    (xs, xd), (ys, yd) = x, y
    if xs[0].shape[1] != ys[0].shape[0]:
        raise ShapeMismatch(f"{xs[0].shape} @ {ys[0].shape}")
    zs = _times(xs, ys, operator.matmul)
    return (zs if dom.modulus is None else tuple(z % dom.modulus for z in zs)), xd * yd


def _payload_matrix(dom: ScalarDomain, x: tuple) -> StarMatrix:
    return _ComplexMatrix._adopt(x[0][0]) if dom.kind == "complex_float" else _exact(dom, *x)


def _times(x: tuple, y: tuple, op) -> tuple:
    """Integer payload of a product: op is @ (matrix) or * (by a 1x1 scalar);
    (re, im) pairs multiply as Gaussian integers."""
    if len(x) == 1:
        return (op(x[0], y[0]),)
    (xr, xi), (yr, yi) = x, y
    return op(xr, yr) - op(xi, yi), op(xr, yi) + op(xi, yr)


@dataclass(frozen=True)
class RankFactorization:
    """A = F G with F full column rank (m x r) and G full row rank (r x n)."""

    f: StarMatrix
    g: StarMatrix
    rank: int


def _fro(arr: np.ndarray) -> float:
    # the one Frobenius norm behind every float residual, bound and distance:
    # np.linalg.norm's own sum for a complex array, bit for bit, minus its dispatch
    v = arr.ravel(order="K")
    return math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))


def norm_fro(a: StarMatrix) -> float:
    if a.domain.exact:
        return _fro(a._array())
    a._norm = _fro(a.data) if a._norm is None else a._norm  # kept on the instance
    return a._norm


def rel_diff(a: StarMatrix, b: StarMatrix) -> float:
    """Relative Frobenius distance; 0.0/inf for exact domains."""
    if a.shape != b.shape or a.domain != b.domain:
        return math.inf
    if a.domain.exact:
        return 0.0 if a == b else math.inf
    return _fro(a._array() - b._array()) / max(1.0, norm_fro(a), norm_fro(b))


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
# exact elimination: one kernel per exact kind, on the integer payload (Q,
# Q(i)) or the residue array (GF(p) and Z/n), never calling the domain's
# scalar operations.


def _fraction_free_rref(rows: list, width: int, lead, combine) -> list[int]:
    """Gauss-Jordan elimination without division, in place; returns the pivots.

    lead(row, c) is the entry in column c, falsy iff it is zero.
    combine(row, ref, c, prev) is a multiple of row - (row[c]/ref[c]) ref,
    nonzero if row is; prev is the previous pivot's (row, column), or None.
    Every row therefore stays a multiple of the row that elimination with
    division would hold: the zero patterns, pivots and swaps are the same.
    """
    m = len(rows)
    pivots: list[int] = []
    prev = None
    for c in range(width):
        r = len(pivots)
        pr = next((i for i in range(r, m) if lead(rows[i], c)), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        ref = rows[r]
        for i in range(m):
            if i != r:
                rows[i] = combine(rows[i], ref, c, prev)
        prev = ref, c
        pivots.append(c)
        if len(pivots) == m:
            break
    return pivots


def _combine_integers(row, ref, c, prev):
    if not row[c]:
        return row  # Q divides by no earlier pivot, so rows need not share a step
    g = math.gcd(row[c], ref[c])
    f, p = row[c] // g, ref[c] // g
    new = [p * v - f * w for v, w in zip(row, ref)]
    g = math.gcd(*new)  # content: keeps the integers small
    return [v // g for v in new] if g > 1 else new


def _combine_gaussian(row, ref, c, prev):
    # Bareiss in Z[i]: (p x - f y) / d = (p d' x - f d' y) / |d|^2, with
    # p = ref[c], f = row[c], d the previous pivot (1 at the first) and d' its
    # conjugate; the division is exact, as every entry is a minor of the input
    (xr, xi), (yr, yi) = row, ref
    (dre, dim), pc = prev or (([1], [0]), 0)
    dr, di = dre[pc], dim[pc]
    pr, pi = yr[c] * dr + yi[c] * di, yi[c] * dr - yr[c] * di  # p d'
    fr, fi = xr[c] * dr + xi[c] * di, xi[c] * dr - xr[c] * di  # f d'
    n = dr * dr + di * di
    re = [(pr * a - pi * b - fr * u + fi * v) // n for a, b, u, v in zip(xr, xi, yr, yi)]
    im = [(pr * b + pi * a - fr * v - fi * u) // n for a, b, u, v in zip(xr, xi, yr, yi)]
    return re, im


def _lowest(ints: tuple, den: int):
    """The integer arrays ints over den, in lowest terms (den = 1 already is)."""
    if den == 1:
        return ints, den
    g = math.gcd(den, *itertools.chain.from_iterable(x.ravel().tolist() for x in ints))
    return (tuple(x // g for x in ints), den // g) if g > 1 else (ints, den)


def _object_rows(rows: list, ints: tuple) -> np.ndarray:
    return np.array(rows, dtype=object).reshape(len(rows), ints[0].shape[1])


def _rational_rref(ints, p, width):
    rows = ints[0].tolist()
    pivots = _fraction_free_rref(rows, width, operator.getitem, _combine_integers)
    r = len(pivots)
    lead = [row[c] for row, c in zip(rows, pivots)]
    den = math.lcm(*lead)  # each pivot row is divided by its pivot
    out = _object_rows([[v * (den // q) for v in row] for row, q in zip(rows, lead)], ints)
    return pivots, (out,), den, not any(map(any, rows[r:]))


def _gaussian_rref(ints, p, width):
    rows = list(zip(*(x.tolist() for x in ints)))
    pivots = _fraction_free_rref(
        rows, width, lambda row, c: row[0][c] or row[1][c], _combine_gaussian
    )
    r = len(pivots)
    # every pivot ends as the last one, d: v / d = v conj(d) / |d|^2
    dr, di = (rows[r - 1][0][pivots[-1]], rows[r - 1][1][pivots[-1]]) if r else (1, 0)
    out_re = [[a * dr + b * di for a, b in zip(*row)] for row in rows[:r]]
    out_im = [[b * dr - a * di for a, b in zip(*row)] for row in rows[:r]]
    out = (_object_rows(out_re, ints), _object_rows(out_im, ints))
    return pivots, out, dr * dr + di * di, not any(any(re) or any(im) for re, im in rows[r:])


def _modular_rref(ints, n, width):
    # a Howell form over Z/n (Howell, Lin. Multilin. Alg. 19, 1986; Storjohann and
    # Mulders, ESA 1998), the RREF over GF(p); products stay in int64 payloads
    t = ints[0].copy()
    pivots: list[int] = []
    for c in range(width):
        r = len(pivots)
        nz = t[r:, c].nonzero()[0]
        if not nz.size:
            continue
        pr = r + int(nz[0])  # the first unit of the column: over GF(p), the first nonzero
        if math.gcd(int(t[pr, c]), n) > 1:
            pr = next((r + i for i in nz[1:].tolist() if math.gcd(int(t[r + i, c]), n) == 1), None)
        if pr is None:  # no unit: fold the column into its first entry
            t[[r, r + nz[0]]] = t[[r + nz[0], r]]
            for i in r + nz[1:]:  # s a + u b = g, with 0 <= s < b/g and -a < u <= 1
                a, b = int(t[r, c]), int(t[i, c])
                g = math.gcd(a, b)
                s = pow(a // g, -1, b // g)
                u = (g - s * a) // b
                t[r], t[i] = (s * t[r] + u * t[i]) % n, (b // g * t[r] - a // g * t[i]) % n
            # n/g times the pivot row is zero in column c: later columns reduce it
            t = np.vstack((t, t[r] * (n // math.gcd(int(t[r, c]), n)) % n))
        else:
            if pr != r:
                t[[r, pr]] = t[[pr, r]]
            t[r] = t[r] * pow(int(t[r, c]), -1, n) % n
            f = t[:, c].copy()
            f[r] = 0
            t = (t - f[:, None] * t[r]) % n
        pivots.append(c)
        if len(pivots) == len(t):
            break
    r = len(pivots)
    return pivots, (t[:r],), 1, not np.count_nonzero(t[r:])


_ELIMINATIONS = {
    "rational": _rational_rref,
    "gaussian_rational": _gaussian_rref,
    "prime_field": _modular_rref,
    "integer_mod": _modular_rref,
}


def _rref(dom: ScalarDomain, ints: tuple, width: int):
    """Echelon form, on its first `width` columns, of the matrix with integer
    payload `ints`: the RREF over an exact field, a Howell form over Z/n.

    Columns >= width (augmented part) are carried along.  Returns the pivot
    columns, the pivot rows as integer arrays over one denominator, that
    denominator, and whether every other row is zero.  Deterministic: first
    nonzero column; first nonzero row, over Z/n the first unit.
    """
    return _ELIMINATIONS[dom.kind](ints, dom.modulus, width)


def _record(pivots: list, rows: tuple, den: int):
    return (pivots, *_lowest(rows, den))


def _factors(a: StarMatrix):
    """a's one factorization, kept on the instance and free of tolerances:
    the thin SVD (u, s, vh) in float, else _rref's pivots and its rows over
    den in lowest terms (I over 1 for a unit), reduced when first read."""
    if a._f is None and a.domain.kind == "complex_float":
        f = np.linalg.svd(a.data, full_matrices=False)
        if not np.isfinite(f[1]).all():  # numpy answers an inf entry with NaN, no error
            raise np.linalg.LinAlgError("SVD did not converge")
        a._f = f
    elif a._f is None:
        a._f = _record(*_rref(a.domain, a.ints, a.cols)[:3])
    elif callable(a._f):
        a._f = a._f()
    return a._f


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
        s = _factors(a)[1]
        return int(np.count_nonzero(s > _svd_cutoff(s, a, tol)))
    if not dom.field:
        raise UnsupportedDomain(f"rank is not defined over {dom!r}")
    return len(_factors(a)[0])


def full_rank_factorize(
    a: StarMatrix, tol: ToleranceThresholds = DEFAULT_TOL
) -> RankFactorization:
    """A = F G with inner dimension rank(A); rank 0 gives empty factors."""
    dom = a.domain
    if dom.kind == "complex_float":
        u, s, vh = _factors(a)
        r = int(np.count_nonzero(s > _svd_cutoff(s, a, tol)))
        f = _ComplexMatrix._adopt(u[:, :r] * s[:r])
        g = _ComplexMatrix._adopt(vh[:r, :])
        return RankFactorization(f, g, r)
    if not dom.field:
        raise UnsupportedDomain(f"full-rank factorization unavailable over {dom!r}")
    pivots, rows, den = _factors(a)
    f = _exact(dom, tuple(x[:, pivots] for x in a.ints), a.den)
    return RankFactorization(f, _exact(dom, rows, den), len(pivots))


def pivot_right_inverse(a: StarMatrix) -> StarMatrix:
    """solve_right(G, 1) for G = full_rank_factorize(a).g over an exact field,
    read off: G is a's RREF, so 1's rows at G's pivots, zero elsewhere, solve G X = 1."""
    pivots = _factors(a)[0]
    e = np.zeros((a.cols, len(pivots)), dtype=object)
    e[pivots, range(len(pivots))] = 1
    return _from_ints(a.domain, e)


def solve_right(
    a: StarMatrix, b: StarMatrix, tol: ToleranceThresholds = DEFAULT_TOL
) -> StarMatrix | None:
    """Particular X with A X = B, or None when the system is inconsistent.

    Exact domains return the fixed-pivot particular solution (free variables
    zero) and keep a's echelon form; ComplexFloat returns the minimum-norm
    solution and accepts it only if the residual passes the tolerance test.
    """
    if a.domain != b.domain:
        raise DomainMismatch(f"{a.domain!r} vs {b.domain!r}")
    if a.rows != b.rows:
        raise ShapeMismatch(f"{a.shape} X = {b.shape}")
    dom = a.domain
    if dom.kind == "complex_float":
        x = _ComplexMatrix._adopt(pinv(a, tol).data @ b.data)
        bound = acceptance_bound(dom, tol) * (norm_fro(a) * norm_fro(x) + norm_fro(b))
        return None if _fro(a.data @ x.data - b.data) > bound else x
    x, y, _ = a._aligned(b)
    pivots, rows, den, consistent = _rref(dom, tuple(map(np.hstack, zip(x, y))), a.cols)
    if a._f is None:  # the pivots depend on a's columns alone; reduced only if read
        a._f = functools.partial(_record, pivots, tuple(r[:, : a.cols] for r in rows), den)
    if not consistent:
        return None
    out = tuple(np.zeros((a.cols, b.cols), dtype=r.dtype) for r in rows)
    if dom.field:
        for o, r in zip(out, rows):
            o[pivots] = r[:, a.cols :]  # free variables zero
        return _exact(dom, out, den)
    # Z/n: upwards over the Howell rows, e x = rhs gives x = (rhs/g)(e/g)^-1 mod n/g
    (x,), (h,), n = out, rows, dom.modulus
    for row, c in zip(h[::-1], pivots[::-1]):
        rhs = (row[a.cols :] - row[c + 1 : a.cols] @ x[c + 1 :]) % n
        e, g = int(row[c]), math.gcd(int(row[c]), n)
        if (rhs % g).any():  # the Howell property rules this out
            raise RouteDisagreement(f"Howell form over Z/{n}: {rhs} is not a multiple of {g}")
        x[c] = rhs // g * pow(e // g, -1, n // g) % (n // g)
    return _exact(dom, out)


def solve_left(
    a: StarMatrix, b: StarMatrix, tol: ToleranceThresholds = DEFAULT_TOL
) -> StarMatrix | None:
    """Particular X with X A = B, or None.  Scalars commute, so transpose works."""
    xt = solve_right(a.transpose(), b.transpose(), tol)
    return None if xt is None else xt.transpose()


def require_square(a: StarMatrix, *others: StarMatrix) -> None:
    """ShapeMismatch unless a is square and every other operand has its shape."""
    if not a.is_square() or any(m.shape != a.shape for m in others):
        raise ShapeMismatch("square, same-size operands required")


def inverse(a: StarMatrix, tol: ToleranceThresholds = DEFAULT_TOL) -> StarMatrix | None:
    """Two-sided inverse, or None when a is not a unit of the matrix ring."""
    if not a.is_square():
        raise ShapeMismatch("only square matrices can be inverted")
    n = a.rows
    if a.domain.kind == "complex_float":
        # full rank: the pseudoinverse from a's kept SVD is the inverse
        return pinv(a, tol) if rank(a, tol) == n else None
    # one-sided suffices: over a commutative ring, a x = 1 gives det(a) det(x) = 1
    return solve_right(a, StarMatrix.identity(n, a.domain), tol)


def pinv(a: StarMatrix, tol: ToleranceThresholds = DEFAULT_TOL) -> StarMatrix:
    """SVD pseudoinverse with the shared rank cutoff (ComplexFloat only), kept per tol."""
    if a.domain.kind != "complex_float":
        raise UnsupportedDomain("pinv is the float path; exact domains use solve routes")
    if a._pinv is None or (a._pinv[0] is not tol and a._pinv[0] != tol):
        u, s, vh = _factors(a)
        keep = s > _svd_cutoff(s, a, tol)
        s_inv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
        p = (vh.conj().T * s_inv) @ u.conj().T if keep.any() else np.zeros(a.shape[::-1], complex)
        a._pinv = tol, _ComplexMatrix._adopt(p)
    return a._pinv[1]


def condition_number(a: StarMatrix, tol: ToleranceThresholds = DEFAULT_TOL) -> float:
    """sigma_max / sigma_min over the numerically nonzero spectrum (float only)."""
    if a.domain.kind != "complex_float":
        raise UnsupportedDomain("condition numbers are a float-path notion")
    s = _factors(a)[1]
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
    pivots, rows, den = _factors(a)
    free = [c for c in range(a.cols) if c not in set(pivots)]
    out = tuple(np.zeros((a.cols, len(free)), dtype=r.dtype) for r in rows)
    out[0][free, range(len(free))] = den  # free variable f is 1 in column f
    for o, r in zip(out, rows):
        o[pivots] = -r[:, free]
    return _exact(dom, out, den)


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
    if not isinstance(obj, dict):
        raise PreconditionFailed(f"a matrix must be a JSON object, got {obj!r}")
    for key in ("domain", "rows", "cols", "data"):
        if key not in obj:
            raise PreconditionFailed(f"matrix has no {key!r} field")
    dom, rows, cols, data = domain_from_json(obj["domain"]), obj["rows"], obj["cols"], obj["data"]
    for key, size in (("rows", rows), ("cols", cols)):
        if isinstance(size, bool) or not isinstance(size, int) or size < 0:
            raise ShapeMismatch(f"{key} must be a non-negative integer, got {size!r}")
    if not isinstance(data, list) or len(data) != rows or any(
        not isinstance(r, list) or len(r) != cols for r in data
    ):
        raise ShapeMismatch("data does not match declared rows/cols")
    dec = dom.scalar_from_json
    return StarMatrix(rows, cols, tuple(tuple(dec(x) for x in r) for r in data), dom)
