"""The benchmark's own arithmetic, used to check what ginv returns.

Nothing here imports ginv.  Matrices are lists of rows; values cross the
boundary only through ginv's JSON wire format (README, "Matrix JSON
format"), which the benchmark encodes and decodes itself.

Exact scalars: rational -> Fraction, gaussian_rational -> Gauss (a pair of
Fractions), prime_field -> int mod p, integer_mod -> int mod n.  Z/6 is
checked through the Chinese remainder split Z/6 = GF(2) x GF(3): every
defining equation holds in Z/6 iff it holds in both components.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


class Gauss:
    """Exact Gaussian rational re + im*i."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=Fraction(0)):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, o):
        return Gauss(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return Gauss(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return Gauss(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __eq__(self, o):
        return self.re == o.re and self.im == o.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def conj(self):
        return Gauss(self.re, -self.im)

    def inv(self):
        n = self.re * self.re + self.im * self.im
        return Gauss(self.re / n, -self.im / n)


class Field:
    """Scalar arithmetic for one exact domain (a field, or Z/n for products)."""

    def __init__(self, kind: str, modulus: int | None = None):
        self.kind, self.modulus = kind, modulus
        # definite involution: a* a = 0 forces a = 0
        self.definite = kind in ("rational", "gaussian_rational")

    def zero(self):
        return Gauss(0) if self.kind == "gaussian_rational" else (0 if self.modulus else Fraction(0))

    def one(self):
        return Gauss(1) if self.kind == "gaussian_rational" else (1 if self.modulus else Fraction(1))

    def red(self, x):
        return x % self.modulus if self.modulus else x

    def inv(self, x):
        if self.kind == "gaussian_rational":
            return x.inv()
        if self.modulus:
            return pow(x, -1, self.modulus)
        return 1 / x

    def conj(self, x):
        return x.conj() if self.kind == "gaussian_rational" else x

    # -- wire format --------------------------------------------------------

    def to_json(self, x):
        if self.kind == "gaussian_rational":
            return {"re": str(x.re), "im": str(x.im)}
        return x if self.modulus else str(x)

    def from_json(self, obj):
        if self.kind == "gaussian_rational":
            return Gauss(Fraction(obj["re"]), Fraction(obj["im"]))
        return obj % self.modulus if self.modulus else Fraction(obj)

    def domain_json(self) -> dict:
        d = {"kind": self.kind}
        if self.modulus:
            d["modulus"] = self.modulus
        return d


RATIONAL = Field("rational")
GAUSSIAN = Field("gaussian_rational")


def prime_field(p: int) -> Field:
    return Field("prime_field", p)


def integer_mod(n: int) -> Field:
    return Field("integer_mod", n)


# ---------------------------------------------------------------------------
# exact matrices


def matmul(f: Field, a, b):
    bt = list(zip(*b))
    zero, red = f.zero(), f.red
    out = []
    for row in a:
        new = []
        for col in bt:
            acc = zero
            for x, y in zip(row, col):
                acc = acc + x * y
            new.append(red(acc))
        out.append(new)
    return out


def adjoint(f: Field, a):
    return [[f.conj(x) for x in col] for col in zip(*a)]


def identity(f: Field, n: int):
    return [[f.one() if i == j else f.zero() for j in range(n)] for i in range(n)]


def _eliminate(f: Field, m, width: int) -> int:
    """Row-reduce m in place over the first width columns; return the rank."""
    rows, r = len(m), 0
    for c in range(width):
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = f.inv(m[r][c])
        m[r] = [f.red(x * inv) for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                g = m[i][c]
                m[i] = [f.red(x - g * y) for x, y in zip(m[i], m[r])]
        r += 1
    return r


def rank(f: Field, a) -> int:
    if f.kind == "integer_mod":
        raise ValueError("rank over Z/n: split into prime components first")
    return _eliminate(f, [list(r) for r in a], len(a[0]))


def inverse(f: Field, a):
    """Two-sided inverse over a field or squarefree Z/n, or None."""
    if f.kind == "integer_mod":
        parts = [inverse(prime_field(p), reduce_mod(a, p)) for p in crt_primes(f.modulus)]
        return None if any(x is None for x in parts) else crt_join(f.modulus, parts)
    n = len(a)
    m = [list(r) + e for r, e in zip(a, identity(f, n))]
    if _eliminate(f, m, n) < n:
        return None
    return [r[n:] for r in m]


def scale(f: Field, c, a):
    return [[f.red(c * x) for x in r] for r in a]


# ---------------------------------------------------------------------------
# Z/n through its prime components (n squarefree)


def crt_primes(n: int) -> list[int]:
    out, p, m = [], 2, n
    while m > 1:
        if m % p == 0:
            if (m // p) % p == 0:
                raise ValueError(f"Z/{n} is not squarefree")
            out.append(p)
            m //= p
        p += 1
    return out


def reduce_mod(a, p: int):
    return [[x % p for x in r] for r in a]


def crt_join(n: int, parts):
    """Matrix over Z/n from its components over GF(p) for each p | n."""
    primes = crt_primes(n)
    coeffs = []
    for p in primes:
        q = n // p
        coeffs.append(q * pow(q, -1, p))
    rows, cols = len(parts[0]), len(parts[0][0])
    return [
        [sum(c * m[i][j] for c, m in zip(coeffs, parts)) % n for j in range(cols)]
        for i in range(rows)
    ]


# ---------------------------------------------------------------------------
# existence criteria (fields; Z/n by components)
#
# Over a field with involution: a has a {1,3}-inverse iff rank(a* a) = rank(a),
# a {1,4}-inverse iff rank(a a*) = rank(a), and w is invertible along a iff
# rank(a w a) = rank(a).  a is w-core invertible iff w is invertible along a
# and a is {1,3}-invertible; dual v-core invertible iff v is invertible along
# a and a is {1,4}-invertible.  Definite involutions make the {1,3}/{1,4}
# conditions automatic.


def _core_exists(f: Field, a, w, dual: bool) -> bool:
    if f.kind == "integer_mod":
        return all(
            _core_exists(prime_field(p), reduce_mod(a, p), reduce_mod(w, p), dual)
            for p in crt_primes(f.modulus)
        )
    ra = rank(f, a)
    if rank(f, matmul(f, matmul(f, a, w), a)) != ra:
        return False
    if f.definite:
        return True
    sa = adjoint(f, a)
    gram = matmul(f, a, sa) if dual else matmul(f, sa, a)
    return rank(f, gram) == ra


def wcore_exists(f: Field, a, w) -> bool:
    return _core_exists(f, a, w, dual=False)


def dual_vcore_exists(f: Field, a, v) -> bool:
    return _core_exists(f, a, v, dual=True)


# Defining equations, written from the definitions (README / wcore docstring):
#   w-core x:       a w x x = x,  x a w a = a,  (a w x)* = a w x
#   dual v-core y:  y y v a = y,  a v a y = a,  (y v a)* = y v a
EQUATIONS = {
    "w_core": (("awxx", "x"), ("xawa", "a"), ("awx", "*awx")),
    "dual_v_core": (("xxva", "x"), ("avax", "a"), ("xva", "*xva")),
}


def _word(mul, star, env, word: str):
    if word.startswith("*"):
        return star(_word(mul, star, env, word[1:]))
    acc = env[word[0]]
    for sym in word[1:]:
        acc = mul(acc, env[sym])
    return acc


def exact_equations_hold(f: Field, kind: str, a, w, x) -> bool:
    env = {"a": a, "w": w, "v": w, "x": x}
    mul = lambda p, q: matmul(f, p, q)  # noqa: E731
    star = lambda p: adjoint(f, p)  # noqa: E731
    return all(
        _word(mul, star, env, lhs) == _word(mul, star, env, rhs)
        for lhs, rhs in EQUATIONS[kind]
    )


# ---------------------------------------------------------------------------
# complex floats (numpy)

RANK_REL_TOL = 1e-10  # ginv's documented default rank tolerance
FLOAT_CHECK_TOL = 1e-6  # scaled residual accepted by the benchmark's check


def float_rank(a: np.ndarray) -> int:
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > RANK_REL_TOL * s[0] * max(a.shape)))


def float_core_exists(a: np.ndarray, w: np.ndarray) -> bool:
    """Rank criterion rank(A) = rank(AWA); the same for the dual v-core."""
    return float_rank(a) == float_rank(a @ w @ a)


def float_residual(kind: str, a, w, x) -> float:
    """Largest scaled residual of the defining equations: ||L - R|| divided
    by the larger of 1, the side norms and the products of factor norms."""
    env = {"a": a, "w": w, "v": w, "x": x}
    mul = lambda p, q: p @ q  # noqa: E731
    star = lambda p: p.conj().T  # noqa: E731
    norms = {k: max(1.0, float(np.linalg.norm(m))) for k, m in env.items()}
    worst = 0.0
    for lhs, rhs in EQUATIONS[kind]:
        left, right = _word(mul, star, env, lhs), _word(mul, star, env, rhs)
        scale = max(
            1.0,
            float(np.linalg.norm(left)),
            float(np.linalg.norm(right)),
            float(np.prod([norms[c] for c in lhs.lstrip("*")])),
            float(np.prod([norms[c] for c in rhs.lstrip("*")])),
        )
        worst = max(worst, float(np.linalg.norm(left - right)) / scale)
    return worst


# ---------------------------------------------------------------------------
# wire format


def matrix_json(f: Field | None, a) -> dict:
    """ginv matrix JSON for an exact (f given) or complex (f None) matrix."""
    if f is None:
        arr = np.asarray(a, dtype=complex)
        data = [[[float(z.real), float(z.imag)] for z in r] for r in arr]
        dom = {"kind": "complex_float"}
        return {"rows": arr.shape[0], "cols": arr.shape[1], "domain": dom, "data": data}
    data = [[f.to_json(x) for x in r] for r in a]
    return {"rows": len(a), "cols": len(a[0]), "domain": f.domain_json(), "data": data}


def matrix_from_json(f: Field | None, obj: dict):
    if f is None:
        return np.array(
            [[complex(z[0], z[1]) for z in r] for r in obj["data"]], dtype=complex
        ).reshape(obj["rows"], obj["cols"])
    return [[f.from_json(x) for x in r] for r in obj["data"]]
