"""Scalar *-rings: rationals, Gaussian rationals, GF(p), Z/nZ, complex floats.

The matrix kernels compute on whole arrays (see the matrix module) and
never call the scalar arithmetic here; the domain methods serve coercion,
the JSON codec, and scalar arithmetic for callers and the benchmark's
probes.  Values are plain immutable objects: Fraction, GaussianRational,
canonical int residues in [0, n), or python complex.  Exact domains decide
equality exactly; ComplexFloat equality is never used for logic (see matrix
module tolerances).
"""

from __future__ import annotations

import cmath
import sys
from decimal import Decimal
from fractions import Fraction

from .errors import DomainMismatch, NotInvertible


# Fraction(str) and str(Fraction) fail past sys.get_int_max_str_digits() digits; Decimal does not.
# An exponent past the default digit limit is refused before 10**exponent is built: Fraction
# would build it whatever the limit, and "1e99999999" alone runs for more than 20 s
def _fraction_from_json(obj, what: str) -> Fraction:
    try:
        _, e, exponent = obj.lower().rpartition("e") if isinstance(obj, str) else ("", "", "")
        if e and abs(Decimal(exponent)) > sys.int_info.default_max_str_digits:
            raise ValueError(obj)
        try:
            return Fraction(obj)
        except ValueError as exc:
            if not str(exc).startswith("Exceeds the limit"):
                raise
            num, _, den = obj.partition("/")
            return Fraction(Decimal(num)) / Fraction(Decimal(den or 1))
    except ZeroDivisionError:
        raise DomainMismatch(f"bad {what} scalar {obj!r}: zero denominator") from None
    except (ArithmeticError, ValueError):
        raise DomainMismatch(f"bad {what} scalar {obj!r}") from None


# Miller-Rabin with the primes up to 41 as bases decides primality exactly
# below this bound (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Exact primality below _MR_EXACT_BELOW; larger n raise ValueError."""
    if n < 2:
        return False
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"modulus {n} is too large to prove prime (limit {_MR_EXACT_BELOW})")
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class GaussianRational:
    """Exact Gaussian rational re + im*i with Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    @staticmethod
    def _coerce(x):
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        return None

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        # |z|^2, exact
        return self.re * self.re + self.im * self.im

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        c = o.conjugate()
        p = self * c
        return GaussianRational(p.re / n, p.im / n)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


class ScalarDomain:
    """Base scalar *-ring.  Subclasses fix the value representation."""

    kind = "?"
    definite = True  # A* A = 0 forces A = 0 (characteristic 0): MP inverses exist
    exact = True
    field = True
    modulus: int | None = None

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def from_int(self, k: int):
        raise NotImplementedError

    def coerce(self, x):
        raise NotImplementedError

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def star(self, a):
        return a

    def eq(self, a, b) -> bool:
        return a == b

    def is_zero(self, a) -> bool:
        return self.eq(a, self.zero())

    def is_unit(self, a) -> bool:
        try:
            self.inv(a)
            return True
        except NotInvertible:
            return False

    def scalar_to_json(self, a):
        raise NotImplementedError

    def scalar_from_json(self, obj):
        raise NotImplementedError

    def __eq__(self, other):
        return self is other or (
            isinstance(other, ScalarDomain)
            and self.kind == other.kind
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.kind, self.modulus))

    def __repr__(self):
        if self.modulus is not None:
            return f"{self.kind}({self.modulus})"
        return self.kind


class RationalDomain(ScalarDomain):
    kind = "rational"

    def from_int(self, k):
        return Fraction(k)

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return Fraction(x)
        raise DomainMismatch(f"cannot coerce {x!r} into {self!r}")

    def inv(self, a):
        if a == 0:
            raise NotInvertible("0 has no inverse")
        return 1 / a

    def scalar_to_json(self, a):
        try:
            return str(a)
        except ValueError:  # past the digit limit: see _fraction_from_json
            num, den = Decimal(a.numerator), Decimal(a.denominator)
            return str(num) if den == 1 else f"{num}/{den}"

    def scalar_from_json(self, obj):
        if isinstance(obj, bool):
            raise DomainMismatch(f"bad rational scalar {obj!r}")
        if isinstance(obj, (int, str)):
            return _fraction_from_json(obj, "rational")
        raise DomainMismatch(f"bad rational scalar {obj!r}")


class GaussianRationalDomain(ScalarDomain):
    kind = "gaussian_rational"

    def from_int(self, k):
        return GaussianRational(k)

    def coerce(self, x):
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        if isinstance(x, complex):
            # exact only if components are representable; used by tests
            return GaussianRational(Fraction(x.real), Fraction(x.imag))
        if isinstance(x, (tuple, list)) and len(x) == 2:
            return GaussianRational(Fraction(x[0]), Fraction(x[1]))
        if isinstance(x, str):
            return GaussianRational(Fraction(x))
        raise DomainMismatch(f"cannot coerce {x!r} into {self!r}")

    def inv(self, a):
        if not a:
            raise NotInvertible("0 has no inverse")
        return GaussianRational(1) / a

    def star(self, a):
        return a.conjugate()

    def scalar_to_json(self, a):
        return {"re": RATIONAL.scalar_to_json(a.re), "im": RATIONAL.scalar_to_json(a.im)}

    def scalar_from_json(self, obj):
        what = "gaussian rational"
        if isinstance(obj, dict):
            if not {"re", "im"} <= obj.keys():
                raise DomainMismatch(f"bad {what} scalar {obj!r}: needs both 're' and 'im'")
            return GaussianRational(
                _fraction_from_json(str(obj["re"]), what), _fraction_from_json(str(obj["im"]), what)
            )
        if isinstance(obj, (int, str)):
            return GaussianRational(_fraction_from_json(obj, what))
        raise DomainMismatch(f"bad gaussian rational scalar {obj!r}")


class _ResidueDomain(ScalarDomain):
    """Canonical int residues in [0, modulus): the arithmetic GF(p) and Z/nZ share."""

    definite = False

    def from_int(self, k):
        return k % self.modulus

    def coerce(self, x):
        if isinstance(x, int):
            return x % self.modulus
        raise DomainMismatch(f"cannot coerce {x!r} into {self!r}")

    def add(self, a, b):
        return (a + b) % self.modulus

    def sub(self, a, b):
        return (a - b) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def scalar_to_json(self, a):
        return a

    def scalar_from_json(self, obj):
        if isinstance(obj, bool) or not isinstance(obj, int):
            raise DomainMismatch(f"bad residue {obj!r}")
        return obj % self.modulus


class PrimeFieldDomain(_ResidueDomain):
    kind = "prime_field"

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.modulus = p

    def inv(self, a):
        if a % self.modulus == 0:
            raise NotInvertible("0 has no inverse")
        return pow(a, -1, self.modulus)


class IntegerModDomain(_ResidueDomain):
    """Z/nZ as a ring: division only by units.  Matrix solves run on a Howell
    form; rank, factorizations and inner inverses stay unsupported."""

    kind = "integer_mod"
    field = False

    def __init__(self, n: int):
        if n < 2:
            raise ValueError(f"modulus must be >= 2, got {n}")
        self.modulus = n

    def inv(self, a):
        try:
            return pow(a, -1, self.modulus)
        except ValueError:
            raise NotInvertible(f"{a} is not a unit mod {self.modulus}") from None


class ComplexFloatDomain(ScalarDomain):
    kind = "complex_float"
    exact = False

    def from_int(self, k):
        return complex(k)

    def coerce(self, x):
        if isinstance(x, complex):
            return x
        if isinstance(x, (int, float)):
            return complex(x)
        if isinstance(x, GaussianRational):
            return complex(x)
        if isinstance(x, Fraction):
            return complex(float(x))
        if isinstance(x, (tuple, list)) and len(x) == 2:
            return complex(float(x[0]), float(x[1]))
        raise DomainMismatch(f"cannot coerce {x!r} into {self!r}")

    def inv(self, a):
        if a == 0:
            raise NotInvertible("0 has no inverse")
        return 1 / a

    def star(self, a):
        return a.conjugate()

    def scalar_to_json(self, a):
        return [a.real, a.imag]

    def scalar_from_json(self, obj):
        parts = obj if isinstance(obj, (list, tuple)) and len(obj) == 2 else (obj, 0)
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in parts):
            raise DomainMismatch(f"bad complex scalar {obj!r}")
        try:
            z = complex(float(parts[0]), float(parts[1]))
        except OverflowError:  # an integer part beyond the float range
            z = complex(cmath.inf)
        if not cmath.isfinite(z):
            raise DomainMismatch(f"bad complex scalar {obj!r}: parts must be finite")
        return z


RATIONAL = RationalDomain()
GAUSSIAN_RATIONAL = GaussianRationalDomain()
COMPLEX_FLOAT = ComplexFloatDomain()

_PRIME_FIELDS: dict[int, PrimeFieldDomain] = {}
_INTEGER_MODS: dict[int, IntegerModDomain] = {}


def prime_field(p: int) -> PrimeFieldDomain:
    if p not in _PRIME_FIELDS:
        _PRIME_FIELDS[p] = PrimeFieldDomain(p)
    return _PRIME_FIELDS[p]


def integer_mod(n: int) -> IntegerModDomain:
    if n not in _INTEGER_MODS:
        _INTEGER_MODS[n] = IntegerModDomain(n)
    return _INTEGER_MODS[n]


def make_domain(kind: str, modulus: int | None = None) -> ScalarDomain:
    """Build a domain from its JSON kind string."""
    if kind == "rational":
        return RATIONAL
    if kind == "gaussian_rational":
        return GAUSSIAN_RATIONAL
    if kind == "complex_float":
        return COMPLEX_FLOAT
    if kind == "prime_field":
        if modulus is None:
            raise DomainMismatch("prime_field requires a modulus")
        return prime_field(modulus)
    if kind == "integer_mod":
        if modulus is None:
            raise DomainMismatch("integer_mod requires a modulus")
        return integer_mod(modulus)
    raise DomainMismatch(f"unknown domain kind {kind!r}")


def domain_to_json(dom: ScalarDomain) -> dict:
    obj: dict = {"kind": dom.kind}
    if dom.modulus is not None:
        obj["modulus"] = dom.modulus
    return obj


def domain_from_json(obj: dict) -> ScalarDomain:
    if not isinstance(obj, dict):
        raise DomainMismatch(f"domain must be a JSON object, got {obj!r}")
    modulus = obj.get("modulus")
    if modulus is not None and (isinstance(modulus, bool) or not isinstance(modulus, int)):
        raise DomainMismatch(f"domain modulus must be an integer, got {modulus!r}")
    return make_domain(obj.get("kind"), modulus)
