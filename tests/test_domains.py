"""Scalar domain arithmetic, involution laws, and JSON scalar codecs."""

import json
import math
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ginv import NotInvertible, group_inverse, matrix_from_json, matrix_to_json
from ginv.domains import (
    COMPLEX_FLOAT,
    GAUSSIAN_RATIONAL,
    RATIONAL,
    GaussianRational,
    domain_from_json,
    domain_to_json,
    integer_mod,
    make_domain,
    prime_field,
)
from ginv.errors import DomainMismatch

fractions_st = st.fractions(
    min_value=-(10**6), max_value=10**6, max_denominator=10**4
)
gaussian_st = st.builds(GaussianRational, fractions_st, fractions_st)


def test_gf7_inverse_of_three():
    d = prime_field(7)
    inv = d.inv(3)
    assert (3 * inv) % 7 == 1  # independent check by multiplication
    assert inv == 5


def test_gaussian_conjugation():
    d = GAUSSIAN_RATIONAL
    z = d.coerce((2, 3))
    assert d.star(z) == GaussianRational(2, -3)


def test_z6_two_is_not_invertible():
    with pytest.raises(NotInvertible):
        integer_mod(6).inv(2)


def test_z6_unit_iff_coprime():
    d = integer_mod(6)
    for x in range(6):
        assert d.is_unit(x) == (math.gcd(x, 6) == 1)


@given(fractions_st, fractions_st)
def test_rational_involution_laws(x, y):
    d = RATIONAL
    assert d.star(d.add(x, y)) == d.add(d.star(x), d.star(y))
    assert d.star(d.mul(x, y)) == d.mul(d.star(y), d.star(x))
    assert d.star(d.star(x)) == x


@given(gaussian_st, gaussian_st)
def test_gaussian_involution_laws(x, y):
    d = GAUSSIAN_RATIONAL
    assert d.star(d.add(x, y)) == d.add(d.star(x), d.star(y))
    assert d.star(d.mul(x, y)) == d.mul(d.star(y), d.star(x))
    assert d.star(d.star(x)) == x


@given(fractions_st, fractions_st.filter(lambda b: b != 0))
def test_rational_division_round_trip(a, b):
    d = RATIONAL
    assert d.mul(d.div(a, b), b) == a


@given(gaussian_st.filter(bool))
def test_gaussian_inverse_round_trip(z):
    d = GAUSSIAN_RATIONAL
    assert d.mul(d.inv(z), z) == GaussianRational(1)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 9, 12])
def test_finite_involution_laws_exhaustive(n):
    d = integer_mod(n)
    for x in range(n):
        assert d.star(d.star(x)) == x
        for y in range(n):
            assert d.star(d.mul(x, y)) == d.mul(d.star(y), d.star(x))
            assert d.star(d.add(x, y)) == d.add(d.star(x), d.star(y))


def test_complex_involution_within_ulp():
    d = COMPLEX_FLOAT
    x, y = 1.5 - 2.25j, -0.5 + 4.0j
    assert d.star(d.mul(x, y)) == d.mul(d.star(y), d.star(x))
    assert d.star(d.star(x)) == x


def test_complex_inverse():
    d = COMPLEX_FLOAT
    assert d.inv(2 + 1j) == 1 / (2 + 1j)
    for z in (2 + 1j, -0.75 + 3e-3j, 1e-5j):
        assert abs(d.mul(d.inv(z), z) - 1) <= 4 * sys.float_info.epsilon
    with pytest.raises(NotInvertible):
        d.inv(0)


def test_prime_field_rejects_composites():
    with pytest.raises(ValueError):
        prime_field(6)
    with pytest.raises(ValueError):
        prime_field(1)


def test_primality_matches_trial_division():
    from ginv.domains import _is_prime

    def trial(n):
        return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))

    assert [n for n in range(20000) if _is_prime(n) != trial(n)] == []
    # Mersenne primes, a Carmichael number, and strong pseudoprimes to the
    # bases 2; 2..7; 2..23; 2..37
    for n in (2**31 - 1, 2**61 - 1):
        assert _is_prime(n)
    for n in (561, 2047, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(n)
    assert prime_field(2**61 - 1).modulus == 2**61 - 1


def test_prime_field_refuses_unprovable_modulus():
    from ginv.domains import _MR_EXACT_BELOW, _is_prime

    assert not _is_prime(_MR_EXACT_BELOW - 1)  # even, still decided
    for n in (_MR_EXACT_BELOW, 2**89 - 1):
        with pytest.raises(ValueError):
            _is_prime(n)
        with pytest.raises(ValueError):
            prime_field(n)


def test_integer_mod_rejects_small_modulus():
    with pytest.raises(ValueError):
        integer_mod(1)


def test_residues_canonical():
    d = integer_mod(6)
    assert d.coerce(-1) == 5
    assert d.sub(1, 3) == 4


@pytest.mark.parametrize(
    "dom,value",
    [
        (RATIONAL, Fraction(-3, 4)),
        (GAUSSIAN_RATIONAL, GaussianRational(Fraction(1, 2), Fraction(-5))),
        (prime_field(7), 3),
        (integer_mod(12), 10),
        (COMPLEX_FLOAT, 1.25 - 0.5j),
    ],
)
def test_scalar_json_round_trip(dom, value):
    assert dom.scalar_from_json(dom.scalar_to_json(value)) == value


def test_rational_json_reads_p_over_q():
    assert RATIONAL.scalar_from_json("3/4") == Fraction(3, 4)
    assert RATIONAL.scalar_from_json(7) == Fraction(7)


def test_domain_json_round_trip():
    for dom in (RATIONAL, GAUSSIAN_RATIONAL, prime_field(3), integer_mod(8), COMPLEX_FLOAT):
        assert domain_from_json(domain_to_json(dom)) == dom


def test_make_domain_rejects_unknown():
    with pytest.raises(DomainMismatch):
        make_domain("quaternions")


def test_coerce_rejects_foreign_values():
    with pytest.raises(DomainMismatch):
        prime_field(5).coerce("x")
    with pytest.raises(DomainMismatch):
        RATIONAL.coerce(1.5)


# In-process, Python refuses int/str conversions past sys.get_int_max_str_digits()
# (4,300 digits by default); the CLI lifts the limit for its run, the API
# reads and writes such entries through Decimal.  The expected values below
# come from integer arithmetic, never from a long str.


def rational_doc(data):
    return {"rows": len(data), "cols": len(data[0]), "domain": {"kind": "rational"}, "data": data}


def test_group_inverse_beyond_the_int_str_digit_limit_round_trips():
    # a = [[N, 1], [0, 0]] with N = 10^3000: a^# = a / N^2 has a 6,001-digit entry
    assert 0 < sys.get_int_max_str_digits() < 6001
    big = "1" + "0" * 3000
    a = matrix_from_json(rational_doc([[big, "1"], ["0", "0"]]))
    g = group_inverse(a)
    doc = json.loads(json.dumps(matrix_to_json(g)))
    assert doc["data"] == [["1/" + big, "1/1" + "0" * 6000], ["0", "0"]]
    assert matrix_from_json(doc) == g


def test_entries_beyond_the_int_str_digit_limit_are_read_exactly():
    sevens = 7 * (10**5001 - 1) // 9  # 5,001 sevens
    thirds = (10**5000 - 1) // 3  # 5,000 threes
    assert RATIONAL.scalar_from_json("7" * 5001) == sevens
    assert RATIONAL.scalar_from_json("-" + "7" * 5001 + "/" + "3" * 5000) == Fraction(-sevens, thirds)
    # 1.5...5 with 5,000 fives after the point
    fives = Fraction(10**5000 + 5 * (10**5000 - 1) // 9, 10**5000)
    assert RATIONAL.scalar_from_json("1." + "5" * 5000) == fives
    z = GAUSSIAN_RATIONAL.scalar_from_json({"re": "7" * 5001, "im": "1/" + "3" * 5000})
    assert z == GaussianRational(sevens, Fraction(1, thirds))
    assert GAUSSIAN_RATIONAL.scalar_to_json(z) == {"re": "7" * 5001, "im": "1/" + "3" * 5000}


@pytest.mark.parametrize("entry", ["1e99999999", "1e" + "9" * 5000, "1e-99999999"])
def test_an_exponent_past_the_digit_limit_is_refused_before_any_power(entry):
    gaussian = "gaussian rational"
    cases = [(RATIONAL, "rational", entry), (GAUSSIAN_RATIONAL, gaussian, entry)]
    cases.append((GAUSSIAN_RATIONAL, gaussian, {"re": "0", "im": entry}))
    start = time.perf_counter()
    for dom, what, obj in cases:
        with pytest.raises(DomainMismatch) as exc:
            dom.scalar_from_json(obj)
        assert str(exc.value) == f"bad {what} scalar {entry!r}"
    assert time.perf_counter() - start < 1.0


def test_exponents_at_the_digit_limit_are_read_exactly():
    assert RATIONAL.scalar_from_json("1e4300") == 10**4300
    assert RATIONAL.scalar_from_json("1e-4300") == Fraction(1, 10**4300)
    assert GAUSSIAN_RATIONAL.scalar_from_json({"re": "1e4300", "im": "-1E-4300"}) == GaussianRational(
        10**4300, Fraction(-1, 10**4300)
    )


@pytest.mark.parametrize(
    "entry, why",
    [
        ("abc", ""),
        ("limit", ""),
        ("3.5/2", ""),
        ("1e" + "9" * 5000, ""),
        ("1/" + "0" * 5000, ": zero denominator"),
    ],
)
def test_malformed_rational_entry_is_a_domain_mismatch(entry, why):
    for dom, what in ((RATIONAL, "rational"), (GAUSSIAN_RATIONAL, "gaussian rational")):
        with pytest.raises(DomainMismatch) as exc:
            dom.scalar_from_json(entry)
        assert str(exc.value) == f"bad {what} scalar {entry!r}{why}"


@pytest.mark.parametrize("kind", ["prime_field", "integer_mod"])
def test_make_domain_needs_a_modulus(kind):
    with pytest.raises(DomainMismatch):
        make_domain(kind)


def test_gaussian_rational_scalar_protocol():
    z = GaussianRational(Fraction(1, 2), -3)
    assert 1 - z == GaussianRational(Fraction(1, 2), 3)
    assert 1 / GaussianRational(0, 1) == GaussianRational(0, -1)
    assert Fraction(3) / GaussianRational(1, 1) == GaussianRational(Fraction(3, 2), Fraction(-3, 2))
    with pytest.raises(ZeroDivisionError):
        z / GaussianRational(0)
    assert -z == GaussianRational(Fraction(-1, 2), 3)
    assert complex(z) == complex(0.5, -3.0)
    assert repr(z) == "1/2-3i" and repr(-z) == "-1/2+3i" and repr(GaussianRational(2)) == "2"
    assert hash(GaussianRational(Fraction(2, 3))) == hash(Fraction(2, 3))
    assert GaussianRational(Fraction(2, 3)) in {Fraction(2, 3)}


@pytest.mark.parametrize(
    "dom, zero", [(RATIONAL, Fraction(0)), (GAUSSIAN_RATIONAL, GaussianRational(0)), (prime_field(7), 0)]
)
def test_zero_has_no_inverse(dom, zero):
    with pytest.raises(NotInvertible):
        dom.inv(zero)
    assert not dom.is_unit(zero)


def test_complex_float_coerces_exact_scalars_and_pairs():
    assert COMPLEX_FLOAT.coerce(GaussianRational(Fraction(1, 4), -2)) == complex(0.25, -2)
    assert COMPLEX_FLOAT.coerce(Fraction(3, 8)) == complex(0.375, 0)
    assert COMPLEX_FLOAT.coerce((1, 2)) == complex(1, 2)
    assert COMPLEX_FLOAT.coerce([0.5, -1.5]) == complex(0.5, -1.5)
