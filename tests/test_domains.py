"""Scalar domain arithmetic, involution laws, and JSON scalar codecs."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ginv import NotInvertible
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
