"""Shared test helpers.

The list-based matrix arithmetic here is the independent oracle used to
check library results: it works on plain nested lists of scalars and never
touches StarMatrix internals, so equation checks cannot inherit a bug from
the code path under test.
"""

from fractions import Fraction

import pytest

import ginv.along
from ginv import StarMatrix
from ginv.domains import (
    COMPLEX_FLOAT,
    GAUSSIAN_RATIONAL,
    RATIONAL,
    GaussianRational,
    integer_mod,
    prime_field,
)

GF2 = prime_field(2)
GF5 = prime_field(5)
GF7 = prime_field(7)
Z6 = integer_mod(6)


def qm(rows):
    return StarMatrix.from_rows(rows, RATIONAL)


def gm(rows):
    return StarMatrix.from_rows(rows, GAUSSIAN_RATIONAL)


def fm(rows, p=5):
    return StarMatrix.from_rows(rows, prime_field(p))


def zm(rows, n=6):
    return StarMatrix.from_rows(rows, integer_mod(n))


def cm(rows):
    return StarMatrix.from_rows(rows, COMPLEX_FLOAT)


# ---------------------------------------------------------------------------
# independent list-based oracle


def lists(a: StarMatrix):
    return [list(r) for r in a.data]


def mul_lists(a, b, modulus=None):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    out = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]
    if modulus is not None:
        out = [[x % modulus for x in r] for r in out]
    return out


def adj_lists(a, modulus=None):
    out = [[a[i][j].conjugate() for i in range(len(a))] for j in range(len(a[0]))]
    if modulus is not None:
        out = [[x % modulus for x in r] for r in out]
    return out


def eq_lists(a, b, tol=0.0):
    if len(a) != len(b) or any(len(r) != len(s) for r, s in zip(a, b)):
        return False
    for ra, rb in zip(a, b):
        for x, y in zip(ra, rb):
            if tol:
                if abs(complex(x) - complex(y)) > tol:
                    return False
            elif x != y:
                return False
    return True


def assert_penrose(a: StarMatrix, x: StarMatrix, which=(1, 2, 3, 4), tol=0.0):
    """Check Penrose equations with the list oracle (never via StarMatrix)."""
    mod = a.domain.modulus
    al, xl = lists(a), lists(x)
    ax = mul_lists(al, xl, mod)
    xa = mul_lists(xl, al, mod)
    if 1 in which:
        assert eq_lists(mul_lists(ax, al, mod), al, tol), "P1 axa=a fails"
    if 2 in which:
        assert eq_lists(mul_lists(xa, xl, mod), xl, tol), "P2 xax=x fails"
    if 3 in which:
        assert eq_lists(adj_lists(ax, mod), ax, tol), "P3 (ax)*=ax fails"
    if 4 in which:
        assert eq_lists(adj_lists(xa, mod), xa, tol), "P4 (xa)*=xa fails"


def assert_w_core_equations(a, w, x, tol=0.0):
    """E1 awx^2=x, E2 xawa=a, E3 (awx)*=awx via the list oracle."""
    mod = a.domain.modulus
    al, wl, xl = lists(a), lists(w), lists(x)
    aw = mul_lists(al, wl, mod)
    awx = mul_lists(aw, xl, mod)
    assert eq_lists(mul_lists(awx, xl, mod), xl, tol), "E1 awx^2=x fails"
    xaw = mul_lists(xl, aw, mod)
    assert eq_lists(mul_lists(xaw, al, mod), al, tol), "E2 xawa=a fails"
    assert eq_lists(adj_lists(awx, mod), awx, tol), "E3 (awx)*=awx fails"


def frac(p, q=1):
    return Fraction(p, q)


def gr(re, im=0):
    return GaussianRational(re, im)


@pytest.fixture
def failing_bc_certificate(monkeypatch):
    """bc_inverse's certificate reports a residual above every bound; the
    certificates of other kinds are left alone."""
    real = ginv.along.certify

    def certify(kind, env, *args, **kwargs):
        cert = real(kind, env, *args, **kwargs)
        if kind == "bc":
            cert.residuals = {**cert.residuals, "B3": 1.0}
        return cert

    monkeypatch.setattr(ginv.along, "certify", certify)


@pytest.fixture
def nilp2_g():
    # the running example: strictly upper 2x2 nilpotent over Gaussian rationals
    return gm([[0, 1], [0, 0]])


@pytest.fixture
def w_ex1_g():
    return gm([[3, 6], [1, 0]])
