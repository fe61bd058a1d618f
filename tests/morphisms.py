"""Ring *-homomorphisms that generalized inverses commute with, as one table.

Let phi: R -> S be a ring homomorphism with phi(a*) = phi(a)*.  If x solves
a kind's defining equations for (a, w, ...) in R, then phi(x) solves them for
(phi(a), phi(w), ...) in S.  For the kinds in UNIQUE_KINDS the answer is
unique, so phi(x) is the answer in S: existence transfers forward and values
commute.  Every row of MORPHISMS is an isomorphism so far, so existence and
the Drazin / pseudo-core index agree both ways; a row that is only a
homomorphism (Z/n -> Z/d, Q -> GF(p)) needs existence forward only, and its
index may drop.

Each row names its source and target domains, as functions of one
parameter, and the map on entries.  Operands come from `operand_rows`,
integer rows of a product B C of random rank, read into the source domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from hypothesis import strategies as st

from ginv import (
    StarMatrix,
    bc_inverse,
    core_ep_inverse,
    core_inverse,
    drazin_inverse,
    dual_core_inverse,
    dual_v_core,
    group_inverse,
    inverse_along,
    mp_inverse,
    w_core,
)
from ginv.classical import IndexedInverse
from ginv.domains import ScalarDomain, integer_mod, prime_field
from ginv.equations import InverseResult


@dataclass(frozen=True)
class Morphism:
    """An isomorphism source(param) -> target(param), applied entrywise by `entry`."""

    name: str
    source: Callable[[int], ScalarDomain]
    target: Callable[[int], ScalarDomain]
    params: tuple[int, ...]
    entry: Callable

    def lift(self, rows: list, param: int) -> StarMatrix:
        return StarMatrix.from_rows(rows, self.source(param))

    def __call__(self, m: StarMatrix, param: int) -> StarMatrix:
        return StarMatrix.from_rows([[self.entry(x) for x in r] for r in m.data], self.target(param))


MORPHISMS = (
    # one ring, two kernels: exhaustive solves over Z/p, modular RREF over GF(p)
    Morphism("Z/p = GF(p)", integer_mod, prime_field, (3, 5, 7), int),
)

# the kinds whose answer is unique: solver, then its operands after a
UNIQUE_KINDS = {
    "mp": (mp_inverse, ()),
    "group": (group_inverse, ()),
    "drazin": (drazin_inverse, ()),
    "core": (core_inverse, ()),
    "dual-core": (dual_core_inverse, ()),
    "core-ep": (core_ep_inverse, ()),
    "along": (inverse_along, ("d",)),
    "bc": (bc_inverse, ("b", "c")),
    "w-core": (w_core, ("w",)),
    "dual-v-core": (dual_v_core, ("v",)),
}


class Outcome(NamedTuple):
    exists: bool
    value: StarMatrix | None
    index: int | None


def outcome(kind: str, *operands: StarMatrix) -> Outcome:
    """Existence, value and index of one kind, whatever its solver returns."""
    res = UNIQUE_KINDS[kind][0](*operands)
    if isinstance(res, InverseResult):
        return Outcome(res.exists, res.value, res.index)
    if isinstance(res, IndexedInverse):
        return Outcome(True, res.value, res.index)
    return Outcome(res is not None, res, None)


@st.composite
def operand_rows(draw, n: int, modulus: int) -> list:
    """Integer rows of an n x n product B C mod `modulus`, B n x r and C r x n
    with r from 0 to n, so that every rank up to n turns up."""
    r = draw(st.integers(0, n))
    entries = st.integers(0, modulus - 1)
    b = draw(st.lists(st.lists(entries, min_size=r, max_size=r), min_size=n, max_size=n))
    c = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=r, max_size=r))
    return [[sum(b[i][k] * c[k][j] for k in range(r)) % modulus for j in range(n)] for i in range(n)]
