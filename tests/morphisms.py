"""Ring *-homomorphisms that generalized inverses commute with, as one table.

Let phi: R -> S be a ring homomorphism with phi(a*) = phi(a)*.  If x solves
a kind's defining equations for (a, w, ...) in R, then phi(x) solves them for
(phi(a), phi(w), ...) in S.  For the kinds in UNIQUE_KINDS the answer is
unique, so phi(x) is the answer in S: existence transfers forward and values
commute, and the Drazin / pseudo-core index may only drop.  S may be a
product S_1 x ... x S_k, where each holds componentwise.  When phi is an
isomorphism onto S, existence holds in R iff it holds in every S_i, and the
index in R is the largest index among the S_i.

Each row names its source domain and its target factors, as functions of one
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
    """A *-homomorphism source(param) -> the product of targets(param),
    applied entrywise by `entry` into each factor; `iso` if it is onto and
    one-to-one.  `examples` is the number of hypothesis examples per kind."""

    name: str
    source: Callable[[int], ScalarDomain]
    targets: Callable[[int], tuple[ScalarDomain, ...]]
    params: tuple[int, ...]
    entry: Callable
    iso: bool = True
    examples: int = 50

    def lift(self, rows: list, param: int) -> StarMatrix:
        return StarMatrix.from_rows(rows, self.source(param))

    def __call__(self, m: StarMatrix, param: int) -> tuple[StarMatrix, ...]:
        rows = [[self.entry(x) for x in r] for r in m.data]
        return tuple(StarMatrix.from_rows(rows, dom) for dom in self.targets(param))


# n = 6, 12, 36 as products of coprime prime powers
CRT_FACTORS = {6: (2, 3), 12: (4, 3), 36: (4, 9)}

MORPHISMS = (
    # one ring, one kernel: Z/p and GF(p) differ only in the substitution step
    Morphism("Z/p = GF(p)", integer_mod, lambda p: (prime_field(p),), (3, 5, 7), int),
    # the Chinese remainder theorem: Z/n = Z/d1 x Z/d2, reduction mod each d
    Morphism(
        "Z/n = Z/d1 x Z/d2",
        integer_mod,
        lambda n: tuple(map(integer_mod, CRT_FACTORS[n])),
        tuple(CRT_FACTORS),
        int,
        examples=30,
    ),
    # reduction Z/2d -> Z/d along Z/8 -> Z/4 -> Z/2: onto, not one-to-one
    Morphism(
        "Z/2d -> Z/d",
        lambda d: integer_mod(2 * d),
        lambda d: (integer_mod(d),),
        (4, 2),
        int,
        iso=False,
        examples=20,
    ),
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
