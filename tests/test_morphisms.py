"""Inverses commute with the *-homomorphisms of tests/morphisms.py."""

import pytest
from hypothesis import given, settings, strategies as st

from morphisms import MORPHISMS, UNIQUE_KINDS, operand_rows, outcome


@pytest.mark.parametrize("morphism", MORPHISMS, ids=lambda m: m.name)
@pytest.mark.parametrize("kind", UNIQUE_KINDS)
@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(data=st.data())
def test_unique_inverses_commute_with_the_morphism(morphism, kind, data):
    p = data.draw(st.sampled_from(morphism.params), label="param")
    n = data.draw(st.integers(1, 3), label="n")
    count = 1 + len(UNIQUE_KINDS[kind][1])
    ops = [morphism.lift(data.draw(operand_rows(n, p), label="operand"), p) for _ in range(count)]
    src = outcome(kind, *ops)
    tgt = outcome(kind, *(morphism(m, p) for m in ops))
    # along an isomorphism, existence, value and index all carry over
    assert tgt.exists == src.exists
    if src.exists:
        assert morphism(src.value, p) == tgt.value and tgt.index == src.index
