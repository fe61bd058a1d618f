"""Inverses commute with the *-homomorphisms of tests/morphisms.py."""

import pytest
from hypothesis import given, settings, strategies as st

from morphisms import MORPHISMS, UNIQUE_KINDS, operand_rows, outcome


@pytest.mark.parametrize("morphism", MORPHISMS, ids=lambda m: m.name)
@pytest.mark.parametrize("kind", UNIQUE_KINDS)
def test_unique_inverses_commute_with_the_morphism(morphism, kind):
    @settings(derandomize=True, database=None, deadline=None, max_examples=morphism.examples)
    @given(data=st.data())
    def law(data):
        p = data.draw(st.sampled_from(morphism.params), label="param")
        n = data.draw(st.integers(1, 3), label="n")
        count = 1 + len(UNIQUE_KINDS[kind][1])
        rows = operand_rows(n, morphism.source(p).modulus)
        ops = [morphism.lift(data.draw(rows, label="operand"), p) for _ in range(count)]
        src = outcome(kind, *ops)
        tgts = [outcome(kind, *images) for images in zip(*(morphism(m, p) for m in ops))]
        # existence carries forward, and back along an isomorphism
        if morphism.iso:
            assert src.exists == all(t.exists for t in tgts)
        if src.exists:
            assert all(t.exists for t in tgts)
            assert morphism(src.value, p) == tuple(t.value for t in tgts)
            if src.index is not None:  # the largest index among the factors, or less
                top = max(t.index for t in tgts)
                assert top == src.index if morphism.iso else top <= src.index

    law()
