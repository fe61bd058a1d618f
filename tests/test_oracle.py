"""Finite *-ring enumeration, equation scanning, and theorem verification."""

import ast

import numpy as np
import pytest

from ginv import (
    FiniteStarRing,
    PreconditionFailed,
    StarMatrix,
    TooLarge,
    UnknownTheorem,
    bc_inverse,
    core_ep_inverse,
    dual_v_core,
    enumerate_ring,
    green_relations,
    group_inverse,
    mp_inverse,
    solve_equations,
    verify_theorem,
    w_core,
)
from ginv.domains import integer_mod, prime_field
from ginv.equations import SYSTEMS
from ginv.theorems import CATALOG


def test_zmod6_construction():
    ring = enumerate_ring("zmod:6")
    assert ring.size == 6
    assert ring.star(4) == 4  # identity involution
    assert ring.mul(2, 5) == 4
    assert ring.add(5, 5) == 4


def test_mat2_gf2_construction():
    ring = enumerate_ring("mat:2:gf2")
    assert ring.size == 16
    # transpose involution: find e12 and check its star is e21
    e12 = ring.names.index(str([[0, 1], [0, 0]]))
    e21 = ring.names.index(str([[0, 0], [1, 0]]))
    assert ring.star(e12) == e21


def test_mat2_gf3_size():
    ring = enumerate_ring("mat:2:gf3")
    assert ring.size == 81


def test_product_ring():
    ring = enumerate_ring("prod(zmod:2,zmod:3)")
    assert ring.size == 6
    # componentwise one
    assert ring.mul(ring.one, ring.one) == ring.one


def test_bad_specs():
    with pytest.raises(PreconditionFailed):
        enumerate_ring("zmod:1")
    with pytest.raises(PreconditionFailed):
        enumerate_ring("mat:2:gf4")  # 4 is not prime
    with pytest.raises(PreconditionFailed):
        enumerate_ring("bogus:3")


def test_ring_cap():
    with pytest.raises(TooLarge):
        enumerate_ring("mat:2:gf3", cap=50)


def test_huge_matrix_ring_is_refused_by_its_exponent():
    # 3^90000 has more digits than Python converts to str by default, and
    # 3^9000000 takes seconds to compute: the size is decided from k^2 log p
    with pytest.raises(TooLarge) as exc:
        enumerate_ring("mat:300:gf3")
    assert str(exc.value) == "ring mat:300:gf3 has 3^90000 elements, cap is 6561"
    with pytest.raises(TooLarge, match=r"ring mat:3000:gf3 has 3\^9000000 elements"):
        enumerate_ring("prod(zmod:2,mat:3000:gf3)")
    # near the cap the size is exact
    with pytest.raises(TooLarge, match="^ring mat:2:gf3 has 81 elements, cap is 80$"):
        enumerate_ring("mat:2:gf3", cap=80)
    assert enumerate_ring("mat:2:gf3", cap=81).size == 81


def test_solve_equations_core_z6():
    ring = enumerate_ring("zmod:6")
    # independent brute force: 3 x^2 = x, x 3^2 = 3 (identity involution)
    expected = [x for x in range(6) if (3 * x * x) % 6 == x and (x * 9) % 6 == 3]
    assert expected == [3]
    assert solve_equations(ring, SYSTEMS["core"], {"a": 3}) == [3]


def test_solve_equations_zero_wcore():
    ring = enumerate_ring("zmod:6")
    assert solve_equations(ring, SYSTEMS["w-core"], {"a": 0, "w": 1}) == [0]


def test_solve_equations_gf2_matrix_units():
    ring = enumerate_ring("mat:2:gf2")
    a = ring.names.index(str([[0, 1], [0, 0]]))
    w = ring.names.index(str([[0, 0], [1, 0]]))
    sols = solve_equations(ring, SYSTEMS["w-core"], {"a": a, "w": w})
    assert len(sols) == 1
    assert ring.name(sols[0]) == str([[1, 0], [0, 0]])


def test_green_relations_examples():
    ring = enumerate_ring("zmod:6")
    g = green_relations(ring, 2, 2)
    assert all(g.values())
    g24 = green_relations(ring, 2, 4)
    assert g24["leqL"] and g24["L"]  # 2 = 2*4 mod 6 and 4 = 2*2
    g01 = green_relations(ring, 0, 1)
    assert g01["leqL"] and g01["leqR"] and not g01["L"] and not g01["R"]


def test_solve_equations_rejects_a_negative_element():
    # -1 would index element 5 from the end
    with pytest.raises(PreconditionFailed, match="a = -1 is not an element of zmod:6"):
        solve_equations(enumerate_ring("zmod:6"), SYSTEMS["core"], {"a": -1})


def test_solve_equations_rejects_an_element_past_the_ring():
    with pytest.raises(PreconditionFailed, match="a = 7 is not an element of zmod:6"):
        solve_equations(enumerate_ring("zmod:6"), SYSTEMS["core"], {"a": 7})


def test_solve_equations_rejects_an_outside_element_of_a_pair():
    with pytest.raises(PreconditionFailed, match="a = -1 is not an element"):
        solve_equations(enumerate_ring("zmod:6"), SYSTEMS["w-core"], {"a": -1, "w": 1})


def test_solve_equations_names_a_missing_letter():
    with pytest.raises(PreconditionFailed, match="no value for letter 'w'"):
        solve_equations(enumerate_ring("zmod:6"), SYSTEMS["w-core"], {"a": 1})


@pytest.mark.parametrize("a, b, bad", [(-1, 2, "a = -1"), (6, 2, "a = 6"), (2, 6, "b = 6")])
def test_green_relations_rejects_an_outside_element(a, b, bad):
    with pytest.raises(PreconditionFailed, match=f"{bad} is not an element of zmod:6"):
        green_relations(enumerate_ring("zmod:6"), a, b)


def test_solve_equations_reads_each_scan_once(monkeypatch):
    # the w-core lookups scan the whole ring once; solve_equations on the
    # same letters reads that record, and a grid with a fixed lead value is
    # scanned once for every value of the last letter
    ring = enumerate_ring("mat:3:gf2")
    ring.table("wcore_solutions")
    scans, scan = [], FiniteStarRing._scan
    monkeypatch.setattr(FiniteStarRing, "_scan", lambda *args: scans.append(args) or scan(*args))
    for a, w in [(0, 0), (ring.one, ring.one), (5, 300), (300, 5), (511, 511)]:
        got = solve_equations(ring, SYSTEMS["w-core"], {"a": a, "w": w})
        assert got == list(ring.wcore_solutions(a, w)), (a, w)
    assert not scans
    for a in (ring.one, 7):  # the letters the other way round: w fixed, every a
        got = solve_equations(ring, SYSTEMS["w-core"], {"w": ring.one, "a": a})
        assert got == list(ring.wcore_solutions(a, ring.one)), a
    assert len(scans) == 1


def test_verify_theorem_examples():
    assert verify_theorem(enumerate_ring("zmod:6"), "uniqueness").ok()
    assert verify_theorem(enumerate_ring("mat:2:gf2"), "idempotent").ok()
    assert verify_theorem(enumerate_ring("zmod:2"), "jacobson").ok()


def test_verify_unknown_theorem():
    with pytest.raises(UnknownTheorem):
        verify_theorem(enumerate_ring("zmod:2"), "fermat_last")


def test_triple_quantified_skipped_on_large_ring():
    ring = enumerate_ring("mat:2:gf3")
    rep = verify_theorem(ring, "vw_intersect")
    assert rep.skipped and rep.instances_checked == 0
    # pair-quantified theorems still run
    rep2 = verify_theorem(ring, "uniqueness")
    assert not rep2.skipped and rep2.ok()


def test_quantifier_fidelity_inner_inverses():
    ring = enumerate_ring("zmod:6")
    # 3 has several inner inverses mod 6; the catalog must check all of them
    inners = ring.inner_inverses(3)
    assert set(inners) == {x for x in range(6) if (3 * x * 3) % 6 == 3}
    assert len(inners) > 1


def test_catalog_covers_spec_list():
    required = {
        "uniqueness",
        "characteristic_ew",
        "characteristic_vf",
        "core_char",
        "ideal_form",
        "added_lemma",
        "relate_to_mary",
        "relate_to_dual_mary",
        "group_result",
        "extended_repre",
        "core_another",
        "core_another_1",
        "star_core_another",
        "wv_core_char",
        "star_duality",
        "wcore_of_wcore",
        "wv_mary",
        "relations_bc",
        "green_drazin",
        "idempotent",
        "jacobson",
        "mary_inverse_unit",
        "classical_mp_char",
        "vw_intersect",
        "joint_w_units",
        "vw_intersect_dedekind",
        "intersect",
        "core_dual_core_units",
    }
    assert required <= set(CATALOG)


def _gf2_matrices(ring):
    dom = prime_field(2)
    return [StarMatrix.from_rows(ast.literal_eval(ring.name(i)), dom) for i in range(16)]


def test_oracle_supremacy_wcore_gf2():
    # the scan-based solution set over M2(GF(2)) must match the matrix routes
    ring = enumerate_ring("mat:2:gf2")
    mats = _gf2_matrices(ring)
    enc = {m: i for i, m in enumerate(mats)}
    for a in range(16):
        for w in range(16):
            sols = ring.wcore_solutions(a, w)
            assert len(sols) <= 1
            res = w_core(mats[a], mats[w])
            assert res.exists == bool(sols)
            if sols:
                assert enc[res.value] == sols[0]


def _bc_scan(ring):
    """members[a, b, c, y]: y is the (b,c)-inverse of a by definition: B1-B3
    (yab = b, cay = c, yay = y), y R b and y L c, read from the ideal lookups."""
    mul = ring.mul_arr
    right, left = ring.table("right_ideal")[1], ring.table("left_ideal")[1]
    a, b, c, y = np.indices((ring.size,) * 4, sparse=True)
    ya = mul[y, a]
    return (
        (mul[ya, b] == b)
        & (mul[mul[c, a], y] == c)
        & (mul[ya, y] == y)
        & right[b, y]  # y in bS
        & right[y, b]  # b in yS
        & left[c, y]  # y in Sc
        & left[y, c]  # c in Sy
    )


@pytest.mark.parametrize("spec", ["mat:2:gf2", "zmod:12"])
def test_bc_inverse_matches_its_definition_on_every_triple(spec):
    # Drazin's criterion against a scan of the definition, on all n^3 triples
    ring = enumerate_ring(spec)
    if spec == "zmod:12":
        dom = integer_mod(12)
        mats = [StarMatrix(1, 1, ((i,),), dom) for i in range(ring.size)]
    else:
        mats = _gf2_matrices(ring)
    enc = {m: i for i, m in enumerate(mats)}
    members = _bc_scan(ring)
    found = 0
    for (a, b, c), sols in np.ndenumerate(members.any(axis=3)):
        y = bc_inverse(mats[a], mats[b], mats[c])
        assert (y is not None) == sols, (a, b, c)
        if y is not None:
            assert members[a, b, c, enc[y]], (a, b, c)
            found += 1
    assert 0 < found < ring.size**3


def test_oracle_supremacy_dual_vcore_gf2():
    # the dual engine runs w-core routes on (a*, v*); the scan solves the
    # dual equations directly, so it checks existence and value independently
    ring = enumerate_ring("mat:2:gf2")
    mats = _gf2_matrices(ring)
    enc = {m: i for i, m in enumerate(mats)}
    for a in range(16):
        for v in range(16):
            sols = ring.dual_vcore_solutions(a, v)
            assert len(sols) <= 1
            res = dual_v_core(mats[a], mats[v])
            assert res.exists == bool(sols)
            if sols:
                assert enc[res.value] == sols[0]


def test_oracle_supremacy_classical_gf2():
    ring = enumerate_ring("mat:2:gf2")
    mats = _gf2_matrices(ring)
    enc = {m: i for i, m in enumerate(mats)}
    for a in range(16):
        g = group_inverse(mats[a])
        assert (g is not None) == (ring.group_inv(a) is not None)
        if g is not None:
            assert enc[g] == ring.group_inv(a)
        m = mp_inverse(mats[a])
        assert (m is not None) == (ring.mp_inv(a) is not None)
        if m is not None:
            assert enc[m] == ring.mp_inv(a)
        pc = core_ep_inverse(mats[a])
        rpc = ring.pseudo_core(a)
        assert (pc is not None) == (rpc is not None)
        if pc is not None:
            assert enc[pc.value] == rpc[0] and pc.index == rpc[1]


def test_pseudo_core_can_fail_over_gf2():
    # e = [[1,0],[1,0]] is idempotent but not {1,3}-invertible: e* e = 0
    ring = enumerate_ring("mat:2:gf2")
    e = ring.names.index(str([[1, 0], [1, 0]]))
    assert ring.group_inv(e) is not None
    assert not ring.one_three_set(e)
    assert ring.pseudo_core(e) is None
    dom = prime_field(2)
    em = StarMatrix.from_rows([[1, 0], [1, 0]], dom)
    assert core_ep_inverse(em) is None


def test_ideal_form_n1_search():
    # the n=1 variant of the ideal-form criterion is not a theorem; the
    # search reports where it breaks.  Commutative Z/nZ has no breakage,
    # while 2x2 matrix units already give a = e11, w = e12 with
    # a in S(aw)*a (e12 e21 = e11) but awa = 0, so no w-core inverse.
    from ginv.theorems import search_ideal_form_n1

    assert search_ideal_form_n1(enumerate_ring("zmod:12")) == []
    ring = enumerate_ring("mat:2:gf2")
    hits = search_ideal_form_n1(ring)
    assert hits  # finite counterexamples exist
    for a, w in hits:
        e = ring.mul(ring.star(ring.mul(a, w)), a)
        assert a in ring.left_ideal(e)
        assert not ring.wcore_solutions(a, w)
    e11 = ring.names.index(str([[1, 0], [0, 0]]))
    e12 = ring.names.index(str([[0, 1], [0, 0]]))
    assert (e11, e12) in hits


def test_report_json_shape():
    rep = verify_theorem(enumerate_ring("zmod:4"), "jacobson")
    obj = rep.to_json()
    assert obj["theorem_id"] == "jacobson"
    assert obj["counterexamples"] == []
    assert obj["instances_checked"] == 16


@pytest.fixture(scope="module")
def gf3_ring():
    ring = enumerate_ring("mat:2:gf3")
    dom = prime_field(3)
    mats = [StarMatrix.from_rows(ast.literal_eval(ring.name(i)), dom) for i in range(ring.size)]
    return ring, mats, {m: i for i, m in enumerate(mats)}


def test_oracle_supremacy_classical_gf3(gf3_ring):
    # every a of M2(GF(3)): the matrix API against the oracle's scans
    ring, mats, enc = gf3_ring
    for a, m in enumerate(mats):
        for api, lookup in ((group_inverse, ring.group_inv), (mp_inverse, ring.mp_inv)):
            got = api(m)
            assert (None if got is None else enc[got]) == lookup(a), (api.__name__, a)
        pc, rpc = core_ep_inverse(m), ring.pseudo_core(a)
        assert (None if pc is None else (enc[pc.value], pc.index)) == rpc, a


@pytest.mark.parametrize(
    "api, lookup", [(w_core, "wcore_solutions"), (dual_v_core, "dual_vcore_solutions")]
)
def test_oracle_supremacy_pairs_gf3(gf3_ring, api, lookup):
    # a seeded sample of (a, w) pairs, half of them with an inverse: the
    # routes agree with the scan on existence and value
    ring, mats, enc = gf3_ring
    first, count = ring.table(lookup)
    rng = np.random.default_rng(3)
    pairs = [rng.choice(np.argwhere(count == k), 150, replace=False) for k in (0, 1)]
    assert count.max() == 1
    for a, w in np.concatenate(pairs).tolist():
        res = api(mats[a], mats[w])
        assert res.exists == bool(count[a, w]), (a, w)
        assert (enc[res.value] if res.exists else -1) == first[a, w], (a, w)
