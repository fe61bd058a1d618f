"""How the theorem catalog runs its checkers: every checker can report a
counterexample, instance counts are pinned on the rings where every checker
runs, and a check ends at the counterexample cap.  The vectorized unit
criteria give the same reports as the scalar loops they replaced, kept here
as references: without a fault, under planted faults and at the cap."""

import numpy as np
import pytest

from ginv import enumerate_ring, theorems, verify_theorem
from ginv.theorems import _MAX_CE, CATALOG, _Collector

# theorem id -> (ring, lookup the theorem reads, the input where the lookup
# is corrupted, the wrong value it returns there instead)
PLANTED = {
    "uniqueness": ("zmod:12", "wcore_solutions", (0, 0), (0, 1)),
    "added_lemma": ("zmod:12", "wcore_solutions", (0, 0), (1,)),
    "characteristic_ew": ("zmod:12", "wcore_solutions", (0, 0), ()),
    "characteristic_vf": ("zmod:12", "dual_vcore_solutions", (0, 0), ()),
    "core_char": ("zmod:12", "core_inv", (2,), 0),
    "ideal_form": ("zmod:12", "core_inv", (0,), 1),
    "relate_to_mary": ("zmod:12", "along", (0, 0), 1),
    "relate_to_dual_mary": ("zmod:12", "along", (0, 0), 1),
    "group_result": ("zmod:12", "group_inv", (1,), 2),
    "extended_repre": ("zmod:12", "group_inv", (1,), 2),
    "core_another": ("zmod:12", "core_inv", (0,), 1),
    "core_another_1": ("zmod:12", "core_inv", (0,), 1),
    "star_core_another": ("zmod:12", "mp_inv", (0,), 1),
    # element 3 of mat:2:gf2 is [[1, 1], [0, 0]], which has no MP inverse
    "wv_core_char": ("mat:2:gf2", "mp_inv", (3,), 0),
    "star_duality": ("zmod:12", "dual_vcore_solutions", (0, 0), ()),
    "wcore_of_wcore": ("zmod:12", "core_inv", (0,), 1),
    "wv_mary": ("zmod:12", "along", (0, 0), 1),
    "relations_bc": ("zmod:12", "wcore_solutions", (0, 0), ()),
    "green_drazin": ("zmod:12", "left_ann", (0,), frozenset(range(1, 12))),
    "idempotent": ("zmod:12", "inv_unit", (1,), 2),
    "jacobson": ("zmod:12", "inv_unit", (1,), 2),
    "mary_inverse_unit": ("zmod:12", "along", (0, 0), 1),
    "classical_mp_char": ("zmod:12", "mp_inv", (0,), 1),
    "mp_ideal_char": ("zmod:12", "mp_inv", (0,), 1),
    "vw_intersect": ("zmod:12", "inv_unit", (1,), 2),
    "joint_w_units": ("zmod:12", "inv_unit", (1,), 2),
    "vw_intersect_dedekind": ("zmod:12", "inv_unit", (5,), None),
    "along_product": ("zmod:12", "along", (0, 1), 0),
    "intersect": ("zmod:12", "inv_unit", (1,), 2),
    "core_dual_core_units": ("zmod:12", "dual_core_inv", (0,), 1),
}


def _plant(ring, lookup, at, wrong):
    true = getattr(ring, lookup)
    assert true(*at) != wrong  # the planted value really is wrong
    setattr(ring, lookup, lambda *args: wrong if args == at else true(*args))


def test_planted_faults_cover_the_catalog():
    assert sorted(PLANTED) == sorted(CATALOG)


@pytest.mark.parametrize("tid", sorted(PLANTED))
def test_every_checker_reports_a_planted_fault(tid):
    spec, lookup, at, wrong = PLANTED[tid]
    ring = enumerate_ring(spec)
    _plant(ring, lookup, at, wrong)
    rep = verify_theorem(ring, tid)
    assert not rep.skipped
    assert rep.counterexamples, f"{tid} missed a wrong {lookup}{at}"
    assert all(set(ce) == {"elements", "detail"} for ce in rep.counterexamples)


INSTANCES = {
    "zmod:12": {
        "uniqueness": 144,
        "added_lemma": 144,
        "characteristic_ew": 144,
        "characteristic_vf": 144,
        "core_char": 12,
        "ideal_form": 144,
        "relate_to_mary": 144,
        "relate_to_dual_mary": 144,
        "group_result": 144,
        "extended_repre": 144,
        "core_another": 12,
        "core_another_1": 36,
        "star_core_another": 12,
        "wv_core_char": 1728,
        "star_duality": 144,
        "wcore_of_wcore": 144,
        "wv_mary": 108,
        "relations_bc": 144,
        "green_drazin": 144,
        "idempotent": 144,
        "jacobson": 144,
        "mary_inverse_unit": 360,
        "classical_mp_char": 30,
        "mp_ideal_char": 12,
        "vw_intersect": 1728,
        "joint_w_units": 1296,
        "vw_intersect_dedekind": 1728,
        "along_product": 1728,
        "intersect": 360,
        "core_dual_core_units": 30,
    },
    "mat:2:gf2": {
        "uniqueness": 256,
        "added_lemma": 256,
        "characteristic_ew": 256,
        "characteristic_vf": 256,
        "core_char": 16,
        "ideal_form": 256,
        "relate_to_mary": 256,
        "relate_to_dual_mary": 256,
        "group_result": 256,
        "extended_repre": 256,
        "core_another": 16,
        "core_another_1": 48,
        "star_core_another": 16,
        "wv_core_char": 4096,
        "star_duality": 256,
        "wcore_of_wcore": 256,
        "wv_mary": 176,
        "relations_bc": 256,
        "green_drazin": 256,
        "idempotent": 256,
        "jacobson": 256,
        "mary_inverse_unit": 1504,
        "classical_mp_char": 94,
        "mp_ideal_char": 16,
        "vw_intersect": 4096,
        "joint_w_units": 4096,
        "vw_intersect_dedekind": 4096,
        "along_product": 4096,
        "intersect": 1504,
        "core_dual_core_units": 94,
    },
}


@pytest.mark.parametrize("spec", sorted(INSTANCES))
def test_catalog_instance_counts_on_small_rings(spec):
    ring = enumerate_ring(spec)
    assert sorted(INSTANCES[spec]) == sorted(CATALOG)
    for tid, want in INSTANCES[spec].items():
        rep = verify_theorem(ring, tid)
        assert not rep.skipped and rep.counterexamples == [], tid
        assert rep.instances_checked == want, tid


def test_check_ends_at_the_counterexample_cap():
    # two w-core inverses for every (a, w): each instance of the uniqueness
    # check is a counterexample, so the check ends with its _MAX_CE-th one
    ring = enumerate_ring("zmod:12")
    ring.wcore_solutions = lambda a, w: (0, 1)
    rep = verify_theorem(ring, "uniqueness")
    assert len(rep.counterexamples) == _MAX_CE
    assert rep.instances_checked == _MAX_CE
    assert rep.counterexamples[-1]["elements"] == {"a": "0", "w": str(_MAX_CE - 1)}


def test_triple_checkers_run_on_mat_2_gf3_with_the_limit_raised(monkeypatch):
    # 81 elements: every element of a matrix ring over a field is regular, so
    # each triple checker has 81^3 instances; with 1 read as a non-unit, each
    # joint unit criterion reports counterexamples up to the cap
    monkeypatch.setattr(theorems, "TRIPLE_SIZE_LIMIT", 81)
    ring = enumerate_ring("mat:2:gf3")
    triples = [tid for tid, (_, quantified) in CATALOG.items() if quantified >= 3]
    assert len(triples) == 5
    for tid in triples:
        rep = verify_theorem(ring, tid)
        assert not rep.skipped and rep.counterexamples == [], tid
        assert rep.instances_checked == 81**3, tid
    _plant(ring, "inv_unit", (ring.one,), None)
    for tid in ("vw_intersect", "joint_w_units", "vw_intersect_dedekind"):
        assert len(verify_theorem(ring, tid).counterexamples) == _MAX_CE, tid


# ---------------------------------------------------------------------------
# the vectorized unit criteria against the scalar loops they replaced


def complements(ring, d, d_in):
    """1 - dd⁻ and 1 - d⁻d for an inner inverse d⁻ of d."""
    mul, one = ring.mul_t, ring.one
    return ring.sub(one, mul[d][d_in]), ring.sub(one, mul[d_in][d])


def w_units(ring, a, w, a_in):
    """The four units of the single-w criteria for an inner inverse a⁻ of a:
    awaa* and aa*aw plus 1 - aa⁻, waa*a and a*awa plus 1 - a⁻a."""
    sa = ring.star_t[a]
    cp, cq = complements(ring, a, a_in)
    return (
        ring.add(ring.mul(a, w, a, sa), cp),
        ring.add(ring.mul(a, sa, a, w), cp),
        ring.add(ring.mul(w, a, sa, a), cq),
        ring.add(ring.mul(sa, a, w, a), cq),
    )


def vw_units(ring, a, w, v, a_in):
    """The units u, r, s, t of the (v, w) criteria for an inner inverse a⁻ of
    a: awavaa* and avawaa* plus 1 - aa⁻, wavaa*a and vawaa*a plus 1 - a⁻a."""
    sa = ring.star_t[a]
    cp, cq = complements(ring, a, a_in)
    return (
        ring.add(ring.mul(a, w, a, v, a, sa), cp),
        ring.add(ring.mul(a, v, a, w, a, sa), cp),
        ring.add(ring.mul(w, a, v, a, sa, a), cq),
        ring.add(ring.mul(v, a, w, a, sa, a), cq),
    )


def loop_mary_inverse_unit(ring, col):
    for d in range(ring.size):
        inners = ring.inner_inverses(d)
        if not inners:
            continue
        for a in range(ring.size):
            ex = ring.along(a, d)
            for d_in in col.each(inners):
                cp, cq = complements(ring, d, d_in)
                u = ring.add(ring.mul(d, a), cp)
                v = ring.add(ring.mul(a, d), cq)
                if (ex is not None) != ring.is_unit(u) or (ex is not None) != ring.is_unit(v):
                    col.fail("unit criteria disagree with existence", a=a, d=d, d_inner=d_in)
                    continue
                if ex is not None:
                    if ring.mul(ring.inv_unit(u), d) != ex or ring.mul(d, ring.inv_unit(v)) != ex:
                        col.fail("u^{-1} d / d v^{-1} miss a^{||d}", a=a, d=d, d_inner=d_in)


def loop_vw_intersect(ring, col):
    star = ring.star_t
    for a in range(ring.size):
        sa = star[a]
        mp = ring.mp_inv(a) is not None
        inners = ring.inner_inverses(a)
        for v in range(ring.size):
            vpa = ring.along(v, a) is not None
            ev = bool(ring.dual_vcore_solutions(a, v))
            for w in col.each(range(ring.size)):
                joint = bool(ring.wcore_solutions(a, w)) and ev
                if not vpa:
                    if joint:
                        col.fail("joint existence without v in R^{||a}", a=a, w=w, v=v)
                    continue
                c2 = ring.along(w, a) is not None and mp
                if joint != c2:
                    col.fail(f"(i)={joint} vs (ii)={c2}", a=a, w=w, v=v)
                for a_in in inners:
                    u, r, s, t = vw_units(ring, a, w, v, a_in)
                    oks = tuple(ring.is_unit(x) for x in (u, r, s, t))
                    if any(ok != joint for ok in oks):
                        col.fail(
                            f"units {oks} vs joint existence {joint}",
                            a=a,
                            w=w,
                            v=v,
                            a_inner=a_in,
                        )
                        continue
                    if joint:
                        mid = star[ring.mul(ring.inv_unit(u), a, w, a, v, a)]
                        val_w = ring.mul(a, v, a, sa, a, ring.inv_unit(s), mid)
                        val_v = ring.mul(mid, a, w, a, sa, a, ring.inv_unit(t))
                        if val_w != ring.wcore(a, w):
                            col.fail("joint formula misses a_w", a=a, w=w, v=v, a_inner=a_in)
                        if val_v != ring.dual_vcore(a, v):
                            col.fail(
                                "joint formula misses a_{v,dual}", a=a, w=w, v=v, a_inner=a_in
                            )


def loop_joint_w_units(ring, col):
    star = ring.star_t
    for a in range(ring.size):
        inners = ring.inner_inverses(a)
        if not inners:
            continue
        mp = ring.mp_inv(a) is not None
        for w in range(ring.size):
            wpa = ring.along(w, a) is not None
            ew = bool(ring.wcore_solutions(a, w))
            for v in col.each(range(ring.size)):
                vpa = ring.along(v, a) is not None
                joint = ew and bool(ring.dual_vcore_solutions(a, v))
                c2 = wpa and vpa and mp
                if joint != c2:
                    col.fail(f"(i)={joint} vs (ii)={c2}", a=a, w=w, v=v)
                for a_in in inners:
                    u, r, s, t = w_units(ring, a, w, a_in)
                    conds = tuple(vpa and ring.is_unit(x) for x in (u, r, s, t))
                    if any(c != joint for c in conds):
                        col.fail(
                            f"(iii)-(vi)={conds} vs (i)={joint}", a=a, w=w, v=v, a_inner=a_in
                        )
                        continue
                    if joint:
                        mid = star[ring.mul(ring.inv_unit(u), a, w, a)]
                        val_w = ring.mul(a, star[a], a, ring.inv_unit(s), mid)
                        if val_w != ring.wcore(a, w):
                            col.fail("single-w unit formula misses a_w", a=a, w=w, v=v, a_inner=a_in)


def loop_vw_intersect_dedekind(ring, col):
    for a in range(ring.size):
        mp = ring.mp_inv(a) is not None
        inners = ring.inner_inverses(a)
        for w in range(ring.size):
            ew = bool(ring.wcore_solutions(a, w))
            for v in col.each(range(ring.size)):
                joint = ew and bool(ring.dual_vcore_solutions(a, v))
                c2 = ring.along(ring.mul(w, a, v), a) is not None and mp
                c3 = ring.along(ring.mul(v, a, w), a) is not None and mp
                if not (joint == c2 == c3):
                    col.fail(f"(i)={joint}, (ii)={c2}, (iii)={c3}", a=a, w=w, v=v)
                for a_in in inners:
                    oks = tuple(ring.is_unit(x) for x in vw_units(ring, a, w, v, a_in))
                    if any(ok != joint for ok in oks):
                        col.fail(
                            f"Dedekind units {oks} vs joint {joint}",
                            a=a,
                            w=w,
                            v=v,
                            a_inner=a_in,
                        )


def loop_intersect(ring, col):
    star = ring.star_t
    for a in range(ring.size):
        inners = ring.inner_inverses(a)
        if not inners:
            continue
        mp = ring.mp_inv(a) is not None
        sa = star[a]
        for w in range(ring.size):
            ew = bool(ring.wcore_solutions(a, w))
            edw = bool(ring.dual_vcore_solutions(a, w))
            edstar = bool(ring.dual_vcore_solutions(a, sa))
            joint = ew and edw
            c2 = ring.along(w, a) is not None and mp
            c3 = ew and edstar
            for a_in in col.each(inners):
                u, t, s, r = w_units(ring, a, w, a_in)
                oks = tuple(ring.is_unit(x) for x in (u, r, s, t))
                if not (joint == c2 == c3) or any(ok != joint for ok in oks):
                    col.fail(
                        f"(i)={joint}, (ii)={c2}, (iii)={c3}, units={oks}",
                        a=a,
                        w=w,
                        a_inner=a_in,
                    )
                    continue
                if joint:
                    if ring.mul(ring.inv_unit(t), a, sa) != ring.wcore(a, w):
                        col.fail("t^{-1} a a* misses a_w", a=a, w=w, a_inner=a_in)
                    if ring.mul(sa, a, ring.inv_unit(s)) != ring.dual_vcore(a, w):
                        col.fail("a* a s^{-1} misses a_{w,dual}", a=a, w=w, a_inner=a_in)


LOOPS = {
    "mary_inverse_unit": loop_mary_inverse_unit,
    "vw_intersect": loop_vw_intersect,
    "joint_w_units": loop_joint_w_units,
    "vw_intersect_dedekind": loop_vw_intersect_dedekind,
    "intersect": loop_intersect,
}


def _flip_units(ring):
    # every unit test answers wrong: units read as None, non-units as 0
    inv_unit = ring.inv_unit
    ring.inv_unit = lambda x: None if inv_unit(x) is not None else 0


def _joint_without_units(ring):
    # every w-core and dual v-core inverse exists, and nothing is a unit
    ring.wcore_solutions = lambda a, w: (0,)
    ring.dual_vcore_solutions = lambda a, v: (0,)
    ring.inv_unit = lambda x: None


# a plant under which every instance of the check fails
FAIL_EVERYWHERE = {
    "mary_inverse_unit": _flip_units,
    "vw_intersect": _joint_without_units,
    "joint_w_units": _joint_without_units,
    "vw_intersect_dedekind": _joint_without_units,
    "intersect": _flip_units,
}
VECTOR_RINGS = ("zmod:12", "mat:2:gf2", "prod(zmod:2,zmod:3)")
VECTOR_CASES = [(spec, tid) for spec in VECTOR_RINGS for tid in LOOPS]
VECTOR_CASES += [("mat:2:gf3", "intersect"), ("mat:2:gf3", "mary_inverse_unit")]


def reports(monkeypatch, ring, tid):
    """The report of the vectorized checker and of its scalar loop, elapsed dropped."""
    got = verify_theorem(ring, tid)
    with monkeypatch.context() as m:
        m.setitem(CATALOG, tid, (LOOPS[tid], CATALOG[tid][1]))
        want = verify_theorem(ring, tid)
    got.elapsed = want.elapsed = 0.0
    return got, want


@pytest.mark.parametrize("spec, tid", VECTOR_CASES)
def test_vectorized_checker_matches_loop(monkeypatch, spec, tid):
    ring = enumerate_ring(spec)
    got, want = reports(monkeypatch, ring, tid)
    assert want.ok() and not want.skipped
    assert got == want


@pytest.mark.parametrize("fault", sorted({PLANTED[tid] for tid in LOOPS}))
@pytest.mark.parametrize("tid", sorted(LOOPS))
def test_vectorized_checker_matches_loop_on_planted_faults(monkeypatch, tid, fault):
    spec, lookup, at, wrong = fault
    ring = enumerate_ring(spec)
    _plant(ring, lookup, at, wrong)
    got, want = reports(monkeypatch, ring, tid)
    if PLANTED[tid] == fault:
        assert want.counterexamples
    assert got == want


@pytest.mark.parametrize("spec, tid", VECTOR_CASES)
def test_vectorized_checker_matches_loop_at_the_cap(monkeypatch, spec, tid):
    ring = enumerate_ring(spec)
    FAIL_EVERYWHERE[tid](ring)
    got, want = reports(monkeypatch, ring, tid)
    assert len(want.counterexamples) == _MAX_CE
    assert got == want


def test_batch_names_failures_from_the_instance_grid():
    col = _Collector(enumerate_ring("zmod:3"))
    a, w = np.ogrid[:3, :3]
    mask = (a == 2) & (w == 1)
    inner = np.arange(2)  # two inner letters per instance
    per_inner = [(mask[..., None] & (inner == 1), "x")]
    col.batch({"a": a, "w": w}, [(mask, "own")], per_inner, {"x": inner})
    assert col.checked == 9
    assert col.ces == [
        {"elements": {"a": "2", "w": "1"}, "detail": "own"},
        {"elements": {"a": "2", "w": "1", "x": "1"}, "detail": "x"},
    ]


def test_batch_rejects_a_mask_off_the_instance_grid():
    col = _Collector(enumerate_ring("zmod:3"))
    a, w = np.ogrid[:3, :3]
    with pytest.raises(ValueError, match="instance grid"):
        col.batch({"a": a, "w": w}, [(np.zeros(3, dtype=bool), "own")])
    with pytest.raises(ValueError, match="instance grid"):
        col.batch({"a": a, "w": w}, [], [(np.zeros((3, 2), dtype=bool), "x")], {"x": np.arange(2)})
    assert col.checked == 0


# ---------------------------------------------------------------------------
# the unit criteria checked once per complement key


def test_complement_keys_are_fewer_than_inner_inverses():
    # a unit x + 1 - e sees an inner inverse a⁻ of a only through e, so the
    # checkers work per key (a, 1 - aa⁻) or (a, 1 - a⁻a); a rank-one 2 x 2
    # matrix has several keys, so blocks of one key split its frame
    counts = {}
    for spec in ("mat:2:gf2", "mat:2:gf3"):
        ring = enumerate_ring(spec)
        a, inner = np.nonzero(ring.table("inner_inverses"))
        keys = [np.unique(a * ring.size + e) for e in theorems._ends(ring, a, inner)]
        keys = [np.unique(k // ring.size, return_counts=True)[1] for k in keys]  # per frame
        counts[spec] = (a.size, *(k.sum() for k in keys), max(k.max() for k in keys))
    assert counts == {"mat:2:gf2": (94, 25, 25, 2), "mat:2:gf3": (993, 145, 145, 3)}


BLOCK_CASES = [(spec, tid) for spec in ("zmod:12", "mat:2:gf2") for tid in LOOPS]
BLOCK_CASES += [("mat:2:gf3", "intersect"), ("mat:2:gf3", "mary_inverse_unit")]


@pytest.mark.parametrize("block", [1, 40])
@pytest.mark.parametrize("spec, tid", BLOCK_CASES)
def test_key_blocks_that_split_frames_match_the_loop(monkeypatch, spec, tid, block):
    # one or a few keys per block: a frame's keys fall in several blocks
    monkeypatch.setattr(theorems, "_BLOCK", block)
    ring = enumerate_ring(spec)
    got, want = reports(monkeypatch, ring, tid)
    assert want.ok() and got == want
    spec, lookup, at, wrong = PLANTED[tid]
    if spec == ring.spec:
        _plant(ring, lookup, at, wrong)
        got, want = reports(monkeypatch, ring, tid)
        assert want.counterexamples and got == want
    ring = enumerate_ring(ring.spec)
    FAIL_EVERYWHERE[tid](ring)
    got, want = reports(monkeypatch, ring, tid)
    assert len(want.counterexamples) == _MAX_CE and got == want


def _swap_an_inner_inverse(ring):
    """The element with the most inner inverses short of all loses its first
    one and gains the last element that is not one; returns both."""
    inner = ring.table("inner_inverses")
    a = int(np.argmax(np.where(inner.all(axis=1), -1, inner.sum(axis=1))))
    true, extra = ring.inner_inverses(a), int(np.flatnonzero(~inner[a])[-1])
    _plant(ring, "inner_inverses", (a,), tuple(sorted(set(true[1:]) | {extra})))
    return a, extra


@pytest.mark.parametrize("spec, tid", BLOCK_CASES)
def test_a_wrong_inner_inverse_table_is_followed_not_the_keys(monkeypatch, spec, tid):
    # counts and names come from the inner inverses the table lists, also
    # for an element that is not one and whose complement is no true key
    ring = enumerate_ring(spec)
    _, extra = _swap_an_inner_inverse(ring)
    got, want = reports(monkeypatch, ring, tid)
    assert got == want and want.counterexamples
    inner = "d_inner" if tid == "mary_inverse_unit" else "a_inner"
    assert any(ce["elements"].get(inner) == ring.name(extra) for ce in want.counterexamples)
