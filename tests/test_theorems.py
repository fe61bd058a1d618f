"""How the theorem catalog runs its checkers: every checker can report a
counterexample, instance counts are pinned on the rings where every checker
runs, and a check ends at the counterexample cap."""

import pytest

from ginv import enumerate_ring, verify_theorem
from ginv.theorems import _MAX_CE, CATALOG

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
    "vw_intersect_dedekind": ("zmod:12", "is_unit", (1,), False),
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
