"""Exhaustive verification of the w-core theorems on finite *-rings.

Each catalog entry re-states one proved result as a brute-force check over
all relevant tuples of ring elements; statements quantified over inner
inverses are checked against every inner inverse found by scan, and each
biconditional is checked in both directions.  A nonzero counterexample
count means the build is wrong (or the ring violates a hypothesis).

`verify_theorem` runs every checker the same way.  Each element that a
checker's innermost quantifier yields through `col.each` is one instance
(the pair (a, w) for a loop over w inside one over a), also when a
hypothesis then excludes it.  `col.fail` records a counterexample; the check
ends at the `_MAX_CE`-th.  Checkers quantifying over three or more ring
elements are skipped, with a note, on rings larger than `TRIPLE_SIZE_LIMIT`.
"""

from __future__ import annotations

import time
from contextlib import suppress
from dataclasses import asdict, dataclass, field

from .equations import SYSTEMS, core_ep_system
from .errors import UnknownTheorem
from .rings import FiniteStarRing

_MAX_CE = 10
TRIPLE_SIZE_LIMIT = 16
_B3 = SYSTEMS["bc"][2:]  # xax = x: x is an outer inverse of a


@dataclass
class TheoremReport:
    theorem_id: str
    ring_spec: str
    instances_checked: int
    counterexamples: list = field(default_factory=list)
    elapsed: float = 0.0
    skipped: bool = False
    note: str = ""

    def ok(self) -> bool:
        return not self.counterexamples

    def to_json(self) -> dict:
        obj = asdict(self)
        return {"theorem_id": obj.pop("theorem_id"), "ring": obj.pop("ring_spec"), **obj}


class _Full(Exception):
    """A check has recorded _MAX_CE counterexamples."""


class _Collector:
    def __init__(self, ring):
        self.ring = ring
        self.checked = 0
        self.ces: list = []

    def each(self, items):
        """The instances of a check, counted as they are yielded."""
        for item in items:
            self.checked += 1
            yield item

    def fail(self, detail, **elems):
        names = {k: self.ring.name(v) for k, v in elems.items()}
        self.ces.append({"elements": names, "detail": detail})
        if len(self.ces) >= _MAX_CE:
            raise _Full


def _ideal_conditions(a, sa, right_ideal, left_ideal, right_ann, left_ann):
    """Conditions (iii)-(v) of the core and w-core characterizations as a test
    of candidates xs: some x with xR = aR and Rx = Ra*, some x with ^0x = ^0a
    and x^0 = (a*)^0, some x with ^0x = ^0a and (a*)^0 in x^0.  The dual
    conditions pass the lookups mirrored, left for right."""
    ri_a, li_sa = right_ideal(a), left_ideal(sa)
    la_a, ra_sa = left_ann(a), right_ann(sa)

    def conditions(xs):
        c3 = c4 = c5 = False
        for x in xs:
            if not c3 and right_ideal(x) == ri_a and left_ideal(x) == li_sa:
                c3 = True
            if left_ann(x) == la_a:
                if not c4 and right_ann(x) == ra_sa:
                    c4 = True
                if not c5 and ra_sa <= right_ann(x):
                    c5 = True
        return c3, c4, c5

    return conditions


# ---------------------------------------------------------------------------
# definitions and semigroup-level characterizations


def _chk_uniqueness(ring: FiniteStarRing, col: _Collector):
    for a in range(ring.size):
        for w in col.each(range(ring.size)):
            sols = ring.wcore_solutions(a, w)
            if len(sols) > 1:
                col.fail(f"{len(sols)} distinct w-core inverses", a=a, w=w)


def _chk_added_lemma(ring: FiniteStarRing, col: _Collector):
    mul = ring.mul_t
    for a in range(ring.size):
        for w in col.each(range(ring.size)):
            aw = mul[a][w]
            for x in ring.wcore_solutions(a, w):
                awx = mul[aw][x]
                if mul[awx][a] != a:
                    col.fail("derived equation awxa = a fails", a=a, w=w, x=x)
                if mul[mul[x][aw]][x] != x:
                    col.fail("derived equation xawx = x fails", a=a, w=w, x=x)
                if mul[w][x] not in ring.solve_system(SYSTEMS["one23"], {"a": a}):
                    col.fail("wx is not a {1,2,3}-inverse of a", a=a, w=w, x=x)


def _chk_characteristic_ew(ring: FiniteStarRing, col: _Collector):
    mul, star = ring.mul_t, ring.star_t
    n = ring.size
    lookups = ring.right_ideal, ring.left_ideal, ring.right_ann, ring.left_ann
    for a in range(n):
        conditions = _ideal_conditions(a, star[a], *lookups)
        for w in col.each(range(n)):
            aw = mul[a][w]
            c1 = bool(ring.wcore_solutions(a, w))
            c2 = bool(ring.solve_system(SYSTEMS["w-core-full"], {"a": a, "w": w}))
            c3, c4, c5 = conditions([x for x in range(n) if mul[mul[aw][x]][a] == a])
            if not (c1 == c2 == c3 == c4 == c5):
                col.fail(f"conditions (i)-(v) split as {(c1, c2, c3, c4, c5)}", a=a, w=w)


def _chk_characteristic_vf(ring: FiniteStarRing, col: _Collector):
    mul, star = ring.mul_t, ring.star_t
    n = ring.size
    mirrored = ring.left_ideal, ring.right_ideal, ring.left_ann, ring.right_ann
    for a in range(n):
        conditions = _ideal_conditions(a, star[a], *mirrored)
        for v in col.each(range(n)):
            va = mul[v][a]
            c1 = bool(ring.dual_vcore_solutions(a, v))
            c2 = bool(ring.solve_system(SYSTEMS["dual-v-core-full"], {"a": a, "v": v}))
            c3, c4, c5 = conditions([y for y in range(n) if mul[a][mul[y][va]] == a])
            if not (c1 == c2 == c3 == c4 == c5):
                col.fail(f"dual conditions (i)-(v) split as {(c1, c2, c3, c4, c5)}", a=a, v=v)


def _chk_core_char(ring: FiniteStarRing, col: _Collector):
    lookups = ring.right_ideal, ring.left_ideal, ring.right_ann, ring.left_ann
    for a in col.each(range(ring.size)):
        c1 = ring.core_inv(a) is not None
        c2 = bool(ring.solve_system(SYSTEMS["core5"], {"a": a}))
        c3, c4, c5 = _ideal_conditions(a, ring.star_t[a], *lookups)(ring.inner_inverses(a))
        if not (c1 == c2 == c3 == c4 == c5):
            col.fail(f"core conditions (i)-(v) split as {(c1, c2, c3, c4, c5)}", a=a)


def _chk_ideal_form(ring: FiniteStarRing, col: _Collector):
    mul, star = ring.mul_t, ring.star_t
    for a in range(ring.size):
        for w in col.each(range(ring.size)):
            aw = mul[a][w]
            lhs = bool(ring.wcore_solutions(a, w))
            conds = {}
            for n_exp in (2, 3):
                e1 = mul[ring.pow(star[aw], n_exp)][a]
                e2 = mul[ring.pow(aw, n_exp - 1)][a]
                conds[n_exp] = a in ring.left_ideal(e1) and a in ring.left_ideal(e2)
            c_iii = a in ring.right_ideal(aw) and ring.core_inv(aw) is not None
            if not (lhs == conds[2] == conds[3] == c_iii):
                col.fail(
                    f"(i)={lhs}, (ii,n=2)={conds[2]}, (ii,n=3)={conds[3]}, (iii)={c_iii}",
                    a=a,
                    w=w,
                )
            if lhs:
                x0 = ring.wcore(a, w)
                if x0 != ring.core_inv(aw):
                    col.fail("a_w differs from (aw)_core", a=a, w=w)
                wpa = ring.along(w, a)
                if wpa is None:
                    col.fail("w-core exists but w^{||a} does not", a=a, w=w)
                else:
                    for t in ring.one_three_set(aw):
                        if ring.mul(wpa, w, t) != x0:
                            col.fail(
                                "w^{||a} w (aw)^{(1,3)} misses the value", a=a, w=w, t=t
                            )
                            break


def _chk_relate_to_mary(ring: FiniteStarRing, col: _Collector):
    for a in range(ring.size):
        t13 = ring.one_three_set(a)
        for w in col.each(range(ring.size)):
            wpa = ring.along(w, a)
            ex = bool(ring.wcore_solutions(a, w))
            rhs = wpa is not None and bool(t13)
            if ex != rhs:
                col.fail(f"existence {ex} vs (w^(||a)), a^(1,3) criterion {rhs}", a=a, w=w)
            if ex and wpa is not None:
                x0 = ring.wcore(a, w)
                for t in t13:
                    if ring.mul(wpa, t) != x0:
                        col.fail("w^{||a} a^{(1,3)} misses the value", a=a, w=w, t=t)
                        break
                if ring.mul(x0, a) != wpa:
                    col.fail("w^{||a} != a_w a", a=a, w=w)


def _chk_relate_to_dual_mary(ring: FiniteStarRing, col: _Collector):
    for a in range(ring.size):
        t14 = ring.one_four_set(a)
        for v in col.each(range(ring.size)):
            vpa = ring.along(v, a)
            ex = bool(ring.dual_vcore_solutions(a, v))
            rhs = vpa is not None and bool(t14)
            if ex != rhs:
                col.fail(f"existence {ex} vs (v^(||a)), a^(1,4) criterion {rhs}", a=a, v=v)
            if ex and vpa is not None:
                y0 = ring.dual_vcore(a, v)
                for t in t14:
                    if ring.mul(t, vpa) != y0:
                        col.fail("a^{(1,4)} v^{||a} misses the value", a=a, v=v, t=t)
                        break
                g_va = ring.group_inv(ring.mul(v, a))
                g_av = ring.group_inv(ring.mul(a, v))
                if g_va is None or g_av is None:
                    col.fail("va or av lost group invertibility", a=a, v=v)
                else:
                    t0 = t14[0]
                    if ring.mul(t0, a, g_va) != y0 or ring.mul(t0, g_av, a) != y0:
                        col.fail("dual group formulas miss the value", a=a, v=v)


def _chk_group_result(ring: FiniteStarRing, col: _Collector):
    for a in range(ring.size):
        for w in col.each(range(ring.size)):
            aw, wa = ring.mul(a, w), ring.mul(w, a)
            ex = ring.along(w, a) is not None
            c2 = (
                ring.right_ideal(aw) == ring.right_ideal(a)
                and ring.group_inv(aw) is not None
            )
            c3 = (
                ring.left_ideal(wa) == ring.left_ideal(a)
                and ring.group_inv(wa) is not None
            )
            if not (ex == c2 == c3):
                col.fail(f"(i)={ex}, (ii)={c2}, (iii)={c3}", a=a, w=w)
            if ex and c2 and c3:
                wpa = ring.along(w, a)
                left = ring.mul(a, ring.group_inv(wa))
                right = ring.mul(ring.group_inv(aw), a)
                if not (wpa == left == right):
                    col.fail("a(wa)^# / (aw)^# a disagree with w^{||a}", a=a, w=w)


def _chk_extended_repre(ring: FiniteStarRing, col: _Collector):
    for a in range(ring.size):
        t13 = ring.one_three_set(a)
        for w in col.each(range(ring.size)):
            if not ring.wcore_solutions(a, w):
                continue
            x0 = ring.wcore(a, w)
            g_wa = ring.group_inv(ring.mul(w, a))
            g_aw = ring.group_inv(ring.mul(a, w))
            if g_wa is None or g_aw is None:
                col.fail("wa or aw lost group invertibility", a=a, w=w)
                continue
            for t in t13:
                if ring.mul(a, g_wa, t) != x0 or ring.mul(g_aw, a, t) != x0:
                    col.fail("extended representations miss the value", a=a, w=w, t=t)
                    break


def _chk_core_another(ring: FiniteStarRing, col: _Collector):
    for a in col.each(range(ring.size)):
        c1 = ring.core_inv(a) is not None
        c2 = ring.group_inv(a) is not None and bool(ring.one_three_set(a))
        c3 = bool(ring.wcore_solutions(a, a))
        c4 = bool(ring.solve_system(SYSTEMS["a-core"], {"a": a}))
        if not (c1 == c2 == c3 == c4):
            col.fail(f"(i)-(iv) split as {(c1, c2, c3, c4)}", a=a)
        if c1 and c3:
            core = ring.core_inv(a)
            acore = ring.wcore(a, a)
            if ring.mul(a, acore) != core:
                col.fail("a_core != a a_a", a=a)
            if ring.mul(ring.group_inv(a), core) != acore:
                col.fail("a_a != a^# a_core", a=a)


def _chk_core_another_1(ring: FiniteStarRing, col: _Collector):
    for a in range(ring.size):
        pc = ring.pseudo_core(a)
        for n_exp in col.each((1, 2, 3)):
            an = ring.pow(a, n_exp)
            x0 = next(iter(ring.solve_system(core_ep_system(n_exp), {"a": a})), None)
            pcn = x0 is not None
            c2 = bool(ring.wcore_solutions(an, a))
            c3 = ring.core_inv(an) is not None
            if not (pcn == c2 == c3):
                col.fail(f"n={n_exp}: (i)={pcn}, (ii)={c2}, (iii)={c3}", a=a)
            if pcn != (pc is not None and pc[1] <= n_exp):
                col.fail(f"n={n_exp}: solvability vs minimal index inconsistent", a=a)
            if pcn:
                if pc is None or x0 != pc[0]:
                    col.fail(f"n={n_exp}: pseudo-core value drifted", a=a)
                    continue
                if ring.mul(an, ring.wcore(an, a)) != x0:
                    col.fail(f"n={n_exp}: a^D != a^n (a^n)_a", a=a)
                if ring.mul(ring.pow(a, n_exp - 1), ring.core_inv(an)) != x0:
                    col.fail(f"n={n_exp}: a^D != a^(n-1) (a^n)_core", a=a)


def _chk_star_core_another(ring: FiniteStarRing, col: _Collector):
    star = ring.star_t
    for a in col.each(range(ring.size)):
        sa = star[a]
        c1 = bool(ring.wcore_solutions(a, sa))
        c2 = ring.mp_inv(a) is not None
        c3 = bool(ring.dual_vcore_solutions(a, sa))
        if not (c1 == c2 == c3):
            col.fail(f"(i)-(iii) split as {(c1, c2, c3)}", a=a)
        if c1 and c2 and c3:
            mp = ring.mp_inv(a)
            x = ring.wcore(a, sa)
            y = ring.dual_vcore(a, sa)
            if star[ring.mul(x, a)] != mp or star[ring.mul(a, y)] != mp:
                col.fail("a^dag != (a_{a*} a)* or (a a_{a*,dual})*", a=a)
            if x != ring.mul(star[mp], mp) or y != ring.mul(mp, star[mp]):
                col.fail("a_{a*} != (a^+)* a^+ or dual != a^+ (a^+)*", a=a)


def _chk_wv_core_char(ring: FiniteStarRing, col: _Collector):
    for a in range(ring.size):
        mp = ring.mp_inv(a) is not None
        for w in range(ring.size):
            ew = bool(ring.wcore_solutions(a, w))
            wpa = ring.along(w, a) is not None
            for v in col.each(range(ring.size)):
                joint = ew and bool(ring.dual_vcore_solutions(a, v))
                crit = wpa and ring.along(v, a) is not None and mp
                if joint != crit:
                    col.fail(f"joint existence {joint} vs criterion {crit}", a=a, w=w, v=v)


def _chk_star_duality(ring: FiniteStarRing, col: _Collector):
    star = ring.star_t
    for a in range(ring.size):
        for w in col.each(range(ring.size)):
            ex = bool(ring.wcore_solutions(a, w))
            exd = bool(ring.dual_vcore_solutions(star[a], star[w]))
            if ex != exd:
                col.fail(f"existence {ex} does not transfer across *", a=a, w=w)
            elif ex:
                if star[ring.wcore(a, w)] != ring.dual_vcore(star[a], star[w]):
                    col.fail("(a_w)* != (a*)_{w*,dual}", a=a, w=w)


def _chk_wcore_of_wcore(ring: FiniteStarRing, col: _Collector):
    for a in range(ring.size):
        for w in col.each(range(ring.size)):
            sols = ring.wcore_solutions(a, w)
            if not sols:
                continue
            x0 = sols[0]
            core = ring.core_inv(x0)
            if core is None:
                col.fail("a_w is not core invertible", a=a, w=w)
                continue
            aw = ring.mul(a, w)
            if core != ring.mul(aw, aw, x0):
                col.fail("(a_w)_core != (aw)^2 a_w", a=a, w=w)


def _chk_wv_mary(ring: FiniteStarRing, col: _Collector):
    star = ring.star_t
    for a in range(ring.size):
        if ring.mp_inv(a) is None:
            continue  # theorem hypothesis a MP-invertible
        aastar = ring.mul(a, star[a])
        astara = ring.mul(star[a], a)
        for w in col.each(range(ring.size)):
            ex = bool(ring.wcore_solutions(a, w))
            al = ring.along(ring.mul(a, w), aastar)
            if ex != (al is not None):
                col.fail(f"w-core {ex} vs (aw)^(||aa*) {al is not None}", a=a, w=w)
            elif ex and ring.wcore(a, w) != al:
                col.fail("w-core value differs from (aw)^{||aa*}", a=a, w=w)
            exd = bool(ring.dual_vcore_solutions(a, w))
            ald = ring.along(ring.mul(w, a), astara)
            if exd != (ald is not None):
                col.fail(f"dual {exd} vs (va)^(||a*a) {ald is not None}", a=a, v=w)
            elif exd and ring.dual_vcore(a, w) != ald:
                col.fail("dual value differs from (va)^{||a*a}", a=a, v=w)


def _chk_relations_bc(ring: FiniteStarRing, col: _Collector):
    mul, star = ring.mul_t, ring.star_t
    n = ring.size
    for a in range(n):
        sa = star[a]
        ri_a, li_sa = ring.right_ideal(a), ring.left_ideal(sa)
        ri_sa, li_a = ring.right_ideal(sa), ring.left_ideal(a)
        for w in col.each(range(n)):
            aw = mul[a][w]
            bc = [
                y
                for y in ring.solve_system(_B3, {"a": aw})
                if ring.right_ideal(y) == ri_a and ring.left_ideal(y) == li_sa
            ]
            ex = bool(ring.wcore_solutions(a, w))
            if ex != bool(bc):
                col.fail(f"w-core {ex} vs (a,a*)-invertibility of aw {bool(bc)}", a=a, w=w)
            elif ex and (len(bc) != 1 or bc[0] != ring.wcore(a, w)):
                col.fail("(a,a*)-inverse of aw differs from a_w", a=a, w=w)
            va = mul[w][a]
            bcd = [
                y
                for y in ring.solve_system(_B3, {"a": va})
                if ring.right_ideal(y) == ri_sa and ring.left_ideal(y) == li_a
            ]
            exd = bool(ring.dual_vcore_solutions(a, w))
            if exd != bool(bcd):
                col.fail(f"dual {exd} vs (a*,a)-invertibility of va {bool(bcd)}", a=a, v=w)
            elif exd and (len(bcd) != 1 or bcd[0] != ring.dual_vcore(a, w)):
                col.fail("(a*,a)-inverse of va differs from a_{v,dual}", a=a, v=w)


def _chk_green_drazin(ring: FiniteStarRing, col: _Collector):
    for a in range(ring.size):
        for b in col.each(range(ring.size)):
            if ring.leq_R(a, b) and not (ring.left_ann(b) <= ring.left_ann(a)):
                col.fail("a <=_R b but ^0 b is not contained in ^0 a", a=a, b=b)
            if ring.leq_L(a, b) and not (ring.right_ann(b) <= ring.right_ann(a)):
                col.fail("a <=_L b but b^0 is not contained in a^0", a=a, b=b)
            g = ring.green(a, b)
            if g["R"] and ring.left_ann(a) != ring.left_ann(b):
                col.fail("a R b but left annihilators differ", a=a, b=b)
            if g["L"] and ring.right_ann(a) != ring.right_ann(b):
                col.fail("a L b but right annihilators differ", a=a, b=b)


# ---------------------------------------------------------------------------
# ring-theoretic unit criteria


def _complements(ring, d, d_in):
    """1 - dd⁻ and 1 - d⁻d for an inner inverse d⁻ of d: each unit of a
    criterion below is a product plus one of the two, x + 1 - e."""
    mul, one = ring.mul_t, ring.one
    return ring.sub(one, mul[d][d_in]), ring.sub(one, mul[d_in][d])


def _chk_idempotent(ring: FiniteStarRing, col: _Collector):
    mul = ring.mul_t
    for a in range(ring.size):
        for w in col.each(range(ring.size)):
            aw = mul[a][w]
            ps = [
                p
                for p in ring.projections()
                if mul[p][a] == ring.zero and ring.is_unit(ring.add(p, aw))
            ]
            ex = bool(ring.wcore_solutions(a, w))
            if ex != bool(ps):
                col.fail(f"existence {ex} vs projection criterion {bool(ps)}", a=a, w=w)
            elif ex:
                if len(ps) != 1:
                    col.fail(f"projection not unique ({len(ps)} found)", a=a, w=w)
                p = ps[0]
                u_inv = ring.inv_unit(ring.add(p, aw))
                if ring.mul(u_inv, ring.sub(ring.one, p)) != ring.wcore(a, w):
                    col.fail("u^{-1}(1-p) misses the w-core inverse", a=a, w=w)


def _chk_jacobson(ring: FiniteStarRing, col: _Collector):
    for a in range(ring.size):
        for b in col.each(range(ring.size)):
            alpha = ring.sub(ring.one, ring.mul(a, b))
            if not ring.is_unit(alpha):
                continue
            beta = ring.sub(ring.one, ring.mul(b, a))
            if not ring.is_unit(beta):
                col.fail("1-ab invertible but 1-ba is not", a=a, b=b)
                continue
            expected = ring.add(ring.one, ring.mul(b, ring.inv_unit(alpha), a))
            if ring.inv_unit(beta) != expected:
                col.fail("beta^{-1} != 1 + b alpha^{-1} a", a=a, b=b)


def _chk_mary_inverse_unit(ring: FiniteStarRing, col: _Collector):
    for d in range(ring.size):
        inners = ring.inner_inverses(d)
        if not inners:
            continue
        for a in range(ring.size):
            ex = ring.along(a, d)
            for d_in in col.each(inners):
                cp, cq = _complements(ring, d, d_in)
                u = ring.add(ring.mul(d, a), cp)
                v = ring.add(ring.mul(a, d), cq)
                if (ex is not None) != ring.is_unit(u) or (ex is not None) != ring.is_unit(v):
                    col.fail("unit criteria disagree with existence", a=a, d=d, d_inner=d_in)
                    continue
                if ex is not None:
                    if ring.mul(ring.inv_unit(u), d) != ex or ring.mul(d, ring.inv_unit(v)) != ex:
                        col.fail("u^{-1} d / d v^{-1} miss a^{||d}", a=a, d=d, d_inner=d_in)


def _chk_classical_mp_char(ring: FiniteStarRing, col: _Collector):
    star = ring.star_t
    for a in range(ring.size):
        inners = ring.inner_inverses(a)
        if not inners:
            continue
        mp = ring.mp_inv(a)
        for a_in in col.each(inners):
            cp, cq = _complements(ring, a, a_in)
            u = ring.add(ring.mul(a, star[a]), cp)
            v = ring.add(ring.mul(star[a], a), cq)
            if (mp is not None) != ring.is_unit(u) or (mp is not None) != ring.is_unit(v):
                col.fail("MP unit criteria disagree with existence", a=a, a_inner=a_in)
                continue
            if mp is not None:
                if star[ring.mul(ring.inv_unit(u), a)] != mp:
                    col.fail("(u^{-1} a)* misses a^dag", a=a, a_inner=a_in)
                if star[ring.mul(a, ring.inv_unit(v))] != mp:
                    col.fail("(a v^{-1})* misses a^dag", a=a, a_inner=a_in)


def _chk_mp_ideal_char(ring: FiniteStarRing, col: _Collector):
    mul, star = ring.mul_t, ring.star_t
    for a in col.each(range(ring.size)):
        e = ring.mul(a, star[a], a)
        mp = ring.mp_inv(a)
        c2 = a in ring.right_ideal(e)
        c3 = a in ring.left_ideal(e)
        if (mp is not None) != c2 or c2 != c3:
            col.fail(f"(i)={mp is not None}, (ii)={c2}, (iii)={c3}", a=a)
            continue
        if mp is not None:
            for x in range(ring.size):
                if mul[e][x] == a and star[mul[a][x]] != mp:
                    col.fail("(ax)* misses a^dag", a=a, x=x)
                    break
                if mul[x][e] == a and star[mul[x][a]] != mp:
                    col.fail("(ya)* misses a^dag", a=a, x=x)
                    break


def _w_units(ring, a, w, a_in):
    """The four units of the single-w criteria for an inner inverse a⁻ of a:
    awaa* and aa*aw plus 1 - aa⁻, waa*a and a*awa plus 1 - a⁻a."""
    sa = ring.star_t[a]
    cp, cq = _complements(ring, a, a_in)
    return (
        ring.add(ring.mul(a, w, a, sa), cp),
        ring.add(ring.mul(a, sa, a, w), cp),
        ring.add(ring.mul(w, a, sa, a), cq),
        ring.add(ring.mul(sa, a, w, a), cq),
    )


def _vw_units(ring, a, w, v, a_in):
    """The units u, r, s, t of the (v, w) criteria for an inner inverse a⁻ of
    a: awavaa* and avawaa* plus 1 - aa⁻, wavaa*a and vawaa*a plus 1 - a⁻a."""
    sa = ring.star_t[a]
    cp, cq = _complements(ring, a, a_in)
    return (
        ring.add(ring.mul(a, w, a, v, a, sa), cp),
        ring.add(ring.mul(a, v, a, w, a, sa), cp),
        ring.add(ring.mul(w, a, v, a, sa, a), cq),
        ring.add(ring.mul(v, a, w, a, sa, a), cq),
    )


def _chk_vw_intersect(ring: FiniteStarRing, col: _Collector):
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
                    u, r, s, t = _vw_units(ring, a, w, v, a_in)
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


def _chk_joint_w_units(ring: FiniteStarRing, col: _Collector):
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
                    u, r, s, t = _w_units(ring, a, w, a_in)
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


def _chk_vw_intersect_dedekind(ring: FiniteStarRing, col: _Collector):
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
                    oks = tuple(ring.is_unit(x) for x in _vw_units(ring, a, w, v, a_in))
                    if any(ok != joint for ok in oks):
                        col.fail(
                            f"Dedekind units {oks} vs joint {joint}",
                            a=a,
                            w=w,
                            v=v,
                            a_inner=a_in,
                        )


def _chk_along_product(ring: FiniteStarRing, col: _Collector):
    for a in range(ring.size):
        for w in range(ring.size):
            wpa = ring.along(w, a) is not None
            for v in col.each(range(ring.size)):
                both = wpa and ring.along(v, a) is not None
                prod = ring.along(ring.mul(w, a, v), a) is not None
                if both != prod:
                    col.fail(f"w,v in R^(||a) = {both} but wav criterion = {prod}", a=a, w=w, v=v)


def _chk_intersect(ring: FiniteStarRing, col: _Collector):
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
                u, t, s, r = _w_units(ring, a, w, a_in)
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


def _chk_core_dual_core_units(ring: FiniteStarRing, col: _Collector):
    star = ring.star_t
    for a in range(ring.size):
        inners = ring.inner_inverses(a)
        if not inners:
            continue
        sa = star[a]
        joint = ring.core_inv(a) is not None and ring.dual_core_inv(a) is not None
        c2 = ring.group_inv(a) is not None and ring.mp_inv(a) is not None
        for a_in in col.each(inners):
            # the core inverse is the w-core inverse at w = 1
            u, t, s, v = _w_units(ring, a, ring.one, a_in)
            oks = tuple(ring.is_unit(x) for x in (u, v, s, t))
            if joint != c2 or any(ok != joint for ok in oks):
                col.fail(f"(i)={joint}, (ii)={c2}, units={oks}", a=a, a_inner=a_in)
                continue
            if joint:
                if ring.mul(ring.inv_unit(t), a, sa) != ring.core_inv(a):
                    col.fail("t^{-1} a a* misses a_core", a=a, a_inner=a_in)
                if ring.mul(sa, a, ring.inv_unit(s)) != ring.dual_core_inv(a):
                    col.fail("a* a s^{-1} misses a_dual_core", a=a, a_inner=a_in)


# ---------------------------------------------------------------------------
# catalog

CATALOG: dict[str, tuple] = {
    # name: (checker, max quantified ring elements)
    "uniqueness": (_chk_uniqueness, 2),
    "added_lemma": (_chk_added_lemma, 2),
    "characteristic_ew": (_chk_characteristic_ew, 2),
    "characteristic_vf": (_chk_characteristic_vf, 2),
    "core_char": (_chk_core_char, 1),
    "ideal_form": (_chk_ideal_form, 2),
    "relate_to_mary": (_chk_relate_to_mary, 2),
    "relate_to_dual_mary": (_chk_relate_to_dual_mary, 2),
    "group_result": (_chk_group_result, 2),
    "extended_repre": (_chk_extended_repre, 2),
    "core_another": (_chk_core_another, 1),
    "core_another_1": (_chk_core_another_1, 1),
    "star_core_another": (_chk_star_core_another, 1),
    "wv_core_char": (_chk_wv_core_char, 3),
    "star_duality": (_chk_star_duality, 2),
    "wcore_of_wcore": (_chk_wcore_of_wcore, 2),
    "wv_mary": (_chk_wv_mary, 2),
    "relations_bc": (_chk_relations_bc, 2),
    "green_drazin": (_chk_green_drazin, 2),
    "idempotent": (_chk_idempotent, 2),
    "jacobson": (_chk_jacobson, 2),
    "mary_inverse_unit": (_chk_mary_inverse_unit, 2),
    "classical_mp_char": (_chk_classical_mp_char, 1),
    "mp_ideal_char": (_chk_mp_ideal_char, 1),
    "vw_intersect": (_chk_vw_intersect, 3),
    "joint_w_units": (_chk_joint_w_units, 3),
    "vw_intersect_dedekind": (_chk_vw_intersect_dedekind, 3),
    "along_product": (_chk_along_product, 3),
    "intersect": (_chk_intersect, 2),
    "core_dual_core_units": (_chk_core_dual_core_units, 1),
}


def search_ideal_form_n1(ring: FiniteStarRing) -> list[tuple[int, int]]:
    """Pairs (a, w) with a in S(aw)*a but a not w-core invertible.

    The n = 1 variant of the ideal-form criterion fails in an infinite
    matrix semigroup; whether a finite counterexample exists is open, so
    hits are reported for inspection and never treated as failures.
    """
    hits = []
    for a in range(ring.size):
        for w in range(ring.size):
            e = ring.mul(ring.star(ring.mul(a, w)), a)
            if a in ring.left_ideal(e) and not ring.wcore_solutions(a, w):
                hits.append((a, w))
    return hits


def verify_theorem(ring: FiniteStarRing, theorem_id: str) -> TheoremReport:
    """Exhaustively check one catalog theorem on the given ring."""
    if theorem_id not in CATALOG:
        raise UnknownTheorem(f"{theorem_id!r}; known: {', '.join(sorted(CATALOG))}")
    checker, quantified = CATALOG[theorem_id]
    if quantified >= 3 and ring.size > TRIPLE_SIZE_LIMIT:
        return TheoremReport(
            theorem_id,
            ring.spec,
            0,
            skipped=True,
            note=f"triple-quantified check skipped for |ring| > {TRIPLE_SIZE_LIMIT}",
        )
    col = _Collector(ring)
    start = time.perf_counter()
    with suppress(_Full):
        checker(ring, col)
    elapsed = time.perf_counter() - start
    return TheoremReport(theorem_id, ring.spec, col.checked, col.ces, elapsed)


def verify_all(ring: FiniteStarRing, theorem_ids=None) -> list[TheoremReport]:
    ids = list(CATALOG) if theorem_ids is None else list(theorem_ids)
    return [verify_theorem(ring, tid) for tid in ids]
