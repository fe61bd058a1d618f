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

The seven unit criteria open each outer letter (d, or a) through one
`_Frame`: a*, the inner inverses and, read on request through the ring's
named lookups, a^dag, the row x^{||a} and the rows a_w and a_{w,dual}.  Its
`units` builds every unit of the criteria, a word plus 1 - aa⁻ or 1 - a⁻a.
`classical_mp_char` and `core_dual_core_units` loop over the units one by
one; the other five check all instances of one outer letter at once on the
ring's int32 tables, with the inner letters and the inner inverses as array
axes, reading is-unit bits once per check and each unit inverse when first
needed.  Such a batch reports through `col.batch`, which counts the same
instances `col.each` would and calls `col.fail` for the batch's failures in
the order of the scalar loop it replaces, each with the instances up to its
own counted.  So a check that ends at the cap reports the same
counterexamples and the same instance count as the loop.
"""

from __future__ import annotations

import time
from contextlib import suppress
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

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

    def batch(self, size, elems, own, per_inner=()):
        """Count size instances at once, as `each` would, and record their
        failures in the order of the loop over them.

        own: (mask, detail) for each check of an instance itself, the mask
        over the instances in loop order.  per_inner: (mask, detail) for each
        check repeated per inner inverse, the mask over instances by inner
        inverses.  Within an instance the loop runs its own checks first,
        then each inner inverse's checks in turn, each list in the order
        given.  A detail is a string or a function of the position pos (and
        inner index i), elems(pos[, i]) names the elements, and a failure is
        recorded with the instances up to its own counted.
        """
        base = self.checked
        hits = [mask for mask, _ in own] + [mask.any(axis=1) for mask, _ in per_inner]
        for pos in np.flatnonzero(np.logical_or.reduce(hits)).tolist():
            self.checked = base + pos + 1
            found = [((pos,), detail) for mask, detail in own if mask[pos]]
            if per_inner:
                at = np.logical_or.reduce([mask[pos] for mask, _ in per_inner])
                for i in np.flatnonzero(at).tolist():
                    found += [((pos, i), detail) for mask, detail in per_inner if mask[pos, i]]
            for args, detail in found:
                self.fail(detail if isinstance(detail, str) else detail(*args), **elems(*args))
        self.checked = base + size

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


def _chk_characteristic(ring: FiniteStarRing, col: _Collector, dual=False):
    """Conditions (i)-(v) of the w-core characterization, or with dual those
    of the dual v-core one: the lookups mirrored, left for right."""
    ri, li, ra, la = ring.right_ideal, ring.left_ideal, ring.right_ann, ring.left_ann
    lookups = (li, ri, la, ra) if dual else (ri, li, ra, la)
    solutions = ring.dual_vcore_solutions if dual else ring.wcore_solutions
    full = SYSTEMS["dual-v-core-full" if dual else "w-core-full"]
    e4 = full[3:4]  # awxa = a, or ayva = a: the candidates of (iii)-(v)
    letter, what = ("v", "dual conditions") if dual else ("w", "conditions")
    star, solve, n = ring.star_t, ring.solve_system, ring.size
    for a in range(n):
        conditions = _ideal_conditions(a, star[a], *lookups)
        for w in col.each(range(n)):
            env = {"a": a, letter: w}
            c1, c2 = bool(solutions(a, w)), bool(solve(full, env))
            c3, c4, c5 = conditions(solve(e4, env))
            if not (c1 == c2 == c3 == c4 == c5):
                col.fail(f"{what} (i)-(v) split as {(c1, c2, c3, c4, c5)}", a=a, **{letter: w})


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


class _Units:
    """The is-unit bit of every element, read once through ring.is_unit, and
    unit inverses, each read through ring.inv_unit when first needed."""

    def __init__(self, ring):
        self.ring = ring
        self.bits = np.array([ring.is_unit(x) for x in range(ring.size)], dtype=bool)
        self._inv = np.full(ring.size, -1, dtype=np.int64)

    def inv(self, xs):
        for x in set(xs[self._inv[xs] < 0].tolist()):
            self._inv[x] = self.ring.inv_unit(x)
        return self._inv[xs]


def _prod(mul, *factors):
    """The left-to-right product of elements and broadcast element arrays."""
    acc = factors[0]
    for f in factors[1:]:
        acc = mul[acc, f]
    return acc


class _Frame:
    """The outer letter a of a unit criterion, with a* and its inner inverses
    a⁻.  A checker reads, once per frame and only if it needs them, a^dag
    (`mp`, None if it does not exist), x^{||a} for every x (`along`) and a_w
    and a_{w,dual} for every w (`cores`), the rows -1 where they do not exist."""

    def __init__(self, ring, a, inners):
        self.ring, self.a, self.sa = ring, a, ring.star_t[a]
        self.inners, self.k = inners, len(inners)
        # 1 - aa⁻ and 1 - a⁻a for each inner inverse a⁻
        mul, inners = ring.mul_arr, np.asarray(self.inners, dtype=np.int64)
        one_minus = ring.add_arr[ring.one][ring.neg_arr]
        self._complements = one_minus[mul[a, inners]], one_minus[mul[inners, a]]

    def mp(self):
        return self.ring.mp_inv(self.a)

    def along(self):
        values = (self.ring.along(x, self.a) for x in range(self.ring.size))
        return np.array([-1 if y is None else y for y in values], dtype=np.int64)

    def cores(self):
        return [
            np.array([(sols(self.a, w) or (-1,))[0] for w in range(self.ring.size)], dtype=np.int64)
            for sols in (self.ring.wcore_solutions, self.ring.dual_vcore_solutions)
        ]

    def units(self, *words, **letters):
        """The unit x + 1 - e of each word x over a, a* and the letters
        (elements or broadcast element arrays), with a last axis over a⁻: e
        is aa⁻ when x starts with a, so lies in aR, and a⁻a when it ends with a."""
        env = {"a": self.a, "a*": self.sa, **letters}
        mul, add = self.ring.mul_arr, self.ring.add_arr
        out = []
        for word in words:
            syms = word.split()
            x = _prod(mul, *[env[sym] for sym in syms])
            e = self._complements[syms[0] != "a"]
            # an element's units lie in one row of the addition table, a
            # cheaper gather than the broadcast one
            out.append(add[x[..., None], e] if isinstance(x, np.ndarray) else add[x][e])
        return out


# the units of the single-w criteria and of the (v, w) criteria
_W_UNITS = ("a w a a*", "a a* a w", "w a a* a", "a* a w a")
_VW_UNITS = ("a w a v a a*", "a v a w a a*", "w a v a a* a", "v a w a a* a")


def _frames(ring, regular=True):
    """The frame of each element in turn; when regular, only of those with an
    inner inverse."""
    for a in range(ring.size):
        inners = ring.inner_inverses(a)
        if inners or not regular:
            yield _Frame(ring, a, inners)


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
    n, mul = ring.size, ring.mul_arr
    units = _Units(ring)
    xs = np.arange(n)
    for f in _frames(ring):
        # the frame's letter is d; instances (a, d⁻): rows a, columns d⁻
        d, k, ex = f.a, f.k, f.along()
        has = (ex >= 0)[:, None]
        u, v = f.units("a x", "x a", x=xs)
        bad = (has != units.bits[u]) | (has != units.bits[v])
        need = np.flatnonzero(~bad & has)
        miss = np.zeros(n * k, dtype=bool)
        miss[need] = (mul[units.inv(u.ravel()[need]), d] != ex[need // k]) | (
            mul[d, units.inv(v.ravel()[need])] != ex[need // k]
        )

        def elems(pos):
            a, i = divmod(pos, k)
            return {"a": a, "d": d, "d_inner": f.inners[i]}

        own = [
            (bad.ravel(), "unit criteria disagree with existence"),
            (miss, "u^{-1} d / d v^{-1} miss a^{||d}"),
        ]
        col.batch(n * k, elems, own)


def _chk_classical_mp_char(ring: FiniteStarRing, col: _Collector):
    star = ring.star_t
    for f in _frames(ring):
        a, mp = f.a, f.mp()
        us, vs = (x.tolist() for x in f.units("a a*", "a* a"))
        for a_in, u, v in col.each(zip(f.inners, us, vs)):
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


def _chk_vw_intersect(ring: FiniteStarRing, col: _Collector):
    n, mul, star = ring.size, ring.mul_arr, ring.star_arr
    units = _Units(ring)
    v, w = np.arange(n)[:, None], np.arange(n)[None, :]
    for f in _frames(ring, regular=False):
        a, sa, k, (wc, dv), in_a = f.a, f.sa, f.k, f.cores(), f.along() >= 0
        # instances (v, w): rows v, columns w; the units add an axis for a⁻
        vpa = in_a[:, None]
        joint = (dv >= 0)[:, None] & (wc >= 0)
        c2 = in_a & (f.mp() is not None)
        u, r, s, t = f.units(*_VW_UNITS, w=w, v=v)
        oks = units.bits[np.stack([u, r, s, t])]
        bad = vpa[..., None] & (oks != joint[..., None]).any(axis=0)
        need = np.flatnonzero(vpa[..., None] & ~bad & joint[..., None])
        vn, wn, _ = np.unravel_index(need, bad.shape)
        mid = star[_prod(mul, units.inv(u.ravel()[need]), a, wn, a, vn, a)]
        miss_w, miss_v = np.zeros((2, n * n * k), dtype=bool)
        miss_w[need] = _prod(mul, a, vn, a, sa, a, units.inv(s.ravel()[need]), mid) != wc[wn]
        miss_v[need] = _prod(mul, mid, a, wn, a, sa, a, units.inv(t.ravel()[need])) != dv[vn]
        oks = oks.reshape(4, n * n, k)

        def elems(pos, *inner):
            vi, wi = divmod(pos, n)
            return {"a": a, "w": wi, "v": vi} | {"a_inner": f.inners[i] for i in inner}

        own = [
            ((~vpa & joint).ravel(), "joint existence without v in R^{||a}"),
            (
                (vpa & (joint != c2)).ravel(),
                lambda pos: f"(i)={joint.flat[pos]} vs (ii)={c2[pos % n]}",
            ),
        ]
        per_inner = [
            (
                bad.reshape(n * n, k),
                lambda pos, i: f"units {tuple(oks[:, pos, i].tolist())} "
                f"vs joint existence {joint.flat[pos]}",
            ),
            (miss_w.reshape(n * n, k), "joint formula misses a_w"),
            (miss_v.reshape(n * n, k), "joint formula misses a_{v,dual}"),
        ]
        col.batch(n * n, elems, own, per_inner)


def _chk_joint_w_units(ring: FiniteStarRing, col: _Collector):
    n, mul, star = ring.size, ring.mul_arr, ring.star_arr
    units = _Units(ring)
    ws = np.arange(n)
    for f in _frames(ring):
        a, sa, k, (wc, dv), in_a = f.a, f.sa, f.k, f.cores(), f.along() >= 0
        # instances (w, v): rows w, columns v; the units add an axis for a⁻
        joint = (wc >= 0)[:, None] & (dv >= 0)
        c2 = in_a[:, None] & in_a & (f.mp() is not None)
        u, r, s, t = f.units(*_W_UNITS, w=ws)
        conds = in_a[:, None] & units.bits[np.stack([u, r, s, t])][:, :, None, :]
        bad = (conds != joint[..., None]).any(axis=0)
        need = np.flatnonzero(~bad & joint[..., None])
        wn, _, i_n = np.unravel_index(need, bad.shape)
        mid = star[_prod(mul, units.inv(u[wn, i_n]), a, wn, a)]
        miss = np.zeros(n * n * k, dtype=bool)
        miss[need] = _prod(mul, a, sa, a, units.inv(s[wn, i_n]), mid) != wc[wn]
        conds = conds.reshape(4, n * n, k)

        def elems(pos, *inner):
            wi, vi = divmod(pos, n)
            return {"a": a, "w": wi, "v": vi} | {"a_inner": f.inners[i] for i in inner}

        own = [((joint != c2).ravel(), lambda pos: f"(i)={joint.flat[pos]} vs (ii)={c2.flat[pos]}")]
        per_inner = [
            (
                bad.reshape(n * n, k),
                lambda pos, i: f"(iii)-(vi)={tuple(conds[:, pos, i].tolist())} "
                f"vs (i)={joint.flat[pos]}",
            ),
            (miss.reshape(n * n, k), "single-w unit formula misses a_w"),
        ]
        col.batch(n * n, elems, own, per_inner)


def _chk_vw_intersect_dedekind(ring: FiniteStarRing, col: _Collector):
    n, mul = ring.size, ring.mul_arr
    units = _Units(ring)
    w, v = np.arange(n)[:, None], np.arange(n)[None, :]
    for f in _frames(ring, regular=False):
        a, k, (wc, dv), in_a = f.a, f.k, f.cores(), f.along() >= 0
        mp = f.mp() is not None
        # instances (w, v): rows w, columns v; the units add an axis for a⁻
        joint = (wc >= 0)[:, None] & (dv >= 0)
        c2 = in_a[_prod(mul, w, a, v)] & mp
        c3 = in_a[_prod(mul, v, a, w)] & mp
        oks = units.bits[np.stack(f.units(*_VW_UNITS, w=w, v=v))]
        bad = (oks != joint[..., None]).any(axis=0)
        oks = oks.reshape(4, n * n, k)

        def elems(pos, *inner):
            wi, vi = divmod(pos, n)
            return {"a": a, "w": wi, "v": vi} | {"a_inner": f.inners[i] for i in inner}

        own = [
            (
                (~((joint == c2) & (c2 == c3))).ravel(),
                lambda pos: f"(i)={joint.flat[pos]}, (ii)={c2.flat[pos]}, (iii)={c3.flat[pos]}",
            )
        ]
        per_inner = [
            (
                bad.reshape(n * n, k),
                lambda pos, i: f"Dedekind units {tuple(oks[:, pos, i].tolist())} "
                f"vs joint {joint.flat[pos]}",
            )
        ]
        col.batch(n * n, elems, own, per_inner)


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
    n, mul = ring.size, ring.mul_arr
    units = _Units(ring)
    ws = np.arange(n)
    for f in _frames(ring):
        a, sa, k, (wc, dv) = f.a, f.sa, f.k, f.cores()
        ew = wc >= 0
        joint, c2, c3 = ew & (dv >= 0), (f.along() >= 0) & (f.mp() is not None), ew & (dv[sa] >= 0)
        # instances (w, a⁻): rows w, columns a⁻
        u, t, s, r = f.units(*_W_UNITS, w=ws)
        oks = units.bits[np.stack([u, r, s, t])]
        bad = ~((joint == c2) & (c2 == c3))[:, None] | (oks != joint[:, None]).any(axis=0)
        need = np.flatnonzero(~bad & joint[:, None])
        miss_t, miss_s = np.zeros((2, n * k), dtype=bool)
        miss_t[need] = _prod(mul, units.inv(t.ravel()[need]), a, sa) != wc[need // k]
        miss_s[need] = _prod(mul, sa, a, units.inv(s.ravel()[need])) != dv[need // k]
        oks = oks.reshape(4, -1)

        def elems(pos):
            wi, i = divmod(pos, k)
            return {"a": a, "w": wi, "a_inner": f.inners[i]}

        def split(pos):
            wi = pos // k
            units_ok = tuple(oks[:, pos].tolist())
            return f"(i)={joint[wi]}, (ii)={c2[wi]}, (iii)={c3[wi]}, units={units_ok}"

        own = [
            (bad.ravel(), split),
            (miss_t, "t^{-1} a a* misses a_w"),
            (miss_s, "a* a s^{-1} misses a_{w,dual}"),
        ]
        col.batch(n * k, elems, own)


def _chk_core_dual_core_units(ring: FiniteStarRing, col: _Collector):
    for f in _frames(ring):
        a, sa = f.a, f.sa
        joint = ring.core_inv(a) is not None and ring.dual_core_inv(a) is not None
        c2 = ring.group_inv(a) is not None and f.mp() is not None
        # the core inverse is the w-core inverse at w = 1
        units = (x.tolist() for x in f.units(*_W_UNITS, w=ring.one))
        for a_in, u, t, s, v in col.each(zip(f.inners, *units)):
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
    "characteristic_ew": (_chk_characteristic, 2),
    "characteristic_vf": (partial(_chk_characteristic, dual=True), 2),
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
