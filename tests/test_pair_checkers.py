"""The array checkers of the pair theorems, and of the other theorems
rewritten with them, against the scalar loops they replaced, kept here as
references.  A checker and its loop give equal reports, elapsed dropped:
without a fault, under every planted fault of these checkers, and under a
plant that fails every instance, so the check ends at the counterexample
cap.  The loop of the w-core characterizations reads condition (ii) at the
w-core solutions, as the array checker does: E1-E5 solve w-core-full by
definition."""

from functools import partial

import numpy as np
import pytest
from test_theorems import PLANTED, _plant, complements, w_units

from ginv import enumerate_ring, rings, verify_theorem
from ginv.equations import SYSTEMS, core_ep_system
from ginv.rings import _BLOCK
from ginv.theorems import _MAX_CE, CATALOG, _candidates, _runs, _some

_B3 = SYSTEMS["bc"][2:]  # xax = x: x is an outer inverse of a


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


def loop_uniqueness(ring, col):
    for a in range(ring.size):
        for w in col.each(range(ring.size)):
            sols = ring.wcore_solutions(a, w)
            if len(sols) > 1:
                col.fail(f"{len(sols)} distinct w-core inverses", a=a, w=w)


def loop_added_lemma(ring, col):
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


def loop_characteristic(ring, col, dual=False):
    def holds(equation, env):
        _, lhs, rhs = equation
        return ring.word(lhs, env) == ring.word(rhs, env)

    ri, li, ra, la = ring.right_ideal, ring.left_ideal, ring.right_ann, ring.left_ann
    lookups = (li, ri, la, ra) if dual else (ri, li, ra, la)
    solutions = ring.dual_vcore_solutions if dual else ring.wcore_solutions
    full = SYSTEMS["dual-v-core-full" if dual else "w-core-full"]
    e4, e45 = full[3:4], full[3:]  # E4 awxa = a (F4 ayva = a): the candidates of (iii)-(v)
    letter, what = ("v", "dual conditions") if dual else ("w", "conditions")
    star, solve, n = ring.star_t, ring.solve_system, ring.size
    for a in range(n):
        conditions = _ideal_conditions(a, star[a], *lookups)
        for w in col.each(range(n)):
            env = {"a": a, letter: w}
            sols = solutions(a, w)
            c1 = bool(sols)
            # (ii): some solution of E1-E3 also satisfies E4-E5 (F1-F3, F4-F5)
            c2 = any(all(holds(eq, env | {"x": x}) for eq in e45) for x in sols)
            c3, c4, c5 = conditions(solve(e4, env))
            if not (c1 == c2 == c3 == c4 == c5):
                col.fail(f"{what} (i)-(v) split as {(c1, c2, c3, c4, c5)}", a=a, **{letter: w})


def loop_ideal_form(ring, col):
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


def loop_relate_to_mary(ring, col):
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


def loop_relate_to_dual_mary(ring, col):
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


def loop_group_result(ring, col):
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


def loop_extended_repre(ring, col):
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


def loop_star_duality(ring, col):
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


def loop_wcore_of_wcore(ring, col):
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


def loop_wv_mary(ring, col):
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


def loop_relations_bc(ring, col):
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


def loop_green_drazin(ring, col):
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


def loop_core_char(ring, col):
    lookups = ring.right_ideal, ring.left_ideal, ring.right_ann, ring.left_ann
    for a in col.each(range(ring.size)):
        c1 = ring.core_inv(a) is not None
        c2 = bool(ring.solve_system(SYSTEMS["core5"], {"a": a}))
        c3, c4, c5 = _ideal_conditions(a, ring.star_t[a], *lookups)(ring.inner_inverses(a))
        if not (c1 == c2 == c3 == c4 == c5):
            col.fail(f"core conditions (i)-(v) split as {(c1, c2, c3, c4, c5)}", a=a)



def loop_core_another(ring, col):
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


def loop_star_core_another(ring, col):
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


def loop_mp_ideal_char(ring, col):
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


def loop_wv_core_char(ring, col):
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


def loop_along_product(ring, col):
    for a in range(ring.size):
        for w in range(ring.size):
            wpa = ring.along(w, a) is not None
            for v in col.each(range(ring.size)):
                both = wpa and ring.along(v, a) is not None
                prod = ring.along(ring.mul(w, a, v), a) is not None
                if both != prod:
                    col.fail(f"w,v in R^(||a) = {both} but wav criterion = {prod}", a=a, w=w, v=v)


def loop_idempotent(ring, col):
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


def loop_jacobson(ring, col):
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


def loop_core_another_1(ring, col):
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
                # each value formula only where its inverse exists
                if c2 and ring.mul(an, ring.wcore(an, a)) != x0:
                    col.fail(f"n={n_exp}: a^D != a^n (a^n)_a", a=a)
                if c3 and ring.mul(ring.pow(a, n_exp - 1), ring.core_inv(an)) != x0:
                    col.fail(f"n={n_exp}: a^D != a^(n-1) (a^n)_core", a=a)


def loop_classical_mp_char(ring, col):
    star = ring.star_t
    for a in range(ring.size):
        mp = ring.mp_inv(a)
        for a_in in col.each(ring.inner_inverses(a)):
            cp, cq = complements(ring, a, a_in)
            u, v = ring.add(ring.mul(a, star[a]), cp), ring.add(ring.mul(star[a], a), cq)
            if (mp is not None) != ring.is_unit(u) or (mp is not None) != ring.is_unit(v):
                col.fail("MP unit criteria disagree with existence", a=a, a_inner=a_in)
                continue
            if mp is not None:
                if star[ring.mul(ring.inv_unit(u), a)] != mp:
                    col.fail("(u^{-1} a)* misses a^dag", a=a, a_inner=a_in)
                if star[ring.mul(a, ring.inv_unit(v))] != mp:
                    col.fail("(a v^{-1})* misses a^dag", a=a, a_inner=a_in)


def loop_core_dual_core_units(ring, col):
    for a in range(ring.size):
        sa = ring.star_t[a]
        joint = ring.core_inv(a) is not None and ring.dual_core_inv(a) is not None
        c2 = ring.group_inv(a) is not None and ring.mp_inv(a) is not None
        for a_in in col.each(ring.inner_inverses(a)):
            # the core inverse is the w-core inverse at w = 1
            u, t, s, v = w_units(ring, a, ring.one, a_in)
            oks = tuple(ring.is_unit(x) for x in (u, v, s, t))
            if joint != c2 or any(ok != joint for ok in oks):
                col.fail(f"(i)={joint}, (ii)={c2}, units={oks}", a=a, a_inner=a_in)
                continue
            if joint:
                if ring.mul(ring.inv_unit(t), a, sa) != ring.core_inv(a):
                    col.fail("t^{-1} a a* misses a_core", a=a, a_inner=a_in)
                if ring.mul(sa, a, ring.inv_unit(s)) != ring.dual_core_inv(a):
                    col.fail("a* a s^{-1} misses a_dual_core", a=a, a_inner=a_in)


LOOPS = {
    "uniqueness": loop_uniqueness,
    "added_lemma": loop_added_lemma,
    "characteristic_ew": loop_characteristic,
    "characteristic_vf": partial(loop_characteristic, dual=True),
    "core_char": loop_core_char,
    "ideal_form": loop_ideal_form,
    "relate_to_mary": loop_relate_to_mary,
    "relate_to_dual_mary": loop_relate_to_dual_mary,
    "group_result": loop_group_result,
    "extended_repre": loop_extended_repre,
    "star_duality": loop_star_duality,
    "wcore_of_wcore": loop_wcore_of_wcore,
    "wv_mary": loop_wv_mary,
    "relations_bc": loop_relations_bc,
    "green_drazin": loop_green_drazin,
    "core_another": loop_core_another,
    "star_core_another": loop_star_core_another,
    "mp_ideal_char": loop_mp_ideal_char,
    "wv_core_char": loop_wv_core_char,
    "along_product": loop_along_product,
    "idempotent": loop_idempotent,
    "jacobson": loop_jacobson,
    "core_another_1": loop_core_another_1,
    "classical_mp_char": loop_classical_mp_char,
    "core_dual_core_units": loop_core_dual_core_units,
}


def _flip(lookup, wrong):
    """Every value of the lookup goes wrong: where it has none it answers
    wrong, and where it has one it answers none."""

    def plant(ring):
        true = getattr(ring, lookup)
        none = () if isinstance(wrong, tuple) else None
        setattr(ring, lookup, lambda *args: none if true(*args) else wrong)

    return plant


def _replace(lookup, value):
    def plant(ring):
        setattr(ring, lookup, lambda *args: value(*args))

    return plant


def _flip_joint_core(ring):
    # a has both a core and a dual core inverse exactly where it did not
    core, dual = ring.core_inv, ring.dual_core_inv
    ring.core_inv = lambda a: None if core(a) is not None and dual(a) is not None else 0
    ring.dual_core_inv = lambda a: 0


# a plant under which every instance of the check fails, or (for the
# existence-only flips) every instance where the other conditions agree
FAIL_EVERYWHERE = {
    "uniqueness": _replace("wcore_solutions", lambda a, w: (0, 1)),
    "added_lemma": _replace("wcore_solutions", lambda a, w: (0, 1)),
    "characteristic_ew": _flip("wcore_solutions", (0,)),
    "characteristic_vf": _flip("dual_vcore_solutions", (0,)),
    "core_char": _flip("core_inv", 0),
    "ideal_form": _flip("core_inv", 0),
    "relate_to_mary": _flip("along", 0),
    "relate_to_dual_mary": _flip("along", 0),
    "group_result": _flip("group_inv", 0),
    "extended_repre": _replace("group_inv", lambda a: None),
    "star_duality": _flip("dual_vcore_solutions", (0,)),
    "wcore_of_wcore": _replace("core_inv", lambda a: None),
    "wv_mary": _flip("along", 0),
    "relations_bc": _flip("wcore_solutions", (0,)),
    "green_drazin": _replace("left_ann", lambda e: frozenset({e})),
    "core_another": _flip("core_inv", 0),
    "star_core_another": _flip("mp_inv", 0),
    "mp_ideal_char": _flip("mp_inv", 0),
    "wv_core_char": _replace("along", lambda x, d: None),
    "along_product": _flip("along", 0),
    "idempotent": _flip("wcore_solutions", (0,)),
    # every instance where 1 - ab is a unit: 1 + b 0 a = 1 is never 0
    "jacobson": _replace("inv_unit", lambda x: 0),
    "core_another_1": _flip("core_inv", 0),
    "classical_mp_char": _replace("mp_inv", lambda a: None),
    "core_dual_core_units": _flip_joint_core,
}
RINGS = ("zmod:12", "mat:2:gf2", "prod(zmod:2,zmod:3)", "mat:2:gf3")
TRIPLES = ("wv_core_char", "along_product")  # skipped on mat:2:gf3
SINGLES = ("core_char", "core_another", "star_core_another", "mp_ideal_char")
CASES = [(s, t) for s in RINGS for t in LOOPS if not (s == "mat:2:gf3" and t in TRIPLES)]
# one instance per element: the product has six
CAP_CASES = [(s, t) for s, t in CASES if not (s.startswith("prod") and t in SINGLES)]
# the planted faults of these checkers, and one on a ring where ty and yt
# differ: along(0, 0) = 2 names different first t in ty and in yt
FAULTS = sorted({PLANTED[tid] for tid in LOOPS}, key=repr)
FAULTS.append(("mat:2:gf2", "along", (0, 0), 2))


def reports(monkeypatch, ring, tid):
    """The report of the array checker and of its scalar loop, elapsed dropped."""
    got = verify_theorem(ring, tid)
    with monkeypatch.context() as m:
        m.setitem(CATALOG, tid, (LOOPS[tid], CATALOG[tid][1]))
        want = verify_theorem(ring, tid)
    got.elapsed = want.elapsed = 0.0
    return got, want


def test_loops_cover_the_array_checkers():
    assert sorted(FAIL_EVERYWHERE) == sorted(LOOPS) and set(LOOPS) <= set(CATALOG)


@pytest.mark.parametrize("spec, tid", CASES)
def test_array_checker_matches_loop(monkeypatch, spec, tid):
    ring = enumerate_ring(spec)
    got, want = reports(monkeypatch, ring, tid)
    assert want.ok() and not want.skipped and want.instances_checked
    assert got == want


@pytest.mark.parametrize("fault", FAULTS, ids=lambda f: f"{f[1]}{f[2]}={f[3]!r}"[:40])
@pytest.mark.parametrize("tid", sorted(LOOPS))
def test_array_checker_matches_loop_on_planted_faults(monkeypatch, tid, fault):
    spec, lookup, at, wrong = fault
    ring = enumerate_ring(spec)
    _plant(ring, lookup, at, wrong)
    got, want = reports(monkeypatch, ring, tid)
    if PLANTED[tid] == fault:
        assert want.counterexamples
    assert got == want


@pytest.mark.parametrize("spec, tid", CAP_CASES)
def test_array_checker_matches_loop_at_the_cap(monkeypatch, spec, tid):
    ring = enumerate_ring(spec)
    FAIL_EVERYWHERE[tid](ring)
    got, want = reports(monkeypatch, ring, tid)
    assert len(want.counterexamples) == _MAX_CE
    assert got == want


@pytest.mark.parametrize("spec", RINGS)
@pytest.mark.parametrize("tid", ["idempotent", "jacobson"])
def test_unit_checkers_match_loop_on_a_wrong_unit_inverse(monkeypatch, spec, tid):
    # the planted fault of these checkers, inv_unit(1) = 2 on Z/12, carried
    # to every ring: the inverse of 1 read as 0
    ring = enumerate_ring(spec)
    _plant(ring, "inv_unit", (ring.one,), ring.zero)
    got, want = reports(monkeypatch, ring, tid)
    assert want.counterexamples
    assert got == want


@pytest.mark.parametrize("spec", RINGS)
def test_idempotent_matches_loop_when_several_projections_pass(monkeypatch, spec):
    # every element read as a projection: several p pass at many (a, w), and
    # the check goes on with the first of them
    ring = enumerate_ring(spec)
    ring.projections = lambda: tuple(range(ring.size))
    got, want = reports(monkeypatch, ring, "idempotent")
    assert any("not unique" in ce["detail"] for ce in want.counterexamples)
    assert got == want


@pytest.mark.parametrize(
    "plant",
    [
        lambda ring: _plant(ring, "wcore_solutions", (0, 0), ()),
        _replace("core_inv", lambda a: None),
    ],
    ids=["wcore_solutions(0, 0)=()", "core_inv=None"],
)
def test_core_another_1_reports_a_missing_inverse(monkeypatch, plant):
    # (i) holds where (ii) or (iii) does not: the check reports the split and
    # skips the value formula of the missing inverse
    ring = enumerate_ring("zmod:12")
    plant(ring)
    got, want = reports(monkeypatch, ring, "core_another_1")
    details = [ce["detail"] for ce in got.counterexamples]
    assert any("(ii)=False" in d or "(iii)=False" in d for d in details), details
    assert got == want


def dense_some(cands, holds):
    """count[a, w] and first[a, w] (-1 for none) of the candidates x of a,
    those with cands[a, x], for which holds(a, w, x), x ascending; the
    candidate pairs are taken in blocks, each with every w.  The reference
    for the fibre reads of `theorems._some`."""
    n, step, (pa, px) = len(cands), max(1, _BLOCK // len(cands)), np.nonzero(cands)
    count, first = np.zeros((n, n), dtype=np.int32), np.full((n, n), n, dtype=np.int32)
    for lo in range(0, pa.size, step):
        ca, cx = pa[lo : lo + step], px[lo : lo + step, None]
        hit, (at, _) = holds(ca[:, None], np.arange(n), cx), _runs(ca)
        count[ca[at]] += np.add.reduceat(hit, at, axis=0, dtype=np.int32)
        first[ca[at]] = np.minimum(first[ca[at]], np.minimum.reduceat(np.where(hit, cx, n), at))
    return count, np.where(first < n, first, -1)


def some_calls(ring):
    """(name, candidates, (p, q, r), holds) for each form that the checkers
    hand `_some`: E4 a w (x a) = a and F4 (a x) v a = a under the candidates
    of (iii), and the outer inverses y (aw) y = y and y (va) y = y under the
    (a, a*)- and (a*, a)-inverse conditions.  On these rings each has at
    most one hit per (a, w), so E4 at every x is added, where a = 0 has n."""
    n, mul = ring.size, ring.mul_arr
    a, y = np.arange(n)[:, None], np.arange(n)
    e4, f4 = SYSTEMS["w-core-full"][3], SYSTEMS["dual-v-core-full"][3]

    def holds(equation, k):
        return lambda a, w, x: ring._holds(equation, {"a": k(a, w), "w": w, "v": w, "x": x}, "x")

    cands, dual = _candidates(ring)[0], _candidates(ring, dual=True)[0]
    return [
        ("E4", cands, (a, mul.T, a), holds(e4, lambda a, w: a)),
        ("F4", dual, (mul, a, a), holds(f4, lambda a, v: a)),
        ("bc", cands, (mul.T, y, y), holds(_B3[0], lambda a, w: mul[a, w])),
        ("bc-dual", dual, (y, mul, y), holds(_B3[0], lambda a, v: mul[v, a])),
        ("E4, every x", np.ones((n, n), dtype=bool), (a, mul.T, a), holds(e4, lambda a, w: a)),
    ]


@pytest.mark.parametrize(
    "spec, block",
    [("zmod:12", None), ("mat:2:gf2", None), ("mat:2:gf3", None), ("mat:3:gf2", None)]
    + [("mat:2:gf3", 50)],
)
def test_some_reads_the_w_that_the_dense_loop_finds(monkeypatch, spec, block):
    # with blocks of 50 fibre entries, a candidate's z and its w span blocks;
    # E4 at every x of mat:3:gf2 would take the dense loop 134M points
    if block:
        monkeypatch.setattr(rings, "_BLOCK", block)
    ring = enumerate_ring(spec)
    for name, cands, pqr, holds in some_calls(ring)[: 4 if spec == "mat:3:gf2" else 5]:
        count, first = _some(ring, cands, *pqr)
        want_count, want_first = dense_some(cands, holds)
        assert want_count.max() > (name == "E4, every x"), name
        assert np.array_equal(count, want_count) and np.array_equal(first, want_first), name
