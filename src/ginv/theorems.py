"""Exhaustive verification of the w-core theorems on finite *-rings.

Each catalog entry re-states one proved result as a brute-force check over
all relevant tuples of ring elements; statements quantified over inner
inverses are checked against every inner inverse found by scan, and each
biconditional is checked in both directions.  A nonzero counterexample
count means the build is wrong (or the ring violates a hypothesis).

An instance is an element of a checker's innermost quantifier (the pair
(a, w) for w inside a), also when a hypothesis then excludes it; a check
ends at its `_MAX_CE`-th counterexample.  Checkers quantifying over three or
more ring elements are skipped, with a note, on rings larger than
`TRIPLE_SIZE_LIMIT`.  Every checker is an array expression over all its
instances at once, on the ring's whole-ring lookups (`FiniteStarRing.table`:
solution arrays, ideal ids and memberships).  The unit criteria read units
as `table("inv_unit")`: an element is a unit where its entry is >= 0, and the
entry is its inverse.  Five of them see an inner inverse a⁻ of a only through
the complement e, 1 - aa⁻ or 1 - a⁻a, of a unit x + e: they check each key
(a, e) once, in blocks over all a, count the outer letters whose frame holds
no failure at once, and name a failure from the masks of its frame, gathered
through each a⁻'s key.
Each states its quantifiers once, as the instance grid it hands `col.batch`:
the letters' coordinate arrays, whose broadcast shape gives the instance
count and, in C order, the scalar loop's order, and which name a failing
instance.  `col.batch` counts the instances `col.each` would and records the
failures in the loop's order, each with the instances up to its own counted:
a check that ends at the cap reports what the loop did.  The loops are kept
as references in the tests.
"""

from __future__ import annotations

import time
from contextlib import suppress
from dataclasses import asdict, dataclass, field
from functools import partial, reduce

import numpy as np

from .equations import SYSTEMS, core_ep_system
from .errors import UnknownTheorem
from .rings import _BLOCK, FiniteStarRing, _classes, _slices, _starts

_MAX_CE = 10
TRIPLE_SIZE_LIMIT = 16
_PAIRS = ("wcore_solutions", "dual_vcore_solutions")


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

    def batch(self, grid, own, per_inner=(), inner=None):
        """Count the instances of grid at once, as `each` would, and record
        their failures in the order of the loop over them.

        grid: each quantified letter's coordinate array, in the order the
        loop names them, broadcast to the instance grid: its size is the
        instance count and its C order the loop's.  own: (mask, detail) for
        each check of an instance itself, the mask over the grid, or (mask,
        detail, names) when names, a grid of its own whose letters may be
        functions of the position, names its elements.  per_inner: (mask,
        detail) for each check repeated per inner inverse, the inner inverses
        on a last axis, which inner names.  Within an instance the loop runs
        its own checks first, then each inner inverse's checks in turn, each
        list in order.  A detail is a string or a function of the position
        (and inner index); a failure is recorded with the instances up to its
        own counted.
        """
        instances = np.broadcast(*grid.values())  # shapes only: no array is built
        base, shape, size = self.checked, instances.shape, instances.size
        own = [(np.ravel(m), detail, names[0] if names else grid) for m, detail, *names in own]
        if any(m.size != size for m, *_ in own) or any(m.shape[:-1] != shape for m, _ in per_inner):
            raise ValueError(f"a mask does not span the instance grid {shape}")
        hits = [mask for mask, *_ in own] + [mask.any(axis=-1).ravel() for mask, _ in per_inner]
        for pos in np.flatnonzero(np.logical_or.reduce(hits)).tolist():
            self.checked = base + pos + 1
            at = np.unravel_index(pos, shape)
            for mask, detail, names in own:
                if mask[pos]:
                    self.fail(detail, pos, **_names(names, shape, at, pos))
            if per_inner:
                elems = _names(grid, shape, at, pos)
                here = np.logical_or.reduce([mask[at] for mask, _ in per_inner])
                for i in np.flatnonzero(here).tolist():
                    for mask, detail in per_inner:
                        if mask[(*at, i)]:
                            named = elems | _names(inner, mask.shape, (*at, i), pos)
                            self.fail(detail, pos, i, **named)
        self.checked = base + size

    def fail(self, detail, *at, **elems):
        """Record a counterexample: detail is a string or a function of at."""
        detail = detail if isinstance(detail, str) else detail(*at)
        names = {k: self.ring.name(v) for k, v in elems.items()}
        self.ces.append({"elements": names, "detail": detail})
        if len(self.ces) >= _MAX_CE:
            raise _Full


def _names(grid, shape, at, p):
    """The elements of grid at index at of the broadcast shape, flat index p."""
    return {k: int(v(p) if callable(v) else np.broadcast_to(v, shape)[at]) for k, v in grid.items()}


def _runs(rows):
    """Start and end of each run of equal values of a sorted array."""
    starts = np.flatnonzero(_starts(rows))
    return starts, np.append(starts[1:], rows.size)


def _split(template, *conds):
    """The check that conditions, arrays over the instances, agree; its detail
    is the template filled in with their values at the failing instance."""
    conds = np.stack([np.ravel(c) for c in np.broadcast_arrays(*conds)])
    return (conds != conds[0]).any(axis=0), lambda p: template.format(*conds[:, p].tolist())


def _miss_t(ring, sets, e, ys, want, left=False):
    """Names t as a loop over a set does: at position p, the first t of
    sets(e) at which some product y t (t y when left), y one of the ys,
    misses want, each read at p."""

    def t(p):
        e_p, x0, *ys_p = (np.broadcast_to(v, want.shape).flat[p] for v in (e, want, *ys))
        products = [(lambda t, y=y: ring.mul(t, y) if left else ring.mul(y, t)) for y in ys_p]
        return next(t for t in sets(e_p) if any(f(t) != x0 for f in products))

    return t


def _all_solutions(ring, name):
    """Every solution of a pair lookup per (a, b), on a last axis: the first,
    then the others where there are several; -1 pads."""
    first, count = ring.table(name)
    sols = np.full((count.size, max(1, int(count.max()))), -1, dtype=first.dtype)
    sols[:, 0] = first.ravel()
    for pos in np.flatnonzero(count.ravel() > 1).tolist():
        sols[pos, : count.flat[pos]] = getattr(ring, name)(*divmod(pos, ring.size))
    return sols.reshape(*count.shape, -1)


def _some(ring, cands, p, q, r):
    """count[a, w] and first[a, w] (-1 for none) of the candidates x of a,
    those with cands[a, x], for which p w q = r; p, q and r are [a, x]
    arrays, or broadcast to them.  The w are read from the fibre indexes,
    not tested: at each candidate, the z with z q = r from the column index,
    then the w with p w = z from the row index, at most _BLOCK at a time."""
    n, (pa, px) = ring.size, np.nonzero(cands)
    p, q, r = (np.broadcast_to(v, cands.shape)[pa, px] for v in (p, q, r))
    count, first = np.zeros(n * n, dtype=np.int32), np.full(n * n, n, dtype=np.int32)
    for c, z in _slices(*ring._fibre_index("col"), q * n + r):
        for at, w in _slices(*ring._fibre_index("row"), p[c] * n + z):
            key, lo = pa[c[at]] * n + w, pa[c[at[0]]] * n  # keys ascend with a
            hits = np.bincount(key - lo)
            count[lo : lo + hits.size] += hits.astype(np.int32)
            np.minimum.at(first, key, px[c[at]])
    return count.reshape(n, n), np.where(first < n, first, -1).reshape(n, n)


def _subsets(ids, members):
    """sub[i, j]: the set with id i lies in the set with id j."""
    rows = members[_classes(ids)[0]].astype(np.float32)
    return rows @ (1 - rows).T == 0


def _common(mul, members):
    """common[e, y]: the product y t shared by every t with members[e, t];
    -1 where there is no such t or the products differ.  Given mul.T, the
    products t y.  Whole runs of e, about _BLOCK products at a time."""
    n, (pe, pt) = len(mul), np.nonzero(members)
    out, (starts, ends), lo = np.full((n, n), -1, dtype=mul.dtype), _runs(pe), 0
    while lo < starts.size:
        hi = max(lo + 1, int(np.searchsorted(ends, starts[lo] + _BLOCK // n, side="right")))
        vals, at = mul[:, pt[starts[lo] : ends[hi - 1]]], starts[lo:hi] - starts[lo]
        least, most = np.minimum.reduceat(vals, at, axis=1), np.maximum.reduceat(vals, at, axis=1)
        out[pe[starts[lo:hi]]] = np.where(least == most, least, -1).T
        lo = hi
    return out


def _candidates(ring, dual=False):
    """Conditions (iii)-(v) of the core and w-core characterizations on x, as
    masks [a, x]: xR = aR and Rx = Ra*; ^0x = ^0a and x^0 = (a*)^0; ^0x = ^0a
    and (a*)^0 in x^0.  With dual, those of the dual characterizations: the
    ideals mirrored, left for right."""
    kinds = ("right_ideal", "left_ideal", "right_ann", "left_ann")
    kinds = kinds[1::-1] + kinds[:1:-1] if dual else kinds
    (ri, _), (li, _), (ra, ra_sets), (la, _) = map(ring.table, kinds)
    sa, same_la = ring.star_arr[:, None], la == la[:, None]
    c5 = same_la & _subsets(ra, ra_sets)[ra[sa], ra]
    return [(ri == ri[:, None]) & (li == li[sa]), same_la & (ra == ra[sa]), c5]


# ---------------------------------------------------------------------------
# definitions and semigroup-level characterizations


def _chk_uniqueness(ring: FiniteStarRing, col: _Collector):
    (a, w), count = np.indices((ring.size,) * 2, sparse=True), ring.table("wcore_solutions")[1]
    own = [(count > 1, lambda p: f"{count.flat[p]} distinct w-core inverses")]
    col.batch({"a": a, "w": w}, own)


def _chk_added_lemma(ring: FiniteStarRing, col: _Collector):
    n, mul = ring.size, ring.mul_arr
    a, w = np.indices((n, n), sparse=True)
    xs, a3, w3 = _all_solutions(ring, "wcore_solutions"), a[..., None], w[..., None]
    has, aw = xs >= 0, mul[a3, w3]
    per_x = [
        (has & (_prod(mul, aw, xs, a3) != a3), "derived equation awxa = a fails"),
        (has & (_prod(mul, xs, aw, xs) != xs), "derived equation xawx = x fails"),
        (has & ~ring.table("one23")[a3, mul[w3, xs]], "wx is not a {1,2,3}-inverse of a"),
    ]
    col.batch({"a": a, "w": w}, [], per_x, {"x": xs})


def _chk_characteristic(ring: FiniteStarRing, col: _Collector, dual=False):
    """Conditions (i)-(v) of the w-core characterization, or with dual those
    of the dual v-core one.  (ii) holds where a solution of E1-E3 satisfies
    E4-E5 (F1-F3, F4-F5), and (iii)-(v) where some x meeting the condition
    satisfies E4 (F4); equal candidate masks share one verdict."""
    n, mul, letter = ring.size, ring.mul_arr, "v" if dual else "w"
    e4, e5 = SYSTEMS["dual-v-core-full" if dual else "w-core-full"][3:]

    def holds(equation, a, w, x):
        return ring._holds(equation, {"a": a, letter: w, "x": x}, "x")

    a, w = np.indices((n, n), sparse=True)
    xs = _all_solutions(ring, "dual_vcore_solutions" if dual else "wcore_solutions")
    a3, w3, c1 = a[..., None], w[..., None], xs[..., 0] >= 0
    c2 = ((xs >= 0) & holds(e4, a3, w3, xs) & holds(e5, a3, w3, xs)).any(axis=2)
    cands = _candidates(ring, dual)
    # [a, x]: E4 a w (x a) = a, F4 (a x) v a = a
    p, q = (mul, a) if dual else (a, mul.T)
    verdicts = {c.tobytes(): c for c in cands}  # equal masks share one verdict
    verdicts = {k: _some(ring, c, p, q, a)[0] > 0 for k, c in verdicts.items()}
    what = "dual conditions" if dual else "conditions"
    conds = [verdicts[c.tobytes()] for c in cands]
    split = _split(what + " (i)-(v) split as ({}, {}, {}, {}, {})", c1, c2, *conds)
    col.batch({"a": a, letter: w}, [split])


def _chk_core_char(ring: FiniteStarRing, col: _Collector):
    n, inner, c1 = ring.size, ring.table("inner_inverses"), ring.table("core_inv") >= 0
    c2 = ring.first_solutions(SYSTEMS["core5"]) >= 0
    # (iii)-(v): some inner inverse meets the condition
    conds = [(inner & cand).any(axis=1) for cand in _candidates(ring)]
    split = _split("core conditions (i)-(v) split as ({}, {}, {}, {}, {})", c1, c2, *conds)
    col.batch({"a": np.arange(n)}, [split])


def _chk_ideal_form(ring: FiniteStarRing, col: _Collector):
    n, mul, star = ring.size, ring.mul_arr, ring.star_arr
    a, w = np.indices((n, n), sparse=True)
    aw, (first, count), core = mul, ring.table("wcore_solutions"), ring.table("core_inv")
    li, lhs = ring.table("left_ideal")[1], count > 0
    ideal = [li[mul[_prod(mul, *[star[aw]] * k), a], a] for k in (2, 3)]
    n2, n3 = (ideal[k - 2] & li[mul[_prod(mul, *[aw] * (k - 1)), a], a] for k in (2, 3))
    c3 = ring.table("right_ideal")[1][aw, a] & (core[aw] >= 0)
    wpa, t13 = ring.table("along")[0].T, ring.table("one_three_set")
    y = mul[wpa, w]  # w^{||a} w
    misses = lhs & (wpa >= 0) & t13.any(axis=1)[aw] & (_common(mul, t13)[aw, y] != first)
    t = _miss_t(ring, ring.one_three_set, aw, [y], first)
    own = [
        _split("(i)={}, (ii,n=2)={}, (ii,n=3)={}, (iii)={}", lhs, n2, n3, c3),
        (lhs & (first != core[aw]), "a_w differs from (aw)_core"),
        (lhs & (wpa < 0), "w-core exists but w^{||a} does not"),
        (misses, "w^{||a} w (aw)^{(1,3)} misses the value", {"a": a, "w": w, "t": t}),
    ]
    col.batch({"a": a, "w": w}, own)


def _chk_relate_to_mary(ring: FiniteStarRing, col: _Collector):
    n, mul = ring.size, ring.mul_arr
    a, w = np.indices((n, n), sparse=True)
    (first, count), wpa = ring.table("wcore_solutions"), ring.table("along")[0].T
    t13 = ring.table("one_three_set")
    ex, has13 = count > 0, t13.any(axis=1)[a]
    rhs, both = (wpa >= 0) & has13, ex & (wpa >= 0)
    misses = both & has13 & (_common(mul, t13)[a, wpa] != first)
    t = _miss_t(ring, ring.one_three_set, a, [wpa], first)
    own = [
        _split("existence {} vs (w^(||a)), a^(1,3) criterion {}", ex, rhs),
        (misses, "w^{||a} a^{(1,3)} misses the value", {"a": a, "w": w, "t": t}),
        (both & (mul[first, a] != wpa), "w^{||a} != a_w a"),
    ]
    col.batch({"a": a, "w": w}, own)


def _chk_relate_to_dual_mary(ring: FiniteStarRing, col: _Collector):
    n, mul = ring.size, ring.mul_arr
    a, v = np.indices((n, n), sparse=True)
    (first, count), vpa = ring.table("dual_vcore_solutions"), ring.table("along")[0].T
    t14, g = ring.table("one_four_set"), ring.table("group_inv")
    ex, has14 = count > 0, t14.any(axis=1)[a]
    rhs, both = (vpa >= 0) & has14, ex & (vpa >= 0)
    misses = both & has14 & (_common(mul.T, t14)[a, vpa] != first)
    g_va, g_av = g[mul[v, a]], g[mul[a, v]]
    lost = both & ((g_va < 0) | (g_av < 0))
    t0 = np.where(has14, t14.argmax(axis=1)[a], -1)  # the first {1,4}-inverse
    formulas = (_prod(mul, t0, a, g_va) != first) | (_prod(mul, t0, g_av, a) != first)
    t = _miss_t(ring, ring.one_four_set, a, [vpa], first, left=True)
    own = [
        _split("existence {} vs (v^(||a)), a^(1,4) criterion {}", ex, rhs),
        (misses, "a^{(1,4)} v^{||a} misses the value", {"a": a, "v": v, "t": t}),
        (lost, "va or av lost group invertibility"),
        (both & ~lost & (t0 >= 0) & formulas, "dual group formulas miss the value"),
    ]
    col.batch({"a": a, "v": v}, own)


def _chk_group_result(ring: FiniteStarRing, col: _Collector):
    n, mul = ring.size, ring.mul_arr
    a, w = np.indices((n, n), sparse=True)
    aw, wa, wpa, g = mul, mul.T, ring.table("along")[0].T, ring.table("group_inv")
    ri, li = ring.table("right_ideal")[0], ring.table("left_ideal")[0]
    ex, left, right = wpa >= 0, mul[a, g[wa]], mul[g[aw], a]
    c2, c3 = (ri[aw] == ri[a]) & (g[aw] >= 0), (li[wa] == li[a]) & (g[wa] >= 0)
    disagree = ex & c2 & c3 & ((wpa != left) | (left != right))
    own = [
        _split("(i)={}, (ii)={}, (iii)={}", ex, c2, c3),
        (disagree, "a(wa)^# / (aw)^# a disagree with w^{||a}"),
    ]
    col.batch({"a": a, "w": w}, own)


def _chk_extended_repre(ring: FiniteStarRing, col: _Collector):
    n, mul = ring.size, ring.mul_arr
    a, w = np.indices((n, n), sparse=True)
    (first, count), g = ring.table("wcore_solutions"), ring.table("group_inv")
    t13 = ring.table("one_three_set")
    g_wa, g_aw = g[mul[w, a]], g[mul[a, w]]
    lost = (count > 0) & ((g_wa < 0) | (g_aw < 0))
    common, y1, y2 = _common(mul, t13), mul[a, g_wa], mul[g_aw, a]
    misses = (count > 0) & ~lost & t13.any(axis=1)[a]
    misses &= (common[a, y1] != first) | (common[a, y2] != first)
    t = _miss_t(ring, ring.one_three_set, a, [y1, y2], first)
    own = [
        (lost, "wa or aw lost group invertibility"),
        (misses, "extended representations miss the value", {"a": a, "w": w, "t": t}),
    ]
    col.batch({"a": a, "w": w}, own)


def _chk_core_another(ring: FiniteStarRing, col: _Collector):
    n, mul = ring.size, ring.mul_arr
    a, core, g = np.arange(n), ring.table("core_inv"), ring.table("group_inv")
    acore, count = (x[a, a] for x in ring.table("wcore_solutions"))
    c4 = ring.first_solutions(SYSTEMS["a-core"]) >= 0
    c2 = (g >= 0) & ring.table("one_three_set").any(axis=1)
    both = (core >= 0) & (count > 0)
    own = [
        _split("(i)-(iv) split as ({}, {}, {}, {})", core >= 0, c2, count > 0, c4),
        (both & (mul[a, acore] != core), "a_core != a a_a"),
        (both & (mul[g, core] != acore), "a_a != a^# a_core"),
    ]
    col.batch({"a": a}, own)


def _chk_core_another_1(ring: FiniteStarRing, col: _Collector):
    n, mul, a = ring.size, ring.mul_arr, np.arange(ring.size)
    # instances (a, k) for k = 1, 2, 3: rows a, columns k - 1; powers[a, k] = a^k
    powers = np.stack([np.full(n, ring.one), a, mul[a, a], mul[mul[a, a], a]], axis=1)
    an, prev, a = powers[:, 1:], powers[:, :3], a[:, None]
    x0 = np.stack([ring.first_solutions(core_ep_system(k)) for k in (1, 2, 3)], axis=1)
    (first, count), core = ring.table("wcore_solutions"), ring.table("core_inv")[an]
    # the minimal index from the pseudo-core search, to test where it stops
    pcs = [ring.pseudo_core(x) or (-1, 0) for x in range(n)]
    pc, index = (np.array(v)[:, None] for v in zip(*pcs))
    c1, c2, c3 = x0 >= 0, count[an, a] > 0, core >= 0
    minimal, drifted = (index > 0) & (index <= np.arange(1, 4)), c1 & (x0 != pc)
    kept = c1 & ~drifted  # and each value formula only where its inverse exists

    def detail(text, *conds):
        return lambda p: f"n={p % 3 + 1}: " + text.format(*(c.flat[p] for c in conds))

    own = [
        (~((c1 == c2) & (c2 == c3)), detail("(i)={}, (ii)={}, (iii)={}", c1, c2, c3)),
        (c1 != minimal, detail("solvability vs minimal index inconsistent")),
        (drifted, detail("pseudo-core value drifted")),
        (kept & c2 & (mul[an, first[an, a]] != x0), detail("a^D != a^n (a^n)_a")),
        (kept & c3 & (mul[prev, core] != x0), detail("a^D != a^(n-1) (a^n)_core")),
    ]
    col.batch({"a": np.broadcast_to(a, an.shape)}, own)


def _chk_star_core_another(ring: FiniteStarRing, col: _Collector):
    n, mul, star = ring.size, ring.mul_arr, ring.star_arr
    a, mp = np.arange(n), ring.table("mp_inv")
    (x, cx), (y, cy) = ((v[a, star] for v in ring.table(k)) for k in _PAIRS)
    every, smp = (cx > 0) & (mp >= 0) & (cy > 0), star[mp]
    star_miss = every & ((star[mul[x, a]] != mp) | (star[mul[a, y]] != mp))
    value_miss = every & ((x != mul[smp, mp]) | (y != mul[mp, smp]))
    own = [
        _split("(i)-(iii) split as ({}, {}, {})", cx > 0, mp >= 0, cy > 0),
        (star_miss, "a^dag != (a_{a*} a)* or (a a_{a*,dual})*"),
        (value_miss, "a_{a*} != (a^+)* a^+ or dual != a^+ (a^+)*"),
    ]
    col.batch({"a": a}, own)


def _chk_wv_core_char(ring: FiniteStarRing, col: _Collector):
    a, w, v = np.indices((ring.size,) * 3, sparse=True)
    ew, ev = (ring.table(k)[1] > 0 for k in _PAIRS)
    in_a, mp = ring.table("along")[0].T >= 0, ring.table("mp_inv") >= 0  # [a, w]: w^{||a}
    joint = ew[:, :, None] & ev[:, None, :]
    crit = in_a[:, :, None] & in_a[:, None, :] & mp[:, None, None]
    col.batch({"a": a, "w": w, "v": v}, [_split("joint existence {} vs criterion {}", joint, crit)])


def _chk_star_duality(ring: FiniteStarRing, col: _Collector):
    n, star = ring.size, ring.star_arr
    a, w = np.indices((n, n), sparse=True)
    sa, sw = star[a], star[w]
    (first, count), (dual_first, dual_count) = map(ring.table, _PAIRS)
    ex, exd = count > 0, dual_count[sa, sw] > 0
    own = [
        _split("existence {} does not transfer across *", ex, exd),
        (ex & exd & (star[first] != dual_first[sa, sw]), "(a_w)* != (a*)_{w*,dual}"),
    ]
    col.batch({"a": a, "w": w}, own)


def _chk_wcore_of_wcore(ring: FiniteStarRing, col: _Collector):
    n, mul = ring.size, ring.mul_arr
    (a, w), (first, count) = np.indices((n, n), sparse=True), ring.table("wcore_solutions")
    ex, core = count > 0, ring.table("core_inv")[first]
    own = [
        (ex & (core < 0), "a_w is not core invertible"),
        (ex & (core >= 0) & (core != _prod(mul, mul, mul, first)), "(a_w)_core != (aw)^2 a_w"),
    ]
    col.batch({"a": a, "w": w}, own)


def _chk_wv_mary(ring: FiniteStarRing, col: _Collector):
    n, mul, star = ring.size, ring.mul_arr, ring.star_arr
    # instances: every w for each a with an MP inverse, the theorem's hypothesis
    sel = np.flatnonzero(ring.table("mp_inv") >= 0)
    a, w, along = sel[:, None], np.arange(n), ring.table("along")[0]
    (first, count), (dual_first, dual_count) = ((x[sel] for x in ring.table(k)) for k in _PAIRS)
    al, ald = along[mul[a, w], mul[a, star[a]]], along[mul[w, a], mul[star[a], a]]
    ex, exd, has, hasd = count > 0, dual_count > 0, al >= 0, ald >= 0
    dual = {"a": a, "v": w}  # the dual halves name their second letter v
    own = [
        _split("w-core {} vs (aw)^(||aa*) {}", ex, has),
        (ex & has & (first != al), "w-core value differs from (aw)^{||aa*}"),
        (*_split("dual {} vs (va)^(||a*a) {}", exd, hasd), dual),
        (exd & hasd & (dual_first != ald), "dual value differs from (va)^{||a*a}", dual),
    ]
    col.batch({"a": a, "w": w}, own)


def _chk_relations_bc(ring: FiniteStarRing, col: _Collector):
    n, mul = ring.size, ring.mul_arr
    # the outer inverses y of aw with yR = aR and Ry = Ra*, and those of va
    # with yR = a*R and Ry = Ra: the (a, a*)- and (a*, a)-inverses, where
    # (y a) w y = y and y v (a y) = y, p w q = r with p, q, r [a, y] arrays
    y = np.arange(n)
    cands, dual_cands = _candidates(ring)[0], _candidates(ring, dual=True)[0]
    bc, bc_first = _some(ring, cands, mul.T, y, y)
    bcd, bcd_first = _some(ring, dual_cands, y, mul, y)
    a, w = np.indices((n, n), sparse=True)
    (first, count), (dual_first, dual_count) = map(ring.table, _PAIRS)
    ex, exd, has, hasd = count > 0, dual_count > 0, bc > 0, bcd > 0
    differs = exd & hasd & ((bcd != 1) | (bcd_first != dual_first))
    own = [
        _split("w-core {} vs (a,a*)-invertibility of aw {}", ex, has),
        (ex & has & ((bc != 1) | (bc_first != first)), "(a,a*)-inverse of aw differs from a_w"),
        (*_split("dual {} vs (a*,a)-invertibility of va {}", exd, hasd), {"a": a, "v": w}),
        (differs, "(a*,a)-inverse of va differs from a_{v,dual}", {"a": a, "v": w}),
    ]
    col.batch({"a": a, "w": w}, own)


def _chk_green_drazin(ring: FiniteStarRing, col: _Collector):
    kinds = ("right_ideal", "left_ideal", "right_ann", "left_ann")
    (_, r_sets), (_, l_sets), (ra, ra_sets), (la, la_sets) = map(ring.table, kinds)
    a, b = np.indices((ring.size,) * 2, sparse=True)
    # [a, b]: a in bR, a in Rb, ^0 b in ^0 a, b^0 in a^0
    leq_r, leq_l = r_sets.T, l_sets.T
    la_in, ra_in = _subsets(la, la_sets)[la, la[:, None]], _subsets(ra, ra_sets)[ra, ra[:, None]]
    own = [
        (leq_r & ~la_in, "a <=_R b but ^0 b is not contained in ^0 a"),
        (leq_l & ~ra_in, "a <=_L b but b^0 is not contained in a^0"),
        (leq_r & r_sets & (la[:, None] != la), "a R b but left annihilators differ"),
        (leq_l & l_sets & (ra[:, None] != ra), "a L b but right annihilators differ"),
    ]
    col.batch({"a": a, "b": b}, own)


# ---------------------------------------------------------------------------
# ring-theoretic unit criteria


def _prod(mul, *factors):
    """The left-to-right product of elements and broadcast element arrays."""
    acc = factors[0]
    for f in factors[1:]:
        acc = mul[acc, f]
    return acc


def _words(ring, words, **letters):
    """Each word with its product over a, a* and the letters (elements or
    element arrays) at every a, on a first axis before the letters' axes."""
    a = np.arange(ring.size).reshape(-1, *[1] * max(map(np.ndim, letters.values()), default=0))
    return [(word, ring._eval(word, {"a": a, **letters}, None)) for word in words]


def _ends(ring, a, inners):
    """1 - aa⁻ and 1 - a⁻a for inner inverses a⁻ of a (broadcast together)."""
    mul, one_minus = ring.mul_arr, ring.add_arr[ring.one, ring.neg_arr]
    return one_minus[mul[a, inners]], one_minus[mul[inners, a]]


def _inverses(ring, a, ends, words):
    """The inverse (-1: none) of the unit x + e of each word of `_words`, x
    its product at a, broadcast with the ends of a: e is the first, 1 - aa⁻,
    when the word starts with a, so x lies in aR, else the second, 1 - a⁻a."""
    inv, add = ring.table("inv_unit"), ring.add_arr
    return [inv[add[x[a], ends[word[0] != "a"]]] for word, x in words]


def _side(ring, want, words, gate=True, value=None, expect=None):
    """A side of `_by_complements`: where each word's unit x + e, read as
    gate[a] and the unit, disagrees with want[a]; given value, also where
    want[a] holds and value(a, i), i the last unit's inverse, misses expect[a]."""

    def masks_at(a, e):  # the words of a side all read its e
        e, j, g = e.reshape(-1, *[1] * (want.ndim - 1)), want[a], gate if gate is True else gate[a]
        invs = _inverses(ring, a, (e, e), words)
        last, misses = invs[-1], [] if value is None else [value(a[:, None], invs[-1]) != expect[a]]
        return [(g & (i >= 0)) != j for i in invs] + [j & (last >= 0) & m for m in misses]

    return masks_at


def _by_complements(ring, col, sides, own, counts):
    """The frames of a unit criterion that hold a failure, checked per key.

    Each side maps keys (a, e) on a first axis, e 1 - aa⁻ on side "L", 1 - a⁻a
    on "R", both on "LR", to failure masks [key, *grid]; own[a, *grid] masks a
    frame's own failures, counts[a] its instances (0: no frame).  Blocks of
    about _BLOCK entries flag frames; the rest are counted at once.  Yields a
    flagged frame, its inner inverses and its masks gathered through each
    a⁻'s key, a⁻ on a last axis, for the checker to hand col.batch."""
    n, (a, inner) = ring.size, np.nonzero(ring.table("inner_inverses"))  # a-major
    ends, flagged, keyed = dict(zip("LR", _ends(ring, a, inner))), own.reshape(n, -1).any(1), []
    for side, masks_at in sides.items():
        reps, at = _classes(keys := reduce(lambda c, s: c * n + ends[s], side, a))
        digits = [keys[reps] // n**i % n for i in range(len(side), -1, -1)]  # a, then each e
        for lo in range(0, reps.size, step := max(1, _BLOCK // own[0].size)):
            masks = masks_at(*(d[lo : lo + step] for d in digits))
            hit = np.logical_or.reduce([m.reshape(len(m), -1).any(axis=1) for m in masks])
            flagged[digits[0][lo : lo + step][hit]] = True
        keyed.append((masks_at, digits, at))
    base, before, starts = col.checked, np.cumsum(counts) - counts, np.searchsorted(a, range(n + 1))
    for x in np.flatnonzero(flagged & (counts > 0)).tolist():
        pairs, masks = slice(starts[x], starts[x + 1]), []
        for f, digits, at in keyed:  # each side's masks at the frame's keys
            lo, hi = np.searchsorted(digits[0], [x, x + 1])
            masks += [np.moveaxis(m[at[pairs] - lo], 0, -1) for m in f(*(d[lo:hi] for d in digits))]
        col.checked = base + int(before[x])
        yield x, inner[pairs], masks
    col.checked = base + int(counts.sum())


def _batch_joint(col, grid, own, joint, inners, bads, text, *misses):
    """Batch a frame of a joint unit criterion: bads, where each unit
    disagrees with joint, named by text.format(the units, joint); each
    (miss, detail) fails only where no unit disagrees."""
    bad = np.logical_or.reduce(bads)
    oks = np.stack([joint[..., None] ^ m for m in bads]).reshape(len(bads), joint.size, -1)
    per_inner = [(bad, lambda p, i: text.format(tuple(oks[:, p, i].tolist()), joint.flat[p]))]
    col.batch(grid, own, per_inner + [(~bad & m, d) for m, d in misses], {"a_inner": inners})


# the units of the single-w criteria and of the (v, w) criteria
_W_UNITS = [w.split() for w in ("a w a a*", "a a* a w", "w a a* a", "a* a w a")]
_VW_UNITS = [w.split() for w in ("a w a v a a*", "a v a w a a*", "w a v a a* a", "v a w a a* a")]


def _chk_idempotent(ring: FiniteStarRing, col: _Collector):
    n, mul, add = ring.size, ring.mul_arr, ring.add_arr
    inv, (first, count) = ring.table("inv_unit"), ring.table("wcore_solutions")
    a, w = np.indices((n, n), sparse=True)
    # [a, w]: the projections p with pa = 0 and p + aw a unit, and the first
    found, p0 = np.zeros((n, n), dtype=np.int32), np.zeros((n, n), dtype=np.int32)
    for p in reversed(ring.projections()):
        ok = (mul[p] == ring.zero)[:, None] & (inv[add[p, mul]] >= 0)
        found += ok
        p0[ok] = p
    ex, crit = count > 0, found > 0
    need = np.flatnonzero(ex & crit)
    pn, miss = p0.flat[need], np.zeros(n * n, dtype=bool)
    one_minus = add[ring.one, ring.neg_arr]  # 1 - x
    miss[need] = mul[inv[add[pn, mul.flat[need]]], one_minus[pn]] != first.flat[need]
    own = [
        _split("existence {} vs projection criterion {}", ex, crit),
        (ex & crit & (found != 1), lambda pos: f"projection not unique ({found.flat[pos]} found)"),
        (miss, "u^{-1}(1-p) misses the w-core inverse"),
    ]
    col.batch({"a": a, "w": w}, own)


def _chk_jacobson(ring: FiniteStarRing, col: _Collector):
    n, mul, add = ring.size, ring.mul_arr, ring.add_arr
    inv, one_minus = ring.table("inv_unit"), add[ring.one, ring.neg_arr]  # 1 - x
    alpha, beta = one_minus[mul], one_minus[mul.T]  # [a, b]: 1 - ab, 1 - ba
    ua, ub = inv[alpha] >= 0, inv[beta] >= 0
    need = np.flatnonzero(ua & ub)
    a, b = np.divmod(need, n)
    expected = add[ring.one, _prod(mul, b, inv[alpha.flat[need]], a)]
    miss = np.zeros(n * n, dtype=bool)
    miss[need] = inv[beta.flat[need]] != expected
    own = [(ua & ~ub, "1-ab invertible but 1-ba is not"), (miss, "beta^{-1} != 1 + b alpha^{-1} a")]
    col.batch({"a": np.arange(n)[:, None], "b": np.arange(n)}, own)


def _chk_mary_inverse_unit(ring: FiniteStarRing, col: _Collector):
    n, mul, ex = ring.size, ring.mul_arr, ring.table("along")[0].T  # [d, a]: a^{||d}
    # u = da + 1 - dd⁻ gives u⁻¹d, v = ad + 1 - d⁻d gives dv⁻¹
    da, ad = _words(ring, (("a", "x"), ("x", "a")), x=np.arange(n))
    left = _side(ring, ex >= 0, (da,), value=lambda d, i: mul[i, d], expect=ex)
    right = _side(ring, ex >= 0, (ad,), value=lambda d, i: mul[d, i], expect=ex)
    no_own, counts = np.broadcast_to(False, (n, n)), n * ring.table("inner_inverses").sum(axis=1)
    # the frame's letter is d; instances (a, d⁻): rows a, columns d⁻
    frames = _by_complements(ring, col, {"L": left, "R": right}, no_own, counts)
    for d, inners, (bad_u, miss_u, bad_v, miss_v) in frames:
        bad, text = bad_u | bad_v, "u^{-1} d / d v^{-1} miss a^{||d}"
        own = [(bad, "unit criteria disagree with existence"), (~bad & (miss_u | miss_v), text)]
        col.batch({"a": np.arange(n)[:, None], "d": d, "d_inner": inners}, own)


def _chk_classical_mp_char(ring: FiniteStarRing, col: _Collector):
    mul, star = ring.mul_arr, ring.star_arr
    a, inner = np.nonzero(ring.table("inner_inverses"))  # instances (a, a⁻), a-major
    iu, iv = _inverses(ring, a, _ends(ring, a, inner), _words(ring, (("a", "a*"), ("a*", "a"))))
    mp = ring.table("mp_inv")[a]
    ex = mp >= 0
    bad = (ex != (iu >= 0)) | (ex != (iv >= 0))
    need = np.flatnonzero(ex & ~bad)
    miss_u, miss_v = np.zeros((2, a.size), dtype=bool)
    miss_u[need] = star[mul[iu[need], a[need]]] != mp[need]
    miss_v[need] = star[mul[a[need], iv[need]]] != mp[need]
    own = [
        (bad, "MP unit criteria disagree with existence"),
        (miss_u, "(u^{-1} a)* misses a^dag"),
        (miss_v, "(a v^{-1})* misses a^dag"),
    ]
    col.batch({"a": a, "a_inner": inner}, own)


def _chk_mp_ideal_char(ring: FiniteStarRing, col: _Collector):
    n, mul, star = ring.size, ring.mul_arr, ring.star_arr
    a, x = np.indices((n, n), sparse=True)
    e, mp = _prod(mul, a, star[a], a), ring.table("mp_inv")[:, None]
    c1, c2, c3 = mp >= 0, ring.table("right_ideal")[1][e, a], ring.table("left_ideal")[1][e, a]
    # the first x with ex = a and (ax)* != a^dag, or with xe = a and (xa)* != a^dag
    right = (mul[e, x] == a) & (star[mul[a, x]] != mp)
    miss = right | ((mul[x, e] == a) & (star[mul[x, a]] != mp))
    first, split = miss.argmax(axis=1)[:, None], _split("(i)={}, (ii)={}, (iii)={}", c1, c2, c3)
    at_first, named = right[a, first].ravel(), {"a": a, "x": first}
    found = ~split[0] & c1.ravel() & miss.any(axis=1)
    own = [
        split,
        (found & at_first, "(ax)* misses a^dag", named),
        (found & ~at_first, "(ya)* misses a^dag", named),
    ]
    col.batch({"a": a}, own)


def _chk_vw_intersect(ring: FiniteStarRing, col: _Collector):
    n, mul, star = ring.size, ring.mul_arr, ring.star_arr
    mp, in_a = ring.table("mp_inv") >= 0, ring.table("along")[0].T >= 0  # [a, x]: x^{||a}
    (wcore, _), (dual, _) = map(ring.table, _PAIRS)
    v, w = np.indices((n, n), sparse=True)
    # [a, v, w]; the units u, r with 1 - aa⁻, s, t with 1 - a⁻a
    vpa, c2 = in_a[:, :, None], (in_a & mp[:, None])[:, None, :]
    joint = (dual >= 0)[:, :, None] & (wcore >= 0)[:, None, :]
    u, r, s, t = _words(ring, _VW_UNITS, w=w, v=v)

    def formulas(k, e_l, e_r):
        iu, i_s, it = _inverses(ring, k, (e_l[:, None, None], e_r[:, None, None]), (u, s, t))
        q, pv, pw = at = np.nonzero(vpa[k] & joint[k] & (iu >= 0) & ((i_s >= 0) | (it >= 0)))
        misses, a, ps, pt = np.zeros((2, *iu.shape), dtype=bool), k[q], i_s[at], it[at]
        mid = star[_prod(mul, iu[at], a, pw, a, pv, a)]  # only where a formula can miss
        misses[0][at] = (ps >= 0) & (_prod(mul, a, pv, a, star[a], a, ps, mid) != wcore[a, pw])
        misses[1][at] = (pt >= 0) & (_prod(mul, mid, a, pw, a, star[a], a, pt) != dual[a, pv])
        return list(misses)

    units, fails = partial(_side, ring, vpa & joint, gate=vpa), ~vpa & joint | vpa & (joint != c2)
    sides = {"L": units((u, r)), "R": units((s, t)), "LR": formulas}
    # instances (v, w): rows v, columns w
    for a, inners, masks in _by_complements(ring, col, sides, fails, np.full(n, n * n)):
        j, c = joint[a], c2[a, 0]
        own = [(~vpa[a] & j, "joint existence without v in R^{||a}")]
        own += [(vpa[a] & (j != c), lambda p: f"(i)={j.flat[p]} vs (ii)={c[p % n]}")]
        misses = zip(masks[4:], ("joint formula misses a_w", "joint formula misses a_{v,dual}"))
        text = "units {} vs joint existence {}"
        _batch_joint(col, {"a": a, "w": w, "v": v}, own, j, inners, masks[:4], text, *misses)


def _chk_joint_w_units(ring: FiniteStarRing, col: _Collector):
    n, mul, star = ring.size, ring.mul_arr, ring.star_arr
    mp, in_a = ring.table("mp_inv") >= 0, ring.table("along")[0].T >= 0  # [a, x]: x^{||a}
    (wcore, _), (dual, _) = map(ring.table, _PAIRS)
    w, v = np.indices((n, n), sparse=True)
    # [a, w, v]; the units [a, w, 1] u, r with 1 - aa⁻, s, t with 1 - a⁻a;
    # (iii)-(vi) read each as v in R^{||a} and the unit
    joint, vpa = (wcore >= 0)[:, :, None] & (dual >= 0)[:, None, :], in_a[:, None, :]
    c2 = in_a[:, :, None] & vpa & mp[:, None, None]
    u, r, s, t = _words(ring, _W_UNITS, w=w)

    def formula(k, e_l, e_r):
        iu, i_s = _inverses(ring, k, (e_l[:, None, None], e_r[:, None, None]), (u, s))
        a, sa = k[:, None, None], star[k][:, None, None]
        miss = _prod(mul, a, sa, a, i_s, star[_prod(mul, iu, a, w, a)]) != wcore[k][:, :, None]
        return [joint[k] & (iu >= 0) & (i_s >= 0) & miss]

    units, regular = partial(_side, ring, joint, gate=vpa), ring.table("inner_inverses").any(1)
    sides = {"L": units((u, r)), "R": units((s, t)), "LR": formula}
    # instances (w, v): rows w, columns v
    for a, inners, masks in _by_complements(ring, col, sides, joint != c2, n * n * regular):
        own, text = [_split("(i)={} vs (ii)={}", joint[a], c2[a])], "(iii)-(vi)={} vs (i)={}"
        miss = (masks[4], "single-w unit formula misses a_w")
        _batch_joint(col, {"a": a, "w": w, "v": v}, own, joint[a], inners, masks[:4], text, miss)


def _chk_vw_intersect_dedekind(ring: FiniteStarRing, col: _Collector):
    n, mul = ring.size, ring.mul_arr
    mp, in_a = ring.table("mp_inv") >= 0, ring.table("along")[0].T >= 0  # [a, x]: x^{||a}
    (wcore, _), (dual, _) = map(ring.table, _PAIRS)
    (w, v), a = np.indices((n, n), sparse=True), np.arange(n)[:, None, None]
    # [a, w, v]; the units u, r with 1 - aa⁻, s, t with 1 - a⁻a
    joint = (wcore >= 0)[:, :, None] & (dual >= 0)[:, None, :]
    c2, c3 = (in_a[a, _prod(mul, x, a, y)] & mp[a] for x, y in ((w, v), (v, w)))
    u, r, s, t = _words(ring, _VW_UNITS, w=w, v=v)
    sides = {"L": _side(ring, joint, (u, r)), "R": _side(ring, joint, (s, t))}
    frames = _by_complements(ring, col, sides, (joint != c2) | (c2 != c3), np.full(n, n * n))
    # instances (w, v): rows w, columns v
    for a, inners, bads in frames:
        own = [_split("(i)={}, (ii)={}, (iii)={}", joint[a], c2[a], c3[a])]
        text = "Dedekind units {} vs joint {}"
        _batch_joint(col, {"a": a, "w": w, "v": v}, own, joint[a], inners, bads, text)


def _chk_along_product(ring: FiniteStarRing, col: _Collector):
    n, mul = ring.size, ring.mul_arr
    a, w, v = np.indices((n, n, n), sparse=True)
    in_a = ring.table("along")[0] >= 0  # [x, d]: x^{||d}
    both, prod = in_a[w, a] & in_a[v, a], in_a[_prod(mul, w, a, v), a]
    split = _split("w,v in R^(||a) = {} but wav criterion = {}", both, prod)
    col.batch({"a": a, "w": w, "v": v}, [split])


def _chk_intersect(ring: FiniteStarRing, col: _Collector):
    n, mul, star = ring.size, ring.mul_arr, ring.star_arr
    mp, along = ring.table("mp_inv") >= 0, ring.table("along")[0] >= 0
    (wcore, _), (dual, _) = map(ring.table, _PAIRS)
    ew, a = wcore >= 0, np.arange(n)
    # [a, w]; the units u, t with 1 - aa⁻, s, r with 1 - a⁻a
    joint, c2, c3 = ew & (dual >= 0), along.T & mp[:, None], ew & (dual[a, star] >= 0)[:, None]
    u, t, s, r = _words(ring, _W_UNITS, w=a)
    sides = {
        "L": _side(ring, joint, (u, t), value=lambda a, i: _prod(mul, i, a, star[a]), expect=wcore),
        "R": _side(ring, joint, (r, s), value=lambda a, i: _prod(mul, star[a], a, i), expect=dual),
    }
    split, counts = ~((joint == c2) & (c2 == c3)), n * ring.table("inner_inverses").sum(axis=1)
    # instances (w, a⁻): rows w, columns a⁻
    frames = _by_complements(ring, col, sides, split, counts)
    for a, inners, (bad_u, bad_t, miss_t, bad_r, bad_s, miss_s) in frames:
        j, bad = joint[a][:, None], split[a][:, None] | bad_u | bad_r | bad_s | bad_t
        oks = (j ^ m for m in (bad_u, bad_r, bad_s, bad_t))
        template = "(i)={}, (ii)={}, (iii)={}, units=({}, {}, {}, {})"
        _, detail = _split(template, j, c2[a][:, None], c3[a][:, None], *oks)
        own = [
            (bad, detail),
            (~bad & miss_t, "t^{-1} a a* misses a_w"),
            (~bad & miss_s, "a* a s^{-1} misses a_{w,dual}"),
        ]
        col.batch({"a": a, "w": np.arange(n)[:, None], "a_inner": inners}, own)


def _chk_core_dual_core_units(ring: FiniteStarRing, col: _Collector):
    mul, words = ring.mul_arr, _words(ring, _W_UNITS, w=ring.one)
    a, inner = np.nonzero(ring.table("inner_inverses"))  # instances (a, a⁻), a-major
    # the core inverse is the w-core inverse at w = 1
    (iu, it, i_s, iv), sa = _inverses(ring, a, _ends(ring, a, inner), words), ring.star_arr[a]
    core, dual = ring.table("core_inv")[a], ring.table("dual_core_inv")[a]
    joint = (core >= 0) & (dual >= 0)
    c2 = (ring.table("group_inv")[a] >= 0) & (ring.table("mp_inv")[a] >= 0)
    oks = np.stack([iu, iv, i_s, it]) >= 0
    bad = (joint != c2) | (oks != joint).any(axis=0)
    need = np.flatnonzero(joint & ~bad)
    miss_t, miss_s = np.zeros((2, a.size), dtype=bool)
    miss_t[need] = _prod(mul, it[need], a[need], sa[need]) != core[need]
    miss_s[need] = _prod(mul, sa[need], a[need], i_s[need]) != dual[need]
    own = [
        (bad, lambda p: f"(i)={joint[p]}, (ii)={c2[p]}, units={tuple(oks[:, p].tolist())}"),
        (miss_t, "t^{-1} a a* misses a_core"),
        (miss_s, "a* a s^{-1} misses a_dual_core"),
    ]
    col.batch({"a": a, "a_inner": inner}, own)


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

    The n = 1 variant of the ideal-form criterion is not a theorem: it fails
    in 2 x 2 matrix rings already (a = e11, w = e12 on mat:2:gf2), so hits
    are reported for inspection and never treated as failures.
    """
    mul, star = ring.mul_arr, ring.star_arr
    a, w = np.indices((ring.size,) * 2, sparse=True)
    hits = ring.table("left_ideal")[1][mul[star[mul[a, w]], a], a]
    hits &= ring.table("wcore_solutions")[1] == 0
    return [tuple(pair) for pair in np.argwhere(hits).tolist()]


def verify_theorem(ring: FiniteStarRing, theorem_id: str) -> TheoremReport:
    """Exhaustively check one catalog theorem on the given ring."""
    if theorem_id not in CATALOG:
        raise UnknownTheorem(f"{theorem_id!r}; known: {', '.join(sorted(CATALOG))}")
    checker, quantified = CATALOG[theorem_id]
    if quantified >= 3 and ring.size > TRIPLE_SIZE_LIMIT:
        note = f"triple-quantified check skipped for |ring| > {TRIPLE_SIZE_LIMIT}"
        return TheoremReport(theorem_id, ring.spec, 0, skipped=True, note=note)
    col = _Collector(ring)
    start = time.perf_counter()
    with suppress(_Full):
        checker(ring, col)
    elapsed = time.perf_counter() - start
    return TheoremReport(theorem_id, ring.spec, col.checked, col.ces, elapsed)


def verify_all(ring: FiniteStarRing, theorem_ids=None) -> list[TheoremReport]:
    ids = list(CATALOG) if theorem_ids is None else list(theorem_ids)
    return [verify_theorem(ring, tid) for tid in ids]
