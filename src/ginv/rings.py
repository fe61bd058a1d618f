"""Enumerable finite *-rings with full operation tables.

Supported specs: "zmod:n" (identity involution), "mat:k:gfp" (k x k matrices
over GF(p), transpose involution), and "prod(spec,spec)" (componentwise).
Elements are indices into the tables; ring axioms and involution laws are
verified at construction.  Up to 256 elements, the n^2 |G| triples whose
middle g is 0 or an additive generator (`_generators`) prove the triple
laws: (x+g)+z = x+(g+z) makes + associative (Light's test; Clifford and
Preston I, 1.2), x(g+z) = xg+xz and (x+g)z = xz+gz make x distributive,
then (xg)z = x(gz), additive in g, makes x associative.  If one fails, all
n^3 triples are scanned for the first failure.  Beyond 256 elements a fixed
deterministic sample is checked.

Every inverse the oracle looks up (`group_inv`, `inv_unit`,
`wcore_solutions`, `along`, ...) comes from one scanner over the equations
of `equations.SYSTEMS` (for units, ax = 1 = xa): definitions only, never a
theorem it checks.  The unit criteria read units as `table("inv_unit")`.

The scanner's grid has a row per value of the given letters and the
unknown x along each row.  On a grid larger than one block, when an
equation reads x k = r or k x = r, x once, unstarred, at one end of one
side and not on the other (E2, F2, A1, C4, U1, ...), a row's candidates are
read from a fibre index: for each k, the elements sorted stably by their
product with k, so that the x with x k = r are one ascending slice.
Otherwise they are the x at which the equation with the fewest grid-sized
products holds; a known run times the bare unknown is whole rows of the
multiplication table (or of its transpose).  A block holds at most `_BLOCK`
candidates or grid points; every further equation, cheapest first, is
evaluated only at the candidates still standing, narrowing them in turn.

Where fibres are read, each block of rows is grouped first.  At a grid
point, every word's value depends on the row only through the values of its
maximal runs of given letters (aw, awa, a and w*a* for E1-E3), and the
fibre's k and r are among them.  So rows that agree on every run have the
same solutions: one row per group is scanned, and its solutions are copied
to the others.

A *-automorphism φ maps solutions to solutions: x solves a system at (a, w)
exactly when φx does at (φa, φw).  `_automorphisms` finds φ(a) = u a u⁻¹ for
the units u with c = u*u central: u* = c u⁻¹ and (u⁻¹)* = u c⁻¹, so φ(a)* =
u c⁻¹ a* c u⁻¹ = u a* u⁻¹ = φ(a*).  A whole-ring grid larger than one block
scans only the rows whose first letter is its orbit's least element.  Each
a = g(rep) reads row (a, w) as g applied to row (rep, g⁻¹w): one image per
row, not the union of every map's, sorted once.  On `mat:3:gf2` (6 maps, 104
orbits) the w-core scan reads 20,649 of its 262,144 rows.

Every scan is kept once, as the ascending flat indices of its survivors, in
one memo keyed by system, unknown, given letters and the fixed values of all
but the last letter, or None for the whole ring: the named lookups' scans
(`_SCANS`), and `solve_system`'s when that exists, has one letter or fits in
one block.  Scalar lookups read a record's rows, and `FiniteStarRing.table`
reads it as arrays: the value per element, -1 for none; set membership; first
solution and solution count per pair; and for the ideals and annihilators,
membership and one id per distinct ideal.
"""

from __future__ import annotations

import functools
import itertools
import math
import random

import numpy as np

from .domains import _is_prime
from .equations import SYSTEMS, core_ep_system
from .errors import PreconditionFailed, TooLarge

DEFAULT_RING_CAP = 6561
_FULL_AXIOM_CHECK_LIMIT = 256
_AXIOM_SAMPLES = 20000
# scanner grid points or candidates, table entries built and axiom-check grid
# points (or sampled triples) per numpy block: bounds the memory of each
_BLOCK = 1 << 16

# the inverse x of a unit a: ax = 1 = xa (the empty word is 1)
_UNIT = (("U1", ("a", "x"), ()), ("U2", ("x", "a"), ()))

# whole-ring scans: name -> (system, its given letters); the unknown is x
_SCANS = {
    **{
        k: (SYSTEMS[k], ("a",))
        for k in ("one", "one3", "one4", "one23", "mp", "group", "core", "dual-core")
    },
    "unit": (_UNIT, ("a",)),
    "w-core": (SYSTEMS["w-core"], ("a", "w")),
    "dual-v-core": (SYSTEMS["dual-v-core"], ("a", "v")),
    "along": (SYSTEMS["along"], ("d", "a")),
}

# FiniteStarRing.table: named lookup -> (shape, the scan or ideal it reads)
_TABLES = {
    **{f"{k}_inv": ("element", k.replace("_", "-")) for k in ("group", "core", "mp", "dual_core")},
    "inv_unit": ("element", "unit"),
    "inner_inverses": ("set", "one"),
    "one_three_set": ("set", "one3"),
    "one_four_set": ("set", "one4"),
    "one23": ("set", "one23"),
    "wcore_solutions": ("pair", "w-core"),
    "dual_vcore_solutions": ("pair", "dual-v-core"),
    "along": ("pair", "along"),
    **{k: ("ideal", k) for k in ("right_ideal", "left_ideal", "right_ann", "left_ann")},
}


def _first(sols):
    return sols[0] if sols else None


def _starts(v):
    """Where each run of equal values of v begins: at 0 and where v[i] != v[i - 1]."""
    return np.concatenate(([True], v[1:] != v[:-1]))[: v.size]


def _classes(ids):
    """np.unique(ids, return_index=True, return_inverse=True)[1:] by one sort: reps[g]
    the first index of group g, numbered by ascending id, and group[i] that of ids[i]."""
    order = np.argsort(ids)
    new, group = _starts(ids[order]), np.empty(ids.size, dtype=np.intp)
    group[order] = np.cumsum(new) - 1
    return np.minimum.reduceat(order, np.flatnonzero(new)) if ids.size else order, group


class _Record:
    """A scan's survivors, `found`: the flat indices row * n + x, ascending,
    of the points of its grid of size rows where the system holds.  A row's
    solutions are read as a slice of one list, laid out on the first read."""

    def __init__(self, found, n, size):
        self.found, self.n, self.size, self.xs = found, n, size, None

    def row(self, r) -> tuple:
        if self.xs is None:
            rows, xs = np.divmod(self.found, self.n)
            self.starts = np.searchsorted(rows, np.arange(self.size + 1)).tolist()
            self.xs = xs.tolist()
        return tuple(self.xs[self.starts[r] : self.starts[r + 1]])

    def first(self) -> np.ndarray:
        """The first solution of each row, -1 for none."""
        rows, xs = np.divmod(self.found, self.n)
        first, at = np.full(self.size, -1, dtype=np.int32), _starts(rows)  # rows ascend
        first[rows[at]] = xs[at]
        return first


def _grid_products(equation, unknown) -> int:
    """Products of the equation whose operands include the unknown: each
    costs a pass over the scanner's grid.  A word contributes one per item
    after its first, where every unknown letter is an item and so is every
    run of known letters."""
    count = 0
    for word in equation[1:]:
        is_x = [sym.rstrip("*") == unknown for sym in word]
        if any(is_x):
            count += sum(x or i == 0 or is_x[i - 1] for i, x in enumerate(is_x)) - 1
    return count


@functools.lru_cache(maxsize=None)
def _scan_order(system, unknown) -> list:
    """The equations of system, those with the fewest grid-sized products first."""
    return sorted(system, key=lambda eq: _grid_products(eq, unknown))


@functools.lru_cache(maxsize=None)
def _known_runs(system, unknown) -> tuple:
    """Every maximal run of known letters in the words of system, once each:
    at a grid point, each word's value depends on the row only through theirs."""
    runs = (
        tuple(run)
        for _, *words in system
        for word in words
        for is_x, run in itertools.groupby(word, lambda sym: sym.rstrip("*") == unknown)
        if not is_x
    )
    return tuple(dict.fromkeys(runs))


@functools.lru_cache(maxsize=None)
def _fibre_form(system, unknown):
    """(equation, k, r, side) for the first equation in `_scan_order` that
    reads x k = r (side "col") or k x = r (side "row"): the unknown once,
    unstarred, at one end of one side and not on the other, so that the words
    k and r hold known letters only.  None when no equation does."""
    for eq in _scan_order(system, unknown):
        _, lhs, rhs = eq
        for word, other in ((lhs, rhs), (rhs, lhs)):
            if [sym.rstrip("*") for sym in word + other].count(unknown) != 1:
                continue
            if word[:1] == (unknown,):
                return eq, word[1:], other, "col"
            if word[-1:] == (unknown,):
                return eq, word[:-1], other, "row"
    return None


def _x_blocks(n: int, per_x: int):
    """Column vectors of consecutive x, each at most _BLOCK grid points
    unless one x alone has more."""
    step = max(1, _BLOCK // per_x)
    for x0 in range(0, n, step):
        yield np.arange(x0, min(n, x0 + step))[:, None]


def _slices(order, starts, at):
    """The slices order[starts[i] : starts[i + 1]] for i = at[q] laid end to end: the
    pairs (q, entry), q ascending and each slice in order, at most _BLOCK at a time."""
    count = starts[at + 1] - starts[at]
    ends = np.cumsum(count)
    shift = starts[at] - (ends - count)  # entry g of slice q is order[g + shift[q]]
    last = int(ends[-1]) if ends.size else 0
    for g0 in range(0, last, _BLOCK):
        g1 = min(g0 + _BLOCK, last)
        i, j = np.searchsorted(ends, (g0, g1 - 1), side="right")
        end = ends[i : j + 1]
        # how many entries of each slice i..j fall in [g0, g1)
        cut = np.minimum(end, g1) - np.maximum(end - count[i : j + 1], g0)
        q = np.repeat(np.arange(i, j + 1), cut)
        yield q, order[shift[q] + np.arange(g0, g1)]


def _generators(table, start) -> np.ndarray:
    """start, then in index order each element that products of the earlier
    picks do not reach: every element is a product of these."""
    reached, picks = np.arange(len(table)) == start, [start]
    while not reached.all():
        picks.append(int(reached.argmin()))  # the first element not reached
        reached[picks[-1]] = True
        while not reached[products := table[reached][:, reached]].all():
            reached[products] = True
    return np.array(picks)


def _raise_first(*checks):
    """checks: (mask, message) pairs that broadcast to one grid, True where a
    law fails.  Raise the message of the first failing law at the first
    failing point of the grid, in C order."""
    masks = [m.ravel() for m in np.broadcast_arrays(*(mask for mask, _ in checks))]
    failing = np.logical_or.reduce(masks)
    if failing.any():
        at = int(failing.argmax())
        raise PreconditionFailed(next(msg for m, (_, msg) in zip(masks, checks) if m[at]))


class FiniteStarRing:
    """A finite unital *-ring given by lookup tables over element indices.

    The tables may be given as nested lists or arrays; they are kept as int32
    arrays (`add_arr`, `mul_arr`, `star_arr`, `neg_arr`) and, built on first
    read, as lists of Python ints (`add_t`, `mul_t`, `star_t`, `neg_t`).
    """

    def __init__(self, spec, size, add, mul, star, zero, one, names):
        self.spec = spec
        self.size = size
        self.add_arr = np.asarray(add, dtype=np.int32)
        self.mul_arr = np.asarray(mul, dtype=np.int32)
        self.star_arr = np.asarray(star, dtype=np.int32)
        self.zero = int(zero)
        self.one = int(one)
        self.names = names
        self.neg_arr = self._build_neg()
        self._verify_axioms()
        self._ideals: dict = {}  # ideal kind -> members, (kind, "sets") -> frozensets
        self._scans: dict = {}  # scan key -> its _Record (see _record)
        self._tables: dict = {}  # named lookup -> (its override, its arrays)
        self._fibres: dict = {}  # side -> the fibre index (see _fibre_index)
        self._group = None  # see _automorphisms

    add_t = functools.cached_property(lambda self: self.add_arr.tolist())
    mul_t = functools.cached_property(lambda self: self.mul_arr.tolist())
    star_t = functools.cached_property(lambda self: self.star_arr.tolist())
    neg_t = functools.cached_property(lambda self: self.neg_arr.tolist())
    _mul_cols = functools.cached_property(lambda self: np.ascontiguousarray(self.mul_arr.T))

    # -- construction helpers --------------------------------------------

    def _build_neg(self):
        hits = self.add_arr == self.zero
        missing = np.flatnonzero(~hits.any(axis=1))
        if missing.size:
            raise PreconditionFailed(f"element {self.names[missing[0]]} has no negative")
        return hits.argmax(axis=1).astype(np.int32)

    def _verify_axioms(self):
        """Check the ring and involution laws over the int32 tables.

        The laws are checked on numpy grids in blocks of whole x-slices: the
        element and pair laws for every x, then the triple laws (see the
        module docstring).  The error names the first failing law in x, y, z
        order, as a loop over the elements would.
        """
        n = self.size
        add, mul, star = self.add_arr, self.mul_arr, self.star_arr
        zero, one = self.zero, self.one
        for x in _x_blocks(n, n):  # axis 0 is x, axis 1 is y
            # [x, y] with y on a whole row: row slices of the tables, and for
            # the laws that swap or star the operands, column slices or takes
            xs, sx = slice(x[0, 0], x[-1, 0] + 1), star[x[:, 0]]
            unit_laws = (add[x, zero] != x) | (mul[x, one] != x) | (mul[one, x] != x)
            _raise_first(
                (unit_laws, "identity axioms fail"),
                (star[star[x]] != x, "involution is not involutive"),
                (add[xs] != add[:, xs].T, "addition is not commutative"),
                (
                    star.take(add[xs]) != add.take(sx, axis=0).take(star, axis=1),
                    "involution is not additive",
                ),
                (
                    star.take(mul[xs]) != mul.take(sx, axis=1).take(star, axis=0).T,
                    "involution is not anti-multiplicative",
                ),
            )
        if n <= _FULL_AXIOM_CHECK_LIMIT:
            try:
                self._check_middles(_generators(add, zero))
            except PreconditionFailed:
                self._check_middles(np.arange(n))  # raises: a generator triple is one of these
            return
        # random.Random(0).randrange(n), drawn in bulk: each draw is the top
        # n.bit_length() bits of one 32-bit word, redrawn while it is >= n
        rng, shift, want = random.Random(0), 32 - n.bit_length(), 3 * _AXIOM_SAMPLES
        draws = np.zeros(0, dtype=np.int64)
        while draws.size < want:
            m = 2 * (want - draws.size)
            vals = np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"), "<u4") >> shift
            draws = np.concatenate([draws, vals[vals < n]])
        triples = draws[:want].reshape(-1, 3)
        for start in range(0, _AXIOM_SAMPLES, _BLOCK):
            self._check_triples(*triples[start : start + _BLOCK].T)

    def _check_middles(self, middles):
        """The triple laws at every (x, y, z) with y in middles, in that order."""
        for x in _x_blocks(self.size, len(middles) * self.size):
            self._check_triples(x[:, :, None], middles[:, None], np.arange(self.size))

    def _check_triples(self, x, y, z):
        # x, y, z broadcast to one grid of triples
        add, mul = self.add_arr, self.mul_arr
        _raise_first(
            (add[add[x, y], z] != add[x, add[y, z]], "addition is not associative"),
            (mul[mul[x, y], z] != mul[x, mul[y, z]], "multiplication is not associative"),
            (mul[x, add[y, z]] != add[mul[x, y], mul[x, z]], "left distributivity fails"),
            (mul[add[x, y], z] != add[mul[x, z], mul[y, z]], "right distributivity fails"),
        )

    # -- elementary operations ---------------------------------------------

    def add(self, x, y):
        return self.add_t[x][y]

    def sub(self, x, y):
        return self.add_t[x][self.neg_t[y]]

    def mul(self, *xs):
        acc = self.one
        for x in xs:
            acc = self.mul_t[acc][x]
        return acc

    def star(self, x):
        return self.star_t[x]

    def pow(self, a, k):
        acc = self.one
        for _ in range(k):
            acc = self.mul_t[acc][a]
        return acc

    def word(self, word, env):
        acc = self.one
        for sym in word:
            e = self.star_t[env[sym[:-1]]] if sym.endswith("*") else env[sym]
            acc = self.mul_t[acc][e]
        return acc

    def name(self, x):
        return self.names[x]

    def _check_elements(self, elems):
        for letter, x in elems.items():
            if not (isinstance(x, (int, np.integer)) and 0 <= x < self.size):
                raise PreconditionFailed(f"{letter} = {x!r} is not an element of {self.spec}")

    # -- derived structure (cached) ------------------------------------------

    # x R is row x of the multiplication table and R x is column x; x^0 is
    # where row x is zero and ^0 x where column x is

    def _members(self, kind) -> np.ndarray:
        """members[e, x]: x lies in the ideal (right_ideal eR, left_ideal Re)
        or annihilator (right_ann e^0, left_ann ^0 e) of e named by kind."""
        if kind not in self._ideals:
            n, mul = self.size, self.mul_arr
            if kind.endswith("ann"):
                members = mul == self.zero
                members = members if kind == "right_ann" else members.T
            else:
                members = np.zeros((n, n), dtype=bool)
                members[np.arange(n)[:, None], mul if kind == "right_ideal" else mul.T] = True
            self._ideals[kind] = members
        return self._ideals[kind]

    def _sets(self, kind) -> list:
        if (kind, "sets") not in self._ideals:
            rows = self._members(kind)
            self._ideals[kind, "sets"] = [frozenset(np.flatnonzero(r).tolist()) for r in rows]
        return self._ideals[kind, "sets"]

    def right_ideal(self, e) -> frozenset:
        return self._sets("right_ideal")[e]

    def left_ideal(self, e) -> frozenset:
        return self._sets("left_ideal")[e]

    def right_ann(self, e) -> frozenset:
        return self._sets("right_ann")[e]

    def left_ann(self, e) -> frozenset:
        return self._sets("left_ann")[e]

    def _automorphisms(self) -> tuple:
        """(perms, reps, orbit, g), built once: each distinct map a -> u a u⁻¹, u a
        unit with u*u central, sorted (each fixes 0, so the identity is first); each
        orbit's least element; per a, its orbit in reps and g with a = perms[g][rep]."""
        if self._group is None:
            n, mul, star = self.size, self.mul_arr, self.star_arr
            right, central = mul == self.one, (mul == mul.T).all(axis=1)
            u = np.flatnonzero(right.any(axis=1))  # units: in a finite ring xy = 1 gives yx = 1
            u = u[central[mul[star[u], u]] & ~central[u]]  # a central u fixes every a
            maps = mul[mul[u], right[u].argmax(axis=1)[:, None]]
            perms = np.unique(np.vstack([np.arange(n, dtype=np.int64), maps]), axis=0)
            low = perms.min(axis=0)
            reps = np.flatnonzero(low == np.arange(n))
            g = (perms[:, low] == np.arange(n)).argmax(axis=0)  # the first with g(rep) = a
            self._group = perms, reps, np.searchsorted(reps, low), g
        return self._group

    def projections(self) -> tuple:
        ps = np.arange(self.size)
        fixed = (self.mul_arr.diagonal() == ps) & (self.star_arr == ps)
        return tuple(np.flatnonzero(fixed).tolist())

    def leq_L(self, a, b) -> bool:
        return a in self.left_ideal(b)

    def leq_R(self, a, b) -> bool:
        return a in self.right_ideal(b)

    def green(self, a, b) -> dict:
        self._check_elements({"a": a, "b": b})
        leql, leqr = self.leq_L(a, b), self.leq_R(a, b)
        gel, ger = self.leq_L(b, a), self.leq_R(b, a)
        return {
            "leqL": leql,
            "leqR": leqr,
            "leqH": leql and leqr,
            "L": leql and gel,
            "R": leqr and ger,
            "H": leql and leqr and gel and ger,
        }

    # -- equation scanning ------------------------------------------------------

    def solve_system(self, system, env, unknown="x") -> list[int]:
        """All ring elements satisfying every word equation of the system.

        env maps every other letter of the system to an element.  Unless the
        whole ring is scanned, the scan fixes all letters but env's last.
        """
        self._check_elements(env)
        letters, n = tuple(env), self.size
        whole = (system, unknown, letters, None)
        if len(letters) > 1 and whole not in self._scans and n ** (len(letters) + 1) > _BLOCK:
            *lead, t = env.values()
            return list(self._record((system, unknown, letters, tuple(lead))).row(t))
        return list(self._record(whole).row(functools.reduce(lambda r, x: r * n + x, env.values())))

    def _record(self, key) -> _Record:
        """The record under key (system, unknown, given letters, lead), scanned on
        first use: lead None for the whole ring, else the values of all but the last."""
        record = self._scans.get(key)
        if record is None:
            (system, unknown, letters, lead), n = key, self.size
            for letter in (s.rstrip("*") for _, lhs, rhs in system for s in lhs + rhs):
                if letter != unknown and letter not in letters:
                    raise PreconditionFailed(f"no value for letter {letter!r}")
            values = dict.fromkeys(letters, range(n))
            values.update(zip(letters, ((v,) for v in lead or ())))
            record = self._scans[key] = self._scan(system, values, unknown)
        return record

    def _scan(self, system, values, unknown) -> _Record:
        """Scan system on the grid of the given letters' value sequences and
        every value of the unknown, an axis each in that order.  Return the
        record of the flat indices, ascending, of the grid points where every
        equation holds: c * n + x for the c-th combination of given values
        (in itertools.product order) and unknown x.  See the module docstring.
        """
        n, order, none = self.size, _scan_order(system, unknown), np.zeros(0, dtype=np.int64)
        shape = tuple(map(len, values.values()))
        total = math.prod(shape)
        if total * n > _BLOCK and all(isinstance(vs, range) for vs in values.values()):
            perms, reps, orbit, g = self._automorphisms()
            if reps.size < n:  # the representatives' rows, then each a's through its map
                part = self._scan(system, {**values, next(iter(values)): reps}, unknown).found
                found, starts = [none], np.searchsorted(part, np.arange(reps.size + 1) * total)
                for a, tail in _slices(np.remainder(part, total, out=part), starts, orbit):
                    flat, gn = a * total, g[a] * n  # a, read from its representative's rows
                    for i in range(len(shape)):  # x, then each later letter, from the last
                        tail, digit = np.divmod(tail, n)
                        flat += perms.ravel()[gn + digit] * n**i
                    found.append(flat)
                (found := np.concatenate(found)).sort()  # in place, once the pieces are freed
                return _Record(found, n, total)
        # a grid of one block is one pass: cheaper than building and reading fibres
        fibre = _fibre_form(system, unknown) if total * n > _BLOCK else None
        first = fibre[0] if fibre else order[0]
        rest = [eq for eq in order if eq is not first]
        arrays = [np.asarray(vs, dtype=np.int32) for vs in values.values()]
        step = _BLOCK if fibre else max(1, _BLOCK // n)
        found = [none]
        for lo in range(0, total, step):
            coords = np.unravel_index(np.arange(lo, min(total, lo + step)), shape)
            rows = {k: vs[c] for k, vs, c in zip(values, arrays, coords)}
            if fibre:
                reps, group = self._groups(system, rows, unknown)
                rows = {k: v[reps] for k, v in rows.items()}
                sols = self._narrow(rest, self._fibre_read(fibre, rows, unknown), rows, unknown)
                found.append(lo * n + self._spread(np.concatenate([none, *sols]), reps.size, group))
            else:
                candidates = self._grid_test(first, rows, unknown)
                found += self._narrow(rest, candidates, rows, unknown, lo)
        return _Record(np.concatenate(found), n, total)

    def _narrow(self, rest, candidates, rows, unknown, lo=0):
        """The flat indices (lo + r) * n + x, ascending, of the candidate
        points (r, x) of the rows where every equation of rest holds too."""
        for r, x in candidates:  # row in the block, unknown
            flat = (lo + r) * self.size + x
            point = {k: v[r] for k, v in rows.items()} | {unknown: x} if rest else {}
            for eq in rest:
                keep = self._holds(eq, point, unknown)
                flat = flat[keep]
                if not flat.size:
                    break
                point = {k: v[keep] for k, v in point.items()}
            yield flat

    def _groups(self, system, rows, unknown):
        """(reps, group) for a block of rows: rows alike in the values of all
        their runs of known letters (`_known_runs`) share a group, and so their
        solutions; reps[g] is the first row of group g and group[c] the group
        of row c.  Each run's values extend one number per row, compacted into
        group numbers first wherever that number could pass 2^62."""
        n, size = self.size, len(next(iter(rows.values())))
        ids, bound = np.zeros(size, dtype=np.int64), 1
        for run in _known_runs(system, unknown):
            if bound > (1 << 62) // n:
                ids, bound = _classes(ids)[1], size
            ids = ids * n + self._eval(run, rows, unknown)
            bound *= n
        return _classes(ids)

    def _spread(self, found, groups, group):
        """The flat indices c * n + x, ascending, of every row c of a block
        and each solution x of its group, from found: those of the groups'
        first rows, g * n + x for group g."""
        n, (g, xs) = self.size, np.divmod(found, self.size)
        per = np.bincount(g, minlength=groups)  # solutions per group
        count = per[group]  # per row
        rows = np.flatnonzero(count)
        count, start = count[rows], (np.cumsum(per) - per)[group[rows]]
        # the solutions of row rows[q] are xs[start[q] :][: count[q]]
        shift = np.repeat(start - np.cumsum(count) + count, count)
        return np.repeat(rows, count) * n + xs[shift + np.arange(shift.size)]

    def _grid_test(self, first, rows, unknown):
        """The points (row, x) of the rows where the equation first holds."""
        n, size = self.size, len(next(iter(rows.values())))
        bare = np.arange(n, dtype=np.int32)[None, :]
        env = {k: v[:, None] for k, v in rows.items()} | {unknown: bare}
        hits = self._holds(first, env, unknown, bare)
        yield np.divmod(np.flatnonzero(np.broadcast_to(hits, (size, n))), n)

    def _fibre_read(self, fibre, rows, unknown):
        """The points (row, x), at most _BLOCK at a time, where x k = r (or k x
        = r), k and r the fibre equation's words in the row: the fibre of r over k."""
        _, k, r, side = fibre
        at = self._eval(k, rows, unknown) * self.size + self._eval(r, rows, unknown)
        at = np.broadcast_to(at, len(next(iter(rows.values()))))
        return _slices(*self._fibre_index(side), at)

    def _fibre_index(self, side) -> tuple:
        """(order, starts) for the products x k (side "col") or k x ("row"):
        the x with product r, ascending, are order[starts[k * n + r] :
        starts[k * n + r + 1]].  Built on first use, in blocks of whole k."""
        if side not in self._fibres:
            n, step = self.size, max(1, _BLOCK // self.size)
            prods = self.mul_arr.T if side == "col" else self.mul_arr
            order, starts = np.empty((n, n), dtype=np.int32), np.zeros(n * n + 1, dtype=np.int32)
            for lo in range(0, n, step):
                block = prods[lo : lo + step]
                order[lo : lo + step] = np.argsort(block, axis=1, kind="stable")
                keys = (np.arange(len(block), dtype=np.int32)[:, None] * n + block).ravel()
                starts[1 + lo * n : 1 + lo * n + keys.size] = np.bincount(keys, minlength=keys.size)
            self._fibres[side] = order.ravel(), np.cumsum(starts, out=starts)
        return self._fibres[side]

    def _holds(self, equation, env, unknown, bare=None):
        _, lhs, rhs = equation
        return self._eval(lhs, env, unknown, bare) == self._eval(rhs, env, unknown, bare)

    def _eval(self, word, env, unknown, bare=None):
        # A run of known letters is multiplied out before it meets the
        # unknown, so a^m costs m products per grid row, not per grid
        # point.  On a full grid, where bare is the unknown's axis, a run times
        # the bare unknown (or the bare unknown times a run) is whole rows of
        # the table (or of its transpose).
        acc = run = None
        for sym in word:
            letter = sym[:-1] if sym.endswith("*") else sym
            v = self.star_arr[env[letter]] if letter != sym else env[letter]
            if letter == unknown:
                acc, run = self._times(self._times(acc, run, bare), v, bare), None
            else:
                run = self._times(run, v)
        acc = self._times(acc, run, bare)
        return self.one if acc is None else acc

    def _times(self, p, q, bare=None):
        if p is None or q is None:
            return q if p is None else p
        # a known run has a last axis of length 1 on the grid; n >= 2
        if q is bare and p.shape[-1] == 1:
            return self.mul_arr[p[..., 0]]
        if p is bare and q.shape[-1] == 1:
            return self._mul_cols[q[..., 0]]
        return self.mul_arr.take(p * self.size + q)

    # -- whole-ring scans and the named lookups ---------------------------------

    def _survivors(self, scan) -> np.ndarray:
        return self._named(scan).found

    def _named(self, scan) -> _Record:
        """The record of a scan of `_SCANS` on the whole ring, with flat indices
        (l * n + t) * n + x for given letters (l, t) and solution x, t * n + x
        for one letter t; kept under the name too, so that a scalar lookup need
        not hash the system.  The along scan's keeps only the x in dR and Rd."""
        record = self._scans.get(scan)
        if record is None:
            (system, letters), n = _SCANS[scan], self.size
            record = self._record(key := (system, "x", letters, None))
            if scan == "along":  # the unfiltered record is not kept
                d, x = record.found // (n * n), record.found % n
                in_d = self._members("right_ideal")[d, x] & self._members("left_ideal")[d, x]
                record = _Record(self._scans.pop(key).found[in_d], n, n * n)
            self._scans[scan] = record
        return record

    def first_solutions(self, system) -> np.ndarray:
        """The first solution of solve_system(system, {"a": a}) at each a, -1 for none."""
        return self._record((system, "x", ("a",), None)).first()

    def inner_inverses(self, a) -> tuple:
        return self._named("one").row(a)

    def group_inv(self, a):
        return _first(self._named("group").row(a))

    def mp_inv(self, a):
        return _first(self._named("mp").row(a))

    def core_inv(self, a):
        return _first(self._named("core").row(a))

    def dual_core_inv(self, a):
        return _first(self._named("dual-core").row(a))

    def inv_unit(self, x):
        return _first(self._named("unit").row(x))

    def is_unit(self, x) -> bool:
        return self.inv_unit(x) is not None

    def one_three_set(self, a) -> tuple:
        return self._named("one3").row(a)

    def one_four_set(self, a) -> tuple:
        return self._named("one4").row(a)

    def along(self, a, d):
        """Inverse of a along d by definition scan (unique when it exists):
        the first solution of A1-A2 that lies in dR and in Rd."""
        return _first(self._named("along").row(d * self.size + a))

    def wcore_solutions(self, a, w) -> tuple:
        return self._named("w-core").row(a * self.size + w)

    def wcore(self, a, w):
        return _first(self.wcore_solutions(a, w))

    def dual_vcore_solutions(self, a, v) -> tuple:
        return self._named("dual-v-core").row(a * self.size + v)

    def dual_vcore(self, a, v):
        return _first(self.dual_vcore_solutions(a, v))

    def table(self, name):
        """The named lookup over the whole ring as arrays, built once per ring.

        - group_inv, core_inv, mp_inv, dual_core_inv, inv_unit: the value at
          each a, -1 where there is none;
        - inner_inverses, one_three_set, one_four_set and one23 (the
          {1,2,3}-inverses, which have no scalar lookup): members[a, x];
        - wcore_solutions [a, w], dual_vcore_solutions [a, v] and along
          [a, d]: (first solution, -1 for none; solution count), n x n each;
        - right_ideal, left_ideal, right_ann, left_ann: (ids, members), with
          ids[e] == ids[f] exactly when the ideals of e and f are equal and
          members[e, x] when x lies in the ideal of e.

        They are filled from the scanner's survivors, or pointwise through a
        lookup replaced on the instance (a fault planted by a test, say), so
        the arrays always say what the named lookup says.
        """
        override = vars(self).get(name)
        hit = self._tables.get(name)
        if hit is None or hit[0] is not override:
            kind, scan = _TABLES[name]
            if override is not None:
                found = self._pointwise(kind, scan, override)
            elif kind == "ideal":
                found = np.flatnonzero(self._members(scan))
            else:
                found = self._survivors(scan)
            hit = self._tables[name] = (override, self._arrays(kind, scan, found))
        return hit[1]

    def _arrays(self, kind, scan, found):
        # found: flat indices e * n + x, x a solution at e or a member of e's ideal
        n = self.size
        if kind in ("set", "ideal"):
            members = np.bincount(found, minlength=n * n).reshape(n, n) > 0
            if kind == "set":
                return members
            # rows packed to bits, as byte strings, sort as the rows do: the same ids
            packed = np.packbits(members, axis=1)
            return _classes(packed.view(f"V{packed.shape[1]}").ravel())[1].astype(np.int32), members
        if kind == "element":
            return _Record(found, n, n).first()
        first = _Record(found, n, n * n).first().reshape(n, n)
        count = np.bincount(found // n, minlength=n * n).astype(np.int32).reshape(n, n)
        # the along scan's rows are (d, a)
        return (first.T, count.T) if scan == "along" else (first, count)

    def _pointwise(self, kind, scan, lookup):
        """The flat indices row * n + x, each row in its order, of what a lookup says."""
        n, found = self.size, []
        for r in range(n * n if kind == "pair" else n):
            # the along scan's rows are (d, a)
            args = (r,) if kind != "pair" else divmod(r, n)[:: -1 if scan == "along" else 1]
            sols = lookup(*args)  # a tuple or set, or an element or None
            sols = () if sols is None else (sols,) if isinstance(sols, (int, np.integer)) else sols
            found += [r * n + x for x in sols]
        return np.array(found, dtype=np.int64)

    def pseudo_core(self, a):
        """(value, minimal index) of the pseudo-core inverse, or None.

        The m-th system depends on a only through a^m and a^(m+1), so the
        search stops once a^m repeats an earlier power.
        """
        powers, p = set(), a
        for m in itertools.count(1):
            if p in powers:
                return None
            sols = self.solve_system(core_ep_system(m), {"a": a})
            if sols:
                return (sols[0], m)
            powers.add(p)
            p = self.mul_t[p][a]


# ---------------------------------------------------------------------------
# constructors


def _zmod_ring(n: int) -> FiniteStarRing:
    x = np.arange(n)
    add, mul, names = (x[:, None] + x) % n, (x[:, None] * x) % n, [str(v) for v in range(n)]
    return FiniteStarRing(f"zmod:{n}", n, add, mul, x, 0, 1 % n, names)


def _mat_ring(k: int, p: int) -> FiniteStarRing:
    if not _is_prime(p):
        raise PreconditionFailed(f"gf{p}: {p} is not prime")
    q, size = p**k, p ** (k * k)
    # entry (i, j) of the element with index idx is base-p digit i*k + j of
    # idx, so row i is base-q digit i: a row vector, by its index below q
    mats = (np.arange(size)[:, None] // p ** np.arange(k * k) % p).reshape(size, k, k)
    row_code, row_weights = p ** np.arange(k), (q ** np.arange(k)).tolist()
    rows, vecs = mats @ row_code, mats[:q, 0]  # row vectors rows[x, i] of x; entries vecs[r]
    # row i of x y is (row i of x) y, and row i of x + y is the sum of rows i
    row_times = np.empty((q, size), dtype=np.int32)
    for lo in range(0, q, step := max(1, _BLOCK // (size * k))):
        row_times[lo : lo + step] = np.einsum("rt,ytj->ryj", vecs[lo : lo + step], mats) % p @ row_code
    row_sum = ((vecs[:, None] + vecs) % p @ row_code).astype(np.int32).ravel()
    add, mul = np.zeros((2, size, size), dtype=np.int32)
    for lo in range(0, size, step := max(1, _BLOCK // size)):
        for i, (x, weight) in enumerate(zip(rows[lo : lo + step].T, row_weights)):
            mul[lo : lo + step] += row_times[x] * weight
            add[lo : lo + step] += row_sum[x[:, None] * q + rows[:, i]] * weight
    star = mats.transpose(0, 2, 1) @ row_code @ row_weights
    one = int(row_code @ row_weights)  # row i of the identity is row vector p^i
    names = [str(m) for m in mats.tolist()]
    return FiniteStarRing(f"mat:{k}:gf{p}", size, add, mul, star, 0, one, names)


def _product_ring(r1: FiniteStarRing, r2: FiniteStarRing) -> FiniteStarRing:
    n2 = r2.size
    size = r1.size * n2

    def pair(t1, t2):
        # element (i1, i2) has index i1 * n2 + i2
        return (t1[:, None, :, None] * n2 + t2[None, :, None, :]).reshape(size, size)

    return FiniteStarRing(
        f"prod({r1.spec},{r2.spec})",
        size,
        pair(r1.add_arr, r2.add_arr),
        pair(r1.mul_arr, r2.mul_arr),
        (r1.star_arr[:, None] * n2 + r2.star_arr).ravel(),
        r1.zero * n2 + r2.zero,
        r1.one * n2 + r2.one,
        [f"({x},{y})" for x in r1.names for y in r2.names],
    )


def _split_product_args(body: str) -> tuple[str, str]:
    depth = 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            return body[:i], body[i + 1 :]
    raise PreconditionFailed(f"malformed product spec {body!r}")


def _spec_int(text: str, spec: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise PreconditionFailed(f"malformed number {text!r} in ring spec {spec!r}") from None


def _parse_spec(spec: str, cap: int):
    """(size, build) for a ring spec; build() constructs the ring."""
    spec = spec.strip()
    if spec.startswith("prod(") and spec.endswith(")"):
        (n1, build1), (n2, build2) = (_parse_spec(s, cap) for s in _split_product_args(spec[5:-1]))
        return n1 * n2, lambda: _product_ring(build1(), build2())
    parts = spec.split(":")
    if parts[0] == "zmod" and len(parts) == 2:
        n = _spec_int(parts[1], spec)
        if n < 2:
            raise PreconditionFailed(f"zmod modulus must be >= 2, got {n}")
        return n, lambda: _zmod_ring(n)
    if parts[0] == "mat" and len(parts) == 3 and parts[2].startswith("gf"):
        k, p = _spec_int(parts[1], spec), _spec_int(parts[2][2:], spec)
        if k < 1:
            raise PreconditionFailed("matrix size must be >= 1")
        # |p|^(k^2) > |p| cap, decided before the power is computed
        if abs(p) >= 2 and k * k > math.log(max(cap, 1), abs(p)) + 1:
            raise TooLarge(f"ring {spec} has {p}^{k * k} elements, cap is {cap}")
        return p ** (k * k), lambda: _mat_ring(k, p)
    raise PreconditionFailed(f"unknown ring spec {spec!r}")


def enumerate_ring(spec: str, cap: int = DEFAULT_RING_CAP) -> FiniteStarRing:
    """Build the ring described by spec; refuses rings larger than cap."""
    size, build = _parse_spec(spec, cap)
    if size > cap:
        raise TooLarge(f"ring {spec} has {size} elements, cap is {cap}")
    return build()


def solve_equations(ring: FiniteStarRing, system, env: dict, unknown: str = "x"):
    """Complete solution set of a word-equation system by exhaustive scan."""
    return ring.solve_system(system, env, unknown)


def green_relations(ring: FiniteStarRing, a: int, b: int) -> dict:
    """Green preorder and equivalence flags between two ring elements."""
    return ring.green(a, b)
