"""Enumerable finite *-rings with full operation tables.

Supported specs: "zmod:n" (identity involution), "mat:k:gfp" (k x k matrices
over GF(p), transpose involution), and "prod(spec,spec)" (componentwise).
Elements are indices into the tables; ring axioms and involution laws are
verified at construction (exhaustively up to 256 elements, on a fixed
deterministic sample beyond that).

Every inverse the oracle looks up (`group_inv`, `wcore_solutions`, `along`,
...) comes from one scanner over the equations of `equations.SYSTEMS`:
definitions only, never a theorem it checks.

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

Each named lookup scans its system once for the whole ring (`_SCANS`) and
keeps the survivors' flat indices.  Its scalar form (`group_inv(a)`,
`wcore_solutions(a, w)`, ...) reads solution tuples cut from them, and
`FiniteStarRing.table` reads them as arrays: the value per element, -1 for
none; set membership; first solution and solution count per pair; and for
the ideals and annihilators, membership and one id per distinct ideal.
`solve_system` scans any other system on request, memoized by its letters.
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
# axiom-check grid points (or sampled triples) per numpy batch: bounds the
# memory of the check; a batch holds at least one whole x-slice
_AXIOM_BLOCK = 2048
# scanner grid points or candidates per numpy block, and table entries built
# per block: bounds the memory of the scanner and of building the tables
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


def _runs(rows):
    """Start and end of each run of equal values of a sorted array."""
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    return starts, np.append(starts[1:], rows.size)


def _cut(found, n, size):
    """The solution tuple of each of size grid rows, from the ascending flat
    indices row * n + x of the points where a system holds.  Equal tuples
    share one object."""
    rows, shared = [()] * size, {}
    rs, xs = np.divmod(found, n)
    starts, ends = _runs(rs)
    rs, xs = rs.tolist(), xs.tolist()
    for start, end in zip(starts.tolist(), ends.tolist()):
        sols = tuple(xs[start:end])
        rows[rs[start]] = shared.setdefault(sols, sols)
    return rows


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
    """Column vectors of consecutive x, each at most _AXIOM_BLOCK grid points
    unless one x alone has more."""
    step = max(1, _AXIOM_BLOCK // per_x)
    for x0 in range(0, n, step):
        yield np.arange(x0, min(n, x0 + step))[:, None]


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
        self._units: dict[int, int] | None = None
        self._ideals: dict = {}  # ideal kind -> members, (kind, "sets") -> frozensets
        self._projections: tuple | None = None
        self._rows: dict = {}  # solve_system's memo
        self._flat: dict = {}  # whole-ring scan -> survivors
        self._sols: dict = {}  # whole-ring scan -> solution tuple per grid row
        self._tables: dict = {}  # named lookup -> (its override, its arrays)
        self._mul_cols: np.ndarray | None = None  # contiguous transpose of mul_arr
        self._fibres: dict = {}  # side -> the fibre index (see _fibre_index)

    add_t = functools.cached_property(lambda self: self.add_arr.tolist())
    mul_t = functools.cached_property(lambda self: self.mul_arr.tolist())
    star_t = functools.cached_property(lambda self: self.star_arr.tolist())
    neg_t = functools.cached_property(lambda self: self.neg_arr.tolist())

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
        element and pair laws for every x, then the triple laws for every x,
        or for a fixed random sample of triples beyond
        _FULL_AXIOM_CHECK_LIMIT elements.  The error names the first failing
        law in x, y, z order, as a loop over the elements would.
        """
        n = self.size
        add, mul, star = self.add_arr, self.mul_arr, self.star_arr
        zero, one = self.zero, self.one
        y = np.arange(n)
        for x in _x_blocks(n, n):  # axis 0 is x, axis 1 is y
            unit_laws = (add[x, zero] != x) | (mul[x, one] != x) | (mul[one, x] != x)
            _raise_first(
                (unit_laws, "identity axioms fail"),
                (star[star[x]] != x, "involution is not involutive"),
                (add[x, y] != add[y, x], "addition is not commutative"),
                (star[add[x, y]] != add[star[x], star[y]], "involution is not additive"),
                (star[mul[x, y]] != mul[star[y], star[x]], "involution is not anti-multiplicative"),
            )
        if n <= _FULL_AXIOM_CHECK_LIMIT:
            for x in _x_blocks(n, n * n):
                self._check_triples(x[:, :, None], y[:, None], y[None, :])
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
        for start in range(0, _AXIOM_SAMPLES, _AXIOM_BLOCK):
            self._check_triples(*triples[start : start + _AXIOM_BLOCK].T)

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

    # -- derived structure (cached) ------------------------------------------

    def units(self) -> dict[int, int]:
        if self._units is None:
            self._units = {x: sols[0] for x, sols in enumerate(self._solutions("unit")) if sols}
        return self._units

    def is_unit(self, x) -> bool:
        return x in self.units()

    def inv_unit(self, x) -> int:
        return self.units()[x]

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

    def projections(self) -> tuple:
        if self._projections is None:
            ps = np.arange(self.size)
            fixed = (self.mul_arr.diagonal() == ps) & (self.star_arr == ps)
            self._projections = tuple(np.flatnonzero(fixed).tolist())
        return self._projections

    def leq_L(self, a, b) -> bool:
        return a in self.left_ideal(b)

    def leq_R(self, a, b) -> bool:
        return a in self.right_ideal(b)

    def green(self, a, b) -> dict:
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

        env maps every other letter of the system to an element.  Its last
        letter is scanned together with the unknown, so one call memoizes the
        solutions for every value of that letter.
        """
        *lead, t = env.values()
        tag = (system, unknown, *env)
        row = self._rows.get(tag + tuple(lead))
        if row is None:
            *letters, trail = env
            row = self._row(tag, system, {k: env[k] for k in letters}, trail, unknown)
        return list(row[t])

    def _row(self, tag, system, lead, trail, unknown="x") -> list:
        """Solution tuples of system for each value of the letter trail, the
        letters of lead taking their given values; memoized under tag plus
        the lead values.  When the whole grid of every lead value fits in
        one block, the rows of every lead value are filled at once."""
        key = tag + tuple(lead.values())
        if key in self._rows:
            return self._rows[key]
        n, dims = self.size, len(lead) + 2
        values = {k: range(n) if n**dims <= _BLOCK else (v,) for k, v in lead.items()}
        combos = list(itertools.product(*values.values()))
        rows = _cut(self._scan(system, values, trail, unknown), n, len(combos) * n)
        for i, combo in enumerate(combos):
            self._rows[tag + combo] = rows[i * n : (i + 1) * n]
        return self._rows[key]

    def _scan(self, system, lead, trail, unknown) -> np.ndarray:
        """Scan system on the grid of the lead letters' value sequences, every
        value of trail and every value of the unknown, an axis each in that
        order.  Return the flat indices, ascending, of the grid points where
        every equation holds: (c * n + t) * n + x for the c-th combination of
        lead values (in itertools.product order), trail value t and unknown x.

        The rows (c, t) are taken in blocks; see the module docstring.
        """
        n, order = self.size, _scan_order(system, unknown)
        shape = (*map(len, lead.values()), n)
        total = math.prod(shape)
        # a grid of one block is one pass: cheaper than building and reading fibres
        fibre = _fibre_form(system, unknown) if total * n > _BLOCK else None
        first = fibre[0] if fibre else order[0]
        rest = [eq for eq in order if eq is not first]
        values = [np.asarray(vs, dtype=np.int32) for vs in (*lead.values(), range(n))]
        step = _BLOCK if fibre else max(1, _BLOCK // n)
        found = [np.zeros(0, dtype=np.int64)]
        for lo in range(0, total, step):
            coords = np.unravel_index(np.arange(lo, min(total, lo + step)), shape)
            rows = {k: vs[c] for k, vs, c in zip([*lead, trail], values, coords)}
            if fibre:
                candidates = self._fibre_read(fibre, rows, unknown)
            else:
                candidates = self._grid_test(first, rows, unknown)
            for r, x in candidates:  # row in the block, unknown
                flat = (lo + r) * n + x
                point = {k: v[r] for k, v in rows.items()} | {unknown: x} if rest else {}
                for eq in rest:
                    keep = self._holds(eq, point, unknown)
                    flat = flat[keep]
                    if not flat.size:
                        break
                    point = {k: v[keep] for k, v in point.items()}
                found.append(flat)
        return np.concatenate(found)

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
        n, (order, starts) = self.size, self._fibre_index(side)
        at = self._eval(k, rows, unknown) * n + self._eval(r, rows, unknown)
        at = np.broadcast_to(at, len(next(iter(rows.values()))))
        count = starts[at + 1] - starts[at]
        ends = np.cumsum(count)
        shift = starts[at] - (ends - count)  # candidate g of row q is order[g + shift[q]]
        for g0 in range(0, int(ends[-1]), _BLOCK):
            g1 = min(g0 + _BLOCK, int(ends[-1]))
            i, j = np.searchsorted(ends, (g0, g1 - 1), side="right")
            q = np.repeat(np.arange(i, j + 1), np.diff(np.minimum(ends[i : j + 1], g1), prepend=g0))
            yield q, order[shift[q] + np.arange(g0, g1)]

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
            if self._mul_cols is None:
                self._mul_cols = np.ascontiguousarray(self.mul_arr.T)
            return self._mul_cols[q[..., 0]]
        return self.mul_arr.take(p * self.size + q)

    # -- whole-ring scans and the named lookups ---------------------------------

    def _survivors(self, scan) -> np.ndarray:
        """The flat indices, ascending, of every point of the whole-ring grid
        of a scan of `_SCANS` where its system holds: (l * n + t) * n + x
        for given letters (l, t) and solution x, t * n + x for one letter t.
        The along scan keeps only the x in dR and in Rd."""
        found = self._flat.get(scan)
        if found is None:
            system, (*lead, trail) = _SCANS[scan]
            n = self.size
            found = self._scan(system, dict.fromkeys(lead, range(n)), trail, "x")
            if scan == "along":
                d, x = found // (n * n), found % n
                in_d = self._members("right_ideal")[d, x] & self._members("left_ideal")[d, x]
                found = found[in_d]
            self._flat[scan] = found
        return found

    def _solutions(self, scan) -> list:
        """The solution tuple of each grid row of a whole-ring scan."""
        rows = self._sols.get(scan)
        if rows is None:
            rows = _cut(self._survivors(scan), self.size, self.size ** len(_SCANS[scan][1]))
            self._sols[scan] = rows
        return rows

    def inner_inverses(self, a) -> tuple:
        return self._solutions("one")[a]

    def group_inv(self, a):
        return _first(self._solutions("group")[a])

    def mp_inv(self, a):
        return _first(self._solutions("mp")[a])

    def core_inv(self, a):
        return _first(self._solutions("core")[a])

    def dual_core_inv(self, a):
        return _first(self._solutions("dual-core")[a])

    def one_three_set(self, a) -> tuple:
        return self._solutions("one3")[a]

    def one_four_set(self, a) -> tuple:
        return self._solutions("one4")[a]

    def along(self, a, d):
        """Inverse of a along d by definition scan (unique when it exists):
        the first solution of A1-A2 that lies in dR and in Rd."""
        return _first(self._solutions("along")[d * self.size + a])

    def wcore_solutions(self, a, w) -> tuple:
        return self._solutions("w-core")[a * self.size + w]

    def wcore(self, a, w):
        return _first(self.wcore_solutions(a, w))

    def dual_vcore_solutions(self, a, v) -> tuple:
        return self._solutions("dual-v-core")[a * self.size + v]

    def dual_vcore(self, a, v):
        return _first(self.dual_vcore_solutions(a, v))

    def table(self, name):
        """The named lookup over the whole ring as arrays, built once per ring.

        - group_inv, core_inv, mp_inv, dual_core_inv: the value at each a,
          -1 where there is none;
        - inner_inverses, one_three_set, one_four_set and one23 (the
          {1,2,3}-inverses, which have no scalar lookup): members[a, x];
        - wcore_solutions [a, w], dual_vcore_solutions [a, v] and along
          [a, d]: (first solution, -1 for none; solution count), n x n each;
        - right_ideal, left_ideal, right_ann, left_ann: (ids, members), with
          ids[e] == ids[f] exactly when the ideals of e and f are equal and
          members[e, x] when x lies in the ideal of e.

        They are filled from the scanner's survivors.  A lookup replaced on
        the instance (a fault planted by a test, say) is read pointwise
        through its replacement instead, so the arrays always say what the
        named lookup says.
        """
        override = vars(self).get(name)
        hit = self._tables.get(name)
        if hit is None or hit[0] is not override:
            kind, scan = _TABLES[name]
            if override is None:
                arrays = self._whole(kind, scan)
            else:
                arrays = self._pointwise(kind, override)
            hit = self._tables[name] = (override, arrays)
        return hit[1]

    def _whole(self, kind, scan):
        n = self.size
        if kind == "ideal":
            members = self._members(scan)
            ids = np.unique(members, axis=0, return_inverse=True)[1].reshape(n)
            return ids.astype(np.int32), members
        found = self._survivors(scan)
        if kind == "set":
            members = np.zeros(n * n, dtype=bool)
            members[found] = True
            return members.reshape(n, n)
        rows, xs = np.divmod(found, n)
        starts, _ = _runs(rows)
        first = np.full(n if kind == "element" else n * n, -1, dtype=np.int32)
        first[rows[starts]] = xs[starts]
        if kind == "element":
            return first
        first = first.reshape(n, n)
        count = np.bincount(rows, minlength=n * n).astype(np.int32).reshape(n, n)
        # the along scan's rows are (d, a)
        return (first.T, count.T) if scan == "along" else (first, count)

    def _pointwise(self, kind, lookup):
        n = self.size
        if kind == "element":
            return np.array([-1 if y is None else y for y in map(lookup, range(n))], dtype=np.int32)
        if kind in ("set", "ideal"):
            sets = [lookup(a) for a in range(n)]
            members = np.zeros((n, n), dtype=bool)
            for a, s in enumerate(sets):
                members[a, list(s)] = True
            if kind == "set":
                return members
            ids: dict = {}
            return np.array([ids.setdefault(s, len(ids)) for s in sets], dtype=np.int32), members
        first = np.full((n, n), -1, dtype=np.int32)
        count = np.zeros((n, n), dtype=np.int32)
        for a, b in itertools.product(range(n), repeat=2):
            sols = lookup(a, b)  # a solution tuple, or an element or None (along)
            sols = sols if isinstance(sols, tuple) else () if sols is None else (sols,)
            if sols:
                first[a, b], count[a, b] = sols[0], len(sols)
        return first, count

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
    add = [[(x + y) % n for y in range(n)] for x in range(n)]
    mul = [[(x * y) % n for y in range(n)] for x in range(n)]
    star = list(range(n))
    names = [str(x) for x in range(n)]
    return FiniteStarRing(f"zmod:{n}", n, add, mul, star, 0, 1 % n, names)


def _mat_ring(k: int, p: int) -> FiniteStarRing:
    if not _is_prime(p):
        raise PreconditionFailed(f"gf{p}: {p} is not prime")
    size = p ** (k * k)
    # entry (i, j) of the element with index idx is base-p digit i*k + j of idx
    weights = p ** np.arange(k * k)
    mats = (np.arange(size)[:, None] // weights % p).reshape(size, k, k)

    def encode(m):
        return (m % p).reshape(m.shape[:-2] + (k * k,)) @ weights

    add = np.empty((size, size), dtype=np.int64)
    mul = np.empty((size, size), dtype=np.int64)
    step = max(1, _BLOCK // (size * k * k))
    for lo in range(0, size, step):
        x = mats[lo : lo + step, None]
        add[lo : lo + step] = encode(x + mats)
        mul[lo : lo + step] = encode(x @ mats)
    star = encode(mats.transpose(0, 2, 1))
    one = encode(np.eye(k, dtype=np.int64))
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


def _parse_spec(spec: str):
    """(size, build) for a ring spec; build() constructs the ring."""
    spec = spec.strip()
    if spec.startswith("prod(") and spec.endswith(")"):
        (n1, build1), (n2, build2) = map(_parse_spec, _split_product_args(spec[5:-1]))
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
        return p ** (k * k), lambda: _mat_ring(k, p)
    raise PreconditionFailed(f"unknown ring spec {spec!r}")


def enumerate_ring(spec: str, cap: int = DEFAULT_RING_CAP) -> FiniteStarRing:
    """Build the ring described by spec; refuses rings larger than cap."""
    size, build = _parse_spec(spec)
    if size > cap:
        raise TooLarge(f"ring {spec} has {size} elements, cap is {cap}")
    return build()


def solve_equations(ring: FiniteStarRing, system, env: dict, unknown: str = "x"):
    """Complete solution set of a word-equation system by exhaustive scan."""
    return ring.solve_system(system, env, unknown)


def green_relations(ring: FiniteStarRing, a: int, b: int) -> dict:
    """Green preorder and equivalence flags between two ring elements."""
    return ring.green(a, b)
