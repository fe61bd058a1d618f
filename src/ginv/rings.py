"""Enumerable finite *-rings with full operation tables.

Supported specs: "zmod:n" (identity involution), "mat:k:gfp" (k x k matrices
over GF(p), transpose involution), and "prod(spec,spec)" (componentwise).
Elements are indices into the tables; ring axioms and involution laws are
verified at construction (exhaustively up to 256 elements, on a fixed
deterministic sample beyond that).

Every inverse the oracle looks up (`group_inv`, `wcore_solutions`, `along`,
...) comes from one scanner over the equations of `equations.SYSTEMS`,
`FiniteStarRing.solve_system`: definitions only, never a theorem it checks.
"""

from __future__ import annotations

import itertools
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
# scanner grid points evaluated per numpy block, and table entries built per
# block: bounds the memory of the scanner and of the table builders
_BLOCK = 1 << 16

# the inverse x of a unit a: ax = 1 = xa (the empty word is 1)
_UNIT = (("U1", ("a", "x"), ()), ("U2", ("x", "a"), ()))


def _first(sols):
    return sols[0] if sols else None


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

    The tables may be given as nested lists or arrays; they are kept as lists
    of Python ints (`add_t`, `mul_t`, `star_t`) and as int32 arrays.
    """

    def __init__(self, spec, size, add, mul, star, zero, one, names):
        self.spec = spec
        self.size = size
        self._add = np.asarray(add, dtype=np.int32)
        self._mul = np.asarray(mul, dtype=np.int32)
        self._star = np.asarray(star, dtype=np.int32)
        self.add_t = self._add.tolist()
        self.mul_t = self._mul.tolist()
        self.star_t = self._star.tolist()
        self.zero = int(zero)
        self.one = int(one)
        self.names = names
        self.neg_t = self._build_neg()
        self._verify_axioms()
        self._units: dict[int, int] | None = None
        self._right_ideal: list | None = None
        self._left_ideal: list | None = None
        self._right_ann: list | None = None
        self._left_ann: list | None = None
        self._projections: tuple | None = None
        self._rows: dict = {}

    # -- construction helpers --------------------------------------------

    def _build_neg(self):
        hits = self._add == self.zero
        missing = np.flatnonzero(~hits.any(axis=1))
        if missing.size:
            raise PreconditionFailed(f"element {self.names[missing[0]]} has no negative")
        return hits.argmax(axis=1).tolist()

    def _verify_axioms(self):
        """Check the ring and involution laws over the int32 tables.

        The laws are checked on numpy grids in blocks of whole x-slices: the
        element and pair laws for every x, then the triple laws for every x,
        or for a fixed random sample of triples beyond
        _FULL_AXIOM_CHECK_LIMIT elements.  The error names the first failing
        law in x, y, z order, as a loop over the elements would.
        """
        n = self.size
        add, mul, star = self._add, self._mul, self._star
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
        rng = random.Random(0)
        for start in range(0, _AXIOM_SAMPLES, _AXIOM_BLOCK):
            k = min(_AXIOM_BLOCK, _AXIOM_SAMPLES - start)
            self._check_triples(*np.array([rng.randrange(n) for _ in range(3 * k)]).reshape(k, 3).T)

    def _check_triples(self, x, y, z):
        # x, y, z broadcast to one grid of triples
        add, mul = self._add, self._mul
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
            row = self._row(("unit",), _UNIT, {}, "a")
            self._units = {x: sols[0] for x, sols in enumerate(row) if sols}
        return self._units

    def is_unit(self, x) -> bool:
        return x in self.units()

    def inv_unit(self, x) -> int:
        return self.units()[x]

    # x R is row x of the multiplication table, R x is column x

    def right_ideal(self, e) -> frozenset:
        if self._right_ideal is None:
            self._right_ideal = [frozenset(row) for row in self.mul_t]
        return self._right_ideal[e]

    def left_ideal(self, e) -> frozenset:
        if self._left_ideal is None:
            self._left_ideal = [frozenset(col) for col in self._mul.T.tolist()]
        return self._left_ideal[e]

    def right_ann(self, e) -> frozenset:
        if self._right_ann is None:
            zero = self._mul == self.zero
            self._right_ann = [frozenset(np.flatnonzero(row).tolist()) for row in zero]
        return self._right_ann[e]

    def left_ann(self, e) -> frozenset:
        if self._left_ann is None:
            zero = self._mul == self.zero
            self._left_ann = [frozenset(np.flatnonzero(col).tolist()) for col in zero.T]
        return self._left_ann[e]

    def projections(self) -> tuple:
        if self._projections is None:
            self._projections = tuple(
                p
                for p in range(self.size)
                if self.mul_t[p][p] == p and self.star_t[p] == p
            )
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
        the lead values.

        Each letter gets an axis of the evaluation grid: the lead letters
        first, then trail, then the unknown.  When the whole grid fits in one
        block, the rows of every lead value are filled at once; otherwise the
        given lead values are scanned in blocks of trail values.
        """
        key = tag + tuple(lead.values())
        if key in self._rows:
            return self._rows[key]
        n, dims = self.size, len(lead) + 2
        values = [range(n) if n**dims <= _BLOCK else (v,) for v in lead.values()]
        combos = list(itertools.product(*values))
        rows = [[()] * n for _ in combos]
        axis = np.arange(n, dtype=np.int32)
        env = {unknown: axis.reshape((1,) * (dims - 1) + (n,))}
        for i, (letter, vs) in enumerate(zip(lead, values)):
            shape = [-1 if j == i else 1 for j in range(dims)]
            env[letter] = np.array(vs, dtype=np.int32).reshape(shape)
        step = max(1, _BLOCK // (n * len(combos)))
        for lo in range(0, n, step):
            ts = axis[lo : lo + step]
            env[trail] = ts.reshape((1,) * (dims - 2) + (-1, 1))
            keep = np.ones(tuple(map(len, values)) + (len(ts), n), dtype=bool)
            for _, lhs, rhs in system:
                keep &= self._eval(lhs, env, unknown) == self._eval(rhs, env, unknown)
            # grid row r is lead combination r // len(ts) with trail value lo + r % len(ts)
            keep = keep.reshape(-1, n)
            xs = keep.nonzero()[1].tolist()
            ends = np.cumsum(np.count_nonzero(keep, axis=1)).tolist()
            for r, (start, end) in enumerate(zip([0] + ends, ends)):
                if end > start:
                    rows[r // len(ts)][lo + r % len(ts)] = tuple(xs[start:end])
        for combo, row in zip(combos, rows):
            self._rows[tag + combo] = row
        return self._rows[key]

    def _eval(self, word, env, unknown):
        # A run of known letters is multiplied out before it meets the
        # unknown, so a^m costs m products per letter value, not per grid point.
        acc = run = None
        for sym in word:
            letter = sym[:-1] if sym.endswith("*") else sym
            v = self._star[env[letter]] if letter != sym else env[letter]
            if letter == unknown:
                acc, run = self._times(self._times(acc, run), v), None
            else:
                run = self._times(run, v)
        acc = self._times(acc, run)
        return self.one if acc is None else acc

    def _times(self, p, q):
        if p is None or q is None:
            return q if p is None else p
        return self._mul.take(p * self.size + q)

    def _solutions(self, name, a) -> tuple:
        # solutions of the one-letter system SYSTEMS[name]; a memo hit is one
        # dict lookup and one index
        return (self._rows.get((name,)) or self._row((name,), SYSTEMS[name], {}, "a"))[a]

    def inner_inverses(self, a) -> tuple:
        return self._solutions("one", a)

    def group_inv(self, a):
        return _first(self._solutions("group", a))

    def mp_inv(self, a):
        return _first(self._solutions("mp", a))

    def core_inv(self, a):
        return _first(self._solutions("core", a))

    def dual_core_inv(self, a):
        return _first(self._solutions("dual-core", a))

    def one_three_set(self, a) -> tuple:
        return self._solutions("one3", a)

    def one_four_set(self, a) -> tuple:
        return self._solutions("one4", a)

    def along(self, a, d):
        """Inverse of a along d by definition scan (unique when it exists):
        the first solution of A1-A2 that lies in dR and in Rd."""
        row = self._rows.get(("along", d))
        if row is None:
            ideal = self.right_ideal(d) & self.left_ideal(d)
            sols = self._row(("A1-A2",), SYSTEMS["along"], {"d": d}, "a")
            row = [next((x for x in xs if x in ideal), None) for xs in sols]
            self._rows[("along", d)] = row
        return row[a]

    def wcore_solutions(self, a, w) -> tuple:
        row = self._rows.get(("w-core", a))
        return (row or self._row(("w-core",), SYSTEMS["w-core"], {"a": a}, "w"))[w]

    def wcore(self, a, w):
        return _first(self.wcore_solutions(a, w))

    def dual_vcore_solutions(self, a, v) -> tuple:
        row = self._rows.get(("dual-v-core", a))
        return (row or self._row(("dual-v-core",), SYSTEMS["dual-v-core"], {"a": a}, "v"))[v]

    def dual_vcore(self, a, v):
        return _first(self.dual_vcore_solutions(a, v))

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
        pair(r1._add, r2._add),
        pair(r1._mul, r2._mul),
        (r1._star[:, None] * n2 + r2._star).ravel(),
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
