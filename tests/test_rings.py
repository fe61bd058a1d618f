"""The finite-ring scanner and table builders against plain-loop references."""

import itertools
import random

import numpy as np
import pytest

from ginv import enumerate_ring, rings, solve_equations, verify_theorem
from ginv.equations import SYSTEMS, core_ep_system, drazin_system
from ginv.theorems import CATALOG

SCAN_RINGS = ["zmod:12", "mat:2:gf2", "prod(zmod:2,zmod:3)"]
SCANNED = dict(SYSTEMS)
SCANNED.update({f"core-ep({m})": core_ep_system(m) for m in (1, 2, 3)})
SCANNED.update({f"drazin({k})": drazin_system(k) for k in (1, 2, 3)})


def reference_solutions(ring, system, env, unknown="x"):
    # one candidate at a time, one word at a time, through ring.word
    sols = []
    e = dict(env)
    for cand in range(ring.size):
        e[unknown] = cand
        if all(ring.word(lhs, e) == ring.word(rhs, e) for _, lhs, rhs in system):
            sols.append(cand)
    return sols


def env_letters(system, unknown="x"):
    letters = []
    for _, lhs, rhs in system:
        for sym in lhs + rhs:
            letter = sym.rstrip("*")
            if letter != unknown and letter not in letters:
                letters.append(letter)
    return letters


def first(sols):
    return sols[0] if sols else None


@pytest.mark.parametrize("spec", SCAN_RINGS)
@pytest.mark.parametrize("name", sorted(SCANNED))
def test_scanner_matches_reference(spec, name):
    ring = enumerate_ring(spec)
    system = SCANNED[name]
    letters = env_letters(system)
    for values in itertools.product(range(ring.size), repeat=len(letters)):
        env = dict(zip(letters, values))
        want = reference_solutions(ring, system, env)
        assert solve_equations(ring, system, env) == want, env
        # the scanner batches the last letter of env; the order must not matter
        assert solve_equations(ring, system, dict(reversed(env.items()))) == want, env


@pytest.mark.parametrize("spec", ["zmod:12", "mat:2:gf2"])
def test_scanner_matches_reference_in_blocks(monkeypatch, spec):
    # with a tiny block no grid fits: each call scans its own row, a few
    # values of the batched letter at a time
    monkeypatch.setattr(rings, "_BLOCK", 50)
    ring = enumerate_ring(spec)
    rng = random.Random(7)
    for name, system in sorted(SCANNED.items()):
        letters = env_letters(system)
        for _ in range(20):
            env = {letter: rng.randrange(ring.size) for letter in letters}
            want = reference_solutions(ring, system, env)
            assert solve_equations(ring, system, env) == want, (name, env)
            assert solve_equations(ring, system, dict(reversed(env.items()))) == want, (name, env)


@pytest.fixture(scope="module")
def mat3_gf2():
    return enumerate_ring("mat:3:gf2")


@pytest.mark.parametrize("name", ["w-core", "dual-v-core", "along", "bc", "core-ep(2)"])
def test_scanner_matches_reference_without_a_whole_grid(mat3_gf2, name):
    # 512 elements: no grid of two letters and the unknown fits in one
    # block, so each row is scanned in blocks of the batched letter and
    # every equation after the first sees only the points still standing
    ring, system = mat3_gf2, SCANNED[name]
    assert ring.size**3 > rings._BLOCK
    letters = env_letters(system)
    rng = random.Random(11)
    # all zero and all one give long and one-element rows; random letters
    # mostly give empty ones
    envs = [dict.fromkeys(letters, ring.zero), dict.fromkeys(letters, ring.one)]
    envs += [{letter: rng.randrange(ring.size) for letter in letters} for _ in range(6)]
    for env in envs:
        want = reference_solutions(ring, system, env)
        assert solve_equations(ring, system, env) == want, env
        assert solve_equations(ring, system, dict(reversed(env.items()))) == want, env


@pytest.mark.parametrize("spec", SCAN_RINGS + ["zmod:16"])
def test_named_lookups_match_reference(spec):
    ring = enumerate_ring(spec)
    single = {
        "one": ring.inner_inverses,
        "one3": ring.one_three_set,
        "one4": ring.one_four_set,
    }
    unique = {
        "group": ring.group_inv,
        "mp": ring.mp_inv,
        "core": ring.core_inv,
        "dual-core": ring.dual_core_inv,
    }
    for a in range(ring.size):
        for name, lookup in single.items():
            assert lookup(a) == tuple(reference_solutions(ring, SYSTEMS[name], {"a": a}))
        for name, lookup in unique.items():
            assert lookup(a) == first(reference_solutions(ring, SYSTEMS[name], {"a": a}))
        pc = None
        for m in range(1, ring.size + 2):
            sols = reference_solutions(ring, core_ep_system(m), {"a": a})
            if sols:
                pc = (sols[0], m)
                break
        assert ring.pseudo_core(a) == pc, a
        for b in range(ring.size):
            assert ring.wcore_solutions(a, b) == tuple(
                reference_solutions(ring, SYSTEMS["w-core"], {"a": a, "w": b})
            )
            assert ring.dual_vcore_solutions(a, b) == tuple(
                reference_solutions(ring, SYSTEMS["dual-v-core"], {"a": a, "v": b})
            )
            in_ideals = [
                x
                for x in reference_solutions(ring, SYSTEMS["along"], {"a": a, "d": b})
                if x in ring.right_ideal(b) and x in ring.left_ideal(b)
            ]
            assert ring.along(a, b) == first(in_ideals), (a, b)


# ---------------------------------------------------------------------------
# nested-loop table builders


def naive_tables(add, mul, star, zero, one, names):
    neg = [next(y for y in range(len(add)) if add[x][y] == zero) for x in range(len(add))]
    tables = {"add": add, "mul": mul, "star": star, "zero": zero, "one": one, "names": names}
    return {**tables, "neg": neg}


def naive_zmod(n):
    add = [[(x + y) % n for y in range(n)] for x in range(n)]
    mul = [[(x * y) % n for y in range(n)] for x in range(n)]
    return naive_tables(add, mul, list(range(n)), 0, 1 % n, [str(x) for x in range(n)])


def naive_mat(k, p):
    size = p ** (k * k)

    def decode(idx):
        digits = []
        for _ in range(k * k):
            digits.append(idx % p)
            idx //= p
        return [[digits[i * k + j] for j in range(k)] for i in range(k)]

    def encode(m):
        idx = 0
        for i in reversed(range(k)):
            for j in reversed(range(k)):
                idx = idx * p + m[i][j]
        return idx

    mats = [decode(i) for i in range(size)]
    add = [
        [encode([[(x[i][j] + y[i][j]) % p for j in range(k)] for i in range(k)]) for y in mats]
        for x in mats
    ]
    mul = [
        [
            encode(
                [[sum(x[i][t] * y[t][j] for t in range(k)) % p for j in range(k)] for i in range(k)]
            )
            for y in mats
        ]
        for x in mats
    ]
    star = [encode([[m[j][i] for j in range(k)] for i in range(k)]) for m in mats]
    zero = encode([[0] * k for _ in range(k)])
    one = encode([[int(i == j) for j in range(k)] for i in range(k)])
    return naive_tables(add, mul, star, zero, one, [str(m) for m in mats])


def naive_product(r1, r2):
    n1, n2 = len(r1["star"]), len(r2["star"])
    size = n1 * n2
    add = [[0] * size for _ in range(size)]
    mul = [[0] * size for _ in range(size)]
    star = [0] * size
    names = [""] * size
    for i1, i2 in itertools.product(range(n1), range(n2)):
        x = i1 * n2 + i2
        star[x] = r1["star"][i1] * n2 + r2["star"][i2]
        names[x] = f"({r1['names'][i1]},{r2['names'][i2]})"
        for j1, j2 in itertools.product(range(n1), range(n2)):
            y = j1 * n2 + j2
            add[x][y] = r1["add"][i1][j1] * n2 + r2["add"][i2][j2]
            mul[x][y] = r1["mul"][i1][j1] * n2 + r2["mul"][i2][j2]
    zero = r1["zero"] * n2 + r2["zero"]
    one = r1["one"] * n2 + r2["one"]
    return naive_tables(add, mul, star, zero, one, names)


def vectorised_mat(k, p):
    """naive_mat's tables from one batched product per pair of matrices."""
    size = p ** (k * k)
    weights = p ** np.arange(k * k)
    mats = (np.arange(size)[:, None] // weights % p).reshape(size, k, k)

    def encode(m):
        return (m % p).reshape(m.shape[:-2] + (k * k,)) @ weights

    add = encode(mats[:, None] + mats[None]).tolist()
    mul = encode(np.einsum("xit,ytj->xyij", mats, mats)).tolist()
    star = encode(mats.transpose(0, 2, 1)).tolist()
    one = int(encode(np.eye(k, dtype=np.int64)))
    return naive_tables(add, mul, star, 0, one, [str(m) for m in mats.tolist()])


def test_vectorised_reference_matches_nested_loops():
    assert vectorised_mat(2, 3) == naive_mat(2, 3)
    assert vectorised_mat(1, 5) == naive_mat(1, 5)


@pytest.mark.parametrize(
    "spec, naive",
    [
        ("mat:2:gf3", lambda: naive_mat(2, 3)),
        ("mat:1:gf5", lambda: naive_mat(1, 5)),
        ("mat:2:gf2", lambda: naive_mat(2, 2)),
        # three row digits; the nested loops take seconds at 512 elements
        ("mat:3:gf2", lambda: vectorised_mat(3, 2)),
        ("prod(zmod:2,mat:1:gf3)", lambda: naive_product(naive_zmod(2), naive_mat(1, 3))),
    ],
)
def test_tables_match_nested_loop_build(monkeypatch, spec, naive):
    ring = enumerate_ring(spec)
    got = {
        "add": ring.add_t,
        "mul": ring.mul_t,
        "star": ring.star_t,
        "zero": ring.zero,
        "one": ring.one,
        "names": ring.names,
        "neg": ring.neg_t,
    }
    assert got == naive()
    # list equality cannot tell np.int64(1) from 1, so check the types too
    values = [ring.zero, ring.one, *ring.star_t, *ring.neg_t]
    values += list(itertools.chain(*ring.add_t, *ring.mul_t))
    assert {type(v) for v in values} == {int}
    # built a few rows at a time, the tables are the same
    monkeypatch.setattr(rings, "_BLOCK", 50)
    small = enumerate_ring(spec)
    assert (small.add_t, small.mul_t, small.star_t) == (ring.add_t, ring.mul_t, ring.star_t)


# ---------------------------------------------------------------------------
# the pair-quantified catalog on an 81-element ring

MAT2_GF3_INSTANCES = {
    "uniqueness": 6561,
    "added_lemma": 6561,
    "characteristic_ew": 6561,
    "characteristic_vf": 6561,
    "core_char": 81,
    "ideal_form": 6561,
    "relate_to_mary": 6561,
    "relate_to_dual_mary": 6561,
    "group_result": 6561,
    "extended_repre": 6561,
    "core_another": 81,
    "core_another_1": 243,
    "star_core_another": 81,
    "star_duality": 6561,
    "wcore_of_wcore": 6561,
    "wv_mary": 6561,
    "relations_bc": 6561,
    "green_drazin": 6561,
    "idempotent": 6561,
    "jacobson": 6561,
    "mary_inverse_unit": 80433,
    "classical_mp_char": 993,
    "mp_ideal_char": 81,
    "intersect": 80433,
    "core_dual_core_units": 993,
}


def test_pair_catalog_on_mat2_gf3():
    ring = enumerate_ring("mat:2:gf3")
    pair_ids = [tid for tid, (_, quantified) in CATALOG.items() if quantified <= 2]
    assert sorted(pair_ids) == sorted(MAT2_GF3_INSTANCES)
    for tid in pair_ids:
        rep = verify_theorem(ring, tid)
        assert not rep.skipped and rep.counterexamples == [], tid
        assert rep.instances_checked == MAT2_GF3_INSTANCES[tid], tid


# ---------------------------------------------------------------------------
# axiom checks against the element-by-element loop


def reference_axioms(add, mul, star, zero, one):
    """The first failing law, in x, y, z order, or None (one scalar check at a time)."""
    n = len(star)
    for x in range(n):
        if add[x][zero] != x or mul[x][one] != x or mul[one][x] != x:
            return "identity axioms fail"
        if star[star[x]] != x:
            return "involution is not involutive"
        for y in range(n):
            if add[x][y] != add[y][x]:
                return "addition is not commutative"
            if star[add[x][y]] != add[star[x]][star[y]]:
                return "involution is not additive"
            if star[mul[x][y]] != mul[star[y]][star[x]]:
                return "involution is not anti-multiplicative"
    if n <= rings._FULL_AXIOM_CHECK_LIMIT:
        triples = itertools.product(range(n), repeat=3)
    else:
        rng = random.Random(0)
        triples = (
            (rng.randrange(n), rng.randrange(n), rng.randrange(n))
            for _ in range(rings._AXIOM_SAMPLES)
        )
    for x, y, z in triples:
        if add[add[x][y]][z] != add[x][add[y][z]]:
            return "addition is not associative"
        if mul[mul[x][y]][z] != mul[x][mul[y][z]]:
            return "multiplication is not associative"
        if mul[x][add[y][z]] != add[mul[x][y]][mul[x][z]]:
            return "left distributivity fails"
        if mul[add[x][y]][z] != add[mul[x][z]][mul[y][z]]:
            return "right distributivity fails"
    return None


ORDER = ("add", "mul", "star", "zero", "one", "names")
TRIPLE_LAWS = {
    "addition is not associative",
    "multiplication is not associative",
    "left distributivity fails",
    "right distributivity fails",
}


def axiom_message(tables):
    try:
        rings.FiniteStarRing("t", len(tables["star"]), *(tables[k] for k in ORDER))
    except rings.PreconditionFailed as exc:
        return str(exc)
    return None


def reference_message(tables):
    return reference_axioms(*(tables[k] for k in ORDER[:5]))


def ring_tables(spec):
    ring = enumerate_ring(spec)
    tables = {"add": ring.add_t, "mul": ring.mul_t, "star": ring.star_t}
    return {**tables, "zero": ring.zero, "one": ring.one, "names": ring.names}


def break_mul(t, x, y, v):
    # change xy and its star image together: the pair laws still hold, so
    # only the triple laws can catch it
    s = t["star"]
    t["mul"][x][y], t["mul"][s[y]][s[x]] = v, s[v]


def corrupt(tables, rng, entries):
    """A copy of the tables with `entries` random changes.  No zero leaves
    the add table, so every element keeps a negative."""
    t = {**tables, "star": list(tables["star"])}
    t["add"], t["mul"] = [list(r) for r in tables["add"]], [list(r) for r in tables["mul"]]
    n = len(t["star"])
    for _ in range(entries):
        which = rng.choice(["add", "mul", "mul", "star", "mul and star image"])
        x, y, v = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        if which == "star":
            t["star"][x] = v
        elif which == "mul and star image":
            break_mul(t, x, y, v)
        elif which == "add":
            if t["add"][x][y] != t["zero"]:
                t["add"][x][y] = v
        else:
            t["mul"][x][y] = v
    return t


@pytest.mark.parametrize("spec", ["zmod:12", "mat:2:gf2", "prod(zmod:2,zmod:3)"])
@pytest.mark.parametrize("entries", [1, 2])
@pytest.mark.parametrize("block", [rings._BLOCK, 20])
def test_broken_axioms_match_reference(monkeypatch, spec, entries, block):
    # one broken entry, or two whose first failures the order must rank;
    # with a small block every x-slice is checked on its own
    monkeypatch.setattr(rings, "_BLOCK", block)
    tables = ring_tables(spec)
    assert axiom_message(tables) is None
    rng = random.Random(entries)
    seen = set()
    for _ in range(150):
        t = corrupt(tables, rng, entries)
        want = reference_message(t)
        assert axiom_message(t) == want
        seen.add(want)
    assert len(seen) >= 7, seen


def test_triple_laws_alone_match_reference():
    tables = ring_tables("mat:2:gf2")
    rng = random.Random(3)
    seen = set()
    for entries in (1, 2) * 50:
        t = corrupt(tables, rng, 0)
        for _ in range(entries):
            break_mul(t, rng.randrange(16), rng.randrange(16), rng.randrange(16))
        want = reference_message(t)
        assert axiom_message(t) == want
        seen.add(want)
    assert len(seen & TRIPLE_LAWS) >= 3, seen


@pytest.mark.parametrize("spec", ["zmod:12", "mat:2:gf2"])
def test_sampled_axioms_match_reference(monkeypatch, spec):
    # above the limit a fixed random sample of triples is checked, in batches
    monkeypatch.setattr(rings, "_FULL_AXIOM_CHECK_LIMIT", 8)
    monkeypatch.setattr(rings, "_AXIOM_SAMPLES", 400)
    monkeypatch.setattr(rings, "_BLOCK", 7)
    tables = ring_tables(spec)
    assert axiom_message(tables) is None
    rng = random.Random(11)
    seen = set()
    for entries in (1, 1, 2) * 40:
        t = corrupt(tables, rng, entries)
        if rng.random() < 0.5:
            break_mul(t, rng.randrange(len(t["star"])), 0, 1)
        want = reference_message(t)
        assert axiom_message(t) == want
        seen.add(want)
    assert seen & TRIPLE_LAWS, seen


# ---------------------------------------------------------------------------
# the triple laws proved from the additive generators

FOUR_ZMOD2 = "prod(prod(zmod:2,zmod:2),prod(zmod:2,zmod:2))"
STANDARD_RINGS = [
    "zmod:12",
    "mat:2:gf2",
    "mat:2:gf3",
    "mat:3:gf2",
    "mat:2:gf5",
    "prod(zmod:2,zmod:3)",
    FOUR_ZMOD2,
]


def generated(table, elems):
    """Every product of elements of elems, bracketed in any way, one product at a time."""
    out, todo = set(elems), list(elems)
    while todo:
        a = todo.pop()
        for b in list(out):
            for c in (table[a][b], table[b][a]):
                if c not in out:
                    out.add(c)
                    todo.append(c)
    return out


@pytest.mark.parametrize("spec", STANDARD_RINGS)
def test_generators_reach_every_element(spec):
    # the proof of the triple laws rests on this closure of the addition
    # table; the multiplication table, whose monoid needs many more picks,
    # exercises the picking too
    ring = enumerate_ring(spec)
    for table, start in ((ring.add_t, ring.zero), (ring.mul_t, ring.one)):
        picks = rings._generators(np.array(table), start).tolist()
        assert picks[0] == start and picks[1:] == sorted(picks[1:])
        assert generated(table, picks) == set(range(ring.size))
        for i in range(1, len(picks) if ring.size <= 81 else 2):
            # the first element that the earlier picks do not reach
            assert picks[i] == min(set(range(ring.size)) - generated(table, picks[:i]))


def test_additive_generators_are_the_unit_digits():
    assert rings._generators(enumerate_ring("mat:2:gf3").add_arr, 0).tolist() == [0, 1, 3, 9, 27]
    assert rings._generators(enumerate_ring("zmod:12").add_arr, 0).tolist() == [0, 1]
    assert rings._generators(enumerate_ring(FOUR_ZMOD2).add_arr, 0).tolist() == [0, 1, 2, 4, 8]


def brute_force_message(monkeypatch, tables):
    """axiom_message with every element a middle: a scan of all triples."""
    with monkeypatch.context() as m:
        m.setattr(rings, "_generators", lambda table, start: np.arange(len(table)))
        return axiom_message(tables)


def break_add(t, x, y, v):
    # change x + y, y + x and their star images together: the pair laws
    # still hold
    s = t["star"]
    t["add"][x][y] = t["add"][y][x] = v
    t["add"][s[x]][s[y]] = t["add"][s[y]][s[x]] = s[v]


@pytest.mark.parametrize("spec", ["mat:2:gf3", "prod(zmod:2,zmod:3)", FOUR_ZMOD2])
def test_generator_proof_matches_the_brute_force_scan(monkeypatch, spec):
    # random corruptions, each with a sum or product x y of two elements
    # that, with their star images, are neither a generator nor 1: the
    # triples (x, y, z) and (w, x, y) that form it first have no generator
    # in the middle
    tables = ring_tables(spec)
    n, star, one = len(tables["star"]), tables["star"], tables["one"]
    gens = set(rings._generators(np.array(tables["add"]), tables["zero"]).tolist())
    others = [x for x in range(n) if not {x, star[x]} & (gens | {one})]
    rng = random.Random(5)
    seen = set()
    for trial in range(60):
        t = corrupt(tables, rng, trial % 2)
        rng.choice([break_add, break_mul])(t, rng.choice(others), rng.choice(others), rng.randrange(n))
        want = brute_force_message(monkeypatch, t)
        assert axiom_message(t) == want
        seen.add(want)
    assert len(seen & TRIPLE_LAWS) >= 2, seen


# ---------------------------------------------------------------------------
# whole-ring lookups


def scalar_tables(ring):
    """Every whole-ring lookup built from its scalar named lookup, one call per
    element or pair."""
    n, out = ring.size, {}
    for name in ("group_inv", "core_inv", "mp_inv", "dual_core_inv", "inv_unit"):
        out[name] = [-1 if y is None else y for y in map(getattr(ring, name), range(n))]
    one23 = [ring.solve_system(SYSTEMS["one23"], {"a": a}) for a in range(n)]
    for name, sets in [
        ("inner_inverses", map(ring.inner_inverses, range(n))),
        ("one_three_set", map(ring.one_three_set, range(n))),
        ("one_four_set", map(ring.one_four_set, range(n))),
        ("one23", one23),
    ]:
        out[name] = [[x in s for x in range(n)] for s in map(set, sets)]
    for name in ("wcore_solutions", "dual_vcore_solutions", "along"):
        sols = [[getattr(ring, name)(a, b) for b in range(n)] for a in range(n)]
        if name == "along":
            sols = [[() if y is None else (y,) for y in row] for row in sols]
        first = [[s[0] if s else -1 for s in row] for row in sols]
        out[name] = (first, [[len(s) for s in row] for row in sols])
    for name in ("right_ideal", "left_ideal", "right_ann", "left_ann"):
        sets = [getattr(ring, name)(e) for e in range(n)]
        same = [[s == t for t in sets] for s in sets]
        out[name] = (same, [[x in s for x in range(n)] for s in sets])
    return out


def array_tables(ring):
    """The same, read from ring.table; ideal ids as equality of ids."""
    out = {}
    for name in ("group_inv", "core_inv", "mp_inv", "dual_core_inv", "inv_unit"):
        out[name] = ring.table(name).tolist()
    for name in ("inner_inverses", "one_three_set", "one_four_set", "one23"):
        out[name] = ring.table(name).tolist()
    for name in ("wcore_solutions", "dual_vcore_solutions", "along"):
        first, count = ring.table(name)
        out[name] = (first.tolist(), count.tolist())
    for name in ("right_ideal", "left_ideal", "right_ann", "left_ann"):
        ids, members = ring.table(name)
        out[name] = ((ids[:, None] == ids).tolist(), members.tolist())
    return out


@pytest.mark.parametrize("spec", SCAN_RINGS + ["mat:2:gf3"])
def test_whole_ring_lookups_match_named_lookups(spec):
    ring = enumerate_ring(spec)
    want, got = scalar_tables(ring), array_tables(ring)
    assert sorted(got) == sorted(rings._TABLES)
    for name in want:
        assert got[name] == want[name], name


def test_whole_ring_lookups_read_a_replaced_lookup_pointwise():
    # a lookup replaced on the instance is read through the replacement, so
    # the arrays say what the named lookup says; restoring it restores them
    ring = enumerate_ring("mat:2:gf2")
    fresh = array_tables(ring)
    ring.along = lambda a, d: 0 if (a, d) == (0, 0) else None
    ring.wcore_solutions = lambda a, w: (0, 1) if a == w else ()
    ring.left_ann = lambda e: frozenset({e})
    ring.core_inv = lambda a: a
    ring.inv_unit = lambda x: None if x == ring.one else x
    got = array_tables(ring)
    assert got == scalar_tables(ring) and got != fresh
    for name in ("along", "wcore_solutions", "left_ann", "core_inv", "inv_unit"):
        delattr(ring, name)
    assert array_tables(ring) == fresh


# ---------------------------------------------------------------------------
# the fibre index and the whole-ring scans

FIBRE_RINGS = SCAN_RINGS + ["mat:2:gf3"]


@pytest.mark.parametrize("spec", FIBRE_RINGS)
def test_fibres_are_the_ascending_solutions_of_one_product(spec):
    ring = enumerate_ring(spec)
    n, mul = ring.size, ring.mul_arr
    for side, products in (("col", mul.T), ("row", mul)):  # products[k, x]: x k, or k x
        order, starts = ring._fibre_index(side)
        for k, r in itertools.product(range(n), repeat=2):
            fibre = order[starts[k * n + r] : starts[k * n + r + 1]]
            assert fibre.tolist() == np.flatnonzero(products[k] == r).tolist(), (side, k, r)


def test_fibre_equation_is_one_unknown_at_one_end():
    chosen = {
        name: (form[0][0], form[3]) if (form := rings._fibre_form(system, "x")) else None
        for name, (system, _) in rings._SCANS.items()
    }
    assert chosen == {
        **dict.fromkeys(["one", "one3", "one4", "one23", "mp", "group"]),
        "core": ("C4", "col"),
        "dual-core": ("C4'", "row"),
        "unit": ("U1", "row"),
        "w-core": ("E2", "col"),
        "dual-v-core": ("F2", "row"),
        "along": ("A1", "col"),
    }
    # the unknown on both sides, twice on one side, starred, or inside a word
    for lhs, rhs in [
        (("a", "x"), ("x", "a")),
        (("x", "a"), ("x",)),
        (("x", "x", "a"), ("a",)),
        (("x*", "a"), ("a",)),
        (("a", "x", "a"), ("a",)),
    ]:
        assert rings._fibre_form((("T", lhs, rhs),), "x") is None, (lhs, rhs)
    flipped = (("T", ("a",), ("d", "a", "x")),)
    assert rings._fibre_form(flipped, "x") == (flipped[0], ("d", "a"), ("a",), "row")


def brute_value(ring, word, env):
    """The word's value, each run of known letters multiplied out before it
    meets the unknown x, so that every product with x is one gather over the
    grid; the empty word is 1."""
    mul, star = ring.mul_arr, ring.star_arr
    factors, run = [], None
    for sym in word:
        v = star[env[sym[:-1]]] if sym.endswith("*") else env[sym]
        if sym.rstrip("*") == "x":
            factors += [f for f in (run, v) if f is not None]
            run = None
        else:
            run = v if run is None else mul[run, v]
    factors += [] if run is None else [run]
    acc = factors[0] if factors else ring.one
    for f in factors[1:]:
        acc = mul[acc, f]
    return acc


def brute_survivors(ring, scan):
    """The flat indices, ascending, of the grid points of a whole-ring scan
    where its system holds, by numpy over the whole grid, a slice of the first
    given letter at a time: the equation with the fewest x on the slice, the
    others at the points still standing.  The along scan keeps the x in dR
    and in Rd."""
    system, given = rings._SCANS[scan]
    n, mul, letters = ring.size, ring.mul_arr, (*given, "x")
    eqs = sorted(system, key=lambda eq: [s.rstrip("*") for s in eq[1] + eq[2]].count("x"))
    per = n ** (len(letters) - 1)  # grid points per value of the first letter
    step, found = max(1, (1 << 22) // per), []
    for lo in range(0, n, step):
        grid = np.ix_(np.arange(lo, min(n, lo + step)), *[np.arange(n)] * (len(letters) - 1))
        env = dict(zip(letters, grid))
        _, lhs, rhs = eqs[0]
        hits = brute_value(ring, lhs, env) == brute_value(ring, rhs, env)
        hits = np.broadcast_to(hits, [g.size for g in grid])
        idx = np.flatnonzero(hits)
        point = dict(zip(letters, np.unravel_index(idx, hits.shape)))
        point[letters[0]] = point[letters[0]] + lo
        for _, lhs, rhs in eqs[1:]:
            keep = brute_value(ring, lhs, point) == brute_value(ring, rhs, point)
            idx, point = idx[keep], {k: v[keep] for k, v in point.items()}
        found.append(lo * per + idx)
    found = np.concatenate(found)
    if scan == "along":
        d, x = found // (n * n), found % n
        in_dr, in_rd = np.zeros((2, n, n), dtype=bool)  # [d, x]: x in dR, x in Rd
        in_dr[np.arange(n)[:, None], mul] = in_rd[np.arange(n)[:, None], mul.T] = True
        found = found[in_dr[d, x] & in_rd[d, x]]
    return found


@pytest.mark.parametrize("block", [rings._BLOCK, 50])
@pytest.mark.parametrize("spec", FIBRE_RINGS)
def test_whole_ring_scans_match_brute_force(monkeypatch, spec, block):
    # the default block holds each grid whole but the pair grids of mat:2:gf3,
    # which are read from fibres; with 50 every system with a fibre equation
    # is read from fibres, and block boundaries cut rows and fibres
    monkeypatch.setattr(rings, "_BLOCK", block)
    ring = enumerate_ring(spec)
    for scan in rings._SCANS:
        assert np.array_equal(ring._survivors(scan), brute_survivors(ring, scan)), scan


@pytest.mark.parametrize("scan", ["w-core", "dual-v-core", "along"])
def test_pair_scans_on_mat3_gf2_match_brute_force(monkeypatch, mat3_gf2, scan):
    want = brute_survivors(mat3_gf2, scan)
    for block in (rings._BLOCK, 4096):
        monkeypatch.setattr(rings, "_BLOCK", block)
        assert np.array_equal(enumerate_ring("mat:3:gf2")._survivors(scan), want), block


@pytest.mark.parametrize("scan", [s for s, (_, given) in rings._SCANS.items() if len(given) == 1])
def test_one_letter_scans_on_mat3_gf2_match_brute_force(mat3_gf2, scan):
    # 512 rows of 512 points: read from fibres, each group of rows scanned once
    assert np.array_equal(mat3_gf2._survivors(scan), brute_survivors(mat3_gf2, scan))


def test_rows_alike_but_in_a_keep_their_own_solutions(mat3_gf2):
    # at w = 0 the runs aw, awa and w*a* of E1-E3 are 0 at every a: only
    # the run a tells the rows (0, 0) and (e11, 0) apart, and their solutions
    # differ, as E2 reads x 0 = 0 at every x and x 0 = e11 at none
    e11 = mat3_gf2.names.index("[[1, 0, 0], [0, 0, 0], [0, 0, 0]]")
    assert mat3_gf2.wcore_solutions(0, 0) == (0,)
    assert mat3_gf2.wcore_solutions(e11, 0) == ()


def test_groups_are_the_classes_of_equal_run_values():
    # 21 runs a w^k: their values, one base-12 digit each, pass 2^63 unless
    # the number so far is folded into group numbers on the way
    ring, n = enumerate_ring("zmod:12"), 12
    system = tuple((f"T{k}", ("a",) + ("w",) * k + ("x",), ("x",)) for k in range(21))
    runs = rings._known_runs(system, "x")
    assert len(runs) == 21 and n ** len(runs) > 2**63
    rows = dict(zip("aw", (v.ravel().astype(np.int32) for v in np.indices((n, n)))))
    reps, group = ring._groups(system, rows, "x")
    values = np.stack([ring._eval(run, rows, "x") for run in runs], axis=1)
    want = np.unique(values, axis=0, return_inverse=True)[1].ravel()
    assert len(set(zip(group.tolist(), want.tolist()))) == reps.size == want.max() + 1
    assert np.array_equal(group[reps], np.arange(reps.size))
    assert np.array_equal(reps, np.unique(group, return_index=True)[1])  # each group's first row


GROUP_COUNTS = {  # spec -> (|G|, element orbits)
    "mat:2:gf2": (2, 10),
    "mat:2:gf3": (8, 18),
    "mat:3:gf2": (6, 104),
    "mat:2:gf5": (8, 100),
    "zmod:12": (1, 12),
    "prod(zmod:2,zmod:3)": (1, 6),
}


@pytest.mark.parametrize("spec", sorted(GROUP_COUNTS))
def test_automorphisms_are_star_automorphisms_with_pinned_orbits(spec):
    ring = enumerate_ring(spec)
    n, add, mul, star = ring.size, ring.add_arr, ring.mul_arr, ring.star_arr
    perms, reps, orbit, g = ring._automorphisms()
    assert (len(perms), reps.size) == GROUP_COUNTS[spec]
    assert np.array_equal(perms[0], np.arange(n))
    assert len({p.tobytes() for p in perms}) == len(perms)
    for p in perms:
        assert np.array_equal(np.sort(p), np.arange(n))
        assert p[ring.zero] == ring.zero and p[ring.one] == ring.one
        assert np.array_equal(p[add], add[p[:, None], p])
        assert np.array_equal(p[mul], mul[p[:, None], p])
        assert np.array_equal(p[star], star[p])
    # each representative is the least element of its orbit, and g carries it to a
    assert np.array_equal(perms[g, reps[orbit]], np.arange(n))
    assert np.array_equal(reps[orbit], perms.min(axis=0))


def identity_group(ring):
    n = ring.size
    return np.arange(n)[None], np.arange(n), np.arange(n), np.zeros(n, dtype=np.intp)


FILLED_SCANS = dict(rings._SCANS)
FILLED_SCANS.update({f"core-ep({m})": (core_ep_system(m), ("a",)) for m in (1, 2, 3)})


@pytest.mark.parametrize("block", [rings._BLOCK, 50])
@pytest.mark.parametrize("spec", ["mat:2:gf3", "mat:3:gf2"])
def test_orbit_filled_records_equal_the_full_scan(monkeypatch, spec, block):
    # the scan of the orbit representatives' rows, read through each
    # element's map, against the scan of every row (the identity alone)
    monkeypatch.setattr(rings, "_BLOCK", block)
    filled, full = enumerate_ring(spec), enumerate_ring(spec)
    monkeypatch.setattr(full, "_automorphisms", lambda: identity_group(full))
    reps = filled._automorphisms()[1]
    scan, leads = filled._scan, []

    def spy(system, values, unknown):
        leads.append(len(next(iter(values.values()))))
        return scan(system, values, unknown)

    monkeypatch.setattr(filled, "_scan", spy)
    for name, (system, given) in FILLED_SCANS.items():
        key, leads[:] = (system, "x", given, None), []
        want, got = full._record(key), filled._record(key)
        # past one block, the whole grid's scan scans the representatives' rows alone
        fills = filled.size ** (len(given) + 1) > block
        assert leads == [filled.size, reps.size] if fills else [filled.size], name
        assert got.size == want.size and got.found.dtype == want.found.dtype, name
        assert np.array_equal(got.found, want.found), name


@pytest.mark.parametrize(
    "ids",
    [
        np.random.default_rng(0).integers(0, 50, 1000),
        np.random.default_rng(1).integers(-(2**62), 2**62, 5000),
        np.full(300, 7, dtype=np.int64),
        np.array([3]),
        np.zeros(0, dtype=np.int64),
    ],
    ids=["few", "wide", "equal", "one", "empty"],
)
def test_classes_are_what_numpy_unique_returns(ids):
    _, want_reps, want_group = np.unique(ids, return_index=True, return_inverse=True)
    reps, group = rings._classes(ids)
    assert np.array_equal(reps, want_reps) and np.array_equal(group, want_group.reshape(-1))
    assert group.shape == ids.shape
