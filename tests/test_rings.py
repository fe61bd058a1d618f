"""The finite-ring scanner and table builders against plain-loop references."""

import itertools
import random

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


@pytest.mark.parametrize(
    "spec, naive",
    [
        ("mat:2:gf3", lambda: naive_mat(2, 3)),
        ("mat:1:gf5", lambda: naive_mat(1, 5)),
        ("prod(zmod:2,mat:1:gf3)", lambda: naive_product(naive_zmod(2), naive_mat(1, 3))),
    ],
)
def test_tables_match_nested_loop_build(spec, naive):
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
@pytest.mark.parametrize("block", [rings._AXIOM_BLOCK, 20])
def test_broken_axioms_match_reference(monkeypatch, spec, entries, block):
    # one broken entry, or two whose first failures the order must rank;
    # with a small block every x-slice is checked on its own
    monkeypatch.setattr(rings, "_AXIOM_BLOCK", block)
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
    monkeypatch.setattr(rings, "_AXIOM_BLOCK", 7)
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
