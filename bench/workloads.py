"""Seeded inputs and operations for the four workloads.

Every operation is an `Op`: `run()` is the timed call into ginv, and
`check(result)` is the benchmark's own verdict on what came back (None when
correct, else a one-line reason).  A workload is a fixed list of ops built
from the seed; a run repeats the list as whole passes.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

import refcheck as rc

WORKLOADS = ("api_exact", "api_float", "cli", "oracle")


@dataclass
class Op:
    label: str  # what the op does, for failure reports
    run: Callable[[], object]
    check: Callable[[object], str | None]
    wclass: str = ""  # "<domain>.n<size>" for w_core ops (wcore.<class>_ms)
    # what the op is about (ring, theorem, instances, argv) and what its
    # check found (degraded routes)
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# exact inputs


def _scalar(f: rc.Field, rng: random.Random):
    if f.kind == "gaussian_rational":
        return rc.Gauss(rng.randint(-2, 2), rng.randint(-2, 2))
    if f.modulus:
        return rng.randrange(f.modulus)
    return Fraction(rng.randint(-4, 4))


def _rand(f, rng, m, n):
    return [[_scalar(f, rng) for _ in range(n)] for _ in range(m)]


def _of_rank(f, rng, n, r):
    """Random n x n matrix of rank exactly r (a product P Q when r < n)."""
    for _ in range(500):
        a = _rand(f, rng, n, n) if r == n else rc.matmul(f, _rand(f, rng, n, r), _rand(f, rng, r, n))
        if rc.rank(f, a) == r:
            return a
    raise RuntimeError(f"no rank-{r} matrix found over {f.kind}")


def field_pair(f: rc.Field, rng: random.Random, n: int, shape: str):
    """(a, w) over a field.  full: both invertible (inverse exists); low:
    rank(a) = n//2 and an inverse exists; none: rank(w) < rank(a), so
    rank(awa) < rank(a) and neither inverse exists."""
    r = max(1, n // 2)
    if shape == "none":
        a = _of_rank(f, rng, n, r)
        w = rc.matmul(f, _rand(f, rng, n, r - 1), _rand(f, rng, r - 1, n)) if r > 1 else [
            [f.zero()] * n for _ in range(n)
        ]
        return a, w
    for _ in range(500):
        a = _of_rank(f, rng, n, n if shape == "full" else r)
        w = _of_rank(f, rng, n, n)
        if rc.wcore_exists(f, a, w) and rc.dual_vcore_exists(f, a, w):
            return a, w
    raise RuntimeError(f"no invertible {shape} pair found over {f.kind}")


def _exact_pair(f: rc.Field, rng, n, shape):
    if f.kind != "integer_mod":
        return field_pair(f, rng, n, shape)
    parts = [field_pair(rc.prime_field(p), rng, n, shape) for p in rc.crt_primes(f.modulus)]
    return tuple(rc.crt_join(f.modulus, [pt[i] for pt in parts]) for i in (0, 1))


EXACT_CLASSES = (
    ("gaussian", rc.GAUSSIAN, (2, 3, 4)),
    ("rational", rc.RATIONAL, (3, 4, 6)),
    ("gf7", rc.prime_field(7), (4, 8, 16)),
    ("zmod6", rc.integer_mod(6), (3,)),
)
FLOAT_SIZES = (4, 8, 16, 32)
# shapes per size: op times cluster by size, and this mix puts the median
# op inside the n = 8 cluster and the 90th percentile inside the n = 32 one
FLOAT_PLAN = (
    (4, ("full", "low")),
    (8, ("full", "low", "none") * 2),
    (16, ("full", "low", "none")),
    (32, ("full", "low", "none")),
)
SHAPES = ("full", "low", "none")
EXACT_PAIRS = 2  # pairs of each shape per class: seeds differ less in cost
CORE_CALLS = ("w_core", "dual_v_core")


def _api_op(ginv, call: str, wclass: str, shape: str, f, a, w) -> Op:
    a_sm = ginv.matrix_from_json(rc.matrix_json(f, a))
    w_sm = ginv.matrix_from_json(rc.matrix_json(f, w))
    expected: dict = {}

    def run():
        return getattr(ginv, call)(a_sm, w_sm)

    def check(res):
        warnings = res.certificate.warnings if res.certificate is not None else []
        op.info["degraded"] = sum("degraded" in w_ for w_ in warnings)
        if "exists" not in expected:
            if f is None:
                expected["exists"] = rc.float_core_exists(a, w)
            elif call == "w_core":
                expected["exists"] = rc.wcore_exists(f, a, w)
            else:
                expected["exists"] = rc.dual_vcore_exists(f, a, w)
        if res.exists != expected["exists"]:
            return f"exists={res.exists}, expected {expected['exists']}"
        if not res.exists:
            return None
        x = rc.matrix_from_json(f, ginv.matrix_to_json(res.value))
        if f is None:
            resid = rc.float_residual(call, a, w, x)
            if not resid <= rc.FLOAT_CHECK_TOL:
                return f"defining-equation residual {resid:.3g}"
            return None
        if not res.certificate.ok:
            return "exact certificate not ok"
        if not rc.exact_equations_hold(f, call, a, w, x):
            return "value fails its defining equations"
        return None

    op = Op(f"{call} {wclass} {shape}", run, check, wclass if call == "w_core" else "")
    return op


def api_exact(ginv, seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for name, f, sizes in EXACT_CLASSES:
        for n in sizes:
            for shape in SHAPES * EXACT_PAIRS:
                a, w = _exact_pair(f, rng, n, shape)
                for call in CORE_CALLS:
                    ops.append(_api_op(ginv, call, f"{name}.n{n}", shape, f, a, w))
    return ops


def _cgauss(g: np.random.Generator, m: int, n: int) -> np.ndarray:
    return (g.standard_normal((m, n)) + 1j * g.standard_normal((m, n))) / np.sqrt(2)


def _unitary(g, n):
    q, r = np.linalg.qr(_cgauss(g, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def float_pair(g: np.random.Generator, n: int, shape: str):
    """full: both full rank; low: rank(a) = n/2, generic w (inverse exists);
    none: rank(w) < rank(a), so rank(AWA) < rank(A)."""
    r = n // 2
    if shape == "full":
        return _cgauss(g, n, n), _cgauss(g, n, n)
    a = _cgauss(g, n, r) @ _cgauss(g, r, n)
    if shape == "low":
        return a, _cgauss(g, n, n)
    return a, _cgauss(g, n, r - 1) @ _cgauss(g, r - 1, n)


def api_float(ginv, seed: int) -> list[Op]:
    g = np.random.default_rng(seed)
    ops = []
    for n, shapes in FLOAT_PLAN:
        for shape in shapes:
            a, w = float_pair(g, n, shape)
            for call in CORE_CALLS:
                ops.append(_api_op(ginv, call, f"float.n{n}", shape, None, a, w))
    return ops


def ill_pair(g: np.random.Generator, n: int, decades: float):
    """a = U diag(s) V* with s from 1 to 10**-decades and w = V U*, so that
    kappa(AWA) = 10**(2 * decades)."""
    u, v = _unitary(g, n), _unitary(g, n)
    s = np.geomspace(1.0, 10.0**-decades, n)
    return (u * s) @ v.conj().T, v @ u.conj().T


# kappa(AWA) = 1e7 and 1.6e8 (past ginv's 1e8 degraded-route threshold, and
# a factor 2 above the rank cutoff): here non-degraded routes can disagree
# by more than the route-agreement bound and w_core raises RouteDisagreement
# on a floating-point artefact (ROADMAP item 4), so these pairs are probes,
# not timed ops
ILL_DECADES = (3.5, 4.1)


def float_defect_probes(ginv, seed: int) -> list[tuple[str, str | None]]:
    g = np.random.default_rng([seed, 1])
    out = []
    for decades in ILL_DECADES:
        for n in (4, 8, 4, 8, 4, 8):
            a, w = ill_pair(g, n, decades)
            for call in CORE_CALLS:
                op = _api_op(ginv, call, f"float.n{n}", f"kappa(AWA)=1e{2 * decades:g}", None, a, w)
                try:
                    err = op.check(op.run())
                except Exception as exc:  # a probe reports, it never stops the run
                    err = f"raised {type(exc).__name__}: {exc}"
                out.append((op.label, err))
    return out


# ---------------------------------------------------------------------------
# cli

KINDS = (
    "one", "one3", "one4", "mp", "group", "drazin", "core", "dual-core",
    "core-ep", "along", "w-core", "dual-v-core", "bc",
)  # fmt: skip
EXTRA = {"along": ("d",), "w-core": ("w",), "dual-v-core": ("v",), "bc": ("b", "c")}
CLI_DOMAINS = (rc.RATIONAL, rc.GAUSSIAN, rc.prime_field(7), rc.integer_mod(6), None)
# refused by design over Z/nZ (exit 1 with a message): not every element is
# regular, and rank is undefined
CLI_REFUSED = {("one", "integer_mod"), ("bc", "integer_mod")}
W_ROUTES = (
    "mary_13", "core_of_aw", "projection_unit", "rank_formula",
    "section3_unit", "as_along", "as_bc",
)  # fmt: skip
D_ROUTES = ("mary_14", "dual_core_of_va", "group_va", "group_av", "rank_formula", "section3_unit")
# one per CLI domain, in order; bc is refused over Z/6, so Z/6 gets along
ABSENT_KINDS = ("group", "core", "dual-core", "along", "bc")


def _invertible(f, rng, n):
    """Random invertible n x n matrix (small integer entries)."""
    for _ in range(500):
        if f is None:
            a = [[complex(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            if abs(np.linalg.det(np.array(a))) > 0.5:
                return a
            continue
        a = _rand(f, rng, n, n)
        if rc.inverse(f, a) is not None:
            return a
    raise RuntimeError("no invertible matrix found")


def _nilpotent(f, rng, n):
    """a = u v^T with v^T u = 0 exactly, so a^2 = 0 and a != 0."""
    ff = f if f is not None else rc.Field("gaussian_rational")
    while True:
        u, v = [_scalar(ff, rng) for _ in range(n)], [_scalar(ff, rng) for _ in range(n)]
        u[0] = ff.one()
        v[0] = ff.red(ff.zero() - sum((v[j] * u[j] for j in range(1, n)), ff.zero()))
        a = [[ff.red(x * y) for y in v] for x in u]
        if any(any(r) for r in a):
            break
    if f is None:
        return [[complex(float(x.re), float(x.im)) for x in r] for r in a]
    return a


def _expected_value(f, kind, m):
    """Value of every inverse kind for invertible operands (unique)."""
    a = m["a"]
    if f is None:
        na = np.array(a, dtype=complex)
        if kind == "w-core":
            return np.linalg.inv(na @ np.array(m["w"], dtype=complex))
        if kind == "dual-v-core":
            return np.linalg.inv(np.array(m["v"], dtype=complex) @ na)
        return np.linalg.inv(na)
    if kind == "w-core":
        return rc.inverse(f, rc.matmul(f, a, m["w"]))
    if kind == "dual-v-core":
        return rc.inverse(f, rc.matmul(f, m["v"], a))
    return rc.inverse(f, a)


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-RFC JSON token {token}")

    return json.loads(text, parse_constant=reject)


def _one_line_error(proc) -> str | None:
    lines = proc.stderr.strip().splitlines()
    if "Traceback" in proc.stderr:
        return "traceback on stderr"
    if len(lines) != 1:
        return f"{len(lines)} stderr lines, expected one"
    if "NaN" in proc.stdout:
        return "NaN in stdout"
    return None


class CliRunner:
    """Starts one `python -m ginv.cli` process per op, from the checkout root."""

    def __init__(self, workdir: str, env: dict, trace_script: str | None = None):
        self.workdir, self.env, self.trace_script = workdir, env, trace_script
        self.spans_out: str | None = None
        self.count = 0

    def write(self, obj) -> str:
        """Write a matrix (dict) or raw text to a new file; return its path."""
        self.count += 1
        path = os.path.join(self.workdir, f"m{self.count}.json")
        with open(path, "w", encoding="utf-8") as fh:
            if isinstance(obj, str):
                fh.write(obj)
            else:
                json.dump(obj, fh)
        return path

    def argv(self, args):
        if self.trace_script is None:
            return [sys.executable, "-m", "ginv.cli", *args]
        return [sys.executable, self.trace_script, *args]

    def run(self, args):
        env = self.env
        if self.trace_script is not None:
            env = dict(env, BENCH_SPANS_OUT=self.spans_out)
        return subprocess.run(
            self.argv(args), capture_output=True, text=True, env=env, timeout=170
        )

    def child_peak_mb(self, args) -> float:
        """Peak RSS of one plain CLI process.  It is started from a small
        launcher because Linux carries the parent's RSS into a child's
        ru_maxrss across fork and exec, so the worker cannot see it."""
        proc = subprocess.run(
            [sys.executable, "-c", _LAUNCHER, sys.executable, "-m", "ginv.cli", *args],
            capture_output=True, text=True, env=self.env, timeout=170,
        )  # fmt: skip
        return int(proc.stdout) / 1024.0


_LAUNCHER = (
    "import resource, subprocess, sys; "
    "subprocess.run(sys.argv[1:], capture_output=True); "
    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
)


def _value_check(f, exp, value_json) -> str | None:
    got = rc.matrix_from_json(f, value_json)
    if f is None:
        err = float(np.linalg.norm(got - exp)) / max(1.0, float(np.linalg.norm(exp)))
        return None if err <= rc.FLOAT_CHECK_TOL else f"value off by {err:.3g}"
    return None if got == exp else "value differs from the unique inverse"


def _compute_check(f, want_rc: int, kind: str, exp=None):
    def check(proc):
        if proc.returncode != want_rc:
            return f"exit {proc.returncode}, expected {want_rc}: {proc.stderr.strip()[-120:]}"
        try:
            out = _strict_json(proc.stdout)
        except ValueError as exc:
            return f"stdout is not strict JSON: {exc}"
        if out.get("kind") != kind or out.get("exists") != (want_rc == 0):
            return "kind/exists fields disagree with the exit code"
        if exp is not None:
            return _value_check(f, exp, out["value"])
        return None

    return check


def _error_check(proc) -> str | None:
    if proc.returncode != 1:
        return f"exit {proc.returncode}, expected 1"
    return _one_line_error(proc)


def cli(runner: CliRunner, seed: int) -> list[Op]:
    """Which kind runs on which domain and size is fixed, so every seed has
    the same op mix; the seed draws the entries and the single routes."""
    rng = random.Random(seed)
    ops: list[Op] = []

    def compute(f, kind, mats, want_rc, exp=None, route=None):
        args = ["compute", "--kind", kind]
        for name, m in mats.items():
            args += [f"--{name}", runner.write(rc.matrix_json(f, m))]
        if route is not None:
            args += ["--route", route]
        label = f"compute {kind} {f.kind if f else 'complex_float'}" + (f" {route}" if route else "")
        # one op per kind (and so per domain) is a peak-memory candidate
        info = {"argv": args} if want_rc == 0 and route is None else {}
        ops.append(Op(label, lambda: runner.run(args), _compute_check(f, want_rc, kind, exp), info=info))

    # every kind once, on invertible operands: the inverse exists and is unique
    for i, kind in enumerate(KINDS):
        j = i % len(CLI_DOMAINS)
        while (kind, getattr(CLI_DOMAINS[j], "kind", "")) in CLI_REFUSED:
            j = (j + 1) % len(CLI_DOMAINS)
        f, n = CLI_DOMAINS[j], 2 + i % 3
        mats = {"a": _invertible(f, rng, n)}
        for name in EXTRA.get(kind, ()):
            mats[name] = _invertible(f, rng, n)
        compute(f, kind, mats, 0, _expected_value(f, kind, mats))
    # nilpotent a != 0: no group, core or dual-core inverse, and none along
    # (or (b,c)) invertible operands, since rank(d a d) = rank(a) < n
    for j, (f, kind) in enumerate(zip(CLI_DOMAINS, ABSENT_KINDS)):
        n = 2 + j % 3
        mats = {"a": _nilpotent(f, rng, n)}
        for name in EXTRA.get(kind, ()):
            mats[name] = _invertible(f, rng, n)
        compute(f, kind, mats, 3)
    # single routes: three w-core and three dual-v-core routes per pass
    route_domains = (rc.RATIONAL, rc.GAUSSIAN, None)
    for j in range(3):
        for kind, routes, other in (("w-core", W_ROUTES, "w"), ("dual-v-core", D_ROUTES, "v")):
            f = route_domains[j]
            mats = {"a": _invertible(f, rng, 3), other: _invertible(f, rng, 3)}
            route = routes[(3 * seed + j) % len(routes)]
            compute(f, kind, mats, 0, _expected_value(f, kind, mats), route=route)
    # check: the true inverse certifies, twice it does not
    f = rc.prime_field(7)
    a = _invertible(f, rng, 3)
    x = rc.inverse(f, a)
    a_path = runner.write(rc.matrix_json(f, a))
    for mult, want in ((1, 0), (2, 3)):
        c = f.one() if mult == 1 else f.one() + f.one()
        cand = runner.write(rc.matrix_json(f, rc.scale(f, c, x)))
        args = ["check", "--kind", "mp", "--a", a_path, "--candidate", cand]

        def check(proc, want=want):
            if proc.returncode != want:
                return f"check exit {proc.returncode}, expected {want}"
            try:
                _strict_json(proc.stdout)
            except ValueError as exc:
                return f"stdout is not strict JSON: {exc}"
            return None

        ops.append(Op(f"check mp x{mult}", lambda args=args: runner.run(args), check))
    # invalid input with a documented contract: exit 1 and a one-line message
    bad = runner.write('{"rows": 2, "cols": 2, "domain": {"kind": "rational"}, "data": [[')
    ops.append(Op("malformed JSON", lambda: runner.run(["compute", "--kind", "mp", "--a", bad]), _error_check))
    good = runner.write(rc.matrix_json(rc.RATIONAL, _invertible(rc.RATIONAL, rng, 2)))
    args = ["compute", "--kind", "w-core", "--a", good, "--w", good, "--route", "no_such_route"]
    ops.append(Op("unknown route", lambda: runner.run(args), _error_check))
    return ops


def cli_defect_probes(runner: CliRunner) -> list[tuple[str, str | None]]:
    """Inputs the README says must fail with exit 1 and a one-line message,
    which the program is known to mishandle (see ROADMAP item 4).  They are
    run once per cli run and reported, outside the timed ops."""
    rat = {"rows": 1, "cols": 1, "domain": {"kind": "rational"}, "data": [["1/0"]]}
    inf = '{"rows": 1, "cols": 1, "domain": {"kind": "complex_float"}, "data": [[[Infinity, 0.0]]]}'
    out = []
    for label, obj in (("rational 1/0", rat), ("complex Infinity", inf)):
        proc = runner.run(["compute", "--kind", "mp", "--a", runner.write(obj)])
        out.append((label, _error_check(proc)))
    return out


# ---------------------------------------------------------------------------
# oracle

ALL_THEOREMS = (
    "uniqueness", "added_lemma", "characteristic_ew", "characteristic_vf",
    "core_char", "ideal_form", "relate_to_mary", "relate_to_dual_mary",
    "group_result", "extended_repre", "core_another", "core_another_1",
    "star_core_another", "wv_core_char", "star_duality", "wcore_of_wcore",
    "wv_mary", "relations_bc", "green_drazin", "idempotent", "jacobson",
    "mary_inverse_unit", "classical_mp_char", "mp_ideal_char", "vw_intersect",
    "joint_w_units", "vw_intersect_dedekind", "along_product", "intersect",
    "core_dual_core_units",
)  # fmt: skip
TRIPLE = ("wv_core_char", "vw_intersect", "joint_w_units", "vw_intersect_dedekind", "along_product")
# (ring, theorems, repetitions per pass).  Explicit lists, so the work stays
# fixed if the triple-size limit is raised; the small rings repeat so their
# sub-millisecond checks give enough samples.
ORACLE_PLAN = (
    ("zmod:12", ALL_THEOREMS, 4),
    ("mat:2:gf2", ALL_THEOREMS, 4),
    ("mat:2:gf3", tuple(t for t in ALL_THEOREMS if t not in TRIPLE), 2),
    ("mat:3:gf2", ("uniqueness",), 1),
)


def oracle(ginv, expected: dict) -> list[Op]:
    """Per ring and repetition: build it fresh, then check each listed
    theorem on it."""
    ops: list[Op] = []
    for spec, theorems, repeats in ORACLE_PLAN:
        ops.extend(_ring_ops(ginv, expected, spec, theorems) * repeats)
    return ops


def _ring_ops(ginv, expected, spec, theorems) -> list[Op]:
    holder: dict = {}

    def build():
        holder["ring"] = ginv.enumerate_ring(spec)
        return holder["ring"]

    def build_check(ring):
        return None if ring.size == expected[spec]["size"] else "wrong ring size"

    ops = [Op(f"build {spec}", build, build_check, info={"ring": spec})]
    for tid in theorems:
        want = expected[spec]["instances"][tid]

        def check(rep, want=want):
            if rep.skipped or rep.counterexamples:
                return f"skipped={rep.skipped}, {len(rep.counterexamples)} counterexamples"
            if rep.instances_checked != want:
                return f"{rep.instances_checked} instances, expected {want}"
            return None

        op = Op(f"{tid} on {spec}", lambda t=tid: ginv.verify_theorem(holder["ring"], t), check)
        op.info.update(theorem=tid, instances=want)
        ops.append(op)
    return ops
