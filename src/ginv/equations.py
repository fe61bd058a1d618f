"""Defining-equation systems as data, plus certificates built from residuals.

Each inverse kind is characterized by word equations over the letters
{a, w, v, d, b, c, x} and their stars ("a*" means the adjoint of a).  The
same tables drive matrix certification here and the finite-ring oracle,
whose one scanner (`FiniteStarRing.solve_system`) solves them by exhaustive
search, so the two paths cannot drift apart.  Matrices evaluate a system
from its plan (`_plan`), compiled once per distinct system: the distinct
word prefixes in the order they are formed, each from its parent prefix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from .errors import DomainMismatch, PreconditionFailed, RouteDisagreement, ShapeMismatch
from .matrix import (
    DEFAULT_TOL,
    StarMatrix,
    ToleranceThresholds,
    _fro,
    _payload_matrix,
    _payload_product,
    acceptance_bound,
    all_within,
    matrix_to_json,
    norm_fro,
    solve_left,
    solve_right,
)

Word = tuple[str, ...]
Equation = tuple[str, Word, Word]  # (name, lhs, rhs)

P1: Equation = ("P1", ("a", "x", "a"), ("a",))
P2: Equation = ("P2", ("x", "a", "x"), ("x",))
P3: Equation = ("P3", ("a", "x"), ("x*", "a*"))
P4: Equation = ("P4", ("x", "a"), ("a*", "x*"))

_CORE = (
    ("C3", ("a", "x", "x"), ("x",)),
    ("C4", ("x", "a", "a"), ("a",)),
    ("C5", ("a", "x"), ("x*", "a*")),
)
_DUAL_CORE = (
    ("C3'", ("x", "x", "a"), ("x",)),
    ("C4'", ("a", "a", "x"), ("a",)),
    ("C5'", ("x", "a"), ("a*", "x*")),
)
_W_CORE = (
    ("E1", ("a", "w", "x", "x"), ("x",)),
    ("E2", ("x", "a", "w", "a"), ("a",)),
    ("E3", ("a", "w", "x"), ("x*", "w*", "a*")),
)
_DUAL_V_CORE = (
    ("F1", ("x", "x", "v", "a"), ("x",)),
    ("F2", ("a", "v", "a", "x"), ("a",)),
    ("F3", ("x", "v", "a"), ("a*", "v*", "x*")),
)

SYSTEMS: dict[str, tuple[Equation, ...]] = {
    "one": (P1,),
    "one3": (P1, P3),
    "one4": (P1, P4),
    "one23": (P1, P2, P3),
    "mp": (P1, P2, P3, P4),
    "group": (
        ("G1", ("a", "x", "a"), ("a",)),
        ("G2", ("x", "a", "x"), ("x",)),
        ("G3", ("a", "x"), ("x", "a")),
    ),
    # three-equation core systems; the five-equation variants prepend P1, P2
    "core": _CORE,
    "core5": (P1, P2, *_CORE),
    "dual-core": _DUAL_CORE,
    "dual-core5": (P1, P2, *_DUAL_CORE),
    "w-core": _W_CORE,
    "w-core-full": (
        *_W_CORE,
        ("E4", ("a", "w", "x", "a"), ("a",)),
        ("E5", ("x", "a", "w", "x"), ("x",)),
    ),
    "dual-v-core": _DUAL_V_CORE,
    "dual-v-core-full": (
        *_DUAL_V_CORE,
        ("F4", ("a", "x", "v", "a"), ("a",)),
        ("F5", ("x", "v", "a", "x"), ("x",)),
    ),
    # a-core inverse written without w (condition (iv) of the a-core result)
    "a-core": (
        ("K1", ("a", "a", "x", "x"), ("x",)),
        ("K2", ("x", "a", "a", "a"), ("a",)),
        ("K3", ("a", "a", "x"), ("x*", "a*", "a*")),
    ),
    "along": (
        ("A1", ("x", "a", "d"), ("d",)),
        ("A2", ("d", "a", "x"), ("d",)),
    ),
    "bc": (
        ("B1", ("x", "a", "b"), ("b",)),
        ("B2", ("c", "a", "x"), ("c",)),
        ("B3", ("x", "a", "x"), ("x",)),
    ),
}


def drazin_system(k: int) -> tuple[Equation, ...]:
    return (
        ("D1", ("a", "x"), ("x", "a")),
        ("D2", ("x", "a", "x"), ("x",)),
        ("D3", ("a",) * k, ("a",) * (k + 1) + ("x",)),
    )


def core_ep_system(m: int) -> tuple[Equation, ...]:
    return (
        ("Q1", ("x",) + ("a",) * (m + 1), ("a",) * m),
        ("Q2", ("a", "x", "x"), ("x",)),
        ("Q3", ("a", "x"), ("x*", "a*")),
    )


@functools.cache
def _plan(system: tuple[Equation, ...]) -> tuple:
    """How `system_residuals` walks system, kept once per distinct tuple: the
    unstarred letters in first-use order and, per equation, its name, the
    slots it adds, the slots ending its sides and each side's unstarred
    letters.  A slot is a distinct word prefix, in the order a left-to-right
    walk forms it: (None, (letter, starred)) or (parent slot, letter slot)."""
    slots, equations = {}, []
    for name, lhs, rhs in system:
        steps = []
        for word in (lhs, rhs):
            for k, sym in enumerate(word, 1):
                if (sym,) not in slots:
                    slots[(sym,)] = len(slots)
                    steps.append((None, (sym.rstrip("*"), sym.endswith("*"))))
                if word[:k] not in slots:
                    slots[word[:k]] = len(slots)
                    steps.append((slots[word[: k - 1]], slots[(sym,)]))
        scales = tuple(tuple(sym.rstrip("*") for sym in w) for w in (lhs, rhs))
        equations.append((name, tuple(steps), slots[lhs], slots[rhs], scales))
    letters = tuple(dict.fromkeys(k for *_, scales in equations for s in scales for k in s))
    return letters, tuple(equations)


def _run(steps: tuple, env: dict[str, StarMatrix], dom, vals: list) -> list:
    """Append each planned slot's payload to vals, a letter's after its domain check."""
    for parent, arg in steps:
        if parent is None:
            if (m := env[arg[0]]).domain != dom:
                raise DomainMismatch(f"{dom!r} vs {m.domain!r}")
            vals.append(m._payload(arg[1]))
        else:
            vals.append(_payload_product(dom, vals[parent], vals[arg]))
    return vals


def eval_word(word: Word, env: dict[str, StarMatrix], memo: dict | None = None) -> StarMatrix:
    """The product of the word's letters, left to right, on the kernels'
    payloads through the plan of word = word, with no matrix built for a
    product.  memo maps words to payloads, so a word is evaluated once per memo."""
    dom, memo = env[word[0].rstrip("*")].domain, {} if memo is None else memo
    if word not in memo:
        (_, steps, end, *_), = _plan((("", word, word),))[1]
        memo[word] = _run(steps, env, dom, [])[end]
    return _payload_matrix(dom, memo[word])


@dataclass
class Certificate:
    """Machine-checkable record: defining-equation residuals plus witnesses.

    Residuals are relative Frobenius distances (0.0 for exact equality,
    math.inf for exact inequality in exact domains).  Boolean side
    conditions (memberships, Green relations) are encoded 0.0/inf; an exact
    membership is decided by a construction witness when one is given, else
    by a solve.  In JSON a non-finite residual is null.
    """

    kind: str
    route: str
    residuals: dict[str, float]
    tolerance: float
    ok: bool
    witnesses: dict = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    def failure(self) -> str | None:
        """Why the certificate fails, naming the equations outside its
        tolerance; None when it passes."""
        if self.ok:
            return None
        failed = [n for n, v in self.residuals.items() if not all_within((v,), self.tolerance)]
        return f"certificate fails equations {failed}"

    def to_json(self) -> dict:
        wit = {}
        for k, v in self.witnesses.items():
            if isinstance(v, StarMatrix):
                wit[k] = matrix_to_json(v)
            else:
                wit[k] = v
        res = {k: (v if math.isfinite(v) else None) for k, v in self.residuals.items()}
        return {
            "kind": self.kind,
            "route": self.route,
            "residuals": res,
            "tolerance": self.tolerance,
            "ok": self.ok,
            "witnesses": wit,
            "warnings": list(self.warnings),
        }


@dataclass(frozen=True)
class InverseResult:
    """A computed generalized inverse together with its certificate."""

    exists: bool
    value: StarMatrix | None = None
    index: int | None = None
    certificate: Certificate | None = None
    reason: str | None = None


def system_residuals(
    system: tuple[Equation, ...],
    env: dict[str, StarMatrix],
    tol: ToleranceThresholds = DEFAULT_TOL,
) -> dict[str, float]:
    """Residuals per equation: exact 0.0/inf, float relative to the larger of
    the two sides' factor-norm products, each norm floored at 1 (matching the
    solve acceptance bound ||AX-B|| <= tol(||A|| ||X|| + ||B||)).  A product
    bounds its side's norm, as ||m*|| = ||m|| and the Frobenius norm is
    submultiplicative, so neither 1 nor a side's own norm could raise it.
    Words run on payloads along the system's `_plan`, compiled once, forming
    each letter and prefix once; exact sides over unreduced denominators d and
    e are equal iff left e == right d, compared directly when d == e."""
    out, vals, dom = {}, [], env["a"].domain
    letters, equations = _plan(system)
    if not dom.exact:
        # max(1, ||m||) per letter, each matrix's kept norm; the product of a
        # word's factor norms is the forward-error magnitude of evaluating it
        norms = {k: max(1.0, norm_fro(env[k])) for k in letters}
    for name, steps, lhs, rhs, scales in equations:
        _run(steps, env, dom, vals)
        (left, d), (right, e) = vals[lhs], vals[rhs]
        if dom.exact:
            if d != e:
                left, right = [x * e for x in left], [y * d for y in right]
            out[name] = _bool_residual(all(x.tolist() == y.tolist() for x, y in zip(left, right)))
        elif left[0].shape != right[0].shape:
            raise ShapeMismatch(f"{left[0].shape} - {right[0].shape}")
        else:
            scale = max(math.prod(map(norms.__getitem__, side)) for side in scales)
            out[name] = _fro(left[0] - right[0]) / scale
    return out


def assert_system(
    system: tuple[Equation, ...], env: dict[str, StarMatrix], tol: ToleranceThresholds, what: str
):
    """Invariant guard on a constructed inverse, at the guard level of the
    acceptance bound.  A NaN residual fails the guard."""
    res = system_residuals(system, env, tol)
    bound = acceptance_bound(env["a"].domain, tol, guard=True)
    bad = [n for n, v in res.items() if not all_within((v,), bound)]
    if bad:
        raise RouteDisagreement(f"{what}: equations {bad} fail with residuals {res}")


def require_inner(a: StarMatrix, x: StarMatrix, tol: ToleranceThresholds, name: str = "a"):
    """Caller guard on a supplied witness: x must be an inner inverse of a
    (axa = a at the acceptance bound), else PreconditionFailed."""
    res = system_residuals(SYSTEMS["one"], {"a": a, "x": x}, tol)
    if not all_within(res.values(), acceptance_bound(a.domain, tol)):
        raise PreconditionFailed(f"{name}_inner is not an inner inverse of {name}")


def index_cap(a: StarMatrix) -> int:
    """Largest Drazin / pseudo-core index searched for a."""
    cap = max(1, a.rows)
    if a.domain.kind == "integer_mod":
        # power chains over Z/nZ can stabilize later than the dimension
        cap = max(cap, a.rows * a.domain.modulus.bit_length())
    return cap


def _bool_residual(ok: bool) -> float:
    return 0.0 if ok else math.inf


# kinds whose certificate also reports derived equations (E4-E5 / F4-F5);
# only the kind's own defining equations decide
_FULL_SYSTEMS = {"w-core": "w-core-full", "dual-v-core": "dual-v-core-full"}

# membership residuals "t_leq_S_m": t = m z for S = R, t = z m for S = L
_MEMBERSHIPS = {
    "along": ("x_leq_L_d", "x_leq_R_d"),
    "bc": ("x_leq_R_b", "b_leq_R_x", "x_leq_L_c", "c_leq_L_x"),
}


def certify(
    kind: str,
    env: dict[str, StarMatrix],
    tol: ToleranceThresholds = DEFAULT_TOL,
    index: int | None = None,
    route: str = "direct",
    members: dict[str, StarMatrix] | None = None,
) -> Certificate:
    """Re-certify env["x"] as a `kind`-inverse against the defining equations.

    For drazin/core-ep with no index supplied, the smallest passing exponent
    up to the dimension-based cap is searched.  An exact membership with a
    construction witness z in members is decided by one exact product, a
    proof (a wrong z gives inf); without one (`check`), and in float, by a solve.
    """
    a = env["a"]
    bound = acceptance_bound(a.domain, tol)
    residuals: dict[str, float] = {}
    if kind in ("drazin", "core-ep"):
        builder = drazin_system if kind == "drazin" else core_ep_system
        candidates = [index] if index is not None else list(range(1, index_cap(a) + 1))
        best = None
        for k in candidates:
            res = system_residuals(builder(k), env, tol)
            if all_within(res.values(), bound):
                best = (k, res)
                break
            if best is None:
                best = (k, res)
        k, residuals = best
        cert_index = k
    else:
        cert_index = index
        residuals = system_residuals(SYSTEMS[_FULL_SYSTEMS.get(kind, kind)], env, tol)
        known = (members or {}) if a.domain.exact else {}
        for name in _MEMBERSHIPS.get(kind, ()):
            t, _, side, m = name.split("_")
            t, m, z = env[t], env[m], known.get(name)
            if z is None:
                held = (solve_right if side == "R" else solve_left)(m, t, tol) is not None
            else:
                held = (m @ z if side == "R" else z @ m) == t
            residuals[name] = _bool_residual(held)
    deciding = residuals.values()
    if kind in _FULL_SYSTEMS:
        deciding = [residuals[name] for name, _, _ in SYSTEMS[kind]]
    return Certificate(
        kind=kind,
        route=route,
        residuals=residuals,
        tolerance=bound,
        ok=all_within(deciding, bound),
        witnesses={} if cert_index is None else {"index": cert_index},
    )
