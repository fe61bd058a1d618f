"""Defining-equation systems as data, plus certificates built from residuals.

Each inverse kind is characterized by word equations over the letters
{a, w, v, d, b, c, x} and their stars ("a*" means the adjoint of a).  The
same tables drive matrix certification here and the finite-ring oracle,
whose one scanner (`FiniteStarRing.solve_system`) solves them by exhaustive
search, so the two paths cannot drift apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import RouteDisagreement
from .matrix import (
    DEFAULT_TOL,
    StarMatrix,
    ToleranceThresholds,
    acceptance_bound,
    all_within,
    matrix_to_json,
    norm_fro,
    rel_diff,
    solve_left,
    solve_right,
)

Word = tuple[str, ...]
Equation = tuple[str, Word, Word]  # (name, lhs, rhs)

P1: Equation = ("P1", ("a", "x", "a"), ("a",))
P2: Equation = ("P2", ("x", "a", "x"), ("x",))
P3: Equation = ("P3", ("a", "x"), ("x*", "a*"))
P4: Equation = ("P4", ("x", "a"), ("a*", "x*"))

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
    # three-equation core system; the five-equation variant appends P1, P2
    "core": (
        ("C3", ("a", "x", "x"), ("x",)),
        ("C4", ("x", "a", "a"), ("a",)),
        ("C5", ("a", "x"), ("x*", "a*")),
    ),
    "core5": (
        P1,
        P2,
        ("C3", ("a", "x", "x"), ("x",)),
        ("C4", ("x", "a", "a"), ("a",)),
        ("C5", ("a", "x"), ("x*", "a*")),
    ),
    "dual-core": (
        ("C3'", ("x", "x", "a"), ("x",)),
        ("C4'", ("a", "a", "x"), ("a",)),
        ("C5'", ("x", "a"), ("a*", "x*")),
    ),
    "dual-core5": (
        P1,
        P2,
        ("C3'", ("x", "x", "a"), ("x",)),
        ("C4'", ("a", "a", "x"), ("a",)),
        ("C5'", ("x", "a"), ("a*", "x*")),
    ),
    "w-core": (
        ("E1", ("a", "w", "x", "x"), ("x",)),
        ("E2", ("x", "a", "w", "a"), ("a",)),
        ("E3", ("a", "w", "x"), ("x*", "w*", "a*")),
    ),
    "w-core-full": (
        ("E1", ("a", "w", "x", "x"), ("x",)),
        ("E2", ("x", "a", "w", "a"), ("a",)),
        ("E3", ("a", "w", "x"), ("x*", "w*", "a*")),
        ("E4", ("a", "w", "x", "a"), ("a",)),
        ("E5", ("x", "a", "w", "x"), ("x",)),
    ),
    "dual-v-core": (
        ("F1", ("x", "x", "v", "a"), ("x",)),
        ("F2", ("a", "v", "a", "x"), ("a",)),
        ("F3", ("x", "v", "a"), ("a*", "v*", "x*")),
    ),
    "dual-v-core-full": (
        ("F1", ("x", "x", "v", "a"), ("x",)),
        ("F2", ("a", "v", "a", "x"), ("a",)),
        ("F3", ("x", "v", "a"), ("a*", "v*", "x*")),
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


def eval_word(word: Word, env: dict[str, StarMatrix], memo: dict | None = None) -> StarMatrix:
    """The product of the word's letters, left to right.  memo maps words to
    values; sharing it across calls evaluates each prefix and starred letter
    once, in the same order, so results are bit-identical to a fresh call."""
    memo = {} if memo is None else memo
    acc = None
    for k, sym in enumerate(word, 1):
        if (sym,) not in memo:
            memo[(sym,)] = env[sym[:-1]].adjoint() if sym.endswith("*") else env[sym]
        if word[:k] not in memo:
            memo[word[:k]] = acc @ memo[(sym,)]
        acc = memo[word[:k]]
    return acc


@dataclass
class Certificate:
    """Machine-checkable record: defining-equation residuals plus witnesses.

    Residuals are relative Frobenius distances (0.0 for exact equality,
    math.inf for exact inequality in exact domains).  Boolean side
    conditions (memberships, Green relations) are encoded 0.0/inf.  In JSON
    a non-finite residual is null.
    """

    kind: str
    route: str
    residuals: dict[str, float]
    tolerance: float
    ok: bool
    witnesses: dict = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

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
    """Residuals per equation: exact 0.0/inf, float relative to the
    evaluation scale (larger of the side norms and the factor-norm products,
    matching the solve acceptance bound ||AX-B|| <= tol(||A|| ||X|| + ||B||))."""
    out, memo = {}, {}
    a = env["a"]
    if not a.domain.exact:
        # max(1, ||m||) per letter, once per call; the product of a word's
        # factor norms is the forward-error magnitude of evaluating it
        letters = {sym.rstrip("*") for _, lhs, rhs in system for sym in lhs + rhs}
        norms = {k: max(1.0, norm_fro(env[k])) for k in letters}
    for name, lhs, rhs in system:
        left, right = eval_word(lhs, env, memo), eval_word(rhs, env, memo)
        if a.domain.exact:
            out[name] = rel_diff(left, right)
        else:
            scale = max(
                1.0,
                norm_fro(left),
                norm_fro(right),
                math.prod(norms[sym.rstrip("*")] for sym in lhs),
                math.prod(norms[sym.rstrip("*")] for sym in rhs),
            )
            out[name] = norm_fro(left - right) / scale
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


def certify(
    kind: str,
    env: dict[str, StarMatrix],
    tol: ToleranceThresholds = DEFAULT_TOL,
    index: int | None = None,
    route: str = "direct",
) -> Certificate:
    """Re-certify env["x"] as a `kind`-inverse against the defining equations.

    For drazin/core-ep with no index supplied, the smallest passing exponent
    up to the dimension-based cap is searched.
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
        if kind == "along":
            d, x = env["d"], env["x"]
            residuals["x_leq_L_d"] = _bool_residual(solve_left(d, x, tol) is not None)
            residuals["x_leq_R_d"] = _bool_residual(solve_right(d, x, tol) is not None)
        elif kind == "bc":
            b, c, x = env["b"], env["c"], env["x"]
            residuals["x_leq_R_b"] = _bool_residual(solve_right(b, x, tol) is not None)
            residuals["b_leq_R_x"] = _bool_residual(solve_right(x, b, tol) is not None)
            residuals["x_leq_L_c"] = _bool_residual(solve_left(c, x, tol) is not None)
            residuals["c_leq_L_x"] = _bool_residual(solve_left(x, c, tol) is not None)
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
