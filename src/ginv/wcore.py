"""The w-core inverse and the dual v-core inverse, by independent routes.

An element a is w-core invertible when some x satisfies awx^2 = x,
xawa = a, (awx)* = awx; then x is unique, awxa = a and xawx = x follow,
and wx is a {1,2,3}-inverse of a.  Routes implemented:

  mary_13          w^{||a} a^{(1,3)}
  core_of_aw       core inverse of aw (requires a in awS)
  projection_unit  u^{-1}(1-p) with p = 1 - (aw)(aw)_core, u = p + aw
  rank_formula     A (AWA)^+ A A^+           (rank(A) = rank(AWA) criterion)
  section3_unit    t^{-1} a a*  with t = a a* a w + 1 - a a^-
  as_along         inverse of aw along a a*  (needs a MP-invertible)
  as_bc            (a, a*)-inverse of aw

The dual v-core inverse of (a, v) is the star of the w-core inverse of
(a*, v*), so its routes are w-core-form routes run on (a*, v*): mary_14,
dual_core_of_va, rank_formula and section3_unit are the stars of mary_13,
core_of_aw, rank_formula and section3_unit, and group_va / group_av are the
stars of (aw)^# a a^{(1,3)} and a (wa)^# a^{(1,3)}.  The value is certified
against the dual equations on the original (a, v).

All successful routes must agree; disagreement is an internal fault, never
a normal result.  In ComplexFloat the rank criterion alone decides
existence and algebraic-route hiccups at borderline rank become warnings.
Over GF(p) the rank criterion is necessary but not sufficient (a {1,3}-
inverse can be missing), so the algebraic path is authoritative there.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, NamedTuple

from .along import bc_inverse, inverse_along
from .classical import core_ep_inverse, core_inverse, group_inverse
from .equations import InverseResult, certify
from .errors import PreconditionFailed, RouteDisagreement, ShapeMismatch, UnsupportedDomain
from .matrix import (
    DEFAULT_TOL,
    StarMatrix,
    ToleranceThresholds,
    acceptance_bound,
    all_within,
    disagree,
    inverse,
    is_projection,
    rank,
    rel_diff,
    solve_left,
    solve_right,
)
from .regular import inner_inverse, mp_inverse, one_three_inverse

W_CORE_ROUTES = (
    "mary_13",
    "core_of_aw",
    "projection_unit",
    "rank_formula",
    "section3_unit",
    "as_along",
    "as_bc",
)

DUAL_V_CORE_ROUTES = (
    "mary_14",
    "dual_core_of_va",
    "group_va",
    "group_av",
    "rank_formula",
    "section3_unit",
)

# domains where the conjugate involution is definite: a* a = 0 forces a = 0,
# so {1,3}/{1,4}/MP inverses always exist and the rank criterion
# rank(A) = rank(AWA) is equivalent to w-core existence
_DEFINITE_KINDS = ("rational", "gaussian_rational", "complex_float")


def _check_pair(a: StarMatrix, w: StarMatrix):
    if not (a.is_square() and a.shape == w.shape):
        raise ShapeMismatch("w-core inverses need square, same-size inputs")
    if a.domain != w.domain:
        raise ShapeMismatch("inputs must share a domain")


class _RouteOutcome(NamedTuple):
    value: StarMatrix | None = None
    witnesses: dict = {}
    reason: str | None = None
    degraded: bool = False  # float: built through an ill-conditioned solve


# the intermediates routes share, each a deterministic function of
# (a, w, tol): computing one once costs the routes' cross-check no independence
_SHARED: dict[str, Callable] = {
    "a_star": lambda c: c.a.adjoint(),
    "aw": lambda c: c.a @ c.w,
    "awa": lambda c: c.aw @ c.a,
    "aa_star": lambda c: c.a @ c.a_star,
    "rank_ok": lambda c: rank(c.a, c.tol) == rank(c.awa, c.tol),
    "mp": lambda c: mp_inverse(c.a, c.tol),
    # canonical {1,3}-inverse: the MP inverse when it exists
    "one_three": lambda c: c.mp if c.mp is not None else one_three_inverse(c.a, c.tol),
    "w_along_a": lambda c: inverse_along(c.w, c.a, c.tol),
    "core_aw": lambda c: core_inverse(c.aw, c.tol),
    "a_inner": lambda c: inner_inverse(c.a, c.tol),
}


class _Context:
    """One (a, w, tol); each _SHARED intermediate is computed on first use
    and then kept.  Keyword arguments seed values already known."""

    def __init__(self, a: StarMatrix, w: StarMatrix, tol: ToleranceThresholds, **known):
        self.a, self.w, self.tol = a, w, tol
        self.exact = a.domain.exact
        self.definite = a.domain.kind in _DEFINITE_KINDS
        self.outcomes: dict[str, _RouteOutcome | None] = {}
        self.__dict__.update((k, v) for k, v in known.items() if v is not None)

    def __getattr__(self, name):
        if name not in _SHARED:
            raise AttributeError(name)
        value = _SHARED[name](self)
        setattr(self, name, value)
        return value

    def route(self, name: str) -> _RouteOutcome | None:
        """The outcome of one w-core-form route; None when inapplicable."""
        if name not in self.outcomes:
            self.outcomes[name] = _ROUTES[name](self)
        return self.outcomes[name]


def _missing(c: _Context) -> str | None:
    """Why a has no w-core inverse, or None when it has one.

    The rank criterion decides in float and Mary's criterion (w invertible
    along a, a {1,3}-invertible) in exact domains; over definite exact
    domains both apply and must agree.
    """
    if not c.exact:
        return None if c.rank_ok else "rank(A) != rank(AWA)"
    reason = None
    if not c.w_along_a.exists:
        reason = "w is not invertible along a"
    elif c.one_three is None:
        reason = "a has no {1,3}-inverse"
    if c.definite and c.rank_ok != (reason is None):
        raise RouteDisagreement("rank criterion and algebraic criterion disagree on existence")
    return reason


def _route_mary_13(c):
    along = c.w_along_a
    if not along.exists:
        return _RouteOutcome(reason="w is not invertible along a")
    if c.one_three is None:
        return _RouteOutcome(reason="a has no {1,3}-inverse")
    return _RouteOutcome(
        along.value @ c.one_three,
        {"w_along_a": along.value, "one_three": c.one_three},
        degraded=bool(along.certificate.warnings),
    )


def _route_core_of_aw(c):
    if solve_right(c.aw, c.a, c.tol) is None:
        return _RouteOutcome(reason="a is not in awS")
    if c.core_aw is None:
        return _RouteOutcome(reason="aw has no core inverse")
    return _RouteOutcome(c.core_aw)


def _route_projection_unit(c):
    a, aw = c.a, c.aw
    if c.core_aw is None:
        return _RouteOutcome(reason="aw has no core inverse")
    ident = StarMatrix.identity(a.rows, a.domain)
    p = ident - aw @ c.core_aw
    if not is_projection(p, c.tol):
        if c.exact:
            raise RouteDisagreement("1 - (aw)(aw)_core is not a projection")
        return _RouteOutcome(reason="projection construction lost precision")
    zero = StarMatrix.zeros(a.rows, a.cols, a.domain)
    if disagree(p @ a, zero, acceptance_bound(a.domain, c.tol)):
        return _RouteOutcome(reason="projection criterion fails: pa != 0")
    u = p + aw
    u_inv = inverse(u, c.tol)
    if u_inv is None:
        return _RouteOutcome(reason="p + aw is not invertible")
    return _RouteOutcome(u_inv @ (ident - p), {"projection": p, "unit": u})


def _route_rank_formula(c):
    if not c.definite:
        return None  # inapplicable
    if not c.rank_ok:
        return _RouteOutcome(reason="rank(A) != rank(AWA)")
    mp_awa = mp_inverse(c.awa, c.tol)
    if mp_awa is None or c.mp is None:
        raise RouteDisagreement("MP inverse missing over a definite domain")
    return _RouteOutcome(c.a @ mp_awa @ c.a @ c.mp)


def _route_section3_unit(c):
    if not c.definite:
        return None  # unit criterion characterizes the intersection only
    ident = StarMatrix.identity(c.a.rows, c.a.domain)
    t = c.aa_star @ c.a @ c.w + ident - c.a @ c.a_inner
    t_inv = inverse(t, c.tol)
    if t_inv is None:
        return _RouteOutcome(reason="a a* a w + 1 - a a^- is not invertible")
    return _RouteOutcome(t_inv @ c.aa_star, {"section3_unit": t})


def _route_as_along(c):
    if c.mp is None:
        return None  # hypothesis a in S^dagger unmet
    res = inverse_along(c.aw, c.aa_star, c.tol)
    if not res.exists:
        return _RouteOutcome(reason="aw is not invertible along aa*")
    if not res.certificate.ok:
        return _RouteOutcome(reason="inverse along aa* lost precision")
    return _RouteOutcome(res.value, degraded=bool(res.certificate.warnings))


def _route_as_bc(c):
    if c.a.domain.kind == "integer_mod":
        return None  # needs rank machinery
    y = bc_inverse(c.aw, c.a, c.a_star, c.tol)
    if y is None:
        return _RouteOutcome(reason="aw is not (a, a*)-invertible")
    return _RouteOutcome(y)


def _route_group_aw(c):
    # (aw)^# a a^{(1,3)}: the star of the dual's group_va
    if c.one_three is None:
        return _RouteOutcome(reason="a has no {1,3}-inverse")
    g = group_inverse(c.aw, c.tol)
    if g is None:
        return _RouteOutcome(reason="aw has no group inverse")
    return _RouteOutcome(g @ c.a @ c.one_three)


def _route_group_wa(c):
    # a (wa)^# a^{(1,3)}: the star of the dual's group_av
    if c.one_three is None:
        return _RouteOutcome(reason="a has no {1,3}-inverse")
    g = group_inverse(c.w @ c.a, c.tol)
    if g is None:
        return _RouteOutcome(reason="wa has no group inverse")
    return _RouteOutcome(c.a @ g @ c.one_three)


_ROUTES: dict[str, Callable[[_Context], _RouteOutcome | None]] = {
    "mary_13": _route_mary_13,
    "core_of_aw": _route_core_of_aw,
    "projection_unit": _route_projection_unit,
    "rank_formula": _route_rank_formula,
    "section3_unit": _route_section3_unit,
    "as_along": _route_as_along,
    "as_bc": _route_as_bc,
    # run by the dual v-core only
    "group_aw": _route_group_aw,
    "group_wa": _route_group_wa,
}


@dataclass(frozen=True)
class _Form:
    """One public inverse as w-core-form routes over a context.

    With `star`, the context holds (a*, w*) and values, witnesses and
    wording are mapped back to the original operands.
    """

    kind: str  # certificate kind
    letter: str  # name of the second operand
    routes: dict[str, str]  # public route name -> w-core-form route
    star: bool = False
    wording: dict[str, str] = dc_field(default_factory=dict)
    witnesses: dict[str, str] = dc_field(default_factory=dict)


_W_FORM = _Form("w-core", "w", {name: name for name in W_CORE_ROUTES})

_DUAL_FORM = _Form(
    "dual-v-core",
    "v",
    {
        "mary_14": "mary_13",
        "dual_core_of_va": "core_of_aw",
        "group_va": "group_aw",
        "group_av": "group_wa",
        "rank_formula": "rank_formula",
        "section3_unit": "section3_unit",
    },
    star=True,
    wording={
        "w is not invertible along a": "v is not invertible along a",
        "a has no {1,3}-inverse": "a has no {1,4}-inverse",
        "rank(A) != rank(AWA)": "rank(A) != rank(AVA)",
        "a is not in awS": "a is not in Sva",
        "aw has no core inverse": "va has no dual-core inverse",
        "aw has no group inverse": "va has no group inverse",
        "wa has no group inverse": "av has no group inverse",
        "a a* a w + 1 - a a^- is not invertible": "v a a* a + 1 - a^- a is not invertible",
    },
    witnesses={
        "w_along_a": "v_along_a",
        "one_three": "one_four",
        "section3_unit": "section3_unit_dual",
    },
)


def _solve(
    form: _Form, a: StarMatrix, w: StarMatrix, route: str, ctx: _Context
) -> InverseResult:
    """Run one route or all of them, cross-check, and certify on (a, w)."""
    if route != "all" and route not in form.routes:
        raise PreconditionFailed(f"unknown {form.kind} route {route!r}")
    exact, tol = ctx.exact, ctx.tol

    def say(reason):
        return form.wording.get(reason, reason)

    def certified(x, witnesses, label, warnings=()):
        if form.star:
            x = x.adjoint()
            witnesses = {form.witnesses[k]: m.adjoint() for k, m in witnesses.items()}
        cert = certify(form.kind, {"a": a, form.letter: w, "x": x}, tol, route=label)
        cert.witnesses.update(witnesses)
        cert.warnings.extend(warnings)
        return x, cert

    if route != "all":
        # float existence is the rank criterion's call even for single routes;
        # unit-style routes cannot tell singular from condition 1/eps
        if not exact and not ctx.rank_ok:
            return InverseResult(False, reason=say("rank(A) != rank(AWA)"))
        out = ctx.route(form.routes[route])
        if out is None:
            return InverseResult(False, reason=f"route {route} not applicable here")
        if out.value is None:
            return InverseResult(False, reason=say(out.reason))
        x, cert = certified(out.value, out.witnesses, route)
        return InverseResult(cert.ok, value=x, certificate=cert)

    reason = _missing(ctx)
    if reason is not None:
        return InverseResult(False, reason=say(reason))
    values: dict[str, StarMatrix] = {}
    degraded: dict[str, StarMatrix] = {}
    witnesses: dict = {}
    warnings: list[str] = []
    for name, base in form.routes.items():
        out = ctx.route(base)
        if out is None:
            continue
        if out.value is None:
            reason = say(out.reason)
            if exact:
                raise RouteDisagreement(f"route {name} failed while others exist: {reason}")
            warnings.append(f"route {name} failed near tolerance: {reason}")
            continue
        witnesses.update(out.witnesses)
        if out.degraded:
            # value built through an ill-conditioned solve: keep it out of
            # the agreement set, the remaining routes carry the answer
            warnings.append(f"route {name} degraded by conditioning; excluded")
            degraded[name] = out.value
            continue
        values[name] = out.value
    if not values:
        if not degraded:
            raise RouteDisagreement("existence asserted but every route failed")
        values = dict(list(degraded.items())[:1])
        warnings.append("all routes degraded; using the first value unchecked")
    (first_name, first), *others = values.items()
    bound = acceptance_bound(a.domain, tol, guard=True)
    for other, value in others:
        if disagree(first, value, bound):
            raise RouteDisagreement(
                f"routes {first_name} and {other} disagree on the {form.kind} inverse"
            )
    x, cert = certified(first, witnesses, "all", warnings)
    if exact and not cert.ok:
        raise RouteDisagreement(f"exact {form.kind} value failed its defining equations")
    return InverseResult(True, value=x, certificate=cert)


def w_core_exists(a: StarMatrix, w: StarMatrix, tol: ToleranceThresholds = DEFAULT_TOL) -> bool:
    """Existence test; rank path and algebraic path must agree where both apply."""
    _check_pair(a, w)
    return _missing(_Context(a, w, tol)) is None


def w_core(
    a: StarMatrix,
    w: StarMatrix,
    route: str = "all",
    tol: ToleranceThresholds = DEFAULT_TOL,
    a_inner: StarMatrix | None = None,
) -> InverseResult:
    """The w-core inverse of a, certified against its defining equations."""
    _check_pair(a, w)
    return _solve(_W_FORM, a, w, route, _Context(a, w, tol, a_inner=a_inner))


def dual_v_core(
    a: StarMatrix,
    v: StarMatrix,
    route: str = "all",
    tol: ToleranceThresholds = DEFAULT_TOL,
) -> InverseResult:
    """The dual v-core inverse of a: y with y^2 v a = y, a v a y = a, (yva)* = yva.

    Computed as ((a*)_{v*})*, the star of a w-core inverse, by the w-core
    routes run on (a*, v*); the certificate is taken on (a, v).
    """
    _check_pair(a, v)
    return _solve(_DUAL_FORM, a, v, route, _Context(a.adjoint(), v.adjoint(), tol, a_star=a))


def w_core_via_projection(
    a: StarMatrix, w: StarMatrix, tol: ToleranceThresholds = DEFAULT_TOL
) -> InverseResult:
    """Projection + unit criterion route, exposed on its own."""
    return w_core(a, w, route="projection_unit", tol=tol)


def wcore_as_along(
    a: StarMatrix, w: StarMatrix, tol: ToleranceThresholds = DEFAULT_TOL
) -> StarMatrix | None:
    """Inverse of aw along aa*; equals the w-core inverse when a is MP-invertible."""
    _check_pair(a, w)
    ctx = _Context(a, w, tol)
    out = ctx.route("as_along")
    if out is None:
        raise PreconditionFailed("theorem hypothesis: a must be MP-invertible")
    if out.value is None:
        return None
    ref = _solve(_W_FORM, a, w, "all", ctx)
    bound = acceptance_bound(a.domain, tol, guard=True)
    if not ref.exists or disagree(out.value, ref.value, bound):
        raise RouteDisagreement("(aw)^{||aa*} disagrees with the w-core inverse")
    return out.value


def wcore_as_bc(
    a: StarMatrix, w: StarMatrix, tol: ToleranceThresholds = DEFAULT_TOL
) -> StarMatrix | None:
    """(a, a*)-inverse of aw; equals the w-core inverse when either exists."""
    _check_pair(a, w)
    ctx = _Context(a, w, tol)
    out = ctx.route("as_bc")
    if out is None:
        raise UnsupportedDomain(f"rank is not defined over {a.domain!r}")
    ref = _solve(_W_FORM, a, w, "all", ctx)
    if out.value is None:
        if ref.exists and ctx.exact:
            raise RouteDisagreement("w-core exists but the (a, a*)-inverse of aw does not")
        return None  # float borderline; the route=all path warns instead
    bound = acceptance_bound(a.domain, tol, guard=True)
    if not ref.exists or disagree(out.value, ref.value, bound):
        raise RouteDisagreement("(a, a*)-inverse of aw disagrees with the w-core inverse")
    return out.value


# ---------------------------------------------------------------------------
# derived results


def star_duality_check(
    a: StarMatrix, w: StarMatrix, tol: ToleranceThresholds = DEFAULT_TOL
) -> bool:
    """(a_w)* = (a*)_{w*,dual}: existence and values must match across the star."""
    r1 = w_core(a, w, tol=tol)
    r2 = dual_v_core(a.adjoint(), w.adjoint(), tol=tol)
    if r1.exists != r2.exists:
        return False
    if not r1.exists:
        return True
    distance = rel_diff(r1.value.adjoint(), r2.value)
    return all_within((distance,), acceptance_bound(a.domain, tol, guard=True))


def w_core_of_w_core(
    a: StarMatrix, w: StarMatrix, tol: ToleranceThresholds = DEFAULT_TOL
) -> StarMatrix:
    """Core inverse of a_w, which always exists and equals (aw)^2 a_w."""
    res = w_core(a, w, tol=tol)
    if not res.exists:
        raise PreconditionFailed("a is not w-core invertible")
    c = core_inverse(res.value, tol)
    if c is None:
        raise RouteDisagreement("the w-core inverse lost core invertibility")
    expected = (a @ w).pow(2) @ res.value
    if disagree(c, expected, acceptance_bound(a.domain, tol, guard=True)):
        raise RouteDisagreement("(a_w)_core does not equal (aw)^2 a_w")
    return c


def ideal_form_membership(
    a: StarMatrix, w: StarMatrix, n: int, tol: ToleranceThresholds = DEFAULT_TOL
) -> bool:
    """a in S[(aw)*]^n a  and  a in S(aw)^{n-1} a, for n >= 2."""
    if n < 2:
        raise PreconditionFailed("the ideal-form test is stated for n >= 2")
    aw = a @ w
    e1 = aw.adjoint().pow(n) @ a
    e2 = aw.pow(n - 1) @ a
    return solve_left(e1, a, tol) is not None and solve_left(e2, a, tol) is not None


def special_cases(
    a: StarMatrix, which: str, tol: ToleranceThresholds = DEFAULT_TOL
) -> InverseResult:
    """Collapses of the w-core inverse for w in {a, a*} and the pseudo-core power form."""
    bound = acceptance_bound(a.domain, tol, guard=True)
    if which == "a_core":
        res = w_core(a, a, tol=tol)
        core = core_inverse(a, tol)
        if res.exists != (core is not None):
            raise RouteDisagreement("a-core and core invertibility disagree")
        if res.exists:
            if disagree(core, a @ res.value, bound):
                raise RouteDisagreement("a_core does not satisfy core = a * a_a")
            g = group_inverse(a, tol)
            if disagree(res.value, g @ core, bound):
                raise RouteDisagreement("a_a does not equal a^# a_core")
        return res
    if which == "astar_core":
        res = w_core(a, a.adjoint(), tol=tol)
        mp = mp_inverse(a, tol)
        if res.exists != (mp is not None):
            raise RouteDisagreement("a*-core and MP invertibility disagree")
        if res.exists and disagree(res.value, mp.adjoint() @ mp, bound):
            raise RouteDisagreement("a*-core inverse does not equal (a+)* a+")
        return res
    if which == "dual_astar_core":
        res = dual_v_core(a, a.adjoint(), tol=tol)
        mp = mp_inverse(a, tol)
        if res.exists != (mp is not None):
            raise RouteDisagreement("dual a*-core and MP invertibility disagree")
        if res.exists and disagree(res.value, mp @ mp.adjoint(), bound):
            raise RouteDisagreement("dual a*-core inverse does not equal a+ (a+)*")
        return res
    if which == "pseudo_power":
        cep = core_ep_inverse(a, tol)
        if cep is None:
            return InverseResult(False, reason="a is not pseudo-core invertible")
        n = cep.index
        an = a.pow(n)
        core_an = core_inverse(an, tol)
        acore_an = w_core(an, a, tol=tol)
        if core_an is None or not acore_an.exists:
            raise RouteDisagreement("a^n lost (a-)core invertibility at the pseudo-core index")
        if disagree(cep.value, a.pow(n - 1) @ core_an, bound):
            raise RouteDisagreement("pseudo-core does not equal a^{n-1} (a^n)_core")
        if disagree(cep.value, an @ acore_an.value, bound):
            raise RouteDisagreement("pseudo-core does not equal a^n (a^n)_a")
        return InverseResult(True, value=cep.value, index=n)
    raise PreconditionFailed(f"unknown special case {which!r}")


@dataclass
class UnitReport:
    """Invertibility of the ring-theoretic unit expressions and formula agreement."""

    hypothesis_met: bool  # v invertible along a
    units: dict[str, bool] = dc_field(default_factory=dict)
    exists_w_core: bool = False
    exists_dual_v_core: bool = False
    exists_dual_w_core: bool = False
    values: dict[str, StarMatrix] = dc_field(default_factory=dict)
    notes: list[str] = dc_field(default_factory=list)


def section3_units(
    a: StarMatrix,
    w: StarMatrix,
    v: StarMatrix,
    a_inner: StarMatrix | None = None,
    tol: ToleranceThresholds = DEFAULT_TOL,
) -> UnitReport:
    """Evaluate the ring-theoretic unit criteria and assert their biconditionals.

    The joint (w, v) criteria require the hypothesis v invertible along a;
    when it fails the report degrades to the one direction that survives
    (joint existence must then be false).  The single-w criteria need no
    hypothesis beyond regularity of a.
    """
    _check_pair(a, w)
    _check_pair(a, v)
    if a_inner is None:
        a_inner = inner_inverse(a, tol)
    ident = StarMatrix.identity(a.rows, a.domain)
    astar = a.adjoint()
    aa_in = a @ a_inner
    in_a = a_inner @ a
    hypothesis = inverse_along(v, a, tol).exists

    report = UnitReport(hypothesis_met=hypothesis)
    ref_w, ref_v = w_core(a, w, tol=tol), dual_v_core(a, v, tol=tol)
    ref_dw = dual_v_core(a, w, tol=tol)
    report.exists_w_core = ref_w.exists
    report.exists_dual_v_core = ref_v.exists
    report.exists_dual_w_core = ref_dw.exists

    units: dict[str, StarMatrix] = {
        "u_wv": a @ w @ a @ v @ a @ astar + ident - aa_in,
        "r_wv": a @ v @ a @ w @ a @ astar + ident - aa_in,
        "s_wv": w @ a @ v @ a @ astar @ a + ident - in_a,
        "t_wv": v @ a @ w @ a @ astar @ a + ident - in_a,
        "u_w": a @ w @ a @ astar + ident - aa_in,
        "r_w": astar @ a @ w @ a + ident - in_a,
        "s_w": w @ a @ astar @ a + ident - in_a,
        "t_w": a @ astar @ a @ w + ident - aa_in,
    }
    inverses = {name: inverse(m, tol) for name, m in units.items()}
    report.units = {name: inv is not None for name, inv in inverses.items()}

    joint_wv = report.exists_w_core and report.exists_dual_v_core
    joint_ww = report.exists_w_core and report.exists_dual_w_core
    wv_names = ("u_wv", "r_wv", "s_wv", "t_wv")
    w_names = ("u_w", "r_w", "s_w", "t_w")

    if hypothesis:
        for name in wv_names:
            if report.units[name] != joint_wv:
                raise RouteDisagreement(
                    f"unit {name} invertibility does not match joint existence"
                )
    else:
        if joint_wv:
            raise RouteDisagreement(
                "joint existence implies v invertible along a, but hypothesis failed"
            )
        report.notes.append("hypothesis v in R^(||a) unmet; joint criteria skipped")
    for name in w_names:
        if report.units[name] != joint_ww:
            raise RouteDisagreement(
                f"unit {name} invertibility does not match w/dual-w existence"
            )

    bound = acceptance_bound(a.domain, tol, guard=True)
    if joint_wv and hypothesis:
        u_inv, s_inv, t_inv = inverses["u_wv"], inverses["s_wv"], inverses["t_wv"]
        middle = (u_inv @ a @ w @ a @ v @ a).adjoint()
        val_w = a @ v @ a @ astar @ a @ s_inv @ middle
        val_v = middle @ a @ w @ a @ astar @ a @ t_inv
        if disagree(val_w, ref_w.value, bound) or disagree(val_v, ref_v.value, bound):
            raise RouteDisagreement("joint unit formulas disagree with direct values")
        report.values["w_core_wv"] = val_w
        report.values["dual_v_core_wv"] = val_v
    if joint_ww:
        t_inv, s_inv = inverses["t_w"], inverses["s_w"]
        val_w = t_inv @ a @ astar
        val_dw = astar @ a @ s_inv
        if disagree(val_w, ref_w.value, bound) or disagree(val_dw, ref_dw.value, bound):
            raise RouteDisagreement("single-w unit formulas disagree with direct values")
        report.values["w_core_w"] = val_w
        report.values["dual_w_core_w"] = val_dw
    return report
