"""Command-line front end: compute certified inverses, verify theorem
catalogs on finite rings, and re-certify third-party candidates.

Exit codes (stable contract):
  compute: 0 inverse exists and its certificate passes, 3 it does not exist
           or its certificate fails (value and certificate are kept, and
           reason names the failing equations), 1 usage or I/O error,
           2 internal invariant violation (route disagreement)
  verify:  0 all checks pass, 1 bad ring spec, 4 counterexample found
  check:   0 candidate certifies, 3 it does not, 1 usage or I/O error
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .along import bc_inverse, inverse_along
from .classical import (
    IndexedInverse,
    core_ep_inverse,
    core_inverse,
    drazin_inverse,
    dual_core_inverse,
    group_inverse,
)
from .equations import InverseResult, certify
from .errors import GinvError, RouteDisagreement
from .matrix import (
    DEFAULT_TOL,
    ToleranceThresholds,
    all_within,
    matrix_from_json,
    matrix_to_json,
)
from .regular import inner_inverse, mp_inverse, one_four_inverse, one_three_inverse
from .rings import DEFAULT_RING_CAP, enumerate_ring
from .theorems import verify_all, verify_theorem
from .wcore import DUAL_V_CORE_ROUTES, W_CORE_ROUTES, dual_v_core, w_core


def _missing_factor(one_sided):
    # the core inverse is a^# a a^(1,3), the dual-core inverse a^(1,4) a a^#
    def reason(a, tol):
        return "no group inverse" if group_inverse(a, tol) is None else f"no {one_sided}-inverse"

    return reason


# kind -> (solver of the loaded operands, the tolerances and the route; reason
# when it finds no inverse).  A solver returns an InverseResult, which carries
# its own reason, an IndexedInverse, a matrix or None, and looks up the
# module-level function it calls when it runs.  A reason may be a function of
# (a, tol); kinds without one always have an inverse.
_COMPUTE = {
    "one": (lambda tol, route, a: inner_inverse(a, tol), None),
    "one3": (lambda tol, route, a: one_three_inverse(a, tol), "a is not in S a* a"),
    "one4": (lambda tol, route, a: one_four_inverse(a, tol), "a is not in a a* S"),
    "mp": (lambda tol, route, a: mp_inverse(a, tol), "a is not in S a a* a"),
    "group": (lambda tol, route, a: group_inverse(a, tol), "a is not in a^2 S and S a^2"),
    "drazin": (lambda tol, route, a: drazin_inverse(a, tol), None),
    "core": (lambda tol, route, a: core_inverse(a, tol), _missing_factor("{1,3}")),
    "dual-core": (lambda tol, route, a: dual_core_inverse(a, tol), _missing_factor("{1,4}")),
    "core-ep": (
        lambda tol, route, a: core_ep_inverse(a, tol),
        "a^m has no {1,3}-inverse at the Drazin index m",
    ),
    "along": (lambda tol, route, a, d: inverse_along(a, d, tol), None),
    "w-core": (lambda tol, route, a, w: w_core(a, w, route=route, tol=tol), None),
    "dual-v-core": (lambda tol, route, a, v: dual_v_core(a, v, route=route, tol=tol), None),
    "bc": (
        lambda tol, route, a, b, c: bc_inverse(a, b, c, tol),
        "rank(cab) != rank(b) = rank(c) criterion fails",
    ),
}
KINDS = tuple(_COMPUTE)

_EXTRA_OPERANDS = {
    "along": ("d",),
    "w-core": ("w",),
    "dual-v-core": ("v",),
    "bc": ("b", "c"),
}


class _Parser(argparse.ArgumentParser):
    # exit code 2 is reserved for invariant violations; argparse defaults
    # to 2 on usage errors, so remap those to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="ginv", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="compute a generalized inverse with certificate")
    pc.add_argument("--kind", required=True, choices=KINDS)
    pc.add_argument("--a", required=True, help="matrix JSON file for a")
    for name in ("w", "v", "d", "b", "c"):
        pc.add_argument(f"--{name}", help=f"matrix JSON file for {name}")
    pc.add_argument("--route", default=None, help="route selector (w-core / dual-v-core)")
    pc.add_argument("--tol", type=float, default=None, help="residual tolerance override")
    pc.add_argument("--rank-tol", type=float, default=None, help="rank tolerance override")
    pc.add_argument("--out", default=None, help="write the JSON result here instead of stdout")

    pv = sub.add_parser("verify", help="run the theorem catalog on a finite *-ring")
    pv.add_argument("--ring", required=True, help='ring spec, e.g. "zmod:6" or "mat:2:gf2"')
    pv.add_argument("--theorem", default=None, help="single theorem id")
    pv.add_argument("--all", action="store_true", help="run the full catalog")
    pv.add_argument("--cap", type=int, default=DEFAULT_RING_CAP, help="largest allowed ring size")
    pv.add_argument("--out", default=None, help="write the JSON report here")

    pk = sub.add_parser("check", help="re-certify a candidate inverse")
    pk.add_argument("--kind", required=True, choices=KINDS)
    pk.add_argument("--a", required=True)
    for name in ("w", "v", "d", "b", "c"):
        pk.add_argument(f"--{name}")
    pk.add_argument("--candidate", required=True)
    pk.add_argument("--tol", type=float, default=None)
    pk.add_argument("--rank-tol", type=float, default=None)
    return p


def _tolerances(args) -> ToleranceThresholds:
    res = args.tol if args.tol is not None else DEFAULT_TOL.residual_rel_tol
    rnk = getattr(args, "rank_tol", None)
    rnk = rnk if rnk is not None else DEFAULT_TOL.rank_rel_tol
    if res <= 0 or rnk <= 0:
        raise GinvError("tolerance overrides must be positive")
    return ToleranceThresholds(rank_rel_tol=rnk, residual_rel_tol=res)


def _load_matrix(path: str):
    with open(path, encoding="utf-8") as fh:
        return matrix_from_json(json.load(fh))


def _load_operands(args, kind: str) -> dict:
    mats = {"a": _load_matrix(args.a)}
    for name in _EXTRA_OPERANDS.get(kind, ()):
        path = getattr(args, name)
        if path is None:
            raise GinvError(f"--{name} is required for kind {kind}")
        mats[name] = _load_matrix(path)
    return mats


def _emit(obj: dict, out_path: str | None):
    # strict JSON: a NaN or infinity raises ValueError (exit 1), never a bare token
    text = json.dumps(obj, indent=2, allow_nan=False)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_compute(args) -> int:
    tol = _tolerances(args)
    kind = args.kind
    mats = _load_operands(args, kind)
    route = args.route
    if route is not None:
        valid = {"w-core": W_CORE_ROUTES, "dual-v-core": DUAL_V_CORE_ROUTES}.get(kind)
        if valid is None:
            raise GinvError(f"--route is not valid for kind {kind}")
        if route != "all" and route not in valid:
            raise GinvError(f"unknown route {route!r} for {kind}; choose from {valid}")

    solve, why_not = _COMPUTE[kind]
    res = solve(tol, route or "all", **mats)
    index = cert = reason = None
    if isinstance(res, InverseResult):
        exists, value, cert, reason = res.exists, res.value, res.certificate, res.reason
    else:
        value, index = res if isinstance(res, IndexedInverse) else (res, None)
        exists = value is not None
        if not exists:
            reason = why_not(mats["a"], tol) if callable(why_not) else why_not

    if exists and cert is None:
        env = dict(mats)
        env["x"] = value
        cert = certify(kind, env, tol, index=index)
    if exists and not cert.ok:
        exists = False
        failed = [n for n, v in cert.residuals.items() if not all_within((v,), cert.tolerance)]
        reason = f"certificate fails equations {failed}"
    result = {
        "schema": 1,
        "kind": kind,
        "exists": exists,
        "value": matrix_to_json(value) if value is not None else None,
        "index": index,
        "reason": reason,
        "certificate": cert.to_json() if cert is not None else None,
    }
    _emit(result, args.out)
    return 0 if exists else 3


def _cmd_verify(args) -> int:
    try:
        ring = enumerate_ring(args.ring, cap=args.cap)
    except GinvError as exc:
        print(f"ginv verify: bad ring spec: {exc}", file=sys.stderr)
        return 1
    if args.theorem is not None:
        reports = [verify_theorem(ring, args.theorem)]
    else:
        reports = verify_all(ring)
    bad = 0
    for rep in reports:
        if rep.skipped:
            status = f"SKIPPED ({rep.note})"
        elif rep.ok():
            status = f"ok ({rep.instances_checked} instances, {rep.elapsed:.2f}s)"
        else:
            status = f"FAIL ({len(rep.counterexamples)} counterexamples)"
            bad += len(rep.counterexamples)
        print(f"{rep.theorem_id:24s} {status}")
    report_obj = {
        "schema": 1,
        "ring": ring.spec,
        "counterexample_count": bad,
        "reports": [r.to_json() for r in reports],
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report_obj, fh, indent=2)
            fh.write("\n")
    return 4 if bad else 0


def _cmd_check(args) -> int:
    tol = _tolerances(args)
    kind = args.kind
    env = _load_operands(args, kind)
    env["x"] = _load_matrix(args.candidate)
    cert = certify(kind, env, tol, route="check")
    _emit({"schema": 1, "kind": kind, "certificate": cert.to_json()}, None)
    return 0 if cert.ok else 3


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # stderr carries one line; the NaN-safe guards and certificates
        # already judge non-finite float values, so numpy stays quiet
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if args.command == "compute":
                return _cmd_compute(args)
            if args.command == "verify":
                return _cmd_verify(args)
            return _cmd_check(args)
    except RouteDisagreement as exc:
        print(f"ginv: internal invariant violation: {exc}", file=sys.stderr)
        return 2
    except (GinvError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"ginv: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
