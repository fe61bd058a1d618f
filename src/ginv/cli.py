"""Command-line front end: compute certified inverses, verify theorem
catalogs on finite rings, and re-certify third-party candidates.

Exit codes (stable contract):
  compute: 0 inverse exists, 3 it does not, 1 usage or I/O error,
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
    core_ep_inverse,
    core_inverse,
    core_nonexistence_reason,
    drazin_inverse,
    dual_core_inverse,
    group_inverse,
)
from .equations import certify
from .errors import GinvError, RouteDisagreement
from .matrix import (
    DEFAULT_TOL,
    ToleranceThresholds,
    matrix_from_json,
    matrix_to_json,
)
from .regular import inner_inverse, mp_inverse, one_four_inverse, one_three_inverse
from .rings import enumerate_ring
from .theorems import verify_all, verify_theorem
from .wcore import DUAL_V_CORE_ROUTES, W_CORE_ROUTES, dual_v_core, w_core

KINDS = (
    "one",
    "one3",
    "one4",
    "mp",
    "group",
    "drazin",
    "core",
    "dual-core",
    "core-ep",
    "along",
    "w-core",
    "dual-v-core",
    "bc",
)

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
    pv.add_argument("--cap", type=int, default=6561, help="largest allowed ring size")
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
    text = json.dumps(obj, indent=2)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_compute(args) -> int:
    tol = _tolerances(args)
    kind = args.kind
    mats = _load_operands(args, kind)
    a = mats["a"]
    route = args.route
    if route is not None:
        valid = {"w-core": W_CORE_ROUTES, "dual-v-core": DUAL_V_CORE_ROUTES}.get(kind)
        if valid is None:
            raise GinvError(f"--route is not valid for kind {kind}")
        if route != "all" and route not in valid:
            raise GinvError(f"unknown route {route!r} for {kind}; choose from {valid}")

    exists, value, index, cert, reason = False, None, None, None, None
    if kind == "w-core":
        res = w_core(a, mats["w"], route=route or "all", tol=tol)
        exists, value, cert, reason = res.exists, res.value, res.certificate, res.reason
    elif kind == "dual-v-core":
        res = dual_v_core(a, mats["v"], route=route or "all", tol=tol)
        exists, value, cert, reason = res.exists, res.value, res.certificate, res.reason
    elif kind == "along":
        res = inverse_along(a, mats["d"], tol)
        exists, value, cert, reason = res.exists, res.value, res.certificate, res.reason
    elif kind == "bc":
        value = bc_inverse(a, mats["b"], mats["c"], tol)
        exists = value is not None
        reason = None if exists else "rank(cab) != rank(b) = rank(c) criterion fails"
    elif kind == "one":
        value = inner_inverse(a, tol)
        exists = True
    elif kind == "one3":
        value = one_three_inverse(a, tol)
        exists = value is not None
        reason = None if exists else "a is not in S a* a"
    elif kind == "one4":
        value = one_four_inverse(a, tol)
        exists = value is not None
        reason = None if exists else "a is not in a a* S"
    elif kind == "mp":
        value = mp_inverse(a, tol)
        exists = value is not None
        reason = None if exists else "a is not in S a a* a"
    elif kind == "group":
        value = group_inverse(a, tol)
        exists = value is not None
        reason = None if exists else "a is not in a^2 S and S a^2"
    elif kind == "drazin":
        res = drazin_inverse(a, tol)
        value, index, exists = res.value, res.index, True
    elif kind == "core":
        value = core_inverse(a, tol)
        exists = value is not None
        reason = None if exists else core_nonexistence_reason(a, tol)
    elif kind == "dual-core":
        value = dual_core_inverse(a, tol)
        exists = value is not None
        reason = None if exists else core_nonexistence_reason(a, tol)
    elif kind == "core-ep":
        res = core_ep_inverse(a, tol)
        if res is not None:
            value, index, exists = res.value, res.index, True
        else:
            reason = "a^m has no {1,3}-inverse at the Drazin index m"

    if exists and cert is None:
        env = dict(mats)
        env["x"] = value
        cert = certify(kind, env, tol, index=index)
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
    print(json.dumps({"schema": 1, "kind": kind, "certificate": cert.to_json()}, indent=2))
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
