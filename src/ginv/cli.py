"""Command-line front end: compute certified inverses, verify theorem
catalogs on finite rings, and re-certify third-party candidates.

Each command loads only what it uses: compute the module of its kind, check
the equations, verify the finite-ring oracle.  Every operand file is read as
JSON first, so a missing or malformed one exits 1 before numpy loads.

Exit codes (stable contract):
  compute: 0 inverse exists and its certificate passes, 3 it does not exist
           or its certificate fails (value and certificate are kept, and
           reason names the failing equations) or the numerics broke down
           (no value), 1 usage or I/O error, 2 internal invariant violation
           (route disagreement)
  verify:  0 all checks pass, 1 bad ring spec, 4 counterexample found
  check:   0 candidate certifies, 3 it does not or the numerics broke down,
           1 usage or I/O error
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import warnings

# the engine and numpy load when a command reaches them: each kind imports
# its own module, and bad input exits before either loads
from .errors import GinvError, RouteDisagreement, ToleranceWarning


def _missing_factor(one_sided):
    # the core inverse is a^# a a^(1,3), the dual-core inverse a^(1,4) a a^#
    def reason(a, tol):
        from .classical import group_inverse
        return "no group inverse" if group_inverse(a, tol) is None else f"no {one_sided}-inverse"

    return reason


# kind -> (module, function, extra operands, reason when it finds no
# inverse).  The function, looked up when the kind runs, takes a, the extra
# operands in order and tol (and the route, for a function whose module lists
# its routes as <FUNCTION>_ROUTES: the two w-core kinds) and returns an
# InverseResult, which carries its own reason (bc's only its certificate), an
# IndexedInverse, a matrix or None.  A reason may be a function of (a, tol);
# kinds without one always have an inverse.
_COMPUTE = {
    "one": ("regular", "inner_inverse", (), None),
    "one3": ("regular", "one_three_inverse", (), "a is not in S a* a"),
    "one4": ("regular", "one_four_inverse", (), "a is not in a a* S"),
    "mp": ("regular", "mp_inverse", (), "a is not in S a a* a"),
    "group": ("classical", "group_inverse", (), "a is not in a^2 S and S a^2"),
    "drazin": ("classical", "drazin_inverse", (), None),
    "core": ("classical", "core_inverse", (), _missing_factor("{1,3}")),
    "dual-core": ("classical", "dual_core_inverse", (), _missing_factor("{1,4}")),
    "core-ep": ("classical", "core_ep_inverse", (), "a^m has no {1,3}-inverse at the Drazin index m"),
    "along": ("along", "inverse_along", ("d",), None),
    "w-core": ("wcore", "w_core", ("w",), None),
    "dual-v-core": ("wcore", "dual_v_core", ("v",), None),
    "bc": ("along", "_bc_certified", ("b", "c"), "b is not in S cab or c is not in cab S"),
}
KINDS = tuple(_COMPUTE)


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

    def operands(command, about, own, **own_kw):
        # the flags compute and check share, with the command's own flag
        # before the tolerances
        q = sub.add_parser(command, help=about)
        q.add_argument("--kind", required=True, choices=KINDS)
        q.add_argument("--a", required=True, help="matrix JSON file for a")
        for name in ("w", "v", "d", "b", "c"):
            q.add_argument(f"--{name}", help=f"matrix JSON file for {name}")
        q.add_argument(own, **own_kw)
        q.add_argument("--tol", type=float, default=None, help="residual tolerance override")
        q.add_argument("--rank-tol", type=float, default=None, help="rank tolerance override")
        return q

    pc = operands("compute", "compute a generalized inverse with certificate", "--route",
                  default=None, help="route selector (w-core / dual-v-core)")
    pc.add_argument("--out", default=None, help="write the JSON result here instead of stdout")

    pv = sub.add_parser("verify", help="run the theorem catalog on a finite *-ring")
    pv.add_argument("--ring", required=True, help='ring spec, e.g. "zmod:6" or "mat:2:gf2"')
    pv.add_argument("--theorem", default=None, help="single theorem id")
    pv.add_argument("--all", action="store_true", help="run the full catalog")
    pv.add_argument("--cap", type=int, default=None, help="largest allowed ring size")
    pv.add_argument("--out", default=None, help="write the JSON report here")

    operands("check", "re-certify a candidate inverse", "--candidate", required=True)
    return p


def _module(name: str):
    # by the import statement's own path, which `python -X importtime` logs
    return __import__(f"{__package__}.{name}", fromlist=["*"])


def _read_inputs(args) -> tuple[dict, dict]:
    """The tolerance overrides and every operand file parsed as JSON, before
    numpy or the engine loads: bad input exits 1 at interpreter-plus-json cost."""
    given = {"residual_rel_tol": args.tol, "rank_rel_tol": args.rank_tol}
    given = {k: t for k, t in given.items() if t is not None}
    if not all(t > 0 and math.isfinite(t) for t in given.values()):  # NaN fails t > 0
        raise GinvError("tolerance overrides must be positive and finite")
    docs = {"a": _read(args.a)}
    for name in _COMPUTE[args.kind][2]:
        path = getattr(args, name)
        if path is None:
            raise GinvError(f"--{name} is required for kind {args.kind}")
        docs[name] = _read(path)
    if args.command == "check":
        docs["x"] = _read(args.candidate)
    return given, docs


def _read(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _matrices(given: dict, docs: dict):
    from .matrix import ToleranceThresholds, matrix_from_json
    return ToleranceThresholds(**given), {k: matrix_from_json(doc) for k, doc in docs.items()}


def _emit(obj: dict, out_path: str | None):
    # strict JSON: a NaN or infinity raises ValueError (exit 1), never a bare token
    text = json.dumps(obj, indent=2, allow_nan=False)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_compute(args, given: dict, docs: dict) -> int:
    from .equations import InverseResult, certify
    from .matrix import matrix_to_json

    tol, mats = _matrices(given, docs)
    kind, route = args.kind, args.route
    where, name, _, why_not = _COMPUTE[kind]
    module = _module(where)
    extra = {}
    if (valid := getattr(module, f"{name.upper()}_ROUTES", None)) is not None:
        if route not in (None, "all", *valid):
            raise GinvError(f"unknown route {route!r} for {kind}; choose from {valid}")
        extra["route"] = route or "all"
    elif route is not None:
        raise GinvError(f"--route is not valid for kind {kind}")

    solve = getattr(module, name)
    # a certificate failing near tolerance inside the solver is a
    # ToleranceWarning: kept off stderr, and the reason when no value comes back
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ToleranceWarning)
        res = solve(*mats.values(), tol=tol, **extra)
    near = [str(w.message) for w in caught if issubclass(w.category, ToleranceWarning)]
    index = cert = reason = None
    if isinstance(res, InverseResult):
        exists, value, cert, reason = res.exists, res.value, res.certificate, res.reason
    else:
        # an IndexedInverse is a (value, index) tuple
        value, index = res if isinstance(res, tuple) else (res, None)
        exists = value is not None
    if not exists and reason is None:
        reason = near[-1] if near else (why_not(mats["a"], tol) if callable(why_not) else why_not)

    if exists and cert is None:
        env = dict(mats)
        env["x"] = value
        cert = certify(kind, env, tol, index=index)
    if cert is not None and not cert.ok:
        exists, reason = False, cert.failure()
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


def _writable(path: str):
    """Refuse a path that cannot be written before any work, leaving no file behind."""
    existed = os.path.lexists(path)
    with open(path, "a", encoding="utf-8"):
        pass
    if not existed:
        os.remove(path)


def _cmd_verify(args) -> int:
    from .rings import DEFAULT_RING_CAP, enumerate_ring  # only verify loads the oracle
    from .theorems import CATALOG, verify_theorem
    if args.out:
        _writable(args.out)
    start = time.perf_counter()
    try:
        ring = enumerate_ring(args.ring, cap=DEFAULT_RING_CAP if args.cap is None else args.cap)
    except GinvError as exc:
        print(f"ginv verify: bad ring spec: {exc}", file=sys.stderr)
        return 1
    build_s = time.perf_counter() - start
    reports, bad = [], 0
    # each status line goes out as soon as its theorem has run
    for tid in [args.theorem] if args.theorem is not None else CATALOG:
        rep = verify_theorem(ring, tid)
        reports.append(rep)
        if rep.skipped:
            status = f"SKIPPED ({rep.note})"
        elif rep.ok():
            n, dt = rep.instances_checked, rep.elapsed  # dt is 0 on a coarse clock
            rate = f", {n / dt:.0f} instances/s" if dt > 0 else ""
            status = f"ok ({n} instances, {dt:.2f}s{rate})"
        else:
            status = f"FAIL ({len(rep.counterexamples)} counterexamples)"
            bad += len(rep.counterexamples)
        print(f"{rep.theorem_id:24s} {status}", flush=True)
    report_obj = {
        "schema": 1,
        "ring": ring.spec,
        "build_s": build_s,
        "counterexample_count": bad,
        "reports": [r.to_json() for r in reports],
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report_obj, fh, indent=2)
            fh.write("\n")
    return 4 if bad else 0


def _cmd_check(args, given: dict, docs: dict) -> int:
    from .equations import certify

    tol, env = _matrices(given, docs)
    cert = certify(args.kind, env, tol, route="check")
    _emit({"schema": 1, "kind": args.kind, "certificate": cert.to_json()}, None)
    return 0 if cert.ok else 3


def _breakdown():
    """numpy's LinAlgError once numpy has loaded; nothing can raise it before."""
    np = sys.modules.get("numpy")
    return np.linalg.LinAlgError if np is not None else ()


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # exact entries, read or written, may have any number of digits this run
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        inputs = () if args.command == "verify" else _read_inputs(args)
        import numpy as np

        # stderr carries one line; the NaN-safe guards and certificates
        # already judge non-finite float values, so numpy stays quiet
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if args.command == "compute":
                return _cmd_compute(args, *inputs)
            if args.command == "verify":
                return _cmd_verify(args)
            return _cmd_check(args, *inputs)
    except RouteDisagreement as exc:
        print(f"ginv: internal invariant violation: {exc}", file=sys.stderr)
        return 2
    except _breakdown() as exc:
        # numpy's LinAlgError is a ValueError, but a numerical breakdown is an
        # answer (no inverse found), not a usage error
        reason = f"numerical breakdown: {exc}"
        if args.command != "compute":
            print(f"ginv: {reason}", file=sys.stderr)
            return 3
        result = {"schema": 1, "kind": args.kind, "exists": False, "value": None, "index": None}
        _emit(result | {"reason": reason, "certificate": None}, args.out)
        return 3
    except (GinvError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"ginv: error: {exc}", file=sys.stderr)
        return 1
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
