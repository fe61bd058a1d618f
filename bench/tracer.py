"""Span tracer that wraps ginv's public functions from outside.

Modules import names directly (`from .matrix import rank`), so one function
object can sit in several module namespaces.  `install` finds every public
function defined in a ginv module, by object identity, and replaces it in
each ginv module namespace that holds it.  It also wraps the class
attributes StarMatrix.__matmul__, StarMatrix.to_numpy and the memoized
scanner methods of FiniteStarRing.  `uninstall` puts the originals back.

Spans live in memory as parallel arrays (name id, start, end, parent, op
id) and are written out once, by `save`.  A span's self time is its
duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import weakref
from array import array

import numpy as np

# memoized FiniteStarRing scanners: a repeated (method, arguments) call on
# one ring instance is a memo hit
SCANNERS = (
    "group_inv",
    "mp_inv",
    "core_inv",
    "dual_core_inv",
    "one_three_set",
    "one_four_set",
    "along",
    "wcore_solutions",
    "dual_vcore_solutions",
    "pseudo_core",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack = [-1]
        self.op_id = -1
        self.active = False
        self.scalar_muls = 0
        self.scan_calls = 0
        self.scan_hits = 0
        self._seen = weakref.WeakKeyDictionary()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, before=None):
        nid = self.nid(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def _count_matmul(self, args):
        a, b = args
        self.scalar_muls += getattr(a, "rows", 0) * getattr(a, "cols", 0) * getattr(b, "cols", 0)

    def _scanner_hook(self, method: str):
        def before(args):
            ring, key = args[0], (method,) + tuple(args[1:])
            seen = self._seen.setdefault(ring, set())
            self.scan_calls += 1
            if key in seen:
                self.scan_hits += 1
            else:
                seen.add(key)

        return before

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        mods = [m for n, m in sorted(sys.modules.items()) if n == "ginv" or n.startswith("ginv.")]
        wrapped: dict[int, object] = {}
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not (obj.__module__ or "").startswith("ginv."):
                    continue
                if id(obj) not in wrapped:
                    span = f"{obj.__module__[len('ginv.'):]}.{obj.__name__}"
                    wrapped[id(obj)] = self.wrap(span, obj)
                self._patch(mod, attr, wrapped[id(obj)])
        from ginv.matrix import StarMatrix
        from ginv.rings import FiniteStarRing

        self._patch(
            StarMatrix,
            "__matmul__",
            self.wrap("matrix.matmul", StarMatrix.__matmul__, self._count_matmul),
        )
        self._patch(StarMatrix, "to_numpy", self.wrap("matrix.to_numpy", StarMatrix.to_numpy))
        for method in SCANNERS:
            if hasattr(FiniteStarRing, method):
                fn = getattr(FiniteStarRing, method)
                hook = self._scanner_hook(method)
                self._patch(FiniteStarRing, method, self.wrap(f"rings.scan.{method}", fn, hook))

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- output -------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "counters": np.array(
                [self.scalar_muls, self.scan_calls, self.scan_hits], dtype=np.int64
            ),
        }

    def save(self, path: str):
        np.savez(path, **self.arrays())

    def merge(self, path: str, op_id: int):
        """Append the spans a traced child process saved, under op_id."""
        with np.load(path) as z:
            ids = [self.nid(str(n)) for n in z["names"]]
            base = len(self.start)
            par = z["parent"]
            self.name_id.extend(ids[i] for i in z["name_id"])
            self.start.extend(z["start"].tolist())
            self.end.extend(z["end"].tolist())
            self.parent.extend((p + base if p >= 0 else -1) for p in par.tolist())
            self.op.extend([op_id] * len(par))
            muls, calls, hits = (int(x) for x in z["counters"])
        self.scalar_muls += muls
        self.scan_calls += calls
        self.scan_hits += hits


def summarize(tr: Tracer) -> dict:
    """Per span name: calls, inclusive seconds, self seconds; plus the split
    of equations.system_residuals time into under-certify and elsewhere."""
    a = tr.arrays()
    n = len(a["start"])
    names = list(a["names"])
    out = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for name in names}
    if n == 0:
        return {"spans": out, "residuals_certify_s": 0.0, "residuals_guard_s": 0.0}
    dur = a["end"] - a["start"]
    par = a["parent"]
    has_parent = par >= 0
    child = np.bincount(par[has_parent], weights=dur[has_parent], minlength=n)
    self_t = dur - child
    nid = a["name_id"]
    calls = np.bincount(nid, minlength=len(names))
    incl = np.bincount(nid, weights=dur, minlength=len(names))
    selfs = np.bincount(nid, weights=self_t, minlength=len(names))
    for i, name in enumerate(names):
        out[name] = {"calls": int(calls[i]), "incl_s": float(incl[i]), "self_s": float(selfs[i])}
    split = {"certify": 0.0, "guard": 0.0}
    if "equations.system_residuals" in tr._ids:
        res_id = tr._ids["equations.system_residuals"]
        cert_id = tr._ids.get("equations.certify", -2)
        for idx in np.flatnonzero(nid == res_id):
            p = par[idx]
            while p >= 0 and nid[p] != cert_id:
                p = par[p]
            split["certify" if p >= 0 else "guard"] += float(dur[idx])
    return {
        "spans": out,
        "residuals_certify_s": split["certify"],
        "residuals_guard_s": split["guard"],
    }
