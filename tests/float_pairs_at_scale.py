"""w_core and dual_v_core on large random complex pairs; every call must find
its inverse and certify it.

The pairs are built as the benchmark's float workload builds them
(bench/workloads.py, float_pair), at sizes that workload does not run:
"full" (a and w Gaussian, so invertible) and "low" (rank(a) = n/2, generic w),
n in {128, 256}, seeds 0-2, one fresh generator per (seed, n, shape).  There
κ(aw) reaches about 3e4, so a construction that squares κ fails here.

    PYTHONPATH=src python tests/float_pairs_at_scale.py

prints one line per call and exits 0 when all 24 give exists and cert.ok,
else 1.  pytest does not collect this file; CI runs it as its own step.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from ginv import GinvError, StarMatrix, dual_v_core, w_core


def _cgauss(g: np.random.Generator, m: int, n: int) -> np.ndarray:
    return (g.standard_normal((m, n)) + 1j * g.standard_normal((m, n))) / np.sqrt(2)


def float_pair(g: np.random.Generator, n: int, shape: str):
    if shape == "full":
        return _cgauss(g, n, n), _cgauss(g, n, n)
    return _cgauss(g, n, n // 2) @ _cgauss(g, n // 2, n), _cgauss(g, n, n)


def main() -> int:
    failed = 0
    for n in (128, 256):
        for shape in ("full", "low"):
            for seed in range(3):
                a, w = map(StarMatrix.from_numpy, float_pair(np.random.default_rng(seed), n, shape))
                for call in (w_core, dual_v_core):
                    start = time.perf_counter()
                    try:
                        res = call(a, w)
                        ok, note = res.exists and res.certificate.ok, res.reason or ""
                    except (GinvError, np.linalg.LinAlgError) as exc:  # reported per call
                        ok, note = False, f"{type(exc).__name__}: {exc}"
                    ms = 1e3 * (time.perf_counter() - start)
                    failed += not ok
                    case = f"{call.__name__:11} {shape:4} n={n} seed={seed}"
                    print(f"{case} {ms:6.0f} ms {'ok' if ok else 'FAIL'} {note}")
    print(f"{failed} of 24 calls failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
