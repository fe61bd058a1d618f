"""Layer probes that do not depend on the workload.  A traced run of every
workload takes them: scalar add/mul per domain, each w-core and dual
v-core route on its own, and the CLI's import, process and in-process
times."""

from __future__ import annotations

import contextlib
import io
import json
import random
import statistics
import subprocess
import sys
from fractions import Fraction

import numpy as np

import calib
import refcheck as rc
import workloads as wl

DOMAIN_KINDS = (
    ("rational", None),
    ("gaussian_rational", None),
    ("prime_field", 7),
    ("integer_mod", 6),
    ("complex_float", None),
)
PROBE_SEED = 20220501  # fixed: probe inputs are the same for every run


def _scalars(ginv, kind: str, rng: random.Random, count: int):
    """Scalars like those the workloads produce: small-height fractions,
    Gaussian rationals, residues and unit-scale complex floats."""

    def frac():
        return Fraction(rng.randint(-60, 60), rng.randint(1, 40))

    if kind == "rational":
        return [frac() for _ in range(count)]
    if kind == "gaussian_rational":
        return [ginv.GaussianRational(frac(), frac()) for _ in range(count)]
    if kind == "prime_field":
        return [rng.randrange(7) for _ in range(count)]
    if kind == "integer_mod":
        return [rng.randrange(6) for _ in range(count)]
    return [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(count)]


def domain_ops(ginv, repeats: int = 7, count: int = 4000) -> dict:
    """Nanoseconds per public ScalarDomain.add / .mul call (median)."""
    rng = random.Random(PROBE_SEED)
    speed = calib.Speed(in_process=True)
    out = {}
    for kind, modulus in DOMAIN_KINDS:
        dom = ginv.make_domain(kind, modulus)
        xs, ys = _scalars(ginv, kind, rng, count), _scalars(ginv, kind, rng, count)
        pairs = list(zip(xs, ys))
        for opname in ("add", "mul"):
            fn = getattr(dom, opname)

            def loop():
                for x, y in pairs:
                    fn(x, y)

            times = [speed.time(loop)[3] / count * 1e9 for _ in range(repeats)]
            out[f"domains.{kind}.{opname}_ns"] = statistics.median(times)
    return out


def _time_ms(fn, repeats: int, in_process: bool = True) -> tuple[float, object]:
    """Median reference-speed milliseconds of fn() and its last result."""
    speed = calib.Speed(in_process)
    times, res = [], None
    for _ in range(repeats):
        res, exc, _, ref_s = speed.time(fn)
        if exc is not None:
            raise exc
        times.append(ref_s * 1e3)
    return statistics.median(times), res


def routes(ginv, repeats: int = 3) -> tuple[dict, list[str]]:
    """Each route alone on a fixed Gaussian 3x3 and a fixed float 16x16
    pair; every value that comes back is checked like the workloads'."""
    ga, gw = wl.field_pair(rc.GAUSSIAN, random.Random(PROBE_SEED), 3, "full")
    fa, fw = wl.float_pair(np.random.default_rng(PROBE_SEED), 16, "low")
    out, errors = {}, []
    for call, prefix, names in (
        ("w_core", "wcore.route", wl.W_ROUTES),
        ("dual_v_core", "wcore.dual_route", wl.D_ROUTES),
    ):
        for route in names:
            for f, a, w, suffix in ((rc.GAUSSIAN, ga, gw, "exact_ms"), (None, fa, fw, "float_ms")):
                a_sm = ginv.matrix_from_json(rc.matrix_json(f, a))
                w_sm = ginv.matrix_from_json(rc.matrix_json(f, w))
                fn = getattr(ginv, call)
                ms, res = _time_ms(lambda: fn(a_sm, w_sm, route=route), repeats)
                out[f"{prefix}.{route}.{suffix}"] = ms
                err = _route_check(ginv, call, f, a, w, res)
                if err:
                    errors.append(f"{call} route {route} ({suffix[:-3]}): {err}")
    return out, errors


def _route_check(ginv, call, f, a, w, res) -> str | None:
    if not res.exists:
        return f"no value: {res.reason}"
    x = rc.matrix_from_json(f, ginv.matrix_to_json(res.value))
    if f is None:
        r = rc.float_residual(call, a, w, x)
        return None if r <= rc.FLOAT_CHECK_TOL else f"residual {r:.3g}"
    return None if rc.exact_equations_hold(f, call, a, w, x) else "fails its equations"


def cli_times(ginv, runner: wl.CliRunner, repeats: int = 5) -> dict:
    """Fresh-process import time of ginv.cli, one small `compute` process,
    and the same compute through main() in-process (no import)."""
    imp = []
    code = "import time; t = time.perf_counter(); import ginv.cli; print(time.perf_counter() - t)"
    for _ in range(repeats):
        k_before = calib.kernel_s(memory=True)
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=runner.env, timeout=170
        )
        k_after = calib.kernel_s(memory=True)
        imp.append(calib.to_reference(float(proc.stdout.strip()), k_before, k_after))
    a = runner.write(rc.matrix_json(rc.RATIONAL, [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]))
    args = ["compute", "--kind", "mp", "--a", a]
    process_ms, _ = _time_ms(
        lambda: subprocess.run(
            [sys.executable, "-m", "ginv.cli", *args], capture_output=True, env=runner.env, timeout=170
        ),
        repeats,
        in_process=False,
    )
    from ginv import cli as ginv_cli

    def inproc():
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            code = ginv_cli.main(args)
        json.loads(buf.getvalue())
        return code

    inproc_ms, _ = _time_ms(inproc, 4 * repeats)
    return {
        "cli.import_s": statistics.median(imp),
        "cli.process_ms": process_ms,
        "cli.inproc_ms": inproc_ms,
    }


def run_all(ginv, runner: wl.CliRunner) -> tuple[dict, list[str]]:
    out = domain_ops(ginv)
    route_times, errors = routes(ginv)
    out.update(route_times)
    out.update(cli_times(ginv, runner))
    return out, errors

