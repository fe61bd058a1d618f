"""One workload in a fresh process.

    python3 bench/worker.py setup --workload W --seed N --workdir DIR
        import ginv, build the inputs, print "ready <epoch time>", exit
    python3 bench/worker.py run --workload W --seed N --workdir DIR --seconds S --trace T --out FILE
        the same set-up, then the timed passes; writes a JSON result to FILE

Run from the root of a checkout; `run.py` starts it with the thread and
hash-seed settings the benchmark pins.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calib  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

EXPECTED_ORACLE = os.path.join(HERE, "expected_oracle.json")


def setup(workload: str, seed: int, workdir: str, env: dict, trace: bool):
    import ginv  # noqa: F401  (the import is part of set-up)
    import ginv.cli  # noqa: F401

    runner = None
    if workload == "cli" or trace:
        os.makedirs(workdir, exist_ok=True)
        runner = wl.CliRunner(workdir, env)
    if workload == "api_exact":
        ops = wl.api_exact(ginv, seed)
    elif workload == "api_float":
        ops = wl.api_float(ginv, seed)
    elif workload == "cli":
        ops = wl.cli(runner, seed)
    else:
        with open(EXPECTED_ORACLE, encoding="utf-8") as fh:
            ops = wl.oracle(ginv, json.load(fh))
    return ginv, ops, runner


class Run:
    """Closed loop over whole passes of the op list: each op starts when the
    previous one (and its check) has finished.

    Op times are scaled to reference speed by calib.Speed; raw wall times
    are kept alongside."""

    def __init__(self, ops, in_process: bool, tracer=None, runner=None):
        self.ops, self.tracer, self.runner = ops, tracer, runner
        self.samples: list[tuple[int, float]] = []  # (op index, ref-speed seconds) of good ops
        self.raw: list[float] = []  # wall seconds of the same ops
        self.pass_op_s: list[float] = []  # ref-speed op time per pass
        self.attempted = 0
        self.failures: list[str] = []
        self.degraded = 0
        self.speed = calib.Speed(in_process)

    def one(self, i: int, op) -> float:
        t_, runner = self.tracer, self.runner
        if t_ is not None:
            t_.op_id = self.attempted
            if runner is not None and runner.trace_script is not None:
                runner.spans_out = os.path.join(runner.workdir, "op-spans.npz")
            t_.active = True
        res, exc, raw, dt = self.speed.time(op.run)
        err = None if exc is None else f"raised {type(exc).__name__}: {exc}"
        if t_ is not None:
            t_.active = False
            if runner is not None and runner.trace_script is not None:
                if os.path.exists(runner.spans_out):
                    t_.merge(runner.spans_out, self.attempted)
                    os.remove(runner.spans_out)
        if err is None:
            try:
                err = op.check(res)
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
        self.attempted += 1
        self.degraded += op.info.get("degraded", 0)
        if err is None:
            self.samples.append((i, dt))
            self.raw.append(raw)
        else:
            self.failures.append(f"{op.label}: {err}")
        return dt

    def passes(self, seconds: float):
        """Whole passes until `seconds` have gone, or until the next pass
        would end after 1.1 * seconds; at least one."""
        start = time.perf_counter()
        walls = []
        while True:
            p0 = time.perf_counter()
            self.pass_op_s.append(sum(self.one(i, op) for i, op in enumerate(self.ops)))
            walls.append(time.perf_counter() - p0)
            elapsed = time.perf_counter() - start
            if elapsed >= seconds or elapsed + statistics.median(walls) > 1.1 * seconds:
                break


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(run: Run) -> dict:
    times = [dt for _, dt in run.samples] or [0.0]
    total = sum(times)
    return {
        "ops_per_s": len(run.samples) / total if total > 0 else 0.0,
        "op_p50_ms": quantile(times, 0.50) * 1e3,
        "op_p90_ms": quantile(times, 0.90) * 1e3,
    }


def label_samples(run: Run, ops) -> dict[str, list[float]]:
    """Seconds at reference speed per op label (repeated ops share one)."""
    out: dict[str, list[float]] = {}
    for i, dt in run.samples:
        out.setdefault(ops[i].label, []).append(dt)
    return out


def per_layer(run: Run, ref_pass_s: float, ops, probes: dict) -> dict:
    t_ = run.tracer
    summ = tr.summarize(t_)
    spans = summ["spans"]
    nops = max(1, run.attempted)
    # spans are wall clock: bring them to reference speed like the ops
    scale = sum(dt for _, dt in run.samples) / sum(run.raw) if run.raw else 1.0

    def calls(name):
        return spans.get(name, {}).get("calls", 0) / nops

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0) * scale / nops

    def incl_s(name):
        return spans.get(name, {}).get("incl_s", 0.0) * scale / nops

    m = dict(probes)
    m.update(
        {
            "matrix.matmul.calls": calls("matrix.matmul"),
            "matrix.matmul.self_s": self_s("matrix.matmul"),
            "matrix.matmul.scalar_muls": t_.scalar_muls / nops,
            "matrix.solve.calls": calls("matrix.solve_right"),
            "matrix.solve.self_s": self_s("matrix.solve_right"),
            "matrix.rank.calls": calls("matrix.rank"),
            "matrix.rank.self_s": self_s("matrix.rank"),
            "matrix.inverse.calls": calls("matrix.inverse"),
            "matrix.pinv.calls": calls("matrix.pinv"),
            "matrix.pinv.self_s": self_s("matrix.pinv"),
            "matrix.to_numpy.calls": calls("matrix.to_numpy"),
            "matrix.json_decode_s": incl_s("matrix.matrix_from_json"),
            "matrix.json_encode_s": incl_s("matrix.matrix_to_json"),
            "regular.mp_inverse.calls": calls("regular.mp_inverse"),
            "regular.mp_inverse.self_s": self_s("regular.mp_inverse"),
            "regular.inner_inverse.calls": calls("regular.inner_inverse"),
            "classical.core_inverse.calls": calls("classical.core_inverse"),
            "classical.core_inverse.self_s": self_s("classical.core_inverse"),
            "classical.group_inverse.calls": calls("classical.group_inverse"),
            "along.inverse_along.calls": calls("along.inverse_along"),
            "along.inverse_along.self_s": self_s("along.inverse_along"),
            "along.bc_inverse.calls": calls("along.bc_inverse"),
            "along.bc_inverse.self_s": self_s("along.bc_inverse"),
            "equations.certify.calls": calls("equations.certify"),
            "equations.certify.self_s": self_s("equations.certify"),
            "equations.residuals.calls": calls("equations.system_residuals"),
            "equations.residuals.certify_s": summ["residuals_certify_s"] * scale / nops,
            "equations.residuals.guard_s": summ["residuals_guard_s"] * scale / nops,
            "wcore.degraded_per_op": run.degraded / nops,
            "rings.scan.calls": t_.scan_calls / nops,
            "rings.scan.self_s": sum(
                v["self_s"] for k, v in spans.items() if k.startswith("rings.scan.")
            )
            * scale
            / nops,
            "rings.scan.memo_hit_frac": t_.scan_hits / t_.scan_calls if t_.scan_calls else 0.0,
            "trace.overhead_frac": statistics.median(run.pass_op_s) / ref_pass_s - 1.0,
        }
    )
    by_label = label_samples(run, ops)
    for name, _, sizes in wl.EXACT_CLASSES:
        for n in sizes:
            m[f"wcore.{name}.n{n}_ms"] = 0.0
    for n in wl.FLOAT_SIZES:
        m[f"wcore.float.n{n}_ms"] = 0.0
    classes: dict[str, list[float]] = {}
    for i, dt in run.samples:
        if ops[i].wclass:
            classes.setdefault(ops[i].wclass, []).append(dt)
    for key, vals in classes.items():
        m[f"wcore.{key}_ms"] = statistics.median(vals) * 1e3
    # one catalog: each distinct (ring, theorem) check once
    for spec, _, _ in wl.ORACLE_PLAN:
        vals = by_label.get(f"build {spec}", [])
        m[f"rings.build_s.{spec.replace(':', '-')}"] = statistics.median(vals) if vals else 0.0
    theorem_s = dict.fromkeys(wl.ALL_THEOREMS, 0.0)
    instances = 0
    for op in {op.label: op for op in ops}.values():
        if "theorem" in op.info:
            vals = by_label.get(op.label, [])
            theorem_s[op.info["theorem"]] += statistics.median(vals) if vals else 0.0
            instances += op.info["instances"]
    for tid, secs in theorem_s.items():
        m[f"theorems.{tid}_s"] = secs
    m["theorems.instances"] = instances
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "run"))
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--out")
    p.add_argument("--spans", help="where a traced run saves its spans")
    p.add_argument("--workdir", required=True)
    args = p.parse_args(argv)
    env = dict(os.environ)
    trace = bool(args.trace) and args.mode == "run"
    try:
        ginv, ops, runner = setup(args.workload, args.seed, args.workdir, env, trace)
        print(f"ready {time.time()!r}", flush=True)
        if args.mode == "setup":
            return 0
        result = measure(ginv, ops, runner, args, trace)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


def measure(ginv, ops, runner, args, trace: bool) -> dict:
    import numpy

    probe_errors: list[str] = []
    in_process = args.workload != "cli"
    defects = []
    if args.workload == "cli":
        defects = wl.cli_defect_probes(runner)
    elif args.workload == "api_float":
        defects = wl.float_defect_probes(ginv, args.seed)
    if args.workload != "cli" and ops:
        # let lazy library set-up finish before timing; a failure here shows
        # again when the op runs timed
        with contextlib.suppress(Exception):
            ops[0].run()
    if not trace:
        run = Run(ops, in_process, runner=runner)
        run.passes(args.seconds)
        metrics = end_to_end(run)
    else:
        import probes

        probe_values, probe_errors = probes.run_all(ginv, runner)
        ref = Run(ops, in_process, runner=runner)
        ref.passes(0.0)
        tracer = tr.Tracer()
        if args.workload == "cli":
            runner.trace_script = os.path.join(HERE, "cli_traced.py")
        tracer.install()
        try:
            run = Run(ops, in_process, tracer=tracer, runner=runner)
            run.passes(args.seconds)
        finally:
            tracer.uninstall()
        tracer.save(args.spans)
        metrics = per_layer(run, ref.pass_op_s[0], ops, probe_values)
        run.failures[:0] = [f"ref pass: {f}" for f in ref.failures]
        run.attempted += ref.attempted
    if not trace:
        # the calibration buffer is the benchmark's, not ginv's
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - calib.buffer_mb()
        if args.workload == "cli":
            # the worker waits while one child runs: add the largest child,
            # over one process per kind
            argvs = {tuple(op.info["argv"]) for op in ops if "argv" in op.info}
            peak_mb += max(runner.child_peak_mb(list(a)) for a in sorted(argvs))
        metrics["peak_rss_mb"] = peak_mb
    failures = run.failures + probe_errors
    by_label = label_samples(run, ops)
    distinct = {op.label: op for op in ops}.values()
    return {
        "attempted": run.attempted + len(probe_errors),
        "failed": len(failures),
        "failures": failures[:20],
        "samples": len(run.samples),
        "passes": len(run.pass_op_s),
        "ops_per_pass": len(ops),
        "pass_op_s": run.pass_op_s,
        "catalog_instances": sum(op.info.get("instances", 0) for op in distinct),
        "op_median_ms": {k: statistics.median(v) * 1e3 for k, v in by_label.items()},
        "samples_ms": [dt * 1e3 for _, dt in run.samples],
        "wall_clock": {
            "ops_per_s": len(run.raw) / sum(run.raw) if run.raw else 0.0,
            "op_p50_ms": quantile(run.raw, 0.5) * 1e3 if run.raw else 0.0,
            "op_p90_ms": quantile(run.raw, 0.9) * 1e3 if run.raw else 0.0,
        },
        "degraded_routes": run.degraded,
        "defect_probes": [{"input": k, "violation": v} for k, v in defects],
        "metrics": metrics,
        "numpy": numpy.__version__,
    }


if __name__ == "__main__":
    sys.exit(main())
