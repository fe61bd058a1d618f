"""ginv benchmark: one workload, one seed, end to end or traced.

    python3 bench/run.py --workload api_exact --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --compare OLD.json NEW.json

Run from the root of a checkout (the directory that holds src/ginv).  The
last line of standard output is one JSON object: correct, attempted,
failed and metrics (end-to-end metrics with --trace 0, per-layer metrics
with --trace 1).  Lines before it are a readable report, and the full
result, with machine, Python, numpy and git details, is written to
.bench_out/ (or --out).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import calib
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170

# one thread for every BLAS/OpenMP pool, and a fixed hash seed, in every
# process the benchmark starts: the per-layer counts must repeat exactly
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.startswith("domains."):
        return "ns"
    if name.endswith(".calls"):
        return "calls/op"
    if name == "matrix.matmul.scalar_muls":
        return "muls/op"
    if name.startswith("theorems."):  # per catalog: each check once
        return "count" if name == "theorems.instances" else "s"
    if name in ("rings.scan.memo_hit_frac", "trace.overhead_frac"):
        return "ratio"
    if name == "wcore.degraded_per_op":
        return "routes/op"
    if name.endswith("_ms"):
        return "ms"
    if name.startswith(("rings.build_s.", "cli.")):
        return "s"
    return "s/op"


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def git_sha(root: str) -> str:
    """HEAD of the checkout if it is a git work tree, else "unknown"."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def _worker(mode: str, args, workdir: str, extra=()) -> list[str]:
    return [
        sys.executable, os.path.join(HERE, "worker.py"), mode,
        "--workload", args.workload, "--seed", str(args.seed), "--workdir", workdir, *extra,
    ]  # fmt: skip


def run_child(argv: list[str], env: dict) -> tuple[int, str]:
    """Run a child in its own session and return (exit code, stdout).  On
    timeout the whole session is killed, so no grandchild outlives it."""
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env, start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    return proc.returncode, out


def time_setup(args, env: dict, outdir: str) -> tuple[float, float]:
    """Fresh process to first timed operation: start the worker in set-up
    mode; it prints the epoch time at which it is ready.  Returns
    (reference-speed, wall) seconds."""
    workdir = os.path.join(outdir, f"work-setup-{os.getpid()}")
    k_before = calib.kernel_s(memory=True)
    start = time.time()
    code, out = run_child(_worker("setup", args, workdir), env)
    k_after = calib.kernel_s(memory=True)
    word, _, when = out.partition(" ")
    if word != "ready" or code != 0:
        raise RuntimeError(f"set-up process failed with exit code {code}")
    dt = float(when) - start
    return calib.to_reference(dt, k_before, k_after), dt


def measure(args, root: str) -> dict:
    env = child_env(root)
    outdir = os.path.join(root, ".bench_out")
    os.makedirs(outdir, exist_ok=True)
    # compile and cache the package's bytecode once, outside every timing
    code, _ = run_child([sys.executable, "-c", "import ginv.cli, ginv.theorems"], env)
    if code != 0:
        raise RuntimeError(f"importing ginv failed with exit code {code}")
    setups = [] if args.trace else [time_setup(args, env, outdir) for _ in range(SETUP_REPEATS)]
    out = args.out or os.path.join(outdir, f"result-{args.workload}-s{args.seed}-t{args.trace}.json")
    raw = out + ".worker"
    workdir = os.path.join(outdir, f"work-run-{os.getpid()}")
    extra = ("--seconds", str(args.seconds), "--trace", str(args.trace), "--out", raw)
    if args.trace:
        extra += ("--spans", os.path.splitext(out)[0] + "-spans.npz")
    code, _ = run_child(_worker("run", args, workdir, extra), env)
    if code != 0:
        raise RuntimeError(f"worker failed with exit code {code}")
    with open(raw, encoding="utf-8") as fh:
        res = json.load(fh)
    os.remove(raw)
    if setups:
        res["metrics"]["setup_s"] = statistics.median(s for s, _ in setups)
        res["wall_clock"]["setup_s"] = statistics.median(w for _, w in setups)
    units = END_TO_END_UNITS if not args.trace else {k: per_layer_unit(k) for k in res["metrics"]}
    res["metrics"] = {k: {"value": res["metrics"][k], "unit": units[k]} for k in sorted(units)}
    res.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        correct=res["failed"] == 0, git_sha=git_sha(root),
        machine={
            "platform": platform.platform(), "machine": platform.machine(),
            "processor": platform.processor(), "cpus": os.cpu_count(),
        },
        python=platform.python_version(), pinned_env=PINNED_ENV,
    )  # fmt: skip
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1)
    res["result_file"] = out
    return res


def report(res: dict):
    """Readable lines before the JSON line."""
    w = res["workload"]
    print(f"workload {w}  seed {res['seed']}  trace {res['trace']}  git {res['git_sha'][:12]}")
    print(
        f"  {res['samples']} timed samples in {res['passes']} passes of {res['ops_per_pass']} ops;"
        f" fail_frac {res['failed']}/{res['attempted']}"
    )
    if w == "oracle" and not res["trace"]:
        # one catalog: every distinct build and check once, at median time
        catalog_s = sum(res["op_median_ms"].values()) / 1e3
        print(f"  catalog_s {catalog_s:.4f} s  (ring builds included)")
        print(f"  instances_per_s {res['catalog_instances'] / catalog_s:.1f} 1/s")
    for name, m in res["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    probes = res.get("defect_probes", [])
    if probes:
        bad = [p for p in probes if p["violation"]]
        print(f"  known-defect probes (ROADMAP item 4): {len(bad)} of {len(probes)} break a documented rule")
        for p in bad:
            print(f"    {p['input']}: {p['violation']}")
    for f in res["failures"]:
        print(f"  FAILED {f}")
    print(f"  result file {res['result_file']}")


def compare(old_path: str, new_path: str) -> int:
    with open(old_path, encoding="utf-8") as fh:
        old = json.load(fh)
    with open(new_path, encoding="utf-8") as fh:
        new = json.load(fh)
    for tag, r in (("A", old), ("B", new)):
        print(
            f"{tag}: {r['workload']} seed {r['seed']} trace {r['trace']} git {r['git_sha'][:12]}"
            f" python {r['python']} numpy {r['numpy']} on {r['machine']['platform']}"
        )
    print(f"{'metric':48s} {'unit':>10s} {'A':>12s} {'B':>12s} {'B/A':>8s} {'A/B':>8s}")
    for name in sorted(set(old["metrics"]) | set(new["metrics"])):
        a, b = old["metrics"].get(name), new["metrics"].get(name)
        if a is None or b is None:
            print(f"{name:48s} only in {'B' if a is None else 'A'}")
            continue
        av, bv = a["value"], b["value"]
        ba = f"{bv / av:8.3f}" if av else "       -"
        ab = f"{av / bv:8.3f}" if bv else "       -"
        print(f"{name:48s} {a['unit']:>10s} {av:12.6g} {bv:12.6g} {ba} {ab}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="result file (default .bench_out/result-*.json)")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"), help="print B/A for two result files")
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        p.error("--workload is required")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ginv", "__init__.py")):
        print("bench: run from the root of a ginv checkout (no src/ginv here)", file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        # every process of the run on one CPU, so the calibration kernel
        # times the CPU the operations run on (children inherit this)
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    res = measure(args, root)
    report(res)
    metrics = {k: v for k, v in res["metrics"].items()}
    print(
        json.dumps(
            {
                "correct": res["correct"],
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
