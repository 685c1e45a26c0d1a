"""Benchmark of the competing_chain package: three closed-loop workloads.

Usage (from the repository root):

    python3 bench/run.py --workload ed_roots --seed 1 --seconds 32 --trace 0
    python3 bench/run.py --workload all --seed 1

One process runs one workload: set-up (imports, references, warm-up), then
the workload's seeded batch of ops in a closed loop, repeated in batch order
until --seconds is up (the first batch always completes; a repeat starts
only if the op's last latency still fits before the deadline).  Each op's
latency is summarised by its median over the run: wall_s is the sum of
these medians (the batch's time to solution), op_p50_s their median.  Every
op result is checked against the references in bench/references.json or
against an independent evaluation; an op that raises, warns or misses its
check counts as failed.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced batch,
then the same batch with spans recorded around every call into the package
layers (see tracing.py), prints the per-layer metrics and writes the spans
to .bench_runs/ in the repository root.  The last line of standard output
is always the JSON result.  See bench/NOTES.md for the metric definitions.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("ed_roots", "bae_scan", "thermo_sweep")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 3         # extra fresh-process set-ups measured per run
TAIL_SAMPLES = 10        # op_tail_s: samples required beyond the percentile
TAIL_MIN_OPS = 20
PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s",
                    "peak_rss_mb": "MB"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads() -> None:
    """Cap BLAS and OpenMP pools at nproc; must run before numpy is imported."""
    cap = nproc()
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= cap):
            os.environ[var] = str(cap)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--references", default=str(BENCH_DIR / "references.json"),
                        help="reference file (the self-test passes a corrupted copy)")
    parser.add_argument("--ops", type=int, default=None,
                        help="keep only the first N ops of the batch (short runs)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup(references: str):
    """Import the package, load the references and warm up; returns the refs."""
    if not (SRC / "competing_chain" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: package source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import competing_chain
    if Path(competing_chain.__file__).resolve().parent != SRC / "competing_chain":
        raise SystemExit(f"benchmark: imported {competing_chain.__file__}, not {SRC}")
    from competing_chain import ModelParams, spectrum, thermo

    with open(references, encoding="utf-8") as fh:
        refs = json.load(fh)
    # warm-up: the first threaded LAPACK call (eigh of a 2^8 matrix) and the
    # first quadratures pay one-off costs that no timed op should carry
    warm = ModelParams.from_q_bar(8, 0.66, 1.2, 0.7, 1.2)
    pairs = spectrum.diagonalize(warm)
    spectrum.state_zero_roots(pairs[0], warm)
    for method in ("adaptive", "gauss"):
        thermo.surface_energy(warm, thermo.QuadratureSpec(method=method))
    return refs


def setup_seconds(args, own: float) -> float:
    """Median set-up time over this process and SETUP_PROBES fresh processes."""
    samples = [own]
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--references", args.references, "--setup-probe"],
            capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def run_batch(ops, tracer=None, deadline=None, expected=None):
    """Run ops in order, then check them.

    With a deadline, an op runs only if its expected latency (by op id)
    still fits before it.  Returns (latencies, failures): the latency of
    every op that ran, by op id, and the problems of every failed op, by
    label.
    """
    results = {}
    latencies = {}
    failures = {}
    for op in ops:
        if deadline is not None and time.perf_counter() + expected[op.id] > deadline:
            continue
        label = f"{op.kind}#{op.id}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t = time.perf_counter()
            try:
                result = tracer.run_op(op.id, op.kind, op.fn) if tracer else op.fn()
            except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
                latencies[op.id] = time.perf_counter() - t
                failures[label] = [f"{type(exc).__name__}: {exc}"]
                continue
            latencies[op.id] = time.perf_counter() - t
        if caught:
            failures[label] = [f"warning: {w.message}" for w in caught]
        else:
            results[op.id] = result
    for op in ops:
        if op.id not in results:
            continue
        try:
            problems = op.check(results[op.id], results)
        except Exception as exc:  # noqa: BLE001 - a check that cannot run fails
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failures[f"{op.kind}#{op.id}"] = problems
    return latencies, failures


def tail(latencies):
    """(percentile, value, samples beyond) at the highest percentile with
    at least TAIL_SAMPLES samples beyond it; None below TAIL_MIN_OPS ops."""
    n = len(latencies)
    if n < TAIL_MIN_OPS:
        return None
    ordered = sorted(latencies)
    best = None
    for pct in PERCENTILES:
        beyond = int(n * (1.0 - pct / 100.0))
        if beyond >= TAIL_SAMPLES:
            best = (pct, ordered[n - beyond - 1], beyond)
    return best


def environment() -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": nproc(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def run_workload(args) -> int:
    refs = setup(args.references)
    own_setup = time.perf_counter() - _T0
    if args.setup_probe:
        print(repr(own_setup))
        return 0
    import workloads
    ops = workloads.build_ops(args.workload, args.seed, refs, limit=args.ops)

    failures = []      # (label, problems) of every failed op of every batch
    if args.trace:
        import tracing
        latencies, fails = run_batch(ops)
        untraced_wall = sum(latencies.values())
        failures += fails.items()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            latencies, fails = run_batch(ops, tracer)
        finally:
            tracer.uninstall()
        failures += fails.items()
        out_dir = ROOT / ".bench_runs"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        values = tracer.metrics(untraced_wall)
        units = tracing.PER_LAYER_METRICS
        attempted = 2 * len(ops)
        detail = {"spans": str(spans_path.relative_to(ROOT)), "span_count": len(tracer.spans),
                  "untraced_wall_s": untraced_wall}
    else:
        # one whole batch, then more ops in batch order while they fit
        # before --seconds is up
        per_op = {op.id: [] for op in ops}
        deadline = time.perf_counter() + args.seconds
        batches = 0
        while True:
            last = {op_id: lats[-1] if lats else 0.0 for op_id, lats in per_op.items()}
            latencies, fails = run_batch(ops, deadline=deadline if batches else None,
                                         expected=last)
            if not latencies:
                break
            for op_id, latency in latencies.items():
                per_op[op_id].append(latency)
            failures += fails.items()
            batches += 1
        op_medians = [statistics.median(lats) for lats in per_op.values()]
        all_lat = [x for lats in per_op.values() for x in lats]
        attempted = len(all_lat)
        values = {
            "setup_s": setup_seconds(args, own_setup),
            "wall_s": sum(op_medians),
            "op_p50_s": statistics.median(op_medians),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        t = tail(all_lat)
        detail = {
            "batches_started": batches,
            "min_repeats_per_op": min(len(lats) for lats in per_op.values()),
            "ops": attempted,
            "ops_per_batch": len(ops),
            "op_tail_s": None if t is None else t[1],
            "op_tail_percentile": None if t is None else t[0],
            "op_tail_samples_beyond": None if t is None else t[2],
        }

    failed = len(failures)
    for label, problems in failures[:20]:
        print(f"FAILED {label}: {'; '.join(problems[:3])}", file=sys.stderr)
    detail.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "failed": failed, "attempted": attempted,
                   "fail_frac": failed / attempted,
                   "environment": environment()})
    for name, value in values.items():
        print(f"{args.workload} {name} = {value!r} {units[name]}")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--references", args.references]
        if args.ops is not None:
            cmd += ["--ops", str(args.ops)]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    cap_threads()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
