"""One run of one workload, in its own single-threaded process.

Started by ``run.py``, which pins BLAS/OpenMP threads in the environment
before this process imports numpy. Prints one JSON object on stdout.

Set-up is timed from before ``import quatro`` to the end of one warm-up
call. With ``--setup-only`` the process stops there. Otherwise it runs the
closed loop for ``--seconds``; with ``--trace 1`` half of that untraced and
half traced, plus the kernel micro-benches. The correctness gate runs after
the timed loops: every output is checked against its exact oracle, and the
counts pooled over the run are checked again.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def no_span(_name):
    return nullcontext()


class Run:
    """Calls, their wall times and what the gate needs from each output."""

    def __init__(self, workload):
        self.workload = workload
        self.records = []
        self.failures = []
        self.attempted = 0

    def call(self, span):
        inp = self.workload.next_input()
        start = time.perf_counter()
        try:
            with span("call"):
                out = self.workload.call(inp, span)
        except Exception:  # a failed call is counted, and the loop goes on
            elapsed = time.perf_counter() - start
            self.failures.append(traceback.format_exc(limit=3))
        else:
            elapsed = time.perf_counter() - start
            try:
                self.records.append(self.workload.record(inp, out))
            except ValueError as exc:
                self.failures.append(f"malformed output: {exc}")
        self.attempted += 1
        return elapsed

    def loop(self, seconds: float, span=no_span):
        times = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            times.append(self.call(span))
        return times


def tail(times):
    """Highest nearest-rank percentile with at least 10 calls beyond it."""
    ordered = sorted(times)
    beyond = min(10, len(ordered) - 1)
    idx = len(ordered) - 1 - beyond
    return ordered[idx], 100.0 * (idx + 1) / len(ordered), beyond


def gate(run: Run):
    """Check every recorded output, then the counts pooled over the run."""
    import numpy as np

    from oracle import check_counts

    wl = run.workload
    failed = len(run.failures)
    problems = list(run.failures)
    min_p, pooled_probs = 1.0, []
    for rec in run.records:
        probs, issues = wl.expected(rec)
        verdict = check_counts(rec["counts"], wl.shots, probs)
        min_p = min(min_p, verdict.min_pvalue)
        pooled_probs.append(probs)
        if issues or not verdict.ok:
            failed += 1
            problems.append(
                f"seed {rec['seed']}: worst z {verdict.worst_z:.2f}, "
                f"min p {verdict.min_pvalue:.2e}; {issues}"
            )
    pooled = None
    if run.records:
        pooled = check_counts(
            np.sum([r["counts"] for r in run.records], axis=0),
            wl.shots * len(run.records),
            np.mean(pooled_probs, axis=0),
        )
        if not pooled.ok:
            # Every call fed the rejected pool.
            failed = run.attempted
            problems.append(f"pooled counts rejected: worst z {pooled.worst_z:.2f}")
    return failed, problems, {
        "per_call_min_p": min_p,
        "pooled_min_p": pooled.min_pvalue if pooled else None,
        "pooled_cells": pooled.cells if pooled else 0,
    }


def ratios(run: Run):
    """Acceptance at the last arm (an exact count) and the computed noisy share."""
    wl = run.workload
    walk = hasattr(wl, "steps")
    accept = [1.0 - r["counts"][-1] / wl.shots for r in run.records] if walk else []
    share = wl.noisy_share()
    return {
        "walks.accept_ratio.final": statistics.fmean(accept) if accept else 0.0,
        "walks.noisy_traj_share": share if walk else 0.0,
        "sim.noisy_shot_share": 0.0 if walk else share,
    }


def machine():
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "pin": {k: os.environ.get(k) for k in THREAD_PINS},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if any(os.environ.get(k) != "1" for k in THREAD_PINS):
        print("BLAS/OpenMP threads are not pinned to 1", file=sys.stderr)
        return 2

    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import quatro

    if not Path(quatro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"quatro imported from {quatro.__file__}, not this checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, layered_circuit

    run = Run(WORKLOADS[args.workload](args.seed))
    run.call(no_span)  # warm-up
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    seconds = args.seconds / 2 if args.trace else args.seconds
    times = run.loop(seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {"setup_s": setup_s, "calls": len(times), "machine": machine()}
    untraced_sps = run.workload.trajectories * len(times) / sum(times)
    if args.trace:
        from layers import Tracer, microbench

        layers = microbench(layered_circuit)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run.loop(seconds, tracer.span)
        finally:
            tracer.uninstall()
        layers.update(tracer.summary("call"))
        traced_sps = run.workload.trajectories * len(traced) / sum(traced)
        layers["trace.overhead_frac"] = untraced_sps / traced_sps - 1.0
        out["layers"] = layers
        out["traced_calls"] = len(traced)
    else:
        value, pct, beyond = tail(times)
        out.update(
            shots_per_s=untraced_sps,
            call_ms_p50=statistics.median(times) * 1e3,
            call_ms_tail=value * 1e3,
            tail_percentile=pct,
            tail_calls_beyond=beyond,
            peak_rss_mb=peak_rss_mb,
        )
    failed, problems, gate_info = gate(run)
    out.update(attempted=run.attempted, failed=failed, problems=problems[:5], gate=gate_info)
    if args.trace:
        out["layers"].update(ratios(run))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
