"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload walk_noisy --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; ``quatro`` is imported from its
``src`` directory. Each run starts fresh worker processes with BLAS/OpenMP
pinned to one thread before numpy is imported: ``SETUP_SAMPLES - 1``
set-up-only workers, then the measuring worker, so ``setup_s`` is the
median of ``SETUP_SAMPLES`` cold set-ups and ``peak_rss_mb`` belongs to the
workload's own process.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. The line before it holds the details
(tail percentile, sample counts, gate statistics, machine). The exit code
is not 0, and no result is printed, if the run could not be made.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("walk_noisy", "walk_calibrated", "circuit_noisy")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0


def metric_units(key: str) -> dict[str, str]:
    """Metric names and units, as ``BENCHMARK.json`` lists them under ``key``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def worker(args: list[str], env: dict, deadline: float) -> dict:
    """Run one worker to completion and return its JSON result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "quatro" / "__init__.py").is_file():
        print(f"no quatro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [worker(common + ["--setup-only"], env, deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        res = worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                     env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"benchmark run failed: {exc!r}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])

    if args.trace:
        values, units = res.pop("layers"), metric_units("per_layer")
    else:
        res["setup_s"] = statistics.median(setups)
        values, units = res, metric_units("end_to_end")
    missing = set(units) - set(values)
    if missing:
        print(f"worker did not report {sorted(missing)}", file=sys.stderr)
        return 1
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    details = {k: v for k, v in res.items() if k not in metrics}
    details.update(workload=args.workload, seed=args.seed, setup_samples=setups)
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
