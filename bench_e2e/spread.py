"""Spread tool: run one workload on several seeds, report each metric's spread.

Run from the repository root::

    python3 bench_e2e/spread.py --workload hier-ladder --seeds 1,2,3,4,5

For every metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), IQR ÷ median, and the
metric's bound from ``BENCHMARK.json``; ``steady`` means the spread is
below a third of the bound, ``ok`` below the bound.  Runs are untraced:
per-layer metrics have no bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "bench_e2e" / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"seed {seed}: run failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def spread(values: list) -> tuple[float, float, float, float]:
    """``(median, q1, q3, IQR / median)`` of ``values``.

    >>> spread([1.0, 2.0, 3.0, 4.0, 5.0])
    (3.0, 1.5, 4.5, 1.0)
    """
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    results = []
    for seed in (int(s) for s in args.seeds.split(",")):
        result = run_once(args.workload, seed, seconds)
        results.append({"seed": seed, **result})
        print(
            f"seed {seed}: correct={result['correct']} "
            f"attempted={result['attempted']} failed={result['failed']}",
            flush=True,
        )
    names = sorted(results[0]["metrics"])
    print(f"{'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        median, q1, q3, ratio = spread(values)
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = "steady" if ratio < bound / 3 else "ok" if ratio <= bound else "NOISY"
        print(
            f"{name:<36} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} {ratio:>8.3f} "
            f"{'' if bound is None else bound:>6} {verdict}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
