"""Run-to-run spread of the end-to-end metrics, against their bounds.

    python3 perfbench/spread.py --workload pool-match --seeds 1 2 3 4 5

Runs ``run.py`` once per seed (``run_seconds`` from ``BENCHMARK.json``),
then prints, per metric, the median and the distance between the first
and third quartile as a share of the median -- the spread the benchmark's
bounds must contain. Records go to ``.bench_build/spread``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values) -> float:
    """Interquartile distance over the median (Python's quartile rule)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_dir = ROOT / ".bench_build" / "spread"
    out_dir.mkdir(parents=True, exist_ok=True)

    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        proc = subprocess.run(
            spec["command"] + ["--workload", args.workload, "--seed",
                               str(seed), "--seconds",
                               str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr[-2000:], file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        (out_dir / f"{args.workload}-seed{seed}.json").write_text(
            json.dumps(result))
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()),
              flush=True)

    if len(args.seeds) < 2:
        return 0
    print(f"{'metric':16s} {'median':>12s} {'spread':>8s} {'bound':>7s}")
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        s = spread(vals)
        flag = "" if s < metric["bound"] / 3 else "  <-- over bound/3"
        print(f"{metric['name']:16s} {statistics.median(vals):12.4f} "
              f"{s:8.4f} {metric['bound']:7.3f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
