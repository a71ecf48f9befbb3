"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --runs 10 [--first-seed 1] [--workloads fedsim_small,compare_agg]

Runs ``run.py`` once per (workload, seed) in sequence, seeds first-seed..
first-seed+runs-1, and
prints for every metric the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the interquartile
distance as a share of the median next to the metric's bound from
BENCHMARK.json. Run it from the root of a checkout, on an otherwise idle
machine.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from spans import quartiles, relative_spread

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    status = 0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True,
                text=True,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if not result or not result["correct"]:
                print(f"{workload} seed {seed}: failed\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, vals in values.items():
            q1, q2, q3 = quartiles(vals)
            bound = bounds.get(name)
            print(
                f"{workload:13s} {name:45s} median {q2:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                f"spread {relative_spread(vals):7.4f}  bound {bound if bound is not None else '-'}  n={len(vals)}"
            )
            print(f"{workload:13s} {name:45s} values {json.dumps(vals)}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
