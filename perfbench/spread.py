"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]

Runs run.py once per seed, one run at a time, and prints for each
end-to-end metric of BENCHMARK.json its median and the distance between
the first and third quartiles of the runs as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound.
The benchmark is steady on a workload when every spread stays below a
third of its bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect result {result}", file=sys.stderr)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
    summary = {}
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / statistics.median(vals)
        summary[m["name"]] = {"median": statistics.median(vals),
                              "spread": spread, "bound": m["bound"],
                              "steady": spread < m["bound"] / 3.0}
        print(f"{m['name']}: median {statistics.median(vals):.5g} "
              f"{m['unit']}, spread {spread:.3f} (bound {m['bound']}, "
              f"a third {m['bound'] / 3:.3f})")
    print(json.dumps({"workload": args.workload, "seconds": seconds,
                      "values": values, "summary": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
