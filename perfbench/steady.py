"""Steadiness: run workloads n times with different seeds and show the spread.

    python3 perfbench/steady.py --workload monitor --runs 10
    python3 perfbench/steady.py --runs 1            # every workload once

For each end-to-end metric it prints the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median, next to the metric's bound from
BENCHMARK.json.  Each run is a separate ``run.py`` process.
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


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    steady = True
    for workload in names if args.workload == "all" else [args.workload]:
        results = []
        for k in range(args.runs):
            result = run_once(workload, args.first_seed + k, args.seconds, 0)
            results.append(result)
            values = " ".join(f"{n}={m['value']:.4g} {m['unit']}" for n, m in result["metrics"].items())
            print(f"{workload} seed={args.first_seed + k} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {values}", flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: failed share {sorted(shares)}; all correct: {all(r['correct'] for r in results)}")
        for name, metric in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = median
            spread = (q3 - q1) / median if median else float("inf")
            gated = name != "setup_s"
            ok = spread < metric["bound"] / 3 or not gated
            steady = steady and ok
            print(f"  {name:12s} median={median:.5g} {metric['unit']} q1={q1:.5g} q3={q3:.5g} "
                  f"spread={spread:.4f} bound={metric['bound']} {'ok' if ok else 'TOO WIDE'}"
                  f"{'' if gated else ' (not gated)'}", flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
