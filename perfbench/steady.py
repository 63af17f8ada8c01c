"""Steadiness of the end-to-end metrics: run one workload N times, each
with another seed, and print every metric's median, quartiles and
relative spread (inter-quartile distance over the median) next to its
bound from BENCHMARK.json. Run from the root of a checkout:

    python3 perfbench/steady.py --workload noisy_pipeline --runs 10

Run k uses seed k.

A spread is flagged when it exceeds a third of the bound (setup_s
excepted: its bound only limits how far its median may move).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    bench = json.loads(Path("BENCHMARK.json").read_text())
    values, shares = {}, set()
    for seed in range(1, args.runs + 1):
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                               "--trace", "0"], capture_output=True, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: checks failed\n{proc.stderr}", file=sys.stderr)
            return 1
        shares.add((result["failed"], result["attempted"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={m['value']:.4g}"
                                          for n, m in result["metrics"].items()), flush=True)
    print(f"\n{args.workload}: {args.runs} runs, (failed, attempted) per run: {sorted(shares)}")
    print(f"{'metric':18s} {'q1':>10s} {'median':>10s} {'q3':>10s} {'spread':>8s} {'bound':>6s}")
    steady = True
    for metric in bench["end_to_end"]:
        q1, med, q3, rel = spread(values[metric["name"]])
        flag = ""
        if metric["name"] != "setup_s" and rel > metric["bound"] / 3:
            flag, steady = "  > bound/3", False
        print(f"{metric['name']:18s} {q1:10.4f} {med:10.4f} {q3:10.4f} {rel:8.4f} "
              f"{metric['bound']:6.2f}{flag}")
    return 0 if steady and len({f / a for f, a in shares}) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
