"""Compare two sets of result files (perfbench/out/results/*.json) with the
bounds in BENCHMARK.json. Run from the root of a checkout:

    python3 perfbench/compare.py --base PARENT_DIR --new CHANGE_DIR

For every workload and end-to-end metric it prints the two medians and
one verdict:
  worse       the new median is worse than the base median by more than the bound;
  better      the new median is better by more than the base runs' own spread
              (inter-quartile distance) and the new run wins at least nine
              tenths of the pairs (runs paired by seed where the seeds match,
              otherwise every base run against every new run);
  unresolved  the base spread is wider than the bound and neither set beats
              every run of the other;
  unchanged   otherwise.
The medians are taken over the correct runs. Exits 1 if any pair is worse,
if a workload has no runs in a set, if any run of either set is not
correct, or if the share of failed commands over all runs differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def load(directory: Path) -> dict:
    """{workload: [result, ...]} of the untraced runs in a directory."""
    runs = {}
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text())
        if result.get("trace") == 0:
            runs.setdefault(result["workload"], []).append(result)
    return runs


def failed_share(runs) -> float:
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def verdict(base, new, bound: float, lower_is_better: bool, pairs) -> str:
    sign = 1.0 if lower_is_better else -1.0
    med_b, med_n = statistics.median(base), statistics.median(new)
    worse_by = sign * (med_n - med_b) / med_b
    q1, _, q3 = statistics.quantiles(base, n=4) if len(base) > 1 else (med_b,) * 3
    spread = (q3 - q1) / med_b
    all_better = all(sign * n < sign * b for n in new for b in base)
    all_worse = all(sign * n > sign * b for n in new for b in base)
    if spread > bound:
        return "better" if all_better else "worse" if all_worse else "unresolved"
    if worse_by > bound:
        return "worse"
    wins = sum(1 for b, n in pairs if sign * n < sign * b)
    if -worse_by > spread and wins >= 0.9 * len(pairs):
        return "better"
    return "unchanged"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, type=Path)
    parser.add_argument("--new", required=True, type=Path)
    args = parser.parse_args(argv)
    bench = json.loads(Path("BENCHMARK.json").read_text())
    base, new = load(args.base), load(args.new)
    status = 0
    print(f"{'workload':16s} {'metric':18s} {'base':>10s} {'new':>10s} {'change':>8s}  verdict")
    for workload in [w["name"] for w in bench["workloads"]]:
        sets = {"base": base.get(workload, []), "new": new.get(workload, [])}
        for label, runs in sets.items():
            wrong = [r["seed"] for r in runs if not r["correct"]]
            if not runs:
                print(f"{workload:16s} no runs in the {label} set")
                status = 1
            elif wrong:
                print(f"{workload:16s} {len(wrong)} of {len(runs)} {label} runs not correct "
                      f"(seeds {sorted(wrong)})")
                status = 1
        if not sets["base"] or not sets["new"]:
            continue
        shares = (failed_share(sets["base"]), failed_share(sets["new"]))
        if shares[0] != shares[1]:
            print(f"{workload:16s} failed share differs: {shares[0]:.6g} vs {shares[1]:.6g}")
            status = 1
        good_b = [r for r in sets["base"] if r["correct"]]
        good_n = [r for r in sets["new"] if r["correct"]]
        if not good_b or not good_n:
            continue
        by_seed_b = {r["seed"]: r for r in good_b}
        by_seed_n = {r["seed"]: r for r in good_n}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in good_b]
            n = [r["metrics"][name]["value"] for r in good_n]
            if set(by_seed_b) == set(by_seed_n):
                pairs = [(by_seed_b[s]["metrics"][name]["value"],
                          by_seed_n[s]["metrics"][name]["value"]) for s in by_seed_b]
            else:
                pairs = [(x, y) for x in b for y in n]
            result = verdict(b, n, metric["bound"], metric["better"] == "lower", pairs)
            status |= result == "worse"
            change = statistics.median(n) / statistics.median(b) - 1.0
            print(f"{workload:16s} {name:18s} {statistics.median(b):10.4g} "
                  f"{statistics.median(n):10.4g} {change:+8.2%}  {result}")
    return status


if __name__ == "__main__":
    sys.exit(main())
