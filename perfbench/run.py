"""Benchmark of the splatlift pipeline, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 it generates the workload's inputs three times in one process
(setup_s is the median), then runs whole passes of the workload's CLI commands, each
pass in a fresh process, until S seconds of passes are done, and reports
the end-to-end metrics. With --trace 1 it runs traced rounds (synth plus
one pass) for S seconds and reports the per-layer metrics. Every pass's
outputs are checked after it ends, outside the timed region. The last line
of standard output is one JSON object; one result file per run is written
under perfbench/out/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One thread per process: before numpy loads, here and in every child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "SPLATLIFT_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170

UNITS = {"setup_s": "s", "pipeline_s": "s", "lift_s": "s", "lift_streaming_s": "s",
         "query_s": "s", "peak_rss_mb": "MB", "miou": "ratio", "mean_cosine": "ratio"}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_per_ray"):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "count"


class Bench:
    def __init__(self, workload, seed: int, work: Path):
        self.w, self.seed, self.work = workload, seed, work
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        self.attempted = 0
        self.failed = 0
        self.jobs = 0

    def child(self, **job) -> tuple[float, dict]:
        """Run runner.py on one job; returns (wall seconds, result)."""
        self.jobs += 1
        job_path = self.work / f"job{self.jobs}.json"
        job.update(workload=self.w.name, seed=self.seed,
                   result=str(self.work / f"result{self.jobs}.json"))
        job_path.write_text(json.dumps(job))
        with open(self.work / "children.log", "a") as log:
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, str(HERE / "runner.py"), str(job_path)],
                                  env=self.env, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=CHILD_TIMEOUT_S)
            wall = time.perf_counter() - start
        if proc.returncode != 0:
            tail = (self.work / "children.log").read_text()[-3000:]
            raise RuntimeError(f"benchmark process failed ({job['mode']}):\n{tail}")
        result = Path(job["result"])
        return wall, json.loads(result.read_text()) if result.exists() else {}

    def run_pass(self, fix: Path, out: Path, trace=False) -> dict:
        _, res = self.child(mode="pass", fix=str(fix), out=str(out), trace=trace,
                            spans=str(self.work / "spans.json"))
        for label, _secs, code, _cpu in res["commands"]:
            self.attempted += 1
            if code != 0:
                self.failed += 1
                print(f"command {label} exited with {code}", file=sys.stderr)
        return res


def checker_for(w, fix: Path, seed: int):
    from checks import PassChecker
    from splatlift import formats
    from splatlift.model import LiftConfig
    from splatlift.rasterize import build_weight_matrix

    scene = formats.read_splat_ply(fix / "scene.ply")
    A = build_weight_matrix(scene, formats.read_cameras(fix / "cameras.txt"),
                            LiftConfig(lam=1.2))
    checker = PassChecker(w, fix, A, seed)
    checker.check_matrix()
    return checker


def measure(bench: Bench, seconds: float) -> tuple[dict, dict]:
    from fileio import tree_sha256
    from workloads import QUERIES

    w = bench.w
    _, res = bench.child(mode="setup", fix=str(bench.work / "fix"), repeats=SETUP_REPEATS)
    setup_walls = res["setup_s"]
    hashes = [tree_sha256(bench.work / f"setup{k}") for k in range(SETUP_REPEATS)]
    if len(set(hashes)) != 1:
        raise AssertionError("synth made different inputs from the same seed")
    for k in range(1, SETUP_REPEATS):
        shutil.rmtree(bench.work / f"setup{k}")
    fix = bench.work / "setup0" / "fix"
    checker = checker_for(w, fix, bench.seed)

    passes, spent = [], 0.0
    while spent < seconds or not passes:
        out = bench.work / f"pass{len(passes)}"
        start = time.perf_counter()
        res = bench.run_pass(fix, out)
        spent += time.perf_counter() - start
        res.update(checker.check_pass(out, QUERIES))
        passes.append(res)
        shutil.rmtree(out)

    def per_command(label=None) -> float:
        """Command seconds over the whole run, per command with this label
        (per pass when label is None). A mean, not a median: the host's
        speed moves in phases of ten seconds and more, and a median of a few
        samples jumps between a fast and a slow phase."""
        times = [c[1] for r in passes for c in r["commands"] if label in (None, c[0])]
        return sum(times) / (len(passes) if label is None else len(times))

    def med(values):
        return statistics.median(values)

    metrics = {
        "setup_s": med(setup_walls),
        "pipeline_s": per_command(),
        "lift_s": per_command("lift"),
        "lift_streaming_s": per_command("lift_streaming"),
        "query_s": per_command("segment"),
        "peak_rss_mb": med([r["maxrss_mb"] for r in passes]),
        "miou": med([r["miou"] for r in passes]),
        "mean_cosine": med([r["mean_cosine"] for r in passes]),
    }
    info = {"setup_s": setup_walls, "input_sha256": hashes[0],
            "commands": [r["commands"] for r in passes]}  # label, wall s, exit code, CPU s
    return {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}, info


def measure_traced(bench: Bench, seconds: float) -> tuple[dict, dict]:
    from fileio import tree_sha256
    from workloads import QUERIES

    bench.child(mode="setup", fix=str(bench.work / "fix"), repeats=1)
    fix = bench.work / "setup0" / "fix"
    checker = checker_for(bench.w, fix, bench.seed)
    rounds, spent = [], 0.0
    while spent < seconds or not rounds:
        base = bench.work / f"round{len(rounds)}"
        start = time.perf_counter()
        res = bench.run_pass(base / "fix", base / "out", trace=True)
        spent += time.perf_counter() - start
        if tree_sha256(base / "fix") != tree_sha256(fix):
            raise AssertionError("synth made different inputs from the same seed")
        checker.check_pass(base / "out", QUERIES)
        rounds.append(res["layers"])
        shutil.rmtree(base)
    metrics = {name: statistics.median(m[name] for m in rounds) for name in rounds[0]}
    info = {"rounds": len(rounds), "input_sha256": tree_sha256(fix)}
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}, info


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "splatlift" / "cli.py").is_file():
        print(f"error: {SRC / 'splatlift'} not found; run from the root of a splatlift "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from checks import CheckFailed
    from fileio import tree_sha256
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}" \
             f"-{os.getpid()}"
    work = HERE / "out" / "work" / run_id
    work.mkdir(parents=True)
    bench = Bench(WORKLOADS[args.workload], args.seed, work)
    correct, error = True, None
    metrics, info = {}, {}
    try:
        if args.trace:
            metrics, info = measure_traced(bench, args.seconds)
        else:
            metrics, info = measure(bench, args.seconds)
    except CheckFailed as exc:
        correct, error = False, f"check failed: {exc}"
    except Exception as exc:  # a crash or a failed command: no result, but a record
        correct, error = False, f"{type(exc).__name__}: {exc}"
    if error:
        print(error, file=sys.stderr)
    summary = {"correct": correct, "attempted": max(bench.attempted, 1),
               "failed": bench.failed if bench.attempted else 1, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "git_commit": git_commit(),
              "src_sha256": tree_sha256(SRC / "splatlift"), "error": error,
              **info, **summary}
    results = HERE / "out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{run_id}.json").write_text(json.dumps(record, indent=1) + "\n")
    if (work / "spans.json").exists():  # the last traced round's spans
        shutil.move(work / "spans.json", results / f"{run_id}.spans.json")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(summary))
    return 0 if correct and bench.attempted else 1


if __name__ == "__main__":
    sys.exit(main())
