"""One benchmark process: either generates a workload's inputs, or runs the
CLI commands of one pass one after another through `splatlift.cli.main`,
optionally traced; a traced pass starts with its own `synth`. Started by
run.py with a job file; writes a JSON result.

    python3 perfbench/runner.py JOB.json
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

import splatlift.cli

import tracing
import workloads


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    w = workloads.WORKLOADS[job["workload"]]
    fix = Path(job["fix"])
    if job["mode"] == "setup":
        times = []
        for k in range(job["repeats"]):
            start = time.perf_counter()
            workloads.setup_inputs(w, job["seed"], fix.parent / f"setup{k}" / fix.name,
                                   splatlift.cli.main)
            times.append(time.perf_counter() - start)
        Path(job["result"]).write_text(json.dumps({"setup_s": times}))
        return 0

    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    commands = workloads.pass_commands(w, fix, Path(job["out"]))
    if tracer is not None:
        fix.parent.mkdir(parents=True, exist_ok=True)
        (fix.parent / "spec.ini").write_text(workloads.spec_text(w, job["seed"]))
        commands.insert(0, ("synth", workloads.synth_command(fix)))
    results = []
    for i, (label, argv) in enumerate(commands):
        if tracer is not None:
            tracer.run_id = f"{i:02d}-{label}"
        start, cpu = time.perf_counter(), time.process_time()
        try:
            code = splatlift.cli.main(argv)
        except Exception:  # a crash is a failed command; the pass goes on
            traceback.print_exc()
            code = -1
        results.append([label, time.perf_counter() - start, code, time.process_time() - cpu])
        sys.stdout.flush()
    out = {"commands": results,
           "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        wall = sum(r[1] for r in results)
        out["layers"] = tracing.layer_metrics(tracer.spans, tracer.counts, wall,
                                              tracer.overhead_s())
        tracer.dump(job["spans"])
    Path(job["result"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
