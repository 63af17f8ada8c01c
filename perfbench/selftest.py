"""Self-test of the benchmark's output checks on tiny versions of the two
workloads. Each check must pass on the program's real outputs and fail on
a deliberately corrupted copy: one perturbed lifted value, one flipped mask
pixel, one extra dropped mask and one perturbed entry of A. Takes seconds.
Run from the root of a checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(Path.cwd() / "src"))

import splatlift.cli  # noqa: E402
from splatlift import formats  # noqa: E402
from splatlift.model import LiftConfig  # noqa: E402
from splatlift.rasterize import WeightMatrix, build_weight_matrix  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from fileio import read_flt, write_flt  # noqa: E402

TINY = dict(views=3, size=32, blob_count=480, wall_count=256)
SEED = 5


def cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        code = splatlift.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"splatlift {' '.join(argv)} exited with {code}")
    return code


def expect_failure(what: str, check, restore=None) -> None:
    try:
        check()
    except checks.CheckFailed as exc:
        print(f"  ok: {what} is caught: {exc}")
    else:
        raise SystemExit(f"FAILED: {what} passed the checks")
    finally:
        if restore:
            restore()


def corrupt_file(path: Path, change):
    original = path.read_bytes()
    change(path)
    return lambda: path.write_bytes(original)


def perturb_field(path: Path) -> None:
    values = read_flt(path).copy()
    i = np.unravel_index(np.argmax(np.abs(values)), values.shape)
    values[i] += 1e-3
    write_flt(path, values)


def flip_mask_pixel(seg: Path) -> None:
    query, vid, thr, _ = checks.read_csv(seg / "thresholds.csv")[1]
    scores = read_flt(seg / f"{query}__{vid}_attention.flt")[:, :, 0]
    y, x = np.unravel_index(np.argmax(np.abs(scores - float(thr))), scores.shape)
    path = seg / f"{query}__{vid}_mask.pgm"
    mask = formats.read_mask_pgm(path)
    mask[y, x] = not mask[y, x]
    formats.write_pgm(path, mask)


def drop_one_more(filtered: Path) -> None:
    rows = checks.read_csv(filtered / "filter_report.csv")
    kept = next(i for i, r in enumerate(rows) if r[3] == "kept")
    rows[kept][3] = "dropped"
    with open(filtered / "filter_report.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def selftest(w, root: Path) -> None:
    print(f"{w.name} (tiny: {TINY})")
    fix, out = root / "fix", root / "out"
    workloads.setup_inputs(w, SEED, fix, cli)
    for _label, argv in workloads.pass_commands(w, fix, out):
        cli(argv)
    A = build_weight_matrix(formats.read_splat_ply(fix / "scene.ply"),
                            formats.read_cameras(fix / "cameras.txt"), LiftConfig(lam=1.2))
    checker = checks.PassChecker(w, fix, A, SEED)
    checker.min_miou = 0.0  # tiny silhouettes are mostly boundary pixels
    every_row = np.arange(A.rows)
    compared = checker.check_matrix(every_row)
    result = checker.check_pass(out, workloads.QUERIES)
    print(f"  ok: real outputs pass ({compared} rays against the reference, {result})")

    restore = corrupt_file(out / "field.flt", perturb_field)
    expect_failure("one perturbed lifted value",
                   lambda: checker.check_pass(out, workloads.QUERIES), restore)
    seg = out / ("seg_filt" if w.cluster_filter else "seg_raw")
    mask = seg / "{}__{}_mask.pgm".format(*checks.read_csv(seg / "thresholds.csv")[1][:2])
    restore = corrupt_file(mask, lambda _p: flip_mask_pixel(seg))
    expect_failure("one flipped mask pixel",
                   lambda: checker.check_pass(out, workloads.QUERIES), restore)
    if w.cluster_filter:
        report = out / "filtered" / "filter_report.csv"
        restore = corrupt_file(report, lambda _p: drop_one_more(out / "filtered"))
        expect_failure("one extra dropped mask",
                       lambda: checker.check_pass(out, workloads.QUERIES), restore)
    row = int(np.argmax(np.diff(A.indptr)))
    assert checker.check_matrix([row]) == 1, "the row to corrupt is not compared"
    weights = A.weights.copy()
    weights[A.indptr[row] + 1] *= 0.999
    bad = WeightMatrix(A.indptr, A.indices, weights, A.cols, A.view_ranges, A.lambda_used)
    checker.A = bad
    expect_failure("one perturbed entry of A", lambda: checker.check_matrix([row]))
    checker.check_pass(out, workloads.QUERIES)  # restored outputs pass again


def main() -> int:
    root = HERE / "out" / "selftest"
    shutil.rmtree(root, ignore_errors=True)
    try:
        for w in workloads.WORKLOADS.values():
            selftest(dataclasses.replace(w, **TINY), root / w.name)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
