"""Command-line interface: lift, cluster-filter, segment, eval, synth, verify.

Exit codes: 0 success, 1 invalid input, 2 invariant violation (verify),
3 I/O failure. The SPLATLIFT_THREADS environment variable sets the worker
count for per-view parallel stages; option precedence is
flags > --config file > built-in defaults.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import formats
from .aggregate import cluster_features, filter_observations, iou, onehot
from .model import CameraView, InvalidInputError, KernelKind, LiftConfig
from .query import (
    QueryEmbedding,
    ValleyNotFoundError,
    attention_scores,
    auto_threshold,
    eval_cosine,
    render_attention,
    segment,
)
from .rasterize import build_weight_matrix, render, render_labels
from .solver import FeatureField, ObservationSet, lift_rowsum, lift_rowsum_squared, lift_streaming
from .synthbench import instance_label_maps, make_observations, make_scene, parse_scene_spec
from .verify import SUITES, VerificationError, run_suite

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_INVARIANT = 2
EXIT_IO = 3

KERNELS = {"gaussian3d": KernelKind.GAUSSIAN_3D, "gaussian2d": KernelKind.GAUSSIAN_2D}
# The lifts are looked up by name on each call, so that rebinding the
# module's names (as perfbench/tracing.py does to time them) reaches them.
LIFTS = {"rowsum": lambda A, obs: lift_rowsum(A, obs),
         "rowsum2": lambda A, obs: lift_rowsum_squared(A, obs)}

# Pipeline defaults for auto thresholding: coarser bins and a wider window
# than the per-map library defaults, because the CLI pools scores across all
# views of a query before locating the valley.
SEGMENT_BINS = 96
SEGMENT_SMOOTHING = 7


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InvalidInputError(message)


def _threads() -> int:
    raw = os.environ.get("SPLATLIFT_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise InvalidInputError(f"SPLATLIFT_THREADS must be an integer, got {raw!r}")
    if n < 1:
        raise InvalidInputError("SPLATLIFT_THREADS must be >= 1")
    return n


def _load_config(path) -> dict:
    if path is None:
        return {}
    cp = configparser.ConfigParser()
    try:
        cp.read_string(Path(path).read_text())
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise formats.FormatError(f"{path}: malformed config: {exc}") from exc
    if not cp.has_section("splatlift"):
        return {}
    config = dict(cp["splatlift"])
    for key, table in (("mode", LIFTS), ("kernel", KERNELS)):
        if key in config and config[key] not in table:
            raise InvalidInputError(
                f"{path}: {key} must be one of {sorted(table)}, got {config[key]!r}")
    return config


def _setting(args, config: dict, name: str, default, cast, attr: str | None = None):
    """Flag value if given, else config-file value, else the default."""
    flag = getattr(args, attr or name.replace("-", "_"), None)
    if flag is not None:
        return flag
    if name in config:
        try:
            return cast(config[name])
        except ValueError:
            raise InvalidInputError(
                f"config {name} must be {cast.__name__}, got {config[name]!r}") from None
    return default


def _load_observations(views, features_dir) -> ObservationSet:
    """Pair every view with <view_id>.flt (dense) or <view_id>.lbl/.lft."""
    features_dir = Path(features_dir)
    if not features_dir.is_dir():
        raise formats.FormatError(f"{features_dir}: not a directory")
    dense = {}
    labels = {}
    tables = {}
    for view in views:
        flt = features_dir / f"{view.view_id}.flt"
        lbl = features_dir / f"{view.view_id}.lbl"
        lft = features_dir / f"{view.view_id}.lft"
        if flt.exists():
            arr = formats.read_feature_tensor(flt)
            if arr.shape[:2] != (view.height, view.width):
                raise InvalidInputError(
                    f"{flt}: tensor is {arr.shape[0]}x{arr.shape[1]} but view "
                    f"{view.view_id!r} is {view.height}x{view.width}")
            dense[view.view_id] = arr.astype(np.float64)
        elif lbl.exists():
            if not lft.exists():
                raise InvalidInputError(
                    f"view {view.view_id!r}: found {lbl.name} but its feature table "
                    f"{lft.name} is missing")
            lab = formats.read_label_map(lbl)
            if lab.shape != (view.height, view.width):
                raise InvalidInputError(
                    f"{lbl}: map is {lab.shape[0]}x{lab.shape[1]} but view "
                    f"{view.view_id!r} is {view.height}x{view.width}")
            table = formats.read_label_features(lft)
            formats.validate_label_pair(lab, table, path=str(lbl))
            labels[view.view_id] = lab
            tables[view.view_id] = {k: v.astype(np.float64) for k, v in table.items()}
        else:
            raise InvalidInputError(
                f"view {view.view_id!r}: no observation file ({flt.name} or {lbl.name}) "
                f"in {features_dir}")
    if dense and labels:
        raise InvalidInputError(
            "mixed dense and label-backed observation files; use one backing for all views")
    if dense:
        return ObservationSet.from_dense(views, dense)
    return ObservationSet.from_labels(views, labels, tables)


def _coverage_summary(field: FeatureField) -> dict:
    unobserved = int(field.unobserved.sum())
    cov = field.coverage if field.coverage is not None else np.zeros(field.count)
    return {
        "observed": int(field.count - unobserved),
        "unobserved": unobserved,
        "mean_coverage": float(cov.mean()),
    }


# -- lift ---------------------------------------------------------------------

def _cmd_lift(args) -> int:
    config = _load_config(args.config)
    lam = float(_setting(args, config, "lambda", 1.2, float, attr="lam"))
    mode = _setting(args, config, "mode", "rowsum", str)
    kernel_name = _setting(args, config, "kernel", "gaussian3d", str)
    cfg = LiftConfig(lam=lam)
    scene = formats.read_splat_ply(args.scene, kernel=KERNELS[kernel_name])
    views = formats.read_cameras(args.cameras)
    obs = _load_observations(views, args.features)
    threads = _threads()
    started = time.perf_counter()
    if args.streaming:
        field = lift_streaming(scene, views, obs, cfg, mode=mode, threads=threads)
        path_kind = "streaming"
        matrix = None
    else:
        matrix = build_weight_matrix(scene, views, cfg, threads=threads)
        field = LIFTS[mode](matrix, obs)
        path_kind = "matrix"
    elapsed = time.perf_counter() - started

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    formats.write_feature_field(out, field)
    report = {
        "lambda": lam,
        "mode": mode,
        "path": path_kind,
        "kernel": kernel_name,
        "rows": int(obs.rows),
        "primitives": int(field.count),
        "feature_dim": int(field.feature_dim),
        "coverage": _coverage_summary(field),
        "timing_s": elapsed,
    }
    formats.write_run_report(str(out) + ".json", report)
    if args.render_views:
        if matrix is None:
            matrix = build_weight_matrix(scene, views, cfg, threads=threads)
        rendered = render(matrix, field.values, np.zeros(field.feature_dim))
        rdir = Path(args.render_views)
        rdir.mkdir(parents=True, exist_ok=True)
        for view in views:
            start, stop = matrix.view_ranges[view.view_id]
            formats.write_feature_tensor(
                rdir / f"{view.view_id}.flt",
                rendered[start:stop].reshape(view.height, view.width, field.feature_dim))
    print(f"lift: wrote {out} ({field.count} primitives, F={field.feature_dim}, "
          f"lambda={lam}, mode={mode}, {path_kind} path, {elapsed:.2f}s)")
    return EXIT_OK


# -- cluster-filter -------------------------------------------------------------

def _field_matrix(args, config: dict, field: FeatureField):
    """Views, weight matrix and kernel name for a command that reuses a field.

    Lambda falls back to the one recorded in the field's run report, then to
    the lift default; the scene must have as many primitives as the field.
    """
    kernel_name = _setting(args, config, "kernel", "gaussian3d", str)
    lam = _setting(args, config, "lambda", None, float, attr="lam")
    report_path = Path(args.field).with_suffix(Path(args.field).suffix + ".json")
    if lam is None and report_path.exists():
        lam = formats.read_run_report(report_path).get("lambda")
        try:
            lam = None if lam is None else float(lam)
        except (TypeError, ValueError):
            raise InvalidInputError(
                f"{report_path}: lambda must be a number, got {lam!r}") from None
    lam = 1.2 if lam is None else lam
    scene = formats.read_splat_ply(args.scene, kernel=KERNELS[kernel_name])
    views = formats.read_cameras(args.cameras)
    matrix = build_weight_matrix(scene, views, LiftConfig(lam=lam), threads=_threads())
    if matrix.cols != field.count:
        raise InvalidInputError(
            f"field has {field.count} primitives but the scene has {matrix.cols}")
    return views, matrix, kernel_name


def _cmd_cluster_filter(args) -> int:
    config = _load_config(args.config)
    tau = float(_setting(args, config, "tau", 0.6, float))
    if not (0.0 < tau < 1.0):
        raise InvalidInputError(f"tau must lie in (0, 1), got {tau}")
    mode = _setting(args, config, "mode", "rowsum", str)
    field = formats.read_feature_field(args.field)
    views, matrix, kernel_name = _field_matrix(args, config, field)
    obs = _load_observations(views, args.labels)
    if not obs.label_backed:
        raise InvalidInputError(
            "cluster-filter requires label-backed observations (.lbl/.lft); "
            "dense feature tensors carry no masks to filter")

    assignment = cluster_features(field)
    kappa = render_labels(matrix, onehot(assignment))
    filtered, records = filter_observations(obs, kappa, tau)

    out = Path(args.out)
    labels_dir = out / "labels"
    labels_dir.mkdir(parents=True, exist_ok=True)
    for view in views:
        lab = filtered.view_label_map(view.view_id)
        formats.write_label_map(labels_dir / f"{view.view_id}.lbl", lab)
        table = filtered.label_features[view.view_id]
        formats.write_label_features(labels_dir / f"{view.view_id}.lft", table,
                                     feature_dim=filtered.feature_dim)
    with open(out / "filter_report.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["view_id", "label", "iou", "decision"])
        for rec in records:
            writer.writerow([rec.view_id, rec.label, f"{rec.iou:.6f}", rec.decision])
    dropped = sum(1 for r in records if not r.kept)
    print(f"cluster-filter: {assignment.n_clusters} clusters, "
          f"{dropped}/{len(records)} masks dropped at tau={tau}")
    if args.relift:
        started = time.perf_counter()
        relifted = LIFTS[mode](matrix, filtered)
        elapsed = time.perf_counter() - started
        formats.write_feature_field(out / "field.flt", relifted)
        formats.write_run_report(out / "field.flt.json", {
            "lambda": matrix.lambda_used, "mode": mode, "path": "matrix",
            "kernel": kernel_name, "rows": int(obs.rows), "primitives": int(relifted.count),
            "feature_dim": int(relifted.feature_dim),
            "coverage": _coverage_summary(relifted),
            "timing_s": elapsed,
        })
        print(f"cluster-filter: re-lifted field written to {out / 'field.flt'}")
    return EXIT_OK


# -- segment --------------------------------------------------------------------

def _cmd_segment(args) -> int:
    config = _load_config(args.config)
    bins = int(_setting(args, config, "bins", SEGMENT_BINS, int))
    smoothing = int(_setting(args, config, "smoothing", SEGMENT_SMOOTHING, int))
    fallback = float(_setting(args, config, "fallback-threshold", 0.5, float))
    field = formats.read_feature_field(args.field)
    qarr = formats.read_feature_tensor(args.query)
    query = QueryEmbedding(vector=qarr.reshape(-1).astype(np.float64),
                           name=Path(args.query).stem)
    views, matrix, _ = _field_matrix(args, config, field)

    scores = attention_scores(field, query)
    maps = render_attention(matrix, scores, views, lift_lambda=matrix.lambda_used)
    if args.threshold == "auto":
        # One pooled threshold per query: merging the covered scores of all
        # views densifies the histogram, which stabilizes the valley search.
        pooled = np.concatenate([maps[v.view_id].covered_scores() for v in views])
        try:
            threshold = auto_threshold(pooled, bins=bins, smoothing_window=smoothing)
            picked = "auto"
        except ValleyNotFoundError as exc:
            print(f"segment: {exc}; falling back to fixed threshold {fallback}")
            threshold = fallback
            picked = "fallback"
    else:
        try:
            threshold = float(args.threshold)
        except ValueError:
            raise InvalidInputError(
                f"--threshold must be 'auto' or a real number, got {args.threshold!r}")
        picked = "manual"

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for view in views:
        amap = maps[view.view_id]
        mask = segment(amap, threshold)
        stem = f"{query.name}__{view.view_id}"
        formats.write_pgm(out / f"{stem}_mask.pgm", mask)
        formats.write_pgm(out / f"{stem}_attention.pgm", amap.to_display())
        formats.write_feature_tensor(out / f"{stem}_attention.flt",
                                     amap.scores[:, :, None].astype(np.float32))
        rows.append([query.name, view.view_id, f"{threshold:.8f}", picked])
    # Several queries share one thresholds.csv; a rerun replaces its query's rows.
    csv_path = out / "thresholds.csv"
    kept = []
    if csv_path.exists():
        with open(csv_path, newline="") as fh:
            kept = [r for r in list(csv.reader(fh))[1:] if r and r[0] != query.name]
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["query", "view_id", "threshold", "selection"])
        writer.writerows(kept + rows)
    print(f"segment: query {query.name!r} threshold={threshold:.6f} ({picked}), "
          f"{len(views)} views written to {out}")
    return EXIT_OK


# -- eval -----------------------------------------------------------------------

def _cmd_eval(args) -> int:
    if bool(args.pred) == bool(args.rendered):
        raise InvalidInputError("eval needs exactly one of --pred (mIoU) or --rendered (cosine)")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.pred:
        pred_dir, gt_dir = Path(args.pred), Path(args.gt)
        pred_files = {p.name: p for p in sorted(pred_dir.glob("*_mask.pgm"))}
        if not pred_files:
            raise InvalidInputError(f"{pred_dir}: no *_mask.pgm predictions found")
        rows = []
        scores = []
        for name, path in pred_files.items():
            gt_path = gt_dir / name
            if not gt_path.exists():
                print(f"eval: warning: no ground truth for {name}, excluded")
                continue
            value = iou(formats.read_mask_pgm(path), formats.read_mask_pgm(gt_path))
            rows.append([name, f"{value:.6f}"])
            scores.append(value)
        if not scores:
            raise InvalidInputError("no prediction/ground-truth pairs to evaluate")
        miou = float(np.mean(scores))
        with open(out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["mask", "iou"])
            writer.writerows(rows)
            writer.writerow(["mIoU", f"{miou:.6f}"])
        print(f"eval: mIoU={miou:.6f} over {len(scores)} masks -> {out}")
        return EXIT_OK

    rendered_dir, gt_dir = Path(args.rendered), Path(args.gt)
    rows = []
    total_cos = 0.0
    total_rays = 0
    total_excluded = 0
    rendered_files = sorted(rendered_dir.glob("*.flt"))
    if not rendered_files:
        raise InvalidInputError(f"{rendered_dir}: no rendered .flt tensors found")
    for path in rendered_files:
        vid = path.stem
        arr = formats.read_feature_tensor(path).astype(np.float64)
        h, w, f = arr.shape
        view = CameraView(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=w, height=h,
                          world_to_camera=np.eye(4), view_id=vid)
        gt_flt = gt_dir / f"{vid}.flt"
        gt_lbl = gt_dir / f"{vid}.lbl"
        if gt_flt.exists():
            gt_obs = ObservationSet.from_dense(
                [view], {vid: formats.read_feature_tensor(gt_flt).astype(np.float64)})
        elif gt_lbl.exists():
            lab = formats.read_label_map(gt_lbl)
            table = formats.read_label_features(gt_dir / f"{vid}.lft")
            formats.validate_label_pair(lab, table, path=str(gt_lbl))
            gt_obs = ObservationSet.from_labels(
                [view], {vid: lab}, {vid: {k: v.astype(np.float64) for k, v in table.items()}})
        else:
            print(f"eval: warning: no ground truth for view {vid}, excluded")
            continue
        rep = eval_cosine(arr.reshape(-1, f), gt_obs)
        rows.append([vid, f"{rep.mean:.6f}", rep.rays_used, rep.rays_excluded])
        total_cos += rep.mean * rep.rays_used
        total_rays += rep.rays_used
        total_excluded += rep.rays_excluded
    if total_rays == 0:
        raise InvalidInputError("no rendered/ground-truth pairs to evaluate")
    overall = total_cos / total_rays
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["view_id", "mean_cosine", "rays_used", "rays_excluded"])
        writer.writerows(rows)
        writer.writerow(["overall", f"{overall:.6f}", total_rays, total_excluded])
    print(f"eval: mean cosine={overall:.6f} over {total_rays} rays "
          f"({total_excluded} excluded) -> {out}")
    return EXIT_OK


# -- synth ------------------------------------------------------------------------

def _cmd_synth(args) -> int:
    spec_text = Path(args.spec).read_text()
    spec = parse_scene_spec(spec_text)
    scene, views, object_ids = make_scene(spec)
    obs, tags = make_observations(scene, views, spec, object_ids=object_ids)
    clean_matrix = build_weight_matrix(scene, views, LiftConfig(lam=1.0), threads=_threads())
    clean_maps = instance_label_maps(clean_matrix, object_ids, len(spec.objects))

    out = Path(args.out)
    (out / "features").mkdir(parents=True, exist_ok=True)
    (out / "gt").mkdir(exist_ok=True)
    (out / "queries").mkdir(exist_ok=True)
    formats.write_splat_ply(out / "scene.ply", scene)
    formats.write_cameras(out / "cameras.txt", views)
    (out / "spec.ini").write_text(spec_text)
    for view in views:
        vid = view.view_id
        formats.write_label_map(out / "features" / f"{vid}.lbl", obs.view_label_map(vid))
        formats.write_label_features(out / "features" / f"{vid}.lft",
                                     obs.label_features[vid], feature_dim=obs.feature_dim)
        clean = clean_maps[vid].reshape(view.height, view.width)
        for obj_index, obj in enumerate(spec.objects):
            formats.write_pgm(out / "gt" / f"{obj.name}__{vid}_mask.pgm", clean == obj_index)
    feats = np.array([o.feature for o in spec.objects], dtype=np.float64)
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    for obj, vec in zip(spec.objects, feats):
        formats.write_feature_tensor(out / "queries" / f"{obj.name}.flt",
                                     vec.reshape(1, 1, -1).astype(np.float32))
    with open(out / "tags.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["view_id", "label", "tag", "source_objects"])
        for (vid, label), tag in sorted(tags.items()):
            writer.writerow([vid, label, "merged" if tag.merged else "clean",
                             "+".join(spec.objects[i].name for i in tag.source_objects)])
    n_merged = sum(1 for t in tags.values() if t.merged)
    print(f"synth: {len(scene)} primitives, {len(views)} views, "
          f"{len(tags)} masks ({n_merged} merged) -> {out}")
    return EXIT_OK


# -- verify -----------------------------------------------------------------------

def _cmd_verify(args) -> int:
    ok, lines, rows_csv = run_suite(args.suite, seed=args.seed)
    for line in lines:
        print(line)
    if args.report and rows_csv:
        with open(args.report, "w", newline="") as fh:
            csv.writer(fh).writerows(rows_csv)
        print(f"verify: report written to {args.report}")
    if not ok:
        raise VerificationError(f"suite {args.suite!r} found violated invariants")
    print(f"verify: suite {args.suite!r} passed")
    return EXIT_OK


# -- parser ------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="splatlift",
                     description="Feature lifting onto splat scenes via a sparse "
                                 "row-stochastic linear inverse problem")
    sub = parser.add_subparsers(dest="command", required=True)

    lift = sub.add_parser("lift", help="lift per-view observations onto primitives")
    lift.add_argument("--scene", required=True)
    lift.add_argument("--cameras", required=True)
    lift.add_argument("--features", required=True)
    lift.add_argument("--lambda", dest="lam", type=float, default=None)
    lift.add_argument("--mode", choices=sorted(LIFTS), default=None)
    lift.add_argument("--kernel", choices=sorted(KERNELS), default=None)
    group = lift.add_mutually_exclusive_group()
    group.add_argument("--streaming", action="store_true")
    group.add_argument("--matrix", action="store_true")
    lift.add_argument("--render-views", default=None,
                      help="also render the lifted field back to per-view tensors")
    lift.add_argument("--out", required=True)
    lift.add_argument("--config", default=None)
    lift.set_defaults(func=_cmd_lift)

    cf = sub.add_parser("cluster-filter",
                        help="cluster the field, project labels, drop inconsistent masks")
    cf.add_argument("--field", required=True)
    cf.add_argument("--scene", required=True)
    cf.add_argument("--cameras", required=True)
    cf.add_argument("--labels", required=True)
    cf.add_argument("--tau", type=float, default=None)
    cf.add_argument("--lambda", dest="lam", type=float, default=None)
    cf.add_argument("--mode", choices=sorted(LIFTS), default=None)
    cf.add_argument("--kernel", choices=sorted(KERNELS), default=None)
    cf.add_argument("--relift", action="store_true")
    cf.add_argument("--out", required=True)
    cf.add_argument("--config", default=None)
    cf.set_defaults(func=_cmd_cluster_filter)

    seg = sub.add_parser("segment", help="attention maps and binary masks for a query")
    seg.add_argument("--field", required=True)
    seg.add_argument("--scene", required=True)
    seg.add_argument("--cameras", required=True)
    seg.add_argument("--query", required=True)
    seg.add_argument("--threshold", default="auto")
    seg.add_argument("--bins", type=int, default=None)
    seg.add_argument("--smoothing", type=int, default=None)
    seg.add_argument("--fallback-threshold", type=float, default=None)
    seg.add_argument("--lambda", dest="lam", type=float, default=None)
    seg.add_argument("--kernel", choices=sorted(KERNELS), default=None)
    seg.add_argument("--out", required=True)
    seg.add_argument("--config", default=None)
    seg.set_defaults(func=_cmd_segment)

    ev = sub.add_parser("eval", help="mIoU over masks or cosine over rendered features")
    ev.add_argument("--pred", default=None)
    ev.add_argument("--rendered", default=None)
    ev.add_argument("--gt", required=True)
    ev.add_argument("--out", required=True)
    ev.set_defaults(func=_cmd_eval)

    sy = sub.add_parser("synth", help="materialize a synthetic fixture directory")
    sy.add_argument("--spec", required=True)
    sy.add_argument("--out", required=True)
    sy.set_defaults(func=_cmd_synth)

    ve = sub.add_parser("verify", help="run a property suite; exit 2 on violations")
    ve.add_argument("--suite", required=True, choices=sorted(SUITES))
    ve.add_argument("--seed", type=int, default=None)
    ve.add_argument("--report", default=None, help="write the suite's CSV report here")
    ve.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (formats.FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
