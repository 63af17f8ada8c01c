"""Command-line interface: lift, cluster-filter, segment, eval, synth, verify.

Exit codes: 0 success, 1 invalid input, 2 invariant violation (verify),
3 I/O failure. The SPLATLIFT_THREADS environment variable sets the worker
count for per-view parallel stages; option precedence is
flags > --config file > built-in defaults, except that lambda, kernel and
mode fall back to the field's run report before their defaults in the
commands that reuse a field. A command that writes a field writes the
weight matrix it was lifted with beside it (<field>.A); the commands that
reuse the field load that matrix when its key matches their inputs and
build it otherwise.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import formats, rasterize
from .aggregate import cluster_features, filter_observations, iou
from .model import KERNEL_NAMES, CameraView, InvalidInputError, LiftConfig
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
from .synthbench import SILHOUETTE_DOMINANCE, make_observations, make_scene, parse_scene_spec
from .verify import SUITES, VerificationError, run_suite

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_INVARIANT = 2
EXIT_IO = 3

# The lifts are looked up by name on each call, so that rebinding the
# module's names (as perfbench/tracing.py does to time them) reaches them.
LIFTS = {"rowsum": lambda A, obs: lift_rowsum(A, obs),
         "rowsum2": lambda A, obs: lift_rowsum_squared(A, obs)}

# The rasterizer's constants that shape A, part of every weight-matrix key.
MATRIX_CONSTANTS = ("NEAR_PLANE", "WEIGHT_EPS", "COV_LOWPASS", "PLANAR_RADIUS_SLACK",
                    "TRANSMITTANCE_FLOOR", "KERNEL_CUTOFF_SIGMA")

# segment's threshold when the pooled scores of a query have no valley.
FALLBACK_THRESHOLD = 0.5

# The [splatlift] keys of a --config file; any other key is refused.
CONFIG_KEYS = ("lambda", "kernel", "mode", "tau")


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
    for key in config:
        if key not in CONFIG_KEYS:
            raise InvalidInputError(f"{path}: config key {key} must be one of {list(CONFIG_KEYS)}")
    for key, table in (("mode", LIFTS), ("kernel", KERNEL_NAMES)):
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


def _view_observation(view, features_dir: Path):
    """One view's observation files, checked against the view's size.

    Returns (tensor, None) from <view_id>.flt, (label map, feature table)
    from <view_id>.lbl and .lft, or None when neither file exists.
    """
    flt = features_dir / f"{view.view_id}.flt"
    lbl = features_dir / f"{view.view_id}.lbl"
    lft = features_dir / f"{view.view_id}.lft"
    size = f"view {view.view_id!r} is {view.height}x{view.width}"
    if flt.exists():
        arr = formats.read_feature_tensor(flt)
        if arr.shape[:2] != (view.height, view.width):
            raise InvalidInputError(f"{flt}: tensor is {arr.shape[0]}x{arr.shape[1]} but {size}")
        return arr.astype(np.float64), None
    if not lbl.exists():
        return None
    if not lft.exists():
        raise InvalidInputError(
            f"view {view.view_id!r}: found {lbl.name} but its feature table "
            f"{lft.name} is missing")
    lab = formats.read_label_map(lbl)
    if lab.shape != (view.height, view.width):
        raise InvalidInputError(f"{lbl}: map is {lab.shape[0]}x{lab.shape[1]} but {size}")
    table = formats.read_label_features(lft)
    return lab, {k: v.astype(np.float64) for k, v in table.items()}


def _load_observations(views, features_dir) -> ObservationSet:
    """Pair every view with <view_id>.flt (dense) or <view_id>.lbl/.lft."""
    features_dir = Path(features_dir)
    if not features_dir.is_dir():
        raise formats.FormatError(f"{features_dir}: not a directory")
    dense = {}
    labels = {}
    tables = {}
    for view in views:
        found = _view_observation(view, features_dir)
        if found is None:
            raise InvalidInputError(
                f"view {view.view_id!r}: no observation file ({view.view_id}.flt or "
                f"{view.view_id}.lbl) in {features_dir}")
        values, table = found
        if table is None:
            dense[view.view_id] = values
        else:
            labels[view.view_id] = values
            tables[view.view_id] = table
    if dense and labels:
        raise InvalidInputError(
            "mixed dense and label-backed observation files; use one backing for all views")
    if dense:
        return ObservationSet.from_dense(views, dense)
    return ObservationSet.from_labels(views, labels, tables)


# -- lift ---------------------------------------------------------------------

def _lift_setup(args, config: dict, report_path: Path | None = None):
    """Scene, views, LiftConfig, kernel name and lift mode of lift,
    cluster-filter and segment.

    lambda, kernel and mode each take the flag, else the --config value,
    else the value in the run report at report_path when that file exists
    (the field's report, for the commands that reuse a field), else the
    default.
    """
    lam = _setting(args, config, "lambda", None, float, attr="lam")
    kernel = _setting(args, config, "kernel", None, str)
    mode = _setting(args, config, "mode", None, str)
    report = {}
    if None in (lam, kernel, mode) and report_path is not None and report_path.exists():
        report = formats.read_run_report(report_path)
        if not isinstance(report, dict):
            raise InvalidInputError(f"{report_path}: a run report must be a JSON object")
    if lam is None:
        value = report.get("lambda", 1.2)
        try:
            lam = LiftConfig(lam=float(value)).lam
        except (TypeError, ValueError):
            raise InvalidInputError(
                f"{report_path}: lambda must be a number >= 0.1, got {value!r}") from None

    def named(value, key, table, default):
        if value is None:
            value = report.get(key, default)
            if not isinstance(value, str) or value not in table:
                raise InvalidInputError(
                    f"{report_path}: {key} must be one of {sorted(table)}, got {value!r}")
        return value

    kernel = named(kernel, "kernel", KERNEL_NAMES, "gaussian3d")
    mode = named(mode, "mode", LIFTS, "rowsum")
    scene = formats.read_splat_ply(args.scene, kernel=KERNEL_NAMES[kernel])
    return scene, formats.read_cameras(args.cameras), LiftConfig(lam=lam), kernel, mode


def _matrix_key(args, cfg: LiftConfig, kernel: str) -> bytes:
    """SHA-256 over everything that determines A: the scene and camera file
    contents, the kernel, lambda and the rasterizer's constants."""
    digest = hashlib.sha256()
    for path in (args.scene, args.cameras):
        data = Path(path).read_bytes()
        digest.update(len(data).to_bytes(8, "little"))
        digest.update(data)
    settings = {name: getattr(rasterize, name) for name in MATRIX_CONSTANTS}
    settings.update(kernel=kernel, lam=cfg.lam)
    digest.update(json.dumps(settings, sort_keys=True).encode("ascii"))
    return digest.digest()


def _write_field(path: Path, field: FeatureField, cfg: LiftConfig, kernel: str, mode: str,
                 path_kind: str, rows: int, elapsed: float, matrix=None, key=None) -> None:
    """A lifted field and its run report beside it (<path>.json), and the
    weight matrix it was lifted with (<path>.A) when there is one."""
    formats.write_feature_field(path, field)
    if matrix is not None:
        formats.write_weight_matrix(str(path) + ".A", matrix, key)
    unobserved = int(field.unobserved.sum())
    formats.write_run_report(str(path) + ".json", {
        "lambda": cfg.lam, "mode": mode, "path": path_kind, "kernel": kernel,
        "rows": int(rows), "primitives": int(field.count),
        "feature_dim": int(field.feature_dim), "timing_s": elapsed,
        "coverage": {"observed": int(field.count - unobserved), "unobserved": unobserved,
                     "mean_coverage": float(field.coverage.mean())},
    })


def _cmd_lift(args) -> int:
    config = _load_config(args.config)
    scene, views, cfg, kernel, mode = _lift_setup(args, config)
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

    if args.render_views and matrix is None:
        matrix = build_weight_matrix(scene, views, cfg, threads=threads)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    key = None if matrix is None else _matrix_key(args, cfg, kernel)
    _write_field(out, field, cfg, kernel, mode, path_kind, obs.rows, elapsed, matrix, key)
    if args.render_views:
        rendered = render(matrix, field.values, np.zeros(field.feature_dim))
        rdir = Path(args.render_views)
        rdir.mkdir(parents=True, exist_ok=True)
        for view in views:
            start, stop = matrix.view_ranges[view.view_id]
            formats.write_feature_tensor(
                rdir / f"{view.view_id}.flt",
                rendered[start:stop].reshape(view.height, view.width, field.feature_dim))
    print(f"lift: wrote {out} ({field.count} primitives, F={field.feature_dim}, "
          f"lambda={cfg.lam}, mode={mode}, {path_kind} path, {elapsed:.2f}s)")
    return EXIT_OK


# -- cluster-filter -------------------------------------------------------------

def _field_matrix(args, config: dict, field: FeatureField):
    """Views, weight matrix, LiftConfig, kernel name, lift mode and matrix
    key for a command that reuses a field; the scene must have as many
    primitives as the field. The field's <field>.A is used when its key
    matches these inputs; otherwise A is built."""
    scene, views, cfg, kernel, mode = _lift_setup(args, config, Path(str(args.field) + ".json"))
    if len(scene) != field.count:
        raise InvalidInputError(
            f"field has {field.count} primitives but the scene has {len(scene)}")
    key = _matrix_key(args, cfg, kernel)
    stored = Path(str(args.field) + ".A")
    matrix = None
    if stored.exists():
        matrix = formats.read_weight_matrix(stored, key, views, len(scene), cfg.lam)
    if matrix is None:
        matrix = build_weight_matrix(scene, views, cfg, threads=_threads())
    return views, matrix, cfg, kernel, mode, key


def _cmd_cluster_filter(args) -> int:
    config = _load_config(args.config)
    tau = float(_setting(args, config, "tau", 0.6, float))
    field = formats.read_feature_field(args.field)
    views, matrix, cfg, kernel, mode, key = _field_matrix(args, config, field)
    obs = _load_observations(views, args.labels)
    if not obs.label_backed:
        raise InvalidInputError(
            "cluster-filter requires label-backed observations (.lbl/.lft); "
            "dense feature tensors carry no masks to filter")

    assignment = cluster_features(field)
    kappa = render_labels(matrix, assignment.labels)
    filtered, records = filter_observations(obs, kappa, tau)

    out = Path(args.out)
    labels_dir = out / "labels"
    labels_dir.mkdir(parents=True, exist_ok=True)
    for view in views:
        lab = filtered.view_label_map(view.view_id)
        formats.write_label_map(labels_dir / f"{view.view_id}.lbl", lab)
        table = filtered.view_label_table(view.view_id)
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
        _write_field(out / "field.flt", relifted, cfg, kernel, mode, "matrix", obs.rows, elapsed,
                     matrix, key)
        print(f"cluster-filter: re-lifted field written to {out / 'field.flt'}")
    return EXIT_OK


# -- segment --------------------------------------------------------------------

def _cmd_segment(args) -> int:
    config = _load_config(args.config)
    field = formats.read_feature_field(args.field)
    qarr = formats.read_feature_tensor(args.query)
    query = QueryEmbedding(vector=qarr.reshape(-1).astype(np.float64),
                           name=Path(args.query).stem)
    views, matrix, *_ = _field_matrix(args, config, field)

    scores = attention_scores(field, query)
    maps = render_attention(matrix, scores, views)
    if args.threshold == "auto":
        # One pooled threshold per query: merging the covered scores of all
        # views densifies the histogram, which stabilizes the valley search.
        pooled = np.concatenate([maps[v.view_id].covered_scores() for v in views])
        try:
            threshold = auto_threshold(pooled)
            picked = "auto"
        except ValleyNotFoundError as exc:
            print(f"segment: {exc}; falling back to fixed threshold {FALLBACK_THRESHOLD}")
            threshold = FALLBACK_THRESHOLD
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
        mask = segment(amap.scores, threshold)
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
        found = _view_observation(view, gt_dir)
        if found is None:
            print(f"eval: warning: no ground truth for view {vid}, excluded")
            continue
        values, table = found
        gt_obs = (ObservationSet.from_dense([view], {vid: values}) if table is None
                  else ObservationSet.from_labels([view], {vid: values}, {vid: table}))
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
    clean_matrix = build_weight_matrix(scene, views, LiftConfig(lam=1.0), threads=_threads())
    clean_labels = render_labels(clean_matrix, object_ids, min_weight=SILHOUETTE_DOMINANCE)
    obs, tags = make_observations(clean_labels, views, spec)

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
                                     obs.view_label_table(vid), feature_dim=obs.feature_dim)
        start, stop = clean_matrix.view_ranges[vid]
        clean = clean_labels[start:stop].reshape(view.height, view.width)
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
    # The options of every command that builds the weight matrix.
    lifting = argparse.ArgumentParser(add_help=False)
    lifting.add_argument("--scene", required=True)
    lifting.add_argument("--cameras", required=True)
    lifting.add_argument("--lambda", dest="lam", type=float, default=None)
    lifting.add_argument("--kernel", choices=sorted(KERNEL_NAMES), default=None)
    lifting.add_argument("--config", default=None)
    lifting.add_argument("--out", required=True)

    lift = sub.add_parser("lift", parents=[lifting],
                          help="lift per-view observations onto primitives")
    lift.add_argument("--features", required=True)
    lift.add_argument("--mode", choices=sorted(LIFTS), default=None)
    group = lift.add_mutually_exclusive_group()
    group.add_argument("--streaming", action="store_true")
    group.add_argument("--matrix", action="store_true")
    lift.add_argument("--render-views", default=None,
                      help="also render the lifted field back to per-view tensors")
    lift.set_defaults(func=_cmd_lift)

    cf = sub.add_parser("cluster-filter", parents=[lifting],
                        help="cluster the field, project labels, drop inconsistent masks")
    cf.add_argument("--field", required=True)
    cf.add_argument("--labels", required=True)
    cf.add_argument("--tau", type=float, default=None)
    cf.add_argument("--mode", choices=sorted(LIFTS), default=None)
    cf.add_argument("--relift", action="store_true")
    cf.set_defaults(func=_cmd_cluster_filter)

    seg = sub.add_parser("segment", parents=[lifting],
                         help="attention maps and binary masks for a query")
    seg.add_argument("--field", required=True)
    seg.add_argument("--query", required=True)
    seg.add_argument("--threshold", default="auto")
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
