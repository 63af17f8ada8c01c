"""Command-line interface: lift, cluster-filter, segment, eval, synth, verify.

Exit codes: 0 success, 1 invalid input, 2 invariant violation (verify),
3 I/O failure. The SPLATLIFT_THREADS environment variable sets the worker
count for per-view parallel stages. The settings lambda, kernel, mode and
tau take the flag, else the --config file's value, else (lambda, kernel and
mode, in the commands that reuse a field) the field's run report, else the
default. A command that writes a field writes the weight matrix it was
lifted with beside it (<field>.A); the commands that reuse the field load
that matrix when its key matches their inputs and build it otherwise.
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
    ROW_BLOCK_VALUES,
    QueryEmbedding,
    ValleyNotFoundError,
    attention_scores,
    auto_threshold,
    eval_cosine,
    render_attention,
    segment,
)
from .rasterize import build_weight_matrix, render_labels
from .solver import LIFT_MODES, FeatureField, ObservationSet, lift_rowsum, lift_streaming
from .synthbench import SILHOUETTE_DOMINANCE, make_observations, make_scene, parse_scene_spec
from .verify import SUITES, VerificationError, run_suite

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_INVARIANT = 2
EXIT_IO = 3

# segment's threshold when the pooled scores of a query have no valley.
FALLBACK_THRESHOLD = 0.5


def _choice(table):
    def check(value):
        if not (isinstance(value, str) and value in table):
            raise ValueError(value)
        return value
    return check


# name: (default, requirement, check). The names are the flags and the
# [splatlift] keys of a --config file; any other key is refused. A check
# returns the value it accepts and raises on any other.
SETTINGS = {
    "lambda": (1.2, "a number >= 0.1", lambda value: LiftConfig(lam=float(value)).lam),
    "kernel": ("gaussian3d", f"one of {sorted(KERNEL_NAMES)}", _choice(KERNEL_NAMES)),
    "mode": ("rowsum", f"one of {sorted(LIFT_MODES)}", _choice(LIFT_MODES)),
    "tau": (0.6, "a number", float),
}


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
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(Path(path).read_text())
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise formats.FormatError(f"{path}: malformed config: {exc}") from exc
    if not cp.has_section("splatlift"):
        return {}
    config = dict(cp["splatlift"])
    for key in config:
        if key not in SETTINGS:
            raise InvalidInputError(f"{path}: config key {key} must be one of {list(SETTINGS)}")
    return config


def _settings(args, report_path: Path | None = None) -> dict:
    """The value of every SETTINGS row: the flag if given, else the --config
    value, else the run report's value at report_path when that file exists
    (lambda, kernel and mode, which _write_field records), else the default.
    Every value passes its row's check, whatever its source."""
    config = _load_config(args.config)
    picked = {}
    for name in SETTINGS:
        flag = getattr(args, name, None)
        if flag is not None:
            picked[name] = (f"--{name}", flag)
        elif name in config:
            picked[name] = (args.config, config[name])
    reported = [name for name in ("lambda", "kernel", "mode") if name not in picked]
    if reported and report_path is not None and report_path.exists():
        report = formats.read_run_report(report_path)
        if not isinstance(report, dict):
            raise InvalidInputError(f"{report_path}: a run report must be a JSON object")
        picked.update({name: (report_path, report[name]) for name in reported if name in report})
    settings = {}
    for name, (default, requirement, check) in SETTINGS.items():
        source, value = picked.get(name, ("default", default))
        try:
            settings[name] = check(value)
        except (TypeError, ValueError):
            raise InvalidInputError(
                f"{source}: {name} must be {requirement}, got {value!r}") from None
    return settings


def _load_observations(views, directory) -> ObservationSet:
    """Pair every view with <view_id>.flt (dense) or <view_id>.lbl and .lft
    (label-backed) in directory, each checked against the view's size."""
    directory = Path(directory)
    if not directory.is_dir():
        raise formats.FormatError(f"{directory}: not a directory")
    dense, labels, tables = {}, {}, {}
    for view in views:
        vid = view.view_id
        flt, lbl, lft = (directory / f"{vid}{ext}" for ext in (".flt", ".lbl", ".lft"))
        size = f"view {vid!r} is {view.height}x{view.width}"
        if flt.exists():
            arr = formats.read_feature_tensor(flt)
            if arr.shape[:2] != (view.height, view.width):
                raise InvalidInputError(
                    f"{flt}: tensor is {arr.shape[0]}x{arr.shape[1]} but {size}")
            dense[vid] = arr
        elif lbl.exists():
            if not lft.exists():
                raise InvalidInputError(
                    f"view {vid!r}: found {lbl.name} but its feature table {lft.name} is missing")
            lab = formats.read_label_map(lbl)
            if lab.shape != (view.height, view.width):
                raise InvalidInputError(f"{lbl}: map is {lab.shape[0]}x{lab.shape[1]} but {size}")
            labels[vid] = lab
            tables[vid] = formats.read_label_features(lft)
        else:
            raise InvalidInputError(
                f"view {vid!r}: no observation file ({vid}.flt or {vid}.lbl) in {directory}")
    if dense and labels:
        raise InvalidInputError(
            "mixed dense and label-backed observation files; use one backing for all views")
    if dense:
        return ObservationSet.from_dense(views, dense)
    return ObservationSet.from_labels(views, labels, tables)


def _write_label_observations(directory: Path, obs: ObservationSet) -> None:
    """Each view's label map and feature table as <view_id>.lbl and .lft."""
    for vid in obs.view_ranges:
        formats.write_label_map(directory / f"{vid}.lbl", obs.view_label_map(vid))
        formats.write_label_features(directory / f"{vid}.lft", obs.view_label_table(vid),
                                     feature_dim=obs.feature_dim)


# -- lift ---------------------------------------------------------------------

def _lift_setup(args, report_path: Path | None = None):
    """Scene, views and settings of lift, cluster-filter and segment; the
    scene is read with the settings' kernel."""
    settings = _settings(args, report_path)
    scene = formats.read_splat_ply(args.scene, kernel=KERNEL_NAMES[settings["kernel"]])
    return scene, formats.read_cameras(args.cameras), settings


def _matrix_key(args, settings: dict) -> bytes:
    """SHA-256 over everything that determines A: the scene and camera file
    contents, the kernel, lambda and the rasterizer's constants."""
    digest = hashlib.sha256()
    for path in (args.scene, args.cameras):
        data = Path(path).read_bytes()
        digest.update(len(data).to_bytes(8, "little"))
        digest.update(data)
    shaping = {name: getattr(rasterize, name) for name in rasterize.MATRIX_CONSTANTS}
    shaping.update(kernel=settings["kernel"], lam=settings["lambda"])
    digest.update(json.dumps(shaping, sort_keys=True).encode("ascii"))
    return digest.digest()


def _write_field(path: Path, field: FeatureField, settings: dict, path_kind: str, rows: int,
                 elapsed: float, matrix=None, key=None) -> None:
    """A lifted field and its run report beside it (<path>.json), and the
    weight matrix it was lifted with (<path>.A) when there is one."""
    formats.write_feature_field(path, field)
    if matrix is not None:
        formats.write_weight_matrix(str(path) + ".A", matrix, key)
    unobserved = int(field.unobserved.sum())
    formats.write_run_report(str(path) + ".json", {
        "lambda": settings["lambda"], "mode": settings["mode"], "path": path_kind,
        "kernel": settings["kernel"], "rows": int(rows), "primitives": int(field.count),
        "feature_dim": int(field.feature_dim), "timing_s": elapsed,
        "coverage": {"observed": int(field.count - unobserved), "unobserved": unobserved,
                     "mean_coverage": float(field.coverage.mean())},
    })


def _render_field(matrix, field: FeatureField, obs: ObservationSet, views):
    """Each view's composite of the lifted field, background 0, as a float32
    (H, W, F) tensor. A x costs nnz(A) F products; with the lift's table
    weights G (x = G T, T the K x F feature table), (A G) T costs
    nnz(A) K + R K F, the second term a dense product. The table route is
    taken when K < F, and its F-wide float64 rows are formed a block at a
    time."""
    table_route = len(obs.table) < obs.feature_dim
    composite = matrix.to_csr() @ (field.table_weights.toarray() if table_route else field.values)
    step = max(1, ROW_BLOCK_VALUES // field.feature_dim)
    for view in views:
        start, stop = matrix.view_ranges[view.view_id]
        tensor = np.empty((stop - start, field.feature_dim), dtype=np.float32)
        for lo in range(start, stop, step):
            rows = composite[lo:min(lo + step, stop)]
            tensor[lo - start:lo - start + step] = rows @ obs.table if table_route else rows
        yield view, tensor.reshape(view.height, view.width, field.feature_dim)


def _cmd_lift(args) -> int:
    scene, views, settings = _lift_setup(args)
    obs = _load_observations(views, args.features)
    cfg = LiftConfig(lam=settings["lambda"])
    mode = settings["mode"]
    threads = _threads()
    started = time.perf_counter()
    if args.streaming:
        field = lift_streaming(scene, views, obs, cfg, mode=mode, threads=threads)
        path_kind = "streaming"
        matrix = None
    else:
        matrix = build_weight_matrix(scene, views, cfg, threads=threads)
        field = lift_rowsum(matrix, obs, mode)
        path_kind = "matrix"
    elapsed = time.perf_counter() - started

    if args.render_views and matrix is None:
        matrix = build_weight_matrix(scene, views, cfg, threads=threads)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    key = None if matrix is None else _matrix_key(args, settings)
    _write_field(out, field, settings, path_kind, obs.rows, elapsed, matrix, key)
    if args.render_views:
        rdir = Path(args.render_views)
        rdir.mkdir(parents=True, exist_ok=True)
        for view, tensor in _render_field(matrix, field, obs, views):
            formats.write_feature_tensor(rdir / f"{view.view_id}.flt", tensor)
    print(f"lift: wrote {out} ({field.count} primitives, F={field.feature_dim}, "
          f"lambda={cfg.lam}, mode={mode}, {path_kind} path, {elapsed:.2f}s)")
    return EXIT_OK


# -- cluster-filter -------------------------------------------------------------

def _field_matrix(args, field: FeatureField):
    """Views, weight matrix, settings and matrix key for a command that
    reuses a field; the scene must have as many primitives as the field.
    The field's <field>.A is used when its key matches these inputs;
    otherwise A is built."""
    scene, views, settings = _lift_setup(args, Path(str(args.field) + ".json"))
    if len(scene) != field.count:
        raise InvalidInputError(
            f"field has {field.count} primitives but the scene has {len(scene)}")
    key = _matrix_key(args, settings)
    stored = Path(str(args.field) + ".A")
    matrix = None
    if stored.exists():
        matrix = formats.read_weight_matrix(stored, key, views, len(scene), settings["lambda"])
    if matrix is None:
        matrix = build_weight_matrix(scene, views, LiftConfig(lam=settings["lambda"]),
                                     threads=_threads())
    return views, matrix, settings, key


def _cmd_cluster_filter(args) -> int:
    field = formats.read_feature_field(args.field)
    views, matrix, settings, key = _field_matrix(args, field)
    obs = _load_observations(views, args.labels)
    if not obs.label_backed:
        raise InvalidInputError(
            "cluster-filter requires label-backed observations (.lbl/.lft); "
            "dense feature tensors carry no masks to filter")

    assignment = cluster_features(field)
    kappa = render_labels(matrix, assignment.labels)
    filtered, records = filter_observations(obs, kappa, settings["tau"])

    out = Path(args.out)
    (out / "labels").mkdir(parents=True, exist_ok=True)
    _write_label_observations(out / "labels", filtered)
    with open(out / "filter_report.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["view_id", "label", "iou", "decision"])
        for rec in records:
            writer.writerow([rec.view_id, rec.label, f"{rec.iou:.6f}", rec.decision])
    dropped = sum(1 for r in records if not r.kept)
    print(f"cluster-filter: {assignment.n_clusters} clusters, "
          f"{dropped}/{len(records)} masks dropped at tau={settings['tau']}")
    if args.relift:
        started = time.perf_counter()
        relifted = lift_rowsum(matrix, filtered, settings["mode"])
        elapsed = time.perf_counter() - started
        _write_field(out / "field.flt", relifted, settings, "matrix", obs.rows, elapsed,
                     matrix, key)
        print(f"cluster-filter: re-lifted field written to {out / 'field.flt'}")
    return EXIT_OK


# -- segment --------------------------------------------------------------------

def _cmd_segment(args) -> int:
    field = formats.read_feature_field(args.field)
    qarr = formats.read_feature_tensor(args.query)
    query = QueryEmbedding(vector=qarr.reshape(-1).astype(np.float64),
                           name=Path(args.query).stem)
    views, matrix, *_ = _field_matrix(args, field)

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
        arr = formats.read_feature_tensor(path)
        h, w, f = arr.shape
        if not any((gt_dir / f"{vid}{ext}").exists() for ext in (".flt", ".lbl")):
            print(f"eval: warning: no ground truth for view {vid}, excluded")
            continue
        view = CameraView(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=w, height=h,
                          world_to_camera=np.eye(4), view_id=vid)
        rep = eval_cosine(arr.reshape(-1, f), _load_observations([view], gt_dir))
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
    _write_label_observations(out / "features", obs)
    for view in views:
        vid = view.view_id
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
    lifting.add_argument("--lambda", default=None, help=SETTINGS["lambda"][1])
    lifting.add_argument("--kernel", default=None, help=SETTINGS["kernel"][1])
    lifting.add_argument("--config", default=None)
    lifting.add_argument("--out", required=True)

    lift = sub.add_parser("lift", parents=[lifting],
                          help="lift per-view observations onto primitives")
    lift.add_argument("--features", required=True)
    lift.add_argument("--mode", default=None, help=SETTINGS["mode"][1])
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
    cf.add_argument("--tau", default=None, help=SETTINGS["tau"][1])
    cf.add_argument("--mode", default=None, help=SETTINGS["mode"][1])
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
