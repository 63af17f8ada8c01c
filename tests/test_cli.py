import csv
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import splatlift
from splatlift import cli, formats, rasterize
from splatlift.cli import main
from splatlift.model import CameraView, LiftConfig, SplatScene
from splatlift.rasterize import WeightMatrix, build_weight_matrix, render, render_labels
from splatlift.solver import FeatureField, ObservationSet, lift_rowsum
from splatlift.synthbench import (
    SILHOUETTE_DOMINANCE,
    make_observations,
    make_scene,
    parse_scene_spec,
    two_blob_spec,
)

# scenes/two_blob.ini at 32 x 32 pixels and 3 views.
SMALL_INI = """\
[scene]
seed = 7

[views]
count = 3
width = 32
height = 32
focal = 33.6
span_degrees = 24.0

[noise]
merge = blob_a+blob_b

[object:blob_a]
shape = disk
count = 3000
theta = 9.0 11.0
feature = 1.0 0.0 0.0 0.0
center = -1.12 0.0 4.0
extent = 1.0
scale_factor = 0.65

[object:blob_b]
shape = disk
count = 3000
theta = 9.0 11.0
feature = 0.0 1.0 0.0 0.0
center = 1.12 0.0 4.0
extent = 1.0
scale_factor = 0.65

[object:wall]
shape = wall
count = 1600
theta = 9.0 11.0
feature = 0.0 0.0 1.0 0.0
center = 0.0 0.0 6.0
extent = 6.5
scale_factor = 1.4
"""
SMALL_SPEC = two_blob_spec(noise_fraction=0.0, resolution=32, views=3)


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixture")
    spec_path = out / "spec.ini"
    assert parse_scene_spec(SMALL_INI) == SMALL_SPEC
    spec_path.write_text(SMALL_INI)
    assert main(["synth", "--spec", str(spec_path), "--out", str(out / "fix")]) == 0
    return out / "fix"


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_synth_materializes_fixture(fixture_dir):
    assert (fixture_dir / "scene.ply").exists()
    assert (fixture_dir / "cameras.txt").exists()
    views = formats.read_cameras(fixture_dir / "cameras.txt")
    assert len(views) == 3
    for v in views:
        assert (fixture_dir / "features" / f"{v.view_id}.lbl").exists()
        assert (fixture_dir / "features" / f"{v.view_id}.lft").exists()
    assert sorted(p.stem for p in (fixture_dir / "queries").glob("*.flt")) == [
        "blob_a", "blob_b", "wall"]
    tags = read_csv(fixture_dir / "tags.csv")
    assert tags[0] == ["view_id", "label", "tag", "source_objects"]
    assert all(row[2] == "clean" for row in tags[1:])


def test_lift_matches_library_golden(fixture_dir, tmp_path):
    out = tmp_path / "field.flt"
    code = main(["lift", "--scene", str(fixture_dir / "scene.ply"),
                 "--cameras", str(fixture_dir / "cameras.txt"),
                 "--features", str(fixture_dir / "features"),
                 "--lambda", "1.2", "--mode", "rowsum", "--matrix",
                 "--out", str(out)])
    assert code == 0
    cli_field = formats.read_feature_field(out)

    scene, views, ids = make_scene(SMALL_SPEC)
    clean = build_weight_matrix(scene, views, LiftConfig(lam=1.0))
    obs, _ = make_observations(
        render_labels(clean, ids, SILHOUETTE_DOMINANCE), views, SMALL_SPEC)
    lib_field = lift_rowsum(build_weight_matrix(scene, views, LiftConfig(lam=1.2)), obs)
    assert np.max(np.abs(cli_field.values - lib_field.values)) <= 1e-6

    report = formats.read_run_report(str(out) + ".json")
    assert report["lambda"] == 1.2
    assert report["mode"] == "rowsum"
    assert report["path"] == "matrix"


def test_lift_streaming_matches_matrix(fixture_dir, tmp_path):
    args = ["lift", "--scene", str(fixture_dir / "scene.ply"),
            "--cameras", str(fixture_dir / "cameras.txt"),
            "--features", str(fixture_dir / "features"),
            "--lambda", "1.2", "--mode", "rowsum"]
    out_m = tmp_path / "m.flt"
    out_s = tmp_path / "s.flt"
    assert main(args + ["--matrix", "--out", str(out_m)]) == 0
    assert main(args + ["--streaming", "--out", str(out_s)]) == 0
    a = formats.read_feature_field(out_m).values
    b = formats.read_feature_field(out_s).values
    assert np.allclose(a, b, rtol=1e-5, atol=1e-12)


def test_lift_rejects_bad_lambda(fixture_dir, tmp_path, capsys):
    code = main(["lift", "--scene", str(fixture_dir / "scene.ply"),
                 "--cameras", str(fixture_dir / "cameras.txt"),
                 "--features", str(fixture_dir / "features"),
                 "--lambda", "0", "--out", str(tmp_path / "f.flt")])
    assert code == 1
    assert "lam" in capsys.readouterr().err


def test_lift_missing_view_file_names_it(fixture_dir, tmp_path, capsys):
    features = tmp_path / "features"
    features.mkdir()
    code = main(["lift", "--scene", str(fixture_dir / "scene.ply"),
                 "--cameras", str(fixture_dir / "cameras.txt"),
                 "--features", str(features), "--out", str(tmp_path / "f.flt")])
    assert code == 1
    err = capsys.readouterr().err
    assert "view_000" in err


def test_lift_unreadable_scene_is_io_error(fixture_dir, tmp_path, capsys):
    bad = tmp_path / "scene.ply"
    bad.write_bytes(b"not a ply")
    code = main(["lift", "--scene", str(bad),
                 "--cameras", str(fixture_dir / "cameras.txt"),
                 "--features", str(fixture_dir / "features"),
                 "--out", str(tmp_path / "f.flt")])
    assert code == 3
    assert "scene.ply" in capsys.readouterr().err


def test_lift_deterministic_outputs(fixture_dir, tmp_path):
    args = ["lift", "--scene", str(fixture_dir / "scene.ply"),
            "--cameras", str(fixture_dir / "cameras.txt"),
            "--features", str(fixture_dir / "features"),
            "--lambda", "1.2", "--matrix"]
    out1 = tmp_path / "a.flt"
    out2 = tmp_path / "b.flt"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # the weight matrix beside each field too: only run reports vary
    assert Path(f"{out1}.A").read_bytes() == Path(f"{out2}.A").read_bytes()


def test_lift_thread_env_bit_identical(fixture_dir, tmp_path):
    args = ["lift", "--scene", str(fixture_dir / "scene.ply"),
            "--cameras", str(fixture_dir / "cameras.txt"),
            "--features", str(fixture_dir / "features"), "--matrix"]
    out1 = tmp_path / "t1.flt"
    out4 = tmp_path / "t4.flt"
    old = os.environ.get("SPLATLIFT_THREADS")
    try:
        os.environ["SPLATLIFT_THREADS"] = "1"
        assert main(args + ["--out", str(out1)]) == 0
        os.environ["SPLATLIFT_THREADS"] = "4"
        assert main(args + ["--out", str(out4)]) == 0
    finally:
        if old is None:
            os.environ.pop("SPLATLIFT_THREADS", None)
        else:
            os.environ["SPLATLIFT_THREADS"] = old
    assert out1.read_bytes() == out4.read_bytes()


def test_config_file_precedence(fixture_dir, tmp_path):
    config = tmp_path / "conf.ini"
    config.write_text("[splatlift]\nlambda = 2.0\nmode = rowsum2\n")
    out = tmp_path / "f.flt"
    assert main(["lift", "--scene", str(fixture_dir / "scene.ply"),
                 "--cameras", str(fixture_dir / "cameras.txt"),
                 "--features", str(fixture_dir / "features"),
                 "--config", str(config), "--out", str(out)]) == 0
    report = formats.read_run_report(str(out) + ".json")
    assert report["lambda"] == 2.0
    assert report["mode"] == "rowsum2"
    # an explicit flag wins over the config file
    assert main(["lift", "--scene", str(fixture_dir / "scene.ply"),
                 "--cameras", str(fixture_dir / "cameras.txt"),
                 "--features", str(fixture_dir / "features"),
                 "--config", str(config), "--lambda", "1.5", "--out", str(out)]) == 0
    assert formats.read_run_report(str(out) + ".json")["lambda"] == 1.5


@pytest.mark.parametrize("command", ["lift", "cluster-filter", "segment"])
@pytest.mark.parametrize("key, value", [("kernel", "foo"), ("mode", "bogus"),
                                        ("lambda", "abc"), ("lambda", "1%"), ("tau", "abc"),
                                        ("lamda", "2.0"), ("bins", "64")])
def test_config_rejects_bad_value(fixture_dir, tmp_path, capsys, command, key, value):
    field = tmp_path / "field.flt"
    geo = ["--scene", str(fixture_dir / "scene.ply"),
           "--cameras", str(fixture_dir / "cameras.txt")]
    assert main(["lift", *geo, "--features", str(fixture_dir / "features"),
                 "--out", str(field)]) == 0
    config = tmp_path / "conf.ini"
    config.write_text(f"[splatlift]\n{key} = {value}\n")
    extra = {
        "lift": ["--features", str(fixture_dir / "features")],
        "cluster-filter": ["--field", str(field), "--labels", str(fixture_dir / "features"),
                           "--relift"],
        "segment": ["--field", str(field),
                    "--query", str(fixture_dir / "queries" / "blob_a.flt")],
    }[command]
    out = tmp_path / "out"
    assert main([command, *geo, *extra, "--config", str(config), "--out", str(out)]) == 1
    assert f"{key} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config", "report"])
@pytest.mark.parametrize("name, value", [("lambda", 0.05), ("kernel", "gaussian4d"),
                                         ("mode", "rowsum3")])
def test_every_source_of_a_setting_is_checked(fixture_dir, tmp_path, capsys, source, name,
                                              value):
    geo = ["--scene", str(fixture_dir / "scene.ply"),
           "--cameras", str(fixture_dir / "cameras.txt")]
    field = tmp_path / "field.flt"
    assert main(["lift", *geo, "--features", str(fixture_dir / "features"),
                 "--out", str(field)]) == 0
    out = tmp_path / "out"
    argv = ["cluster-filter", *geo, "--field", str(field),
            "--labels", str(fixture_dir / "features"), "--relift", "--out", str(out)]
    if source == "flag":
        argv += [f"--{name}", str(value)]
        where = f"--{name}"
    elif source == "config":
        where = tmp_path / "conf.ini"
        where.write_text(f"[splatlift]\n{name} = {value}\n")
        argv += ["--config", str(where)]
    else:
        where = Path(f"{field}.json")
        formats.write_run_report(where, {**formats.read_run_report(where), name: value})
    assert main(argv) == 1
    assert f"{where}: {name} must be" in capsys.readouterr().err
    assert not out.exists()


def test_report_lambda_must_be_a_number(fixture_dir, tmp_path, capsys):
    # without --lambda, cluster-filter and segment take lambda from the
    # field's run report, which is outside input like any other file
    field = tmp_path / "field.flt"
    geo = ["--scene", str(fixture_dir / "scene.ply"),
           "--cameras", str(fixture_dir / "cameras.txt")]
    assert main(["lift", *geo, "--features", str(fixture_dir / "features"),
                 "--out", str(field)]) == 0
    extra = {
        "cluster-filter": ["--labels", str(fixture_dir / "features")],
        "segment": ["--query", str(fixture_dir / "queries" / "blob_a.flt")],
    }
    for value in ("abc", [1.2]):
        formats.write_run_report(str(field) + ".json", {"lambda": value})
        for command, args in extra.items():
            assert main([command, *geo, "--field", str(field), *args,
                         "--out", str(tmp_path / "out")]) == 1
            assert "field.flt.json: lambda must be a number" in capsys.readouterr().err


@pytest.mark.parametrize("report, message", [
    ({"kernel": "gaussian4d"}, "field.flt.json: kernel must be one of"),
    ({"kernel": ["gaussian2d"]}, "field.flt.json: kernel must be one of"),
    ({"lambda": 0.05}, "field.flt.json: lambda must be a number >= 0.1"),
    ([1.2, "gaussian2d"], "field.flt.json: a run report must be a JSON object"),
])
def test_report_settings_are_checked(fixture_dir, tmp_path, capsys, report, message):
    field = tmp_path / "field.flt"
    geo = ["--scene", str(fixture_dir / "scene.ply"),
           "--cameras", str(fixture_dir / "cameras.txt")]
    assert main(["lift", *geo, "--features", str(fixture_dir / "features"),
                 "--out", str(field)]) == 0
    Path(str(field) + ".json").write_text(json.dumps(report))
    assert main(["segment", *geo, "--field", str(field),
                 "--query", str(fixture_dir / "queries" / "blob_a.flt"),
                 "--out", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err


def test_field_commands_take_the_kernel_from_the_report(fixture_dir, tmp_path):
    # A gaussian2d field is segmented and re-lifted with gaussian2d whether
    # or not --kernel is repeated.
    geo = ["--scene", str(fixture_dir / "scene.ply"),
           "--cameras", str(fixture_dir / "cameras.txt")]
    field = tmp_path / "field.flt"
    assert main(["lift", *geo, "--features", str(fixture_dir / "features"),
                 "--kernel", "gaussian2d", "--out", str(field)]) == 0
    outputs = []
    for extra in ([], ["--kernel", "gaussian2d"]):
        out = tmp_path / f"run{len(outputs)}"
        for query in ("blob_a", "wall"):
            assert main(["segment", *geo, *extra, "--field", str(field),
                         "--query", str(fixture_dir / "queries" / f"{query}.flt"),
                         "--out", str(out / "seg")]) == 0
        assert main(["cluster-filter", *geo, *extra, "--field", str(field),
                     "--labels", str(fixture_dir / "features"), "--relift",
                     "--out", str(out / "filtered")]) == 0
        report = formats.read_run_report(out / "filtered" / "field.flt.json")
        assert report["kernel"] == "gaussian2d"
        outputs.append({p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*"))
                        if p.is_file() and p.name != "field.flt.json"})
    assert len(outputs[0]) > 10
    assert outputs[0] == outputs[1]


def test_lift_rejects_infinite_focal_length(fixture_dir, tmp_path, capsys):
    # a well-formed camera line whose values describe no camera is invalid
    # input, as a scene's values are
    header, first, *rest = (fixture_dir / "cameras.txt").read_text().splitlines()
    fields = first.split()
    fields[3:5] = ["inf", "inf"]  # fx, fy of the first view
    cameras = tmp_path / "cameras.txt"
    cameras.write_text("\n".join([header, " ".join(fields), *rest]) + "\n")
    out = tmp_path / "field.flt"
    assert main(["lift", "--scene", str(fixture_dir / "scene.ply"), "--cameras", str(cameras),
                 "--features", str(fixture_dir / "features"), "--out", str(out)]) == 1
    assert "cameras.txt:2: focal lengths must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def lift_scene_with_scale(fixture_dir, tmp_path, log_scale, *flags):
    """lift's exit code, with warnings as errors, on two splats in view whose
    second has the given scale_0 log-scale, stored in the PLY's float32."""
    scene = SplatScene(positions=[[0.0, 0.0, 4.0], [0.3, 0.0, 4.0]],
                       log_scales=np.full((2, 3), -1.0), rotations=[[1.0, 0, 0, 0]] * 2,
                       thetas=[9.0, 9.0])
    path = tmp_path / "scene.ply"
    formats.write_splat_ply(path, scene)
    blob = path.read_bytes()
    data = np.frombuffer(blob, dtype="<f4", offset=blob.index(b"end_header\n") + 11).copy()
    data.reshape(2, -1)[1, 10] = log_scale  # scale_0 of the second splat
    path.write_bytes(blob[:blob.index(b"end_header\n") + 11] + data.tobytes())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main(["lift", "--scene", str(path), "--cameras", str(fixture_dir / "cameras.txt"),
                     "--features", str(fixture_dir / "features"), *flags,
                     "--out", str(tmp_path / "field.flt")])


def test_lift_refuses_overflowing_log_scale(fixture_dir, tmp_path, capsys):
    # log-scale 400: exp(2 s) overflows float64
    assert lift_scene_with_scale(fixture_dir, tmp_path, 400.0) == 1
    err = capsys.readouterr().err
    assert "scene.ply: log-scales must keep the variance exp(2 s) finite" in err
    assert not (tmp_path / "field.flt").exists()


def test_lift_refuses_underflowing_log_scale(fixture_dir, tmp_path, capsys):
    # log-scale -800: a planar disk's scale exp(s) is 0, which the kernel
    # would divide by
    assert lift_scene_with_scale(fixture_dir, tmp_path, -800.0, "--kernel", "gaussian2d") == 1
    err = capsys.readouterr().err
    assert "scene.ply: log-scales must keep the scale exp(s) above 0" in err
    assert not (tmp_path / "field.flt").exists()


def test_render_field_takes_the_table_route_only_when_k_below_f(fixture_dir, monkeypatch):
    # one float32 tensor per view, in the views' order: (A G) T when K < F,
    # A x otherwise, each as the all-view float64 composite would cast,
    # whatever the blocks of rows
    views = formats.read_cameras(fixture_dir / "cameras.txt")
    masks = cli._load_observations(views, fixture_dir / "features")
    scene = formats.read_splat_ply(fixture_dir / "scene.ply")
    A = build_weight_matrix(scene, views, LiftConfig(lam=1.2))
    rng = np.random.default_rng(4)
    labels = {vid: masks.view_label_map(vid) for vid in masks.view_ranges}
    wide = ObservationSet.from_labels(views, labels, {
        vid: {k: rng.normal(size=64) for k in masks.view_label_table(vid)}
        for vid in masks.view_ranges})
    dense = ObservationSet.from_dense(views, {
        v.view_id: rng.normal(size=(v.pixel_count, 4)) for v in views})
    assert len(wide.table) < wide.feature_dim
    assert len(masks.table) >= masks.feature_dim and len(dense.table) >= dense.feature_dim
    for obs, block in [(obs, block) for obs in (wide, masks, dense)
                       for block in (cli.ROW_BLOCK_VALUES, 7 * 64)]:
        monkeypatch.setattr(cli, "ROW_BLOCK_VALUES", block)
        field = lift_rowsum(A, obs)
        tensors = list(cli._render_field(A, field, obs, views))
        assert [view for view, _ in tensors] == views
        direct = render(A, field.values, 0.0)
        if obs is wide:
            expected = render(A, field.table_weights.toarray(), 0.0) @ obs.table
        else:
            expected = direct
        for view, tensor in tensors:
            start, stop = A.view_ranges[view.view_id]
            assert tensor.dtype == np.float32
            assert tensor.shape == (view.height, view.width, obs.feature_dim)
            assert tensor.tobytes() == expected[start:stop].astype(np.float32).tobytes()
            assert tensor.tobytes() == direct[start:stop].astype(np.float32).tobytes()


def test_render_field_composites_table_weights_then_table():
    # row [(0, 0.6), (1, 0.32)] of a hand matrix: (A G) T, with no share of
    # a background
    view = CameraView(fx=50.0, fy=50.0, cx=2.5, cy=2.5, width=5, height=5,
                      world_to_camera=np.eye(4), view_id="v0")
    scene = SplatScene(positions=[[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]],
                       log_scales=np.full((2, 3), math.log(50.0)),
                       rotations=[[1.0, 0, 0, 0]] * 2,
                       thetas=[math.log(0.6 / 0.4), math.log(0.8 / 0.2)])
    A = build_weight_matrix(scene, [view], LiftConfig(lam=1.0))
    weights = np.array([[1.0, 0.0], [0.25, 0.75]])
    table = np.array([[1.0, 2.0, 4.0], [-2.0, 0.0, 8.0]])
    field = FeatureField(values=weights @ table, coverage=np.ones(2),
                         table_weights=sp.csr_matrix(weights))
    obs = ObservationSet(A.view_ranges, {"v0": (5, 5)}, table, np.zeros(25, dtype=np.int64))
    [(got_view, tensor)] = cli._render_field(A, field, obs, [view])
    assert got_view == view and tensor.shape == (5, 5, 3)
    assert np.allclose(tensor.reshape(25, 3), render(A, weights @ table, 0.0),
                       rtol=0, atol=1e-6)
    assert tensor[2, 2] == pytest.approx(0.6 * table[0] + 0.32 * (weights[1] @ table),
                                         abs=1e-6)


def test_cluster_filter_requires_masks(fixture_dir, tmp_path, capsys):
    # dense observations cannot be filtered
    dense_dir = tmp_path / "dense"
    dense_dir.mkdir()
    views = formats.read_cameras(fixture_dir / "cameras.txt")
    for v in views:
        formats.write_feature_tensor(dense_dir / f"{v.view_id}.flt",
                                     np.zeros((v.height, v.width, 4), dtype=np.float32))
    field = tmp_path / "field.flt"
    assert main(["lift", "--scene", str(fixture_dir / "scene.ply"),
                 "--cameras", str(fixture_dir / "cameras.txt"),
                 "--features", str(fixture_dir / "features"),
                 "--out", str(field)]) == 0
    code = main(["cluster-filter", "--field", str(field),
                 "--scene", str(fixture_dir / "scene.ply"),
                 "--cameras", str(fixture_dir / "cameras.txt"),
                 "--labels", str(dense_dir), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "masks" in capsys.readouterr().err


def test_cluster_filter_rejects_bad_tau(fixture_dir, tmp_path, capsys):
    field = tmp_path / "field.flt"
    assert main(["lift", "--scene", str(fixture_dir / "scene.ply"),
                 "--cameras", str(fixture_dir / "cameras.txt"),
                 "--features", str(fixture_dir / "features"),
                 "--out", str(field)]) == 0
    code = main(["cluster-filter", "--field", str(field),
                 "--scene", str(fixture_dir / "scene.ply"),
                 "--cameras", str(fixture_dir / "cameras.txt"),
                 "--labels", str(fixture_dir / "features"),
                 "--tau", "1.01", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "tau" in capsys.readouterr().err


def test_cluster_filter_clean_keeps_everything(fixture_dir, tmp_path):
    field = tmp_path / "field.flt"
    assert main(["lift", "--scene", str(fixture_dir / "scene.ply"),
                 "--cameras", str(fixture_dir / "cameras.txt"),
                 "--features", str(fixture_dir / "features"),
                 "--lambda", "1.2", "--out", str(field)]) == 0
    out = tmp_path / "filtered"
    assert main(["cluster-filter", "--field", str(field),
                 "--scene", str(fixture_dir / "scene.ply"),
                 "--cameras", str(fixture_dir / "cameras.txt"),
                 "--labels", str(fixture_dir / "features"),
                 "--tau", "0.6", "--relift", "--out", str(out)]) == 0
    rows = read_csv(out / "filter_report.csv")
    assert rows[0] == ["view_id", "label", "iou", "decision"]
    assert all(row[3] == "kept" for row in rows[1:])
    assert (out / "field.flt").exists()
    assert formats.read_run_report(out / "field.flt.json")["timing_s"] > 0.0
    # filtered label maps round-trip
    views = formats.read_cameras(fixture_dir / "cameras.txt")
    for v in views:
        lab = formats.read_label_map(out / "labels" / f"{v.view_id}.lbl")
        orig = formats.read_label_map(fixture_dir / "features" / f"{v.view_id}.lbl")
        assert np.array_equal(lab, orig)


def test_cluster_filter_tau_zero_keeps_every_mask(fixture_dir, tmp_path):
    geo = ["--scene", str(fixture_dir / "scene.ply"),
           "--cameras", str(fixture_dir / "cameras.txt")]
    field = tmp_path / "field.flt"
    assert main(["lift", *geo, "--features", str(fixture_dir / "features"),
                 "--out", str(field)]) == 0
    out = tmp_path / "filtered"
    assert main(["cluster-filter", *geo, "--field", str(field),
                 "--labels", str(fixture_dir / "features"), "--tau", "0",
                 "--out", str(out)]) == 0
    rows = read_csv(out / "filter_report.csv")[1:]
    assert len(rows) >= 6 and all(row[3] == "kept" for row in rows)
    for lbl in (fixture_dir / "features").glob("*.lbl"):
        assert (out / "labels" / lbl.name).read_bytes() == lbl.read_bytes()


def test_relift_keeps_the_field_mode(fixture_dir, tmp_path):
    # Without --mode, cluster-filter --relift lifts as the field was lifted.
    geo = ["--scene", str(fixture_dir / "scene.ply"),
           "--cameras", str(fixture_dir / "cameras.txt")]
    field = tmp_path / "field.flt"
    assert main(["lift", *geo, "--features", str(fixture_dir / "features"),
                 "--mode", "rowsum2", "--out", str(field)]) == 0
    outputs = []
    for extra in ([], ["--mode", "rowsum2"]):
        out = tmp_path / f"filtered{len(outputs)}"
        assert main(["cluster-filter", *geo, *extra, "--field", str(field),
                     "--labels", str(fixture_dir / "features"), "--relift",
                     "--out", str(out)]) == 0
        assert formats.read_run_report(out / "field.flt.json")["mode"] == "rowsum2"
        outputs.append({p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*"))
                        if p.is_file() and p.name != "field.flt.json"})
    assert Path("field.flt") in outputs[0]
    assert outputs[0] == outputs[1]


def test_report_mode_is_checked(fixture_dir, tmp_path, capsys):
    geo = ["--scene", str(fixture_dir / "scene.ply"),
           "--cameras", str(fixture_dir / "cameras.txt")]
    field = tmp_path / "field.flt"
    assert main(["lift", *geo, "--features", str(fixture_dir / "features"),
                 "--out", str(field)]) == 0
    report = formats.read_run_report(str(field) + ".json")
    formats.write_run_report(str(field) + ".json", {**report, "mode": "rowsum3"})
    assert main(["cluster-filter", *geo, "--field", str(field),
                 "--labels", str(fixture_dir / "features"), "--relift",
                 "--out", str(tmp_path / "out")]) == 1
    assert "field.flt.json: mode must be one of" in capsys.readouterr().err


def test_label_missing_from_its_table_names_the_view(fixture_dir, tmp_path, capsys):
    features = tmp_path / "features"
    shutil.copytree(fixture_dir / "features", features)
    table = formats.read_label_features(features / "view_001.lft")
    del table[max(table)]
    formats.write_label_features(features / "view_001.lft", table)
    assert main(["lift", "--scene", str(fixture_dir / "scene.ply"),
                 "--cameras", str(fixture_dir / "cameras.txt"),
                 "--features", str(features), "--out", str(tmp_path / "f.flt")]) == 1
    assert "view 'view_001': labels" in capsys.readouterr().err


def test_segment_and_eval_flow(fixture_dir, tmp_path):
    field = tmp_path / "field.flt"
    assert main(["lift", "--scene", str(fixture_dir / "scene.ply"),
                 "--cameras", str(fixture_dir / "cameras.txt"),
                 "--features", str(fixture_dir / "features"),
                 "--lambda", "1.2", "--out", str(field)]) == 0
    seg = tmp_path / "seg"
    for query in ("blob_a", "blob_b", "blob_a"):  # a rerun replaces its query's rows
        assert main(["segment", "--field", str(field),
                     "--scene", str(fixture_dir / "scene.ply"),
                     "--cameras", str(fixture_dir / "cameras.txt"),
                     "--query", str(fixture_dir / "queries" / f"{query}.flt"),
                     "--threshold", "auto", "--out", str(seg)]) == 0
    masks = sorted(seg.glob("*_mask.pgm"))
    assert len(masks) == 6
    thresholds = read_csv(seg / "thresholds.csv")
    assert thresholds[0] == ["query", "view_id", "threshold", "selection"]
    assert len(thresholds) == 1 + 2 * 3  # header + queries x views
    assert len({(row[0], row[1]) for row in thresholds[1:]}) == 2 * 3
    out_csv = tmp_path / "miou.csv"
    assert main(["eval", "--pred", str(seg), "--gt", str(fixture_dir / "gt"),
                 "--out", str(out_csv)]) == 0
    rows = read_csv(out_csv)
    assert rows[-1][0] == "mIoU"
    assert float(rows[-1][1]) >= 0.9


def test_segment_manual_threshold(fixture_dir, tmp_path):
    field = tmp_path / "field.flt"
    assert main(["lift", "--scene", str(fixture_dir / "scene.ply"),
                 "--cameras", str(fixture_dir / "cameras.txt"),
                 "--features", str(fixture_dir / "features"),
                 "--out", str(field)]) == 0
    seg = tmp_path / "seg_manual"
    assert main(["segment", "--field", str(field),
                 "--scene", str(fixture_dir / "scene.ply"),
                 "--cameras", str(fixture_dir / "cameras.txt"),
                 "--query", str(fixture_dir / "queries" / "blob_a.flt"),
                 "--threshold", "0.5", "--out", str(seg)]) == 0
    rows = read_csv(seg / "thresholds.csv")
    assert all(row[3] == "manual" for row in rows[1:])


def test_segment_rejects_nonsense_threshold(fixture_dir, tmp_path, capsys):
    field = tmp_path / "field.flt"
    assert main(["lift", "--scene", str(fixture_dir / "scene.ply"),
                 "--cameras", str(fixture_dir / "cameras.txt"),
                 "--features", str(fixture_dir / "features"),
                 "--out", str(field)]) == 0
    code = main(["segment", "--field", str(field),
                 "--scene", str(fixture_dir / "scene.ply"),
                 "--cameras", str(fixture_dir / "cameras.txt"),
                 "--query", str(fixture_dir / "queries" / "blob_a.flt"),
                 "--threshold", "sometimes", "--out", str(tmp_path / "x")])
    assert code == 1


# -- the weight-matrix file beside a field ----------------------------------------

@pytest.fixture
def builds(monkeypatch):
    """The weight-matrix builds the CLI makes, one entry per call."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[2].lam)
        return build_weight_matrix(*args, **kwargs)

    monkeypatch.setattr(cli, "build_weight_matrix", counting)
    return calls


def tree_bytes(root: Path) -> dict:
    """Every output file under root but the run reports, which hold timings."""
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file() and p.suffix != ".json"}


def test_pipeline_builds_the_matrix_once(fixture_dir, tmp_path, builds):
    geo = ["--scene", str(fixture_dir / "scene.ply"),
           "--cameras", str(fixture_dir / "cameras.txt")]
    field = tmp_path / "field.flt"
    filtered = tmp_path / "filtered"
    assert main(["lift", *geo, "--features", str(fixture_dir / "features"), "--matrix",
                 "--out", str(field)]) == 0
    assert main(["cluster-filter", *geo, "--field", str(field), "--relift",
                 "--labels", str(fixture_dir / "features"), "--out", str(filtered)]) == 0
    for fld in (field, filtered / "field.flt"):
        for query in ("blob_a", "blob_b", "wall"):
            assert main(["segment", *geo, "--field", str(fld),
                         "--query", str(fixture_dir / "queries" / f"{query}.flt"),
                         "--out", str(tmp_path / f"seg_{fld.parent.name}")]) == 0
    assert builds == [1.2]
    assert Path(f"{field}.A").read_bytes() == (filtered / "field.flt.A").read_bytes()


def test_streaming_lift_writes_a_matrix_only_when_it_renders(fixture_dir, tmp_path, builds):
    geo = ["--scene", str(fixture_dir / "scene.ply"),
           "--cameras", str(fixture_dir / "cameras.txt"),
           "--features", str(fixture_dir / "features"), "--streaming"]
    assert main(["lift", *geo, "--out", str(tmp_path / "plain.flt")]) == 0
    assert not (tmp_path / "plain.flt.A").exists()
    assert main(["lift", *geo, "--render-views", str(tmp_path / "rendered"),
                 "--out", str(tmp_path / "rendered.flt")]) == 0
    assert (tmp_path / "rendered.flt.A").exists()
    assert builds == [1.2]


def _change_one_scene_byte(scene: Path) -> None:
    blob = bytearray(scene.read_bytes())
    blob[blob.index(b"end_header\n") + 11 + 2] ^= 0x40  # x of the first splat
    scene.write_bytes(bytes(blob))


def _change_one_camera_byte(cameras: Path) -> None:
    header, first, *rest = cameras.read_text().splitlines()
    parts = first.split(" ")
    parts[5] = str((int(parts[5][0]) + 1) % 10) + parts[5][1:]  # a digit of cx
    cameras.write_text("\n".join([header, " ".join(parts), *rest]) + "\n")


@pytest.mark.parametrize("change", ["none", "lambda", "kernel", "scene", "cameras", "cutoff"])
def test_matrix_key_covers_every_input(fixture_dir, tmp_path, monkeypatch, builds, change):
    scene, cameras = tmp_path / "scene.ply", tmp_path / "cameras.txt"
    shutil.copy(fixture_dir / "scene.ply", scene)
    shutil.copy(fixture_dir / "cameras.txt", cameras)
    geo = ["--scene", str(scene), "--cameras", str(cameras)]
    field = tmp_path / "field.flt"
    assert main(["lift", *geo, "--features", str(fixture_dir / "features"), "--matrix",
                 "--out", str(field)]) == 0
    stored = Path(f"{field}.A").read_bytes()
    extra = {"lambda": ["--lambda", "2.0"], "kernel": ["--kernel", "gaussian2d"]}.get(change, [])
    if change == "scene":
        _change_one_scene_byte(scene)
    elif change == "cameras":
        _change_one_camera_byte(cameras)
    elif change == "cutoff":
        monkeypatch.setattr(rasterize, "KERNEL_CUTOFF_SIGMA", 2.5)
    outputs, counts = [], []
    for run in ("with_matrix", "without_matrix"):
        if run == "without_matrix":
            Path(f"{field}.A").unlink()
        out = tmp_path / run
        builds.clear()
        for query in ("blob_a", "wall"):
            assert main(["segment", *geo, *extra, "--field", str(field),
                         "--query", str(fixture_dir / "queries" / f"{query}.flt"),
                         "--out", str(out / "seg")]) == 0
        assert main(["cluster-filter", *geo, *extra, "--field", str(field), "--relift",
                     "--labels", str(fixture_dir / "features"),
                     "--out", str(out / "filtered")]) == 0
        outputs.append(tree_bytes(out))
        counts.append(len(builds))
        if run == "with_matrix":
            assert Path(f"{field}.A").read_bytes() == stored  # only field writers write it
    assert counts == [0 if change == "none" else 3, 3]
    assert len(outputs[0]) > 10
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_loaded_matrix_equals_a_fresh_build(fixture_dir, tmp_path, monkeypatch, threads):
    monkeypatch.setenv("SPLATLIFT_THREADS", threads)
    field = tmp_path / "field.flt"
    assert main(["lift", "--scene", str(fixture_dir / "scene.ply"),
                 "--cameras", str(fixture_dir / "cameras.txt"),
                 "--features", str(fixture_dir / "features"), "--matrix",
                 "--out", str(field)]) == 0
    scene = formats.read_splat_ply(fixture_dir / "scene.ply")
    views = formats.read_cameras(fixture_dir / "cameras.txt")
    stored = Path(f"{field}.A")
    loaded = formats.read_weight_matrix(stored, stored.read_bytes()[8:40], views, len(scene), 1.2)
    fresh = build_weight_matrix(scene, views, LiftConfig(lam=1.2), threads=int(threads))
    for name in ("indptr", "indices", "weights"):
        assert getattr(loaded, name).tobytes() == getattr(fresh, name).tobytes()
    assert loaded.view_ranges == fresh.view_ranges


@pytest.mark.parametrize("corruption", ["weight_above_one", "index_past_cols",
                                        "decreasing_indptr"])
def test_invalid_matrix_payload_is_format_error(fixture_dir, tmp_path, capsys, corruption):
    geo = ["--scene", str(fixture_dir / "scene.ply"),
           "--cameras", str(fixture_dir / "cameras.txt")]
    field = tmp_path / "field.flt"
    assert main(["lift", *geo, "--features", str(fixture_dir / "features"), "--matrix",
                 "--out", str(field)]) == 0
    stored = Path(f"{field}.A")
    key = stored.read_bytes()[8:40]
    views = formats.read_cameras(fixture_dir / "cameras.txt")
    A = formats.read_weight_matrix(stored, key, views, formats.read_feature_field(field).count,
                                   1.2)
    indptr, indices, weights = A.indptr.copy(), A.indices.copy(), A.weights.copy()
    if corruption == "weight_above_one":
        weights[len(weights) // 2] = 1.5
    elif corruption == "index_past_cols":
        indices[len(indices) // 2] = A.cols
    else:
        middle = len(indptr) // 2
        indptr[middle] = indptr[middle + 1] + 1
    # a well-formed header under the right key over a payload validate rejects
    formats.write_weight_matrix(
        stored, WeightMatrix(indptr, indices, weights, A.cols, A.view_ranges, 1.2), key)
    for command, args in (("segment", ["--query", str(fixture_dir / "queries" / "wall.flt")]),
                          ("cluster-filter", ["--labels", str(fixture_dir / "features")])):
        assert main([command, *geo, "--field", str(field), *args,
                     "--out", str(tmp_path / "out")]) == 3
        assert "field.flt.A" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["segment", "cluster-filter"])
def test_non_ascii_run_report_is_format_error(fixture_dir, tmp_path, capsys, command):
    geo = ["--scene", str(fixture_dir / "scene.ply"),
           "--cameras", str(fixture_dir / "cameras.txt")]
    field = tmp_path / "field.flt"
    assert main(["lift", *geo, "--features", str(fixture_dir / "features"),
                 "--out", str(field)]) == 0
    report = Path(f"{field}.json")
    report.write_bytes(report.read_bytes().replace(b'"gaussian3d"', b'"gaussian3d\xe9"'))
    extra = {"segment": ["--query", str(fixture_dir / "queries" / "wall.flt")],
             "cluster-filter": ["--labels", str(fixture_dir / "features")]}[command]
    assert main([command, *geo, "--field", str(field), *extra,
                 "--out", str(tmp_path / "out")]) == 3
    assert "field.flt.json: malformed run report" in capsys.readouterr().err


def test_eval_cosine_flow(fixture_dir, tmp_path):
    field = tmp_path / "field.flt"
    rendered = tmp_path / "rendered"
    assert main(["lift", "--scene", str(fixture_dir / "scene.ply"),
                 "--cameras", str(fixture_dir / "cameras.txt"),
                 "--features", str(fixture_dir / "features"),
                 "--lambda", "1.2", "--render-views", str(rendered),
                 "--out", str(field)]) == 0
    assert len(list(rendered.glob("*.flt"))) == 3
    out_csv = tmp_path / "cos.csv"
    assert main(["eval", "--rendered", str(rendered),
                 "--gt", str(fixture_dir / "features"), "--out", str(out_csv)]) == 0
    rows = read_csv(out_csv)
    assert rows[-1][0] == "overall"
    assert float(rows[-1][1]) > 0.9


@pytest.mark.parametrize("gt_files", ["label_4x16", "dense_2x32", "label_without_table"])
def test_eval_rendered_checks_ground_truth(tmp_path, capsys, gt_files):
    # the 8x8 rendered view has as many rays as a 4x16 or 2x32 ground truth
    rendered, gt = tmp_path / "rendered", tmp_path / "gt"
    rendered.mkdir()
    gt.mkdir()
    formats.write_feature_tensor(rendered / "v0.flt", np.ones((8, 8, 3)))
    if gt_files == "dense_2x32":
        formats.write_feature_tensor(gt / "v0.flt", np.ones((2, 32, 3)))
    else:
        shape = (4, 16) if gt_files == "label_4x16" else (8, 8)
        formats.write_label_map(gt / "v0.lbl", np.zeros(shape, dtype=np.int32))
        if gt_files == "label_4x16":
            formats.write_label_features(gt / "v0.lft", {0: np.ones(3)})
    code = main(["eval", "--rendered", str(rendered), "--gt", str(gt),
                 "--out", str(tmp_path / "cos.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert ("v0.lft is missing" if gt_files == "label_without_table" else "is 8x8") in err


def test_eval_requires_exactly_one_mode(tmp_path, capsys):
    assert main(["eval", "--gt", str(tmp_path), "--out", str(tmp_path / "o.csv")]) == 1


def test_verify_suites_exit_codes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--suite", "jensen", "--seed", "7"]) == 0
    assert main(["verify", "--suite", "jensen", "--seed", "-1"]) == 1
    assert "seed must be >= 0" in capsys.readouterr().err
    assert main(["verify", "--suite", "mc"]) == 0
    assert main(["verify", "--suite", "dispersion", "--seed", "3"]) == 1
    report = tmp_path / "bounds.csv"
    capsys.readouterr()
    assert main(["verify", "--suite", "bounds", "--seed", "3",
                 "--report", str(report)]) == 0
    rows = read_csv(report)
    assert rows[0][:3] == ["instance", "loss_ratio", "one_plus_beta"]
    assert len(rows) == 501
    # the printed summary of the loss ratio against 1 + beta
    out = capsys.readouterr().out
    assert all(key in out for key in ("median", "p90", "p99", "max 1 + beta"))
    # the largest finite ratio names its instance and how near it is to an exact fit
    assert "(instance " in out and "L(opt)/||B||^2 " in out
    assert "share of instances with ratio <= 1 + beta" in out


def test_verify_dispersion_report_carries_the_losses(tmp_path):
    report = tmp_path / "dispersion.csv"
    assert main(["verify", "--suite", "dispersion", "--report", str(report)]) == 0
    rows = read_csv(report)
    assert rows[0] == ["lambda", "beta", "loss_true_rowsum", "loss_true_opt", "ratio"]
    assert len(rows) == 6
    for row in rows[1:]:
        assert float(row[4]) == pytest.approx(float(row[2]) / float(row[3]), rel=1e-12)


def test_verify_unknown_suite(capsys):
    assert main(["verify", "--suite", "nope"]) == 1


def test_verify_violation_exits_two(monkeypatch, capsys):
    import splatlift.cli as cli_mod

    def failing_suite(name, seed=None):
        return False, ["VIOLATION 1 <= 0 does not hold"], []

    monkeypatch.setattr(cli_mod, "run_suite", failing_suite)
    assert main(["verify", "--suite", "jensen"]) == 2
    captured = capsys.readouterr()
    assert "VIOLATION" in captured.out
    assert "violated" in captured.err


def test_cli_module_entrypoint_runs():
    # the subprocess imports the same splatlift package as this test
    src = str(Path(splatlift.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "splatlift.cli", "verify",
                           "--suite", "dispersion"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "non-increasing" in proc.stdout
