import csv
import os
import subprocess
import sys

import numpy as np
import pytest

from splatlift import formats
from splatlift.cli import main
from splatlift.model import LiftConfig
from splatlift.rasterize import build_weight_matrix
from splatlift.solver import lift_rowsum
from splatlift.synthbench import (
    format_scene_spec,
    make_observations,
    make_scene,
    two_blob_spec,
)

SMALL_SPEC = two_blob_spec(noise_fraction=0.0, resolution=32, views=3)


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixture")
    spec_path = out / "spec.ini"
    spec_path.write_text(format_scene_spec(SMALL_SPEC))
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
    obs, _ = make_observations(scene, views, SMALL_SPEC, object_ids=ids)
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
                                        ("lambda", "abc")])
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


def test_eval_requires_exactly_one_mode(tmp_path, capsys):
    assert main(["eval", "--gt", str(tmp_path), "--out", str(tmp_path / "o.csv")]) == 1


def test_verify_suites_exit_codes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--suite", "jensen", "--seed", "7"]) == 0
    assert main(["verify", "--suite", "mc"]) == 0
    assert main(["verify", "--suite", "dispersion", "--seed", "3"]) == 1
    report = tmp_path / "bounds.csv"
    assert main(["verify", "--suite", "bounds", "--seed", "3",
                 "--report", str(report)]) == 0
    rows = read_csv(report)
    assert rows[0][:3] == ["instance", "loss_ratio", "one_plus_beta"]
    assert len(rows) == 501


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
    proc = subprocess.run([sys.executable, "-m", "splatlift.cli", "verify",
                           "--suite", "dispersion"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "non-increasing" in proc.stdout
