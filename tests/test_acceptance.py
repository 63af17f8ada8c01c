"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, not configured elsewhere.
"""

import csv
import time
from pathlib import Path

import numpy as np
import pytest

from splatlift import formats
from splatlift.aggregate import cluster_features, filter_observations
from splatlift.cli import main
from splatlift.model import LiftConfig
from splatlift.query import ValleyNotFoundError, auto_threshold
from splatlift.rasterize import build_weight_matrix, render_labels
from splatlift.solver import (
    LIFT_MODES,
    bound_report,
    lift_rowsum,
    lift_streaming,
    loss_surrogate,
    loss_true,
    lsq_oracle,
    surrogate_gradient,
)
from splatlift.synthbench import (
    SILHOUETTE_DOMINANCE,
    alpha_sum_stats,
    layered_sheet_scene,
    make_observations,
    make_scene,
    mc_background_gradient,
    opaque_wall_spec,
    random_row_stochastic,
    two_blob_spec,
)

PASS = "PASS criterion {n}: {msg}"


def report(n, msg):
    print(PASS.format(n=n, msg=msg))


def _instances(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        rows = int(rng.integers(20, 501))
        cols = int(rng.integers(5, 61))
        feats = int(rng.integers(1, 9))
        yield random_row_stochastic(rng, rows, cols, feats), rng


@pytest.fixture(scope="module")
def jensen_instances():
    rng = np.random.default_rng(7)
    out = []
    for _ in range(100):
        rows = int(rng.integers(20, 501))
        cols = int(rng.integers(5, 61))
        feats = int(rng.integers(1, 9))
        A, obs = random_row_stochastic(rng, rows, cols, feats)
        x = rng.normal(size=(cols, feats))
        out.append((A, obs, x))
    return out


def test_criterion_1_jensen(jensen_instances):
    started = time.perf_counter()
    violations = 0
    for A, obs, x in jensen_instances:
        for norm in ("l1", "l2", "huber"):
            if not loss_true(A, obs, x, norm, huber_delta=1.0) <= loss_surrogate(
                    A, obs, x, norm, huber_delta=1.0):
                violations += 1
    elapsed = time.perf_counter() - started
    assert violations == 0
    assert elapsed < 10.0
    report(1, f"0/300 Jensen violations over 100 instances x 3 norms in {elapsed:.2f}s")


def test_criterion_2_stationarity(jensen_instances):
    worst = 0.0
    for A, obs, _x in jensen_instances:
        field = lift_rowsum(A, obs)
        grad = surrogate_gradient(A, obs, field.values)
        cov = field.coverage
        seen = cov > 0
        worst = max(worst, float(np.max(np.abs(grad[seen]).max(axis=1) / cov[seen])))
    assert worst <= 1e-8
    report(2, f"row-sum lift zeroes the surrogate gradient: worst relative {worst:.2e} <= 1e-8")


def test_criterion_3_bound_chain(tmp_path):
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    rows_csv = [("instance", "loss_ratio", "one_plus_beta")]
    worst_identity = 0.0
    for i in range(500):
        rows = int(rng.integers(20, 501))
        cols = int(rng.integers(5, 61))
        feats = int(rng.integers(1, 9))
        A, obs = random_row_stochastic(rng, rows, cols, feats)
        rep = bound_report(A, obs)
        # exact chain, no tolerance
        assert rep.loss_true_rowsum <= rep.loss_surrogate_rowsum <= rep.loss_surrogate_opt, i
        assert rep.loss_true_opt <= rep.loss_true_rowsum, i
        # dispersion identity J(opt) = sum (1 + beta_i) mu_i^2 within 1e-9
        An = A.row_normalized()
        x_opt = lsq_oracle(An, obs)
        reps = np.diff(An.indptr)
        rows_idx = np.repeat(np.arange(An.rows), reps)
        delta = np.linalg.norm(x_opt.values[An.indices] - obs.dense_values()[rows_idx], axis=1)
        mu = np.bincount(rows_idx, weights=An.weights * delta, minlength=An.rows)
        identity = float(np.sum((1.0 + rep.beta_per_row) * mu * mu))
        rel = abs(identity - rep.loss_surrogate_opt) / max(rep.loss_surrogate_opt, 1e-300)
        worst_identity = max(worst_identity, rel)
        assert rel <= 1e-9, (i, rel)
        rows_csv.append((i, rep.ratio, 1.0 + rep.beta))
    with open(tmp_path / "bound_chain.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows_csv)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(3, f"500/500 chains exact, identity worst {worst_identity:.2e} <= 1e-9, "
              f"CSV emitted, {elapsed:.1f}s")


def test_criterion_4_dispersion_trend():
    scene, views, obs = layered_sheet_scene()
    lams = (1.0, 1.2, 1.5, 2.0, 4.0)
    betas = []
    for lam in lams:
        A = build_weight_matrix(scene, views, LiftConfig(lam=lam))
        betas.append(bound_report(A, obs).beta)
    assert all(b2 <= b1 for b1, b2 in zip(betas, betas[1:])), betas
    report(4, "beta(x_opt) non-increasing over lambda sweep: "
              + " >= ".join(f"{b:.4f}" for b in betas))


def test_criterion_5_alpha_sum():
    spec = opaque_wall_spec()
    scene, views, _ = make_scene(spec)
    A = build_weight_matrix(scene, views, LiftConfig(lam=1.2))
    stats = alpha_sum_stats(A)
    means = [m for m, _ in stats.values()]
    assert min(means) >= 99.0  # hard floor
    target_met = min(means) >= 99.6
    report(5, f"opaque wall mean row sums {min(means):.4f}%..{max(means):.4f}% "
              f"(floor 99.0 ok, target 99.6 {'met' if target_met else 'NOT met'})")
    assert target_met


def test_criterion_6_mc_background_gradient():
    started = time.perf_counter()
    for s in (0.0, 0.25, 0.5, 1.0):
        res = mc_background_gradient(s, n_samples=100_000, seed=5)
        assert abs(res.estimate - res.analytic) <= 3.0 * res.standard_error + 1e-15, s
    ratios = []
    for seed in range(3):
        r1 = mc_background_gradient(0.25, n_samples=100_000, seed=100 + seed)
        r2 = mc_background_gradient(0.25, n_samples=200_000, seed=100 + seed)
        ratio = (r2.standard_error / r1.standard_error) ** 2
        ratios.append(ratio)
        assert 0.4 <= ratio <= 0.6, ratio  # squared SE halves within 20%
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(6, f"estimates within 3 SE of (s-1)/3 for s in {{0, .25, .5, 1}}; "
              f"SE^2 ratios at 2x samples {[round(r, 3) for r in ratios]}, {elapsed:.2f}s")


@pytest.fixture(scope="module")
def blob_fixtures():
    out = {}
    for name, fraction in (("clean", 0.0), ("noisy", 0.2)):
        spec = two_blob_spec(noise_fraction=fraction)
        scene, views, ids = make_scene(spec)
        clean = build_weight_matrix(scene, views, LiftConfig(lam=1.0))
        obs, tags = make_observations(
            render_labels(clean, ids, SILHOUETTE_DOMINANCE), views, spec)
        out[name] = (spec, scene, views, ids, obs, tags)
    return out


def test_criterion_7_streaming_equivalence(blob_fixtures):
    worst = 0.0
    cases = []
    spec, scene, views, ids, obs, _tags = blob_fixtures["clean"]
    cases.append(("two_blob_clean", scene, views, obs, LiftConfig(lam=1.2)))
    spec_n, scene_n, views_n, ids_n, obs_n, _t = blob_fixtures["noisy"]
    cases.append(("two_blob_noisy", scene_n, views_n, obs_n, LiftConfig(lam=1.2)))
    wall_scene, wall_views, _ = make_scene(opaque_wall_spec())
    wall_view_objs = wall_views
    from splatlift.solver import ObservationSet
    wall_obs = ObservationSet.from_dense(
        wall_view_objs,
        {v.view_id: np.full((v.pixel_count, 2), 0.25) for v in wall_view_objs})
    cases.append(("opaque_wall", wall_scene, wall_views, wall_obs, LiftConfig(lam=1.2)))
    sheet_scene, sheet_views, sheet_obs = layered_sheet_scene()
    cases.append(("layered_sheet", sheet_scene, sheet_views, sheet_obs, LiftConfig(lam=1.0)))
    for name, scene_c, views_c, obs_c, cfg in cases:
        A = build_weight_matrix(scene_c, views_c, cfg)
        for mode in LIFT_MODES:
            direct = lift_rowsum(A, obs_c, mode).values
            streamed = lift_streaming(scene_c, views_c, obs_c, cfg, mode=mode).values
            denom = np.maximum(np.abs(direct), 1e-12)
            rel = float(np.max(np.abs(streamed - direct) / denom))
            worst = max(worst, rel)
            assert rel <= 1e-5, (name, mode, rel)
    report(7, f"streaming == matrix path on 4 fixtures x 2 modes, worst rel diff {worst:.2e}")


def test_criterion_8_aggregation_filtering(blob_fixtures):
    spec, scene, views, ids, obs, tags = blob_fixtures["noisy"]
    A = build_weight_matrix(scene, views, LiftConfig(lam=1.2))
    field = lift_rowsum(A, obs)
    assignment = cluster_features(field)
    kappa = render_labels(A, assignment.labels)
    merged = {k for k, t in tags.items() if t.merged}
    clean = {k for k, t in tags.items() if not t.merged}
    assert merged, "noisy benchmark must contain merged masks"
    _, records = filter_observations(obs, kappa, tau=0.6)
    dropped = {(r.view_id, r.label) for r in records if not r.kept}
    recall = len(dropped & merged) / len(merged)
    retention = len(clean - dropped) / len(clean)
    assert recall >= 0.90
    assert retention >= 0.95
    kept_sets = []
    for tau in (0.3, 0.5, 0.6, 0.8):
        _, recs = filter_observations(obs, kappa, tau)
        kept_sets.append({(r.view_id, r.label) for r in recs if r.kept})
    for bigger, smaller in zip(kept_sets, kept_sets[1:]):
        assert smaller <= bigger
    report(8, f"merged-mask recall {recall:.2f} >= 0.90, clean retention {retention:.2f} "
              ">= 0.95, kept-set monotone over tau in {0.3, 0.5, 0.6, 0.8}")


def test_criterion_9_auto_threshold():
    rng = np.random.default_rng(1234)
    worst_bins = 0.0
    for _trial in range(20):
        mu1 = rng.uniform(0.05, 0.2)
        mu2 = rng.uniform(0.7, 0.9)
        sigma = rng.uniform(0.08, 0.12)
        w1 = rng.uniform(0.35, 0.65)
        n1 = int(round(w1 * 4_000_000))
        scores = np.concatenate([rng.normal(mu1, sigma, n1),
                                 rng.normal(mu2, sigma, 4_000_000 - n1)])
        threshold = auto_threshold(scores, bins=256, smoothing_window=5)
        xs = np.linspace(mu1, mu2, 200001)
        pdf = (w1 * np.exp(-0.5 * ((xs - mu1) / sigma) ** 2)
               + (1 - w1) * np.exp(-0.5 * ((xs - mu2) / sigma) ** 2))
        target = xs[np.argmin(pdf)]
        bin_width = (scores.max() - scores.min()) / 256
        off = abs(threshold - target) / bin_width
        worst_bins = max(worst_bins, off)
        assert off <= 2.0, (_trial, off)
    with pytest.raises(ValleyNotFoundError):
        auto_threshold(np.full(1000, 0.5))
    with pytest.raises(ValleyNotFoundError):
        auto_threshold(np.random.default_rng(0).normal(0.5, 0.05, 100_000))
    report(9, f"20/20 mixture thresholds within 2 bins of the density minimum "
              f"(worst {worst_bins:.2f}); degenerate inputs raise")


SCENES = Path(__file__).resolve().parent.parent / "scenes"


def _run_pipeline(tmp_path, spec_path, tag, relift):
    fix = tmp_path / f"fix_{tag}"
    work = tmp_path / f"work_{tag}"
    assert main(["synth", "--spec", str(spec_path), "--out", str(fix)]) == 0
    field = work / "field.flt"
    assert main(["lift", "--scene", str(fix / "scene.ply"),
                 "--cameras", str(fix / "cameras.txt"),
                 "--features", str(fix / "features"),
                 "--lambda", "1.2", "--mode", "rowsum", "--matrix",
                 "--out", str(field)]) == 0
    if relift:
        filtered = work / "filtered"
        assert main(["cluster-filter", "--field", str(field),
                     "--scene", str(fix / "scene.ply"),
                     "--cameras", str(fix / "cameras.txt"),
                     "--labels", str(fix / "features"),
                     "--tau", "0.6", "--relift", "--out", str(filtered)]) == 0
        field = filtered / "field.flt"
    seg = work / ("seg_filtered" if relift else "seg_raw")
    for query in ("blob_a", "blob_b"):
        assert main(["segment", "--field", str(field),
                     "--scene", str(fix / "scene.ply"),
                     "--cameras", str(fix / "cameras.txt"),
                     "--query", str(fix / "queries" / f"{query}.flt"),
                     "--threshold", "auto", "--out", str(seg)]) == 0
    out_csv = work / ("miou_filtered.csv" if relift else "miou_raw.csv")
    assert main(["eval", "--pred", str(seg), "--gt", str(fix / "gt"),
                 "--out", str(out_csv)]) == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[-1][0] == "mIoU"
    return float(rows[-1][1])


def test_criterion_10_end_to_end(tmp_path):
    started = time.perf_counter()
    # the bundled scenes are two_blob_spec(0.0) and two_blob_spec(0.2)
    clean_miou = _run_pipeline(tmp_path, SCENES / "two_blob.ini", "clean", relift=True)
    assert clean_miou >= 0.95
    noisy_raw = _run_pipeline(tmp_path, SCENES / "two_blob_noisy.ini", "noisy_raw", relift=False)
    noisy_filtered = _run_pipeline(tmp_path, SCENES / "two_blob_noisy.ini", "noisy_filt",
                                   relift=True)
    assert noisy_filtered > noisy_raw
    assert noisy_filtered >= 0.95
    elapsed = time.perf_counter() - started
    assert elapsed < 180.0
    report(10, f"clean mIoU {clean_miou:.3f} >= 0.95; filtering lifts noisy mIoU "
               f"{noisy_raw:.3f} -> {noisy_filtered:.3f}; total {elapsed:.0f}s < 180s")


def test_criterion_11_roundtrips_and_determinism(tmp_path):
    rng = np.random.default_rng(3)
    # every format round-trips bit-exactly
    tensor = rng.normal(size=(5, 4, 3)).astype(np.float32)
    formats.write_feature_tensor(tmp_path / "t.flt", tensor)
    assert formats.read_feature_tensor(tmp_path / "t.flt").tobytes() == tensor.tobytes()

    labels = rng.integers(-1, 9, size=(6, 7)).astype(np.int32)
    formats.write_label_map(tmp_path / "m.lbl", labels)
    assert formats.read_label_map(tmp_path / "m.lbl").tobytes() == labels.tobytes()

    table = {i: rng.normal(size=4).astype(np.float32) for i in range(3)}
    formats.write_label_features(tmp_path / "f.lft", table)
    back = formats.read_label_features(tmp_path / "f.lft")
    assert all(back[i].tobytes() == table[i].astype("<f4").tobytes() for i in table)

    spec = two_blob_spec(noise_fraction=0.0, resolution=24, views=2)
    scene, views, _ = make_scene(spec)
    formats.write_splat_ply(tmp_path / "s.ply", scene)
    ply_back = formats.read_splat_ply(tmp_path / "s.ply")
    assert ply_back.positions.astype(np.float32).tobytes() == \
        scene.positions.astype(np.float32).tobytes()

    formats.write_cameras(tmp_path / "c.txt", views)
    cam_back = formats.read_cameras(tmp_path / "c.txt")
    assert all(a.world_to_camera.tobytes() == b.world_to_camera.tobytes()
               for a, b in zip(views, cam_back))

    mask = rng.uniform(size=(9, 9)) > 0.4
    formats.write_pgm(tmp_path / "p.pgm", mask)
    assert np.array_equal(formats.read_mask_pgm(tmp_path / "p.pgm"), mask)

    # deterministic rebuild of A, byte-identical across runs and thread counts
    cfg = LiftConfig(lam=1.2)
    builds = [build_weight_matrix(scene, views, cfg, threads=t) for t in (1, 1, 2, 4)]
    ref = builds[0]
    for other in builds[1:]:
        assert ref.indptr.tobytes() == other.indptr.tobytes()
        assert ref.indices.tobytes() == other.indices.tobytes()
        assert ref.weights.tobytes() == other.weights.tobytes()
    report(11, "5 formats round-trip bit-exactly; weight matrix rebuilds byte-identical "
               "across runs and thread counts {1, 2, 4}")
