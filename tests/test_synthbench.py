import math
from pathlib import Path

import numpy as np
import pytest
from oracle import row_entries

from splatlift.model import InvalidInputError, LiftConfig
from splatlift.rasterize import build_weight_matrix, render_labels
from splatlift.synthbench import (
    SILHOUETTE_DOMINANCE,
    NoiseSpec,
    ObjectSpec,
    SceneSpec,
    ViewOrbit,
    alpha_sum_stats,
    make_observations,
    make_scene,
    mc_background_gradient,
    opaque_wall_spec,
    parse_scene_spec,
    random_row_stochastic,
    two_blob_spec,
)


def test_make_scene_deterministic():
    spec = two_blob_spec(noise_fraction=0.0, resolution=32, views=2)
    s1, v1, ids1 = make_scene(spec)
    s2, v2, ids2 = make_scene(spec)
    assert s1.positions.tobytes() == s2.positions.tobytes()
    assert s1.thetas.tobytes() == s2.thetas.tobytes()
    assert np.array_equal(ids1, ids2)
    assert [v.view_id for v in v1] == [v.view_id for v in v2]


def test_make_scene_partitions_ids():
    spec = two_blob_spec(noise_fraction=0.0, resolution=32, views=2)
    scene, views, ids = make_scene(spec)
    assert len(ids) == len(scene)
    assert set(ids) == {0, 1, 2}
    counts = np.bincount(ids)
    assert counts.min() > 0


def test_make_scene_rejects_degenerate_spec():
    with pytest.raises(InvalidInputError):
        SceneSpec(objects=())
    with pytest.raises(InvalidInputError):
        ObjectSpec(name="o", shape="disk", count=0, theta_range=(1, 2),
                   feature=(1.0,), center=(0, 0, 0), extent=1.0)


def test_opaque_wall_row_sums_reach_target():
    spec = opaque_wall_spec()
    scene, views, _ = make_scene(spec)
    A = build_weight_matrix(scene, views, LiftConfig(lam=1.2))
    assert A.covered_rows().all()
    stats = alpha_sum_stats(A)
    for mean, _std in stats.values():
        assert mean >= 99.6


def test_alpha_sum_stats_exact_rows():
    from splatlift.rasterize import WeightMatrix

    A = WeightMatrix(indptr=[0, 1, 2], indices=[0, 1], weights=[1.0, 1.0],
                     cols=2, view_ranges={"v": (0, 2)}, lambda_used=1.0)
    stats = alpha_sum_stats(A)
    assert stats["v"] == (pytest.approx(100.0), pytest.approx(0.0))


def test_merged_masks_leave_geometry_alone():
    clean = two_blob_spec(noise_fraction=0.0, resolution=32, views=5)
    noisy = two_blob_spec(noise_fraction=0.4, resolution=32, views=5)
    s1, v1, ids1 = make_scene(clean)
    s2, v2, ids2 = make_scene(noisy)
    cfg = LiftConfig(lam=1.0)
    A1 = build_weight_matrix(s1, v1, cfg)
    A2 = build_weight_matrix(s2, v2, cfg)
    assert A1.indptr.tobytes() == A2.indptr.tobytes()
    assert A1.indices.tobytes() == A2.indices.tobytes()
    assert A1.weights.tobytes() == A2.weights.tobytes()


def test_observation_noise_counts_and_tags():
    spec = two_blob_spec(noise_fraction=0.2, resolution=32, views=10)
    scene, views, ids = make_scene(spec)
    clean = build_weight_matrix(scene, views, LiftConfig(lam=1.0))
    obs, tags = make_observations(
        render_labels(clean, ids, SILHOUETTE_DOMINANCE), views, spec)
    merged_views = {t.view_id for t in tags.values() if t.merged}
    assert len(merged_views) == 2  # round(0.2 * 10)
    for tag in tags.values():
        if tag.merged:
            assert tag.source_objects == (0, 1)


def test_clean_fraction_zero_all_clean():
    spec = two_blob_spec(noise_fraction=0.0, resolution=32, views=4)
    scene, views, ids = make_scene(spec)
    clean = build_weight_matrix(scene, views, LiftConfig(lam=1.0))
    obs, tags = make_observations(
        render_labels(clean, ids, SILHOUETTE_DOMINANCE), views, spec)
    assert all(not t.merged for t in tags.values())


def test_merged_feature_is_spherical_mean():
    spec = two_blob_spec(noise_fraction=0.2, resolution=32, views=10)
    scene, views, ids = make_scene(spec)
    clean = build_weight_matrix(scene, views, LiftConfig(lam=1.0))
    obs, tags = make_observations(
        render_labels(clean, ids, SILHOUETTE_DOMINANCE), views, spec)
    merged = [k for k, t in tags.items() if t.merged]
    assert merged
    vid, label = merged[0]
    vec = obs.view_label_table(vid)[label]
    # cosine against each source equals cos(half the angle between them)
    u = np.array(spec.objects[0].feature, float)
    v = np.array(spec.objects[1].feature, float)
    u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
    half_angle_cos = np.cos(0.5 * np.arccos(np.clip(u @ v, -1, 1)))
    assert vec @ u == pytest.approx(half_angle_cos, abs=1e-12)
    assert vec @ v == pytest.approx(half_angle_cos, abs=1e-12)
    assert np.linalg.norm(vec) == pytest.approx(1.0)


def test_silhouettes_partition_views():
    spec = two_blob_spec(noise_fraction=0.0, resolution=32, views=3)
    scene, views, ids = make_scene(spec)
    A = build_weight_matrix(scene, views, LiftConfig(lam=1.0))
    clean = render_labels(A, ids, SILHOUETTE_DOMINANCE)
    for start, stop in A.view_ranges.values():
        labels = clean[start:stop]
        assert labels.min() >= -1
        assert labels.max() <= 2
        # backing wall guarantees every ray is dominated by some object
        assert (labels >= 0).mean() > 0.99


# -- Monte-Carlo background gradient --------------------------------------------

def test_mc_analytic_values():
    for s, expect in ((0.0, -1 / 3), (0.5, -1 / 6), (1.0, 0.0)):
        res = mc_background_gradient(s, n_samples=200_000, seed=11)
        assert res.analytic == pytest.approx(expect)
        assert abs(res.estimate - res.analytic) <= 3 * res.standard_error + 1e-15


def test_mc_uniform_variance_oracle():
    # independent check that Var(U(-1, 1)) = 1/3, the factor in the analytic value
    rng = np.random.default_rng(123)
    draws = rng.uniform(-1, 1, 400_000)
    assert draws.var() == pytest.approx(1 / 3, rel=5e-3)


def test_mc_s_one_is_exactly_zero():
    res = mc_background_gradient(1.0, n_samples=50_000, seed=2)
    assert res.estimate == 0.0
    assert res.standard_error == 0.0


def test_mc_error_rate_scaling():
    for seed in range(5):
        r1 = mc_background_gradient(0.25, n_samples=100_000, seed=seed)
        r2 = mc_background_gradient(0.25, n_samples=200_000, seed=seed)
        ratio = (r2.standard_error / r1.standard_error) ** 2
        assert 0.4 <= ratio <= 0.6


def test_mc_rejects_small_samples():
    with pytest.raises(InvalidInputError):
        mc_background_gradient(0.5, n_samples=100)
    with pytest.raises(InvalidInputError):
        mc_background_gradient(1.5)


def test_mc_deterministic_per_seed():
    a = mc_background_gradient(0.3, n_samples=50_000, seed=9)
    b = mc_background_gradient(0.3, n_samples=50_000, seed=9)
    assert a == b


# -- spec text ----------------------------------------------------------------------

SCENES = Path(__file__).resolve().parent.parent / "scenes"


def test_bundled_scenes_equal_presets():
    presets = {"two_blob.ini": two_blob_spec(0.0), "two_blob_noisy.ini": two_blob_spec(0.2),
               "opaque_wall.ini": opaque_wall_spec()}
    assert sorted(p.name for p in SCENES.glob("*.ini")) == sorted(presets)
    for name, spec in presets.items():
        assert parse_scene_spec((SCENES / name).read_text()) == spec, name


def test_spec_rejects_bad_merge_pair():
    with pytest.raises(InvalidInputError):
        SceneSpec(
            objects=(ObjectSpec(name="a", shape="disk", count=5, theta_range=(1, 2),
                                feature=(1.0,), center=(0, 0, 4), extent=1.0),),
            views=ViewOrbit(),
            noise=NoiseSpec(fraction=0.5, merge_pairs=(("a", "missing"),)),
        )


OBJECT_A = "[object:a]\nshape = disk\ncount = 4\nfeature = 1 0\n"
CENTER_A = "center = 0 0 4\nextent = 1\n"


@pytest.mark.parametrize("text, message", [
    ("[object:x]\nshape = disk\n", "missing key 'theta'"),
    ("not an ini at all [", "malformed scene spec"),
    ("[scene]\nseed = abc\n", r"\[scene\] seed must be an integer, got 'abc'"),
    ("[scene]\nseed = -3\n", "seed must be >= 0"),
    ("[scene]\nseed = 7%\n", r"\[scene\] seed must be an integer, got '7%'"),
    ("[views]\ncount = x\n", r"\[views\] count must be an integer, got 'x'"),
    ("[views]\ntarget = 1 2\n", r"\[views\] target must be 3 numbers, got '1 2'"),
    (OBJECT_A + "extent = abc\ncenter = 0 0 4\ntheta = 1\n", "extent must be a number, got 'abc'"),
    (OBJECT_A + "center = 0 4\nextent = 1\ntheta = 1\n", "center must be 3 numbers, got '0 4'"),
    (OBJECT_A + CENTER_A + "theta =\n", r"\[object:a\] theta must be 1 or 2 numbers, got ''"),
    (OBJECT_A + CENTER_A + "theta = nan\n", "theta must be 1 or 2 numbers, got 'nan'"),
    (OBJECT_A + CENTER_A + "theta = 9 100 11\n", "theta must be 1 or 2 numbers, got '9 100 11'"),
    ("[object:a]\nfeature =\n", r"\[object:a\] feature must be one or more numbers, got ''"),
    ("[views]\nwidht = 8\n", r"\[views\] key widht must be one of \['count', 'width'"),
], ids=["missing-keys", "not-ini", "seed-abc", "seed-negative", "seed-percent", "count-x",
        "target-2", "extent-abc", "center-2", "theta-empty", "theta-nan", "theta-3",
        "feature-empty", "unknown-key"])
def test_spec_rejects_malformed_text(text, message):
    with pytest.raises(InvalidInputError, match=message):
        parse_scene_spec(text)


@pytest.mark.parametrize("theta, theta_range", [("9", (9.0, 9.0)), ("9 11", (9.0, 11.0))])
def test_spec_theta_is_one_number_or_a_range(theta, theta_range):
    spec = parse_scene_spec(OBJECT_A + CENTER_A + f"theta = {theta}\n")
    assert spec.objects[0].theta_range == theta_range


def test_random_row_stochastic_rows_sum_exactly_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        A, obs = random_row_stochastic(rng, 30, 8, 2)
        for i in range(A.rows):
            _, w = row_entries(A, i)
            assert math.fsum(w) == 1.0
        assert obs.rows == 30
