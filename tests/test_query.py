import csv
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracle import (
    attention_reference,
    cosine_reference,
    splat_scene,
    valleys_reference,
    widened_attention_reference,
)
from splatlift import formats, query, rasterize
from splatlift.cli import main
from splatlift.model import CameraView, InvalidInputError, LiftConfig
from splatlift.query import (
    _smooth,
    _valleys,
    QueryEmbedding,
    ValleyNotFoundError,
    attention_scores,
    auto_threshold,
    eval_cosine,
    render_attention,
    segment,
    to_display,
)
from splatlift.rasterize import build_weight_matrix
from splatlift.solver import EPS_COVERAGE, FeatureField, ObservationSet


def field_from(values, coverage=None):
    values = np.asarray(values, dtype=np.float64)
    if coverage is None:
        coverage = np.ones(len(values))
    return FeatureField(values=values, coverage=np.asarray(coverage, float))


# -- attention scores -------------------------------------------------------------

def test_attention_self_similarity():
    q = QueryEmbedding(np.array([0.0, 2.0, 0.0]), "q")
    field = field_from([[0.0, 5.0, 0.0]])
    assert attention_scores(field, q)[0] == pytest.approx(1.0)


def test_attention_orthogonal():
    q = QueryEmbedding(np.array([1.0, 0.0]), "q")
    field = field_from([[0.0, 3.0]])
    assert attention_scores(field, q)[0] == pytest.approx(0.0)


def test_attention_hand_cosine():
    q = QueryEmbedding(np.array([1.0, 0.0, 0.0]), "q")
    field = field_from([[1.0, 1.0, 0.0]])
    assert attention_scores(field, q)[0] == pytest.approx(0.7071067811865475)


def test_attention_unobserved_scores_minus_one():
    field = field_from([[1.0, 0.0], [0.0, 0.0]], coverage=[1.0, 0.0])
    scores = attention_scores(field, QueryEmbedding(np.array([1.0, 0.0]), "q"))
    assert scores[1] == -1.0


def test_attention_dim_mismatch():
    field = field_from([[1.0, 0.0]])
    with pytest.raises(InvalidInputError):
        attention_scores(field, QueryEmbedding(np.array([1.0, 0.0, 0.0]), "q"))


def test_attention_scale_invariance():
    rng = np.random.default_rng(8)
    vals = rng.normal(size=(12, 5))
    q = QueryEmbedding(rng.normal(size=5), "q")
    s1 = attention_scores(field_from(vals), q)
    s2 = attention_scores(field_from(vals * 37.5), q)
    assert np.allclose(s1, s2, atol=1e-12)


@pytest.mark.parametrize("with_coverage", [True, False], ids=["coverage", "zero_rows"])
def test_attention_matches_the_dense_reference(with_coverage):
    # 64-D rows over six decades, every seventh row zero and, with a
    # coverage, every fifth primitive unobserved
    rng = np.random.default_rng(31)
    vals = rng.normal(size=(300, 64)) * 10.0 ** rng.uniform(-3, 3, size=(300, 1))
    vals[::7] = 0.0
    coverage = None
    if with_coverage:
        coverage = rng.uniform(0.1, 1.0, 300)
        coverage[::5] = 0.0
    field = FeatureField(values=vals, coverage=coverage)
    q = QueryEmbedding(rng.normal(size=64), "q")
    got = attention_scores(field, q)
    want = attention_reference(field.values, field.unobserved, q.vector)
    assert np.array_equal(got == -1.0, want == -1.0)
    assert np.count_nonzero(got == -1.0) == (94 if with_coverage else 43)
    assert np.max(np.abs(got - want)) <= 1e-12


def read_back(tmp_path, values) -> FeatureField:
    """values written as a field file and read back: a float32 field."""
    path = tmp_path / "field.flt"
    formats.write_feature_field(path, FeatureField(values=values))
    field = formats.read_feature_field(path)
    assert field.values.dtype == np.float32
    return field


@pytest.mark.parametrize("with_coverage", [False, True], ids=["zero_rows", "coverage"])
@pytest.mark.parametrize("F, block_rows", [(3, 43648), (100, 1280), (512, 256)])
def test_read_field_scores_are_the_widened_scores_bitwise(tmp_path, F, block_rows,
                                                          with_coverage):
    # three blocks and five rows over twelve decades, every seventh row zero,
    # and every eleventh scaled to about 1e-25: its squares underflow in
    # float32 but not in float64, so its score is a real cosine
    rng = np.random.default_rng(F)
    P = 3 * block_rows + 5
    vals = rng.normal(size=(P, F)) * 10.0 ** rng.uniform(-6, 6, size=(P, 1))
    tiny = np.arange(P) % 11 == 3
    vals[tiny] *= 1e-25 / np.abs(vals[tiny]).max(axis=1, keepdims=True)
    vals[::7] = 0.0
    coverage = None
    if with_coverage:
        coverage = rng.uniform(0.1, 1.0, P)
        coverage[::5] = 0.0
    field = FeatureField(values=read_back(tmp_path, vals).values, coverage=coverage)
    assert field.values.dtype == np.float32
    assert not np.any(np.einsum("ij,ij->i", field.values[tiny], field.values[tiny]))
    q = QueryEmbedding(rng.normal(size=F), "q")
    got = attention_scores(field, q)
    want = widened_attention_reference(field.values, coverage, q.vector, EPS_COVERAGE)
    assert got.tobytes() == want.tobytes()
    real = tiny & (np.arange(P) % 7 != 0)
    if with_coverage:
        real &= np.arange(P) % 5 != 0
    assert np.count_nonzero(real) > 10 and np.all(got[real] != -1.0)


def test_scores_of_a_read_field_make_no_float64_copy(tmp_path):
    # the widened 20,000 x 512 field alone would take 80 MB
    rng = np.random.default_rng(4)
    field = read_back(tmp_path, rng.standard_normal((20_000, 512), dtype=np.float32))
    q = QueryEmbedding(rng.normal(size=512), "q")
    tracemalloc.start()
    try:
        scores = attention_scores(field, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scores.shape == (20_000,)
    assert peak < 8 * 2**20


def test_positive_scaling_leaves_threshold_and_masks_unchanged():
    # cosine scores ignore positive feature scaling, so the histogram, the
    # selected threshold, and the segmentation are unchanged end to end
    # (a power-of-two factor keeps the arithmetic bitwise identical)
    rng = np.random.default_rng(20)
    vals = np.vstack([rng.normal([6, 0, 0], 0.2, (40, 3)),
                      rng.normal([0, 6, 0], 0.2, (40, 3))])
    q = QueryEmbedding(np.array([1.0, 0.0, 0.0]), "q")
    s1 = attention_scores(field_from(vals), q)
    s2 = attention_scores(field_from(vals * 128.0), q)
    assert np.array_equal(s1, s2)
    t1 = auto_threshold(s1, bins=64, smoothing_window=3)
    t2 = auto_threshold(s2, bins=64, smoothing_window=3)
    assert t1 == t2
    assert np.array_equal(segment(s1, t1), segment(s2, t2))


# -- attention rendering -----------------------------------------------------------

def opaque_view_setup(monkeypatch):
    monkeypatch.setattr(rasterize, "TRANSMITTANCE_FLOOR", 1e-6)
    view = CameraView(fx=20.0, fy=20.0, cx=2.5, cy=2.5, width=5, height=5,
                      world_to_camera=np.eye(4), view_id="v")
    scene = splat_scene([[0, 0, 1.0], [0, 0, 2.0]], [300.0, 600.0], 16.0)
    A = build_weight_matrix(scene, [view], LiftConfig(lam=1.0))
    return view, A


def test_render_attention_uniform_scores(monkeypatch):
    view, A = opaque_view_setup(monkeypatch)
    composite = render_attention(A, np.array([0.37, 0.37]))
    assert composite.dtype == np.float64 and composite.shape == (A.rows,)
    assert A.covered_rows().all()
    assert np.max(np.abs(composite - 0.37)) < 1e-6


def test_render_attention_uncovered_is_background():
    view = CameraView(fx=400.0, fy=400.0, cx=15.5, cy=15.5, width=31, height=31,
                      world_to_camera=np.eye(4), view_id="v")
    scene = splat_scene([0, 0, 1.0], 0.002, 9.0)
    A = build_weight_matrix(scene, [view], LiftConfig(lam=1.0))
    composite = render_attention(A, np.array([0.9]))
    assert composite[0] == -1.0  # pixel (0, 0)
    assert not A.covered_rows()[0]
    assert A.covered_rows().any()


def test_display_rescales_the_covered_scores_to_8_bits(monkeypatch):
    view, A = opaque_view_setup(monkeypatch)
    composite, covered = render_attention(A, np.array([0.2, 0.8])), A.covered_rows()
    img = to_display(composite, covered)
    assert img.dtype == np.uint8 and img.shape == composite.shape
    assert img[np.argmin(composite)] == 0 and img[np.argmax(composite)] == 255
    # uncovered scores clip; with no covered score the scale is the identity span
    scores = np.array([-1.0, 0.2, 0.5, 0.8])
    assert to_display(scores, scores > -1.0).tolist() == [0, 0, 127, 255]
    assert to_display(scores, np.zeros(4, bool)).tolist() == [0, 51, 127, 204]
    assert to_display(scores.reshape(2, 2), (scores > -1.0).reshape(2, 2)).shape == (2, 2)


# -- auto threshold ----------------------------------------------------------------

def mixture_scores(rng, mu1, mu2, sigma1, sigma2, w1, n):
    n1 = int(round(w1 * n))
    return np.concatenate([rng.normal(mu1, sigma1, n1), rng.normal(mu2, sigma2, n - n1)])


def brute_force_density_minimum(mu1, mu2, sigma1, sigma2, w1):
    """Fine-grid argmin of the analytic mixture density between the modes."""
    xs = np.linspace(mu1, mu2, 200001)
    pdf = (w1 / (sigma1 * math.sqrt(2 * math.pi)) * np.exp(-0.5 * ((xs - mu1) / sigma1) ** 2)
           + (1 - w1) / (sigma2 * math.sqrt(2 * math.pi)) * np.exp(-0.5 * ((xs - mu2) / sigma2) ** 2))
    return xs[np.argmin(pdf)]


def test_threshold_matches_density_minimum_on_seeded_mixtures():
    rng = np.random.default_rng(1234)
    for trial in range(20):
        mu1 = rng.uniform(0.05, 0.2)
        mu2 = rng.uniform(0.7, 0.9)
        sigma = rng.uniform(0.08, 0.12)
        w1 = rng.uniform(0.35, 0.65)
        scores = mixture_scores(rng, mu1, mu2, sigma, sigma, w1, 4_000_000)
        threshold = auto_threshold(scores, bins=256, smoothing_window=5)
        target = brute_force_density_minimum(mu1, mu2, sigma, sigma, w1)
        bin_width = (scores.max() - scores.min()) / 256
        assert abs(threshold - target) <= 2 * bin_width, (trial, threshold, target)


def test_threshold_degenerate_inputs_raise():
    with pytest.raises(ValleyNotFoundError, match="no valley"):
        auto_threshold(np.full(100, 0.25))
    with pytest.raises(ValleyNotFoundError, match="no valley"):
        auto_threshold(np.array([0.5]))


def test_threshold_unimodal_raises():
    # single Gaussian mode: tail noise dips are not valleys
    rng = np.random.default_rng(7)
    with pytest.raises(ValleyNotFoundError):
        auto_threshold(rng.normal(0.5, 0.05, 100_000))
    # flat histogram
    with pytest.raises(ValleyNotFoundError):
        auto_threshold(np.linspace(0.0, 1.0, 50_000))


def test_threshold_tracks_shifted_mixture():
    # shifting the whole mixture moves the selected valley with it:
    # translation equivariance within one bin width
    rng = np.random.default_rng(99)
    base = mixture_scores(rng, 0.15, 0.8, 0.1, 0.1, 0.5, 1_000_000)
    t0 = auto_threshold(base)
    for delta in (0.075, -0.2, 1.3):
        t1 = auto_threshold(base + delta)
        bin_width = (base.max() - base.min()) / 256
        assert abs(t1 - (t0 + delta)) <= bin_width + 1e-12


def test_threshold_scans_down_when_top_mode_dominates():
    # the largest peak is the top-most mode: valley must come from below it
    rng = np.random.default_rng(3)
    scores = np.concatenate([rng.normal(0.2, 0.05, 20_000),
                             rng.normal(0.8, 0.05, 200_000)])
    thr = auto_threshold(scores)
    assert 0.3 < thr < 0.7


@pytest.mark.parametrize("bins", [0, -3])
def test_auto_threshold_rejects_bins_below_one(bins):
    scores = np.concatenate([np.full(50, 0.1), np.full(50, 0.9)])
    with pytest.raises(InvalidInputError, match="bins"):
        auto_threshold(scores, bins=bins)


@settings(max_examples=200, deadline=None)
@given(levels=st.lists(st.integers(0, 3), min_size=1, max_size=40),
       widths=st.lists(st.integers(1, 4), min_size=40, max_size=40))
def test_valleys_match_the_run_length_reference(levels, widths):
    # few levels and repeated bins give plateaus, at the ends and inside
    hist = np.repeat(np.array(levels, dtype=np.float64) / 3.0, widths[:len(levels)])
    for peak in range(len(hist)):
        for direction in (+1, -1):
            want = list(valleys_reference(hist, peak, direction))
            assert _valleys(hist, peak, direction) == want, (peak, direction)


def test_smoothing_counts_no_bin_twice_at_the_edges():
    # The main mode sits within window // 2 bins of the lowest bin. Reflect
    # padding counted bins 1-3 twice in bin 0, made bin 0 the peak and put
    # the threshold just above the minimum score.
    bins, window = 96, 7
    hist = np.zeros(bins, dtype=np.int64)
    hist[:8] = [1, 50, 100, 300, 80, 150, 30, 10]
    hist[60:70] = [5, 20, 60, 100, 120, 120, 100, 60, 20, 5]
    half = window // 2
    box_mean = [hist[max(i - half, 0):i + half + 1].mean() for i in range(bins)]
    assert np.allclose(_smooth(hist, window), box_mean, rtol=0, atol=1e-12)

    centers = (np.arange(bins) + 0.5) / bins
    scores = np.concatenate([np.repeat(centers, hist), [0.0, 1.0]])
    assert np.array_equal(np.histogram(scores, bins=bins, range=(0, 1))[0][1:-1], hist[1:-1])
    thr = auto_threshold(scores, bins=bins, smoothing_window=window)
    assert 10 / bins < thr < 60 / bins


# -- segment -----------------------------------------------------------------------

def test_segment_extremes():
    scores = np.array([[0.1, 0.5], [0.9, -1.0]])
    assert segment(scores, -2.0).all()
    assert not segment(scores, 2.0).any()


def test_segment_is_threshold_monotone():
    rng = np.random.default_rng(11)
    scores = rng.uniform(-1, 1, (30, 30))
    masks = [segment(scores, t) for t in (-0.5, 0.0, 0.4, 0.9)]
    for low, high in zip(masks, masks[1:]):
        assert np.all(high <= low)


def test_segment_rejects_nan_threshold():
    with pytest.raises(InvalidInputError):
        segment(np.zeros((2, 2)), float("nan"))


# -- metrics -----------------------------------------------------------------------

# `splatlift eval --pred` is the one owner of mIoU, so its tests run the command.

def write_mask(path, mask):
    """A P5 PGM mask written byte by byte: 255 inside, 0 outside."""
    h, w = mask.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    path.write_bytes(header + np.where(mask, 255, 0).astype(np.uint8).tobytes())


def eval_pred(root, pred, gt):
    """Run `eval --pred` on {name}_mask.pgm files under root; returns the
    exit code and, on success, the rows of the written CSV."""
    for sub, masks in (("pred", pred), ("gt", gt)):
        (root / sub).mkdir(parents=True)
        for name, mask in masks.items():
            write_mask(root / sub / f"{name}_mask.pgm", np.asarray(mask, dtype=bool))
    out = root / "miou.csv"
    code = main(["eval", "--pred", str(root / "pred"), "--gt", str(root / "gt"),
                 "--out", str(out)])
    if code != 0:
        return code, None
    with open(out, newline="") as fh:
        return code, list(csv.reader(fh))


def test_miou_perfect_and_complement(tmp_path):
    gt = {"a": np.array([[True, False], [False, True]])}
    assert eval_pred(tmp_path / "same", gt, gt)[1][-1] == ["mIoU", "1.000000"]
    assert eval_pred(tmp_path / "flip", {"a": ~gt["a"]}, gt)[1][-1] == ["mIoU", "0.000000"]


def test_miou_mean_and_reordering(tmp_path):
    full = np.ones((10, 10), bool)
    half = np.zeros((10, 10), bool)
    half[:, :5] = True
    gt = {"q1": full, "q2": full}
    for order, pred in enumerate(({"q1": full, "q2": half}, {"q1": half, "q2": full})):
        code, rows = eval_pred(tmp_path / str(order), pred, gt)
        assert code == 0
        assert rows[-1] == ["mIoU", "0.750000"]
        assert sorted(float(r[1]) for r in rows[1:-1]) == [0.5, 1.0]


def test_miou_warns_on_missing_gt(tmp_path, capsys):
    m = np.ones((2, 2), bool)
    code, rows = eval_pred(tmp_path, {"a": m, "b": m}, {"a": m})
    assert code == 0
    assert "no ground truth for b_mask.pgm, excluded" in capsys.readouterr().out
    assert rows == [["mask", "iou"], ["a_mask.pgm", "1.000000"], ["mIoU", "1.000000"]]


def test_miou_errors_with_no_overlap(tmp_path):
    assert eval_pred(tmp_path, {"a": np.ones((2, 2), bool)}, {"b": np.ones((2, 2), bool)}) == (
        1, None)


def make_obs(values, labels=None):
    n = len(values)
    view = CameraView(fx=1, fy=1, cx=0, cy=0, width=1, height=n,
                      world_to_camera=np.eye(4), view_id="v")
    if labels is None:
        return ObservationSet.from_dense([view], {"v": np.asarray(values, float)})
    table = {int(l): np.asarray(values[i], float) for i, l in enumerate(labels) if l >= 0}
    return ObservationSet.from_labels([view], {"v": np.asarray(labels, np.int32)}, {"v": table})


def test_cosine_perfect_and_negated():
    vals = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    obs = make_obs(vals)
    assert eval_cosine(vals, obs).mean == pytest.approx(1.0)
    assert eval_cosine(-vals, obs).mean == pytest.approx(-1.0)


def test_cosine_excludes_zero_norm_and_unlabeled():
    vals = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    obs = make_obs([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    rep = eval_cosine(vals, obs)
    assert rep.rays_used == 2
    assert rep.rays_excluded == 1
    assert rep.mean == pytest.approx(1.0)



def cosine_case(backing):
    """Two views of 48-D observations with unobserved rays and zero ground
    truth, and rendered rows near the truth, some zero, in float32."""
    rng = np.random.default_rng(12)
    views = [CameraView(fx=1, fy=1, cx=0, cy=0, width=w, height=h,
                        world_to_camera=np.eye(4), view_id=vid)
             for vid, w, h in (("a", 9, 7), ("b", 6, 5))]
    if backing == "dense":
        dense = {v.view_id: rng.normal(size=(v.pixel_count, 48)) for v in views}
        dense["a"][::6] = 0.0
        obs = ObservationSet.from_dense(views, dense)
        obs = obs.masked(rng.uniform(size=obs.rows) > 0.2)
    else:
        labels = {v.view_id: rng.integers(-1, 4, size=v.pixel_count) for v in views}
        tables = {v.view_id: {k: rng.normal(size=48) for k in range(4)} for v in views}
        tables["b"][2] = np.zeros(48)
        obs = ObservationSet.from_labels(views, labels, tables)
    rendered = obs.dense_values() + rng.normal(scale=0.5, size=(obs.rows, 48))
    rendered[::11] = 0.0
    return rendered.astype(np.float32), obs


@pytest.mark.parametrize("block_rows", [None, 1, 10])
@pytest.mark.parametrize("backing", ["dense", "labels"])
def test_cosine_matches_the_dense_reference(backing, block_rows, monkeypatch):
    if block_rows is not None:
        monkeypatch.setattr(query, "ROW_BLOCK_VALUES", block_rows * 48)
    rendered, obs = cosine_case(backing)
    mean, used, excluded = cosine_reference(rendered, obs)
    assert used > 40 and excluded > 10
    rep = eval_cosine(rendered, obs)
    assert (rep.rays_used, rep.rays_excluded) == (used, excluded)
    assert abs(rep.mean - mean) <= 1e-12
