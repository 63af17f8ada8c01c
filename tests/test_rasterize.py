import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse._compressed
import scipy.sparse._sparsetools
from hypothesis import given, settings, strategies as st

from oracle import (
    bincount_label_votes,
    dense_tile_entries,
    first_duplicate_row,
    onehot_label_votes,
    reference_rows,
    row_entries,
    row_sums_reference,
    scanned_tiles,
    splat_scene,
    two_blob_spec,
)
from splatlift import rasterize
from splatlift.model import (
    CameraView,
    InvalidInputError,
    KernelKind,
    LiftConfig,
    SplatScene,
    polarized_opacities,
)
from splatlift.rasterize import (
    WeightMatrix,
    build_weight_matrix,
    render,
    render_labels,
)
from splatlift.solver import LIFT_MODES, ObservationSet, lift_rowsum
from splatlift.synthbench import SILHOUETTE_DOMINANCE, make_scene, parse_scene_spec

SCENES = Path(__file__).resolve().parent.parent / "scenes"


def frontal_view(width=9, height=9, fx=100.0, view_id="v0", cx=None, cy=None):
    return CameraView(fx=fx, fy=fx, cx=width / 2 if cx is None else cx,
                      cy=height / 2 if cy is None else cy, width=width, height=height,
                      world_to_camera=np.eye(4), view_id=view_id)


def splat_at(x, y, z, scale=0.1, theta=3.0, kernel=KernelKind.GAUSSIAN_3D):
    return splat_scene([x, y, z], scale, theta, kernel)


def axis_weights(scene, size=41, fx=100.0, cfg=None):
    """A single-splat scene's weights on a frontal view whose principal point
    is the centre pixel c: a function (dx, dy) -> weight of pixel
    c + (dx, dy) (0.0 without an entry), and the splat's opacity."""
    cfg = cfg or LiftConfig(lam=1.0)
    c = size // 2
    A = build_weight_matrix(scene, [frontal_view(size, size, fx, cx=c, cy=c)], cfg)

    def weight(dx, dy):
        idx, w = row_entries(A, (c + dy) * size + c + dx)
        return float(w[0]) if len(idx) else 0.0
    return weight, float(polarized_opacities(scene.thetas, cfg.lam)[0])


# -- projection ---------------------------------------------------------------

def test_project_on_axis_hits_principal_point():
    view = frontal_view(cx=4, cy=4)
    A = build_weight_matrix(splat_at(0, 0, 1.0), [view], LiftConfig(lam=1.0))
    sums = A.row_sums().reshape(view.height, view.width)
    assert np.unravel_index(np.argmax(sums), sums.shape) == (4, 4)
    assert np.array_equal(sums, sums[::-1, ::-1])  # symmetric about the principal point


def test_project_isotropic_axis_covariance():
    # Hand evaluation of J W Sigma W^T J^T for an on-axis splat at depth 1,
    # f = 100, isotropic scale 0.1: diag(100, 100) plus the 0.3 dilation.
    # The weights at offsets (10, 0), (0, 10) and (10, 10) give the conic.
    weight, alpha = axis_weights(splat_at(0, 0, 1.0, scale=0.1))
    qx, qy, qxy = (-2.0 * math.log(weight(dx, dy) / alpha)
                   for dx, dy in ((10, 0), (0, 10), (10, 10)))
    conic = np.array([[qx, (qxy - qx - qy) / 2], [(qxy - qx - qy) / 2, qy]]) / 100.0
    assert np.allclose(np.linalg.inv(conic), np.diag([100.3, 100.3]), atol=1e-9)


def test_project_behind_camera_is_culled():
    A = build_weight_matrix(splat_at(0, 0, -1.0), [frontal_view()], LiftConfig())
    assert A.nnz == 0


def test_project_radius_scales_with_cutoff(monkeypatch):
    # One pixel row through the principal point: the covered pixels are
    # exactly those within cutoff * sigma, sigma = sqrt(100.3) pixels.
    view = CameraView(fx=100.0, fy=100.0, cx=60, cy=0, width=121, height=1,
                      world_to_camera=np.eye(4), view_id="v")
    offsets = np.abs(np.arange(121) - 60)
    for cutoff in (3.0, 5.0):
        monkeypatch.setattr(rasterize, "KERNEL_CUTOFF_SIGMA", cutoff)
        A = build_weight_matrix(splat_at(0, 0, 1.0, theta=8.0), [view], LiftConfig(lam=1.0))
        assert np.array_equal(A.covered_rows(), offsets <= cutoff * math.sqrt(100.3))


# -- kernel evaluation ---------------------------------------------------------

def test_kernel_center_is_one():
    weight, alpha = axis_weights(splat_at(0, 0, 1.0))
    assert weight(0, 0) == alpha


def test_kernel_one_sigma_value():
    # scale sqrt(99.7) / 100 makes the screen variance 99.7 + 0.3 = 10^2
    weight, alpha = axis_weights(splat_at(0, 0, 1.0, scale=math.sqrt(99.7) / 100.0))
    assert weight(10, 0) == pytest.approx(alpha * math.exp(-0.5), rel=1e-12)
    assert weight(0, -10) == pytest.approx(alpha * math.exp(-0.5), rel=1e-12)


def test_kernel_beyond_radius_is_zero():
    # radius 3 * sqrt(100.3) = 30.04 pixels; the kernel value beyond it is
    # still far above the weight cut-off
    weight, alpha = axis_weights(splat_at(0, 0, 1.0, scale=0.1), size=81)
    assert weight(30, 0) == pytest.approx(alpha * math.exp(-0.5 * 900 / 100.3), rel=1e-12)
    assert weight(31, 0) == 0.0 and weight(0, 31) == 0.0


def test_planar_kernel_center_and_sigma():
    weight, alpha = axis_weights(splat_at(0, 0, 1.0, scale=0.05, kernel=KernelKind.GAUSSIAN_2D))
    assert weight(0, 0) == pytest.approx(alpha, abs=1e-12)
    # one planar standard deviation (0.05 world at depth 1) is fx * 0.05 pixels
    assert weight(5, 0) == pytest.approx(alpha * math.exp(-0.5), rel=1e-6)


# -- weight matrix construction --------------------------------------------------

def opaque_pixel_scene(thetas, z_values, scale=50.0):
    """Giant flat splats so every pixel sees delta ~= 1 for each layer."""
    return splat_scene([[0, 0, z] for z in z_values], scale, thetas)


def test_single_splat_full_delta_row():
    view = frontal_view(width=5, height=5, fx=50.0)
    theta = math.log(0.9 / 0.1)  # alpha = 0.9
    scene = opaque_pixel_scene([theta], [1.0])
    A = build_weight_matrix(scene, [view], LiftConfig(lam=1.0))
    center_row = (view.height // 2) * view.width + view.width // 2
    idx, w = row_entries(A, center_row)
    assert list(idx) == [0]
    assert w[0] == pytest.approx(0.9, abs=1e-6)


def test_two_layer_compositing_weights():
    # front alpha 0.6, back alpha 0.8 -> weights 0.6 and 0.8 * (1 - 0.6)
    view = frontal_view(width=5, height=5, fx=50.0)
    t_front = math.log(0.6 / 0.4)
    t_back = math.log(0.8 / 0.2)
    scene = opaque_pixel_scene([t_front, t_back], [1.0, 2.0])
    A = build_weight_matrix(scene, [view], LiftConfig(lam=1.0))
    row = (view.height // 2) * view.width + view.width // 2
    idx, w = row_entries(A, row)
    assert list(idx) == [0, 1]
    assert w[0] == pytest.approx(0.6, abs=1e-6)
    assert w[1] == pytest.approx(0.32, abs=1e-6)
    assert A.row_sums()[row] == pytest.approx(0.92, abs=1e-6)


def test_uncovered_pixel_has_empty_row():
    view = frontal_view(width=31, height=31, fx=400.0)
    scene = splat_at(0, 0, 1.0, scale=0.002, theta=8.0)
    A = build_weight_matrix(scene, [view], LiftConfig(lam=1.0))
    assert A.row_sums()[0] == 0.0
    assert not A.covered_rows()[0]
    assert A.covered_rows()[(31 // 2) * 31 + 31 // 2]


def test_empty_inputs_rejected():
    view = frontal_view()
    scene = splat_at(0, 0, 1.0)
    with pytest.raises(InvalidInputError):
        build_weight_matrix(scene, [], LiftConfig())
    with pytest.raises(InvalidInputError):
        build_weight_matrix(None, [view], LiftConfig())


def test_rows_are_row_major_and_front_to_back():
    rng = np.random.default_rng(3)
    scene = splat_scene(rng.uniform([-1, -1, 2], [1, 1, 5], size=(40, 3)), 0.3, 2.5)
    view = frontal_view(width=16, height=16, fx=30.0)
    A = build_weight_matrix(scene, [view], LiftConfig(lam=1.0))
    depths = scene.positions[:, 2]  # identity pose: camera depth = z
    for row in range(A.rows):
        idx, _ = row_entries(A, row)
        if len(idx) > 1:
            row_depths = depths[idx]
            order = np.lexsort((idx, row_depths))
            assert np.all(np.diff(order) > 0), "entries must be depth sorted"
        assert len(np.unique(idx)) == len(idx)


def test_row_stochastic_on_random_scene():
    rng = np.random.default_rng(11)
    scene = splat_scene(rng.uniform([-1, -1, 2], [1, 1, 6], size=(120, 3)),
                        rng.uniform(0.05, 0.5, 120), rng.uniform(-4, 10, 120))
    views = [frontal_view(width=24, height=24, fx=40.0, view_id=f"v{i}") for i in range(2)]
    views[1] = CameraView(fx=40.0, fy=40.0, cx=12, cy=12, width=24, height=24,
                          world_to_camera=views[1].world_to_camera, view_id="v1")
    A = build_weight_matrix(scene, views, LiftConfig(lam=1.3))
    sums = A.row_sums()
    assert sums.min() >= 0.0
    assert sums.max() <= 1.0 + 1e-6
    if A.nnz:
        assert 0.0 < A.weights.min() and A.weights.max() <= 1.0


def test_deterministic_rebuild_bit_identical_across_threads():
    rng = np.random.default_rng(5)
    scene = splat_scene(rng.uniform([-1, -1, 2], [1, 1, 5], size=(60, 3)), 0.25, 1.5)
    views = [frontal_view(width=20, height=20, fx=35.0, view_id=f"v{i}") for i in range(3)]
    builds = [build_weight_matrix(scene, views, LiftConfig(lam=1.2), threads=n)
              for n in (1, 1, 4)]
    ref = builds[0]
    for other in builds[1:]:
        assert ref.indptr.tobytes() == other.indptr.tobytes()
        assert ref.indices.tobytes() == other.indices.tobytes()
        assert ref.weights.tobytes() == other.weights.tobytes()


def test_tile_culling_matches_single_tile_build(monkeypatch):
    # One tile spanning the whole view is the no-tile-culling reference. A
    # pixel's non-zero sigma sequence is the same for every tile side (each
    # zero multiplies the transmittance by exactly 1), so volumetric kernels
    # give the same bytes at every side.
    rng = np.random.default_rng(9)
    scene = splat_scene(rng.uniform([-0.8, -0.8, 2], [0.8, 0.8, 4], size=(50, 3)), 0.15, 2.0)
    view = frontal_view(width=33, height=33, fx=45.0)
    builds = {}
    for tile_size in (1, 4, 5, 8, 16, 32, 64):
        monkeypatch.setattr(rasterize, "TILE_SIDE", tile_size)
        builds[tile_size] = build_weight_matrix(scene, [view], LiftConfig(lam=1.0))
    whole = builds.pop(64)
    for tiled in builds.values():
        assert tiled.indptr.tobytes() == whole.indptr.tobytes()
        assert tiled.indices.tobytes() == whole.indices.tobytes()
        assert tiled.weights.tobytes() == whole.weights.tobytes()


def test_tile_culling_matches_single_tile_build_on_mixed_kernels(monkeypatch):
    # Planar kernel values are formed element by element at each pixel's
    # ray-plane hit, so planar weights are the same bytes at every side too.
    scene = mixed_kernel_scene(np.random.default_rng(0), 48)
    view = turned_view(0.3, [0, 0, 3.2], 3.2, fx=40.0, fy=38.0, cx=16.2, cy=16.7,
                       width=33, height=33, view_id="a")
    builds = {}
    for tile_size in (1, 4, 5, 8, 16, 32, 64):
        monkeypatch.setattr(rasterize, "TILE_SIDE", tile_size)
        builds[tile_size] = build_weight_matrix(scene, [view], LiftConfig(lam=1.2))
    whole = builds.pop(64)
    assert whole.nnz > 5 * whole.rows
    for tiled in builds.values():
        assert tiled.indptr.tobytes() == whole.indptr.tobytes()
        assert tiled.indices.tobytes() == whole.indices.tobytes()
        assert tiled.weights.tobytes() == whole.weights.tobytes()


def test_cutoff_perturbs_weights_below_kernel_tail(monkeypatch):
    # Sparse non-overlapping splats: enlarging the cutoff changes each weight
    # by at most the kernel value at the tighter cutoff radius.
    scene = splat_scene([[x, 0, 2.0] for x in (-0.6, 0.0, 0.6)], 0.05, 5.0)
    view = frontal_view(width=41, height=41, fx=60.0)
    dense = []
    for cutoff in (3.0, 6.0):
        monkeypatch.setattr(rasterize, "KERNEL_CUTOFF_SIGMA", cutoff)
        dense.append(build_weight_matrix(scene, [view], LiftConfig(lam=1.0)).to_csr().toarray())
    dense_tight, dense_loose = dense
    assert np.max(np.abs(dense_tight - dense_loose)) <= math.exp(-9 / 2)


# -- rendering -------------------------------------------------------------------

def test_render_opaque_single_splat_returns_value():
    view = frontal_view(width=3, height=3, fx=20.0)
    scene = opaque_pixel_scene([30.0], [1.0])  # alpha = 1 within fp
    A = build_weight_matrix(scene, [view], LiftConfig(lam=1.0))
    out = render(A, np.array([[2.5, -1.0]]), 9.0)
    center = 1 * 3 + 1
    assert np.allclose(out[center], [2.5, -1.0], atol=1e-9)


def test_render_empty_row_returns_background():
    view = frontal_view(width=31, height=31, fx=400.0)
    scene = splat_at(0, 0, 1.0, scale=0.002, theta=8.0)
    A = build_weight_matrix(scene, [view], LiftConfig(lam=1.0))
    out = render(A, np.array([[1.0]]), 7.0)
    assert out[0, 0] == 7.0


def test_render_partial_coverage_mixes_background():
    # row [(0, 0.6), (1, 0.32)] with x = (1, 0) and zero background -> 0.6
    view = frontal_view(width=5, height=5, fx=50.0)
    scene = opaque_pixel_scene([math.log(0.6 / 0.4), math.log(0.8 / 0.2)], [1.0, 2.0])
    A = build_weight_matrix(scene, [view], LiftConfig(lam=1.0))
    out = render(A, np.array([1.0, 0.0]), 0.0)
    row = 2 * 5 + 2
    assert out[row] == pytest.approx(0.6, abs=1e-6)


def test_render_constant_field_is_convex_closed(monkeypatch):
    monkeypatch.setattr(rasterize, "TRANSMITTANCE_FLOOR", 1e-6)
    view = frontal_view(width=7, height=7, fx=15.0)
    scene = opaque_pixel_scene([15.0, 15.0, 15.0], [1.0, 1.5, 2.0])
    A = build_weight_matrix(scene, [view], LiftConfig(lam=1.0))
    c = 0.7
    out = render(A, np.full(3, c), 0.0)
    covered = A.covered_rows()
    assert covered.all()
    assert np.max(np.abs(out[covered] - c)) < 1e-6


def test_render_rejects_mismatched_shapes():
    view = frontal_view(width=3, height=3, fx=20.0)
    scene = opaque_pixel_scene([2.0], [1.0])
    A = build_weight_matrix(scene, [view], LiftConfig(lam=1.0))
    with pytest.raises(InvalidInputError):
        render(A, np.ones((5, 2)), 0.0)


# -- label rendering ---------------------------------------------------------------

def test_render_labels_single_opaque_splat():
    view = frontal_view(width=3, height=3, fx=20.0)
    scene = opaque_pixel_scene([30.0], [1.0])
    A = build_weight_matrix(scene, [view], LiftConfig(lam=1.0))
    kappa = render_labels(A, np.array([3]))
    assert kappa[1 * 3 + 1] == 3


def test_render_labels_weighted_argmax_and_empty():
    # center pixel: weights 0.6 on cluster 0 and 0.32 on cluster 1 -> cluster 0
    view = frontal_view(width=5, height=5, fx=50.0)
    scene = opaque_pixel_scene([math.log(0.6 / 0.4), math.log(0.8 / 0.2)], [1.0, 2.0])
    A = build_weight_matrix(scene, [view], LiftConfig(lam=1.0))
    kappa = render_labels(A, np.array([0, 1]))
    assert kappa[2 * 5 + 2] == 0
    # 0.6 is not above min_weight 0.6
    assert render_labels(A, np.array([0, 1]), min_weight=0.6)[2 * 5 + 2] == -1

    # a genuinely uncovered pixel maps to -1
    tiny_view = frontal_view(width=31, height=31, fx=400.0)
    tiny = splat_at(0, 0, 1.0, scale=0.002, theta=8.0)
    A2 = build_weight_matrix(tiny, [tiny_view], LiftConfig(lam=1.0))
    kappa2 = render_labels(A2, np.array([0]))
    assert kappa2[0] == -1
    assert kappa2[(31 // 2) * 31 + 31 // 2] == 0


def test_render_labels_dominant_weight_wins_everywhere():
    rng = np.random.default_rng(21)
    scene = splat_scene(rng.uniform([-1, -1, 2], [1, 1, 4], size=(30, 3)), 0.4, 4.0)
    view = frontal_view(width=25, height=25, fx=40.0)
    A = build_weight_matrix(scene, [view], LiftConfig(lam=1.0))
    labels = rng.integers(0, 3, size=30)
    kappa = render_labels(A, labels)
    for row in range(A.rows):
        idx, w = row_entries(A, row)
        if len(idx) == 0:
            assert kappa[row] == -1
            continue
        mass = np.zeros(4)
        for j, wj in zip(idx, w):
            mass[labels[j] + 1] += wj
        if mass.max() > 0.5 * mass.sum() and mass.sum() > 0:
            assert kappa[row] == np.argmax(mass) - 1


def dyadic_matrix(rng, rows, cols):
    """Up to 4 entries per row, some rows empty, weights 1/8 or 2/8: every
    sum is exact in any order, and equal label masses are common."""
    counts = rng.integers(0, 5, rows)
    indices = np.concatenate([rng.choice(cols, c, replace=False) for c in counts])
    weights = rng.integers(1, 3, len(indices)) / 8.0
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return WeightMatrix(indptr, indices, weights, cols, {"v": (0, rows)}, 1.0)


@pytest.mark.parametrize("clusters", [0, 1, 3, 40])
@pytest.mark.parametrize("min_weight", [0.0, 0.5])
def test_render_labels_matches_a_dense_onehot_oracle(clusters, min_weight):
    rng = np.random.default_rng(clusters)
    A = dyadic_matrix(rng, rows=400, cols=60)
    A.validate()
    labels = rng.integers(-1, clusters, 60)  # clusters 0: every primitive is noise
    kappa = render_labels(A, labels, min_weight=min_weight)
    assert np.array_equal(kappa, onehot_label_votes(A, labels, min_weight))
    assert np.all(kappa[~A.covered_rows()] == -1)
    if clusters == 0:
        assert np.all(kappa == -1)


@pytest.mark.parametrize("min_weight", [0.0, 0.25, SILHOUETTE_DOMINANCE])
def test_render_labels_is_the_bincount_votes_bytewise(min_weight):
    # Each (ray, label) mass adds w * 1.0 or w * 0.0 in storage order from
    # 0.0, as bincount adds w, so the masses keep their bytes and ties and
    # min_weight (SILHOUETTE_DOMINANCE is 0.5) decide as before: on a built
    # A, and on a dyadic one with empty rows and many equal masses.
    rng = np.random.default_rng(11)
    scene, views, ids = make_scene(two_blob_spec(0.0, resolution=24, views=2))
    dyadic = dyadic_matrix(rng, rows=400, cols=60)
    assert not dyadic.covered_rows().all()
    for A, objects in ((build_weight_matrix(scene, views), ids), (dyadic, rng.integers(0, 3, 60))):
        for labels in (objects, np.where(rng.random(A.cols) < 0.2, -1, objects),
                       np.zeros(A.cols, np.int64), np.full(A.cols, -1),
                       rng.integers(-1, 40, A.cols)):
            got = render_labels(A, labels, min_weight)
            want = bincount_label_votes(A, labels, min_weight)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_render_labels_breaks_ties_toward_the_lower_label():
    # one ray, two primitives of equal weight
    A = WeightMatrix([0, 2], [0, 1], [0.25, 0.25], 2, {"v": (0, 1)}, 1.0)
    assert render_labels(A, np.array([5, 2]))[0] == 2
    assert render_labels(A, np.array([-1, 0]))[0] == -1  # noise wins a tie


@pytest.mark.parametrize("labels, message", [
    (np.array([0, -2]), ">= -1"),
    (np.array([0.0, 1.0]), "integer label"),
    (np.array([0, 1, 2]), "integer label"),
], ids=["below_minus_one", "float", "wrong_length"])
def test_render_labels_rejects_bad_labels(labels, message):
    A = WeightMatrix([0, 2], [0, 1], [0.25, 0.25], 2, {"v": (0, 1)}, 1.0)
    with pytest.raises(InvalidInputError, match=message):
        render_labels(A, labels)


def test_planar_disk_narrower_than_float64_resolves_gets_no_entries():
    # from a log-scale of about -355 down, a disk's scaled offset squared
    # overflows: its kernel value is 0, with no warning, and the splat
    # beside it keeps its entries
    view = frontal_view(width=9, height=9, fx=9.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (-400.0, -745.0):
            log_scales = np.full((2, 3), -1.0)
            log_scales[1] = s
            scene = SplatScene([[0.0, 0.0, 4.0], [0.2, 0.0, 4.0]], log_scales,
                               [[1.0, 0, 0, 0]] * 2, [3.0, 3.0], KernelKind.GAUSSIAN_2D)
            A = build_weight_matrix(scene, [view], LiftConfig(lam=1.0))
            assert A.nnz > 0 and set(A.indices.tolist()) == {0}


def test_planar_wall_composites_and_lifts():
    # a grid of planar disks facing the camera: rows fill in, constants lift back
    from splatlift.solver import ObservationSet, lift_rowsum

    axis = np.linspace(-0.9, 0.9, 10)
    gx, gy = np.meshgrid(axis, axis)
    spacing = axis[1] - axis[0]
    scene = splat_scene([[x, y, 2.0] for x, y in zip(gx.ravel(), gy.ravel())], spacing, 9.0,
                        KernelKind.GAUSSIAN_2D)
    view = frontal_view(width=20, height=20, fx=24.0)
    A = build_weight_matrix(scene, [view], LiftConfig(lam=1.0))
    sums = A.row_sums()
    covered = A.covered_rows()
    assert covered.mean() > 0.95
    assert sums.max() <= 1.0 + 1e-6
    assert sums[covered].mean() > 0.9
    obs = ObservationSet.from_dense([view], {"v0": np.full((400, 2), 1.5)})
    field = lift_rowsum(A, obs)
    seen = ~field.unobserved
    assert np.allclose(field.values[seen], 1.5, atol=1e-9)


def test_mixed_kernel_scene_builds():
    # volumetric and planar primitives composite together front to back
    scene = splat_scene([[0, 0, 1.5], [0, 0, 2.5]], [3.0, 5.0],
                        [math.log(0.6 / 0.4), math.log(0.8 / 0.2)],
                        [KernelKind.GAUSSIAN_3D, KernelKind.GAUSSIAN_2D])
    view = frontal_view(width=9, height=9, fx=12.0, cx=4.0, cy=4.0)
    A = build_weight_matrix(scene, [view], LiftConfig(lam=1.0))
    center = (9 // 2) * 9 + 9 // 2
    idx, w = row_entries(A, center)
    assert list(idx) == [0, 1]  # depth order: volumetric splat first
    assert w[0] == pytest.approx(0.6, abs=1e-3)
    assert w[1] == pytest.approx(0.32, abs=1e-3)
    A.validate()


def turned_view(angle, target, distance, **intrinsics):
    """View turned by angle about the world y axis, looking at target."""
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])
    w2c = np.eye(4)
    w2c[:3, :3] = rot
    w2c[:3, 3] = -rot @ (np.asarray(target) - distance * rot[2])
    return CameraView(world_to_camera=w2c, **intrinsics)


def mixed_kernel_scene(rng, n, spread=0.8):
    """n splats of random shape, orientation, opacity and kernel kind around
    (0, 0, 3.2); the last six repeat the first six positions (depth ties)."""
    positions = rng.uniform([-spread, -spread, 2.5], [spread, spread, 4.0], size=(n, 3))
    positions[-6:] = positions[:6]  # depth ties, broken by index
    scene = SplatScene(positions, np.log(rng.uniform(0.04, 0.3, size=(n, 3))),
                       rng.normal(size=(n, 4)), rng.uniform(-2.0, 6.0, n), rng.integers(0, 2, n))
    assert 0 < scene.kernels.sum() < n  # both kernel kinds
    return scene


def test_matrix_matches_per_ray_oracle_on_mixed_kernels():
    scene = mixed_kernel_scene(np.random.default_rng(0), 48)
    views = [turned_view(0.0, [0, 0, 3.2], 3.2, fx=26.0, fy=24.0, cx=11.5, cy=9.7,
                         width=24, height=20, view_id="a"),
             turned_view(0.5, [0, 0, 3.2], 3.2, fx=30.0, fy=30.0, cx=12.2, cy=10.0,
                         width=22, height=21, view_id="b")]
    cfg = LiftConfig(lam=1.2)
    A = build_weight_matrix(scene, views, cfg)
    rows = reference_rows(scene, views, cfg)
    assert len(rows) == A.rows
    near = 0
    for i, (entries, near_cutoff) in enumerate(rows):
        if near_cutoff:  # rounding may decide these rays' entries
            near += 1
            continue
        idx, w = row_entries(A, i)
        assert idx.tolist() == [j for j, _ in entries], i
        assert np.allclose(w, [wj for _, wj in entries], rtol=1e-12, atol=0.0), i
    assert near < 0.01 * A.rows
    assert A.nnz > 5 * A.rows  # the rays overlap many splats


def project(scene, view, lam):
    frame = rasterize._SceneFrame(scene, polarized_opacities(scene.thetas, lam))
    return rasterize._project_scene(frame, view)


def by_row(rows, cols, weights):
    """Entries stably sorted by row: (row, depth) order."""
    order = np.argsort(rows, kind="stable")
    return rows[order], cols[order], weights[order]


def entries_matching_dense_reference(scene, view, lam):
    """The projection and the kernel's entries for the view, after checking
    that they have the dense kernel's dtypes and bytes. The kernel yields
    its entries a tile group and a depth chunk at a time, the dense kernel
    tile by tile; both are compared in (row, depth) order."""
    proj = project(scene, view, lam)
    got = list(rasterize._tile_entries(proj, view))
    want = list(dense_tile_entries(proj, view))
    assert got and want
    got, want = (by_row(*(np.concatenate(part) for part in zip(*parts)))
                 for parts in (got, want))
    for g, r in zip(got, want):
        assert g.dtype == r.dtype and g.tobytes() == r.tobytes()
    return proj, got


@pytest.mark.parametrize("lam", [1.0, 1.2])
@pytest.mark.parametrize("side", [1, 15, 17, 33])
def test_tile_kernel_matches_dense_reference_bytewise(side, lam):
    # Partial tiles at sides 15, 17 and 33; mixed kernels with depth ties,
    # some footprints centred off-screen; a lone splat, whose every tile has
    # a single candidate.
    view = turned_view(0.2, [0, 0, 3.2], 3.2, fx=1.3 * side + 4.0, fy=1.2 * side + 4.0,
                       cx=side / 2 - 0.3, cy=side / 2 + 0.2, width=side, height=side,
                       view_id="a")
    mixed = mixed_kernel_scene(np.random.default_rng(side), 64, spread=1.4)
    proj, (_, cols, _) = entries_matching_dense_reference(mixed, view, lam)
    off_screen = ((proj.mean_x < -0.5) | (proj.mean_x > side - 0.5)
                  | (proj.mean_y < -0.5) | (proj.mean_y > side - 0.5))
    assert np.isin(proj.idx[off_screen], cols).any()

    lone = SplatScene([[0.3, -0.2, 3.0]], np.log([[0.2, 0.1, 0.15]]), [[0.9, 0.2, -0.3, 0.1]],
                      [3.0], [KernelKind.GAUSSIAN_2D])
    entries_matching_dense_reference(lone, view, lam)


@pytest.mark.parametrize("tile_side", [4, 8, 16])
@pytest.mark.parametrize("width, height", [(13, 10), (30, 21)])
def test_tile_kernel_matches_dense_reference_on_partial_tiles(monkeypatch, tile_side, width,
                                                              height):
    # Sides that are not multiples of the tile side: the last tile column
    # and row have pixels past the view's edge, which must add no entry.
    monkeypatch.setattr(rasterize, "TILE_SIDE", tile_side)
    view = turned_view(0.1, [0, 0, 3.2], 3.2, fx=1.2 * width, fy=1.2 * width,
                       cx=width / 2 + 0.1, cy=height / 2 - 0.2, width=width, height=height,
                       view_id="a")
    scene = mixed_kernel_scene(np.random.default_rng(width + tile_side), 80, spread=1.3)
    _, (rows, _, _) = entries_matching_dense_reference(scene, view, 1.2)
    assert np.isin([width - 1, (height - 1) * width], rows).all()  # edge pixels are covered


def test_tile_kernel_pads_groups_with_slots_that_add_nothing():
    # Tile 0 holds one faint splat and shares its group with tiles of many
    # candidates, so most of its slots are padding. A padded slot lies at
    # the origin, the centre of pixel (0, 0), with radius^2 -1: a radius of
    # 0 would give that pixel an entry.
    rng = np.random.default_rng(4)
    view = frontal_view(width=24, height=24, fx=30.0, cx=12.0, cy=12.0)
    cluster = rng.uniform([0.05, 0.05, 2.0], [0.35, 0.35, 3.0], size=(30, 3))
    faint = [[-0.75, -0.75, 2.5]]
    scene = splat_scene(np.concatenate([faint, cluster]), [0.03] + [0.08] * 30,
                        [-1.0] + [2.0] * 30)
    proj = project(scene, view, 1.0)
    ids, counts, _ = rasterize._bin_footprints(proj, view)
    group = next(g for g in rasterize._tile_groups(counts) if 0 in ids[g])
    assert ids[0] == 0 and counts[0] < counts[group].max()
    entries_matching_dense_reference(scene, view, 1.0)


def test_tile_kernel_stops_dead_tiles_mid_group_and_at_a_chunk_boundary(monkeypatch):
    # Two stacks of 40 identical splats, centred on pixels (3, 6) and (9, 6)
    # of one-pixel tiles, all of one group. At a stack's centre pixel the
    # transmittance in front of the j-th splat is (1 - alpha)^j, and each
    # stack's alpha puts the floor between two j: the first stack's tile
    # stops exactly at the end of the first depth chunk, the second's in
    # the middle of it, while the pixels around them, which see smaller
    # kernel values, go on into the second chunk.
    monkeypatch.setattr(rasterize, "TILE_SIDE", 1)
    chunk = rasterize.DEPTH_CHUNK
    view = frontal_view(width=13, height=13, fx=20.0, cx=6.0, cy=6.0)
    stacks, centres = [], []
    for x, last in ((-0.3, chunk), (0.3, 20)):  # last: the entries at the centre pixel
        alpha = 1.0 - rasterize.TRANSMITTANCE_FLOOR ** (1.0 / (last - 0.5))
        transmittance = np.cumprod(np.full(last, 1.0 - alpha))
        assert transmittance[-2] >= rasterize.TRANSMITTANCE_FLOOR > transmittance[-1]
        stacks.append(splat_scene(np.tile([x, 0.0, 2.0], (40, 1)), 0.05,
                                  math.log(alpha / (1 - alpha))))
        centres.append(6 * 13 + 6 + round(x * 20.0 / 2.0))
    scene = SplatScene(*(np.concatenate([getattr(st, f) for st in stacks]) for f in (
        "positions", "log_scales", "rotations", "thetas", "kernels")))
    _, (rows, _, _) = entries_matching_dense_reference(scene, view, 1.0)
    counts = np.bincount(rows, minlength=view.pixel_count)
    assert counts[centres[0]] == chunk and counts[centres[1]] == 20
    assert counts.max() == 40  # the pixels around them go on


@pytest.mark.parametrize("block, chunk", [(1 << 17, 32), (1 << 10, 7), (1, 1)])
def test_streamed_view_is_the_builds_view_arrays(monkeypatch, block, chunk):
    # The streaming lift sums each view's arrays from _build_view, the rows
    # of A for the view, in (row, depth) order; they may not depend on how
    # the kernel groups tiles and chunks candidates: they are the default
    # grouping's, bytewise.
    scene = mixed_kernel_scene(np.random.default_rng(3), 120, spread=1.2)
    view = turned_view(0.2, [0, 0, 3.2], 3.2, fx=30.0, fy=29.0, cx=14.6, cy=12.3,
                       width=29, height=25, view_id="a")
    frame = rasterize._SceneFrame(scene, polarized_opacities(scene.thetas, 1.2))
    default = rasterize._build_view(view, frame)
    monkeypatch.setattr(rasterize, "ROW_BLOCK_VALUES", block)
    monkeypatch.setattr(rasterize, "DEPTH_CHUNK", chunk)
    arrays = rasterize._build_view(view, frame)
    assert len(default[1]) > 0
    assert len(arrays) == len(default) == 3
    for got, want in zip(arrays, default):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("side", [1, 3, 8, 16, 40])
def test_binned_tiles_match_a_scan_of_every_footprint(monkeypatch, side):
    # Centres on and off the view, three footprints larger than the view and
    # splats whose disks miss it; each tile's candidates must be the scan's,
    # in depth order (the scan lists them by ascending depth rank).
    rng = np.random.default_rng(side)
    n = 300
    log_scales = np.log(rng.uniform(0.04, 0.3, size=(n, 3)))
    log_scales[:3] = np.log(3.0)
    scene = SplatScene(rng.uniform([-2.5, -2.5, 2.5], [2.5, 2.5, 4.0], size=(n, 3)), log_scales,
                       rng.normal(size=(n, 4)), rng.uniform(-2.0, 6.0, n), rng.integers(0, 2, n))
    view = turned_view(0.2, [0, 0, 3.2], 3.2, fx=30.0, fy=28.0, cx=14.6, cy=12.3,
                       width=29, height=25, view_id="a")
    proj = project(scene, view, 1.2)
    monkeypatch.setattr(rasterize, "TILE_SIDE", side)
    ids, counts, cand = rasterize._bin_footprints(proj, view)
    assert len(ids) == len(counts) and counts.sum() == len(cand)
    scanned = scanned_tiles(proj, view, side)
    assert ids.tolist() == list(scanned)
    for got, want in zip(np.split(cand, np.cumsum(counts)[:-1]), scanned.values()):
        assert got.tolist() == want.tolist()

    listed = np.unique(cand)
    inside = ((proj.mean_x >= 0) & (proj.mean_x <= view.width - 1)
              & (proj.mean_y >= 0) & (proj.mean_y <= view.height - 1))
    assert np.count_nonzero(proj.radius > view.width) >= 3
    assert np.isin(np.flatnonzero(~inside), listed).any()  # off-screen centres reach in
    assert len(listed) < len(proj.idx)  # and some footprints miss the view


def matrix(indptr, indices, weights, cols):
    return WeightMatrix(indptr=indptr, indices=indices, weights=weights, cols=cols,
                        view_ranges={"v": (0, len(indptr) - 1)}, lambda_used=1.0)


def test_validate_flags_bad_matrices():
    for indptr, indices, weights, cols in [
        ([0, 2], [0, 0], [0.5, 0.4], 1),               # duplicate index in one row
        ([0, 2], [0, 1], [0.9, 0.9], 2),               # row sum above 1
        ([0, 2, 1, 2], [0, 1], [0.5, 0.4], 2),         # indptr decreases
        ([0, 1, 2], [0, 2], [0.5, 0.4], 2),            # index >= cols
        ([0, 1, 2], [0, -1], [0.5, 0.4], 2),           # negative index
        ([0, 1, 1], [0, 1], [0.5, 0.4], 2),            # indptr[-1] != nnz
        ([1, 2, 2], [0, 1], [0.5, 0.4], 2),            # indptr does not start at 0
    ]:
        with pytest.raises(InvalidInputError):
            matrix(indptr, indices, weights, cols).validate()


def first_duplicate_row_oracle(A):
    """Per-row loop: the first row that holds a primitive index twice, or None."""
    for i in range(A.rows):
        seg = A.indices[A.indptr[i]:A.indptr[i + 1]]
        if len(np.unique(seg)) != len(seg):
            return i
    return None


def row_normalized_oracle(A):
    """Per-row loop: dyadic ticks whose remainder goes to the row's first largest tick."""
    denom = 1 << 30
    sums = A.row_sums()
    scale = np.ones_like(sums)
    scale[sums > 0] = 1.0 / sums[sums > 0]
    ticks = np.maximum(np.round(A.weights * np.repeat(scale, np.diff(A.indptr)) * denom), 1.0)
    for i in range(A.rows):
        seg = ticks[A.indptr[i]:A.indptr[i + 1]]
        if seg.size:
            seg[np.argmax(seg)] += denom - seg.sum()
    return ticks / denom


@st.composite
def sparse_rows(draw, duplicates):
    """Rows of 0-5 entries (empty rows included); weights drawn from a few
    values so that a row's largest ticks often tie."""
    cols = draw(st.integers(1, 8))
    indptr, indices, weights = [0], [], []
    for _ in range(draw(st.integers(1, 12))):
        k = draw(st.integers(0, min(5, cols)))
        if duplicates:
            idx = draw(st.lists(st.integers(0, cols - 1), min_size=k, max_size=k))
        else:
            idx = draw(st.permutations(range(cols)))[:k]
        indices += list(idx)
        weights += draw(st.lists(st.sampled_from([0.05, 0.1, 0.125, 0.2]),
                                 min_size=k, max_size=k))
        indptr.append(len(indices))
    return matrix(indptr, indices, weights, cols)


@settings(max_examples=200, deadline=None)
@given(sparse_rows(duplicates=True))
def test_validate_duplicate_check_matches_row_loop(A):
    row = first_duplicate_row_oracle(A)
    if row is None:
        A.validate()
    else:
        with pytest.raises(InvalidInputError, match=f"duplicate primitive index in row {row}$"):
            A.validate()


@settings(max_examples=200, deadline=None)
@given(sparse_rows(duplicates=False))
def test_row_normalized_matches_row_loop(A):
    assert A.row_normalized().weights.tobytes() == row_normalized_oracle(A).tobytes()


def test_validate_keys_past_int32():
    # rows * cols > 2**31: keys row * cols + index are int64. In int32, the
    # key of (row 2, index 7) would wrap onto that of (row 0, index 7). No
    # per-column array is allocated: one of float64 would take 16 GiB.
    cols = 2**31 - 1
    A = matrix([0, 1, 2, 3], [7, cols - 1, 7], [0.5, 0.5, 0.5], cols)
    dup = matrix([0, 1, 3, 4], [7, cols - 1, cols - 1, 7], [0.5, 0.25, 0.25, 0.5], cols)
    tracemalloc.start()
    try:
        A.validate()
        with pytest.raises(InvalidInputError, match="duplicate primitive index in row 1$"):
            dup.validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def with_duplicates(A, rows, rng):
    """A copy of A in which each of rows, each of two entries or more,
    repeats one of its primitive indices at another of its entries."""
    indices = A.indices.copy()
    for row in rows:
        first, second = A.indptr[row] + rng.choice(A.indptr[row + 1] - A.indptr[row], 2,
                                                   replace=False)
        indices[second] = indices[first]
    return WeightMatrix(A.indptr, indices, A.weights, A.cols, A.view_ranges, 1.0)


@pytest.fixture(scope="module")
def two_blob_matrix():
    scene, views, ids = make_scene(two_blob_spec(0.0, resolution=24, views=3))
    return build_weight_matrix(scene, views), ids


def test_block_duplicate_check_names_the_global_sorts_row(monkeypatch, two_blob_matrix):
    # 300 mutants of a built A with 1 to 3 duplicates each, checked in
    # blocks of at most 512 entries, whose bounds fall mid-view; every other
    # mutant has a duplicate in the first or the last row of a block. Each
    # names the row that one global sort of all keys names.
    A, _ = two_blob_matrix
    monkeypatch.setattr(rasterize, "ROW_BLOCK_VALUES", 512)
    blocks = list(A._row_blocks())
    view_starts = {start for start, _ in A.view_ranges.values()}
    assert len(blocks) >= 3 and any(start not in view_starts for start, _ in blocks)
    assert [start for start, _ in blocks[1:]] == [stop for _, stop in blocks[:-1]]
    A.validate()
    multi = np.flatnonzero(np.diff(A.indptr) >= 2)
    edges = np.intersect1d([row for block in blocks for row in (block[0], block[1] - 1)], multi)
    rng = np.random.default_rng(0)
    for trial in range(300):
        rows = set(rng.choice(multi, rng.integers(1, 4), replace=False).tolist())
        if trial % 2:
            rows.add(int(rng.choice(edges)))
        mutant = with_duplicates(A, sorted(rows), rng)
        assert first_duplicate_row(mutant) == min(rows)
        with pytest.raises(InvalidInputError, match=f"duplicate primitive index in row {min(rows)}$"):
            mutant.validate()


@pytest.mark.parametrize("cols, budget, long_row", [
    (16, 4, 10),              # a row longer than the budget is a block of its own
    (2**29 + 1, 1 << 17, 3),  # three rows per block: keys reach 3 * 2**29 + 1
    (2**31 - 1, 1 << 17, 3),  # one row per block
])
def test_block_duplicate_check_on_long_rows_and_wide_matrices(monkeypatch, cols, budget,
                                                              long_row):
    # Twelve rows of three entries, row 5 of long_row, with (row 8, index 2)
    # and (row 0, index 10) among them: with cols 2**29 + 1 and more than 8
    # rows in a block, or cols 2**31 - 1 and more than 2, their int32 keys
    # would wrap onto each other. rows * cols passes 2**31 in both, where
    # the global sort takes int64 keys. Clean, the matrix passes; with a
    # duplicate in any one or two rows, it names the lowest.
    monkeypatch.setattr(rasterize, "ROW_BLOCK_VALUES", budget)
    sizes = [long_row if row == 5 else 3 for row in range(12)]
    indices = [[(row * 7 + k) % cols for k in range(size)] for row, size in enumerate(sizes)]
    indices[0][0], indices[8][0] = 10, 2
    indices[1][2] = cols - 1
    A = matrix(np.concatenate([[0], np.cumsum(sizes)]), np.concatenate(indices),
               np.full(sum(sizes), 0.05), cols)
    A.validate()
    assert first_duplicate_row(A) is None
    rng = np.random.default_rng(cols)
    for rows in [[5], [0], [11], [4, 5], [5, 6], [9, 2], [7, 11]] + [
            rng.choice(12, rng.integers(1, 3), replace=False).tolist() for _ in range(20)]:
        mutant = with_duplicates(A, rows, rng)
        with pytest.raises(InvalidInputError, match=f"duplicate primitive index in row {min(rows)}$"):
            mutant.validate()
        assert first_duplicate_row(mutant) == min(rows)


def traced_peak(fn):
    """fn's result and the peak of the memory traced while it runs."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def scene_80():
    return make_scene(two_blob_spec(0.0, resolution=80, views=3))


def test_build_holds_at_most_a_view_and_a_copy_of_a(scene_80):
    # A's arrays are filled view by view from the views' arrays: about two
    # copies of A at the peak. Concatenating the views, with int64 rows and
    # sort orders, took 2.7.
    scene, views, _ = scene_80
    A, peak = traced_peak(lambda: build_weight_matrix(scene, views))
    assert A.nnz > 500_000
    assert peak <= 2.25 * (A.indptr.nbytes + A.indices.nbytes + A.weights.nbytes)


def test_render_labels_takes_no_array_per_entry(scene_80):
    # One product with the primitives' one-hot labels: the R x L masses and
    # the P x L labels, no (row, label) key per entry, which took 16.2 bytes
    # per entry.
    scene, views, ids = scene_80
    A = build_weight_matrix(scene, views)
    _, peak = traced_peak(lambda: render_labels(A, ids))
    assert peak < 8 * A.nnz


def test_validate_takes_one_block_and_per_row_arrays(monkeypatch, scene_80):
    # Row sums and duplicate keys, a block of rows at a time: one block's
    # keys and sums' inputs (at most 16 bytes per entry of a block), and
    # per-row arrays. Keys over all of A took 2.4 MiB here.
    scene, views, _ = scene_80
    built = build_weight_matrix(scene, views)
    A = WeightMatrix(built.indptr, built.indices, built.weights, built.cols, built.view_ranges,
                     1.2)  # row sums not computed yet
    monkeypatch.setattr(rasterize, "ROW_BLOCK_VALUES", 1 << 12)
    _, peak = traced_peak(A.validate)
    assert peak < 16 * rasterize.ROW_BLOCK_VALUES + 16 * A.rows + (1 << 16)


@settings(max_examples=200, deadline=None)
@given(sparse_rows(duplicates=True))
def test_row_sums_match_bincount_bitwise(A):
    assert A.row_sums().tobytes() == row_sums_reference(A).tobytes()


@pytest.mark.parametrize("name", ["opaque_wall.ini", "two_blob.ini", "two_blob_noisy.ini"])
def test_row_sums_match_bincount_bitwise_on_bundled_scenes(name):
    # rows of up to dozens of entries, where a pairwise sum would round
    # differently
    scene, views, _ = make_scene(parse_scene_spec((SCENES / name).read_text()))
    A = build_weight_matrix(scene, views, LiftConfig(lam=1.2))
    assert A.row_sums().tobytes() == row_sums_reference(A).tobytes()


def test_index_arrays_past_int32_are_refused_not_wrapped():
    # int32 wraps 2**32 + 5 to 5, which would make both matrices valid
    big = np.int64(2**32 + 5)
    matrix([0, 5], [0, 1, 2, 3, 5], [0.1] * 5, 8).validate()
    with pytest.raises(InvalidInputError, match="primitive indices must lie in the int32 range"):
        matrix([0, 5], [0, 1, 2, 3, big], [0.1] * 5, 8)
    with pytest.raises(InvalidInputError, match="indptr must lie in the int32 range"):
        matrix([0, big], [0, 1, 2, 3, 4], [0.1] * 5, 8)


def test_matrix_and_tile_ids_are_int32_and_wrapped_without_copies(monkeypatch):
    scene = splat_scene([[0.0, 0.0, 2.0], [0.05, 0.0, 2.5]], 0.1, 3.0)
    views = [frontal_view(17, 17, view_id=view_id) for view_id in "abc"]
    assert all(cols.dtype == np.int32 for _, cols, _ in
               rasterize._tile_entries(project(scene, views[0], 1.0), views[0]))
    A = build_weight_matrix(scene, views)
    assert A.indptr.dtype == A.indices.dtype == np.int32
    csr = A.to_csr()
    assert np.shares_memory(csr.indptr, A.indptr) and np.shares_memory(csr.indices, A.indices)
    # The sparse products read each view's or block's slices of A's arrays,
    # and int32 indptrs rebased, although scipy copies a slice shorter than
    # half its base (each view here is a third of A) wherever it constructs
    # a matrix: the lift's table product (right operand: the view's indptr,
    # indices and weights, for rowsum), its sums over the observed rays (the
    # view's indices and weights) and the row sums (a block's weights).
    calls = {name: [] for name in ("csr_matmat", "csc_matvec", "csr_matvec")}
    for name, seen in calls.items():
        module = scipy.sparse._compressed if name == "csr_matmat" else scipy.sparse._sparsetools
        monkeypatch.setattr(module, name, lambda *args, _f=getattr(module, name), _seen=seen:
                            _seen.append(args) or _f(*args))
    obs = ObservationSet.from_dense(views, {v.view_id: np.ones((17, 17, 2)) for v in views})
    ranges = [(A.indptr[start], A.indptr[stop], start, stop)
              for start, stop in A.view_ranges.values()]
    assert all(hi > lo for lo, hi, _, _ in ranges)
    for mode in LIFT_MODES:
        for seen in calls.values():
            seen.clear()
        lift_rowsum(A, obs, mode)
        products, sums = calls["csr_matmat"], calls["csc_matvec"]
        assert len(products) == len(ranges) and len(sums) == len(ranges) * (1 + (mode == "rowsum2"))
        for (lo, hi, start, stop), product in zip(ranges, products):
            indptr, indices, data = product[5:8]  # the right operand's
            assert indptr.dtype == np.int32
            assert indptr.tobytes() == (A.indptr[start:stop + 1] - lo).tobytes()
            assert np.shares_memory(indices, A.indices[lo:hi])
            assert np.shares_memory(data, A.weights[lo:hi]) == (mode == "rowsum")
        for lo, hi, _, _ in ranges:
            assert any(np.shares_memory(s[3], A.indices[lo:hi])
                       and np.shares_memory(s[4], A.weights[lo:hi]) for s in sums)
    calls["csr_matvec"].clear()
    monkeypatch.setattr(rasterize, "ROW_BLOCK_VALUES", A.nnz // 8)
    A = WeightMatrix(A.indptr, A.indices, A.weights, A.cols, A.view_ranges, 1.0)  # sums not cached
    blocks = list(A._row_blocks())
    assert A.row_sums().tobytes() == row_sums_reference(A).tobytes()
    assert len(blocks) == len(calls["csr_matvec"]) >= 8
    for (start, stop), (_, _, indptr, _, data, *_) in zip(blocks, calls["csr_matvec"]):
        lo, hi = A.indptr[start], A.indptr[stop]
        assert indptr.dtype == np.int32
        assert hi == lo or np.shares_memory(data, A.weights[lo:hi]), (start, stop)


def test_build_refuses_entries_and_primitives_past_int32(monkeypatch):
    class HugeScene:  # only its length is read before the refusal
        def __len__(self):
            return 2**31

    view = frontal_view(17, 17, view_id="a")
    with pytest.raises(InvalidInputError, match="2147483648 primitives"):
        build_weight_matrix(HugeScene(), [view])
    scene = splat_scene([[0.0, 0.0, 2.0], [0.05, 0.0, 2.5]], 0.1, 3.0)
    # a view's rows are int32: 2**31 pixels are refused before anything is allocated
    huge = CameraView(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=2**16, height=2**15,
                      world_to_camera=np.eye(4), view_id="huge")
    with pytest.raises(InvalidInputError, match="pixels exceed the int32 row ids"):
        build_weight_matrix(scene, [view, huge])
    monkeypatch.setattr(rasterize, "INDEX_LIMIT", build_weight_matrix(scene, [view]).nnz)
    with pytest.raises(InvalidInputError, match="entries.*lift --streaming"):
        build_weight_matrix(scene, [view])


def test_row_sums_computed_once():
    A = matrix([0, 2, 2, 3], [0, 1, 1], [0.2, 0.3, 0.6], 2)
    sums = A.row_sums()
    assert sums is A.row_sums()
    assert sums.tolist() == [0.5, 0.0, 0.6]
    with pytest.raises(ValueError):
        sums[0] = 1.0


def test_row_normalized_sums_to_one():
    m = WeightMatrix(indptr=[0, 2, 2, 3], indices=[0, 1, 1], weights=[0.2, 0.2, 0.6],
                     cols=2, view_ranges={"v": (0, 3)}, lambda_used=1.0)
    n = m.row_normalized()
    sums = n.row_sums()
    assert sums[0] == pytest.approx(1.0, abs=1e-15)
    assert sums[1] == 0.0
    assert sums[2] == pytest.approx(1.0, abs=1e-15)
