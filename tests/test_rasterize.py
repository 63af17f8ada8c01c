import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracle import (
    dense_tile_entries,
    onehot_label_votes,
    reference_rows,
    row_entries,
    row_sums_reference,
    scanned_tiles,
    splat_scene,
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
from splatlift.synthbench import make_scene, parse_scene_spec

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
    # give the same bytes at every side. A single allowed side fixes the
    # side that the chooser picks.
    rng = np.random.default_rng(9)
    scene = splat_scene(rng.uniform([-0.8, -0.8, 2], [0.8, 0.8, 4], size=(50, 3)), 0.15, 2.0)
    view = frontal_view(width=33, height=33, fx=45.0)
    builds = {}
    for tile_size in (1, 5, 8, 16, 64):
        monkeypatch.setattr(rasterize, "TILE_SIDES", (tile_size,))
        builds[tile_size] = build_weight_matrix(scene, [view], LiftConfig(lam=1.0))
    whole = builds.pop(64)
    for tiled in builds.values():
        assert tiled.indptr.tobytes() == whole.indptr.tobytes()
        assert tiled.indices.tobytes() == whole.indices.tobytes()
        assert tiled.weights.tobytes() == whole.weights.tobytes()


def test_tile_culling_matches_single_tile_build_on_mixed_kernels(monkeypatch):
    # Planar kernels take the ray-plane hit from BLAS matrix products over a
    # tile's pixels, and BLAS may round differently with the tile's shape, so
    # planar weights agree across tile sides to rounding only (1.0e-13
    # relative measured at side 1 on this scene). The entries are the same.
    scene = mixed_kernel_scene(np.random.default_rng(0), 48)
    view = turned_view(0.3, [0, 0, 3.2], 3.2, fx=40.0, fy=38.0, cx=16.2, cy=16.7,
                       width=33, height=33, view_id="a")
    builds = {}
    for tile_size in (1, 5, 8, 16, 64):
        monkeypatch.setattr(rasterize, "TILE_SIDES", (tile_size,))
        builds[tile_size] = build_weight_matrix(scene, [view], LiftConfig(lam=1.2))
    whole = builds.pop(64)
    assert whole.nnz > 5 * whole.rows
    for tiled in builds.values():
        assert tiled.indptr.tobytes() == whole.indptr.tobytes()
        assert tiled.indices.tobytes() == whole.indices.tobytes()
        assert np.allclose(tiled.weights, whole.weights, rtol=1e-12, atol=0.0)


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


def tiles_matching_dense_reference(scene, view, lam):
    """The projection and the tile kernel's yields, after checking that each
    tile's (rows, cols, weights) have the dense kernel's dtypes and bytes.
    The kernel yields a tile's entries candidate-major, the dense kernel
    pixel-major; both are compared in (row, depth) order."""
    proj = project(scene, view, lam)
    tiles = list(rasterize._tile_entries(proj, view))
    reference = list(dense_tile_entries(proj, view))
    assert len(tiles) == len(reference) > 0
    for got, want in zip(tiles, reference):
        order = np.argsort(got[0], kind="stable")
        for g, r in zip(got, want):
            assert g.dtype == r.dtype and g[order].tobytes() == r.tobytes()
    return proj, tiles


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
    proj, tiles = tiles_matching_dense_reference(mixed, view, lam)
    off_screen = ((proj.mean_x < -0.5) | (proj.mean_x > side - 0.5)
                  | (proj.mean_y < -0.5) | (proj.mean_y > side - 0.5))
    assert np.isin(proj.idx[off_screen], np.concatenate([c for _, c, _ in tiles])).any()

    lone = SplatScene([[0.3, -0.2, 3.0]], np.log([[0.2, 0.1, 0.15]]), [[0.9, 0.2, -0.3, 0.1]],
                      [3.0], [KernelKind.GAUSSIAN_2D])
    tiles_matching_dense_reference(lone, view, lam)


@pytest.mark.parametrize("side", [1, 3, 8, 16, 40])
def test_binned_tiles_match_a_scan_of_every_footprint(side):
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
    ids, cands = rasterize._bin_footprints(proj, view, side)
    assert len(ids) == len(cands)
    scanned = scanned_tiles(proj, view, side)
    assert ids == list(scanned)
    for got, want in zip(cands, scanned.values()):
        assert got.tolist() == want.tolist()

    listed = np.unique(np.concatenate(cands))
    inside = ((proj.mean_x >= 0) & (proj.mean_x <= view.width - 1)
              & (proj.mean_y >= 0) & (proj.mean_y <= view.height - 1))
    assert np.count_nonzero(proj.radius > view.width) >= 3
    assert np.isin(np.flatnonzero(~inside), listed).any()  # off-screen centres reach in
    assert len(listed) < len(proj.idx)  # and some footprints miss the view


def test_tile_side_weighs_tiles_against_pixel_pairs(monkeypatch):
    # Without a per-tile cost the smallest side evaluates the fewest pairs;
    # a lone small footprint makes the tile count decide.
    view = frontal_view(width=64, height=64, fx=60.0)
    dense = project(splat_scene(np.random.default_rng(2).uniform(
        [-0.5, -0.5, 2], [0.5, 0.5, 3], size=(200, 3)), 0.02, 2.0), view, 1.0)
    lone = project(splat_at(0.0, 0.0, 2.0, scale=0.02), view, 1.0)
    assert rasterize._tile_side(lone, view) == max(rasterize.TILE_SIDES)
    monkeypatch.setattr(rasterize, "TILE_COST", 0.0)
    assert rasterize._tile_side(dense, view) == min(rasterize.TILE_SIDES)


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


def test_matrix_and_tile_ids_are_int32_and_wrapped_without_copies():
    scene = splat_scene([[0.0, 0.0, 2.0], [0.05, 0.0, 2.5]], 0.1, 3.0)
    view = frontal_view(17, 17, view_id="a")
    assert all(cols.dtype == np.int32
               for _, cols, _ in rasterize._tile_entries(project(scene, view, 1.0), view))
    A = build_weight_matrix(scene, [view])
    assert A.indptr.dtype == A.indices.dtype == np.int32
    csr = A.to_csr()
    assert np.shares_memory(csr.indptr, A.indptr) and np.shares_memory(csr.indices, A.indices)


def test_build_refuses_entries_and_primitives_past_int32(monkeypatch):
    class HugeScene:  # only its length is read before the refusal
        def __len__(self):
            return 2**31

    view = frontal_view(17, 17, view_id="a")
    with pytest.raises(InvalidInputError, match="2147483648 primitives"):
        build_weight_matrix(HugeScene(), [view])
    scene = splat_scene([[0.0, 0.0, 2.0], [0.05, 0.0, 2.5]], 0.1, 3.0)
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
