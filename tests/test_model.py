import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from scipy.special import expit

from splatlift.model import (
    CameraView,
    InvalidInputError,
    KernelKind,
    LiftConfig,
    SplatScene,
    polarized_opacities,
    quaternions_to_rotations,
)

finite_logits = st.floats(min_value=-500, max_value=500, allow_nan=False)


def opacity(theta, lam=1.0):
    """The activation of one logit."""
    return float(polarized_opacities(np.array([theta]), lam)[0])


def test_opacity_symmetry_point():
    assert opacity(0.0) == 0.5


def test_opacity_saturates():
    assert opacity(40.0) == pytest.approx(1.0, abs=1e-12)


def test_opacity_direct_value():
    # direct evaluation of 1 / (1 + e^-2)
    assert opacity(2.0) == pytest.approx(0.8807970779778823, abs=1e-15)


def test_opacity_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidInputError):
            opacity(bad)
        with pytest.raises(InvalidInputError):
            polarized_opacities(np.array([0.0, bad, 1.0]), 1.0)


def test_opacity_no_overflow_for_large_negative():
    with np.errstate(over="raise"):
        assert polarized_opacities(np.array([-800.0, 800.0]), 1.0).tolist() == [0.0, 1.0]


def test_polarized_fixed_point():
    assert opacity(0.0, 5.0) == 0.5


def test_polarized_direct_value():
    # 1 / (1 + e^-2.4)
    assert opacity(2.0, 1.2) == pytest.approx(0.9168273035060777, abs=1e-15)


def test_polarized_strong_lambda_saturates():
    assert opacity(2.0, 10.0) == pytest.approx(1.0, abs=1e-8)


def test_polarized_rejects_bad_lambda():
    with pytest.raises(InvalidInputError):
        opacity(1.0, 0.0)
    with pytest.raises(InvalidInputError):
        opacity(1.0, -2.0)


@given(finite_logits)
def test_polarized_identity_at_one(theta):
    # lam = 1 is the plain sigmoid
    assert opacity(theta, 1.0) == pytest.approx(expit(theta), rel=1e-15, abs=0.0)


def test_polarized_identity_on_grid():
    # lam only scales the logit, bit for bit
    grid = np.linspace(-30.0, 30.0, 1000)
    assert np.array_equal(polarized_opacities(grid, 1.7), polarized_opacities(1.7 * grid, 1.0))


@given(
    st.floats(min_value=-60, max_value=60, allow_nan=False).filter(lambda t: abs(t) > 1e-6),
    st.floats(min_value=0.1, max_value=20),
    st.floats(min_value=0.1, max_value=20),
)
def test_polarization_is_monotone_toward_extremes(theta, lam1, lam2):
    lo, hi = min(lam1, lam2), max(lam1, lam2)
    target = 1.0 if theta > 0 else 0.0
    gap_lo = abs(opacity(theta, lo) - target)
    gap_hi = abs(opacity(theta, hi) - target)
    assert gap_hi <= gap_lo + 1e-15


def test_polarized_opacities_matches_scalar():
    thetas = np.array([-5.0, -0.3, 0.0, 0.7, 12.0])
    vec = polarized_opacities(thetas, 1.7)
    for t, v in zip(thetas, vec):
        assert v == pytest.approx(1.0 / (1.0 + math.exp(-1.7 * t)), abs=1e-15)


unit_quats = st.tuples(*[st.floats(-1, 1) for _ in range(4)]).filter(
    lambda q: sum(x * x for x in q) > 1e-4)


@given(unit_quats)
def test_quaternion_rotation_orthonormal(q):
    rot = quaternions_to_rotations(np.array([q]))[0]
    assert np.max(np.abs(rot.T @ rot - np.eye(3))) < 1e-6
    assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-9)


def hamilton(p, q):
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return np.array([pw * qw - px * qx - py * qy - pz * qz,
                     pw * qx + px * qw + py * qz - pz * qy,
                     pw * qy - px * qz + py * qw + pz * qx,
                     pw * qz + px * qy - py * qx + pz * qw])


def test_quaternion_batch_matches_single():
    # each row rotates a vector v as the single quaternion product q v q* does
    quats = np.array([[1.0, 0, 0, 0], [0.3, -0.4, 0.5, 0.6], [2.0, 1.0, 0.0, -1.0]])
    batch = quaternions_to_rotations(quats)
    v = np.array([0.2, -1.3, 0.7])
    for q, r in zip(quats, batch):
        q = q / np.linalg.norm(q)
        rotated = hamilton(hamilton(q, np.r_[0.0, v]), q * [1, -1, -1, -1])[1:]
        assert np.allclose(r @ v, rotated, atol=1e-12)


def test_zero_quaternion_rejected():
    with pytest.raises(InvalidInputError):
        quaternions_to_rotations(np.zeros((1, 4)))
    with pytest.raises(InvalidInputError):
        scene_of(rotations=[[1.0, 0, 0, 0], [0.0, 0, 0, 0]])


def scene_of(**arrays):
    """Two splats with valid arrays, some of them replaced by the given ones."""
    base = dict(positions=[[0, 0, 1], [0, 0, 2]], log_scales=[[-1, -1, -1], [-2, -2, -2]],
                rotations=[[1.0, 0, 0, 0], [1.0, 0, 0, 0]], thetas=[0.1, 0.2])
    return SplatScene(**{**base, **arrays})


def test_primitive_normalizes_quaternion():
    scene = scene_of(rotations=[[2.0, 0, 0, 0], [0.5, 0.5, -0.5, 0.5]])
    assert np.allclose(np.linalg.norm(scene.rotations, axis=1), 1.0, atol=1e-15)


def test_primitive_rejects_non_finite():
    for name, bad in (("positions", [[np.nan, 0, 0], [0, 0, 2]]),
                      ("log_scales", [[0, 0, 0], [np.inf, 0, 0]]),
                      ("rotations", [[1, 0, 0, np.nan], [1, 0, 0, 0]]),
                      ("thetas", [0.0, -np.inf])):
        with pytest.raises(InvalidInputError):
            scene_of(**{name: bad})


def test_scene_rejects_overflowing_log_scales():
    # exp(2 s) is a splat's variance; past float64's range the splat would
    # drop out of every view with an overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (400.0, 354.9):
            with pytest.raises(InvalidInputError, match="log-scales"):
                scene_of(log_scales=[[0, 0, 0], [s, 0, 0]])
        scene = scene_of(log_scales=[[0, 0, 0], [0, 354.8, 0]])
    assert np.all(np.isfinite(np.exp(2.0 * scene.log_scales)))


def test_scene_rejects_underflowing_log_scales():
    # exp(s) is a planar splat's scale; at 0 the disk divides by zero and
    # drops out of every view with a divide-by-zero warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (-800.0, -745.2):
            with pytest.raises(InvalidInputError, match="exp\\(s\\) above 0"):
                scene_of(log_scales=[[0, 0, 0], [0, 0, s]])
        scene = scene_of(log_scales=[[0, 0, 0], [-745.1, 0, 0]])
    assert np.all(np.exp(scene.log_scales) > 0.0)


def test_scene_requires_primitives():
    with pytest.raises(InvalidInputError):
        SplatScene(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 4)), np.zeros(0))


def test_scene_rejects_inconsistent_shapes():
    with pytest.raises(InvalidInputError):
        scene_of(thetas=[0.1, 0.2, 0.3])
    with pytest.raises(InvalidInputError):
        scene_of(log_scales=[[-1, -1], [-2, -2]])
    with pytest.raises(InvalidInputError):
        scene_of(kernels=[0, 1, 0])


def test_scene_keeps_order_and_exposes_primitives():
    scene = scene_of(kernels=[KernelKind.GAUSSIAN_3D, KernelKind.GAUSSIAN_2D])
    assert len(scene) == 2
    assert scene.kernels.tolist() == [0, 1] and scene.kernels.dtype == np.int8
    assert scene.thetas.tolist() == [0.1, 0.2]
    assert scene.positions[:, 2].tolist() == [1.0, 2.0]
    assert not scene.positions.flags.writeable


def test_scene_broadcasts_kernel():
    scene = SplatScene(
        positions=np.zeros((3, 3)) + [0, 0, 1],
        log_scales=np.zeros((3, 3)),
        rotations=np.tile([1.0, 0, 0, 0], (3, 1)),
        thetas=np.zeros(3),
        kernels=KernelKind.GAUSSIAN_2D,
    )
    assert np.all(scene.kernels == int(KernelKind.GAUSSIAN_2D))
    assert np.all(scene_of().kernels == int(KernelKind.GAUSSIAN_3D))


@pytest.mark.parametrize("kernels", [7, 1.7, -1, [0, 7], [0.0, 1.5], np.nan, "gaussian2d"])
def test_scene_rejects_unknown_kernel_ids(kernels):
    # only KernelKind ids; 7 is no kernel, and 1.7 must not truncate to 1
    with pytest.raises(InvalidInputError, match="kernel"):
        scene_of(kernels=kernels)


def test_camera_view_invariants():
    with pytest.raises(InvalidInputError):
        CameraView(fx=-1, fy=1, cx=0, cy=0, width=4, height=4,
                   world_to_camera=np.eye(4), view_id="v")
    with pytest.raises(InvalidInputError):
        CameraView(fx=1, fy=1, cx=9, cy=0, width=4, height=4,
                   world_to_camera=np.eye(4), view_id="v")
    skew = np.eye(4)
    skew[0, 1] = 0.5
    with pytest.raises(InvalidInputError):
        CameraView(fx=1, fy=1, cx=0, cy=0, width=4, height=4,
                   world_to_camera=skew, view_id="v")


def test_camera_center_inverts_pose():
    rot = quaternions_to_rotations(np.array([[0.9, 0.1, -0.2, 0.3]]))[0]
    w2c = np.eye(4)
    w2c[:3, :3] = rot
    eye = np.array([1.0, -2.0, 0.5])
    w2c[:3, 3] = -rot @ eye
    view = CameraView(fx=10, fy=10, cx=2, cy=2, width=8, height=8,
                      world_to_camera=w2c, view_id="v")
    assert np.allclose(view.camera_center, eye)


def test_lift_config_bounds():
    LiftConfig(lam=0.1)
    with pytest.raises(InvalidInputError):
        LiftConfig(lam=0.05)
