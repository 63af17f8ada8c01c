"""Splat scenes, cameras, lift configuration, and the opacity activation."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class InvalidInputError(ValueError):
    """Raised when an operation receives arguments outside its contract."""


class KernelKind(enum.IntEnum):
    """Footprint kernel of a primitive.

    GAUSSIAN_3D is a volumetric ellipsoid rendered through an affine (EWA)
    screen-space approximation; GAUSSIAN_2D is a planar disk evaluated by
    exact ray-plane intersection.
    """

    GAUSSIAN_3D = 0
    GAUSSIAN_2D = 1


# The kernel names of scene specs, configs, run reports and the CLI.
KERNEL_NAMES = {"gaussian3d": KernelKind.GAUSSIAN_3D, "gaussian2d": KernelKind.GAUSSIAN_2D}


def polarized_opacities(thetas: np.ndarray, lam: float) -> np.ndarray:
    """Vectorized overflow-safe sigmoid of lam * thetas."""
    if not (math.isfinite(lam) and lam > 0.0):
        raise InvalidInputError(f"polarization factor must be a positive real, got {lam!r}")
    z = lam * np.asarray(thetas, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise InvalidInputError("opacity logits must be finite")
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def quaternions_to_rotations(quats: np.ndarray) -> np.ndarray:
    """Batch wxyz quaternions (N, 4) -> rotation matrices (N, 3, 3)."""
    q = np.asarray(quats, dtype=np.float64)
    norms = np.linalg.norm(q, axis=1, keepdims=True)
    if np.any(norms < 1e-12):
        raise InvalidInputError("zero-norm quaternion cannot be normalized")
    q = q / norms
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    rot = np.empty((len(q), 3, 3), dtype=np.float64)
    rot[:, 0, 0] = 1 - 2 * (y * y + z * z)
    rot[:, 0, 1] = 2 * (x * y - w * z)
    rot[:, 0, 2] = 2 * (x * z + w * y)
    rot[:, 1, 0] = 2 * (x * y + w * z)
    rot[:, 1, 1] = 1 - 2 * (x * x + z * z)
    rot[:, 1, 2] = 2 * (y * z - w * x)
    rot[:, 2, 0] = 2 * (x * z - w * y)
    rot[:, 2, 1] = 2 * (y * z + w * x)
    rot[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return rot


class SplatScene:
    """An ordered, immutable set of splats, one array per parameter.

    positions (P, 3); log_scales (P, 3); rotations (P, 4) as wxyz
    quaternions, normalized here; thetas (P,) raw opacity logits; kernels
    (P,) KernelKind ids, one id for every splat, or None for GAUSSIAN_3D.
    Scales are stored as logs and opacity as a logit, matching the prevailing
    PLY convention for pretrained scenes; activation happens on read.
    Primitive index j in [0, P) is stable.
    """

    def __init__(self, positions, log_scales, rotations, thetas, kernels=None):
        positions = np.asarray(positions, dtype=np.float64)
        n = len(positions)
        if n < 1:
            raise InvalidInputError("a scene needs at least one primitive")
        log_scales = np.asarray(log_scales, dtype=np.float64)
        rotations = np.asarray(rotations, dtype=np.float64)
        thetas = np.asarray(thetas, dtype=np.float64)
        kernels = _kernel_ids(KernelKind.GAUSSIAN_3D if kernels is None else kernels, n)
        shapes_ok = (
            positions.shape == (n, 3)
            and log_scales.shape == (n, 3)
            and rotations.shape == (n, 4)
            and thetas.shape == (n,)
            and kernels.shape == (n,)
        )
        if not shapes_ok:
            raise InvalidInputError("inconsistent array shapes for scene construction")
        if not (np.all(np.isfinite(positions)) and np.all(np.isfinite(log_scales))
                and np.all(np.isfinite(rotations)) and np.all(np.isfinite(thetas))):
            raise InvalidInputError("scene arrays must be finite")
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(np.exp(2.0 * log_scales))):
                raise InvalidInputError(
                    "log-scales must keep the variance exp(2 s) finite in float64 "
                    f"(s up to about 354.89), got {log_scales.max()!r}")
            if not np.all(np.exp(log_scales) > 0.0):
                raise InvalidInputError(
                    "log-scales must keep the scale exp(s) above 0 in float64 "
                    f"(s down to about -745.13), got {log_scales.min()!r}")
        norms = np.linalg.norm(rotations, axis=1, keepdims=True)
        if np.any(norms < 1e-12):
            raise InvalidInputError("zero-norm quaternion cannot be normalized")
        self.positions = positions.copy()
        self.log_scales = log_scales.copy()
        self.rotations = rotations / norms
        self.thetas = thetas.copy()
        self.kernels = kernels
        for a in (self.positions, self.log_scales, self.rotations, self.thetas, self.kernels):
            a.setflags(write=False)

    def __len__(self) -> int:
        return len(self.positions)


def _kernel_ids(kernels, n: int) -> np.ndarray:
    """KernelKind ids as int8, one id broadcast to n splats."""
    try:
        ids = np.atleast_1d(np.asarray(kernels, dtype=np.float64))
    except (TypeError, ValueError):
        raise InvalidInputError("kernel ids must be numbers") from None
    valid = [int(kind) for kind in KernelKind]
    if not np.all(np.isin(ids, valid)):
        raise InvalidInputError(f"kernel ids must be KernelKind values {valid}")
    ids = ids.astype(np.int8)
    return np.full(n, ids[0], dtype=np.int8) if ids.size == 1 else ids


@dataclass(frozen=True)
class CameraView:
    """Pinhole camera: intrinsics in pixels, rigid world-to-camera transform.

    Camera convention: x right, y down, z forward; pixel (column c, row r)
    images the ray through integer coordinates (c, r).
    """

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    world_to_camera: np.ndarray
    view_id: str

    def __post_init__(self):
        if not all(math.isfinite(f) and f > 0 for f in (self.fx, self.fy)):
            raise InvalidInputError("focal lengths must be positive and finite")
        if not (self.width > 0 and self.height > 0):
            raise InvalidInputError("resolution must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise InvalidInputError("principal point must lie inside the image")
        m = np.asarray(self.world_to_camera, dtype=np.float64).reshape(4, 4)
        if not np.all(np.isfinite(m)):
            raise InvalidInputError("world_to_camera must be finite")
        r = m[:3, :3]
        if np.max(np.abs(r.T @ r - np.eye(3))) > 1e-6:
            raise InvalidInputError("world_to_camera rotation block is not orthonormal")
        if np.max(np.abs(m[3] - np.array([0.0, 0.0, 0.0, 1.0]))) > 1e-9:
            raise InvalidInputError("world_to_camera last row must be [0, 0, 0, 1]")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "world_to_camera", m)

    @property
    def rotation(self) -> np.ndarray:
        return self.world_to_camera[:3, :3]

    @property
    def translation(self) -> np.ndarray:
        return self.world_to_camera[:3, 3]

    @property
    def camera_center(self) -> np.ndarray:
        """Camera origin in world coordinates."""
        return -self.rotation.T @ self.translation

    @property
    def pixel_count(self) -> int:
        return self.width * self.height


@dataclass(frozen=True)
class LiftConfig:
    """The lift's one tuning parameter.

    lam sharpens the opacity activation (1.0 = plain sigmoid). The
    compositing cut-offs are the constants rasterize.TRANSMITTANCE_FLOOR and
    rasterize.KERNEL_CUTOFF_SIGMA.
    """

    lam: float = 1.2

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam >= 0.1):
            raise InvalidInputError(f"lam must be >= 0.1, got {self.lam!r}")
