"""Synthetic scene and observation generation with controllable mask noise,
plus Monte-Carlo verification helpers for the compositing statistics."""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

import numpy as np

from .model import KERNEL_NAMES, CameraView, InvalidInputError, KernelKind, SplatScene
from .rasterize import WeightMatrix, view_ranges
from .solver import ObservationSet

IDENTITY_QUAT = np.array([1.0, 0.0, 0.0, 0.0])
# A pixel belongs to an object's silhouette when that object's composited
# weight exceeds half the unit ray mass.
SILHOUETTE_DOMINANCE = 0.5


@dataclass(frozen=True)
class ObjectSpec:
    name: str
    shape: str                      # wall | disk
    count: int
    theta_range: tuple[float, float]
    feature: tuple[float, ...]
    center: tuple[float, float, float]
    extent: float
    scale_factor: float = 1.0

    def __post_init__(self):
        if self.shape not in ("wall", "disk"):
            raise InvalidInputError(f"unknown object shape {self.shape!r}")
        if self.count < 1:
            raise InvalidInputError("object primitive count must be >= 1")
        if not self.extent > 0:
            raise InvalidInputError("object extent must be positive")


@dataclass(frozen=True)
class ViewOrbit:
    count: int = 3
    width: int = 64
    height: int = 64
    focal: float = 70.0
    radius: float = 4.0
    height_offset: float = 0.0
    span_degrees: float = 40.0
    target: tuple[float, float, float] = (0.0, 0.0, 4.0)

    def __post_init__(self):
        if self.count < 1 or self.width < 1 or self.height < 1:
            raise InvalidInputError("view counts and resolution must be positive")


@dataclass(frozen=True)
class NoiseSpec:
    fraction: float = 0.0
    merge_pairs: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if not (0.0 <= self.fraction <= 1.0):
            raise InvalidInputError("noise fraction must lie in [0, 1]")


@dataclass(frozen=True)
class SceneSpec:
    seed: int = 0
    kernel: KernelKind = KernelKind.GAUSSIAN_3D
    objects: tuple[ObjectSpec, ...] = ()
    views: ViewOrbit = field(default_factory=ViewOrbit)
    noise: NoiseSpec = field(default_factory=NoiseSpec)

    def __post_init__(self):
        if self.seed < 0:
            raise InvalidInputError(f"scene seed must be >= 0, got {self.seed}")
        if not self.objects:
            raise InvalidInputError("a scene spec needs at least one object")
        names = [o.name for o in self.objects]
        if len(set(names)) != len(names):
            raise InvalidInputError("object names must be unique")
        for a, b in self.noise.merge_pairs:
            if a not in names or b not in names:
                raise InvalidInputError(f"merge pair ({a!r}, {b!r}) references a missing object")


# -- declarative text config -------------------------------------------------

def _numbers(kind, counts: tuple | None = (1,)):
    """(requirement, converter) for a key of finite numbers of kind, as many
    as one of counts, or one or more if counts is None; a key of exactly one
    number converts to the number itself."""
    one, many = ("an integer", "integers") if kind is int else ("a number", "numbers")

    def convert(raw: str):
        values = tuple(kind(token) for token in raw.split())
        if (not values or (counts is not None and len(values) not in counts)
                or not all(map(math.isfinite, values))):
            raise ValueError(raw)
        return values[0] if counts == (1,) else values
    if counts == (1,):
        return one, convert
    return f"{' or '.join(map(str, counts)) if counts else 'one or more'} {many}", convert


def _merge_pairs(raw: str) -> tuple:
    pairs = tuple(tuple(p.split("+")) for p in raw.split())
    if any(len(pair) != 2 for pair in pairs):
        raise ValueError(raw)
    return pairs


# section -> key -> (requirement, converter); [object:*] sections share
# "object". A converter raises on text it refuses, and an absent key takes
# the dataclass default.
_SPEC_KEYS = {
    "scene": {"seed": _numbers(int),
              "kernel": (f"one of {sorted(KERNEL_NAMES)}", lambda raw: KERNEL_NAMES[raw.lower()])},
    "views": {**dict.fromkeys(("count", "width", "height"), _numbers(int)),
              **dict.fromkeys(("focal", "radius", "height_offset", "span_degrees"),
                              _numbers(float)),
              "target": _numbers(float, (3,))},
    "noise": {"fraction": _numbers(float), "merge": ("name+name pairs", _merge_pairs)},
    "object": {"shape": ("wall or disk", str), "count": _numbers(int),
               "theta": _numbers(float, (1, 2)), "feature": _numbers(float, None),
               "center": _numbers(float, (3,)), "extent": _numbers(float),
               "scale_factor": _numbers(float)},
}


def parse_scene_spec(text: str) -> SceneSpec:
    """Parse the INI-style scene description (see scenes/*.ini)."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise InvalidInputError(f"malformed scene spec: {exc}") from exc

    def read(section: str) -> dict:
        keys, values = _SPEC_KEYS[section.split(":")[0]], {}
        for key, raw in cp.items(section) if cp.has_section(section) else ():
            if key not in keys:
                raise InvalidInputError(f"[{section}] key {key} must be one of {list(keys)}")
            requirement, convert = keys[key]
            try:
                values[key] = convert(raw)
            except (KeyError, ValueError, OverflowError):
                raise InvalidInputError(
                    f"[{section}] {key} must be {requirement}, got {raw!r}") from None
        return values

    objects = []
    for section in cp.sections():
        if section.startswith("object:"):
            values = read(section)
            name = section.split(":", 1)[1]
            for key in ("theta", "shape", "count", "feature", "center", "extent"):
                if key not in values:
                    raise InvalidInputError(f"object {name!r} is missing key {key!r}")
            theta = values.pop("theta")
            objects.append(ObjectSpec(name=name, theta_range=(theta[0], theta[-1]), **values))
    noise = read("noise")
    if "merge" in noise:
        noise["merge_pairs"] = noise.pop("merge")
    return SceneSpec(**read("scene"), objects=tuple(objects),
                     views=ViewOrbit(**read("views")), noise=NoiseSpec(**noise))


# -- scene construction ------------------------------------------------------

def _look_at(eye, target, width, height, focal, view_id) -> CameraView:
    eye = np.asarray(eye, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    forward = target - eye
    forward = forward / np.linalg.norm(forward)
    up_hint = np.array([0.0, 1.0, 0.0])
    if abs(forward @ up_hint) > 0.999:
        up_hint = np.array([1.0, 0.0, 0.0])
    right = np.cross(up_hint, forward)
    right = right / np.linalg.norm(right)
    down = np.cross(forward, right)
    rot = np.stack([right, down, forward])
    w2c = np.eye(4)
    w2c[:3, :3] = rot
    w2c[:3, 3] = -rot @ eye
    return CameraView(fx=focal, fy=focal, cx=width / 2.0, cy=height / 2.0,
                      width=width, height=height, world_to_camera=w2c, view_id=view_id)


def orbit_views(orbit: ViewOrbit) -> list[CameraView]:
    """Cameras on an arc around the target, all looking at it."""
    target = np.asarray(orbit.target, dtype=np.float64)
    if orbit.count == 1:
        angles = [0.0]
    else:
        half = math.radians(orbit.span_degrees) / 2.0
        angles = np.linspace(-half, half, orbit.count)
    views = []
    for i, ang in enumerate(angles):
        eye = target + np.array([orbit.radius * math.sin(ang),
                                 orbit.height_offset,
                                 -orbit.radius * math.cos(ang)])
        views.append(_look_at(eye, target, orbit.width, orbit.height,
                              orbit.focal, f"view_{i:03d}"))
    return views


def _object_primitives(rng: np.random.Generator, obj: ObjectSpec):
    center = np.asarray(obj.center, dtype=np.float64)
    lo, hi = obj.theta_range
    if obj.shape == "wall":
        n = max(1, int(round(math.sqrt(obj.count))))
        if n == 1:
            positions = center[None, :]
            spacing = obj.extent
        else:
            axis = np.linspace(-obj.extent, obj.extent, n)
            gx, gy = np.meshgrid(axis, axis)
            positions = np.stack([gx.ravel(), gy.ravel(), np.zeros(n * n)], axis=1) + center
            spacing = 2.0 * obj.extent / (n - 1)
        scale = spacing * obj.scale_factor
        count = len(positions)
    else:  # disk
        # Flat circular plate of small splats: pixel-sharp silhouette.
        n = max(2, int(math.ceil(math.sqrt(4.0 / math.pi * obj.count))))
        axis = np.linspace(-obj.extent, obj.extent, n)
        gx, gy = np.meshgrid(axis, axis)
        pts = np.stack([gx.ravel(), gy.ravel(), np.zeros(n * n)], axis=1)
        spacing = 2.0 * obj.extent / (n - 1)
        pts[:, :2] += rng.uniform(-0.1, 0.1, (n * n, 2)) * spacing
        keep = np.linalg.norm(pts[:, :2], axis=1) <= obj.extent
        positions = pts[keep] + center
        scale = spacing * obj.scale_factor
        count = len(positions)
    thetas = rng.uniform(lo, hi, count)
    log_scales = np.full((count, 3), math.log(max(scale, 1e-9)))
    rotations = np.tile(IDENTITY_QUAT, (count, 1))
    return positions, log_scales, rotations, thetas


def make_scene(spec: SceneSpec):
    """Deterministically build (scene, views, per-primitive object ids)."""
    rng = np.random.default_rng(spec.seed)
    positions, log_scales, rotations, thetas, ids = [], [], [], [], []
    for obj_index, obj in enumerate(spec.objects):
        p, ls, r, t = _object_primitives(rng, obj)
        positions.append(p)
        log_scales.append(ls)
        rotations.append(r)
        thetas.append(t)
        ids.append(np.full(len(p), obj_index, dtype=np.int64))
    scene = SplatScene(
        np.concatenate(positions), np.concatenate(log_scales),
        np.concatenate(rotations), np.concatenate(thetas), spec.kernel)
    views = orbit_views(spec.views)
    return scene, views, np.concatenate(ids)


@dataclass(frozen=True)
class MaskTag:
    view_id: str
    label: int
    merged: bool
    source_objects: tuple[int, ...]


def _unit_features(spec: SceneSpec) -> np.ndarray:
    feats = np.array([o.feature for o in spec.objects], dtype=np.float64)
    norms = np.linalg.norm(feats, axis=1)
    if np.any(norms == 0):
        raise InvalidInputError("object feature vectors must be nonzero")
    return feats / norms[:, None]


def make_observations(clean_labels: np.ndarray, views, spec: SceneSpec):
    """Label-backed observations with optional merged-mask corruption.

    clean_labels holds the clean object label of every ray, in the row order
    of views (render_labels of the object ids at SILHOUETTE_DOMINANCE, on a
    weight matrix over views). Clean views carry one mask per visible object
    with that object's unit feature vector; a deterministic fraction of views
    has each designated pair merged into one mask whose feature is the
    renormalized mean of the two. Returns (observations, {(view_id, label):
    MaskTag}).
    """
    feats = _unit_features(spec)
    name_to_index = {o.name: i for i, o in enumerate(spec.objects)}

    n_noisy = int(round(spec.noise.fraction * len(views)))
    noisy_rng = np.random.default_rng(spec.seed + 1)
    noisy_views = set()
    if n_noisy > 0 and spec.noise.merge_pairs:
        chosen = noisy_rng.choice(len(views), size=min(n_noisy, len(views)), replace=False)
        noisy_views = {views[i].view_id for i in sorted(chosen)}

    maps = {}
    tables = {}
    tags = {}
    for view, (start, stop) in zip(views, view_ranges(views).values()):
        vid = view.view_id
        lab = clean_labels[start:stop].copy()
        table = {}
        merged_into = {}
        if vid in noisy_views:
            for name_a, name_b in spec.noise.merge_pairs:
                ia, ib = name_to_index[name_a], name_to_index[name_b]
                keep, drop = min(ia, ib), max(ia, ib)
                lab[lab == drop] = keep
                merged = feats[ia] + feats[ib]
                merged /= np.linalg.norm(merged)
                table[keep] = merged
                merged_into[keep] = (ia, ib)
        for obj_index in sorted(int(u) for u in np.unique(lab) if u >= 0):
            if obj_index in merged_into:
                tags[(vid, obj_index)] = MaskTag(vid, obj_index, True, merged_into[obj_index])
            else:
                table[obj_index] = feats[obj_index]
                tags[(vid, obj_index)] = MaskTag(vid, obj_index, False, (obj_index,))
        maps[vid] = lab
        tables[vid] = table
    obs = ObservationSet.from_labels(views, maps, tables)
    return obs, tags


# -- presets -----------------------------------------------------------------

def opaque_wall_spec(seed: int = 3, views: int = 3) -> SceneSpec:
    """A dense high-opacity wall filling every pixel of every view."""
    return SceneSpec(
        seed=seed,
        objects=(ObjectSpec(name="wall", shape="wall", count=1600,
                            theta_range=(8.0, 10.0), feature=(0.0, 0.0, 1.0),
                            center=(0.0, 0.0, 4.0), extent=4.0, scale_factor=1.4),),
        views=ViewOrbit(count=views, width=64, height=64, focal=70.0,
                        radius=4.0, span_degrees=24.0, target=(0.0, 0.0, 4.0)),
    )


def two_blob_spec(noise_fraction: float = 0.0, seed: int = 7,
                  resolution: int = 80, views: int = 10) -> SceneSpec:
    """Two opaque sharp-edged blobs before a backing wall; optional merged masks."""
    return SceneSpec(
        seed=seed,
        objects=(
            ObjectSpec(name="blob_a", shape="disk", count=3000,
                       theta_range=(9.0, 11.0), feature=(1.0, 0.0, 0.0, 0.0),
                       center=(-1.12, 0.0, 4.0), extent=1.0, scale_factor=0.65),
            ObjectSpec(name="blob_b", shape="disk", count=3000,
                       theta_range=(9.0, 11.0), feature=(0.0, 1.0, 0.0, 0.0),
                       center=(1.12, 0.0, 4.0), extent=1.0, scale_factor=0.65),
            ObjectSpec(name="wall", shape="wall", count=1600,
                       theta_range=(9.0, 11.0), feature=(0.0, 0.0, 1.0, 0.0),
                       center=(0.0, 0.0, 6.0), extent=6.5, scale_factor=1.4),
        ),
        views=ViewOrbit(count=views, width=resolution, height=resolution,
                        focal=1.05 * resolution, radius=4.0, span_degrees=24.0,
                        target=(0.0, 0.0, 4.0)),
        noise=NoiseSpec(fraction=noise_fraction, merge_pairs=(("blob_a", "blob_b"),)),
    )


def layered_sheet_scene(focal: float = 64.0, resolution: int = 64):
    """Two coaxial near-flat giant splats covering every pixel of one view.

    Both carry logit 1.0 so the polarization factor directly steers how much
    of the front sheet shows through; observations split half the pixels to
    one value and half to another, making the lift genuinely inconsistent.
    Used to measure dispersion against the polarization factor.
    """
    big = math.log(2.0e2)
    scene = SplatScene(
        positions=np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]]),
        log_scales=np.full((2, 3), big),
        rotations=np.tile(IDENTITY_QUAT, (2, 1)),
        thetas=np.array([1.0, 1.0]),
    )
    w2c = np.eye(4)
    view = CameraView(fx=focal, fy=focal, cx=resolution / 2.0, cy=resolution / 2.0,
                      width=resolution, height=resolution, world_to_camera=w2c,
                      view_id="sheet")
    values = np.zeros((resolution * resolution, 1))
    values[::2] = 1.0  # alternate pixels observe conflicting values
    obs = ObservationSet.from_dense([view], {"sheet": values})
    return scene, [view], obs


# -- Monte-Carlo verification ------------------------------------------------

@dataclass(frozen=True)
class McGradientResult:
    estimate: float
    standard_error: float
    analytic: float


def mc_background_gradient(s: float, n_samples: int = 100_000, seed: int = 0,
                           primitive_value: float = 0.7) -> McGradientResult:
    """Monte-Carlo expectation of the squared-residual gradient w.r.t. the
    weight sum under a uniform random background.

    Single-ray, single-primitive configuration with a consistent observation
    (zero foreground residual): the rendered value is s * c + (1 - s) * b
    with b ~ U(-1, 1), the observation is s * c, and the half-MSE gradient
    with respect to s is (residual) * (c - b). Its expectation is
    (s - 1) * Var(b) = (s - 1) / 3.
    """
    if not (0.0 <= s <= 1.0):
        raise InvalidInputError("weight sum s must lie in [0, 1]")
    if n_samples < 10_000:
        raise InvalidInputError("need at least 1e4 samples for a stable standard error")
    rng = np.random.default_rng(seed)
    bg = rng.uniform(-1.0, 1.0, n_samples)
    residual = (1.0 - s) * bg  # foreground residual is zero by construction
    grad = residual * (primitive_value - bg)
    estimate = float(grad.mean())
    se = float(grad.std(ddof=1) / math.sqrt(n_samples))
    return McGradientResult(estimate=estimate, standard_error=se, analytic=(s - 1.0) / 3.0)


def alpha_sum_stats(A: WeightMatrix) -> dict[str, tuple[float, float]]:
    """Per-view (mean, std) of row weight sums over covered rays, in percent."""
    if A.rows == 0:
        raise InvalidInputError("weight matrix has no rows")
    sums = A.row_sums()
    covered = A.covered_rows()
    out = {}
    for vid, (start, stop) in A.view_ranges.items():
        seg = sums[start:stop][covered[start:stop]]
        if seg.size == 0:
            out[vid] = (0.0, 0.0)
        else:
            out[vid] = (float(seg.mean() * 100.0), float(seg.std() * 100.0))
    return out


# -- random instances for property suites ------------------------------------

RANDOM_MAX_ENTRIES = 8


def random_row_stochastic(rng: np.random.Generator, rows: int, cols: int, features: int):
    """A random row-stochastic weight matrix paired with Gaussian observations.

    Each row holds 1 to RANDOM_MAX_ENTRIES distinct columns with Dirichlet(1)
    weights. row_normalized snaps them to dyadic rationals k / 2^30 that sum
    to exactly 1.0 per row, so the row-stochastic premise of the Jensen bound
    holds in real arithmetic, not just approximately.
    """
    width = min(RANDOM_MAX_ENTRIES, cols)
    sizes = rng.integers(1, width + 1, size=rows)
    columns = np.argsort(rng.random((rows, cols)), axis=1)[:, :width]
    draws = rng.standard_exponential((rows, width))
    kept = np.arange(width) < sizes[:, None]
    A = WeightMatrix(np.concatenate([[0], np.cumsum(sizes)]), columns[kept], draws[kept],
                     cols, {"instance": (0, rows)}, 1.0).row_normalized()
    values = rng.normal(size=(rows, features))
    view = CameraView(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=1, height=rows,
                      world_to_camera=np.eye(4), view_id="instance")
    obs = ObservationSet.from_dense([view], {"instance": values})
    return A, obs
