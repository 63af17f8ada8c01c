"""Sparse row-stochastic weight matrix construction and per-ray compositing.

Per view, primitives are projected to screen space, depth-sorted front to
back, tile-culled, and alpha-composited per pixel; each composited
contribution omega = sigma * prod(1 - sigma_front) becomes one entry of the
sparse weight matrix. Rendering composites per-primitive values back to rays
with the same weights.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.sparse as sp

from .model import (
    CameraView,
    InvalidInputError,
    KernelKind,
    LiftConfig,
    SplatScene,
    polarized_opacities,
    quaternions_to_rotations,
)

NEAR_PLANE = 1e-3
WEIGHT_EPS = 1e-8
COV_LOWPASS = 0.3
# Affine footprints under-estimate the perspective extent of tilted planar
# disks; their bounding radius is inflated by this factor.
PLANAR_RADIUS_SLACK = 1.25
# Sides in pixels of the square tiles that cull candidates before
# compositing; each view takes the one of least estimated cost (_tile_side).
TILE_SIDES = (4, 8, 16, 32)
# Cost of visiting one tile, in (pixel, candidate) pairs of the kernel. With
# any value from 6,000 to 10,000, _tile_side picked the fastest side of
# TILE_SIDES for every view measured: 3 views each of the bundled scenes and
# of both benchmark geometries (72x72, about 6,000 splats), one 256x256 view
# of about 6,000 splats and two of about 30,000.
TILE_COST = 8000.0
# Compositing along a ray stops once its transmittance falls below this.
TRANSMITTANCE_FLOOR = 1e-4
# Kernels are cut off at this many standard deviations of the footprint.
KERNEL_CUTOFF_SIGMA = 3.0
# The constants above that shape A, part of every weight-matrix key; a new
# constant that changes A belongs here too.
MATRIX_CONSTANTS = ("NEAR_PLANE", "WEIGHT_EPS", "COV_LOWPASS", "PLANAR_RADIUS_SLACK",
                    "TRANSMITTANCE_FLOOR", "KERNEL_CUTOFF_SIGMA")
# A's indptr and indices and the primitive ids are int32, and they stay below this.
INDEX_LIMIT = 2**31


def _int32(values, what: str) -> np.ndarray:
    """values as int32, refused rather than wrapped outside its range."""
    arr = np.asarray(values)
    if arr.dtype != np.int32 and arr.size and not (
            -INDEX_LIMIT <= arr.min() and arr.max() < INDEX_LIMIT):
        raise InvalidInputError(f"{what} must lie in the int32 range")
    return arr.astype(np.int32, copy=False)


class WeightMatrix:
    """Sparse ray-by-primitive compositing weights.

    Entries within a row are stored in front-to-back depth order. view_ranges
    maps view_id -> contiguous [start, stop) row interval; within a view,
    pixel (row r, column c) occupies row r * width + c.
    """

    def __init__(self, indptr, indices, weights, cols, view_ranges, lambda_used):
        self.indptr = _int32(indptr, "indptr")
        self.indices = _int32(indices, "primitive indices")
        self.weights = np.asarray(weights, dtype=np.float64)
        self.cols = int(cols)
        self.view_ranges = dict(view_ranges)
        self.lambda_used = float(lambda_used)
        self._csr = None
        self._row_sums = None

    @property
    def rows(self) -> int:
        return len(self.indptr) - 1

    @property
    def nnz(self) -> int:
        return len(self.weights)

    def entry_rows(self) -> np.ndarray:
        """The row of every entry, in storage order (a fresh int64 array)."""
        return np.repeat(np.arange(self.rows, dtype=np.int64), np.diff(self.indptr))

    def row_sums(self) -> np.ndarray:
        """Each row's weight sum, computed once (read-only)."""
        if self._row_sums is None:
            # One column of zero indices: bincount's storage-order sums, no per-column array.
            column = sp.csr_matrix((self.weights, np.zeros(self.nnz, np.int32), self.indptr),
                                   shape=(self.rows, 1))
            self._row_sums = column @ np.ones(1)
            self._row_sums.setflags(write=False)
        return self._row_sums

    def covered_rows(self) -> np.ndarray:
        return np.diff(self.indptr) > 0

    def to_csr(self) -> sp.csr_matrix:
        if self._csr is None:
            self._csr = sp.csr_matrix(
                (self.weights, self.indices, self.indptr), shape=(self.rows, self.cols))
        return self._csr

    def validate(self) -> None:
        ptr, w = self.indptr, self.weights
        counts = np.diff(ptr)
        if (ptr.size == 0 or ptr[0] != 0 or ptr[-1] != self.nnz
                or len(self.indices) != self.nnz or np.any(counts < 0)):
            raise InvalidInputError(
                "indptr must start at 0, never decrease and end at the entry count")
        if self.nnz and (self.indices.min() < 0 or self.indices.max() >= self.cols):
            raise InvalidInputError(f"primitive indices must lie in [0, {self.cols})")
        if self.nnz and not (w.min() > 0.0 and w.max() <= 1.0):  # NaN fails both
            raise InvalidInputError("weights must lie in (0, 1]" if np.all(np.isfinite(w))
                                    else "weights must be finite")
        sums = self.row_sums()
        if sums.size and sums.max() > 1.0 + 1e-6:
            raise InvalidInputError(f"row sum exceeds 1: {sums.max()}")
        # Keys row * cols + index, all below rows * cols: int32 when that
        # fits, which halves the bytes that the sort moves.
        key_type = np.int32 if self.rows * self.cols < INDEX_LIMIT else np.int64
        keys = np.repeat(np.arange(self.rows, dtype=key_type) * key_type(self.cols), counts)
        keys += self.indices
        keys.sort()
        dup = np.flatnonzero(keys[1:] == keys[:-1])
        if dup.size:
            raise InvalidInputError(
                f"duplicate primitive index in row {keys[dup[0]] // self.cols}")

    def row_normalized(self) -> "WeightMatrix":
        """Copy with every non-empty row rescaled to sum exactly 1.

        Normalized weights are snapped to dyadic rationals (k / 2^30) whose
        integer numerators sum to 2^30 per row, so the row-stochastic premise
        holds in real arithmetic rather than to within rounding. The snap
        perturbs each weight by at most 2^-30 relative.
        """
        denom = 1 << 30
        sums = self.row_sums()
        scale = np.ones_like(sums)
        nz = sums > 0
        scale[nz] = 1.0 / sums[nz]
        reps = np.diff(self.indptr)
        w = self.weights * np.repeat(scale, reps)
        ticks = np.maximum(np.round(w * denom), 1.0)
        if ticks.size:
            # Each non-empty row's remainder goes to its first largest tick.
            starts = self.indptr[:-1][reps > 0]
            row_of = np.repeat(np.arange(len(starts)), reps[reps > 0])
            is_max = np.flatnonzero(ticks == np.maximum.reduceat(ticks, starts)[row_of])
            first = is_max[np.r_[True, np.diff(row_of[is_max]) > 0]]
            ticks[first] += denom - np.add.reduceat(ticks, starts)
        if ticks.size and ticks.min() < 1:
            raise InvalidInputError("row normalization produced a non-positive weight")
        return WeightMatrix(self.indptr.copy(), self.indices.copy(), ticks / denom,
                            self.cols, self.view_ranges, self.lambda_used)


def view_ranges(views) -> dict:
    """Contiguous global row interval per view, in listed order."""
    ranges = {}
    offset = 0
    for v in views:
        ranges[v.view_id] = (offset, offset + v.pixel_count)
        offset += v.pixel_count
    if len(ranges) != len(views):
        raise InvalidInputError("duplicate view_id among views")
    return ranges


class _SceneFrame:
    """The view-independent part of every view's projection: the splats'
    opacities, rotation matrices and 3D covariances (planar disks flat)."""

    __slots__ = ("scene", "alphas", "rots", "planar", "cov3d")

    def __init__(self, scene: SplatScene, alphas: np.ndarray):
        self.scene, self.alphas = scene, alphas
        self.rots = quaternions_to_rotations(scene.rotations)
        s2 = np.exp(2.0 * scene.log_scales)
        self.planar = scene.kernels == int(KernelKind.GAUSSIAN_2D)
        s2[self.planar, 2] = 0.0  # planar disks have no thickness
        self.cov3d = np.einsum("nij,nj,nkj->nik", self.rots, s2, self.rots)


class _ViewProjection:
    """Depth-sorted non-culled footprints of one view, one array per field.

    The inverse screen-space covariance is the conic [[a, b], [b, c]]. For
    planar disks, plane_t, plane_u0 and plane_v0 give the ray-plane hit
    t = plane_t / (d . n) and its local coordinates u = plane_u0 + t (d . u)
    (likewise v) for a pixel ray direction d from the camera center.
    """

    __slots__ = ("idx", "mean_x", "mean_y", "conic_a", "conic_b", "conic_c",
                 "radius", "alpha", "is_planar", "plane_normal", "axis_u",
                 "axis_v", "plane_scales", "plane_t", "plane_u0", "plane_v0")


def _project_scene(frame: _SceneFrame, view: CameraView) -> _ViewProjection:
    scene, planar = frame.scene, frame.planar
    w2c = view.world_to_camera
    rot_w2c = w2c[:3, :3]
    xc = scene.positions @ rot_w2c.T + w2c[:3, 3]
    z = xc[:, 2]
    in_front = z > NEAR_PLANE

    x, y = xc[:, 0], xc[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        mean_x = view.fx * x / z + view.cx
        mean_y = view.fy * y / z + view.cy

    # Affine Jacobian of the perspective projection at the primitive center.
    zs = np.where(in_front, z, 1.0)
    jac = np.zeros((len(z), 2, 3))
    jac[:, 0, 0] = view.fx / zs
    jac[:, 0, 2] = -view.fx * x / zs**2
    jac[:, 1, 1] = view.fy / zs
    jac[:, 1, 2] = -view.fy * y / zs**2
    m = jac @ rot_w2c
    cov2d = np.einsum("nij,njk,nlk->nil", m, frame.cov3d, m)
    cov2d[:, 0, 0] += COV_LOWPASS
    cov2d[:, 1, 1] += COV_LOWPASS

    a, b, c = cov2d[:, 0, 0], cov2d[:, 0, 1], cov2d[:, 1, 1]
    det = a * c - b * b
    ok = in_front & (det > 1e-12) & (a > 0) & (c > 0)
    half_trace = 0.5 * (a + c)
    disc = np.sqrt(np.maximum(half_trace**2 - det, 0.0))
    lam_max = half_trace + disc
    radius = KERNEL_CUTOFF_SIGMA * np.sqrt(np.maximum(lam_max, 0.0))
    radius = np.where(planar, radius * PLANAR_RADIUS_SLACK, radius)

    idx = np.flatnonzero(ok).astype(np.int32)  # _map_views caps the scene below INDEX_LIMIT
    idx = idx[np.lexsort((idx, z[idx]))]  # depth ascending, ties by index
    rots = frame.rots[idx]
    rel = view.camera_center - scene.positions[idx]

    proj = _ViewProjection()
    proj.idx = idx
    proj.mean_x, proj.mean_y = mean_x[idx], mean_y[idx]
    d = det[idx]
    proj.conic_a, proj.conic_b, proj.conic_c = c[idx] / d, -b[idx] / d, a[idx] / d
    proj.radius = radius[idx]
    proj.alpha = frame.alphas[idx]
    proj.is_planar = planar[idx]
    proj.axis_u, proj.axis_v, proj.plane_normal = rots[:, :, 0], rots[:, :, 1], rots[:, :, 2]
    proj.plane_scales = np.exp(scene.log_scales[idx][:, :2])
    proj.plane_t = -np.einsum("cx,cx->c", rel, proj.plane_normal)
    proj.plane_u0 = np.einsum("cx,cx->c", rel, proj.axis_u)
    proj.plane_v0 = np.einsum("cx,cx->c", rel, proj.axis_v)
    return proj


def _planar_delta(proj: _ViewProjection, sub: np.ndarray, view: CameraView,
                  px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Kernel values (pixels x sub) of planar disks at the exact ray-plane hits."""
    dirs_cam = np.stack([(px - view.cx) / view.fx, (py - view.cy) / view.fy,
                         np.ones(len(px))], axis=1)
    dirs = dirs_cam @ view.rotation
    denom = dirs @ proj.plane_normal[sub].T
    with np.errstate(divide="ignore", invalid="ignore"):
        t = proj.plane_t[sub] / denom
    valid = np.isfinite(t) & (t > NEAR_PLANE) & (np.abs(denom) > 1e-12)
    # On a disk some 1e-154 times narrower than the hit's offset, uu * uu
    # overflows to inf, and the kernel value is the right 0.
    with np.errstate(over="ignore"):
        uu = (proj.plane_u0[sub] + t * (dirs @ proj.axis_u[sub].T)) / proj.plane_scales[sub, 0]
        vv = (proj.plane_v0[sub] + t * (dirs @ proj.axis_v[sub].T)) / proj.plane_scales[sub, 1]
        return np.where(valid, np.minimum(np.exp(-0.5 * (uu * uu + vv * vv)), 1.0), 0.0)


def _tile_span(center: np.ndarray, radius: np.ndarray, side: int, pixels: int):
    """First and last index along one axis of the tiles of the given side
    that the intervals [center - radius, center + radius] reach; last < first
    where an interval misses all of the axis' pixels."""
    count = -(-pixels // side)
    with np.errstate(invalid="ignore"):
        first = np.clip(np.floor((center - radius) / side), 0, count)
        last = np.clip(np.floor((center + radius) / side), -1, count - 1)
    empty = ~(first <= last)  # NaN radii too
    first[empty], last[empty] = 0, -1
    return first.astype(np.int64), last.astype(np.int64)


def _tile_side(proj: _ViewProjection, view: CameraView) -> int:
    """The side in TILE_SIDES of least estimated kernel cost for this view:
    TILE_COST per tile of the view plus the (pixel, candidate) pairs of the
    tiles that each footprint's bounding square reaches."""
    def cost(side):
        spans = []  # pixels per footprint along each axis, 0 where it misses
        for center, pixels in ((proj.mean_x, view.width), (proj.mean_y, view.height)):
            first, last = _tile_span(center, proj.radius, side, pixels)
            spans.append(np.minimum((last + 1) * side, pixels) - first * side)
        tiles = -(-view.width // side) * -(-view.height // side)
        return TILE_COST * tiles + float(np.dot(*spans))

    return min(TILE_SIDES, key=cost)


def _bin_footprints(proj: _ViewProjection, view: CameraView, side: int):
    """The ids of the non-empty tiles of the given side (row-major,
    ascending) and each one's candidates (indices into proj), front to back.

    A footprint's bounding square lists its tiles, and the disk-rectangle test
    keeps the pairs whose disk reaches a pixel of the tile. The pairs are
    listed footprint by footprint, in depth order, so a stable sort by tile
    keeps each tile's candidates in depth order.
    """
    w, h = view.width, view.height
    x0, x1 = _tile_span(proj.mean_x, proj.radius, side, w)
    y0, y1 = _tile_span(proj.mean_y, proj.radius, side, h)
    nx = x1 - x0 + 1
    per = nx * (y1 - y0 + 1)
    cand = np.repeat(np.arange(len(per)), per)
    ty, tx = np.divmod(np.arange(cand.size) - np.repeat(np.cumsum(per) - per, per), nx[cand])
    tx += x0[cand]
    ty += y0[cand]
    left, top = tx * side, ty * side
    mx, my = proj.mean_x[cand], proj.mean_y[cand]
    ex = mx - np.clip(mx, left, np.minimum(left + side, w) - 1)
    ey = my - np.clip(my, top, np.minimum(top + side, h) - 1)
    near = ex * ex + ey * ey <= (proj.radius**2)[cand]
    tile = (ty * -(-w // side) + tx)[near]
    counts = np.bincount(tile)
    stops = np.cumsum(counts[counts > 0])
    return np.flatnonzero(counts).tolist(), np.split(
        cand[near][np.argsort(tile, kind="stable")], stops[:-1])


def _tile_entries(proj: _ViewProjection, view: CameraView):
    """Yield (rows_local, cols, weights) arrays per non-empty tile of one view.

    A tile's kernel values form one (candidates, rows, columns) block.
    Offsets are separable: dx depends on (candidate, column) and dy on
    (candidate, row), so only the cross term dx dy is formed per pixel, and
    the block is carried in place from the quadratic form to the weights.
    Candidates are depth-sorted and entries come out candidate-major, so
    a stable sort of a tile's entries by row puts each pixel's entries in
    front-to-back order.
    """
    w, h = view.width, view.height
    side = _tile_side(proj, view)
    tiles_x = -(-w // side)
    r2 = proj.radius**2
    for tile, cand in zip(*_bin_footprints(proj, view, side)):
        ty0, tx0 = tile // tiles_x * side, tile % tiles_x * side
        ty1, tx1 = min(ty0 + side, h), min(tx0 + side, w)
        n, th, tw = cand.size, ty1 - ty0, tx1 - tx0
        xs = np.arange(tx0, tx1, dtype=np.float64)
        ys = np.arange(ty0, ty1, dtype=np.float64)
        dx = xs - proj.mean_x[cand, None]  # (candidates, columns)
        dy = ys - proj.mean_y[cand, None]  # (candidates, rows)
        dxx, dyy = dx * dx, dy * dy

        # A's bytes depend on this operation order, (a dxx + 2b dx dy) +
        # c dyy, the same as the dense per-pixel kernel's.
        quad = dy[:, :, None] * dx[:, None, :]
        quad *= (2.0 * proj.conic_b[cand])[:, None, None]
        quad += (proj.conic_a[cand, None] * dxx)[:, None, :]
        quad += (proj.conic_c[cand, None] * dyy)[:, :, None]
        quad *= -0.5
        sigma = np.exp(quad, out=quad)
        planar = proj.is_planar[cand]
        if np.any(planar):
            px, py = np.tile(xs, th), np.repeat(ys, tw)
            sigma[planar] = _planar_delta(proj, cand[planar], view, px, py).T.reshape(
                -1, th, tw)
        d2 = dxx[:, None, :] + dyy[:, :, None]
        sigma[d2 > r2[cand, None, None]] = 0.0
        sigma *= proj.alpha[cand, None, None]

        # Transmittance in front of each candidate, per pixel, in d2's
        # buffer.
        t_prefix = d2
        t_prefix[0] = 1.0
        np.subtract(1.0, sigma[:-1], out=t_prefix[1:])
        np.multiply.accumulate(t_prefix[1:], axis=0, out=t_prefix[1:])
        keep = t_prefix >= TRANSMITTANCE_FLOOR
        omega = np.multiply(sigma, t_prefix, out=sigma)
        keep &= omega >= WEIGHT_EPS
        flat = np.flatnonzero(keep)
        if flat.size == 0:
            continue
        ck, pk = np.divmod(flat, th * tw)
        pixel_rows = (np.arange(ty0, ty1)[:, None] * w + np.arange(tx0, tx1)).ravel()
        yield pixel_rows[pk], proj.idx[cand][ck], omega.ravel()[flat]


def _build_view(view: CameraView, frame: _SceneFrame):
    """Sparse weight arrays (indptr, indices, weights) for one view."""
    tiles = list(_tile_entries(_project_scene(frame, view), view))
    indptr = np.zeros(view.pixel_count + 1, dtype=np.int64)
    if not tiles:
        return indptr, np.zeros(0, dtype=np.int32), np.zeros(0, dtype=np.float64)
    rows, cols, weights = (np.concatenate(parts) for parts in zip(*tiles))
    # A stable sort keeps each row's entries in the depth order they came in.
    # NumPy sorts 16-bit keys stably by radix, several times faster.
    order = np.argsort(rows.astype(np.uint16) if view.pixel_count <= 1 << 16 else rows,
                       kind="stable")
    np.cumsum(np.bincount(rows, minlength=view.pixel_count), out=indptr[1:])
    return indptr, cols[order], weights[order]


def _map_views(scene: SplatScene, views, cfg: LiftConfig, threads: int, view_fn,
               expected_ranges: dict | None = None):
    """Check the inputs once, then run view_fn(view, frame) for every view,
    with the scene's view-independent _SceneFrame at cfg's opacities.

    Returns the views' row ranges and the per-view results in view order;
    with threads > 1 the views run on a thread pool. When expected_ranges is
    given (the observations' row ranges), the views must match it.
    """
    views = list(views)
    if scene is None or len(scene) == 0:
        raise InvalidInputError("scene must contain at least one primitive")
    if len(scene) >= INDEX_LIMIT:
        raise InvalidInputError(f"{len(scene)} primitives exceed the int32 primitive ids")
    if not views:
        raise InvalidInputError("at least one view is required")
    ranges = view_ranges(views)
    if expected_ranges is not None and ranges != expected_ranges:
        raise InvalidInputError("views and observations are not aligned")
    frame = _SceneFrame(scene, polarized_opacities(scene.thetas, cfg.lam))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return ranges, list(pool.map(lambda view: view_fn(view, frame), views))
    return ranges, [view_fn(view, frame) for view in views]


def build_weight_matrix(scene: SplatScene, views, cfg: LiftConfig | None = None,
                        threads: int = 1) -> WeightMatrix:
    """Build the sparse compositing weight matrix over all views' rays.

    Deterministic: depth ties break by ascending primitive index and entries
    are merged in fixed (view, row, depth) order regardless of thread count.
    """
    cfg = cfg or LiftConfig()
    ranges, chunks = _map_views(scene, views, cfg, threads, _build_view)
    indptrs, indices, weights = zip(*chunks)
    offsets = np.cumsum([0] + [len(part) for part in indices])
    if offsets[-1] >= INDEX_LIMIT:
        raise InvalidInputError(f"A would hold {offsets[-1]} entries, past its int32 indices; "
                                "lift --streaming lifts without storing A")
    row_ends = [p[1:] + offset for p, offset in zip(indptrs, offsets)]
    matrix = WeightMatrix(np.concatenate([np.zeros(1, np.int64)] + row_ends),
                          np.concatenate(indices), np.concatenate(weights), len(scene), ranges,
                          cfg.lam)
    matrix.validate()
    return matrix


def iter_view_entries(frame: _SceneFrame, view: CameraView):
    """Streaming access to one view's weight entries without materializing A:
    (rows_local, cols, weights) per tile, given the frame that _map_views
    passes to its view function."""
    yield from _tile_entries(_project_scene(frame, view), view)


def render(A: WeightMatrix, values: np.ndarray, background: float) -> np.ndarray:
    """Composite per-primitive values (an array with one entry or row per
    primitive) to rays: sum_p w_p x_p + (1 - sum_p w_p) * background."""
    x = np.asarray(values, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    if x.shape[0] != A.cols:
        raise InvalidInputError(
            f"value rows ({x.shape[0]}) do not match primitive count ({A.cols})")
    out = A.to_csr() @ x
    out += ((1.0 - A.row_sums()) * background)[:, None]
    return out[:, 0] if squeeze else out


def render_labels(A: WeightMatrix, labels, min_weight: float = 0.0) -> np.ndarray:
    """Per ray, the primitive label with the largest composited weight.

    labels holds one integer label per primitive, -1 for noise. Ties go to
    the lower label, so noise wins a tie. A ray whose largest weight is not
    above min_weight, as every ray without entries, maps to -1.
    """
    lab = np.asarray(labels)
    if lab.shape != (A.cols,) or not np.issubdtype(lab.dtype, np.integer):
        raise InvalidInputError(
            f"one integer label per primitive ({A.cols}) is required, got {lab.dtype} {lab.shape}")
    if lab.size and lab.min() < -1:
        raise InvalidInputError("labels must be >= -1")
    # One column per distinct label, in ascending order, so that argmax
    # breaks ties toward the lower label.
    ids, column = np.unique(lab, return_inverse=True)
    mass = np.bincount(A.entry_rows() * len(ids) + column[A.indices], weights=A.weights,
                       minlength=A.rows * len(ids)).reshape(A.rows, len(ids))
    best = np.argmax(mass, axis=1)
    return np.where(mass[np.arange(A.rows), best] > min_weight, ids[best], -1).astype(np.int64)
