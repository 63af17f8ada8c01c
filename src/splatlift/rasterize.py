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
# Side in pixels of the square tiles that cull candidates before compositing.
# A is byte-identical at every side; 4 px is the fastest side on the
# benchmark's views, and costs up to about 13 % on large sparse views, where
# 8 px is faster (README).
TILE_SIDE = 4
# Values in one block of float64 work (1 MB), small enough to stay in cache:
# a tile group of the kernel, the F-wide row blocks of the lift and queries,
# and the entries of a block of rows that row_sums and validate take at once.
ROW_BLOCK_VALUES = 1 << 17
# Candidates of a tile group evaluated at a time; after each chunk, tiles
# whose every pixel is below TRANSMITTANCE_FLOOR stop.
DEPTH_CHUNK = 32
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


def compressed(kind, shape, indptr, indices, data):
    """A scipy CSR or CSC matrix (kind) of the given shape on the given
    arrays as they are, where scipy's constructor copies an indices or data
    slice shorter than half its base array."""
    matrix = kind(shape)
    matrix.indptr, matrix.indices, matrix.data = indptr, indices, data
    return matrix


class WeightMatrix:
    """Sparse ray-by-primitive compositing weights.

    Entries within a row are stored in front-to-back depth order. view_ranges
    maps view_id -> contiguous [start, stop) row interval, and the intervals
    tile the rows in order; within a view, pixel (row r, column c) occupies
    row r * width + c.
    """

    def __init__(self, indptr, indices, weights, cols, view_ranges, lambda_used):
        self.indptr = _int32(indptr, "indptr")
        self.indices = _int32(indices, "primitive indices")
        self.weights = np.asarray(weights, dtype=np.float64)
        self.cols = int(cols)
        self.view_ranges = dict(view_ranges)
        # 0, start, stop, next start, ..., rows: no gap between views, none negative within one
        gaps = np.diff([0, *np.ravel(list(self.view_ranges.values())), self.rows])
        if not self.view_ranges or gaps[::2].any() or (gaps[1::2] < 0).any():
            raise InvalidInputError("view ranges must tile the weight rows in order")
        self.lambda_used = float(lambda_used)
        self._csr = None
        self._row_sums = None

    @property
    def rows(self) -> int:
        return len(self.indptr) - 1

    @property
    def nnz(self) -> int:
        return len(self.weights)

    def _row_blocks(self):
        """[start, stop) row intervals that tile the rows in ascending order,
        each with at most ROW_BLOCK_VALUES entries but at least one row, and
        at most (2^31 - 1) // cols rows, so that (row - start) * cols + index
        fits in int32. indptr[start] plus the budget may pass 2^31, so it is
        a Python int, searched for as an int32 only below nnz (NumPy would
        search an int64 copy of indptr for a Python int)."""
        ptr, block_rows = self.indptr, (INDEX_LIMIT - 1) // max(self.cols, 1)
        start = 0
        while start < self.rows:
            end = int(ptr[start]) + ROW_BLOCK_VALUES
            stop = (self.rows if end >= self.nnz
                    else int(np.searchsorted(ptr, np.int32(end), "right")) - 1)
            stop = min(max(stop, start + 1), start + block_rows)
            yield start, stop
            start = stop

    def row_sums(self) -> np.ndarray:
        """Each row's weight sum, computed once (read-only)."""
        if self._row_sums is None:
            # A block of rows at a time as one column of zero indices:
            # bincount's storage-order sums, no array per column or entry,
            # on the block's slice of the weights.
            self._row_sums, one = np.zeros(self.rows), np.ones(1)
            for start, stop in self._row_blocks():
                lo, hi = self.indptr[start], self.indptr[stop]
                self._row_sums[start:stop] = compressed(
                    sp.csr_matrix, (stop - start, 1), self.indptr[start:stop + 1] - lo,
                    np.zeros(hi - lo, np.int32), self.weights[lo:hi]) @ one
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
        # A duplicate lies within one row, so the rows are checked a block at
        # a time, in ascending order, by sorting the int32 keys
        # (row - start) * cols + index; the first names the lowest row.
        for start, stop in self._row_blocks():
            keys = np.repeat(np.arange(stop - start, dtype=np.int32) * np.int32(self.cols),
                             counts[start:stop])
            keys += self.indices[ptr[start]:ptr[stop]]
            keys.sort()
            dup = np.flatnonzero(keys[1:] == keys[:-1])
            if dup.size:
                raise InvalidInputError(
                    f"duplicate primitive index in row {start + keys[dup[0]] // self.cols}")

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
    opacities, rotation matrices and 3D covariances (planar disks flat,
    component-major)."""

    __slots__ = ("scene", "alphas", "rots", "planar", "cov3d")

    def __init__(self, scene: SplatScene, alphas: np.ndarray):
        self.scene, self.alphas = scene, alphas
        self.rots = quaternions_to_rotations(scene.rotations)
        s2 = np.exp(2.0 * scene.log_scales)
        self.planar = scene.kernels == int(KernelKind.GAUSSIAN_2D)
        s2[self.planar, 2] = 0.0  # planar disks have no thickness
        # einsum("nij,nj,nkj->nik", rots, s2, rots) with its bytes, from 0,
        # j ascending, (r_ij s_j) r_kj, but component-major, (i, k, splat),
        # so that every operation runs over the splats.
        rots = np.ascontiguousarray(self.rots.transpose(1, 2, 0))
        scaled = rots * s2.T
        self.cov3d = np.zeros_like(rots)
        for j in range(3):
            self.cov3d += scaled[:, j, None] * rots[:, j]


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
    m = np.ascontiguousarray((jac @ rot_w2c).transpose(1, 2, 0))
    # einsum("nij,njk,nlk->nil", m, cov3d, m) with its bytes, from 0, j outer
    # and k inner, (m_ij c_jk) m_lk, but component-major like cov3d.
    cov2d = np.zeros((2, 2, len(z)))
    for j in range(3):
        for k in range(3):
            cov2d += (m[:, j] * frame.cov3d[j, k])[:, None] * m[:, k]
    a, b, c = cov2d[0, 0] + COV_LOWPASS, cov2d[0, 1], cov2d[1, 1] + COV_LOWPASS
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
    """Kernel values of the planar disks sub at the pixels (px, py), the
    three broadcast together, at the exact ray-plane hits. Every value is
    formed element by element, so none depends on which pixels or disks are
    evaluated with it."""
    rot = view.rotation
    ux, uy = (px - view.cx) / view.fx, (py - view.cy) / view.fy
    dirs = [ux * rot[0, j] + uy * rot[1, j] + rot[2, j] for j in range(3)]

    def along(axes):
        return dirs[0] * axes[..., 0] + dirs[1] * axes[..., 1] + dirs[2] * axes[..., 2]

    denom = along(proj.plane_normal[sub])
    with np.errstate(divide="ignore", invalid="ignore"):
        t = proj.plane_t[sub] / denom
    valid = np.isfinite(t) & (t > NEAR_PLANE) & (np.abs(denom) > 1e-12)
    # On a disk some 1e-154 times narrower than the hit's offset, uu * uu
    # overflows to inf, and the kernel value is the right 0.
    with np.errstate(over="ignore", invalid="ignore"):
        uu = (proj.plane_u0[sub] + t * along(proj.axis_u[sub])) / proj.plane_scales[sub, 0]
        vv = (proj.plane_v0[sub] + t * along(proj.axis_v[sub])) / proj.plane_scales[sub, 1]
        return np.where(valid, np.minimum(np.exp(-0.5 * (uu * uu + vv * vv)), 1.0), 0.0)


def _tile_span(center: np.ndarray, radius: np.ndarray, pixels: int):
    """First and last index along one axis of the tiles that the intervals
    [center - radius, center + radius] reach; last < first where an
    interval misses all of the axis' pixels."""
    count = -(-pixels // TILE_SIDE)
    with np.errstate(invalid="ignore"):
        first = np.clip(np.floor((center - radius) / TILE_SIDE), 0, count)
        last = np.clip(np.floor((center + radius) / TILE_SIDE), -1, count - 1)
    empty = ~(first <= last)  # NaN radii too
    first[empty], last[empty] = 0, -1
    return first.astype(np.int64), last.astype(np.int64)


def _bin_footprints(proj: _ViewProjection, view: CameraView):
    """The non-empty tiles: their ids (row-major, ascending), their
    candidate counts and their candidates (indices into proj), tile after
    tile and each tile's front to back.

    A footprint's bounding square lists its tiles, and the disk-rectangle test
    keeps the pairs whose disk reaches a pixel of the tile. The pairs are
    listed footprint by footprint, in depth order, so a stable sort by tile
    keeps each tile's candidates in depth order.
    """
    w, h, side = view.width, view.height, TILE_SIDE
    x0, x1 = _tile_span(proj.mean_x, proj.radius, w)
    y0, y1 = _tile_span(proj.mean_y, proj.radius, h)
    # The squares' tile rows, then their tiles: (footprint, tile row) and
    # (footprint, tile) pairs, with the offsets of each footprint's disk
    # from the pixel centres of the tile row's band and the tile's column.
    band = np.repeat(np.arange(len(y0)), y1 - y0 + 1)
    ty = y0[band] + _run_offsets(y1 - y0 + 1)
    my, top = proj.mean_y[band], ty * side
    ey = my - np.minimum(np.maximum(my, top), np.minimum(top + side, h) - 1)
    nx = (x1 - x0 + 1)[band]
    cand = np.repeat(band, nx)
    tx = x0[cand] + _run_offsets(nx)
    mx, left = proj.mean_x[cand], tx * side
    ex = mx - np.minimum(np.maximum(mx, left), np.minimum(left + side, w) - 1)
    near = ex * ex + np.repeat(ey * ey, nx) <= (proj.radius**2)[cand]
    tiles_x = -(-w // side)
    tile = (np.repeat(ty, nx) * tiles_x + tx)[near]
    counts = np.bincount(tile)
    ids = np.flatnonzero(counts)
    return ids, counts[ids], cand[near][_stable_order(tile, tiles_x * -(-h // side))]


def _stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """The permutation that sorts keys, integers in [0, bound), stably.

    One in-place sort of the packed keys (key << b) | arrival, b the bits of
    the largest arrival index: unique, so any sort is stable, and uint32
    where they fit, which halves the bytes the sort moves. keys' buffer is
    taken for them when its item size is theirs, so keys are overwritten.
    """
    b = (len(keys) - 1).bit_length()
    packed_type = np.dtype(np.uint32 if bound << b <= 2**32 else np.uint64)
    packed = (keys.view(packed_type) if keys.dtype.itemsize == packed_type.itemsize
              else keys.astype(packed_type))
    packed <<= b
    packed |= np.arange(len(keys), dtype=packed_type)
    packed.sort()
    packed &= (1 << b) - 1
    return packed


def _run_offsets(lengths: np.ndarray) -> np.ndarray:
    """0, 1, ..., n - 1 for each length n, laid end to end."""
    return np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)


def _tile_groups(counts: np.ndarray):
    """Tiles (indices into counts) in groups, in ascending candidate count:
    each group as many tiles as keep tiles x most candidates x TILE_SIDE^2
    within ROW_BLOCK_VALUES, and at least one."""
    order = np.argsort(counts, kind="stable")
    ranked = counts[order] * (TILE_SIDE * TILE_SIDE)
    start = 0
    while start < len(order):
        blocks = np.arange(1, len(order) - start + 1) * ranked[start:]
        stop = start + max(1, int(np.searchsorted(blocks, ROW_BLOCK_VALUES, side="right")))
        yield order[start:stop]
        start = stop


def _tile_entries(proj: _ViewProjection, view: CameraView):
    """Yield (rows_local, cols, weights) arrays of one view's entries, one
    depth chunk of one tile group at a time; each pixel's entries come out
    front to back.

    A group's tiles share one block laid out as (tiles, rows, columns,
    candidates), the candidates innermost so that every broadcast runs over
    them. A tile's candidate list is padded to the group's longest with a
    slot of radius^2 -1, whose sigma is exactly 0 and whose factor on the
    transmittance exactly 1, and pixels past the view's edge start at
    transmittance 0. Offsets are separable: dx depends on (tile, column,
    candidate) and dy on (tile, row, candidate), so only the cross term is
    formed per pixel, and the block is carried in place from the quadratic
    form to the weights. The candidates run in chunks of DEPTH_CHUNK, each
    starting from the transmittance the chunk before left, so every
    transmittance is the same product, in the same order, as one
    accumulation over all of a tile's candidates. Transmittance never
    rises, so a tile stops once every pixel of it is below
    TRANSMITTANCE_FLOOR.
    """
    side = TILE_SIDE
    ids, counts, cand = _bin_footprints(proj, view)
    tiles_x = -(-view.width // side)
    # Per-candidate values, with the padded slot last: an opaque flat
    # footprint at the origin that the radius cut alone keeps out.
    mean_x, mean_y = np.append(proj.mean_x, 0.0), np.append(proj.mean_y, 0.0)
    conic_a, conic_2b = np.append(proj.conic_a, 0.0), np.append(2.0 * proj.conic_b, 0.0)
    conic_c, alpha = np.append(proj.conic_c, 0.0), np.append(proj.alpha, 1.0)
    r2, planar = np.append(proj.radius**2, -1.0), np.append(proj.is_planar, False)
    prim = np.append(proj.idx, np.int32(0))
    cand = np.append(cand, len(proj.idx))  # the padded slot last
    starts = np.cumsum(counts) - counts
    offsets = np.arange(side)
    for group in _tile_groups(counts):
        slots = np.arange(counts[group[-1]])
        at = np.where(slots < counts[group, None], starts[group, None] + slots, len(cand) - 1)
        slot_cand = cand[at]  # (tiles, slots)
        left = ids[group] % tiles_x * side
        top = ids[group] // tiles_x * side
        xs, ys = left[:, None] + offsets, top[:, None] + offsets  # (tiles, side)
        # int32: _map_views caps a view's pixels below INDEX_LIMIT
        pixel_rows = (ys[:, :, None] * view.width + xs[:, None, :]).ravel().astype(np.int32)
        carry = ((ys < view.height)[:, :, None] & (xs < view.width)[:, None, :]).astype(np.float64)
        xs, ys = xs.astype(np.float64), ys.astype(np.float64)
        for first in range(0, len(slots), DEPTH_CHUNK):
            chunk = slot_cand[:, first:first + DEPTH_CHUNK]
            dx = xs[:, :, None] - mean_x[chunk][:, None, :]  # (tiles, columns, candidates)
            dy = ys[:, :, None] - mean_y[chunk][:, None, :]  # (tiles, rows, candidates)
            dxx, dyy = dx * dx, dy * dy

            # A's bytes depend on this operation order, (a dxx + 2b dx dy) +
            # c dyy, the same as the dense per-pixel kernel's.
            quad = dy[:, :, None, :] * dx[:, None, :, :]
            quad *= conic_2b[chunk][:, None, None, :]
            quad += (conic_a[chunk][:, None, :] * dxx)[:, None, :, :]
            quad += (conic_c[chunk][:, None, :] * dyy)[:, :, None, :]
            quad *= -0.5
            sigma = np.exp(quad, out=quad)
            flat_tile, flat_slot = np.nonzero(planar[chunk])
            if flat_tile.size:
                sigma[flat_tile, :, :, flat_slot] = _planar_delta(
                    proj, chunk[flat_tile, flat_slot, None, None], view,
                    xs[flat_tile, None, :], ys[flat_tile, :, None])
            d2 = dxx[:, None, :, :] + dyy[:, :, None, :]
            sigma *= d2 <= r2[chunk][:, None, None, :]  # sigma is finite and >= 0
            sigma *= alpha[chunk][:, None, None, :]

            # Transmittance in front of each candidate, per pixel, in d2's
            # buffer, and behind the chunk's last one in carry.
            t_prefix = d2
            t_prefix[..., 0] = carry
            np.subtract(1.0, sigma[..., :-1], out=t_prefix[..., 1:])
            np.multiply.accumulate(t_prefix, axis=-1, out=t_prefix)
            carry = t_prefix[..., -1] * (1.0 - sigma[..., -1])
            keep = t_prefix >= TRANSMITTANCE_FLOOR
            omega = np.multiply(sigma, t_prefix, out=sigma)
            keep &= omega >= WEIGHT_EPS
            flat = np.flatnonzero(keep)
            if flat.size:
                k = chunk.shape[1]
                pixel = flat // k
                at = pixel // (side * side) * k + flat - pixel * k  # (tile, slot) in chunk
                yield pixel_rows[pixel], prim[chunk].ravel()[at], omega.ravel()[flat]

            live = (carry >= TRANSMITTANCE_FLOOR).any(axis=(1, 2))
            live &= counts[group] > first + DEPTH_CHUNK
            if not live.any():
                break
            group, slot_cand, carry = group[live], slot_cand[live], carry[live]
            xs, ys = xs[live], ys[live]
            pixel_rows = pixel_rows.reshape(len(live), -1)[live].ravel()


def _build_view(view: CameraView, frame: _SceneFrame):
    """The view's rows of A as (indptr, indices, weights), in (row, depth)
    order; the streaming lift sums them without storing A."""
    proj = _project_scene(frame, view)
    parts = [(np.zeros(0, np.int32), np.zeros(0, np.int32), np.zeros(0)),
             *_tile_entries(proj, view)]
    rows, cols, weights = (np.concatenate(part) for part in zip(*parts))
    del parts
    indptr = np.zeros(view.pixel_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=view.pixel_count), out=indptr[1:])
    # A stable sort keeps each pixel's entries front to back.
    order = _stable_order(rows, view.pixel_count)
    weights = weights[order]  # first, so the unsorted weights go before cols are sorted
    return indptr, cols[order], weights


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
    if max(v.pixel_count for v in views) >= INDEX_LIMIT:
        raise InvalidInputError("a view's pixels exceed the int32 row ids")
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
    ranges, parts = _map_views(scene, views, cfg, threads, _build_view)
    nnz = sum(len(part[2]) for part in parts)
    if nnz >= INDEX_LIMIT:
        raise InvalidInputError(f"A would hold {nnz} entries, past its int32 indices; "
                                "lift --streaming lifts without storing A")
    # A's arrays are filled view by view, each view's dropped once copied.
    indptr = np.zeros(sum(part[0].size - 1 for part in parts) + 1, np.int32)
    indices, weights = np.empty(nnz, np.int32), np.empty(nnz)
    row = at = 0
    for i, (ptr, cols, w) in enumerate(parts):
        parts[i] = None
        indptr[row + 1:row + ptr.size] = ptr[1:]
        indptr[row + 1:row + ptr.size] += at
        indices[at:at + w.size], weights[at:at + w.size] = cols, w
        row, at = row + ptr.size - 1, at + w.size
    matrix = WeightMatrix(indptr, indices, weights, len(scene), ranges, cfg.lam)
    matrix.validate()
    return matrix


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
    # breaks ties toward the lower label. A times the primitives' one-hot
    # labels adds w * 1.0 or w * 0.0 to each label's mass, in storage order.
    ids, column = np.unique(lab, return_inverse=True)
    onehot = np.zeros((A.cols, len(ids)))
    onehot[np.arange(A.cols), column] = 1.0
    mass = A.to_csr() @ onehot
    best = np.argmax(mass, axis=1)
    return np.where(mass[np.arange(A.rows), best] > min_weight, ids[best], -1).astype(np.int64)
