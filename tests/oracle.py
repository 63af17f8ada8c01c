"""Test scenes from plain arrays, a per-ray compositing reference for the
sparse weight matrix, a dense per-tile reference for the rasterizer's tile
kernel, row access to the matrix and its row sums by bincount, dense and
bincount references for label compositing, a global-sort reference for the
duplicate check, table-space sums and lifts for the row-sum lifts, a
per-entry reference for the surrogate gradient, dense references for the
attention scores and the cosine metric, a run-length reference for the
histogram valleys, and the bundled two-blob scene at test sizes.

The reference works one view, one splat and one ray at a time, straight from
the scene arrays: an EWA screen-space covariance per splat (Zwicker et al.,
as in 3DGS), the exact ray-plane hit for planar disks (as in 2DGS), front to
back in (depth, index) order, and the method's cut-offs. The constants below
are the method's, restated here rather than read from the library.
"""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from splatlift import rasterize
from splatlift.model import KernelKind, SplatScene
from splatlift.synthbench import parse_scene_spec

SCENES = Path(__file__).resolve().parent.parent / "scenes"

NEAR_PLANE = 1e-3
WEIGHT_EPS = 1e-8
COV_LOWPASS = 0.3
PLANAR_RADIUS_SLACK = 1.25
KERNEL_CUTOFF_SIGMA = 3.0
TRANSMITTANCE_FLOOR = 1e-4
EPS_COVERAGE = 1e-8


def splat_scene(positions, scales, thetas, kernels=None):
    """Scene of axis-aligned isotropic splats: one position (x, y, z), world
    scale and opacity logit per splat; scales and logits broadcast."""
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    n = len(positions)
    log_scales = np.repeat(np.log(np.broadcast_to(scales, (n,)))[:, None], 3, axis=1)
    return SplatScene(positions, log_scales, np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)),
                      np.broadcast_to(np.asarray(thetas, dtype=np.float64), (n,)), kernels)


def rotation(q):
    """Rotation matrix of one wxyz quaternion."""
    w, x, y, z = np.asarray(q, dtype=np.float64) / math.sqrt(sum(v * v for v in q))
    return np.array([[1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                     [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                     [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])


def sigmoid(z):
    return 1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z))


def footprints(scene, view, cfg):
    """The view's non-culled splats as dicts, sorted by (depth, index)."""
    w2c_rot, w2c_t = view.world_to_camera[:3, :3], view.world_to_camera[:3, 3]
    out = []
    for j in range(len(scene)):
        x, y, z = w2c_rot @ scene.positions[j] + w2c_t
        if z <= NEAR_PLANE:
            continue
        rot = rotation(scene.rotations[j])
        planar = scene.kernels[j] == KernelKind.GAUSSIAN_2D
        var = np.exp(2.0 * scene.log_scales[j])
        if planar:
            var[2] = 0.0
        jac = np.array([[view.fx / z, 0.0, -view.fx * x / z ** 2],
                        [0.0, view.fy / z, -view.fy * y / z ** 2]])
        m = jac @ w2c_rot @ rot
        cov = m @ np.diag(var) @ m.T + COV_LOWPASS * np.eye(2)
        if not (np.linalg.det(cov) > 1e-12 and cov[0, 0] > 0 and cov[1, 1] > 0):
            continue
        radius = KERNEL_CUTOFF_SIGMA * math.sqrt(np.linalg.eigvalsh(cov)[-1])
        out.append(dict(
            index=j, depth=z, mean=(view.fx * x / z + view.cx, view.fy * y / z + view.cy),
            inv_cov=np.linalg.inv(cov), radius=radius * (PLANAR_RADIUS_SLACK if planar else 1.0),
            alpha=sigmoid(cfg.lam * scene.thetas[j]), planar=planar,
            origin=scene.positions[j], axes=rot.T, scales=np.exp(scene.log_scales[j][:2])))
    return sorted(out, key=lambda f: (f["depth"], f["index"]))


def kernel_value(f, pixel, center, direction):
    """Kernel value of footprint f at a pixel and its world ray."""
    d = np.asarray(pixel, dtype=np.float64) - f["mean"]
    if not f["planar"]:
        return math.exp(-0.5 * float(d @ f["inv_cov"] @ d))
    axis_u, axis_v, normal = f["axes"]
    denom = float(direction @ normal)
    if abs(denom) <= 1e-12:
        return 0.0
    t = float((f["origin"] - center) @ normal) / denom
    if t <= NEAR_PLANE:
        return 0.0
    local = center + t * direction - f["origin"]
    u = float(local @ axis_u) / f["scales"][0]
    v = float(local @ axis_v) / f["scales"][1]
    return min(math.exp(-0.5 * (u * u + v * v)), 1.0)


def reference_rows(scene, views, cfg, tol=1e-9):
    """Per ray in row order: (entries, near), where entries lists the kept
    (primitive index, weight) pairs front to back and near says whether the
    ray came within tol (relative) of the radius, transmittance-floor or
    weight cut-off, where rounding may decide the outcome."""
    rows = []
    for view in views:
        fps = footprints(scene, view, cfg)
        center = view.camera_center
        for py in range(view.height):
            for px in range(view.width):
                direction = view.rotation.T @ np.array(
                    [(px - view.cx) / view.fx, (py - view.cy) / view.fy, 1.0])
                transmittance, entries, near = 1.0, [], False
                for f in fps:
                    dx, dy = px - f["mean"][0], py - f["mean"][1]
                    d2, r2 = dx * dx + dy * dy, f["radius"] ** 2
                    near |= abs(d2 - r2) <= tol * r2
                    if d2 > r2:
                        continue
                    sigma = f["alpha"] * kernel_value(f, (px, py), center, direction)
                    weight = sigma * transmittance
                    near |= (abs(transmittance - TRANSMITTANCE_FLOOR)
                             <= tol * TRANSMITTANCE_FLOOR
                             or abs(weight - WEIGHT_EPS) <= tol * WEIGHT_EPS)
                    if transmittance >= TRANSMITTANCE_FLOOR and weight >= WEIGHT_EPS:
                        entries.append((f["index"], weight))
                    transmittance *= 1.0 - sigma
                rows.append((entries, near))
    return rows


def scanned_tiles(proj, view, side):
    """Per tile of the given side, in row-major order, the footprints whose
    disk reaches a pixel of the tile (ascending, which is depth order), by
    testing every footprint against every tile: {tile id: candidates}."""
    w, h = view.width, view.height
    tiles = {}
    for ty0 in range(0, h, side):
        for tx0 in range(0, w, side):
            ex = proj.mean_x - np.clip(proj.mean_x, tx0, min(tx0 + side, w) - 1)
            ey = proj.mean_y - np.clip(proj.mean_y, ty0, min(ty0 + side, h) - 1)
            cand = np.flatnonzero(ex * ex + ey * ey <= proj.radius**2)
            if cand.size:
                tiles[ty0 // side * -(-w // side) + tx0 // side] = cand
    return tiles


def dense_tile_entries(proj, view):
    """The tile kernel on flat (pixels x candidates) arrays: per tile of
    side rasterize.TILE_SIDE, in row-major order, with the
    candidates of scanned_tiles, the (rows_local, cols, weights) of the
    rasterizer's entries for a projected view, pixel-major and front to
    back within a pixel. It evaluates (a dxx + 2b dxy) + c dyy per (pixel,
    candidate) pair and takes each pixel's transmittance with one cumprod
    along its row."""
    if len(proj.idx) == 0:
        return
    w, h, ts = view.width, view.height, rasterize.TILE_SIDE
    r2 = proj.radius**2
    for tile, cand in scanned_tiles(proj, view, ts).items():
        ty0, tx0 = tile // -(-w // ts) * ts, tile % -(-w // ts) * ts
        ty1, tx1 = min(ty0 + ts, h), min(tx0 + ts, w)
        gy, gx = np.mgrid[ty0:ty1, tx0:tx1]
        rows_local = (gy * w + gx).ravel().astype(np.int32)
        px, py = gx.ravel().astype(np.float64), gy.ravel().astype(np.float64)
        dx = px[:, None] - proj.mean_x[cand]
        dy = py[:, None] - proj.mean_y[cand]
        dxx, dxy, dyy = dx * dx, dx * dy, dy * dy

        quad = (proj.conic_a[cand] * dxx + 2.0 * proj.conic_b[cand] * dxy
                + proj.conic_c[cand] * dyy)
        delta = np.exp(-0.5 * quad)
        planar = proj.is_planar[cand]
        if np.any(planar):
            delta[:, planar] = rasterize._planar_delta(proj, cand[planar], view, px[:, None],
                                                          py[:, None])
        sigma = proj.alpha[cand] * np.where(dxx + dyy <= r2[cand], delta, 0.0)

        t_prefix = np.ones_like(sigma)
        np.cumprod(1.0 - sigma[:, :-1], axis=1, out=t_prefix[:, 1:])
        omega = sigma * t_prefix
        keep = (t_prefix >= TRANSMITTANCE_FLOOR) & (omega >= WEIGHT_EPS)
        if not np.any(keep):
            continue
        pk, ck = np.nonzero(keep)
        yield rows_local[pk], proj.idx[cand[ck]], omega[pk, ck]


def row_entries(A, i):
    """Primitive indices and weights of row i of a WeightMatrix, in storage order."""
    lo, hi = A.indptr[i], A.indptr[i + 1]
    return A.indices[lo:hi], A.weights[lo:hi]


def row_sums_reference(A):
    """Each row's weight sum by bincount over the entries' rows, which adds
    a row's weights in storage order starting from 0.0."""
    return np.bincount(np.repeat(np.arange(A.rows), np.diff(A.indptr)), weights=A.weights,
                       minlength=A.rows)


def onehot_label_votes(A, labels, min_weight=0.0):
    """Per-ray label by a dense one-hot product: column 0 is noise (-1) and
    column k + 1 label k; argmax takes the first of equal columns, and a
    ray whose best column holds no more than min_weight maps to -1."""
    labels = np.asarray(labels)
    onehot = np.zeros((len(labels), max(int(labels.max()) + 2, 1)))
    onehot[np.arange(len(labels)), labels + 1] = 1.0
    mass = A.to_csr().toarray() @ onehot
    best = np.argmax(mass, axis=1)
    return np.where(mass[np.arange(len(best)), best] > min_weight, best - 1, -1)


def bincount_label_votes(A, labels, min_weight=0.0):
    """Per-ray label by one bincount over (row, label column) keys, one
    column per distinct label in ascending order: each (ray, label) mass
    adds its weights in storage order from 0.0, argmax takes the lowest of
    equal labels, and a ray whose best mass is not above min_weight maps to
    -1."""
    ids, column = np.unique(np.asarray(labels), return_inverse=True)
    rows = np.repeat(np.arange(A.rows, dtype=np.int64), np.diff(A.indptr))
    mass = np.bincount(rows * len(ids) + column[A.indices], weights=A.weights,
                       minlength=A.rows * len(ids)).reshape(A.rows, len(ids))
    best = np.argmax(mass, axis=1)
    return np.where(mass[np.arange(A.rows), best] > min_weight, ids[best], -1).astype(np.int64)


def first_duplicate_row(A):
    """The lowest row that holds a primitive index twice, or None, by one
    stable sort of the int64 keys row * cols + index over all of A."""
    keys = np.repeat(np.arange(A.rows, dtype=np.int64) * A.cols, np.diff(A.indptr))
    keys += A.indices
    keys.sort(kind="stable")
    dup = np.flatnonzero(keys[1:] == keys[:-1])
    return int(keys[dup[0]] // A.cols) if dup.size else None


def table_sums(A, obs, squared=False):
    """(M, den, coverage) of the row-sum lift (rowsum2 with squared) as
    sequential sums over each view's entries of observed rays, in storage
    order, each from 0.0, and then the views' sums added in view order:
    with w the entries' weights (squared for rowsum2), the dense M[p, k]
    adds w over primitive p's entries on rays observing table row k, den[p]
    adds w and the coverage the plain weights."""
    rows = np.repeat(np.arange(A.rows), np.diff(A.indptr))
    table_row = obs.index[rows]
    total = None
    for start, stop in A.view_ranges.values():
        seen = (table_row >= 0) & (rows >= start) & (rows < stop)
        cols, w = A.indices[seen], A.weights[seen]
        w_eff = w * w if squared else w
        M = np.zeros((A.cols, len(obs.table)))
        np.add.at(M, (cols, table_row[seen]), w_eff)
        den, coverage = np.zeros(A.cols), np.zeros(A.cols)
        np.add.at(den, cols, w_eff)
        np.add.at(coverage, cols, w)
        sums = (M, den, coverage)
        total = sums if total is None else tuple(a + b for a, b in zip(total, sums))
    return total


def table_lift(A, obs, squared=False):
    """The row-sum lift (rowsum2 with squared) as (M T) / den from
    table_sums, with M T the sparse product over each row's table rows in
    ascending order. A primitive with den = 0 or coverage below
    EPS_COVERAGE gets a zero row."""
    M, den, coverage = table_sums(A, obs, squared)
    num = sp.csr_matrix(M) @ obs.table
    kept = (den > 0) & (coverage >= EPS_COVERAGE)
    x = np.zeros_like(num)
    x[kept] = num[kept] / den[kept, None]
    return x


def surrogate_gradient_reference(A, obs, x):
    """grad_j = sum_i A_ij (x_j - B_i) over the observed rays, one entry at
    a time, with B the dense values."""
    B = obs.dense_values()
    grad = np.zeros_like(x)
    for i in np.flatnonzero(obs.observed_mask()):
        for j, w in zip(*row_entries(A, i)):
            grad[j] += w * (x[j] - B[i])
    return grad


def attention_reference(values, unobserved, query):
    """Per-primitive cosine against the unit query over the rows that are
    observed and nonzero, -1 for the others."""
    norms = np.linalg.norm(values, axis=1)
    valid = (norms > 0) & ~unobserved
    scores = np.full(len(values), -1.0)
    scores[valid] = (values[valid] @ query) / norms[valid]
    return scores


def valleys_reference(hist, peak, direction):
    """Interior minima of a histogram scanning from peak, nearest first, by
    a run-length encoding in a Python loop: the (lo, hi) bin span of every
    run of equal values strictly below the runs on either side of it."""
    segment = hist[peak:] if direction > 0 else hist[:peak + 1][::-1]
    runs, start = [], 0
    for i in range(1, len(segment) + 1):
        if i == len(segment) or segment[i] != segment[start]:
            runs.append((segment[start], start, i))
            start = i
    for k in range(1, len(runs) - 1):
        value, start, stop = runs[k]
        if value < runs[k - 1][0] and value < runs[k + 1][0]:
            if direction > 0:
                yield peak + start, peak + stop - 1
            else:
                yield peak - (stop - 1), peak - start


def widened_attention_reference(values, coverage, query, eps_coverage):
    """Scores of a field widened to one float64 array: squared norms by
    einsum, dot products by one matrix-vector product over all rows, -1 for
    rows that are zero or, with a coverage, below eps_coverage."""
    v = np.asarray(values, dtype=np.float64)
    squares = np.einsum("ij,ij->i", v, v)
    unobserved = squares == 0.0 if coverage is None else coverage < eps_coverage
    norms = np.sqrt(squares)
    valid = (norms > 0) & ~unobserved
    scores = v @ query
    np.divide(scores, norms, out=scores, where=valid)
    scores[~valid] = -1.0
    return scores


def dispersion_reference(A, obs, x):
    """Per-ray (mu, beta) on rows renormalized to sum 1, with one F-wide
    difference x_j - B_i per observed entry."""
    rows = np.repeat(np.arange(A.rows), np.diff(A.indptr))
    keep = obs.index[rows] >= 0
    rows, cols, weights = rows[keep], A.indices[keep], A.weights[keep]
    norm_w = weights / A.row_sums()[rows]
    delta = np.linalg.norm(x[cols] - obs.table[obs.index[rows]], axis=1)
    mu = np.bincount(rows, weights=norm_w * delta, minlength=A.rows)
    m2 = np.bincount(rows, weights=norm_w * delta * delta, minlength=A.rows)
    var = np.maximum(m2 - mu * mu, 0.0)
    ok = mu >= 1e-12
    beta = np.zeros(A.rows)
    beta[ok] = var[ok] / (mu[ok] * mu[ok])
    return mu, beta


def cosine_reference(rendered, obs):
    """(mean cosine, rays used, rays excluded) of rendered rows against the
    dense ground truth: observed rays whose rendered and true vectors are both
    nonzero are used, the other observed rays are excluded."""
    rendered = np.asarray(rendered, dtype=np.float64)
    gt = obs.dense_values()
    observed = obs.observed_mask()
    rn = np.linalg.norm(rendered, axis=1)
    gn = np.linalg.norm(gt, axis=1)
    usable = observed & (rn > 0) & (gn > 0)
    cos = np.sum(rendered[usable] * gt[usable], axis=1) / (rn[usable] * gn[usable])
    return (float(cos.mean()), int(np.count_nonzero(usable)),
            int(np.count_nonzero(observed) - np.count_nonzero(usable)))


def two_blob_spec(noise_fraction=0.0, seed=7, resolution=80, views=10):
    """scenes/two_blob.ini with this merged-mask fraction and seed, and this
    many square views of resolution pixels at focal 1.05 * resolution."""
    spec = parse_scene_spec((SCENES / "two_blob.ini").read_text())
    orbit = replace(spec.views, count=views, width=resolution, height=resolution,
                    focal=1.05 * resolution)
    return replace(spec, seed=seed, views=orbit, noise=replace(spec.noise, fraction=noise_fraction))
