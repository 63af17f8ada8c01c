"""Checks of one pass's outputs, against computations made apart from the
program or against properties the method must have. Every check raises
CheckFailed; none of them runs inside a timed region.

The per-ray reference composites one pixel at a time: EWA projection of
every primitive, front-to-back order by (depth, index), a 3-sigma
footprint, alpha compositing, and the transmittance floor. Its constants
are the method's (LiftConfig defaults), not read from the program.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import scipy.sparse as sp

from fileio import read_cameras, read_csv, read_flt, read_lbl, read_lft, read_pgm_mask, read_ply

LAMBDA = 1.2
NEAR = 1e-3
LOWPASS = 0.3
CUTOFF_SIGMA = 3.0
T_FLOOR = 1e-4
MIN_WEIGHT = 1e-8
EPS_COVERAGE = 1e-8
BORDER = 1e-9          # relative distance to a cut-off that makes a ray ambiguous
MIN_FILTERED_MIOU = 0.95
STREAM_RTOL = 1e-5
SCORE_TOL = 1e-6       # attention sidecars are float32 and thresholds 8-decimal text


class CheckFailed(AssertionError):
    pass


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- per-ray reference -----------------------------------------------------

def _rotations(quats: np.ndarray) -> np.ndarray:
    q = quats / np.linalg.norm(quats, axis=1, keepdims=True)
    w, x, y, z = q.T
    return np.stack([
        np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
        np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], -1),
        np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], -1),
    ], axis=1)


class RayReference:
    def __init__(self, scene: dict, views: list[dict], lam: float = LAMBDA):
        self.scene = scene
        self.views = views
        self.alpha = 1.0 / (1.0 + np.exp(-lam * scene["thetas"]))
        rot = _rotations(scene["quats"])
        s2 = np.exp(2.0 * scene["log_scales"])
        self.cov3d = np.einsum("nij,nj,nkj->nik", rot, s2, rot)
        self._proj = {}
        self.offsets = np.cumsum([0] + [v["width"] * v["height"] for v in views])

    def _project(self, vi: int):
        if vi in self._proj:
            return self._proj[vi]
        v = self.views[vi]
        rot, trans = v["w2c"][:3, :3], v["w2c"][:3, 3]
        pc = self.scene["positions"] @ rot.T + trans
        x, y, z = pc.T
        front = z > NEAR
        zs = np.where(front, z, 1.0)
        jac = np.zeros((len(z), 2, 3))
        jac[:, 0, 0] = v["fx"] / zs
        jac[:, 0, 2] = -v["fx"] * x / zs ** 2
        jac[:, 1, 1] = v["fy"] / zs
        jac[:, 1, 2] = -v["fy"] * y / zs ** 2
        m = jac @ rot
        cov = m @ self.cov3d @ np.transpose(m, (0, 2, 1))
        a, b, c = cov[:, 0, 0] + LOWPASS, cov[:, 0, 1], cov[:, 1, 1] + LOWPASS
        det = a * c - b * b
        keep = front & (det > 1e-12) & (a > 0) & (c > 0)
        lam_max = 0.5 * (a + c) + np.sqrt(np.maximum(0.25 * (a - c) ** 2 + b * b, 0.0))
        idx = np.flatnonzero(keep)
        idx = idx[np.lexsort((idx, z[idx]))]
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = np.stack([v["fx"] * x / zs + v["cx"], v["fy"] * y / zs + v["cy"]], 1)
        proj = (idx, mean[idx], a[idx], b[idx], c[idx], det[idx],
                (CUTOFF_SIGMA ** 2) * lam_max[idx])
        self._proj[vi] = proj
        return proj

    def row(self, global_row: int):
        """(columns, weights, ambiguous) of one ray, front to back."""
        vi = int(np.searchsorted(self.offsets, global_row, side="right") - 1)
        local = global_row - self.offsets[vi]
        width = self.views[vi]["width"]
        py, px = divmod(int(local), width)
        idx, mean, a, b, c, det, r2 = self._project(vi)
        dx, dy = px - mean[:, 0], py - mean[:, 1]
        d2 = dx * dx + dy * dy
        inside = d2 <= r2
        quad = (c * dx * dx - 2.0 * b * dx * dy + a * dy * dy) / det
        sigma = np.where(inside, self.alpha[idx] * np.exp(-0.5 * quad), 0.0)
        trans = np.concatenate([[1.0], np.cumprod(1.0 - sigma)[:-1]])
        omega = np.where(trans >= T_FLOOR, sigma * trans, 0.0)
        kept = omega >= MIN_WEIGHT
        ambiguous = bool(np.any(_near(d2, r2)) or np.any(_near(trans, T_FLOOR) & (sigma > 0))
                         or np.any(_near(omega, MIN_WEIGHT)))
        return idx[kept], omega[kept], ambiguous


def _near(values, cut):
    return np.abs(values - cut) <= BORDER * np.abs(cut)


def check_matrix(A, ref: RayReference, rows) -> int:
    """Weights in (0, 1], row sums <= 1, and the given rows equal the
    per-ray reference. Rays within BORDER of a cut-off are skipped, but at
    least half of the rows must be compared. Returns how many were."""
    w = np.asarray(A.weights)
    require(np.all(np.isfinite(w)) and (w.size == 0 or (w.min() > 0 and w.max() <= 1)),
            "A: a weight lies outside (0, 1]")
    sums = np.add.reduceat(w, A.indptr[:-1]) if w.size else np.zeros(0)
    sums[np.diff(A.indptr) == 0] = 0.0
    require(sums.size == 0 or sums.max() <= 1.0 + 1e-12, f"A: row sum {sums.max()!r} > 1")
    compared = 0
    for r in rows:
        cols, weights, ambiguous = ref.row(int(r))
        if ambiguous:
            continue
        lo, hi = A.indptr[r], A.indptr[r + 1]
        require(np.array_equal(A.indices[lo:hi], cols),
                f"A: row {r} has primitives {A.indices[lo:hi][:8]}..., reference {cols[:8]}...")
        require(np.allclose(A.weights[lo:hi], weights, rtol=1e-9, atol=1e-15),
                f"A: row {r} weights differ from the per-ray reference")
        compared += 1
    require(2 * compared >= len(rows),
            f"A: only {compared} of {len(rows)} sampled rays could be compared")
    return compared


# -- observations and lifts --------------------------------------------------

def label_observations(views, directory: Path, feature_dim: int):
    """(B, observed) of label-backed observations, rows in A's order."""
    blocks, observed = [], []
    for v in views:
        labels = read_lbl(directory / f"{v['id']}.lbl").reshape(-1)
        table = read_lft(directory / f"{v['id']}.lft")
        block = np.zeros((labels.size, feature_dim))
        for label, vec in table.items():
            block[labels == label] = vec
        blocks.append(block)
        observed.append(labels >= 0)
    return np.concatenate(blocks), np.concatenate(observed)


def reference_lift(csr: sp.csr_matrix, B: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """(A_obs^T B) / (A_obs^T 1) with scipy.sparse; zero where unobserved."""
    a_obs = sp.diags(observed.astype(np.float64)) @ csr
    num = np.asarray(a_obs.T @ B)
    cov = np.asarray(a_obs.sum(axis=0)).reshape(-1)
    x = np.zeros_like(num)
    ok = cov >= EPS_COVERAGE
    x[ok] = num[ok] / cov[ok, None]
    return x


def read_field(path) -> np.ndarray:
    return read_flt(path)[:, 0, :].astype(np.float64)


def check_field(path, expected: np.ndarray, what: str) -> np.ndarray:
    got = read_field(path)
    require(got.shape == expected.shape, f"{what}: shape {got.shape} != {expected.shape}")
    err = np.abs(got - expected)
    bad = err > 1e-6 * (np.abs(expected) + np.abs(expected).max())
    require(not bad.any(), f"{what}: {int(bad.sum())} values differ from the scipy lift, "
                           f"by up to {err.max():.3g}")
    return got


# -- pass outputs ------------------------------------------------------------

def csv_value(path, key: str) -> float:
    return float(next(r[1] for r in read_csv(path) if r[0] == key))


def check_masks(seg: Path, gt: Path, queries, views) -> float:
    """Masks equal scores >= threshold; one threshold row per (query, view);
    returns the mIoU recomputed from the PGMs."""
    rows = read_csv(seg / "thresholds.csv")[1:]
    keys = [(r[0], r[1]) for r in rows]
    expected = [(q, v["id"]) for q in queries for v in views]
    require(sorted(keys) == sorted(expected),
            f"{seg.name}/thresholds.csv: {len(keys)} rows, expected one per (query, view)")
    ious = []
    for query, vid, thr, _how in rows:
        stem = seg / f"{query}__{vid}"
        mask = read_pgm_mask(f"{stem}_mask.pgm")
        scores = read_flt(f"{stem}_attention.flt")[:, :, 0].astype(np.float64)
        wrong = (mask != (scores >= float(thr))) & (np.abs(scores - float(thr)) > SCORE_TOL)
        require(not wrong.any(), f"{stem.name}: {int(wrong.sum())} mask pixels disagree "
                                 f"with attention >= {thr}")
    for path in sorted(seg.glob("*_mask.pgm")):
        pred, truth = read_pgm_mask(path), read_pgm_mask(gt / path.name)
        union = np.count_nonzero(pred | truth)
        ious.append(np.count_nonzero(pred & truth) / union if union else 0.0)
    return float(np.mean(ious))


def merged_masks(fix: Path) -> set:
    return {(r[0], int(r[1])) for r in read_csv(fix / "tags.csv")[1:] if r[2] == "merged"}


def dropped_masks(filtered: Path) -> set:
    return {(r[0], int(r[1])) for r in read_csv(filtered / "filter_report.csv")[1:]
            if r[3] == "dropped"}


def mean_cosine(rendered: np.ndarray, B: np.ndarray, observed: np.ndarray) -> float:
    rn, bn = np.linalg.norm(rendered, axis=1), np.linalg.norm(B, axis=1)
    use = observed & (rn > 0) & (bn > 0)
    return float(np.mean(np.sum(rendered[use] * B[use], axis=1) / (rn[use] * bn[use])))


class PassChecker:
    """Checks one workload's pass outputs; A and the inputs are read once."""

    def __init__(self, w, fix: Path, A, seed: int, sample_rays: int = 64):
        self.w, self.fix = w, fix
        self.min_miou = MIN_FILTERED_MIOU
        self.views = read_cameras(fix / "cameras.txt")
        self.A = A
        self.csr = sp.csr_matrix((A.weights, A.indices, A.indptr), shape=(A.rows, A.cols))
        self.ref = RayReference(read_ply(fix / "scene.ply"), self.views)
        rng = np.random.default_rng([seed, 3])
        self.sample = np.sort(rng.choice(A.rows, min(sample_rays, A.rows), replace=False))
        self.B, self.observed = label_observations(self.views, fix / "features", w.feature_dim)
        self.x_raw = reference_lift(self.csr, self.B, self.observed)

    def check_matrix(self, rows=None) -> int:
        return check_matrix(self.A, self.ref, self.sample if rows is None else rows)

    def check_pass(self, out: Path, queries) -> dict:
        w, fix = self.w, self.fix
        x = check_field(out / "field.flt", self.x_raw, "field.flt")
        streamed = read_field(out / "streamed.flt")
        rel = np.abs(streamed - x) / np.maximum(np.abs(x), 1e-12)
        require(rel.max() <= STREAM_RTOL,
                f"streamed.flt: differs from field.flt by {rel.max():.3g} relative")

        rendered = np.concatenate([read_flt(out / "rendered" / f"{v['id']}.flt").reshape(
            v["width"] * v["height"], -1) for v in self.views]).astype(np.float64)
        err = np.abs(rendered - self.csr @ x).max()
        require(err <= 1e-5 * max(np.abs(x).max(), 1e-30),
                f"rendered features differ from A x by {err:.3g}")
        cosine = mean_cosine(rendered, self.B, self.observed)
        require(abs(cosine - csv_value(out / "cosine.csv", "overall")) <= 2e-6,
                f"eval --rendered reports {csv_value(out / 'cosine.csv', 'overall')}, "
                f"recomputed {cosine:.6f}")

        mious = {}
        tags = ["raw"] + ["filt"] * w.cluster_filter
        for tag in tags:
            mious[tag] = check_masks(out / f"seg_{tag}", fix / "gt", queries, self.views)
            reported = csv_value(out / f"miou_{tag}.csv", "mIoU")
            require(abs(mious[tag] - reported) <= 1e-6,
                    f"eval reports mIoU {reported}, recomputed {mious[tag]:.6f}")
        if w.cluster_filter:
            dropped, merged = dropped_masks(out / "filtered"), merged_masks(fix)
            require(dropped == merged,
                    f"cluster-filter dropped {sorted(dropped)}, synth merged {sorted(merged)}")
            B, observed = label_observations(self.views, out / "filtered" / "labels",
                                             w.feature_dim)
            check_field(out / "filtered" / "field.flt",
                        reference_lift(self.csr, B, observed), "filtered/field.flt")
        final = mious["filt" if w.cluster_filter else "raw"]
        require(final >= self.min_miou, f"mIoU {final:.4f} < {self.min_miou}")
        if w.cluster_filter:
            require(mious["filt"] > mious["raw"],
                    f"filtered mIoU {mious['filt']:.4f} does not beat raw {mious['raw']:.4f}")
        return {"miou": final, "mean_cosine": cosine}
