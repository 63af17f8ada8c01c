"""Closed-form lifting solvers, convex losses, dispersion statistics, and a
dense least-squares oracle for desk-scale ground truth.

The central object is the linear system  A x = B  where A holds compositing
weights (rays x primitives) and B per-ray observations; the row-sum lift
x_j = sum_i A_ij B_i / sum_i A_ij is the stationary point of the per-entry
surrogate loss and is computed without any iterative optimization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .model import InvalidInputError, LiftConfig, SplatScene
from .rasterize import WeightMatrix, _map_views, iter_view_entries, view_ranges

EPS_COVERAGE = 1e-8
ORACLE_MAX_PRIMITIVES = 5000
ORACLE_DAMPING = 1e-10
LIFT_MODES = ("rowsum", "rowsum2")


class InvariantViolation(RuntimeError):
    """A provable inequality failed to hold numerically."""


@dataclass(frozen=True)
class FeatureField:
    """Per-primitive lifted features plus accumulated weight mass.

    Primitives whose accumulated weight (coverage) falls below EPS_COVERAGE
    are flagged unobserved and zero-filled rather than NaN so that
    downstream clustering can treat them as noise. A lift also keeps its
    table weights: values = table_weights @ T for the observations' feature
    table T, one sparse row per primitive, empty where values are zero-filled.
    """

    values: np.ndarray
    coverage: np.ndarray | None = None
    table_weights: sp.csr_matrix | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim == 1:
            v = v[:, None]
        if not np.all(np.isfinite(v)):
            raise InvalidInputError("feature values must be finite")
        object.__setattr__(self, "values", v)
        if self.coverage is not None:
            c = np.asarray(self.coverage, dtype=np.float64).reshape(-1)
            if c.shape[0] != v.shape[0]:
                raise InvalidInputError("coverage length must match primitive count")
            object.__setattr__(self, "coverage", c)
        if self.table_weights is not None and self.table_weights.shape[0] != v.shape[0]:
            raise InvalidInputError("table weights need one row per primitive")

    @property
    def count(self) -> int:
        return self.values.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.values.shape[1]

    @property
    def unobserved(self) -> np.ndarray:
        if self.coverage is not None:
            return self.coverage < EPS_COVERAGE
        return np.einsum("ij,ij->i", self.values, self.values) == 0.0


class ObservationSet:
    """Per-ray observations aligned row-for-row with a WeightMatrix.

    One backing serves every input: a feature table (K x F) and a per-ray
    index into it, -1 for a ray with no observation. A dense tensor is one
    table row per ray. Mask-style inputs (a per-view label map plus a
    label -> feature table) are one row per (view, label), and labels
    holds each row's label; the lifts then accumulate
    (A_obs^T L) T without materializing the R x F value matrix.
    """

    def __init__(self, ranges, shapes, table, index, labels=None):
        self.view_ranges = dict(ranges)
        self.view_shapes = dict(shapes)
        self.table = np.asarray(table, dtype=np.float64)
        self.index = np.asarray(index, dtype=np.int64)
        self.labels = None if labels is None else np.asarray(labels, dtype=np.int32)
        self.feature_dim = self.table.shape[1]
        self.rows = self.index.shape[0]

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_dense(cls, views, values_by_view) -> "ObservationSet":
        ranges = view_ranges(views)
        shapes = {v.view_id: (v.height, v.width) for v in views}
        blocks = []
        for v in views:
            if v.view_id not in values_by_view:
                raise InvalidInputError(f"missing observations for view {v.view_id!r}")
            arr = np.asarray(values_by_view[v.view_id], dtype=np.float64)
            if arr.ndim == 3:
                arr = arr.reshape(-1, arr.shape[2])
            if arr.shape[0] != v.pixel_count:
                raise InvalidInputError(
                    f"view {v.view_id!r}: {arr.shape[0]} rows != {v.pixel_count} pixels")
            if blocks and arr.shape[1] != blocks[0].shape[1]:
                raise InvalidInputError("inconsistent feature dimension across views")
            blocks.append(arr)
        table = np.concatenate(blocks)
        return cls(ranges, shapes, table, np.arange(len(table)))

    @classmethod
    def from_labels(cls, views, labels_by_view, features_by_view) -> "ObservationSet":
        ranges = view_ranges(views)
        shapes = {v.view_id: (v.height, v.width) for v in views}
        fdim = None
        vectors, index, labels = [], [], []
        for v in views:
            if v.view_id not in labels_by_view or v.view_id not in features_by_view:
                raise InvalidInputError(f"missing label map or table for view {v.view_id!r}")
            lab = np.asarray(labels_by_view[v.view_id], dtype=np.int32).reshape(-1)
            if lab.shape[0] != v.pixel_count:
                raise InvalidInputError(
                    f"view {v.view_id!r}: label map size {lab.shape[0]} != {v.pixel_count}")
            table = {int(k): np.asarray(f, dtype=np.float64).reshape(-1)
                     for k, f in features_by_view[v.view_id].items()}
            present = set(int(u) for u in np.unique(lab) if u >= 0)
            missing = present - set(table)
            if missing:
                raise InvalidInputError(
                    f"view {v.view_id!r}: labels {sorted(missing)} missing from feature table")
            for vec in table.values():
                if fdim is None:
                    fdim = vec.shape[0]
                elif vec.shape[0] != fdim:
                    raise InvalidInputError("inconsistent feature dimension in label tables")
            ids = sorted(table)
            index.append(np.where(lab >= 0, len(labels) + np.searchsorted(ids, lab), -1))
            vectors += [table[k] for k in ids]
            labels += ids
        if fdim is None:
            raise InvalidInputError("no labeled features present in any view")
        return cls(ranges, shapes, np.stack(vectors), np.concatenate(index), labels=labels)

    # -- accessors --------------------------------------------------------

    @property
    def label_backed(self) -> bool:
        return self.labels is not None

    def observed_mask(self) -> np.ndarray:
        return self.index >= 0

    def dense_values(self) -> np.ndarray:
        """Materialized (R, F) value matrix; rays without an observation are zero rows."""
        out = np.zeros((self.rows, self.feature_dim))
        observed = self.index >= 0
        out[observed] = self.table[self.index[observed]]
        return out

    def _view_rows(self, view_id: str) -> np.ndarray:
        if not self.label_backed:
            raise InvalidInputError("observations are not label-backed")
        start, stop = self.view_ranges[view_id]
        return self.index[start:stop]

    def view_label_map(self, view_id: str) -> np.ndarray:
        """The view's (H, W) label map; -1 where a ray has no observation."""
        rows = self._view_rows(view_id)
        return np.where(rows >= 0, self.labels[rows], -1).reshape(self.view_shapes[view_id])

    def view_label_table(self, view_id: str) -> dict:
        """{label: feature vector} of the labels still present in the view."""
        rows = self._view_rows(view_id)
        return {int(self.labels[k]): self.table[k] for k in np.unique(rows[rows >= 0])}

    def masked(self, keep_rows: np.ndarray) -> "ObservationSet":
        """Copy with observations outside keep_rows removed."""
        keep = np.asarray(keep_rows, dtype=bool)
        if keep.shape[0] != self.rows:
            raise InvalidInputError("row mask length mismatch")
        return ObservationSet(self.view_ranges, self.view_shapes, self.table,
                              np.where(keep, self.index, -1), self.labels)


def _check_alignment(A: WeightMatrix, obs: ObservationSet) -> None:
    if A.rows != obs.rows or A.view_ranges != obs.view_ranges:
        raise InvalidInputError("weight matrix and observations are not view-aligned")


def _observed_entries(A: WeightMatrix, obs: ObservationSet):
    """Flat (rows, cols, weights) triplets restricted to observed rays."""
    _check_alignment(A, obs)
    rows = A.entry_rows()
    mask = obs.observed_mask()[rows]
    return rows[mask], A.indices[mask], A.weights[mask]


def _accumulate(rows, cols, weights, obs: ObservationSet, P, squared):
    """Lift sums over weight entries, in table space: M = W^T L, den = W^T 1
    and cov = A^T 1.

    W holds the entries' weights (squared for rowsum2; den is cov otherwise)
    and L is the ray-to-table-row indicator of obs.index, so the lift's
    numerator W^T B is M T for B = L T. M is a sparse P x K matrix; sums of
    M over views stay K wide, and _finish applies T once.
    """
    cov = np.bincount(cols, weights=weights, minlength=P)
    w_eff = weights * weights if squared else weights
    den = np.bincount(cols, weights=w_eff, minlength=P) if squared else cov
    M = sp.csr_matrix((w_eff, (cols, obs.index[rows])), shape=(P, len(obs.table)))
    return M, den, cov


def _finish(M, den, cov, table) -> FeatureField:
    """values = (M T) / den and table weights diag(1/den) M; primitives with
    den = 0 or coverage below EPS_COVERAGE get zero rows in both."""
    solvable = den > 0
    if not np.any(solvable):
        raise InvalidInputError("no observations: every observed ray has an empty weight row")
    kept = solvable & (cov >= EPS_COVERAGE)
    values = M @ table
    np.divide(values, den[:, None], out=values, where=kept[:, None])
    values[~kept] = 0.0
    scale = np.divide(1.0, den, out=np.zeros_like(den), where=kept)
    return FeatureField(values=values, coverage=cov, table_weights=sp.diags(scale) @ M)


def _squared(mode: str) -> bool:
    """Whether a lift mode weights entries by A_ij^2 (rowsum2), not A_ij (rowsum)."""
    if mode not in LIFT_MODES:
        raise InvalidInputError(
            f"unknown lift mode {mode!r} (expected one of {', '.join(LIFT_MODES)})")
    return mode == "rowsum2"


def lift_rowsum(A: WeightMatrix, obs: ObservationSet, mode: str = "rowsum") -> FeatureField:
    """Closed-form lift x_j = sum_i W_ij B_i / sum_i W_ij over observed rays.

    W_ij = A_ij for mode rowsum and A_ij^2 for rowsum2, which is the same
    where every weight is 1 and sharper otherwise (front-loaded weights
    dominate) on an A built with the polarized activation.
    """
    sums = _accumulate(*_observed_entries(A, obs), obs, A.cols, _squared(mode))
    return _finish(*sums, obs.table)


def lift_streaming(scene: SplatScene, views, obs: ObservationSet,
                   cfg: LiftConfig | None = None, mode: str = "rowsum",
                   threads: int = 1) -> FeatureField:
    """Accumulate the row-sum lift during rasterization without storing A.

    Each view's observed entries are gathered from its tiles and accumulated
    at once, and the per-view sums (K wide, see _accumulate) are added in
    view order, so the result does not depend on the thread count. Matches
    the matrix path within accumulation-order tolerance (1e-5 relative at
    desk scale).
    """
    squared = _squared(mode)
    cfg = cfg or LiftConfig()

    def accumulate_view(view, frame):
        start, _ = obs.view_ranges[view.view_id]
        tiles = [(np.zeros(0, np.int64), np.zeros(0, np.int32), np.zeros(0)),
                 *iter_view_entries(frame, view)]
        rows, cols, weights = (np.concatenate(parts) for parts in zip(*tiles))
        rows += start
        keep = obs.index[rows] >= 0
        P = len(scene)  # runs after _map_views has checked the scene
        return _accumulate(rows[keep], cols[keep], weights[keep], obs, P, squared)

    _, parts = _map_views(scene, views, cfg, threads, accumulate_view,
                          expected_ranges=obs.view_ranges)
    M, den, cov = (sum(view_sums) for view_sums in zip(*parts))
    return _finish(M, den, cov, obs.table)


# -- convex losses ---------------------------------------------------------

_NORMS = ("l1", "l2", "huber")


def _scalar_phi(values: np.ndarray, norm: str, huber_delta: float) -> np.ndarray:
    if norm == "l2":
        return values * values
    if norm == "l1":
        return np.abs(values)
    a = np.abs(values)
    return np.where(a <= huber_delta, 0.5 * a * a, huber_delta * (a - 0.5 * huber_delta))


def _solution_values(A: WeightMatrix, obs: ObservationSet, x: np.ndarray) -> np.ndarray:
    """x as a float64 (primitives, features) array, checked against A and obs."""
    xv = np.asarray(x, dtype=np.float64)
    if xv.shape != (A.cols, obs.feature_dim):
        raise InvalidInputError(
            f"solution shape {xv.shape} does not match ({A.cols}, {obs.feature_dim})")
    return xv


def _loss_pair_rows(A: WeightMatrix, obs: ObservationSet, x: np.ndarray,
                    norm: str, huber_delta: float):
    """Per-row true and surrogate losses over observed rays.

    Both losses accumulate per-entry products w_j * (x_j - B_i) through the
    same per-channel route, so that when a row's residual terms share a sign
    (the Jensen equality case under L1) the two row losses are bitwise equal
    and the inequality cannot flip from summation-order noise. The composited
    residual is reconstructed as sum_j w_j (x_j - B_i) + (s_i - 1) B_i, which
    equals (A x)_i - B_i identically in the row sum s_i.
    """
    if norm not in _NORMS:
        raise InvalidInputError(f"unknown norm {norm!r} (expected l1, l2, or huber)")
    xv = _solution_values(A, obs, x)
    mask = obs.observed_mask()
    rows, cols, weights = _observed_entries(A, obs)
    entry_rows, ray_rows = obs.index[rows], obs.index[mask]
    sums = A.row_sums()[mask]
    n_rows = A.rows
    true_rows = np.zeros(len(ray_rows))
    surr_rows = np.zeros(n_rows)
    for c in range(obs.feature_dim):
        B_c = obs.table[:, c]
        v = xv[cols, c] - B_c[entry_rows]
        t = weights * v
        resid_c = np.bincount(rows, weights=t, minlength=n_rows)[mask]
        resid_c += (sums - 1.0) * B_c[ray_rows]
        true_rows += _scalar_phi(resid_c, norm, huber_delta)
        if norm == "l1":
            surr_rows += np.bincount(rows, weights=np.abs(t), minlength=n_rows)
        elif norm == "l2":
            surr_rows += np.bincount(rows, weights=t * v, minlength=n_rows)
        else:
            # Split the Huber branches so a row lying entirely in the linear
            # region reproduces the true loss bitwise (the equality case).
            a = np.abs(v)
            lin = a > huber_delta
            quad = np.bincount(rows, weights=np.where(lin, 0.0, weights * (0.5 * a * a)),
                               minlength=n_rows)
            sv_lin = np.bincount(rows, weights=np.where(lin, np.abs(t), 0.0),
                                 minlength=n_rows)
            s_lin = np.bincount(rows, weights=np.where(lin, weights, 0.0),
                                minlength=n_rows)
            surr_rows += quad + huber_delta * (sv_lin - (0.5 * huber_delta) * s_lin)
    return true_rows, surr_rows[mask]


def loss_true(A: WeightMatrix, obs: ObservationSet, x: np.ndarray, norm: str = "l2",
              huber_delta: float = 1.0) -> float:
    """Composited residual loss sum_i phi((A x)_i - B_i) over observed rays.

    L2 is squared (Frobenius convention); L1 and Huber apply elementwise over
    feature channels and are unsquared.
    """
    true_rows, _ = _loss_pair_rows(A, obs, x, norm, huber_delta)
    return float(np.sum(true_rows))


def loss_surrogate(A: WeightMatrix, obs: ObservationSet, x: np.ndarray, norm: str = "l2",
                   huber_delta: float = 1.0) -> float:
    """Per-entry surrogate sum_i sum_j A_ij phi(x_j - B_i) over observed rays.

    For row sums equal to 1 this upper-bounds loss_true for any convex phi
    (Jensen's inequality applied per ray).
    """
    _, surr_rows = _loss_pair_rows(A, obs, x, norm, huber_delta)
    return float(np.sum(surr_rows))


def surrogate_gradient(A: WeightMatrix, obs: ObservationSet, x: np.ndarray) -> np.ndarray:
    """Gradient of the L2 surrogate: grad_j = sum_i A_ij (x_j - B_i) =
    cov_j x_j - (M T)_j, from the row-sum lift's own sums (see _accumulate)."""
    xv = _solution_values(A, obs, x)
    M, _, cov = _accumulate(*_observed_entries(A, obs), obs, A.cols, squared=False)
    return cov[:, None] * xv - M @ obs.table


def beta(A: WeightMatrix, obs: ObservationSet, x_hat: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-ray relative dispersion of distances to the lifted features.

    Rows are renormalized to sum 1 before computing the weighted mean mu_i
    and variance sigma_i^2 of Delta_ij = ||x_j - B_i|| so that the identity
    J = sum (1 + beta_i) mu_i^2 holds to machine precision; rays with zero
    weight mass (or mu_i < 1e-12) contribute beta_i = 0.
    """
    _, beta_rows = _row_dispersion(A, obs, x_hat)
    return beta_rows, float(beta_rows.max(initial=0.0))


def _row_dispersion(A: WeightMatrix, obs: ObservationSet, x_hat: np.ndarray):
    """Per-ray (mu_i, beta_i) of beta, on rows renormalized to sum 1."""
    xv = _solution_values(A, obs, x_hat)
    if not np.all(np.isfinite(xv)):
        raise InvalidInputError("x_hat must be finite")
    rows, cols, weights = _observed_entries(A, obs)
    norm_w = weights / A.row_sums()[rows]
    delta = np.linalg.norm(xv[cols] - obs.table[obs.index[rows]], axis=1)
    mu = np.bincount(rows, weights=norm_w * delta, minlength=A.rows)
    m2 = np.bincount(rows, weights=norm_w * delta * delta, minlength=A.rows)
    var = np.maximum(m2 - mu * mu, 0.0)
    ok = mu >= 1e-12
    beta_rows = np.zeros(A.rows)
    beta_rows[ok] = var[ok] / (mu[ok] * mu[ok])
    return mu, beta_rows


def lsq_oracle(A: WeightMatrix, obs: ObservationSet) -> FeatureField:
    """Dense least-squares ground truth: minimizes ||A x - B||_F^2 per channel.

    Solves the normal equations through a symmetric eigendecomposition with
    eigenvalues below 1e-10 (relative to the largest) treated as zero, which
    returns the minimum-norm solution deterministically when A is
    rank-deficient or nearly so. Desk scale only (P <= 5000).
    """
    _check_alignment(A, obs)
    if A.cols > ORACLE_MAX_PRIMITIVES:
        raise InvalidInputError(
            f"oracle limited to {ORACLE_MAX_PRIMITIVES} primitives (got {A.cols}); "
            "sub-sample rays or primitives first")
    mask = obs.observed_mask()
    csr = A.to_csr()[np.flatnonzero(mask)]
    B = obs.table[obs.index[mask]]
    gram = (csr.T @ csr).toarray()
    rhs = csr.T @ B
    eigvals, eigvecs = np.linalg.eigh(gram)
    cutoff = ORACLE_DAMPING * max(eigvals[-1], 0.0)
    inv = np.where(eigvals > cutoff, 1.0 / np.where(eigvals > cutoff, eigvals, 1.0), 0.0)
    x = eigvecs @ (inv[:, None] * (eigvecs.T @ rhs))
    coverage = np.asarray(csr.sum(axis=0)).reshape(-1)
    return FeatureField(values=x, coverage=coverage)


@dataclass(frozen=True)
class BoundReport:
    """Losses of the row-sum lift against the least-squares optimum.

    All quantities are computed on the row-normalized system (rows rescaled
    to sum 1) so the chain  L(rowsum) <= J(rowsum) <= J(opt)  is provable;
    the chain is asserted on construction. The looser comparison of
    L(rowsum) against (1 + beta) L(opt) is reported, not asserted. The
    per-row mu_i and beta_i (see beta) give J(opt) = sum (1 + beta_i) mu_i^2.
    """

    loss_true_rowsum: float
    loss_surrogate_rowsum: float
    loss_surrogate_opt: float
    loss_true_opt: float
    beta: float
    beta_per_row: np.ndarray
    mu_per_row: np.ndarray
    ratio: float

    def __post_init__(self):
        # Guard at a few ulps: on generic instances the chain holds exactly,
        # but constructed ties (identical per-entry residuals) can flip by
        # rounding noise without any real violation.
        guard = 1e-12
        if not (self.loss_true_rowsum <= self.loss_surrogate_rowsum * (1 + guard) + 1e-300
                and self.loss_surrogate_rowsum <= self.loss_surrogate_opt * (1 + guard) + 1e-300):
            raise InvariantViolation(
                "loss chain violated: "
                f"L(rowsum)={self.loss_true_rowsum!r} <= "
                f"J(rowsum)={self.loss_surrogate_rowsum!r} <= "
                f"J(opt)={self.loss_surrogate_opt!r} does not hold")
        # L(opt) comes from normal equations solved in floating point, with
        # eigenvalues below ORACLE_DAMPING (relative) dropped, so it is only
        # near-optimal: forming the Gram matrix squares the condition number,
        # and dropping a small eigenvalue gives up its share of the fit. That
        # error shows when the true gap is zero (rank-deficient systems where
        # the row-sum lift is optimal), hence the relative slack.
        if self.loss_true_opt > self.loss_true_rowsum * (1 + 1e-8) + 1e-30:
            raise InvariantViolation(
                f"oracle dominance violated: L(opt)={self.loss_true_opt!r} > "
                f"L(rowsum)={self.loss_true_rowsum!r}")


def bound_report(A: WeightMatrix, obs: ObservationSet) -> BoundReport:
    """Compare the row-sum lift with the least-squares optimum under L2.

    The report is taken over the covered observed rays: a ray with no
    entries composites to 0 for every x, so its -B_i residual enters L and
    no term of J, and the chain holds only for rows that sum to 1.
    L(opt) <= 1e-12 ||B_obs||_F^2 is an exact fit, the oracle's rounding
    residual: the ratio is then inf, or 1 if L(rowsum) is at that floor too.
    """
    _check_alignment(A, obs)
    obs = obs.masked(A.covered_rows())
    An = A.row_normalized()
    x_rowsum = lift_rowsum(An, obs).values
    x_opt = lsq_oracle(An, obs).values
    l_rowsum, j_rowsum = (float(np.sum(r)) for r in _loss_pair_rows(An, obs, x_rowsum, "l2", 1))
    l_opt, j_opt = (float(np.sum(r)) for r in _loss_pair_rows(An, obs, x_opt, "l2", 1))
    mu_rows, beta_rows = _row_dispersion(An, obs, x_opt)
    fit_floor = 1e-12 * float(np.sum(obs.table[obs.index[obs.observed_mask()]] ** 2))
    if l_opt <= fit_floor:
        ratio = 1.0 if l_rowsum <= fit_floor else math.inf
    else:
        ratio = l_rowsum / l_opt
    return BoundReport(
        loss_true_rowsum=l_rowsum,
        loss_surrogate_rowsum=j_rowsum,
        loss_surrogate_opt=j_opt,
        loss_true_opt=l_opt,
        beta=float(beta_rows.max(initial=0.0)),
        beta_per_row=beta_rows,
        mu_per_row=mu_rows,
        ratio=ratio,
    )
