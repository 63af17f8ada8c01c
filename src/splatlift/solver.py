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
from .rasterize import WeightMatrix, iter_view_entries, view_ranges

EPS_COVERAGE = 1e-8
ORACLE_MAX_PRIMITIVES = 5000
ORACLE_DAMPING = 1e-10


class InvariantViolation(RuntimeError):
    """A provable inequality failed to hold numerically."""


@dataclass(frozen=True)
class FeatureField:
    """Per-primitive lifted features plus accumulated weight mass.

    Primitives whose accumulated weight (coverage) falls below EPS_COVERAGE
    are flagged unobserved and zero-filled rather than NaN so that
    downstream clustering can treat them as noise.
    """

    values: np.ndarray
    coverage: np.ndarray | None = None
    lambda_used: float | None = None

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
        return np.linalg.norm(self.values, axis=1) == 0.0


class ObservationSet:
    """Per-ray observations aligned row-for-row with a WeightMatrix.

    The value matrix may be dense or virtual (a per-view label map plus a
    label -> feature table, the natural carrier for mask-style inputs).
    Rays labeled -1 carry no observation and are excluded from solving.
    """

    def __init__(self, ranges, shapes, feature_dim, dense=None, labels=None,
                 label_features=None, observed=None):
        self.view_ranges = dict(ranges)
        self.view_shapes = dict(shapes)
        self.feature_dim = int(feature_dim)
        self.rows = max((stop for _, stop in self.view_ranges.values()), default=0)
        self.labels = labels
        self.label_features = label_features
        self._dense = dense
        self._observed = observed
        self._dense_cache = None
        if (dense is None) == (labels is None):
            raise InvalidInputError("observations need exactly one backing: dense or labels")
        if labels is not None and label_features is None:
            raise InvalidInputError("label-backed observations need a label feature table")

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_dense(cls, views, values_by_view) -> "ObservationSet":
        ranges = view_ranges(views)
        shapes = {v.view_id: (v.height, v.width) for v in views}
        fdim = None
        dense = {}
        for v in views:
            if v.view_id not in values_by_view:
                raise InvalidInputError(f"missing observations for view {v.view_id!r}")
            arr = np.asarray(values_by_view[v.view_id], dtype=np.float64)
            if arr.ndim == 3:
                arr = arr.reshape(-1, arr.shape[2])
            if arr.shape[0] != v.pixel_count:
                raise InvalidInputError(
                    f"view {v.view_id!r}: {arr.shape[0]} rows != {v.pixel_count} pixels")
            if fdim is None:
                fdim = arr.shape[1]
            elif arr.shape[1] != fdim:
                raise InvalidInputError("inconsistent feature dimension across views")
            dense[v.view_id] = arr
        return cls(ranges, shapes, fdim, dense=dense)

    @classmethod
    def from_labels(cls, views, labels_by_view, features_by_view) -> "ObservationSet":
        ranges = view_ranges(views)
        shapes = {v.view_id: (v.height, v.width) for v in views}
        fdim = None
        labels = {}
        tables = {}
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
            labels[v.view_id] = lab
            tables[v.view_id] = table
        if fdim is None:
            raise InvalidInputError("no labeled features present in any view")
        return cls(ranges, shapes, fdim, labels=labels, label_features=tables)

    # -- accessors --------------------------------------------------------

    @property
    def label_backed(self) -> bool:
        return self.labels is not None

    def observed_mask(self) -> np.ndarray:
        mask = np.ones(self.rows, dtype=bool)
        if self.labels is not None:
            for vid, (start, stop) in self.view_ranges.items():
                mask[start:stop] = self.labels[vid] >= 0
        if self._observed is not None:
            mask &= self._observed
        return mask

    def dense_values(self) -> np.ndarray:
        """Materialized (R, F) value matrix; unlabeled rays are zero rows."""
        if self._dense_cache is None:
            out = np.zeros((self.rows, self.feature_dim))
            if self._dense is not None:
                for vid, (start, stop) in self.view_ranges.items():
                    out[start:stop] = self._dense[vid]
            else:
                for vid, (start, stop) in self.view_ranges.items():
                    lab = self.labels[vid]
                    table = self.label_features[vid]
                    if table:
                        ids = np.array(sorted(table), dtype=np.int64)
                        vecs = np.stack([table[int(i)] for i in ids])
                        pos = np.searchsorted(ids, lab[lab >= 0])
                        block = np.zeros((stop - start, self.feature_dim))
                        block[lab >= 0] = vecs[pos]
                        out[start:stop] = block
            self._dense_cache = out
        return self._dense_cache

    def view_label_map(self, view_id: str) -> np.ndarray:
        if self.labels is None:
            raise InvalidInputError("observations are not label-backed")
        h, w = self.view_shapes[view_id]
        return self.labels[view_id].reshape(h, w)

    def masked(self, keep_rows: np.ndarray) -> "ObservationSet":
        """Copy with observations outside keep_rows removed."""
        keep = np.asarray(keep_rows, dtype=bool)
        if keep.shape[0] != self.rows:
            raise InvalidInputError("row mask length mismatch")
        if self.labels is not None:
            labels = {}
            tables = {}
            for vid, (start, stop) in self.view_ranges.items():
                lab = self.labels[vid].copy()
                lab[~keep[start:stop]] = -1
                labels[vid] = lab
                present = set(int(u) for u in np.unique(lab) if u >= 0)
                tables[vid] = {k: v for k, v in self.label_features[vid].items() if k in present}
            return ObservationSet(self.view_ranges, self.view_shapes, self.feature_dim,
                                  labels=labels, label_features=tables)
        observed = self.observed_mask() & keep
        return ObservationSet(self.view_ranges, self.view_shapes, self.feature_dim,
                              dense=self._dense, observed=observed)

    def drop_view_labels(self, drops) -> "ObservationSet":
        """Copy with every (view_id, label) pair in drops removed."""
        if self.labels is None:
            raise InvalidInputError("observations are not label-backed")
        drops = set(drops)
        labels = {}
        tables = {}
        for vid, (start, stop) in self.view_ranges.items():
            lab = self.labels[vid].copy()
            for key in [d for d in drops if d[0] == vid]:
                lab[lab == key[1]] = -1
            labels[vid] = lab
            present = set(int(u) for u in np.unique(lab) if u >= 0)
            tables[vid] = {k: v for k, v in self.label_features[vid].items() if k in present}
        return ObservationSet(self.view_ranges, self.view_shapes, self.feature_dim,
                              labels=labels, label_features=tables)


def _check_alignment(A: WeightMatrix, obs: ObservationSet) -> None:
    if A.rows != obs.rows or A.view_ranges != obs.view_ranges:
        raise InvalidInputError("weight matrix and observations are not view-aligned")


def _observed_entries(A: WeightMatrix, obs: ObservationSet):
    """Flat (rows, cols, weights) triplets restricted to observed rays."""
    _check_alignment(A, obs)
    reps = np.diff(A.indptr)
    rows = np.repeat(np.arange(A.rows), reps)
    mask = obs.observed_mask()[rows]
    return rows[mask], A.indices[mask], A.weights[mask]


def _accumulate(rows, cols, weights, B, P, squared):
    """Lift sums over weight entries: num = W^T B, den = W^T 1, cov = A^T 1.

    W holds the entries' weights (squared for rowsum2), laid out as a sparse
    P x R matrix so that num is one sparse-dense product over all channels.
    """
    w_eff = weights * weights if squared else weights
    cov = np.bincount(cols, weights=weights, minlength=P)
    den = np.bincount(cols, weights=w_eff, minlength=P)
    num = sp.csr_matrix((w_eff, (cols, rows)), shape=(P, B.shape[0])) @ B
    return num, den, cov


def _finish(num, den, cov, lam) -> FeatureField:
    """Divide the lift sums; primitives below EPS_COVERAGE are zero-filled."""
    solvable = den > 0
    if not np.any(solvable):
        raise InvalidInputError("no observations: every observed ray has an empty weight row")
    values = np.zeros_like(num)
    values[solvable] = num[solvable] / den[solvable, None]
    values[cov < EPS_COVERAGE] = 0.0
    return FeatureField(values=values, coverage=cov, lambda_used=lam)


def lift_rowsum(A: WeightMatrix, obs: ObservationSet) -> FeatureField:
    """Closed-form lift x_j = sum_i A_ij B_i / sum_i A_ij over observed rays."""
    sums = _accumulate(*_observed_entries(A, obs), obs.dense_values(), A.cols, squared=False)
    return _finish(*sums, A.lambda_used)


def lift_rowsum_squared(A: WeightMatrix, obs: ObservationSet) -> FeatureField:
    """Squared-weight variant x_j = sum_i A_ij^2 B_i / sum_i A_ij^2.

    Identical to lift_rowsum whenever every nonzero weight equals 1; sharper
    otherwise (front-loaded weights dominate). A is expected to have been
    built with the polarized activation.
    """
    sums = _accumulate(*_observed_entries(A, obs), obs.dense_values(), A.cols, squared=True)
    return _finish(*sums, A.lambda_used)


def lift_streaming(scene: SplatScene, views, obs: ObservationSet,
                   cfg: LiftConfig | None = None, mode: str = "rowsum",
                   threads: int = 1) -> FeatureField:
    """Accumulate the row-sum lift during rasterization without storing A.

    Each tile's entries are accumulated as they are rasterized, and the
    per-view sums are added in view order, so the result does not depend on
    the thread count. Matches the matrix path within accumulation-order
    tolerance (1e-5 relative at desk scale).
    """
    cfg = cfg or LiftConfig()
    if mode not in ("rowsum", "rowsum2"):
        raise InvalidInputError(f"unknown lift mode {mode!r}")
    views = list(views)
    if scene is None or len(scene) == 0:
        raise InvalidInputError("scene must contain at least one primitive")
    if not views:
        raise InvalidInputError("at least one view is required")
    ranges = view_ranges(views)
    if ranges != obs.view_ranges:
        raise InvalidInputError("views and observations are not aligned")
    squared = mode == "rowsum2"
    P = len(scene)
    B = obs.dense_values()
    observed = obs.observed_mask()

    def accumulate_view(view):
        sums = (np.zeros((P, obs.feature_dim)), np.zeros(P), np.zeros(P))
        start, _ = ranges[view.view_id]
        for rows_local, _ranks, cols, weights in iter_view_entries(scene, view, cfg):
            rows = rows_local + start
            keep = observed[rows]
            if np.any(keep):
                tile = _accumulate(rows[keep], cols[keep], weights[keep], B, P, squared)
                for total, part in zip(sums, tile):
                    total += part
        return sums

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(accumulate_view, views))
    else:
        parts = [accumulate_view(v) for v in views]
    num, den, cov = (sum(view_sums) for view_sums in zip(*parts))
    return _finish(num, den, cov, cfg.lam)


# -- convex losses ---------------------------------------------------------

_NORMS = ("l1", "l2", "huber")


def _scalar_phi(values: np.ndarray, norm: str, huber_delta: float) -> np.ndarray:
    if norm == "l2":
        return values * values
    if norm == "l1":
        return np.abs(values)
    a = np.abs(values)
    return np.where(a <= huber_delta, 0.5 * a * a, huber_delta * (a - 0.5 * huber_delta))


def _as_values(x) -> np.ndarray:
    v = np.asarray(getattr(x, "values", x), dtype=np.float64)
    return v[:, None] if v.ndim == 1 else v


def _loss_pair_rows(A: WeightMatrix, obs: ObservationSet, xv: np.ndarray,
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
    _check_alignment(A, obs)
    if xv.shape != (A.cols, obs.feature_dim):
        raise InvalidInputError(
            f"solution shape {xv.shape} does not match ({A.cols}, {obs.feature_dim})")
    mask = obs.observed_mask()
    B = obs.dense_values()
    rows, cols, weights = _observed_entries(A, obs)
    n_rows = A.rows
    sums = np.bincount(rows, weights=weights, minlength=n_rows)
    true_rows = np.zeros(n_rows)
    surr_rows = np.zeros(n_rows)
    for c in range(obs.feature_dim):
        v = xv[cols, c] - B[rows, c]
        t = weights * v
        resid_c = np.bincount(rows, weights=t, minlength=n_rows)
        resid_c += (sums - 1.0) * B[:, c]
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
    return true_rows[mask], surr_rows[mask]


def loss_true(A: WeightMatrix, obs: ObservationSet, x, norm: str = "l2",
              huber_delta: float = 1.0) -> float:
    """Composited residual loss sum_i phi((A x)_i - B_i) over observed rays.

    L2 is squared (Frobenius convention); L1 and Huber apply elementwise over
    feature channels and are unsquared.
    """
    true_rows, _ = _loss_pair_rows(A, obs, _as_values(x), norm, huber_delta)
    return float(np.sum(true_rows))


def loss_surrogate(A: WeightMatrix, obs: ObservationSet, x, norm: str = "l2",
                   huber_delta: float = 1.0) -> float:
    """Per-entry surrogate sum_i sum_j A_ij phi(x_j - B_i) over observed rays.

    For row sums equal to 1 this upper-bounds loss_true for any convex phi
    (Jensen's inequality applied per ray).
    """
    _, surr_rows = _loss_pair_rows(A, obs, _as_values(x), norm, huber_delta)
    return float(np.sum(surr_rows))


def surrogate_gradient(A: WeightMatrix, obs: ObservationSet, x) -> np.ndarray:
    """Gradient of the L2 surrogate: grad_j = sum_i A_ij (x_j - B_i)."""
    _check_alignment(A, obs)
    xv = _as_values(x)
    rows, cols, weights = _observed_entries(A, obs)
    grad = np.zeros_like(xv)
    B = obs.dense_values()
    for f in range(xv.shape[1]):
        grad[:, f] = np.bincount(cols, weights=weights * (xv[cols, f] - B[rows, f]),
                                 minlength=A.cols)
    return grad


def beta(A: WeightMatrix, obs: ObservationSet, x_hat) -> tuple[np.ndarray, float]:
    """Per-ray relative dispersion of distances to the lifted features.

    Rows are renormalized to sum 1 before computing the weighted mean mu_i
    and variance sigma_i^2 of Delta_ij = ||x_j - B_i|| so that the identity
    J = sum (1 + beta_i) mu_i^2 holds to machine precision; rays with zero
    weight mass (or mu_i < 1e-12) contribute beta_i = 0.
    """
    _check_alignment(A, obs)
    xv = _as_values(x_hat)
    if not np.all(np.isfinite(xv)):
        raise InvalidInputError("x_hat must be finite")
    rows, cols, weights = _observed_entries(A, obs)
    beta_rows = np.zeros(A.rows)
    if len(rows) == 0:
        return beta_rows, 0.0
    sums = np.bincount(rows, weights=weights, minlength=A.rows)
    norm_w = weights / sums[rows]
    delta = np.linalg.norm(xv[cols] - obs.dense_values()[rows], axis=1)
    mu = np.bincount(rows, weights=norm_w * delta, minlength=A.rows)
    m2 = np.bincount(rows, weights=norm_w * delta * delta, minlength=A.rows)
    var = np.maximum(m2 - mu * mu, 0.0)
    ok = mu >= 1e-12
    beta_rows[ok] = var[ok] / (mu[ok] * mu[ok])
    return beta_rows, float(beta_rows.max()) if beta_rows.size else 0.0


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
    B = obs.dense_values()[mask]
    gram = (csr.T @ csr).toarray()
    rhs = csr.T @ B
    eigvals, eigvecs = np.linalg.eigh(gram)
    cutoff = ORACLE_DAMPING * max(eigvals[-1], 0.0)
    inv = np.where(eigvals > cutoff, 1.0 / np.where(eigvals > cutoff, eigvals, 1.0), 0.0)
    x = eigvecs @ (inv[:, None] * (eigvecs.T @ rhs))
    coverage = np.asarray(csr.sum(axis=0)).reshape(-1)
    return FeatureField(values=x, coverage=coverage, lambda_used=A.lambda_used)


@dataclass(frozen=True)
class BoundReport:
    """Losses of the row-sum lift against the least-squares optimum.

    All quantities are computed on the row-normalized system (rows rescaled
    to sum 1) so the chain  L(rowsum) <= J(rowsum) <= J(opt)  is provable;
    the chain is asserted on construction. The looser comparison of
    L(rowsum) against (1 + beta) L(opt) is reported, not asserted.
    """

    loss_true_rowsum: float
    loss_surrogate_rowsum: float
    loss_surrogate_opt: float
    loss_true_opt: float
    beta: float
    beta_per_row: np.ndarray
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

    @property
    def bound_one_plus_beta(self) -> float:
        return (1.0 + self.beta) * self.loss_true_opt


def bound_report(A: WeightMatrix, obs: ObservationSet) -> BoundReport:
    """Compare the row-sum lift with the least-squares optimum under L2."""
    An = A.row_normalized()
    x_rowsum = lift_rowsum(An, obs)
    x_opt = lsq_oracle(An, obs)
    l_rowsum = loss_true(An, obs, x_rowsum, "l2")
    j_rowsum = loss_surrogate(An, obs, x_rowsum, "l2")
    j_opt = loss_surrogate(An, obs, x_opt, "l2")
    l_opt = loss_true(An, obs, x_opt, "l2")
    beta_rows, beta_max = beta(An, obs, x_opt)
    if l_opt == 0.0:
        ratio = 1.0 if l_rowsum == 0.0 else math.inf
    else:
        ratio = l_rowsum / l_opt
    return BoundReport(
        loss_true_rowsum=l_rowsum,
        loss_surrogate_rowsum=j_rowsum,
        loss_surrogate_opt=j_opt,
        loss_true_opt=l_opt,
        beta=beta_max,
        beta_per_row=beta_rows,
        ratio=ratio,
    )
