"""Post-lift aggregation: cluster lifted features, and discard observation
masks that disagree with the cluster labels rendered to their view
(rasterize.render_labels)."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .model import InvalidInputError
from .solver import FeatureField, ObservationSet

# The default eps: this percentile of the distance to the min_points-th
# nearest neighbor, floored at EPS_FLOOR so exactly-coincident rows cluster.
EPS_PERCENTILE = 95.0
EPS_FLOOR = 1e-6
# Grid cells have side eps / sqrt(rank), shrunk by this fraction so that
# rounding in the cell coordinates never puts two rows more than eps apart
# in one cell; cell coordinates stay below 2**30, where their rounding is
# under 2**-22.
CELL_SLACK = 2.0 ** -20
CELL_SPAN_LIMIT = 2.0 ** 30


@dataclass(frozen=True)
class ClusterParams:
    """Density clustering parameters; eps None picks it from the data
    (EPS_PERCENTILE, EPS_FLOOR)."""

    min_points: int = 10
    eps: float | None = None

    def __post_init__(self):
        if (isinstance(self.min_points, bool) or not isinstance(self.min_points, (int, np.integer))
                or self.min_points < 1):
            raise InvalidInputError(f"min_points must be an integer >= 1, got {self.min_points!r}")
        if self.eps is not None and not (isinstance(self.eps, (int, float, np.integer, np.floating))
                                         and not isinstance(self.eps, bool)
                                         and math.isfinite(self.eps) and self.eps > 0):
            raise InvalidInputError(f"eps must be None or finite and > 0, got {self.eps!r}")


@dataclass(frozen=True)
class ClusterAssignment:
    """Per-primitive cluster labels; -1 marks noise and unobserved primitives."""

    labels: np.ndarray
    n_clusters: int

    def __post_init__(self):
        lab = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", lab)
        if np.any(lab < -1):
            raise InvalidInputError("cluster labels must be >= -1")
        if self.n_clusters < 0:
            raise InvalidInputError(f"n_clusters must be >= 0, got {self.n_clusters}")
        present = set(int(u) for u in np.unique(lab) if u >= 0)
        if present and present != set(range(self.n_clusters)):
            raise InvalidInputError("cluster labels must be contiguous from 0")


def cluster_features(field: FeatureField, params: ClusterParams | None = None) -> ClusterAssignment:
    """Density-based clustering (DBSCAN) of unit-normalized feature rows.

    A point is core when its eps-neighborhood, itself included, holds at
    least min_points points. Clusters are the connected components of the
    core points' eps-graph, numbered by their lowest core index; a border
    point joins the lowest-numbered cluster among its core neighbors. This
    is the labelling of seed-order expansion (cores seeded in ascending
    index order). Noise points and unobserved primitives map to -1.

    Distances are taken in an orthonormal basis of the rows' span, which
    preserves them up to rounding. At every rank the components come from a
    grid (Gan and Tao, "DBSCAN Revisited", 2015), which lists no pairs inside
    a dense cell; an eps below its resolution lists the eps-graph instead.
    """
    params = params or ClusterParams()
    values = field.values
    if not np.all(np.isfinite(values)):
        raise InvalidInputError("features must be finite")
    observed = ~field.unobserved
    norms = np.linalg.norm(values, axis=1)
    observed &= norms > 0
    labels_full = -np.ones(field.count, dtype=np.int64)
    obs_idx = np.flatnonzero(observed)
    if len(obs_idx) < params.min_points:
        warnings.warn("fewer observed primitives than min_points; labeling all noise",
                      stacklevel=2)
        return ClusterAssignment(labels=labels_full, n_clusters=0)

    y = _span_coordinates(values[obs_idx] / norms[obs_idx, None])
    n = len(y)
    tree = cKDTree(y)
    if params.eps is not None:
        eps = float(params.eps)
    else:
        k = min(params.min_points + 1, n)
        dists, _ = tree.query(y, k=k)
        eps = max(float(np.percentile(dists[:, -1], EPS_PERCENTILE)), EPS_FLOOR)

    core, component, outer, inner = _dbscan_graph(y, tree, eps, _grid_cells(y, eps),
                                                   params.min_points)
    core_idx = np.flatnonzero(core)
    _, first, inverse = np.unique(component[core_idx], return_index=True, return_inverse=True)
    number = np.empty(len(first), dtype=np.int64)
    number[np.argsort(first)] = np.arange(len(first))
    labels = -np.ones(n, dtype=np.int64)
    labels[core_idx] = number[inverse]

    # Border points: each non-core point `outer` within eps of the core point
    # `inner` is offered its cluster, and keeps the smallest offer.
    best = np.full(n, len(first), dtype=np.int64)
    np.minimum.at(best, outer, labels[inner])
    claimed = best < len(first)
    labels[claimed] = best[claimed]
    labels_full[obs_idx] = labels
    return ClusterAssignment(labels=labels_full, n_clusters=len(first))


def _span_coordinates(x: np.ndarray) -> np.ndarray:
    """Coordinates of the rows of x in an orthonormal basis of their span:
    the right singular vectors above NumPy's matrix_rank cutoff. They are
    those of the triangular factor of x, which is cheaper to decompose."""
    _, s, vt = np.linalg.svd(np.linalg.qr(x, mode="r"), full_matrices=False)
    rank = max(int(np.count_nonzero(s > s[0] * max(x.shape) * np.finfo(x.dtype).eps)), 1)
    return x @ vt[:rank].T


def _grid_cells(y: np.ndarray, eps: float) -> np.ndarray | None:
    """Each row's grid cell, of side just below eps / sqrt(rank), so that
    every pair inside a cell is within eps even after rounding, at any rank.
    None only for an eps below the grid's resolution, where cell coordinates
    would reach CELL_SPAN_LIMIT: about 1.9e-9 * sqrt(rank) on unit rows."""
    side = eps / math.sqrt(y.shape[1]) * (1.0 - CELL_SLACK)
    if np.ptp(y, axis=0).max() / side >= CELL_SPAN_LIMIT:
        return None
    return np.floor((y - y.min(axis=0)) / side)


def _dbscan_graph(y: np.ndarray, tree: cKDTree, eps: float, cells: np.ndarray | None,
                  min_points: int):
    """Core flags, component ids and border offers (non-core row, core row
    within eps) of the rows y, whose kd-tree is tree.

    cells holds each row's grid cell, of a side whose diagonal is below eps,
    so that every pair inside a cell is within eps (None, for an eps below
    the grid's resolution: each row is its own cell). A cell holding
    min_points rows is dense and all core. Only the rows of the other cells
    list their neighbors; that settles their core flags, every core pair
    across cells that involves them, and the border offers. The cores of one
    cell are connected, so components are unions of cells; neighboring dense
    cells are joined by _join_dense_cells.
    """
    n = len(y)
    if cells is None:
        order = cell_of = np.arange(n)
        sizes = np.ones(n, dtype=np.int64)
        core = np.zeros(n, dtype=bool)
    else:
        order = np.lexsort(cells.T[::-1])
        new = np.ones(n, dtype=bool)
        new[1:] = np.any(cells[order[1:]] != cells[order[:-1]], axis=1)
        cell_of = np.empty(n, dtype=np.int64)
        cell_of[order] = np.cumsum(new) - 1
        sizes = np.bincount(cell_of)
        core = sizes[cell_of] >= min_points
    sparse, dense = np.flatnonzero(~core), np.flatnonzero(core)

    sub = tree if len(sparse) == n else cKDTree(y[sparse])
    si, sj = sub.query_pairs(eps, output_type="ndarray").T
    cross = sub.sparse_distance_matrix(cKDTree(y[dense]), eps, output_type="ndarray")
    core[sparse] = (np.bincount(si, minlength=len(sparse)) + np.bincount(sj, minlength=len(sparse))
                    + np.bincount(cross["i"], minlength=len(sparse)) + 1 >= min_points)
    i = np.concatenate([sparse[si], sparse[cross["i"]]])
    j = np.concatenate([sparse[sj], dense[cross["j"]]])
    both = core[i] & core[j]
    graph = coo_matrix((np.ones(np.count_nonzero(both), dtype=np.int8),
                        (cell_of[i[both]], cell_of[j[both]])), shape=(len(sizes), len(sizes)))
    _, joined = connected_components(graph, directed=False)
    if len(dense):
        joined = _join_dense_cells(y, eps, cells, order, sizes, joined, min_points)
    one = core[i] != core[j]
    return core, joined[cell_of], np.where(core[i], j, i)[one], np.where(core[i], i, j)[one]


def _join_dense_cells(y, eps, cells, order, sizes, joined, min_points):
    """Component ids of the cells, given those of the cells' graph so far:
    each pair of neighboring dense cells not yet joined is tested once for
    a pair across them within eps. Rows y[order] are grouped by cell."""
    rank = y.shape[1]
    m = len(sizes)
    # Union-find over cells, root[c] <= c, from the components so far.
    lowest = np.full(joined.max() + 1, m)
    np.minimum.at(lowest, joined, np.arange(m))
    root = lowest[joined].tolist()

    # Dense cells whose nearest points can lie within eps: per axis at most
    # 1 + isqrt(rank) apart, and sum(max(|offset| - 1, 0)**2) <= rank.
    starts = np.concatenate([[0], np.cumsum(sizes)])
    dense = np.flatnonzero(sizes >= min_points)
    corners = cells[order[starts[dense]]]
    a, b = cKDTree(corners).query_pairs(1 + math.isqrt(rank), p=np.inf, output_type="ndarray").T
    offset = np.abs(corners[a] - corners[b])
    near = np.flatnonzero((np.maximum(offset - 1, 0) ** 2).sum(axis=1) <= rank)
    # nearest cells first: they join most often, which spares later tests
    near = near[np.argsort((offset[near] ** 2).sum(axis=1), kind="stable")]
    a, b = dense[a[near]], dense[b[near]]
    trees = {}

    def find(c):
        while root[c] != c:
            root[c] = root[root[c]]
            c = root[c]
        return c

    def cell_tree(c):
        if c not in trees:
            trees[c] = cKDTree(y[order[starts[c]:starts[c + 1]]])
        return trees[c]

    for p, q in zip(a.tolist(), b.tolist()):
        rp, rq = find(p), find(q)
        if rp != rq and cell_tree(p).count_neighbors(cell_tree(q), eps) > 0:
            root[max(rp, rq)] = min(rp, rq)
    return np.array([find(c) for c in range(m)])


def iou(mask_a: np.ndarray, mask_b: np.ndarray) -> float:
    """Intersection over union of two binary masks; 0 when both are empty."""
    a = np.asarray(mask_a, dtype=bool)
    b = np.asarray(mask_b, dtype=bool)
    if a.shape != b.shape:
        raise InvalidInputError(f"mask shapes differ: {a.shape} vs {b.shape}")
    union = np.count_nonzero(a | b)
    if union == 0:
        return 0.0
    return np.count_nonzero(a & b) / union


@dataclass(frozen=True)
class MaskFilterRecord:
    view_id: str
    label: int
    iou: float
    kept: bool

    @property
    def decision(self) -> str:
        return "kept" if self.kept else "dropped"


def filter_observations(obs: ObservationSet, kappa: np.ndarray, tau: float):
    """Drop observation masks whose best-matching cluster mask overlaps < tau.

    kappa holds the projected cluster label of every ray (-1 for none), in
    the row order of obs. Each observation mask, a table row of obs, is
    matched to the projected cluster label of maximal IoU. Returns the filtered
    ObservationSet and one record per mask, views in order and labels
    ascending.
    """
    if not obs.label_backed:
        raise InvalidInputError("mask filtering requires label-backed observations")
    kappa = np.asarray(kappa, dtype=np.int64).reshape(-1)
    if kappa.shape[0] != obs.rows:
        raise InvalidInputError("projected labels are not aligned with the observations")
    if not (0.0 <= tau <= 1.0):
        raise InvalidInputError(f"tau must lie in [0, 1], got {tau!r}")
    records, dropped = [], []
    for vid, (start, stop) in obs.view_ranges.items():
        # A view's table rows are its labels in ascending order; -1 is no mask.
        o_ids, o_inv = np.unique(obs.index[start:stop], return_inverse=True)
        p_ids, p_inv = np.unique(kappa[start:stop], return_inverse=True)
        # confusion[a, b]: rays with observed table row o_ids[a] and projected p_ids[b]
        confusion = np.bincount(o_inv * len(p_ids) + p_inv,
                                minlength=len(o_ids) * len(p_ids)).reshape(len(o_ids), len(p_ids))
        union = confusion.sum(axis=1)[:, None] + confusion.sum(axis=0)[None, :] - confusion
        masks = o_ids >= 0  # every mask is non-empty, so its unions are too
        mask_rows = o_ids[masks]
        scores = confusion[masks][:, p_ids >= 0] / union[masks][:, p_ids >= 0]
        best = scores.max(axis=1, initial=0.0)
        records += [MaskFilterRecord(view_id=vid, label=int(label), iou=float(score),
                                     kept=bool(score >= tau))
                    for label, score in zip(obs.labels[mask_rows], best)]
        dropped.append(mask_rows[best < tau])
    return obs.masked(~np.isin(obs.index, np.concatenate(dropped))), records
