"""Post-lift aggregation: cluster lifted features, and discard observation
masks that disagree with the cluster labels rendered to their view
(rasterize.render_labels)."""

from __future__ import annotations

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


@dataclass(frozen=True)
class ClusterParams:
    """Density clustering parameters; eps None picks it from the data
    (EPS_PERCENTILE, EPS_FLOOR)."""

    min_points: int = 10
    eps: float | None = None


@dataclass(frozen=True)
class ClusterAssignment:
    """Per-primitive cluster labels; -1 marks noise and unobserved primitives."""

    labels: np.ndarray
    n_clusters: int

    def __post_init__(self):
        lab = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", lab)
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

    x = values[obs_idx] / norms[obs_idx, None]
    n = len(obs_idx)
    tree = cKDTree(x)
    if params.eps is not None:
        eps = float(params.eps)
    else:
        k = min(params.min_points + 1, n)
        dists, _ = tree.query(x, k=k)
        eps = max(float(np.percentile(dists[:, -1], EPS_PERCENTILE)), EPS_FLOOR)

    i, j = tree.query_pairs(eps, output_type="ndarray").T
    core = np.bincount(i, minlength=n) + np.bincount(j, minlength=n) + 1 >= params.min_points
    both = core[i] & core[j]
    graph = coo_matrix((np.ones(np.count_nonzero(both), dtype=np.int8), (i[both], j[both])),
                       shape=(n, n))
    _, component = connected_components(graph, directed=False)
    core_idx = np.flatnonzero(core)
    _, first, inverse = np.unique(component[core_idx], return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    labels = -np.ones(n, dtype=np.int64)
    labels[core_idx] = rank[inverse]

    # Border points: each edge with exactly one core end offers that core's
    # cluster to the other end, which keeps the smallest offer.
    one = core[i] != core[j]
    inner, outer = np.where(core[i], i, j)[one], np.where(core[i], j, i)[one]
    best = np.full(n, len(first), dtype=np.int64)
    np.minimum.at(best, outer, labels[inner])
    claimed = best < len(first)
    labels[claimed] = best[claimed]
    labels_full[obs_idx] = labels
    return ClusterAssignment(labels=labels_full, n_clusters=len(first))


def onehot(assignment: ClusterAssignment) -> np.ndarray:
    """Encode labels as a (P, K+1) indicator matrix.

    Column 0 corresponds to label -1 (noise); column k+1 to cluster k. The
    encoding inverts exactly: argmax(onehot(g)) - 1 == g.
    """
    labels = assignment.labels
    out = np.zeros((len(labels), assignment.n_clusters + 1))
    out[np.arange(len(labels)), labels + 1] = 1.0
    return out


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
    the row order of obs. Each (view, label) observation mask is matched to
    the projected cluster label of maximal IoU. Returns the filtered
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
    records = []
    for vid, (start, stop) in obs.view_ranges.items():
        o_ids, o_inv = np.unique(obs.view_label_map(vid).reshape(-1), return_inverse=True)
        p_ids, p_inv = np.unique(kappa[start:stop], return_inverse=True)
        # confusion[a, b]: rays with observed label o_ids[a] and projected p_ids[b]
        confusion = np.bincount(o_inv * len(p_ids) + p_inv,
                                minlength=len(o_ids) * len(p_ids)).reshape(len(o_ids), len(p_ids))
        union = confusion.sum(axis=1)[:, None] + confusion.sum(axis=0)[None, :] - confusion
        masks = o_ids >= 0  # every mask is non-empty, so its unions are too
        scores = confusion[masks][:, p_ids >= 0] / union[masks][:, p_ids >= 0]
        best = scores.max(axis=1, initial=0.0)
        records += [MaskFilterRecord(view_id=vid, label=int(label), iou=float(score),
                                     kept=bool(score >= tau))
                    for label, score in zip(o_ids[masks], best)]
    drops = [(r.view_id, r.label) for r in records if not r.kept]
    filtered = obs.drop_view_labels(drops) if drops else obs
    return filtered, records
