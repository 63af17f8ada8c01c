import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from splatlift import aggregate
from splatlift.aggregate import (
    ClusterAssignment,
    ClusterParams,
    cluster_features,
    filter_observations,
    iou,
)
from splatlift.model import CameraView, InvalidInputError, LiftConfig
from splatlift.rasterize import build_weight_matrix, render_labels
from splatlift.solver import FeatureField, ObservationSet, lift_rowsum, loss_true
from splatlift.synthbench import (
    SILHOUETTE_DOMINANCE,
    make_observations,
    make_scene,
    two_blob_spec,
)


def field_from(values, coverage=None):
    values = np.asarray(values, dtype=np.float64)
    if coverage is None:
        coverage = np.ones(len(values))
    return FeatureField(values=values, coverage=np.asarray(coverage, dtype=np.float64))


# -- clustering -----------------------------------------------------------------

def test_two_separated_blobs_two_clusters():
    rng = np.random.default_rng(1)
    a = rng.normal([10, 0, 0], 0.05, size=(40, 3))
    b = rng.normal([0, 10, 0], 0.05, size=(60, 3))
    field = field_from(np.vstack([a, b]))
    assign = cluster_features(field)
    assert assign.n_clusters == 2
    assert (assign.labels == -1).sum() == 0
    assert len(set(assign.labels[:40])) == 1
    assert len(set(assign.labels[40:])) == 1
    assert assign.labels[0] != assign.labels[50]


def test_identical_features_single_cluster():
    field = field_from(np.tile([1.0, 2.0], (30, 1)))
    assign = cluster_features(field)
    assert assign.n_clusters == 1
    assert np.all(assign.labels == 0)


def test_isolated_outlier_is_noise():
    rng = np.random.default_rng(2)
    dense = rng.normal([5, 0], 0.01, size=(50, 2))
    outlier = np.array([[-5.0, 0.0]])
    field = field_from(np.vstack([dense, outlier]))
    assign = cluster_features(field)
    assert assign.labels[-1] == -1
    assert assign.n_clusters == 1


def test_too_few_points_all_noise_with_warning():
    field = field_from(np.eye(4))
    with pytest.warns(UserWarning, match="min_points"):
        assign = cluster_features(field, ClusterParams(min_points=10))
    assert np.all(assign.labels == -1)
    assert assign.n_clusters == 0


def test_unobserved_primitives_stay_noise():
    values = np.vstack([np.tile([1.0, 0.0], (20, 1)), [[0.7, 0.7]]])
    coverage = np.concatenate([np.ones(20), [0.0]])
    assign = cluster_features(field_from(values, coverage))
    assert assign.labels[-1] == -1


def test_clustering_deterministic():
    rng = np.random.default_rng(3)
    vals = np.vstack([rng.normal([4, 0, 0], 0.1, (30, 3)),
                      rng.normal([0, 4, 0], 0.1, (30, 3))])
    field = field_from(vals)
    first = cluster_features(field)
    second = cluster_features(field)
    assert np.array_equal(first.labels, second.labels)


def seed_order_dbscan(values, eps, min_points):
    """Reference DBSCAN: brute-force distances, cores seeded in ascending
    index order, each cluster expanded depth-first. Zero rows are noise."""
    values = np.asarray(values, dtype=np.float64)
    norms = np.linalg.norm(values, axis=1)
    idx = np.flatnonzero(norms > 0)
    labels_full = -np.ones(len(values), dtype=np.int64)
    if len(idx) < min_points:
        return labels_full, 0
    x = values[idx] / norms[idx, None]
    neighborhoods = [np.flatnonzero(row <= eps) for row in cdist(x, x)]
    core = [len(n) >= min_points for n in neighborhoods]
    labels = -np.ones(len(idx), dtype=np.int64)
    cluster_id = 0
    for seed in range(len(idx)):
        if labels[seed] != -1 or not core[seed]:
            continue
        labels[seed] = cluster_id
        stack = [seed]
        while stack:
            j = stack.pop()
            for k in neighborhoods[j]:
                if labels[k] == -1:
                    labels[k] = cluster_id
                    if core[k]:
                        stack.append(k)
        cluster_id += 1
    labels_full[idx] = labels
    return labels_full, cluster_id


def assert_matches_oracle(values, eps, min_points, params):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        assign = cluster_features(field_from(values), params)
    labels, n_clusters = seed_order_dbscan(values, eps, min_points)
    assert assign.n_clusters == n_clusters
    assert np.array_equal(assign.labels, labels)
    return assign


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=1, max_size=40),
       st.integers(1, 6), st.data())
def test_cluster_features_matches_seed_order_oracle(points, min_points, data):
    values = np.array(points, dtype=np.float64)
    x = values[np.linalg.norm(values, axis=1) > 0]
    x = x / np.linalg.norm(x, axis=1)[:, None]
    eps = float(data.draw(st.sampled_from(eps_candidates(cdist(x, x)).tolist())))
    assert_matches_oracle(values, eps, min_points, ClusterParams(min_points=min_points, eps=eps))


def eps_candidates(pair):
    """eps values halfway between two distinct pair distances, so that no
    pair sits on the boundary where two distance computations could round
    apart, and one above every distance."""
    dist = np.unique(pair)
    gaps = np.flatnonzero(np.diff(dist) > 1e-9)
    return np.concatenate([(dist[gaps] + dist[gaps + 1]) / 2, [dist.max(initial=0) + 1]])


def _arc(angles):
    angles = np.asarray(angles)
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


@pytest.mark.parametrize("first", ["a", "b"])
def test_border_point_between_two_clusters_takes_lower_id(first):
    # With eps = 0.01, each cluster's four points lie within 0.006 of each
    # other (cores at min_points = 4); the border point at 0.0145 rad reaches
    # one core of each cluster (0.0085 away) and holds only 3 points itself.
    a = _arc([0.000, 0.002, 0.004, 0.006])
    b = _arc([0.023, 0.025, 0.027, 0.029])
    border = _arc([0.0145])
    groups = [a, b] if first == "a" else [b, a]
    values = np.vstack([border] + groups)
    assign = assert_matches_oracle(values, 0.01, 4, ClusterParams(min_points=4, eps=0.01))
    assert assign.n_clusters == 2
    assert np.array_equal(assign.labels[1:], np.repeat([0, 1], 4))
    assert assign.labels[0] == 0


def test_coincident_rows_cluster_at_eps_floor():
    # Every 11th-nearest distance but the lone row's is 0, so eps falls to
    # EPS_FLOOR; the lone row 1e-3 away from group one is noise. In the
    # second input the groups sit all around the circle, so at eps = 1e-6
    # the grid's cell coordinates reach about 10**6 per axis.
    params = ClusterParams()
    lone = _arc([1e-3])
    inputs = [
        (np.vstack([np.tile([1.0, 0.0], (12, 1)), np.tile([0.0, 3.0], (12, 1)), lone]), 2),
        (np.vstack([np.repeat(_arc(np.linspace(0, 2 * np.pi, 8, endpoint=False)), 12, axis=0),
                    lone]), 8),
    ]
    for values, n_clusters in inputs:
        assign = assert_matches_oracle(values, aggregate.EPS_FLOOR, params.min_points, params)
        assert assign.n_clusters == n_clusters
        assert assign.labels[-1] == -1


def _dense_groups(data):
    """2-6 tight groups of 10-60 rows, scattered rows and rows between two
    groups, of rank 1-5, 7 or 12, mapped by a random orthonormal matrix into
    rank..16 dimensions. Returns the rows and the number of rows between
    groups, which come last."""
    rank = data.draw(st.sampled_from([3, 2, 4, 5, 1, 7, 12]), label="rank")
    dim = data.draw(st.integers(rank, 16), label="dim")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    spread = data.draw(st.sampled_from([0.003, 0.02, 0.1]), label="spread")
    sizes = data.draw(st.lists(st.integers(10, 60), min_size=2, max_size=6), label="sizes")
    groups = [rng.normal(size=rank) + rng.normal(0, spread, (size, rank)) for size in sizes]
    scattered = rng.normal(size=(data.draw(st.integers(0, 30), label="scattered"), rank))
    unit = [g / np.linalg.norm(g, axis=1)[:, None] for g in groups]
    bridges = []
    for _ in range(data.draw(st.integers(0, 8), label="bridges")):
        # halfway between the nearest rows of two groups on the unit sphere,
        # unless they are antipodal
        a, b = rng.choice(len(groups), 2, replace=False)
        gap = ((unit[a][:, None, :] - unit[b][None, :, :]) ** 2).sum(axis=-1)
        i, j = np.unravel_index(np.argmin(gap), gap.shape)
        if gap[i, j] < 3.9:
            bridges.append((unit[a][i] + unit[b][j]) / 2)
    basis, _ = np.linalg.qr(rng.normal(size=(dim, rank)))
    return np.vstack(groups + [scattered] + bridges) @ basis.T, len(bridges)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_grid_clustering_matches_seed_order_oracle_on_dense_groups(data):
    # Tight groups fill grid cells with min_points rows, which the small
    # integer lattice of the oracle test above almost never does.
    values, bridges = _dense_groups(data)
    min_points = data.draw(st.integers(1, 12), label="min_points")
    x = values / np.linalg.norm(values, axis=1)[:, None]
    pair = cdist(x, x)
    candidates = eps_candidates(pair)
    if bridges and data.draw(st.booleans(), label="eps at a bridge row"):
        # just past the k-th nearest neighbor of a row between two groups,
        # k < min_points - 1: a border row, perhaps of two clusters
        row = len(x) - 1 - data.draw(st.integers(0, bridges - 1), label="bridge")
        k = data.draw(st.integers(1, max(min_points - 2, 1)), label="neighbor")
        eps = float(candidates[np.searchsorted(candidates, np.sort(pair[row])[k])])
    else:
        # often drawn towards the small distances, where the groups split
        position = data.draw(st.floats(0, 1), label="eps position") ** data.draw(
            st.sampled_from([1, 3]), label="eps skew")
        eps = float(candidates[int(position * (len(candidates) - 1))])
    assert_matches_oracle(values, eps, min_points, ClusterParams(min_points=min_points, eps=eps))


def test_grid_cells_hold_only_pairs_within_eps():
    # Two rows on a cell diagonal, just below eps / sqrt(rank) apart per
    # axis: they may share a cell only if the kd-tree finds them within eps.
    rng = np.random.default_rng(0)
    for eps in np.concatenate([[aggregate.EPS_FLOOR, 0.01, 0.1, 0.5], rng.uniform(1e-6, 1, 200)]):
        for rank in [*range(1, 9), 13, 64, 512]:
            side = eps / np.sqrt(rank)
            for step in (side * (1 - 2.0 ** -50), side * (1 - 2.0 ** -52), np.nextafter(side, 0)):
                y = np.array([np.zeros(rank), np.full(rank, step)])
                cells = aggregate._grid_cells(y, eps)
                if np.array_equal(cells[0], cells[1]):
                    assert cKDTree(y).query_ball_point(y[0], eps, return_length=True) == 2


def _label_mixtures_in_r512(rng):
    """Rows of a label-backed lift in 512-D, stored as float32: 6 groups of
    rows that each hold one label's unit embedding, half of them mixed with
    up to 5 % of another label's, and 40 rows mixing two labels at random.
    Every row has its own scale, so that float32 rounding gives each row its
    own direction and the rows span all 512 dimensions."""
    labels = rng.normal(size=(8, 512))
    labels /= np.linalg.norm(labels, axis=1)[:, None]
    firsts, seconds, mixes = [], [], []
    for group in range(6):
        size = int(rng.integers(70, 110))
        firsts.append(np.full(size, group))
        seconds.append((group + 1 + rng.integers(0, 7, size)) % 8)
        mixes.append(np.where(rng.uniform(size=size) < 0.5, 0.0, rng.uniform(0, 0.05, size)))
    firsts.append(rng.integers(0, 8, 40))
    seconds.append(rng.integers(0, 8, 40))
    mixes.append(rng.uniform(0, 1, 40))
    t = np.concatenate(mixes)[:, None]
    rows = (1 - t) * labels[np.concatenate(firsts)] + t * labels[np.concatenate(seconds)]
    return (rng.uniform(0.5, 2, (len(rows), 1)) * rows).astype(np.float32).astype(np.float64)


@pytest.mark.parametrize("seed", [0, 1])
def test_grid_clustering_matches_seed_order_oracle_on_float32_rows_in_r512(seed):
    values = _label_mixtures_in_r512(np.random.default_rng(seed))
    x = values / np.linalg.norm(values, axis=1)[:, None]
    y = aggregate._span_coordinates(x)
    assert y.shape[1] == 512
    candidates = eps_candidates(cdist(x, x))
    for position in (0.001, 0.01, 0.1):
        eps = float(candidates[int(position * (len(candidates) - 1))])
        for min_points in (4, 10):
            # the grid runs, and its dense cells hold the groups' cores
            cells = aggregate._grid_cells(y, eps)
            assert np.unique(cells, axis=0, return_counts=True)[1].max() >= min_points
            assert_matches_oracle(values, eps, min_points,
                                  ClusterParams(min_points=min_points, eps=eps))


def test_eps_below_the_grid_resolution_lists_the_eps_graph():
    # At eps = 1e-12 cells would be 7e-13 wide, and the rows span about 2:
    # the grid gives way to the eps-graph. Coincident rows are 0 apart, so
    # groups of min_points or more cluster and the rest is noise.
    params = ClusterParams(min_points=5, eps=1e-12)
    values = np.vstack([np.repeat(_arc(np.linspace(0, 2 * np.pi, 6, endpoint=False)),
                                  [12, 5, 4, 9, 1, 7], axis=0), _arc([1e-3])])
    x = values / np.linalg.norm(values, axis=1)[:, None]
    assert aggregate._grid_cells(aggregate._span_coordinates(x), params.eps) is None
    assign = assert_matches_oracle(values, params.eps, params.min_points, params)
    assert assign.n_clusters == 4
    assert np.count_nonzero(assign.labels == -1) == 4 + 1 + 1


def test_rows_in_a_subspace_of_r512_cluster_as_their_coordinates():
    rng = np.random.default_rng(4)
    coords = np.vstack([rng.normal(center, 0.03, (60, 3))
                        for center in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1])]
                       + [rng.normal(size=(15, 3))])
    basis, _ = np.linalg.qr(rng.normal(size=(512, 3)))
    values = coords @ basis.T
    x = values / np.linalg.norm(values, axis=1)[:, None]
    assert aggregate._span_coordinates(x).shape == (len(values), 3)
    low, high = cluster_features(field_from(coords)), cluster_features(field_from(values))
    assert low.n_clusters == high.n_clusters == 4
    assert np.array_equal(low.labels, high.labels)


@pytest.mark.parametrize("params", [dict(eps=-1.0), dict(eps=0.0), dict(eps=float("nan")),
                                    dict(eps=float("inf")), dict(eps="0.1"), dict(eps=True),
                                    dict(min_points=0), dict(min_points=-3),
                                    dict(min_points=2.5), dict(min_points=True)])
def test_cluster_params_reject_invalid_values(params):
    with pytest.raises(InvalidInputError):
        ClusterParams(**params)


def test_cluster_params_accept_valid_values():
    ClusterParams(min_points=np.int64(3), eps=np.float64(0.2))
    ClusterParams(min_points=1, eps=1)
    ClusterParams(eps=None)


def test_assignment_rejects_labels_below_minus_one():
    with pytest.raises(InvalidInputError, match=">= -1"):
        ClusterAssignment(labels=np.array([-2, 0]), n_clusters=1)


def test_assignment_rejects_a_negative_cluster_count():
    with pytest.raises(InvalidInputError, match="n_clusters"):
        ClusterAssignment(labels=np.array([-1, -1]), n_clusters=-1)


# -- iou --------------------------------------------------------------------------

def test_iou_identical():
    m = np.zeros((10, 10), dtype=bool)
    m[2:5, 2:5] = True
    assert iou(m, m) == 1.0


def test_iou_disjoint_and_empty():
    a = np.zeros((4, 4), dtype=bool)
    b = np.zeros((4, 4), dtype=bool)
    a[0, 0] = True
    b[3, 3] = True
    assert iou(a, b) == 0.0
    assert iou(np.zeros((4, 4), bool), np.zeros((4, 4), bool)) == 0.0


def test_iou_half_overlap():
    full = np.zeros((10, 10), dtype=bool)
    full[:, :] = True
    half = np.zeros((10, 10), dtype=bool)
    half[:, :5] = True
    assert iou(full, half) == 0.5


def test_iou_shape_mismatch():
    with pytest.raises(InvalidInputError):
        iou(np.zeros((2, 2), bool), np.zeros((3, 3), bool))


# -- mask filtering ---------------------------------------------------------------

def synthetic_obs_and_kappa():
    """Two views, 4x4 each: labels 0 and 1 side by side, kappa agreeing on
    view v0 and merged (one mask spanning both objects) on view v1."""
    views = [CameraView(fx=1, fy=1, cx=0, cy=0, width=4, height=4,
                        world_to_camera=np.eye(4), view_id=f"v{i}") for i in range(2)]
    half = np.zeros((4, 4), dtype=np.int32)
    half[:, 2:] = 1
    labels = {"v0": half.ravel().copy(), "v1": np.zeros(16, dtype=np.int32)}
    tables = {
        "v0": {0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0])},
        "v1": {0: np.array([0.7, 0.7])},
    }
    obs = ObservationSet.from_labels(views, labels, tables)
    # projected cluster labels split both views into the true halves
    kappa = np.concatenate([half.ravel(), half.ravel()])
    return obs, kappa


def test_filter_keeps_matching_and_drops_merged():
    obs, kappa = synthetic_obs_and_kappa()
    filtered, records = filter_observations(obs, kappa, tau=0.6)
    by_key = {(r.view_id, r.label): r for r in records}
    assert by_key[("v0", 0)].kept and by_key[("v0", 1)].kept
    assert by_key[("v0", 0)].iou == 1.0
    # merged mask covers both halves: best single-cluster IoU is 0.5 < 0.6
    assert by_key[("v1", 0)].iou == 0.5
    assert not by_key[("v1", 0)].kept
    assert np.all(filtered.view_label_map("v1") == -1)
    assert np.array_equal(filtered.view_label_map("v0"), obs.view_label_map("v0"))


def test_filter_tau_zero_is_identity():
    obs, kappa = synthetic_obs_and_kappa()
    filtered, records = filter_observations(obs, kappa, tau=0.0)
    assert all(r.kept for r in records)
    for vid in ("v0", "v1"):
        assert np.array_equal(filtered.view_label_map(vid), obs.view_label_map(vid))


def test_filter_monotone_in_tau():
    obs, kappa = synthetic_obs_and_kappa()
    kept_sets = []
    for tau in (0.3, 0.5, 0.6, 0.8):
        _, records = filter_observations(obs, kappa, tau)
        kept_sets.append({(r.view_id, r.label) for r in records if r.kept})
    for bigger, smaller in zip(kept_sets, kept_sets[1:]):
        assert smaller <= bigger


def test_filter_requires_label_backing():
    view = CameraView(fx=1, fy=1, cx=0, cy=0, width=2, height=2,
                      world_to_camera=np.eye(4), view_id="v")
    obs = ObservationSet.from_dense([view], {"v": np.ones((4, 3))})
    with pytest.raises(InvalidInputError, match="label-backed"):
        filter_observations(obs, np.zeros(4, dtype=np.int64), 0.5)


def test_filter_rejects_misaligned_kappa_and_bad_tau():
    obs, kappa = synthetic_obs_and_kappa()
    with pytest.raises(InvalidInputError, match="aligned"):
        filter_observations(obs, kappa[:-1], 0.5)
    for tau in (-0.1, 1.5):
        with pytest.raises(InvalidInputError, match="tau"):
            filter_observations(obs, kappa, tau)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_filter_matches_pairwise_iou(seed):
    # Observed ids are sparse (0, 3, 7, 12) and both maps hold -1 pixels.
    rng = np.random.default_rng(seed)
    views = [CameraView(fx=1, fy=1, cx=0, cy=0, width=5, height=4,
                        world_to_camera=np.eye(4), view_id=f"v{i}") for i in range(3)]
    ids = np.array([-1, 0, 3, 7, 12])
    labels = {v.view_id: rng.choice(ids[: rng.integers(2, 6)], size=20) for v in views}
    tables = {vid: {int(l): np.ones(2) for l in ids[1:]} for vid in labels}
    obs = ObservationSet.from_labels(views, labels, tables)
    kappa = rng.integers(-1, rng.integers(1, 6), size=obs.rows)
    tau = float(rng.uniform())
    _, records = filter_observations(obs, kappa, tau)
    expected = []
    for vid, (start, stop) in obs.view_ranges.items():
        proj = kappa[start:stop]
        for label in sorted(set(labels[vid].tolist()) - {-1}):
            best = max([iou(labels[vid] == label, proj == p)
                        for p in set(proj.tolist()) - {-1}], default=0.0)
            expected.append((vid, label, best, best >= tau))
    assert [(r.view_id, r.label, r.iou, r.kept) for r in records] == expected


def test_relift_on_filtered_equals_restricted_subproblem():
    spec = two_blob_spec(noise_fraction=0.2, resolution=40, views=5)
    scene, views, ids = make_scene(spec)
    clean = build_weight_matrix(scene, views, LiftConfig(lam=1.0))
    obs, tags = make_observations(
        render_labels(clean, ids, SILHOUETTE_DOMINANCE), views, spec)
    A = build_weight_matrix(scene, views, LiftConfig(lam=1.2))
    keep = np.ones(obs.rows, dtype=bool)
    for (vid, label), tag in tags.items():
        if tag.merged:
            start, stop = obs.view_ranges[vid]
            keep[start:stop] &= obs.view_label_map(vid).reshape(-1) != label
    filtered = obs.masked(keep)
    assert filtered.observed_mask().sum() < obs.observed_mask().sum()
    # The same observations without the merged masks, built from scratch.
    restricted = ObservationSet.from_labels(
        views, {v.view_id: filtered.view_label_map(v.view_id) for v in views},
        {v.view_id: filtered.view_label_table(v.view_id) for v in views})
    f_filtered = lift_rowsum(A, filtered)
    f_restricted = lift_rowsum(A, restricted)
    assert np.array_equal(f_filtered.values, f_restricted.values)
    assert loss_true(A, filtered, f_filtered.values, "l2") == pytest.approx(
        loss_true(A, restricted, f_restricted.values, "l2"), rel=1e-12)
