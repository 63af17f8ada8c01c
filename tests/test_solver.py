import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from oracle import (
    dispersion_reference,
    row_entries,
    splat_scene,
    surrogate_gradient_reference,
    table_lift,
    table_sums,
    two_blob_spec,
)
from splatlift.model import CameraView, InvalidInputError, LiftConfig
from splatlift.rasterize import WeightMatrix, build_weight_matrix, render, render_labels
from splatlift.solver import (
    _accumulate,
    _row_dispersion,
    EPS_COVERAGE,
    LIFT_MODES,
    BoundReport,
    InvariantViolation,
    ObservationSet,
    beta,
    bound_report,
    lift_rowsum,
    lift_streaming,
    loss_surrogate,
    loss_true,
    lsq_oracle,
    surrogate_gradient,
)
from splatlift.synthbench import (
    SILHOUETTE_DOMINANCE,
    layered_sheet_scene,
    make_observations,
    make_scene,
    random_row_stochastic,
)


def tiny_view(rows, view_id="instance"):
    return CameraView(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=1, height=rows,
                      world_to_camera=np.eye(4), view_id=view_id)


def matrix_from_rows(rows, cols, lambda_used=1.0):
    """rows: list of [(col, weight), ...] per ray."""
    indptr = [0]
    indices = []
    weights = []
    for entries in rows:
        for c, w in entries:
            indices.append(c)
            weights.append(w)
        indptr.append(len(indices))
    return WeightMatrix(indptr=indptr, indices=indices, weights=weights, cols=cols,
                        view_ranges={"instance": (0, len(rows))}, lambda_used=lambda_used)


def obs_from_values(values):
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    return ObservationSet.from_dense([tiny_view(len(values))], {"instance": values})


def random_labels(rng, rows, feature_dim):
    """Label-backed observations of rows rays of one view: labels 2, 5, 9
    and unlabeled rays at random, the first ray labeled 2."""
    labels = rng.choice([-1, 2, 5, 9], size=rows)
    labels[0] = 2
    table = {k: rng.normal(size=feature_dim) for k in (2, 5, 9)}
    return ObservationSet.from_labels([tiny_view(rows)], {"instance": labels},
                                      {"instance": table})


# -- lift_rowsum ----------------------------------------------------------------

def test_lift_identity_rows():
    A = matrix_from_rows([[(0, 1.0)], [(1, 1.0)], [(2, 1.0)]], 3)
    obs = obs_from_values([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    field = lift_rowsum(A, obs)
    assert np.allclose(field.values, obs.dense_values())
    assert not field.unobserved.any()


def test_lift_averages_repeated_observations():
    # two rays, both weight 1 on primitive 0: minimizer of (x-b1)^2 + (x-b2)^2
    A = matrix_from_rows([[(0, 1.0)], [(0, 1.0)]], 1)
    field = lift_rowsum(A, obs_from_values([1.0, 3.0]))
    assert field.values[0, 0] == pytest.approx(2.0)


def test_lift_weighted_mean():
    A = matrix_from_rows([[(0, 0.25)], [(0, 0.75)]], 1)
    field = lift_rowsum(A, obs_from_values([0.0, 1.0]))
    assert field.values[0, 0] == pytest.approx(0.75)


def test_lift_flags_unobserved():
    A = matrix_from_rows([[(0, 1.0)], []], 2)
    field = lift_rowsum(A, obs_from_values([2.0, 9.0]))
    assert not field.unobserved[0]
    assert field.unobserved[1]
    assert field.values[1, 0] == 0.0


def test_lift_skips_unlabeled_rays():
    view = tiny_view(2)
    labels = {"instance": np.array([0, -1], dtype=np.int32)}
    tables = {"instance": {0: np.array([5.0])}}
    obs = ObservationSet.from_labels([view], labels, tables)
    A = matrix_from_rows([[(0, 0.5)], [(0, 0.5)]], 1)
    field = lift_rowsum(A, obs)
    assert field.values[0, 0] == pytest.approx(5.0)
    assert field.coverage[0] == pytest.approx(0.5)  # only the labeled ray counts


def test_lift_errors_without_observations():
    A = matrix_from_rows([[], []], 1)
    with pytest.raises(InvalidInputError, match="no observations"):
        lift_rowsum(A, obs_from_values([1.0, 2.0]))


def test_lift_checks_alignment():
    A = matrix_from_rows([[(0, 1.0)]], 1)
    other = ObservationSet.from_dense([tiny_view(1, "other")], {"other": np.ones((1, 1))})
    with pytest.raises(InvalidInputError):
        lift_rowsum(A, other)


# -- lift_rowsum, mode rowsum2 -----------------------------------------------------

def test_squared_equals_plain_for_unit_weights():
    A = matrix_from_rows([[(0, 1.0)], [(1, 1.0)], [(0, 1.0)]], 2)
    obs = obs_from_values([1.0, 2.0, 5.0])
    assert np.array_equal(lift_rowsum(A, obs, "rowsum2").values, lift_rowsum(A, obs).values)


def test_squared_weighting_hand_value():
    # weights 0.5 and 1.0 with observations 0 and 1: 1 / (0.25 + 1) = 0.8
    A = matrix_from_rows([[(0, 0.5)], [(0, 1.0)]], 1)
    field = lift_rowsum(A, obs_from_values([0.0, 1.0]), "rowsum2")
    assert field.values[0, 0] == pytest.approx(0.8)


def test_squared_single_ray_recovers_observation():
    A = matrix_from_rows([[(0, 0.37)]], 1)
    field = lift_rowsum(A, obs_from_values([4.0]), "rowsum2")
    assert field.values[0, 0] == pytest.approx(4.0)


# -- losses -------------------------------------------------------------------------

def test_loss_true_zero_on_exact_fit():
    A = matrix_from_rows([[(0, 1.0)], [(1, 1.0)]], 2)
    obs = obs_from_values([1.0, 2.0])
    x = np.array([[1.0], [2.0]])
    for norm in ("l1", "l2", "huber"):
        assert loss_true(A, obs, x, norm) == 0.0


def test_loss_true_scalar_values():
    A = matrix_from_rows([[(0, 1.0)]], 1)
    obs = obs_from_values([2.0])
    x = np.array([[0.0]])
    assert loss_true(A, obs, x, "l2") == pytest.approx(4.0)   # (2 - 0)^2
    assert loss_true(A, obs, x, "l1") == pytest.approx(2.0)   # |2 - 0|


def test_loss_surrogate_jensen_gap():
    # row [(0, .5), (1, .5)], B = 1, x = (0, 2): J = 1.0 while L = 0
    A = matrix_from_rows([[(0, 0.5), (1, 0.5)]], 2)
    obs = obs_from_values([1.0])
    x = np.array([[0.0], [2.0]])
    assert loss_true(A, obs, x, "l2") == pytest.approx(0.0)
    assert loss_surrogate(A, obs, x, "l2") == pytest.approx(1.0)


def test_loss_surrogate_zero_when_matching():
    A = matrix_from_rows([[(0, 0.8)], [(1, 0.6)]], 2)
    obs = obs_from_values([3.0, -1.0])
    x = np.array([[3.0], [-1.0]])
    assert loss_surrogate(A, obs, x, "l2") == 0.0


def test_unknown_norm_rejected():
    A = matrix_from_rows([[(0, 1.0)]], 1)
    obs = obs_from_values([1.0])
    with pytest.raises(InvalidInputError):
        loss_true(A, obs, np.zeros((1, 1)), "l3")


@pytest.mark.parametrize("norm", ["l1", "l2", "huber"])
def test_jensen_inequality_random(norm):
    rng = np.random.default_rng(42)
    for _ in range(100):
        rows, cols, feats = int(rng.integers(5, 60)), int(rng.integers(2, 20)), int(rng.integers(1, 5))
        A, obs = random_row_stochastic(rng, rows, cols, feats)
        x = rng.normal(size=(cols, feats))
        assert loss_true(A, obs, x, norm) <= loss_surrogate(A, obs, x, norm)


def test_stationarity_of_rowsum_lift():
    rng = np.random.default_rng(17)
    for _ in range(25):
        rows, cols, feats = int(rng.integers(10, 120)), int(rng.integers(3, 30)), int(rng.integers(1, 6))
        A, obs = random_row_stochastic(rng, rows, cols, feats)
        field = lift_rowsum(A, obs)
        grad = surrogate_gradient(A, obs, field.values)
        cov = field.coverage
        assert np.max(np.abs(grad[cov > 0]).max(axis=1) / cov[cov > 0]) <= 1e-8


def test_surrogate_gradient_matches_per_entry_sums_away_from_the_lift():
    # cov * x - M T against sum_i A_ij (x_j - B_i) at random x, dense and
    # label-backed: a gradient without cov * x or with squared weights fails
    rng = np.random.default_rng(29)
    for _ in range(10):
        A, dense = random_row_stochastic(rng, int(rng.integers(10, 80)),
                                         int(rng.integers(3, 20)), int(rng.integers(1, 5)))
        for obs in (dense, random_labels(rng, A.rows, dense.feature_dim)):
            x = rng.normal(size=(A.cols, obs.feature_dim))
            expected = surrogate_gradient_reference(A, obs, x)
            got = surrogate_gradient(A, obs, x)
            assert np.max(np.abs(got - expected)) <= 1e-12 * max(np.max(np.abs(expected)), 1.0)


# -- beta dispersion --------------------------------------------------------------

def test_beta_zero_for_equal_distances():
    A = matrix_from_rows([[(0, 0.5), (1, 0.5)]], 2)
    obs = obs_from_values([0.0])
    x = np.array([[3.0], [-3.0]])  # both entries at distance 3
    per_row, b = beta(A, obs, x)
    assert per_row[0] == pytest.approx(0.0, abs=1e-12)
    assert b == pytest.approx(0.0, abs=1e-12)


def test_beta_hand_value():
    # weights (.5, .5), distances (1, 3): mu = 2, var = 1, beta = 0.25
    A = matrix_from_rows([[(0, 0.5), (1, 0.5)]], 2)
    obs = obs_from_values([0.0])
    x = np.array([[1.0], [3.0]])
    per_row, b = beta(A, obs, x)
    assert per_row[0] == pytest.approx(0.25)
    assert b == pytest.approx(0.25)


def test_beta_single_entry_rows_are_zero():
    A = matrix_from_rows([[(0, 0.7)], [(1, 0.4)]], 2)
    obs = obs_from_values([1.0, 2.0])
    x = np.array([[0.0], [0.0]])
    per_row, b = beta(A, obs, x)
    assert b == 0.0


def test_beta_renormalizes_rows():
    # same distances, row scaled by 0.5: identical beta
    obs = obs_from_values([0.0])
    x = np.array([[1.0], [3.0]])
    full = matrix_from_rows([[(0, 0.5), (1, 0.5)]], 2)
    half = matrix_from_rows([[(0, 0.25), (1, 0.25)]], 2)
    assert beta(full, obs, x)[1] == pytest.approx(beta(half, obs, x)[1])


# -- lsq oracle ---------------------------------------------------------------------

def test_oracle_exact_on_invertible_system():
    A = matrix_from_rows([[(0, 1.0)], [(1, 0.5)]], 2)
    obs = obs_from_values([2.0, 3.0])
    field = lsq_oracle(A, obs)
    assert field.values[0, 0] == pytest.approx(2.0, abs=1e-8)
    assert field.values[1, 0] == pytest.approx(6.0, abs=1e-8)


def test_oracle_overdetermined_mean():
    # A = [[1], [1]], B = [0, 2]: minimizes x^2 + (x - 2)^2 -> x = 1
    A = matrix_from_rows([[(0, 1.0)], [(0, 1.0)]], 1)
    field = lsq_oracle(A, obs_from_values([0.0, 2.0]))
    assert field.values[0, 0] == pytest.approx(1.0, abs=1e-10)


def test_oracle_never_loses_to_rowsum():
    rng = np.random.default_rng(31)
    A, obs = random_row_stochastic(rng, 200, 40, 3)
    l_opt = loss_true(A, obs, lsq_oracle(A, obs).values, "l2")
    l_rowsum = loss_true(A, obs, lift_rowsum(A, obs).values, "l2")
    assert l_opt <= l_rowsum


def test_oracle_gradient_tolerance():
    rng = np.random.default_rng(13)
    for _ in range(10):
        A, obs = random_row_stochastic(rng, 150, 30, 4)
        x = lsq_oracle(A, obs)
        csr = A.to_csr()
        rhs = csr.T @ obs.dense_values()
        grad = csr.T @ (csr @ x.values) - rhs
        assert np.linalg.norm(grad) <= 1e-8 * np.linalg.norm(rhs)


def test_oracle_scale_limit():
    A = matrix_from_rows([[(0, 1.0)]], 6000)
    with pytest.raises(InvalidInputError, match="sub-sample"):
        lsq_oracle(A, obs_from_values([1.0]))


def test_oracle_minimum_norm_on_rank_deficient():
    # one ray, two primitives sharing the weight: infinitely many solutions;
    # the minimum-norm one is along the row direction
    A = matrix_from_rows([[(0, 0.5), (1, 0.5)]], 2)
    field = lsq_oracle(A, obs_from_values([1.0]))
    assert field.values[0, 0] == pytest.approx(1.0, abs=1e-8)
    assert field.values[1, 0] == pytest.approx(1.0, abs=1e-8)


# -- bound report -----------------------------------------------------------------

def test_bound_report_diagonal_case():
    A = matrix_from_rows([[(0, 1.0)], [(1, 1.0)]], 2)
    rep = bound_report(A, obs_from_values([1.0, -2.0]))
    assert rep.loss_true_rowsum == pytest.approx(0.0, abs=1e-18)
    assert rep.loss_surrogate_rowsum == pytest.approx(0.0, abs=1e-18)
    assert rep.loss_surrogate_opt == pytest.approx(0.0, abs=1e-16)
    assert rep.loss_true_opt == pytest.approx(0.0, abs=1e-16)
    assert rep.beta == pytest.approx(0.0, abs=1e-12)
    assert rep.ratio == 1.0


def test_bound_report_chain_on_random_instances():
    rng = np.random.default_rng(5)
    for _ in range(50):
        rows, cols, feats = int(rng.integers(10, 200)), int(rng.integers(3, 40)), int(rng.integers(1, 6))
        A, obs = random_row_stochastic(rng, rows, cols, feats)
        rep = bound_report(A, obs)
        assert rep.loss_true_rowsum <= rep.loss_surrogate_rowsum <= rep.loss_surrogate_opt
        assert rep.loss_true_opt <= rep.loss_true_rowsum
        assert rep.ratio >= 1.0
        # inf only where the optimum fits exactly (fewer rays than primitives)
        exact = rep.loss_true_opt <= 1e-12 * np.sum(obs.dense_values() ** 2)
        assert np.isfinite(rep.ratio) != exact


def test_bound_report_identity():
    rng = np.random.default_rng(23)
    for _ in range(20):
        A, obs = random_row_stochastic(rng, 80, 15, 3)
        rep = bound_report(A, obs)
        An = A.row_normalized()
        x_opt = lsq_oracle(An, obs)
        reps = np.diff(An.indptr)
        rows_idx = np.repeat(np.arange(An.rows), reps)
        delta = np.linalg.norm(x_opt.values[An.indices] - obs.dense_values()[rows_idx], axis=1)
        mu = np.bincount(rows_idx, weights=An.weights * delta, minlength=An.rows)
        identity = float(np.sum((1.0 + rep.beta_per_row) * mu * mu))
        assert identity == pytest.approx(rep.loss_surrogate_opt, rel=1e-9)


def test_bound_report_exact_fit_gives_infinite_ratio():
    # An invertible row-stochastic A fits B = A x exactly; the oracle's
    # L(opt) is rounding residue (about 1e-30), not a loss to divide by.
    A = matrix_from_rows([[(0, 0.5), (1, 0.5)], [(1, 0.25), (2, 0.75)],
                          [(0, 0.75), (2, 0.25)]], 3)
    x = np.array([[1.0, -2.0], [3.0, 0.5], [-1.0, 2.0]])
    rep = bound_report(A, obs_from_values(A.to_csr() @ x))
    assert rep.loss_true_opt <= 1e-12 * np.sum((A.to_csr() @ x) ** 2)
    assert rep.loss_true_rowsum > 1.0
    assert rep.ratio == np.inf


def test_bound_report_accepts_an_exact_fit_of_both_lifts():
    # All of the first 1,500 splats of the bundled two-blob scene belong to
    # one object, so every observed ray sees one table row and the row-sum
    # lift fits exactly: L(rowsum) is 0.0, and the oracle leaves a rounding
    # residue far below the 1e-12 ||B||^2 exact-fit floor.
    spec = two_blob_spec(noise_fraction=0.0, resolution=24, views=2)
    scene, views, ids = make_scene(spec)
    keep = slice(0, 1500)
    scene = type(scene)(scene.positions[keep], scene.log_scales[keep], scene.rotations[keep],
                        scene.thetas[keep], scene.kernels[keep])
    assert len(np.unique(ids[keep])) == 1
    A = build_weight_matrix(scene, views, LiftConfig(lam=1.2))
    obs, _ = make_observations(render_labels(A, ids[keep], SILHOUETTE_DOMINANCE), views, spec)
    rep = bound_report(A, obs)
    floor = 1e-12 * np.sum(obs.table[obs.index[obs.observed_mask()]] ** 2)
    assert rep.loss_true_rowsum == 0.0 and 0.0 < rep.loss_true_opt <= floor
    assert rep.ratio == 1.0
    fields = dict(loss_true_rowsum=0.0, loss_surrogate_rowsum=0.0, loss_surrogate_opt=0.0,
                  loss_true_opt=rep.loss_true_opt, beta=0.0, beta_per_row=np.zeros(1),
                  mu_per_row=np.zeros(1), ratio=1.0)
    with pytest.raises(InvariantViolation, match="oracle dominance"):
        BoundReport(**fields, fit_floor=0.5 * rep.loss_true_opt)  # above the floor


def test_bound_report_over_covered_observed_rays():
    # an observed ray with no entries composites to 0 for every x, so it
    # would add B_i^2 to L and nothing to J; the report leaves it out
    rows = [[(0, 0.5), (1, 0.5)], [(1, 1.0)]]
    rep = bound_report(matrix_from_rows(rows + [[]], 2), obs_from_values([1.0, 2.0, 3.0]))
    two = bound_report(matrix_from_rows(rows, 2), obs_from_values([1.0, 2.0]))
    for name in ("loss_true_rowsum", "loss_surrogate_rowsum", "loss_surrogate_opt",
                 "loss_true_opt", "beta", "ratio"):
        assert getattr(rep, name) == getattr(two, name), name
    assert np.array_equal(rep.beta_per_row, np.append(two.beta_per_row, 0.0))
    assert np.array_equal(rep.mu_per_row, np.append(two.mu_per_row, 0.0))


def test_bound_report_invariant_violation_raises():
    with pytest.raises(InvariantViolation):
        BoundReport(loss_true_rowsum=2.0, loss_surrogate_rowsum=1.0,
                    loss_surrogate_opt=3.0, loss_true_opt=0.5,
                    beta=0.0, beta_per_row=np.zeros(1), mu_per_row=np.zeros(1), ratio=4.0)


# -- dispersion vs polarization -----------------------------------------------------

def random_label_case(rays, cols, feature_dim, labels=6, seed=9):
    """A random row-stochastic matrix whose rays carry one of `labels` table
    rows of random features, one ray in ten unobserved."""
    rng = np.random.default_rng(seed)
    A, _ = random_row_stochastic(rng, rays, cols, 1)
    label_map = rng.integers(0, labels, size=rays)
    label_map[::10] = -1
    table = {k: rng.normal(size=feature_dim) for k in range(labels)}
    return A, ObservationSet.from_labels([tiny_view(rays)], {"instance": label_map},
                                         {"instance": table})


@pytest.mark.parametrize("backing", ["labels", "dense"])
def test_dispersion_equals_the_per_entry_reference_bitwise(backing):
    # each (primitive, table row) distance is taken once and gathered to its
    # entries; every entry's distance, and so mu and beta, keep their bytes
    if backing == "labels":
        A, obs = random_label_case(300, 80, 512)
    else:
        A, obs = random_row_stochastic(np.random.default_rng(4), 300, 80, 16)
    x = np.random.default_rng(5).normal(size=(A.cols, obs.feature_dim))
    for xv in (x, lift_rowsum(A, obs).values):
        mu, beta_rows = _row_dispersion(A, obs, xv)
        want_mu, want_beta = dispersion_reference(A, obs, xv)
        assert mu.tobytes() == want_mu.tobytes()
        assert beta_rows.tobytes() == want_beta.tobytes()
        assert np.count_nonzero(beta_rows) > 100


def test_beta_of_a_wide_label_field_takes_no_entry_wide_copy():
    # 8,172 observed entries over 6 table rows at F = 512: one F-wide
    # float64 row per entry would take 33 MB per temporary
    A, obs = random_label_case(2000, 500, 512)
    x = lift_rowsum(A, obs).values
    A.row_sums()  # cached beforehand: not the dispersion's own memory
    tracemalloc.start()
    try:
        beta_rows, _ = beta(A, obs, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert beta_rows.shape == (2000,)
    assert peak < 8 * 2**20


def test_beta_non_increasing_in_lambda():
    scene, views, obs = layered_sheet_scene()
    betas = []
    for lam in (1.0, 1.2, 1.5, 2.0, 4.0):
        A = build_weight_matrix(scene, views, LiftConfig(lam=lam))
        betas.append(bound_report(A, obs).beta)
    assert all(b2 <= b1 for b1, b2 in zip(betas, betas[1:])), betas


# -- streaming ------------------------------------------------------------------------

@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("view_count", [1, 3])
@pytest.mark.parametrize("backing", ["labels", "dense"])
def test_streaming_matches_matrix_path(backing, view_count, threads):
    # The matrix lift sums A's rows view by view and the stream the build's
    # arrays of each view, both through _accumulate, and both add the view
    # sums in view order: the fields agree bitwise, table weights included,
    # at any thread count.
    spec = two_blob_spec(noise_fraction=0.0, resolution=32, views=view_count)
    scene, views, ids = make_scene(spec)
    clean = build_weight_matrix(scene, views, LiftConfig(lam=1.0))
    obs, _ = make_observations(render_labels(clean, ids, SILHOUETTE_DOMINANCE), views, spec)
    if backing == "dense":
        dense = obs.dense_values()
        obs = ObservationSet.from_dense(
            views, {vid: dense[start:stop] for vid, (start, stop) in obs.view_ranges.items()}
        ).masked(obs.observed_mask())
    assert 0 < np.count_nonzero(obs.observed_mask()) < obs.rows
    cfg = LiftConfig(lam=1.2)
    A = build_weight_matrix(scene, views, cfg, threads=threads)
    for mode in LIFT_MODES:
        direct = lift_rowsum(A, obs, mode)
        streamed = lift_streaming(scene, views, obs, cfg, mode=mode, threads=threads)
        assert streamed.values.tobytes() == direct.values.tobytes()
        assert streamed.coverage.tobytes() == direct.coverage.tobytes()
        for part in ("indptr", "indices", "data"):
            assert (getattr(streamed.table_weights, part).tobytes()
                    == getattr(direct.table_weights, part).tobytes())
        assert np.count_nonzero(~direct.unobserved) > 0


@pytest.mark.parametrize("ranges", [
    {"a": (0, 2), "b": (3, 6)},
    {"a": (0, 3), "b": (2, 6)},
    {"b": (2, 6), "a": (0, 2)},
    {"a": (0, 2), "b": (2, 5)},
], ids=["gap", "overlap", "out_of_order", "short"])
def test_lifts_refuse_view_ranges_that_do_not_tile_the_rows(ranges):
    # the matrix lift and the gradient sum A view by view; rows outside the
    # views, or views out of order, are refused when A is formed rather than
    # left out of a lift
    A, _ = random_row_stochastic(np.random.default_rng(26), 6, 5, 2)
    with pytest.raises(InvalidInputError, match="view ranges must tile the weight rows"):
        WeightMatrix(A.indptr, A.indices, A.weights, A.cols, ranges, 1.0)


def coo_triples(G):
    """(row, col, value) of every stored entry, sorted by row and column."""
    G = G.tocoo()
    order = np.lexsort((G.col, G.row))
    return G.row[order].tolist(), G.col[order].tolist(), G.data[order].tobytes()


@pytest.mark.parametrize("mode", LIFT_MODES)
@pytest.mark.parametrize("backing", ["labels", "dense"])
def test_table_weights_are_the_scaled_rows_of_m(backing, mode):
    # G = diag(1/den) M scales M's entries row by row: the (row, col, value)
    # triples of the sparse product, without its explicit zeros, in M's
    # sorted column order. Primitive 6 lies only on an unobserved ray and 7
    # on no ray (den = 0); 8 has coverage 1e-9 < EPS_COVERAGE.
    rng = np.random.default_rng(27)
    rows = [[(0, 0.3), (8, 1e-9)], [(6, 0.5)]] + [
        [(int(j), 0.1 + 0.1 * rng.random()) for j in rng.choice(6, 3, replace=False)]
        for _ in range(38)]
    A = matrix_from_rows(rows, 9)
    if backing == "labels":
        labels = rng.integers(0, 4, len(rows))
        labels[1] = -1
        obs = ObservationSet.from_labels(
            [tiny_view(len(rows))], {"instance": labels},
            {"instance": {k: rng.normal(size=3) for k in range(4)}})
    else:
        keep = np.arange(len(rows)) != 1
        obs = obs_from_values(rng.normal(size=(len(rows), 3))).masked(keep)
    squared = mode == "rowsum2"
    M, den, cov = _accumulate((A.indptr, A.indices, A.weights), A.cols, obs.index,
                              len(obs.table), squared)
    kept = (den > 0) & (cov >= EPS_COVERAGE)
    assert not kept[6:].any() and den[6] == den[7] == 0.0 and den[8] > 0.0
    scale = np.divide(1.0, den, out=np.zeros_like(den), where=kept)
    G = lift_rowsum(A, obs, mode).table_weights
    assert coo_triples(G) == coo_triples(sp.diags(scale) @ M)
    assert all(np.all(np.diff(cols) > 0) for cols in np.split(G.indices, G.indptr[1:-1]))
    assert G.indptr[6] == G.indptr[-1] and G.nnz > 20


def test_streaming_bit_identical_across_threads():
    spec = two_blob_spec(noise_fraction=0.0, resolution=32, views=3)
    scene, views, ids = make_scene(spec)
    clean = build_weight_matrix(scene, views, LiftConfig(lam=1.0))
    obs, _ = make_observations(
        render_labels(clean, ids, SILHOUETTE_DOMINANCE), views, spec)
    cfg = LiftConfig(lam=1.2)
    one = lift_streaming(scene, views, obs, cfg, threads=1)
    two = lift_streaming(scene, views, obs, cfg, threads=2)
    assert np.array_equal(one.values, two.values)
    assert np.array_equal(one.coverage, two.coverage)


@pytest.mark.parametrize("squared", [False, True])
def test_label_backed_wide_lift_matches_sparse_reference(squared):
    # (A_obs^T B) / (A_obs^T 1) with 512-D label embeddings, computed with scipy
    spec = two_blob_spec(noise_fraction=0.0, resolution=32, views=2)
    scene, views, ids = make_scene(spec)
    clean = build_weight_matrix(scene, views, LiftConfig(lam=1.0))
    masks, _ = make_observations(
        render_labels(clean, ids, SILHOUETTE_DOMINANCE), views, spec)
    rng = np.random.default_rng(11)
    tables = {vid: {k: rng.normal(size=512) for k in masks.view_label_table(vid)}
              for vid in masks.view_ranges}
    labels = {vid: masks.view_label_map(vid) for vid in masks.view_ranges}
    obs = ObservationSet.from_labels(views, labels, tables)
    A = build_weight_matrix(scene, views, LiftConfig(lam=1.2))
    field = lift_rowsum(A, obs, "rowsum2" if squared else "rowsum")

    observed = obs.observed_mask()
    a_obs = A.to_csr()[np.flatnonzero(observed)]
    w_obs = a_obs.multiply(a_obs).tocsr() if squared else a_obs
    num = w_obs.T @ obs.dense_values()[observed]
    den = np.asarray(w_obs.sum(axis=0)).reshape(-1)
    coverage = np.asarray(a_obs.sum(axis=0)).reshape(-1)
    expected = np.zeros_like(num)
    seen = coverage >= EPS_COVERAGE
    expected[seen] = num[seen] / den[seen, None]
    assert field.values.shape == (len(scene), 512)
    assert np.count_nonzero(seen) > 0
    assert np.allclose(field.coverage, coverage, rtol=1e-12, atol=0)
    assert np.max(np.abs(field.values - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("path", ["rowsum", "rowsum2", "streaming", "sums"])
def test_label_backed_lifts_never_materialize_dense_values(path, monkeypatch):
    # mask-style observations lift as (A_obs^T L) T over the label table; the
    # losses, gradient, beta, oracle and bound read the observed rays' table
    # rows, dense or label-backed
    def refuse(self):
        raise AssertionError("the solver materialized the dense value matrix")

    if path == "sums":
        rng = np.random.default_rng(8)
        A, dense = random_row_stochastic(rng, 60, 12, 3)
        instances = [dense, random_labels(rng, A.rows, 3)]
        monkeypatch.setattr(ObservationSet, "dense_values", refuse)
        for obs in instances:
            x = rng.normal(size=(A.cols, obs.feature_dim))
            for norm in ("l1", "l2", "huber"):
                assert loss_true(A, obs, x, norm) <= loss_surrogate(A, obs, x, norm)
            assert surrogate_gradient(A, obs, x).shape == x.shape
            assert beta(A, obs, x)[0].shape == (A.rows,)
            assert lsq_oracle(A, obs).values.shape == x.shape
            assert bound_report(A, obs).ratio >= 1.0
        return
    spec = two_blob_spec(noise_fraction=0.0, resolution=32, views=2)
    scene, views, ids = make_scene(spec)
    clean = build_weight_matrix(scene, views, LiftConfig(lam=1.0))
    obs, _ = make_observations(
        render_labels(clean, ids, SILHOUETTE_DOMINANCE), views, spec)
    cfg = LiftConfig(lam=1.2)
    A = build_weight_matrix(scene, views, cfg)
    monkeypatch.setattr(ObservationSet, "dense_values", refuse)
    if path == "streaming":
        field = lift_streaming(scene, views, obs, cfg)
    else:
        field = lift_rowsum(A, obs, path)
    assert np.count_nonzero(~field.unobserved) > 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_label_backed_lift_matches_its_dense_values(seed):
    # one table row per (view, label) and one per ray lift to the same field,
    # before and after the same row restriction
    rng = np.random.default_rng(seed)
    rows = 40
    A, _ = random_row_stochastic(rng, rows, 12, 1)
    by_label = random_labels(rng, rows, 3)
    dense = ObservationSet.from_dense(
        [tiny_view(rows)], {"instance": by_label.dense_values()}).masked(by_label.observed_mask())
    keep = rng.uniform(size=rows) > 0.4
    keep[0] = True
    for a, b in ((by_label, dense), (by_label.masked(keep), dense.masked(keep))):
        assert np.array_equal(a.observed_mask(), b.observed_mask())
        for mode in LIFT_MODES:
            fa, fb = lift_rowsum(A, a, mode), lift_rowsum(A, b, mode)
            assert np.array_equal(fa.coverage, fb.coverage)
            assert np.max(np.abs(fa.values - fb.values)) <= 1e-12 * np.max(np.abs(fb.values))


def test_streaming_single_splat_exact():
    view = CameraView(fx=20.0, fy=20.0, cx=1.5, cy=1.5, width=3, height=3,
                      world_to_camera=np.eye(4), view_id="v")
    scene = splat_scene([0, 0, 1], 20.0, 12.0)
    obs = ObservationSet.from_dense([view], {"v": np.full((9, 2), 3.5)})
    cfg = LiftConfig(lam=1.0)
    direct = lift_rowsum(build_weight_matrix(scene, [view], cfg), obs)
    streamed = lift_streaming(scene, [view], obs, cfg)
    assert np.array_equal(direct.values, streamed.values)


def test_streaming_rejects_empty_observations():
    view = CameraView(fx=20.0, fy=20.0, cx=1.5, cy=1.5, width=3, height=3,
                      world_to_camera=np.eye(4), view_id="v")
    scene = splat_scene([0, 0, 1], 20.0, 12.0)
    labels = {"v": np.full(9, -1, dtype=np.int32)}  # every ray unlabeled
    obs = ObservationSet.from_labels([view], labels, {"v": {7: np.array([1.0])}})
    with pytest.raises(InvalidInputError):
        lift_streaming(scene, [view], obs, LiftConfig(lam=1.0))


# -- observation sets ----------------------------------------------------------------

def test_label_backed_dense_values():
    view = tiny_view(4)
    labels = {"instance": np.array([0, 1, -1, 0], dtype=np.int32)}
    tables = {"instance": {0: np.array([1.0, 0.0]), 1: np.array([0.0, 2.0])}}
    obs = ObservationSet.from_labels([view], labels, tables)
    dense = obs.dense_values()
    assert np.allclose(dense, [[1, 0], [0, 2], [0, 0], [1, 0]])
    assert list(obs.observed_mask()) == [True, True, False, True]


def test_labels_must_appear_in_table():
    view = tiny_view(2)
    labels = {"instance": np.array([0, 3], dtype=np.int32)}
    tables = {"instance": {0: np.array([1.0])}}
    with pytest.raises(InvalidInputError):
        ObservationSet.from_labels([view], labels, tables)


def test_masked_restriction_matches_full_relift():
    # dropping observations is the identical subproblem as zeroing those rows
    rng = np.random.default_rng(77)
    A, obs = random_row_stochastic(rng, 60, 10, 2)
    keep = rng.uniform(size=60) > 0.3
    restricted = obs.masked(keep)
    f1 = lift_rowsum(A, restricted)
    sub = matrix_from_rows(
        [[(c, w) for c, w in zip(*row_entries(A, i))] if keep[i] else []
         for i in range(A.rows)], A.cols)
    f2 = lift_rowsum(sub, restricted)
    assert np.allclose(f1.values, f2.values, atol=1e-15)
    # loss over the retained rays is identical for both routes
    assert loss_true(A, restricted, f1.values, "l2") == pytest.approx(
        loss_true(sub, restricted, f2.values, "l2"), rel=1e-12)


# -- table space: the lift's table weights and the K-wide render ------------------------

def wide_label_scene(feature_dim=64, views=3, seed=5):
    """Scene, views and label-backed observations of a few views whose masks
    carry random unit features of feature_dim dimensions (K < F)."""
    spec = two_blob_spec(noise_fraction=0.0, resolution=32, views=views)
    scene, views, ids = make_scene(spec)
    clean = build_weight_matrix(scene, views, LiftConfig(lam=1.0))
    masks, _ = make_observations(
        render_labels(clean, ids, SILHOUETTE_DOMINANCE), views, spec)
    rng = np.random.default_rng(seed)

    def unit():
        v = rng.normal(size=feature_dim)
        return v / np.linalg.norm(v)

    tables = {vid: {k: unit() for k in masks.view_label_table(vid)} for vid in masks.view_ranges}
    labels = {vid: masks.view_label_map(vid) for vid in masks.view_ranges}
    obs = ObservationSet.from_labels(views, labels, tables)
    assert len(obs.table) < obs.feature_dim
    return scene, views, obs


def faint_label_case():
    """A hand-made matrix over 4 primitives: primitive 2 is seen only with a
    weight below EPS_COVERAGE, primitive 3 not at all; three table rows of
    random 8-D features, one ray unobserved."""
    A = matrix_from_rows([[(0, 0.5), (1, 0.25)], [(1, 0.75), (2, 1e-9)], [(0, 1.0)],
                          [(2, 0.5)], [(1, 0.5), (0, 0.5)]], cols=4)
    rng = np.random.default_rng(3)
    labels = np.array([4, 7, 9, -1, 7])
    obs = ObservationSet.from_labels([tiny_view(5)], {"instance": labels},
                                     {"instance": {k: rng.normal(size=8) for k in (4, 7, 9)}})
    return A, obs


@pytest.mark.parametrize("mode", LIFT_MODES)
def test_matrix_lift_is_bitwise_the_table_space_oracle(mode):
    scene, views, obs = wide_label_scene()
    A = build_weight_matrix(scene, views, LiftConfig(lam=1.2))
    faint_A, faint_obs = faint_label_case()
    for matrix, observations in ((A, obs), (faint_A, faint_obs)):
        field = lift_rowsum(matrix, observations, mode)
        assert np.array_equal(field.values, table_lift(matrix, observations, mode == "rowsum2"))
        assert np.count_nonzero(~field.unobserved) > 0
    # the faint primitive has den > 0 but is zeroed, as is the unseen one
    assert 0.0 < field.coverage[2] < EPS_COVERAGE
    assert np.array_equal(field.unobserved, [False, False, True, True])
    assert not np.any(field.values[2:])


@pytest.mark.parametrize("mode", LIFT_MODES)
def test_table_sums_add_the_entries_in_storage_order(mode):
    # More than 16 entries on one (primitive, table row) pair, past the
    # insertion sort of an unstable sort by table row, with weights of about
    # 1, 1e-8 and 1e-16, whose sums depend on their order: M, den and cov
    # are the left-to-right sums over the entries in storage order.
    rng = np.random.default_rng(24)
    rays, squared = 90, mode == "rowsum2"
    weights = rng.choice([1.0, 1e-8, 1e-16], size=rays) * rng.uniform(0.5, 1.0, size=rays)
    labels = rng.choice([-1, 3, 3, 3, 8], size=rays)
    labels[:2] = 3, 8
    A = matrix_from_rows([[(i % 2, w)] for i, w in enumerate(weights)], cols=3)
    obs = ObservationSet.from_labels([tiny_view(rays)], {"instance": labels},
                                     {"instance": {3: np.ones(2), 8: np.zeros(2)}})
    M, den, cov = _accumulate((A.indptr, A.indices, A.weights), A.cols, obs.index,
                              len(obs.table), squared)
    want_M, want_den, want_cov = np.zeros((3, 2)), [0.0] * 3, [0.0] * 3
    terms = {}
    for i, w in enumerate(weights.tolist()):
        if labels[i] >= 0:
            p, k, w_eff = i % 2, int(labels[i] == 8), w * w if squared else w
            want_M[p, k] += w_eff
            want_den[p] += w_eff
            want_cov[p] += w
            terms.setdefault((p, k), []).append(w_eff)
    assert len(terms[0, 0]) > 16 and len(terms[1, 0]) > 16
    # the sums depend on the order: summed backwards or sorted they differ
    for order in (reversed, sorted):
        assert any(sum(order(t)) != want_M[pk] for pk, t in terms.items())
    assert np.array_equal(M.toarray(), want_M)
    assert np.array_equal(den, want_den) and np.array_equal(cov, want_cov)
    assert np.array_equal(lift_rowsum(A, obs, mode).coverage, want_cov)
    assert np.array_equal(table_sums(A, obs, squared)[0], want_M)


@pytest.mark.parametrize("path", ["matrix", "streaming"])
@pytest.mark.parametrize("mode", ["rowsum", "rowsum2", "rowsum3"])
def test_table_weights_render_as_the_values(mode, path):
    # (A G) T composites the same rays as A x, x = G T, to rounding, and as
    # the table-space oracle's field; both paths refuse a mode that is not
    # one of LIFT_MODES with the same message
    scene, views, obs = wide_label_scene()
    cfg = LiftConfig(lam=1.2)
    A = build_weight_matrix(scene, views, cfg)
    if mode not in LIFT_MODES:
        message = re.escape("unknown lift mode 'rowsum3' (expected one of rowsum, rowsum2)")
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            if path == "streaming":
                lift_streaming(scene, views, obs, cfg, mode=mode)
            else:
                lift_rowsum(A, obs, mode)
        return
    if path == "streaming":
        # the streamed sums stay K wide until one product, as the matrix path's
        field = lift_streaming(scene, views, obs, cfg, mode=mode)
        direct = lift_rowsum(A, obs, mode).values
        assert np.max(np.abs(field.values - direct)) <= 1e-12 * np.max(np.abs(direct))
        cases = [(A, field, obs)]
    else:
        faint_A, faint_obs = faint_label_case()
        cases = [(A, lift_rowsum(A, obs, mode), obs),
                 (faint_A, lift_rowsum(faint_A, faint_obs, mode), faint_obs)]
    for matrix, field, observations in cases:
        G = field.table_weights
        assert G.shape == (matrix.cols, len(observations.table))
        assert np.max(np.abs(G @ observations.table - field.values)) \
            <= 1e-12 * np.max(np.abs(field.values))
        assert G[np.flatnonzero(field.unobserved)].nnz == 0
        got = render(matrix, G.toarray(), 0.0) @ observations.table
        oracle = table_lift(matrix, observations, squared=mode == "rowsum2")
        for values in (field.values, oracle):
            expected = render(matrix, values, 0.0)
            assert got.shape == expected.shape
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

