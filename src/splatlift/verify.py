"""Runnable property suites: Jensen bound, loss-chain sweep, row-sum
statistics, and the Monte-Carlo background-gradient check. Each suite returns
(passed, report lines, csv rows) so the CLI can print and persist them."""

from __future__ import annotations

import inspect

import numpy as np

from .model import InvalidInputError, LiftConfig
from .rasterize import build_weight_matrix
from .solver import (
    bound_report,
    lift_rowsum,
    loss_surrogate,
    loss_true,
    lsq_oracle,
    surrogate_gradient,
)
from .synthbench import (
    alpha_sum_stats,
    layered_sheet_scene,
    make_scene,
    mc_background_gradient,
    opaque_wall_spec,
    random_row_stochastic,
)


class VerificationError(RuntimeError):
    """A verify suite found a violated invariant."""


def _random_sizes(rng):
    return (int(rng.integers(20, 501)), int(rng.integers(5, 61)), int(rng.integers(1, 9)))


def jensen_suite(seed: int = 7, instances: int = 100):
    """loss_true <= loss_surrogate on row-stochastic instances, per norm."""
    rng = np.random.default_rng(seed)
    lines = []
    violations = 0
    for i in range(instances):
        rows, cols, feats = _random_sizes(rng)
        A, obs = random_row_stochastic(rng, rows, cols, feats)
        x = rng.normal(size=(cols, feats))
        for norm in ("l1", "l2", "huber"):
            lt = loss_true(A, obs, x, norm, huber_delta=1.0)
            ls = loss_surrogate(A, obs, x, norm, huber_delta=1.0)
            if not lt <= ls:
                violations += 1
                lines.append(f"VIOLATION instance {i} norm {norm}: "
                             f"loss_true={lt!r} > loss_surrogate={ls!r}")
    ok = violations == 0
    lines.append(f"{instances}/{instances} instances: L <= J under L1, L2, Huber"
                 if ok else f"{violations} Jensen violations")
    return ok, lines, []


def stationarity_suite(seed: int = 7, instances: int = 100):
    """The row-sum lift zeroes the surrogate gradient to 1e-8 relative."""
    rng = np.random.default_rng(seed)
    lines = []
    worst = 0.0
    for _ in range(instances):
        rows, cols, feats = _random_sizes(rng)
        A, obs = random_row_stochastic(rng, rows, cols, feats)
        field = lift_rowsum(A, obs)
        grad = surrogate_gradient(A, obs, field)
        cov = field.coverage
        seen = cov > 0
        rel = float(np.max(np.abs(grad[seen]).max(axis=1) / cov[seen]))
        worst = max(worst, rel)
    ok = worst <= 1e-8
    lines.append(f"worst relative surrogate gradient at the row-sum lift: {worst:.3e} "
                 f"({'<=' if ok else '>'} 1e-8)")
    return ok, lines, []


def bounds_suite(seed: int = 11, instances: int = 500):
    """Loss chain, dispersion identity, and oracle dominance on random instances.

    Emits one CSV row per instance with the loss ratio and 1 + beta; the
    ratio-versus-bound comparison is reported, not asserted.
    """
    rng = np.random.default_rng(seed)
    lines = []
    rows_csv = [("instance", "loss_ratio", "one_plus_beta", "beta",
                 "loss_true_rowsum", "loss_true_opt")]
    violations = 0
    identity_worst = 0.0
    for i in range(instances):
        rows, cols, feats = _random_sizes(rng)
        A, obs = random_row_stochastic(rng, rows, cols, feats)
        try:
            rep = bound_report(A, obs)
        except Exception as exc:  # InvariantViolation carries the inequality
            violations += 1
            lines.append(f"VIOLATION instance {i}: {exc}")
            continue
        if not (rep.loss_true_opt <= rep.loss_true_rowsum):
            violations += 1
            lines.append(f"VIOLATION instance {i}: L(opt)={rep.loss_true_opt!r} > "
                         f"L(rowsum)={rep.loss_true_rowsum!r}")
        identity = float(np.sum((1.0 + rep.beta_per_row)
                                * _row_mu_squared(A, obs, rep)))
        rel = abs(identity - rep.loss_surrogate_opt) / max(rep.loss_surrogate_opt, 1e-300)
        identity_worst = max(identity_worst, rel)
        if rel > 1e-9:
            violations += 1
            lines.append(f"VIOLATION instance {i}: J(opt)={rep.loss_surrogate_opt!r} != "
                         f"sum (1+beta_i) mu_i^2 = {identity!r} (rel {rel:.2e})")
        rows_csv.append((i, rep.ratio, 1.0 + rep.beta, rep.beta,
                         rep.loss_true_rowsum, rep.loss_true_opt))
    ok = violations == 0
    lines.append(f"{instances - violations}/{instances} instances: "
                 "L(rowsum) <= J(rowsum) <= J(opt), identity within 1e-9 "
                 f"(worst {identity_worst:.2e}), and L(opt) <= L(rowsum)")
    return ok, lines, rows_csv


def _row_mu_squared(A, obs, rep):
    """mu_i^2 per row on the row-normalized system at the oracle solution."""
    from .solver import _observed_entries

    An = A.row_normalized()
    x_opt = lsq_oracle(An, obs)
    rows, cols, weights = _observed_entries(An, obs)
    delta = np.linalg.norm(x_opt.values[cols] - obs.dense_values()[rows], axis=1)
    mu = np.bincount(rows, weights=weights * delta, minlength=An.rows)
    return mu * mu


def dispersion_sweep_suite(lams=(1.0, 1.2, 1.5, 2.0, 4.0)):
    """Dispersion at the optimum is non-increasing as polarization sharpens."""
    scene, views, obs = layered_sheet_scene()
    betas = []
    lines = []
    for lam in lams:
        A = build_weight_matrix(scene, views, LiftConfig(lam=lam))
        rep = bound_report(A, obs)
        betas.append(rep.beta)
        lines.append(f"lam={lam}: beta={rep.beta:.6f}")
    ok = all(b2 <= b1 + 1e-12 for b1, b2 in zip(betas, betas[1:]))
    lines.append("beta non-increasing in lambda" if ok
                 else f"VIOLATION: beta sequence {betas} is not non-increasing")
    return ok, lines, [("lambda", "beta")] + list(zip(lams, betas))


def alpha_suite(seed: int = 3, target: float = 99.6, floor: float = 99.0):
    """Opaque-wall mean row sums against the quantization-scale threshold."""
    spec = opaque_wall_spec(seed=seed)
    scene, views, _ = make_scene(spec)
    A = build_weight_matrix(scene, views, LiftConfig(lam=1.2))
    stats = alpha_sum_stats(A)
    lines = []
    ok = True
    rows_csv = [("view_id", "mean_percent", "std_percent")]
    for vid, (mean, std) in stats.items():
        verdict = "meets target" if mean >= target else (
            "above floor" if mean >= floor else "BELOW FLOOR")
        if mean < floor:
            ok = False
        lines.append(f"{vid}: mean={mean:.4f}% std={std:.4f}% ({verdict}, "
                     f"target {target}%, floor {floor}%)")
        rows_csv.append((vid, mean, std))
    return ok, lines, rows_csv


def mc_suite(seed: int = 5, n_samples: int = 100_000, s_values=(0.0, 0.25, 0.5, 1.0)):
    """Monte-Carlo background gradient against the analytic value (s-1)/3.

    Also checks the O(1/sqrt(n)) rate: doubling the sample count halves the
    squared standard error within 20%.
    """
    lines = []
    ok = True
    rows_csv = [("s", "estimate", "standard_error", "analytic")]
    for s in s_values:
        res = mc_background_gradient(s, n_samples=n_samples, seed=seed)
        err = abs(res.estimate - res.analytic)
        within = err <= 3.0 * res.standard_error
        if not within:
            ok = False
        lines.append(f"s={s}: estimate={res.estimate:+.6f} SE={res.standard_error:.2e} "
                     f"analytic={res.analytic:+.6f} |err|={err:.2e} "
                     f"({'<=' if within else '>'} 3*SE)")
        rows_csv.append((s, res.estimate, res.standard_error, res.analytic))
    for i, s in enumerate((0.0, 0.5)):
        r1 = mc_background_gradient(s, n_samples=n_samples, seed=seed + 100 + i)
        r2 = mc_background_gradient(s, n_samples=2 * n_samples, seed=seed + 100 + i)
        var_ratio = (r2.standard_error / r1.standard_error) ** 2
        rate_ok = 0.4 <= var_ratio <= 0.6
        if not rate_ok:
            ok = False
        lines.append(f"s={s}: SE^2 ratio at 2x samples = {var_ratio:.4f} "
                     f"({'in' if rate_ok else 'OUTSIDE'} [0.4, 0.6])")
    return ok, lines, rows_csv


SUITES = {
    "jensen": jensen_suite,
    "stationarity": stationarity_suite,
    "bounds": bounds_suite,
    "dispersion": dispersion_sweep_suite,
    "alpha": alpha_suite,
    "mc": mc_suite,
}


def run_suite(name: str, seed: int | None = None):
    if name not in SUITES:
        raise InvalidInputError(
            f"unknown suite {name!r} (expected one of {', '.join(sorted(SUITES))})")
    fn = SUITES[name]
    if seed is None:
        return fn()
    if "seed" not in inspect.signature(fn).parameters:
        raise InvalidInputError(f"suite {name!r} takes no seed")
    return fn(seed=seed)
