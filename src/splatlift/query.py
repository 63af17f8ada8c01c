"""Query-time operations: attention scores against embeddings, 2D attention
rendering, histogram-valley auto-thresholding, segmentation, and the cosine
metric."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import InvalidInputError
from .rasterize import ROW_BLOCK_VALUES, WeightMatrix, render
from .solver import FeatureField, ObservationSet

BACKGROUND_SCORE = -1.0


class ValleyNotFoundError(RuntimeError):
    """The score histogram has no interior valley; fall back to a fixed threshold."""


@dataclass(frozen=True)
class QueryEmbedding:
    """A named query vector, unit-normalized on construction."""

    vector: np.ndarray
    name: str = "query"

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=np.float64).reshape(-1)
        n = np.linalg.norm(v)
        if not np.all(np.isfinite(v)) or n == 0.0:
            raise InvalidInputError("query embedding must be finite and nonzero")
        v = v / n
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)


def attention_scores(field: FeatureField, query: QueryEmbedding) -> np.ndarray:
    """Cosine similarity of every lifted feature against the query.

    Unobserved or zero-norm primitives score -1 so they never rise above a
    threshold on real scores. The field's rows are widened to float64 a
    block at a time, each row's squared norm serving both the zero-row test
    and the cosine. Blocks hold a multiple of 64 rows, so that a BLAS kernel
    groups the rows of each block as in one product over all rows.
    """
    P, F = field.count, field.feature_dim
    if F != query.vector.shape[0]:
        raise InvalidInputError(f"feature dim {F} does not match query dim {query.vector.shape[0]}")
    scores, squares = np.empty(P), np.empty(P)
    step = 64 * max(1, ROW_BLOCK_VALUES // (64 * F))
    block = np.empty((min(step, P), F))
    for lo in range(0, P, step):
        rows = block[:min(step, P - lo)]
        rows[...] = field.values[lo:lo + step]
        np.einsum("ij,ij->i", rows, rows, out=squares[lo:lo + step])
        np.matmul(rows, query.vector, out=scores[lo:lo + step])
    valid = squares > 0
    if field.coverage is not None:  # without coverage, unobserved rows are zero rows
        valid &= ~field.unobserved
    np.divide(scores, np.sqrt(squares), out=scores, where=valid)
    scores[~valid] = BACKGROUND_SCORE
    return scores


def render_attention(A: WeightMatrix, scores: np.ndarray) -> np.ndarray:
    """Composite per-primitive scores to one score per ray of A; the
    background contributes BACKGROUND_SCORE."""
    return render(A, scores, BACKGROUND_SCORE)


def to_display(scores: np.ndarray, covered: np.ndarray) -> np.ndarray:
    """8-bit scores, rescaled affinely so that the covered ones span 0-255.

    Thresholding always reads the raw scores; this is for viewing only.
    """
    shown = scores[covered]
    lo, hi = (shown.min(), shown.max()) if shown.size else (0.0, 0.0)
    span = hi - lo if hi > lo else 1.0
    return np.clip((scores - lo) / span * 255.0, 0, 255).astype(np.uint8)


def _smooth(hist: np.ndarray, window: int) -> np.ndarray:
    """Box mean of each bin's window over the bins that exist: near an edge
    the window holds fewer bins, and none is counted twice."""
    if window <= 1:
        return hist.astype(np.float64)
    box = np.ones(window)
    same = slice((window - 1) // 2, (window - 1) // 2 + len(hist))
    total = np.convolve(hist.astype(np.float64), box)[same]
    return total / np.convolve(np.ones(len(hist)), box)[same]


def _valleys(hist: np.ndarray, peak: int, direction: int) -> list:
    """Interior minima scanning from peak, nearest first: (lo, hi) bin spans.

    A valley is a run of equal values strictly below its predecessor run and
    strictly below its successor run (so monotone tails do not qualify).
    """
    segment = hist[peak:] if direction > 0 else hist[peak::-1]
    # runs [bounds[k], bounds[k + 1]) of equal values, and each run's value
    bounds = np.concatenate(([0], np.flatnonzero(segment[1:] != segment[:-1]) + 1,
                             [len(segment)]))
    value = segment[bounds[:-1]]
    dips = np.flatnonzero((value[1:-1] < value[:-2]) & (value[1:-1] < value[2:])) + 1
    start, last = bounds[dips], bounds[dips + 1] - 1
    lo, hi = (peak + start, peak + last) if direction > 0 else (peak - last, peak - start)
    return list(zip(lo.tolist(), hi.tolist()))


# A valley only counts when a mode of at least this fraction of the main
# peak lies beyond it; smaller rises are treated as tail noise.
MIN_MODE_FRACTION = 0.02


def auto_threshold(scores: np.ndarray, bins: int = 96, smoothing_window: int = 7) -> float:
    """Histogram-valley threshold over raw scores (non-finite ones ignored).

    Builds a histogram spanning [min, max], box-smooths it, locates the
    largest peak, and scans toward higher scores for the first valley
    (center of the minimum plateau) that separates the peak from another
    significant mode; when the largest peak is itself the top-most mode the
    scan runs toward lower scores instead. Raises ValleyNotFoundError on
    degenerate (unimodal or flat) histograms.
    """
    if bins < 1:
        raise InvalidInputError(f"bins must be >= 1, got {bins!r}")
    vals = np.asarray(scores, dtype=np.float64).reshape(-1)
    vals = vals[np.isfinite(vals)]
    if vals.size < 2 or vals.min() == vals.max():
        raise ValleyNotFoundError("no valley found: fewer than 2 distinct scores")
    hist, edges = np.histogram(vals, bins=bins, range=(vals.min(), vals.max()))
    smoothed = _smooth(hist, smoothing_window)
    peak = int(np.argmax(smoothed))
    min_rise = MIN_MODE_FRACTION * smoothed[peak]
    for direction in (+1, -1):
        for lo, hi in _valleys(smoothed, peak, direction):
            beyond = smoothed[hi + 1:] if direction > 0 else smoothed[:lo]
            # a real valley separates the peak from another mode: the
            # histogram must rise substantially again beyond it
            if beyond.size and beyond.max() - smoothed[lo] >= min_rise:
                return float(0.5 * (edges[lo] + edges[hi + 1]))
    raise ValleyNotFoundError("no valley found: histogram is unimodal")


def segment(scores: np.ndarray, threshold: float) -> np.ndarray:
    """Binary mask of raw scores >= threshold."""
    if not np.isfinite(threshold):
        raise InvalidInputError("threshold must be finite")
    return np.asarray(scores) >= threshold


@dataclass(frozen=True)
class CosineReport:
    mean: float
    rays_used: int
    rays_excluded: int


def eval_cosine(rendered: np.ndarray, obs: ObservationSet) -> CosineReport:
    """Mean per-ray cosine similarity between rendered features and observations.

    Rays without an observation, or with a zero-norm vector on either side,
    are excluded and counted. Each ray is compared with its own table row.
    """
    rendered = np.asarray(rendered)
    if rendered.shape != (obs.rows, obs.feature_dim):
        raise InvalidInputError(
            f"rendered shape {rendered.shape} does not match ({obs.rows}, {obs.feature_dim})")
    squares, dots = np.empty(obs.rows), np.empty(obs.rows)
    step = max(1, ROW_BLOCK_VALUES // obs.feature_dim)
    for lo in range(0, obs.rows, step):
        block = np.asarray(rendered[lo:lo + step], dtype=np.float64)
        squares[lo:lo + step] = np.einsum("ij,ij->i", block, block)
        dots[lo:lo + step] = np.einsum("ij,ij->i", block, obs.table[obs.index[lo:lo + step]])
    mask = obs.observed_mask()
    gn = np.sqrt(np.einsum("ij,ij->i", obs.table, obs.table))[obs.index]
    usable = mask & (squares > 0) & (gn > 0)
    excluded = int(np.count_nonzero(mask) - np.count_nonzero(usable))
    if not np.any(usable):
        raise InvalidInputError("no usable rays for cosine evaluation")
    cos = dots[usable] / (np.sqrt(squares[usable]) * gn[usable])
    return CosineReport(mean=float(cos.mean()), rays_used=int(np.count_nonzero(usable)),
                        rays_excluded=excluded)
