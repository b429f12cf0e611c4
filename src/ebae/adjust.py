"""The eight analogy-adjustment methods and the (method, k) variant grid.

Each method maps (target Row, its ``k_top`` nearest training projects,
training fold) to one predicted effort for every k = 1..k_top: it computes
its per-analogy terms once, and prediction k is the reduction over the
first k terms that an adjuster given only the k nearest would make. The
analogies come nearest first, as ``analogy.fold_analogies`` returns them.
Adjustment always consumes raw feature values; only the analogy ranking
works on scaled ones. Where a method cannot predict for some k (a non-positive
size or an all-zero extrapolation row among the first k analogies, no model
for k), that prediction is NaN, and the validation harness falls back to the
plain analogy mean for the same k, counting the fallback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analogy import similarity_from_distance
from .learners import diff_rows, predict_model_tree, predict_network

METHODS = ("EBA", "LSE", "MLFE", "RTM", "AQUA", "MT", "GA", "NN")


@dataclass(frozen=True, order=True, slots=True)
class VariantId:
    method: str
    k: int

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")

    @property
    def label(self):
        return f"{self.method}{self.k}"


def enumerate_variants(k_max):
    """All (method, k) variants: method order as in METHODS, k ascending."""
    return tuple(VariantId(m, k) for m in METHODS for k in range(1, k_max + 1))


def _mean(values):
    """``np.mean`` of a 1-D float array, bit for bit: the same sum divided by
    the count, without its dispatch."""
    return np.add.reduce(values) / len(values)


def _prefix_means(terms, k_top):
    """The mean of ``terms[:k]`` for k = 1..k_top; NaN for every k past the
    applicable terms. Each k is its own reduction: a running sum would round
    differently from eight terms on."""
    predictions = np.full(k_top, np.nan)
    for k in range(1, len(terms) + 1):
        predictions[k - 1] = _mean(terms[:k])
    return predictions


def eba(target, nbh, train):
    """Plain analogy mean: the unadjusted baseline the other methods extend."""
    return _prefix_means(train.efforts[nbh.indices], len(nbh.indices))


def _sized_analogies(target, nbh, train):
    """The target's size with the sizes and efforts of its leading analogies
    of positive size, so that every k including a non-positive size is
    inapplicable; no analogies without a positive target size."""
    c = train.size_col
    if c is None or target.cont[c] <= 0:
        return 0.0, np.empty(0), np.empty(0)
    sizes = train.cont[nbh.indices, c]
    j = int(np.logical_and.accumulate(sizes > 0).sum())
    return float(target.cont[c]), sizes[:j], train.efforts[nbh.indices[:j]]


def lse(target, nbh, train):
    """Size extrapolation: analogy efforts scaled by target size over analogy size."""
    size_t, sizes, efforts = _sized_analogies(target, nbh, train)
    return _prefix_means(size_t / sizes * efforts, len(nbh.indices))


def mlfe(target, nbh, train):
    """Multi-feature extrapolation over every size-flagged feature: each
    analogy's effort times its mean ratio of target to analogy value, zero
    analogy values excluded. An analogy whose values are all zero is
    inapplicable."""
    cols = list(train.size_cols)
    target_values = target.cont[cols]
    terms = []
    for values, effort in zip(train.cont[np.ix_(nbh.indices, cols)], train.efforts[nbh.indices]):
        usable = values != 0
        if not np.any(usable):
            break
        terms.append(_mean(target_values[usable] / values[usable]) * effort)
    return _prefix_means(np.array(terms), len(nbh.indices))


def productivity_correlation(train, nearest):
    """Correlation between nearest-analogy productivity and actual productivity.

    ``nearest[i]`` is project i's nearest other training project (column 0
    of ``knn_within(train, k)``). Fitted once per training fold; clamped
    into [0, 1] so (1 - c) stays a shrinkage factor. Projects without a
    positive size are left out; a degenerate correlation (no primary size
    feature, fewer than 2 usable pairs, or zero variance) yields 0, i.e.
    full regression toward the local mean.
    """
    c = train.size_col
    if c is None:
        return 0.0
    sizes = train.cont[:, c]
    valid = sizes > 0
    if valid.sum() < 2:
        return 0.0
    pr = np.where(valid, train.efforts / np.where(valid, sizes, 1.0), np.nan)
    own = pr[valid]
    neighbor = pr[nearest][valid]
    pairs = ~np.isnan(neighbor)
    if pairs.sum() < 2:
        return 0.0
    x, y = neighbor[pairs], own[pairs]
    if np.std(x) == 0 or np.std(y) == 0:
        return 0.0
    r = np.corrcoef(x, y)[0, 1]
    return float(np.clip(r, 0.0, 1.0))


def mean_productivity(train):
    """Mean effort-per-size over the training projects with a positive size,
    of which there must be one: ``rtm`` asks only once an analogy has a
    positive primary size.

    Shrinking analogy productivities toward the mean of the analogies
    themselves would cancel out of the outer average exactly, so the
    regression target must be this broader historical mean.
    """
    sizes = train.cont[:, train.size_col]
    valid = sizes > 0
    return float(np.mean(train.efforts[valid] / sizes[valid]))


def rtm(target, nbh, train, correlation):
    """Regression toward the mean: analogy productivities shrunk toward the
    historical mean productivity by (1 - c), then scaled by the target size."""
    size_t, sizes, efforts = _sized_analogies(target, nbh, train)
    if not len(sizes):
        # no k applies, and the fold may have no positive size to average
        return _prefix_means(sizes, len(nbh.indices))
    pr = efforts / sizes
    adjusted = pr + (mean_productivity(train) - pr) * (1.0 - correlation)
    return size_t * _prefix_means(adjusted, len(nbh.indices))


def aqua(target, nbh, train):
    """Similarity-weighted mean of the analogy efforts, weights scaled by the
    largest similarity of the first k, which is the nearest analogy's."""
    sims = similarity_from_distance(nbh.distances)
    weights = sims / sims[0]
    weighted = weights * train.efforts[nbh.indices]
    return np.array([np.sum(weighted[:k]) / np.sum(weights[:k]) for k in range(1, len(weights) + 1)])


def _target_diffs(target, nbh, train):
    return diff_rows(target.cont, target.cat, train.cont[nbh.indices], train.cat[nbh.indices])


def mt(target, nbh, train, tree):
    """Analogy efforts corrected by a model tree over feature differences."""
    corrections = np.array([predict_model_tree(tree, d) for d in _target_diffs(target, nbh, train)])
    return _prefix_means(train.efforts[nbh.indices] + corrections, len(nbh.indices))


def ga(target, nbh, train, alphas):
    """Analogy efforts corrected by a learned linear form of feature
    differences; ``alphas`` maps k to the weights learned for k, and every
    other k is NaN."""
    diffs = _target_diffs(target, nbh, train)
    efforts = train.efforts[nbh.indices]
    predictions = np.full(len(efforts), np.nan)
    for k, alpha in alphas.items():
        predictions[k - 1] = _mean(efforts[:k] + diffs[:k] @ np.asarray(alpha, dtype=float))
    return predictions


def nn(target, nbh, train, net):
    """Analogy efforts corrected by a trained network over feature
    differences."""
    corrections = np.array([predict_network(net, d) for d in _target_diffs(target, nbh, train)])
    return _prefix_means(train.efforts[nbh.indices] + corrections, len(nbh.indices))
