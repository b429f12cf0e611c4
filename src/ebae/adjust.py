"""The eight analogy-adjustment methods and the (method, k) variant grid.

Every adjuster maps (target Row, retrieved neighborhood, training fold) to a
predicted effort. Adjustment always consumes raw feature values; only
retrieval works on the normalized view. When a method cannot produce a
prediction for a target (zero denominators, unfittable learner), it raises
Inapplicable and the validation harness falls back to the plain analogy mean
for the same k, counting the fallback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analogy import similarity_from_distance
from .learners import diff_rows, predict_model_tree, predict_network

METHODS = ("EBA", "LSE", "MLFE", "RTM", "AQUA", "MT", "GA", "NN")


class Inapplicable(Exception):
    """The method cannot predict this target; callers fall back to EBA."""


@dataclass(frozen=True, order=True)
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


def enumerate_variants(k_max=5):
    """All (method, k) variants: method order as in METHODS, k ascending."""
    return tuple(VariantId(m, k) for m in METHODS for k in range(1, k_max + 1))


def variant_from_label(label):
    for method in sorted(METHODS, key=len, reverse=True):
        if label.startswith(method) and label[len(method):].isdigit():
            return VariantId(method, int(label[len(method):]))
    raise ValueError(f"not a variant label: {label!r}")


def _weighted_mean(values, weights):
    return float(np.sum(weights * values) / np.sum(weights))


def _analogy_efforts(nbh, train):
    return train.efforts[nbh.indices]


def adjust_eba(target, nbh, train):
    """Plain analogy mean: the unadjusted baseline the other methods extend."""
    efforts = _analogy_efforts(nbh, train)
    return _weighted_mean(efforts, np.ones_like(efforts))


def _ratio_adjust(target_values, analogy_values, efforts):
    # Mean feature-extrapolation ratio per analogy; zero denominators are
    # excluded from that analogy's average.
    predictions = np.empty(len(efforts))
    for i in range(len(efforts)):
        usable = analogy_values[i] != 0
        if not np.any(usable):
            raise Inapplicable("all extrapolation features are zero for an analogy")
        predictions[i] = np.mean(target_values[usable] / analogy_values[i, usable]) * efforts[i]
    return float(np.mean(predictions))


def adjust_lse(target, nbh, train):
    """Size extrapolation: analogy efforts scaled by target size over analogy size."""
    c = train.size_col
    if c is None:
        raise Inapplicable("no primary size feature in schema")
    sizes = train.cont[nbh.indices, c]
    if target.cont[c] <= 0 or np.any(sizes <= 0):
        raise Inapplicable("non-positive size value")
    return _ratio_adjust(target.cont[[c]], sizes[:, None], _analogy_efforts(nbh, train))


def adjust_mlfe(target, nbh, train):
    """Multi-feature extrapolation over every size-flagged feature."""
    cols = list(train.size_cols)
    if not cols:
        raise Inapplicable("no size-related features in schema")
    analogy_values = train.cont[np.ix_(nbh.indices, cols)]
    return _ratio_adjust(target.cont[cols], analogy_values, _analogy_efforts(nbh, train))


def productivity_correlation(train, nearest):
    """Correlation between nearest-analogy productivity and actual productivity.

    ``nearest[i]`` is project i's nearest other training project (column 0
    of ``knn_within(train, k)``). Fitted once per training fold; clamped
    into [0, 1] so (1 - c) stays a shrinkage factor. Projects without a
    positive size are left out; a degenerate correlation (fewer than 2
    usable pairs, or zero variance) yields 0, i.e. full regression toward
    the local mean. Productivities too large to square give no coefficient
    and raise Inapplicable.
    """
    c = train.size_col
    if c is None:
        raise Inapplicable("no primary size feature in schema")
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
    if not np.isfinite(r):
        raise Inapplicable("productivity correlation undefined: productivities overflow")
    return float(np.clip(r, 0.0, 1.0))


def mean_productivity(train):
    """Mean effort-per-size over the training projects with a positive size.

    Shrinking analogy productivities toward the mean of the analogies
    themselves would cancel out of the outer average exactly, so the
    regression target must be this broader historical mean.
    """
    c = train.size_col
    if c is None:
        raise Inapplicable("no primary size feature in schema")
    sizes = train.cont[:, c]
    valid = sizes > 0
    if not np.any(valid):
        raise Inapplicable("no training project has a positive size")
    return float(np.mean(train.efforts[valid] / sizes[valid]))


def adjust_rtm(target, nbh, train, correlation):
    """Regression toward the mean: analogy productivities shrunk toward the
    historical mean productivity by (1 - c), then scaled by the target size."""
    c = train.size_col
    if c is None:
        raise Inapplicable("no primary size feature in schema")
    size_t = float(target.cont[c])
    sizes = train.cont[nbh.indices, c]
    if size_t <= 0 or np.any(sizes <= 0):
        raise Inapplicable("non-positive size value")
    pr = _analogy_efforts(nbh, train) / sizes
    adjusted = pr + (mean_productivity(train) - pr) * (1.0 - correlation)
    return float(size_t * np.mean(adjusted))


def adjust_aqua(target, nbh, train):
    """Similarity-weighted mean of the analogy efforts."""
    sims = similarity_from_distance(nbh.distances)
    return _weighted_mean(_analogy_efforts(nbh, train), sims / sims.max())


def _target_diffs(target, nbh, train):
    return diff_rows(target.cont, target.cat, train.cont[nbh.indices], train.cat[nbh.indices])


def adjust_mt(target, nbh, train, tree):
    """Analogy efforts corrected by a model tree over feature differences."""
    corrections = np.array([predict_model_tree(tree, d) for d in _target_diffs(target, nbh, train)])
    return float(np.mean(_analogy_efforts(nbh, train) + corrections))


def adjust_ga(target, nbh, train, alpha):
    """Analogy efforts corrected by a learned linear form of feature differences."""
    corrections = _target_diffs(target, nbh, train) @ np.asarray(alpha, dtype=float)
    return float(np.mean(_analogy_efforts(nbh, train) + corrections))


def adjust_nn(target, nbh, train, net):
    """Analogy efforts corrected by a trained network over feature differences."""
    corrections = np.array([predict_network(net, d) for d in _target_diffs(target, nbh, train)])
    return float(np.mean(_analogy_efforts(nbh, train) + corrections))
