"""Single-k adjusters, kept as the test oracle of the prefix predictors in
``ebae.adjust``.

Each ``adjust_<method>`` maps (target Row, its k nearest training projects,
training fold) to one predicted effort and raises ``Inapplicable`` where the
method cannot predict. The package predicts every k of a method from one
pass over the ``k_top`` nearest analogies; prediction k must equal the
adjuster given the first k of them, bit for bit, and NaN must stand where
the adjuster raises.
"""

import numpy as np

from ebae.adjust import mean_productivity
from ebae.analogy import similarity_from_distance
from ebae.learners import diff_rows, predict_model_tree, predict_network


class Inapplicable(Exception):
    """The method cannot predict for these analogies."""


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
