"""Leave-one-out cross validation of estimator variants.

Each fold trains on the other n-1 projects: normalization bounds, learner
fits, and analogy retrieval see training rows only, and the target's effort
is never consulted. Folds carry seeds derived from (global seed, fold index,
variant), so results are identical no matter how many workers run them.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor

from . import adjust
from .analogy import retrieve
from .learners import FitError, build_diff_pairs, fit_ga_weights, fit_model_tree, fit_network
from .metrics import baseline, build_table, log_floor, summarize


def derive_seed(seed, *parts):
    """Stable 64-bit child seed from the global seed and context labels."""
    digest = hashlib.blake2b(repr((seed, *parts)).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def predict_variant(variant, target, train, config, seed):
    """One prediction: retrieve analogies, fit whatever the method needs, adjust.

    Returns (prediction, fell_back): when the method is inapplicable for this
    target, its learner cannot be fitted on this fold, or its prediction is
    not finite, the prediction falls back to the plain analogy mean for the
    same k.
    """
    nbh = retrieve(target, train, variant.k)
    method = variant.method
    try:
        if method == "EBA":
            prediction = adjust.adjust_eba(target, nbh, train)
        elif method == "LSE":
            prediction = adjust.adjust_lse(target, nbh, train)
        elif method == "MLFE":
            prediction = adjust.adjust_mlfe(target, nbh, train)
        elif method == "RTM":
            c = adjust.productivity_correlation(train)
            prediction = adjust.adjust_rtm(target, nbh, train, c)
        elif method == "AQUA":
            prediction = adjust.adjust_aqua(target, nbh, train)
        elif method == "MT":
            tree = fit_model_tree(*build_diff_pairs(train), config)
            prediction = adjust.adjust_mt(target, nbh, train, tree)
        elif method == "GA":
            weights = fit_ga_weights(train, variant.k, config, seed)
            prediction = adjust.adjust_ga(target, nbh, train, weights.alpha)
        elif method == "NN":
            net = fit_network(*build_diff_pairs(train), config, seed)
            prediction = adjust.adjust_nn(target, nbh, train, net)
        else:
            raise ValueError(f"unknown method {method!r}")
        if not math.isfinite(prediction):
            raise adjust.Inapplicable(f"non-finite {method} prediction")
        return prediction, False
    except (adjust.Inapplicable, FitError):
        return adjust.adjust_eba(target, nbh, train), True


def loocv(dataset, variant, config, seed=None):
    """Leave-one-out predictions of one variant over a dataset."""
    if seed is None:
        seed = config.seed
    k = variant.k
    if dataset.n < k + 2:
        raise ValueError(f"dataset too small for k={k}: need at least {k + 2} projects, have {dataset.n}")
    floor = log_floor(dataset.efforts)

    def fold(t):
        train = dataset.without(t)
        target = dataset.projects[t]
        fold_seed = derive_seed(seed, t, variant.label)
        return predict_variant(variant, target, train, config, fold_seed)

    indices = range(dataset.n)
    if config.jobs > 1:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            outcomes = list(pool.map(fold, indices))
    else:
        outcomes = [fold(t) for t in indices]

    predictions = [p for p, _ in outcomes]
    fallbacks = sum(fb for _, fb in outcomes)
    ids = [p.id for p in dataset.projects]
    return build_table(variant.label, ids, dataset.efforts, predictions, floor, fallbacks)


def dataset_baseline(dataset, config, seed=None):
    """Random-guessing baseline over the dataset's full effort column."""
    if seed is None:
        seed = config.seed
    return baseline(dataset.efforts, config.runs, derive_seed(seed, "baseline"))


def evaluate_variant(dataset, variant, config, seed=None, base=None):
    """LOOCV one variant and summarize it against the dataset baseline."""
    if base is None:
        base = dataset_baseline(dataset, config, seed)
    return summarize(loocv(dataset, variant, config, seed), base)
