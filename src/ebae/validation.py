"""Leave-one-out cross validation of estimator variants, fold first.

Each fold trains on the other n-1 projects: normalization bounds, learner
fits, and analogy retrieval see training rows only. The target enters as a
``Row`` of its feature values, so its effort is never consulted.

``loocv_grid`` runs chunks of consecutive folds. Each fold first builds
what its variants share, the chunk then trains its GA and NN members in
stacks, and each fold predicts every (method, k) variant through one
dispatch to ``adjust.adjust_<method>``. A fold builds:

- the training fold ``dataset.without(t)``;
- one retrieval of the ``k_top`` nearest training projects, where ``k_top``
  is the largest k of the variants; variant k takes the first k. That is
  exactly ``retrieve(target, train, k)``, because ties break on row index,
  so the k nearest are always a prefix of the ``k_top`` nearest;
- when RTM, MT, GA or NN runs, one in-training neighbour table
  ``knn_within(train, k_top)``, exact for every smaller k by the same
  prefix property: column 0 holds each project's nearest other project
  (difference pairs, RTM correlation) and the first k columns the GA
  design's neighbours for k;
- when MT or NN runs, one set of difference pairs;
- the model table ``models``: the RTM correlation and the model tree under
  their method, which do not depend on k, and the GA weights and networks
  under their variant label. A model that cannot be fitted is stored as
  its error, and the variants that need it fall back to EBA.

GA and NN members are seeded from (global seed, fold index, variant
label), the seed a lone variant's run uses, and train in stacks in which
each member equals its lone fit. The GA members of a chunk train in
``fit_ga_weights`` stacks of consecutive folds times every GA variant,
as many folds as ``STACK_FLOATS`` allows; the networks of a whole chunk,
every fold times every NN variant, train in one ``fit_networks`` call. So
results are identical for any set of variants, any chunking and any
number of workers.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import adjust, analogy
from .analogy import Neighborhood, retrieve
from .learners import FitError, build_diff_pairs, fit_ga_weights, fit_model_tree, fit_networks
from .metrics import baseline, build_table, log_floor, summarize

# Floats in the largest array of one chunk's network stack, either
# (folds, NN variants, n - 1, nn_hidden) or (folds, n - 1, m): a chunk holds
# as many folds as keep it near this size (256 KB), which is 3 folds at
# n = 499, 16 at n = 100 and all of Albrecht. Larger stacks trained no
# faster per network and held more memory for the chunk. The same bound
# splits a chunk into GA stacks, whose largest array in a generation is
# (folds, GA variants, ga_pop, n - 1): 5 folds on Albrecht with the default
# ga_pop of 50, and one fold, the smallest stack, from n = 67 on. One stack
# of all 24 Albrecht folds trained no faster than stacks of 5.
STACK_FLOATS = 2**15


def derive_seed(seed, *parts):
    """Stable 64-bit child seed from the global seed and context labels."""
    digest = hashlib.blake2b(repr((seed, *parts)).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _fitted(fit, *args):
    """``fit(*args)``, or the error that says the model cannot be fitted."""
    try:
        return fit(*args)
    except (adjust.Inapplicable, FitError) as exc:
        return exc


class _Fold:
    """One training fold, its target's nearest training projects, and
    ``models``: what the learning methods fitted on the fold, keyed by method
    (RTM, MT) or by variant label (GA and NN members). A model that cannot be
    fitted is kept as its error, and every variant that needs it falls back.

    ``variants`` are the runnable variants of the grid; the fold builds only
    what their methods use. GA and NN members are added by ``_fit_ga`` and
    ``_fit_networks``."""

    def __init__(self, dataset, t, variants, config, seed):
        self.t = t
        self.train = train = dataset.without(t)
        self.target = dataset.row(t)
        k_top = max(variant.k for variant in variants)
        self.analogies = retrieve(self.target, train, k_top)
        self.models = {}
        methods = {variant.method for variant in variants}
        if methods.isdisjoint(("RTM", "MT", "GA", "NN")):
            return
        neighbors = analogy.knn_within(train, k_top)
        if methods & {"MT", "NN"}:
            # cannot fail: a fold of a runnable grid has n - 1 >= k + 1 >= 2 rows
            self.pairs = build_diff_pairs(train, neighbors[:, 0])
        if "RTM" in methods:
            self.models["RTM"] = _fitted(adjust.productivity_correlation, train, neighbors[:, 0])
        if "MT" in methods:
            self.models["MT"] = _fitted(fit_model_tree, *self.pairs, config)
        self.neighbors = neighbors

    def predict(self, variant):
        """One prediction of ``variant`` for this fold's target.

        Returns (prediction, fell_back): when the method is inapplicable for
        this target, its model could not be fitted on this fold, or its
        prediction is not finite, the prediction falls back to the plain
        analogy mean for the same k.
        """
        k, method = variant.k, variant.method
        nbh = Neighborhood(self.analogies.indices[:k], self.analogies.distances[:k])
        model = self.models.get(variant.label, self.models.get(method))
        try:
            if isinstance(model, Exception):
                raise model
            adjuster = getattr(adjust, "adjust_" + method.lower())
            prediction = adjuster(self.target, nbh, self.train, *(() if model is None else (model,)))
            if not math.isfinite(prediction):
                raise adjust.Inapplicable(f"non-finite {method} prediction")
            return prediction, False
        except (adjust.Inapplicable, FitError):
            return adjust.adjust_eba(self.target, nbh, self.train), True


def _fit_ga(folds, variants, config, seed):
    """Fit the GA members of every (fold, GA variant) of a chunk into each
    fold's ``models``, in stacks of consecutive folds whose largest array in
    a generation, (folds, GA variants, ga_pop, n - 1) floats, stays within
    ``STACK_FLOATS`` (one fold when a single fold exceeds it)."""
    size = max(1, STACK_FLOATS // (len(variants) * config.ga_pop * folds[0].train.n))
    ks = [variant.k for variant in variants]
    for start in range(0, len(folds), size):
        group = folds[start:start + size]
        seeds = [[derive_seed(seed, fold.t, variant.label) for variant in variants] for fold in group]
        fits = fit_ga_weights([fold.train for fold in group], [fold.neighbors for fold in group], ks, config,
                              seeds)
        for fold, row in zip(group, fits):
            fold.models.update((variant.label, fit if isinstance(fit, FitError) else fit.alpha)
                               for variant, fit in zip(variants, row))


def _fit_networks(folds, variants, config, seed):
    """Train the networks of every (fold, NN variant) of a chunk as one stack
    into each fold's ``models``. Every fold has n - 1 pairs, so a stack too
    small to fit gives every network the same error."""
    seeds = [[derive_seed(seed, fold.t, variant.label) for variant in variants] for fold in folds]
    try:
        X, y = zip(*(fold.pairs for fold in folds))
        nets = fit_networks(np.stack(X), np.stack(y), config, seeds)
    except FitError as exc:
        nets = [[exc] * len(variants)] * len(folds)
    for fold, row in zip(folds, nets):
        fold.models.update((variant.label, net) for variant, net in zip(variants, row))


def loocv_grid(dataset, variants, config, seed=None):
    """Leave-one-out predictions of several variants over a dataset.

    Returns (tables, errors), both keyed by variant label in the order of
    ``variants``; a variant whose k leaves too few training projects gets
    its message in ``errors`` instead of a table.
    """
    if seed is None:
        seed = config.seed
    runnable, errors = [], {}
    for variant in variants:
        k = variant.k
        if dataset.n < k + 2:
            errors[variant.label] = (
                f"dataset too small for k={k}: need at least {k + 2} projects, have {dataset.n}"
            )
        else:
            runnable.append(variant)
    if not runnable:
        return {}, errors
    genetic = [variant for variant in runnable if variant.method == "GA"]
    networks = [variant for variant in runnable if variant.method == "NN"]
    width = max(dataset.m, len(networks) * config.nn_hidden)
    size = max(1, STACK_FLOATS // ((dataset.n - 1) * width))
    # at least one chunk per worker
    size = min(size, math.ceil(dataset.n / max(config.jobs, 1)))

    def chunk(start):
        folds = [_Fold(dataset, t, runnable, config, seed) for t in range(start, min(start + size, dataset.n))]
        if genetic:
            _fit_ga(folds, genetic, config, seed)
        if networks:
            _fit_networks(folds, networks, config, seed)
        return [[fold.predict(variant) for variant in runnable] for fold in folds]

    starts = range(0, dataset.n, size)
    if config.jobs > 1:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            chunks = list(pool.map(chunk, starts))
    else:
        chunks = list(map(chunk, starts))
    outcomes = [row for rows in chunks for row in rows]

    floor = log_floor(dataset.efforts)
    tables = {}
    for i, variant in enumerate(runnable):
        predictions = [row[i][0] for row in outcomes]
        fallbacks = sum(row[i][1] for row in outcomes)
        tables[variant.label] = build_table(variant.label, dataset.ids, dataset.efforts, predictions, floor,
                                            fallbacks)
    return tables, errors


def loocv(dataset, variant, config, seed=None):
    """Leave-one-out predictions of one variant over a dataset."""
    tables, errors = loocv_grid(dataset, (variant,), config, seed)
    if errors:
        raise ValueError(errors[variant.label])
    return tables[variant.label]


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
