"""Leave-one-out cross validation of estimator variants, fold first.

Each fold trains on the other n-1 projects: normalization bounds, learner
fits, and analogy retrieval see training rows only. The target enters as a
``Row`` of its feature values, so its effort is never consulted.

``loocv_grid`` runs chunks of consecutive folds, then every (method, k)
variant of each fold, and builds the work a fold shares across its variants
once, on first use:

- the training fold ``dataset.without(t)``;
- one retrieval of the ``k_top`` nearest training projects, where ``k_top``
  is the largest k of the variants; variant k takes the first k. That is
  exactly ``retrieve(target, train, k)``, because ties break on row index,
  so the k nearest are always a prefix of the ``k_top`` nearest;
- one in-training neighbour table ``knn_within(train, k_top)``, exact for
  every smaller k by the same prefix property: column 0 holds each
  project's nearest other project (difference pairs, RTM correlation) and
  the first k columns the GA design's neighbours for k;
- one set of difference pairs, shared by MT and NN;
- one model tree and one RTM correlation. Neither depends on k, so a fold
  whose tree cannot be fitted, or whose correlation is inapplicable, keeps
  that error and every k falls back to EBA, as each k did on its own.

GA and NN members are seeded from (global seed, fold index, variant
label), the seed a lone variant's run uses, and train in stacks in which
each member equals its lone fit: the GA variants of a fold in one
``fit_ga_weights`` call, and the networks of a whole chunk, every fold
times every NN variant, in one ``fit_networks`` call. So results are
identical for any set of variants, any chunking and any number of workers.
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
# faster per network and held more memory for the chunk.
STACK_FLOATS = 2**15


def derive_seed(seed, *parts):
    """Stable 64-bit child seed from the global seed and context labels."""
    digest = hashlib.blake2b(repr((seed, *parts)).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class _Fold:
    """One training fold and the work its variants share, each item built on
    first use. An item that cannot be built keeps its error, which every
    variant that needs the item raises again."""

    def __init__(self, dataset, t, k_top, config):
        self.t = t
        self.train = dataset.without(t)
        self.target = dataset.row(t)
        self.analogies = retrieve(self.target, self.train, k_top)
        self.k_top = k_top
        self.config = config
        self._items = {}
        self.fits = {}              # GA and NN variant label -> fit or FitError

    def _shared(self, name, build):
        if name not in self._items:
            try:
                self._items[name] = (build(), None)
            except (adjust.Inapplicable, FitError) as exc:
                self._items[name] = (None, exc)
        value, error = self._items[name]
        if error is not None:
            raise error
        return value

    def neighbors(self):
        return self._shared("neighbors", lambda: analogy.knn_within(self.train, self.k_top))

    def pairs(self):
        return self._shared("pairs", lambda: build_diff_pairs(self.train, self.neighbors()[:, 0]))

    def tree(self):
        return self._shared("tree", lambda: fit_model_tree(*self.pairs(), self.config))

    def correlation(self):
        return self._shared(
            "correlation", lambda: adjust.productivity_correlation(self.train, self.neighbors()[:, 0])
        )

    def predict(self, variant):
        """One prediction of ``variant`` for this fold's target.

        Returns (prediction, fell_back): when the method is inapplicable for
        this target, its learner cannot be fitted on this fold, or its
        prediction is not finite, the prediction falls back to the plain
        analogy mean for the same k.
        """
        k, method = variant.k, variant.method
        target, train = self.target, self.train
        nbh = Neighborhood(self.analogies.indices[:k], self.analogies.distances[:k])
        try:
            if method == "EBA":
                prediction = adjust.adjust_eba(target, nbh, train)
            elif method == "LSE":
                prediction = adjust.adjust_lse(target, nbh, train)
            elif method == "MLFE":
                prediction = adjust.adjust_mlfe(target, nbh, train)
            elif method == "RTM":
                prediction = adjust.adjust_rtm(target, nbh, train, self.correlation())
            elif method == "AQUA":
                prediction = adjust.adjust_aqua(target, nbh, train)
            elif method == "MT":
                prediction = adjust.adjust_mt(target, nbh, train, self.tree())
            elif method in ("GA", "NN"):
                fit = self.fits[variant.label]
                if isinstance(fit, FitError):
                    raise fit
                if method == "GA":
                    prediction = adjust.adjust_ga(target, nbh, train, fit.alpha)
                else:
                    prediction = adjust.adjust_nn(target, nbh, train, fit)
            else:
                raise ValueError(f"unknown method {method!r}")
            if not math.isfinite(prediction):
                raise adjust.Inapplicable(f"non-finite {method} prediction")
            return prediction, False
        except (adjust.Inapplicable, FitError):
            return adjust.adjust_eba(target, nbh, train), True


def _fit_ga(fold, variants, config, seed):
    """Fit the weights of every GA variant of a fold as one stack into the
    fold's ``fits``. The stack stays within the fold, so a generation's
    largest array is (GA variants, ga_pop, n - 1) floats whatever the chunk."""
    seeds = [derive_seed(seed, fold.t, variant.label) for variant in variants]
    weights = fit_ga_weights(fold.train, fold.neighbors(), [variant.k for variant in variants], config, seeds)
    fold.fits.update((variant.label, fit) for variant, fit in zip(variants, weights))


def _fit_networks(folds, variants, config, seed):
    """Train the networks of every (fold, NN variant) of a chunk as one stack
    into each fold's ``fits``. Every fold has n - 1 pairs, so a stack too
    small to fit gives every network the same error."""
    seeds = [[derive_seed(seed, fold.t, variant.label) for variant in variants] for fold in folds]
    try:
        X, y = zip(*(fold.pairs() for fold in folds))
        nets = fit_networks(np.stack(X), np.stack(y), config, seeds)
    except FitError as exc:
        nets = [[exc] * len(variants)] * len(folds)
    for fold, row in zip(folds, nets):
        fold.fits.update((variant.label, net) for variant, net in zip(variants, row))


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
    k_top = max(variant.k for variant in runnable)
    networks = [variant for variant in runnable if variant.method == "NN"]
    genetic = [variant for variant in runnable if variant.method == "GA"]
    width = max(dataset.m, len(networks) * config.nn_hidden)
    size = max(1, STACK_FLOATS // ((dataset.n - 1) * width))
    # at least one chunk per worker
    size = min(size, math.ceil(dataset.n / max(config.jobs, 1)))

    def chunk(start):
        folds = [_Fold(dataset, t, k_top, config) for t in range(start, min(start + size, dataset.n))]
        if networks:
            _fit_networks(folds, networks, config, seed)
        if genetic:
            for fold in folds:
                _fit_ga(fold, genetic, config, seed)
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
