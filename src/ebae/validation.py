"""Leave-one-out cross validation of estimator variants, fold first.

Each fold trains on the other n-1 projects: normalization bounds, learner
fits, and analogy retrieval see training rows only. The target enters as a
``Row`` of its feature values, so its effort is never consulted.

``loocv_grid`` runs fold first, then every (method, k) variant, and builds
the work a fold shares across its variants once, on first use:

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

GA and NN are fitted per (fold, variant) with the seed derived from
(global seed, fold index, variant label), the seed a lone variant's run
uses, so results are identical for any set of variants and any number of
workers.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor

from . import adjust, analogy
from .analogy import Neighborhood, retrieve
from .learners import FitError, build_diff_pairs, fit_ga_weights, fit_model_tree, fit_network
from .metrics import baseline, build_table, log_floor, summarize


def derive_seed(seed, *parts):
    """Stable 64-bit child seed from the global seed and context labels."""
    digest = hashlib.blake2b(repr((seed, *parts)).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class _Fold:
    """One training fold and the work its variants share, each item built on
    first use. An item that cannot be built keeps its error, which every
    variant that needs the item raises again."""

    def __init__(self, dataset, t, k_top, config):
        self.train = dataset.without(t)
        self.target = dataset.row(t)
        self.analogies = retrieve(self.target, self.train, k_top)
        self.k_top = k_top
        self.config = config
        self._items = {}

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

    def predict(self, variant, seed):
        """One prediction of ``variant`` for this fold's target.

        Returns (prediction, fell_back): when the method is inapplicable for
        this target, its learner cannot be fitted on this fold, or its
        prediction is not finite, the prediction falls back to the plain
        analogy mean for the same k.
        """
        k, method = variant.k, variant.method
        target, train, config = self.target, self.train, self.config
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
            elif method == "GA":
                weights = fit_ga_weights(train, self.neighbors()[:, :k], config, seed)
                prediction = adjust.adjust_ga(target, nbh, train, weights.alpha)
            elif method == "NN":
                net = fit_network(*self.pairs(), config, seed)
                prediction = adjust.adjust_nn(target, nbh, train, net)
            else:
                raise ValueError(f"unknown method {method!r}")
            if not math.isfinite(prediction):
                raise adjust.Inapplicable(f"non-finite {method} prediction")
            return prediction, False
        except (adjust.Inapplicable, FitError):
            return adjust.adjust_eba(target, nbh, train), True


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

    def fold(t):
        context = _Fold(dataset, t, k_top, config)
        return [context.predict(variant, derive_seed(seed, t, variant.label)) for variant in runnable]

    folds = range(dataset.n)
    if config.jobs > 1:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            outcomes = list(pool.map(fold, folds))
    else:
        outcomes = list(map(fold, folds))

    floor = log_floor(dataset.efforts)
    ids = tuple(p.id for p in dataset.projects)
    tables = {}
    for i, variant in enumerate(runnable):
        predictions = [row[i][0] for row in outcomes]
        fallbacks = sum(row[i][1] for row in outcomes)
        tables[variant.label] = build_table(variant.label, ids, dataset.efforts, predictions, floor, fallbacks)
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
