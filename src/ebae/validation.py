"""Leave-one-out cross validation of estimator variants, fold first.

Each fold trains on the other n-1 projects: normalization bounds, learner
fits, and analogy retrieval see training rows only. The target enters as a
``Row`` of its feature values, so its effort is never consulted.

``loocv_grid`` runs chunks of consecutive folds, as many as keep a chunk's
largest per-fold array within ``STACK_FLOATS``, rounded up to a multiple of
``config.jobs``. With more than one job ``_map_chunks`` runs the chunks in
a ``concurrent.futures.ProcessPoolExecutor`` of up to ``config.jobs``
worker processes started with the ``fork`` method, which inherit the
dataset and its ranking. A chunk that raises fails the call, and the
chunks not yet started are dropped; a worker that dies fails it with
``BrokenProcessPool`` instead of leaving it waiting for the lost chunk.
Where the platform cannot fork the chunks run in the calling process.
Python 3.12 and later raise a DeprecationWarning when a process with more
than one thread forks, and importing numpy with OpenBLAS on a 2-core Linux
host leaves two threads, so there each worker start is expected to warn.
That has not been run with numpy on Python 3.12.

``loocv_grid`` first ranks the whole dataset once, ``knn_within(dataset,
k_top + 1)``, where ``k_top`` is the largest k of the variants. Each fold,
given ``k_top``, builds what every method shares, whatever the grid's
methods: they choose only which learners the chunk trains, its MT, GA and
NN members together, and which rows each fold predicts, every k of a method
in one pass of ``adjust.<method>`` over its ``k_top`` analogies. A fold
builds:

- the training fold ``dataset.without(t)``;
- one retrieval of the ``k_top`` nearest training projects; variant k
  takes the first k. That is exactly ``retrieve(target, train, k)``,
  because ties break on row index, so the k nearest are always a prefix of
  the ``k_top`` nearest;
- one in-training neighbour table equal to ``knn_within(train, k_top)``,
  exact for every smaller k by the same prefix property; column 0 serves
  the RTM correlation. A fold that keeps the dataset's min-max bounds takes
  it from the dataset ranking with ``knn_without``; a fold whose held-out
  project alone sets some feature's min or max computes it;
- one difference table over the neighbour table: the efforts of each
  training project's ``k_top`` analogies and its ``diff_rows`` vectors to
  them. MT and NN train on column 0, whatever k, the GA member for k on the
  first k;
- the model table ``models``: the RTM correlation, the model tree and the
  network, which learn from k-free inputs and serve every k, and a dict of
  GA weights, one member per k, as each k's GA design averages over its own
  k neighbours. A model that cannot be fitted is stored as its error, a GA
  member by its absence.

A chunk trains each learner as one stack in which every member equals its
lone fit. It grows the model trees of all its folds in one
``fit_model_trees`` call, a depth at a time. It trains all its GA members,
every fold times every GA variant whose design can be built, in one
``fit_ga_weights`` call, each seeded from ``(config.seed, fold index,
variant label)``, the seed a lone variant's run uses; and all its networks,
one per fold seeded from ``(config.seed, fold index, "NN")``, in one
``fit_networks`` call. So results are identical for any set of variants,
any chunking and any number of jobs.

A chunk returns one float array of shape (folds, methods, k_top): the
predictions of every method it runs, in ``adjust.METHODS`` order with EBA
first, NaN where a method cannot predict for k or its model for k could not
be fitted. The fallback is decided in one place, ``loocv_grid``: a
variant's prediction that is not finite is replaced by the EBA prediction
for the same fold and k, and counted as a fallback.
"""

from __future__ import annotations

import hashlib

import numpy as np

from . import adjust, analogy
from .analogy import retrieve
from .learners import NN_HIDDEN, FitError, diff_rows, fit_ga_weights, fit_model_trees, fit_networks, ga_design
from .metrics import baseline, build_table, log_floor

# Floats in the largest per-fold array of one chunk's network stack, its
# (folds, n - 1, NN_HIDDEN) hidden layer or its (folds, n - 1, m) difference
# pairs: a chunk holds as many folds as keep it near this size (256 KB),
# which is 4 folds at n = 499 and m = 16, 20 at n = 100 and all of
# Albrecht. The chunk count is then rounded up to a multiple of
# ``config.jobs``, so the forked workers get equal shares: 6 chunks of 16-17
# folds at n = 100 and 2 jobs. The GA members of a chunk train as one stack
# whatever its size. Its largest array, the (folds, GA variants, ga_pop,
# n - 1) errors that every generation refills, is 3.4 MB for 17 folds at
# n = 100 with the default ga_pop of 50. At jobs=1 the whole run holds each
# chunk's GA stack in the calling process: a 100-project pipeline peaked at
# 53.4 MB RSS in chunks of 16 folds and at 57.9 MB in chunks of 20. One
# stack of 13 folds at n = 100 trained in 66-67 ms against 74-82 ms in
# stacks of a fold. A chunk's model trees grow as one stack too. Their
# largest arrays are the root's (folds, m, n - 1) split search arrays, 190 KB
# each for 15 folds at n = 100 and m = 16; that chunk's tree fit peaked at
# 4.4 MB by tracemalloc. On a 16-fold china_screen chunk the GA stack peaked
# at 8.9 MB and the network stack at 0.7 MB.
STACK_FLOATS = 2**15


def derive_seed(seed, *parts):
    """Stable 64-bit child seed from the global seed and context labels."""
    digest = hashlib.blake2b(repr((seed, *parts)).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class _Fold:
    """One training fold, its target's nearest training projects, and
    ``models``: what the learning methods fitted on the fold, keyed by method.
    RTM, MT and NN keep one model for every k, GA a dict of the weights of
    each k whose member was fitted. A model that cannot be fitted is kept as
    its error; its predictions, and those of a k without weights, are NaN.

    ``k_top`` is the grid's largest k, and ``ranking`` the dataset's
    ``knn_within(dataset, k_top + 1)``. The fold retrieves ``k_top``
    analogies, and builds its RTM correlation, its difference ``table`` and
    its column-0 ``pairs`` whatever methods the grid runs. The model tree is
    added by ``_fit_trees``, the GA members by ``_fit_ga``, which lets go of
    the fold's difference ``table``, and the network by
    ``_fit_networks``."""

    def __init__(self, dataset, t, k_top, ranking):
        self.t = t
        self.train = train = dataset.without(t)
        self.target = dataset.row(t)
        self.analogies = retrieve(self.target, train, k_top)
        if all(map(np.array_equal, train.bounds, dataset.bounds)):
            neighbors = analogy.knn_without(ranking, t, k_top)
        else:
            neighbors = analogy.knn_within(train, k_top)
        self.models = {"RTM": adjust.productivity_correlation(train, neighbors[:, 0])}
        efforts = train.efforts[neighbors]
        diffs = diff_rows(train.cont[:, None], train.cat[:, None], train.cont[neighbors], train.cat[neighbors])
        self.table = efforts, diffs
        # copied, so that the pairs do not keep the table alive
        self.pairs = diffs[:, 0].copy(), train.efforts - efforts[:, 0]

    def predict(self, methods):
        """(methods, k_top) predictions for this fold's target: row i is
        ``adjust.<methods[i]>`` for every k at once, NaN for each k that the
        method cannot predict or whose model could not be fitted."""
        target, nbh, train = self.target, self.analogies, self.train
        rows = []
        for method in methods:
            model = self.models.get(method)
            if isinstance(model, Exception):
                rows.append(np.full(len(nbh.indices), np.nan))
            else:
                predictor = getattr(adjust, method.lower())
                # MT leaf coefficients are learned, so the load-time bound does not bound
                # them: an overflow falls back in ``loocv_grid``
                with np.errstate(over="ignore", invalid="ignore"):
                    rows.append(predictor(target, nbh, train, *(() if model is None else (model,))))
        return np.stack(rows)


def _fit_trees(folds):
    """Grow the model tree of every fold of a chunk into its ``models``, as
    one ``fit_model_trees`` stack; a tree that cannot be fitted is its
    error."""
    for fold, tree in zip(folds, fit_model_trees([fold.pairs for fold in folds])):
        fold.models["MT"] = tree


def _fit_ga(folds, variants, config):
    """Fit the GA members of every (fold, GA variant) of a chunk into each
    fold's ``models``, as one ``fit_ga_weights`` stack. A member's design is
    the first k columns of its fold's ``table``, which every fold lets go
    here, with GA variants or without; a member whose design cannot be
    built is left out."""
    members, designs = [], []
    for fold in folds:
        fold.models["GA"] = {}
        for variant in variants:
            try:
                designs.append(ga_design(fold.train.efforts, *(part[:, :variant.k] for part in fold.table)))
            except FitError:
                continue
            members.append((fold, variant))
        del fold.table
    if not designs:
        return
    # np.stack copies, so the members' own designs can be freed
    residuals, D = map(np.stack, zip(*designs))
    del designs
    seeds = [derive_seed(config.seed, fold.t, variant.label) for fold, variant in members]
    for (fold, variant), fit in zip(members, fit_ga_weights(residuals, D, config, seeds)):
        fold.models["GA"][variant.k] = fit.alpha


def _fit_networks(folds, config):
    """Train the network of every fold of a chunk into its ``models``, as one
    ``fit_networks`` stack; a network that cannot be fitted is its error."""
    X, y = zip(*(fold.pairs for fold in folds))
    seeds = [derive_seed(config.seed, fold.t, "NN") for fold in folds]
    for fold, net in zip(folds, fit_networks(np.stack(X), np.stack(y), config, seeds)):
        fold.models["NN"] = net


def _chunk_starts(n, size, jobs):
    """First fold of each chunk of consecutive folds: as many chunks as keep
    each within ``size`` folds, rounded up to a multiple of ``jobs`` and at
    most n, whose sizes differ by one at most."""
    chunks = -(-n // size)
    chunks = min(n, chunks + -chunks % jobs)
    return [-(-i * n // chunks) for i in range(chunks)]


# The chunk function of the ``loocv_grid`` call a forked worker serves. The
# worker inherits it at the fork, so the dataset, its ranking and the config
# are never pickled.
_chunk = None


def _start_worker(chunk):
    global _chunk
    _chunk = chunk


def _run_chunk(bounds):
    return _chunk(*bounds)


def _map_chunks(chunk, bounds, jobs):
    """``[chunk(start, stop) for start, stop in bounds]``, in up to ``jobs``
    forked worker processes when there are several jobs and chunks and the
    platform can fork. No worker outlives the call. A chunk's exception is
    raised here once the chunks already running have ended, and the chunks
    not yet started never run; a worker that dies, say killed by a signal,
    raises ``BrokenProcessPool`` here at once."""
    if jobs > 1 and len(bounds) > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            # a chunk that raises leaves ``map``'s iterator, which cancels
            # every chunk not yet handed to a worker; leaving the block
            # joins every worker
            with ProcessPoolExecutor(min(jobs, len(bounds)), mp_context=multiprocessing.get_context("fork"),
                                     initializer=_start_worker, initargs=(chunk,)) as pool:
                return list(pool.map(_run_chunk, bounds))
    return [chunk(start, stop) for start, stop in bounds]


def loocv_grid(dataset, variants, config):
    """Leave-one-out predictions of several variants over a dataset.

    Returns (tables, errors), both keyed by variant label in the order of
    ``variants``; a variant whose k leaves too few training projects gets
    its message in ``errors`` instead of a table.
    """
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
    used = {variant.method for variant in runnable}
    methods = [method for method in adjust.METHODS if method == "EBA" or method in used]
    genetic = [variant for variant in runnable if variant.method == "GA"]
    width = max(dataset.m, NN_HIDDEN)
    starts = _chunk_starts(dataset.n, max(1, STACK_FLOATS // ((dataset.n - 1) * width)), config.jobs)
    ranking = analogy.knn_within(dataset, k_top + 1)

    def chunk(start, stop):
        folds = [_Fold(dataset, t, k_top, ranking) for t in range(start, stop)]
        if "MT" in used:
            _fit_trees(folds)
        _fit_ga(folds, genetic, config)
        if "NN" in used:
            _fit_networks(folds, config)
        return np.stack([fold.predict(methods) for fold in folds])

    bounds = list(zip(starts, [*starts[1:], dataset.n]))
    predictions = np.concatenate(_map_chunks(chunk, bounds, config.jobs))
    floor = log_floor(dataset.efforts)
    tables = {}
    for variant in runnable:
        eba = predictions[:, 0, variant.k - 1]
        column = predictions[:, methods.index(variant.method), variant.k - 1]
        fell_back = ~np.isfinite(column)
        tables[variant.label] = build_table(variant.label, dataset.ids, dataset.efforts,
                                            np.where(fell_back, eba, column), floor, int(fell_back.sum()))
    return tables, errors


def loocv(dataset, variant, config):
    """Leave-one-out predictions of one variant over a dataset."""
    tables, errors = loocv_grid(dataset, (variant,), config)
    if errors:
        raise ValueError(errors[variant.label])
    return tables[variant.label]


def dataset_baseline(dataset, config):
    """Random-guessing baseline over the dataset's full effort column."""
    return baseline(dataset.efforts, config.runs, derive_seed(config.seed, "baseline"))
