"""Leave-one-out cross validation of estimator variants, fold first.

Each fold trains on the other n-1 projects: its normalization bounds and
learner fits see training rows only, and every project's analogies are
training projects. The target enters as a ``Row`` of its feature values,
so its effort is never consulted.

``loocv_grid`` runs chunks of consecutive folds, as few as keep a chunk
within ``CHUNK_FLOATS``, rounded up to a multiple of ``config.jobs``: at
100 projects of 16 features, one chunk for each of 2 jobs. With more than
one job ``_map_chunks`` runs the chunks in a
``concurrent.futures.ProcessPoolExecutor`` of up to ``config.jobs``
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
- one ranking of the whole dataset under the fold's min-max bounds: the
  dataset ranking, or where the held-out project alone sets some feature's
  min or max, ``knn_within(dataset, k_top + 1, train.bounds)``. Its row t
  gives the held-out project's ``k_top`` analogies, ``fold_analogies``, and
  its other rows the in-training neighbour table ``knn_without``, equal to
  ``knn_within(train, k_top)``, whose column 0 serves the RTM correlation.
  Both order by distance, ties to the smaller index, so the k nearest are a
  prefix of the ``k_top`` nearest and variant k takes the first k;
- one difference table over the neighbour table: the efforts of each
  training project's ``k_top`` analogies and its ``diff_rows`` vectors to
  them. MT and NN train on column 0, whatever k, the GA member for k on the
  first k;
- the model table ``models``: the RTM correlation, the model tree and the
  network, which learn from k-free inputs and serve every k, and a dict of
  GA weights, one member per k, as each k's GA design averages over its own
  k neighbours. A model that cannot be fitted is stored as its error, a GA
  member by its absence.

A chunk trains each learner in stacks in which every member equals its
lone fit, each learner at its own width. It grows the model trees of all
its folds in one ``fit_model_trees`` call, a depth at a time. It trains its
GA members, every fold times every GA variant whose design can be built,
in equal ``fit_ga_weights`` stacks of consecutive members within
``GA_FLOATS``, so a fold's members may train in two stacks, each seeded
from ``(config.seed, fold index, variant label)``, the seed a lone
variant's run uses; and its networks, one per fold seeded from
``(config.seed, fold index, "NN")``, in equal ``fit_networks`` stacks of
consecutive folds within ``NN_FLOATS``. So results are identical for any
set of variants, any chunking, any stack widths and any number of jobs.

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
from .learners import NN_HIDDEN, FitError, diff_rows, fit_ga_weights, fit_model_trees, fit_networks, ga_design
from .metrics import baseline, build_table, log_floor

# Each budget counts float64 values. CPU ms are per ``loocv_grid`` of the
# 40 variants at the benchmark's learner budget (ga.gens=10, nn.epochs=50),
# chunked for 2 jobs and run in one process, medians of 7 in each of 2-3
# sweeps (2-core AMD EPYC, 1 MB L2 cache per core, numpy 2.4.6).
#
# Folds per chunk: CHUNK_FLOATS over a fold's (n - 1) * max(m, NN_HIDDEN),
# which bounds the chunk's model-tree stack: its root split search holds
# (folds, m, n - 1) arrays. That is 82 folds at n = 100 and m = 16, 103 at
# n = 80, 16 at n = 499 and all of Albrecht, so at n <= 100 2 jobs get one
# chunk each. On china_screen MT took 45.4-48.9 ms in 2 chunks of 50
# against 54.1-55.9 ms in 6 chunks of 16-17 (at 2**15). The cost is
# memory: a chunk keeps each fold's training set and difference table,
# 96 KB at n = 100, until its GA designs are built. At jobs=1, where the
# chunks run in the calling process, a china_screen pipeline peaked at
# 57.0 MB RSS against 52.1 MB in chunks of 20, a mixed_screen one at
# 53.2 MB against 50.4 MB in chunks of 20; on the 499 x 16 fixture at
# jobs=2 the largest worker peaked at 77.0 MB against 70.4-70.9 MB.
CHUNK_FLOATS = 2**17
# Members per GA stack: GA_FLOATS over ga_pop * (n - 1), which bounds the
# stack's (members, ga_pop, n - 1) errors that every generation refills, to
# 2 MB. That is 52 members at n = 100 and the default ga_pop of 50, 10 at
# n = 499 and 227 on Albrecht. GA took 79.6-82.6 ms on china_screen in 5
# stacks of 50 per chunk, against 84.6-90.3 ms in one stack per chunk of
# 16-17 folds (80-85 members), and 60.4-60.7 ms on mixed_screen against
# 67.4-70.5 ms. The optimum is flat: 82.6-83.8 ms in stacks of 25, 82.2-91.2
# ms in stacks of 83-84 and 90.0 ms in stacks of 12-13.
GA_FLOATS = 2**18
# Folds per network stack: NN_FLOATS over (n - 1) * max(m, NN_HIDDEN), which
# bounds the stack's (folds, n - 1, NN_HIDDEN) hidden layer and its (folds,
# n - 1, m) difference pairs to 256 KB: 20 folds at n = 100 and m = 16, 4
# at n = 499. NN took 25.6-26.5 ms on china_screen at this width and
# 25.2-25.5 ms at 2**16.
NN_FLOATS = 2**15


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
    ``knn_within(dataset, k_top + 1)``, which a fold whose bounds differ
    replaces by its own. From the one ranking the fold takes its ``k_top``
    analogies and its in-training table, and builds its RTM correlation,
    its difference ``table`` and its column-0 ``pairs`` whatever methods
    the grid runs. The model tree is added by ``_fit_trees``, the GA
    members by ``_fit_ga``, which lets go of the fold's difference
    ``table``, and the network by ``_fit_networks``."""

    def __init__(self, dataset, t, k_top, ranking):
        self.t = t
        self.train = train = dataset.without(t)
        self.target = dataset.row(t)
        if not all(map(np.array_equal, train.bounds, dataset.bounds)):
            ranking = analogy.knn_within(dataset, k_top + 1, train.bounds)
        self.analogies = analogy.fold_analogies(dataset, ranking, t, k_top, train.bounds)
        neighbors = analogy.knn_without(ranking, t, k_top)
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
    fold's ``models``, in equal ``fit_ga_weights`` stacks of consecutive
    members, as few as keep each stack's (members, ga_pop, n - 1) errors
    within ``GA_FLOATS``. A member's design is the first k columns of its
    fold's ``table``, which every fold lets go here, with GA variants or
    without; a member whose design cannot be built is left out."""
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
    size = max(1, GA_FLOATS // (config.ga_pop * folds[0].train.n))
    for start, stop in _spans(len(members), size):
        residuals, D = map(np.stack, zip(*designs[start:stop]))
        seeds = [derive_seed(config.seed, fold.t, variant.label) for fold, variant in members[start:stop]]
        for (fold, variant), fit in zip(members[start:stop], fit_ga_weights(residuals, D, config, seeds)):
            fold.models["GA"][variant.k] = fit.alpha


def _fit_networks(folds, config):
    """Train the network of every fold of a chunk into its ``models``, in
    equal ``fit_networks`` stacks of consecutive folds, as few as keep each
    stack's largest per-fold array within ``NN_FLOATS``; a network that
    cannot be fitted is its error."""
    size = max(1, NN_FLOATS // _fold_floats(*folds[0].pairs[0].shape))
    for start, stop in _spans(len(folds), size):
        stack = folds[start:stop]
        X, y = zip(*(fold.pairs for fold in stack))
        seeds = [derive_seed(config.seed, fold.t, "NN") for fold in stack]
        for fold, net in zip(stack, fit_networks(np.stack(X), np.stack(y), config, seeds)):
            fold.models["NN"] = net


def _fold_floats(pairs, m):
    """Floats in the largest network array of a fold of ``pairs`` training
    pairs of m features: its hidden layer or its difference pairs."""
    return pairs * max(m, NN_HIDDEN)


def _spans(n, size, jobs=1):
    """(start, stop) of each run of n consecutive members: as many runs as
    keep each within ``size`` members, rounded up to a multiple of ``jobs``
    and at most n, whose sizes differ by one at most."""
    runs = -(-n // size)
    runs = min(n, runs + -runs % jobs)
    starts = [-(-i * n // runs) for i in range(runs)]
    return list(zip(starts, [*starts[1:], n]))


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
    size = max(1, CHUNK_FLOATS // _fold_floats(dataset.n - 1, dataset.m))
    ranking = analogy.knn_within(dataset, k_top + 1)

    def chunk(start, stop):
        folds = [_Fold(dataset, t, k_top, ranking) for t in range(start, stop)]
        if "MT" in used:
            _fit_trees(folds)
        _fit_ga(folds, genetic, config)
        if "NN" in used:
            _fit_networks(folds, config)
        return np.stack([fold.predict(methods) for fold in folds])

    predictions = np.concatenate(_map_chunks(chunk, _spans(dataset.n, size, config.jobs), config.jobs))
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
