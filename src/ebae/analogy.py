"""Inter-project distance and k-nearest-analogy retrieval.

Distance is the un-weighted Euclidean distance over feature columns:
continuous terms are squared differences (callers pass min-max normalized
values for retrieval), categorical terms contribute 1 on mismatch and 0
otherwise. Identifier and effort columns never enter the distance.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .data import normalize_minmax


class Neighborhood(NamedTuple):
    """The k nearest pool rows for one target, nearest first."""

    indices: np.ndarray      # row positions within the pool dataset
    distances: np.ndarray


def similarity_from_distance(d):
    """Monotone map to (0, 1]; equals 1 exactly when the distance is 0."""
    return 1.0 / (1.0 + d)


def _squared_distances(a_cont, a_cat, b_cont, b_cat):
    """Squared distances between rows of a and b, summed on the last axis;
    the a and b parts broadcast together."""
    diff = a_cont - b_cont
    diff *= diff
    return diff.sum(axis=-1) + (a_cat != b_cat).sum(axis=-1)


def pool_distances(target, pool):
    """Distances from the ``target`` Row to every row of ``pool`` (pool-bounds
    normalization).

    The target's continuous values are scaled with the pool's min-max bounds
    and clamped into [0, 1], so a query outside the training range cannot
    leave the normalized cube.
    """
    target01 = normalize_minmax(target.cont, pool.bounds, clamp=True)
    return np.sqrt(_squared_distances(target01, target.cat, pool.normalized(), pool.cat))


def retrieve(target, pool, k):
    """The k nearest pool projects to the ``target`` Row, ties broken by
    smaller row index.

    ``pool`` must not contain the target itself (the caller guarantees this;
    in LOOCV the pool is the training fold).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if pool.n < k:
        raise ValueError(f"pool has {pool.n} projects, cannot retrieve k={k}")
    d = pool_distances(target, pool)
    order = np.argsort(d, kind="stable")[:k]
    return Neighborhood(order, d[order])


def knn_within(dataset, k):
    """For every row, the k nearest other rows (dataset-bounds normalization).

    Returns an (n, k) index array, nearest first with ties broken by smaller
    row index, so the first j columns equal ``knn_within(dataset, j)``; used
    to pair training projects with their in-training analogies when fitting
    the trainable adjusters and the RTM correlation.
    """
    n = dataset.n
    if n - 1 < k:
        raise ValueError(f"need at least {k + 1} projects, got {n}")
    cont01, cat = dataset.normalized(), dataset.cat
    d2 = _squared_distances(cont01[:, None], cat[:, None], cont01, cat)
    np.fill_diagonal(d2, np.inf)
    # a stable sort keeps tied rows in index order; the copy lets the (n, n)
    # sort go, which a fold that keeps its table would otherwise hold
    return np.argsort(d2, axis=1, kind="stable")[:, :k].copy()


def knn_without(table, t, k):
    """``knn_within(dataset.without(t), k)`` from ``table``, the dataset's
    ``knn_within(dataset, k + 1)``, for a fold whose normalization bounds are
    the dataset's.

    Such a fold normalizes every row to the same values, so every distance
    keeps its bits, and removing row t from a stable order leaves the other
    rows in order. Each fold row is then its dataset row with t dropped (t
    appears at most once in its first k + 1 entries), cut to k entries, and
    every index above t shifted down by one.
    """
    rows = np.delete(table, t, axis=0)
    drop = rows == t
    drop[:, -1] |= ~drop.any(axis=1)
    kept = rows[~drop].reshape(len(rows), k)
    return kept - (kept > t)
