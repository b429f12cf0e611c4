"""Inter-project distance and the one nearest-analogy ranking.

Distance is the un-weighted Euclidean distance over feature columns:
continuous terms are squared differences of values min-max scaled by a
training fold's bounds and clipped into [0, 1], categorical terms
contribute 1 on mismatch and 0 otherwise. Identifier and effort columns
never enter the distance. ``knn_within`` ranks every row of a dataset by
distance, ties to the smaller row index; a LOOCV fold reads its held-out
project's analogies and its in-training table from that one ranking.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .data import normalize_minmax


class Neighborhood(NamedTuple):
    """The k nearest training projects of one target, nearest first."""

    indices: np.ndarray      # row positions within the training fold
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


def knn_within(dataset, k, bounds=None):
    """For every row, the k nearest other rows, continuous values scaled by
    ``bounds`` (the dataset's own by default) and clipped into [0, 1].

    Returns an (n, k) index array, nearest first with ties broken by smaller
    row index, so the first j columns equal ``knn_within(dataset, j)``.
    Under a training fold's bounds, row t holds the held-out project's
    analogies (``fold_analogies``), the other rows the fold's in-training
    table (``knn_without``).
    """
    n = dataset.n
    if n - 1 < k:
        raise ValueError(f"need at least {k + 1} projects, got {n}")
    cont01, cat = normalize_minmax(dataset.cont, bounds or dataset.bounds), dataset.cat
    d = np.sqrt(_squared_distances(cont01[:, None], cat[:, None], cont01, cat))
    np.fill_diagonal(d, np.inf)
    # sorted by distance, not by its square, which rounding can split where
    # the roots tie; a stable sort keeps tied rows in index order; the copy
    # lets the (n, n) sort go, which a fold that keeps its table would hold
    return np.argsort(d, axis=1, kind="stable")[:, :k].copy()


def fold_analogies(dataset, ranking, t, k, bounds):
    """The k nearest training projects of held-out row t, from row t of
    ``ranking``, the dataset's ``knn_within`` under the fold's ``bounds``.

    The indices are positions in ``dataset.without(t)``; the distances, which
    AQUA weighs, are recomputed from the same scaled values.
    """
    indices = ranking[t, :k]
    scaled = normalize_minmax(dataset.cont[[t, *indices]], bounds)
    distances = np.sqrt(_squared_distances(scaled[0], dataset.cat[t], scaled[1:], dataset.cat[indices]))
    return Neighborhood(indices - (indices > t), distances)


def knn_without(table, t, k):
    """``knn_within(dataset.without(t), k)`` from ``table``, the dataset's
    ``knn_within(dataset, k + 1, bounds)`` under the fold's own bounds.

    Clipping moves no value inside its bounds, so each training row scales
    to the values the fold gives it and every distance keeps its bits, and
    removing row t from a stable order leaves the other rows in order. Each
    fold row is then its dataset row with t dropped (t appears at most once
    in its first k + 1 entries), cut to k entries, and every index above t
    shifted down by one.
    """
    rows = np.delete(table, t, axis=0)
    drop = rows == t
    drop[:, -1] |= ~drop.any(axis=1)
    kept = rows[~drop].reshape(len(rows), k)
    return kept - (kept > t)
