"""One node and one cut at a time, kept as the test oracle of the stacked,
level-wise ``ebae.learners.fit_model_trees``.

``best_split_loop`` scores every cut of every feature in two Python loops
and keeps the first SSE below the best so far; ``fit_model_tree_loop``
grows a tree with it by recursion, node by node. The stacked growth must
choose the same split at every node, so both give equal trees.
``fit_model_tree`` is the stacked growth of one set, with the loop's
interface: it returns the tree or raises its ``FitError``.
"""

import numpy as np

from ebae import learners
from ebae.learners import FitError, ModelTree, TreeLeaf, TreeNode, _fit_leaf, fit_model_trees


def fit_model_tree(X, y):
    """``fit_model_trees`` of one set: its tree, or its ``FitError`` raised."""
    (tree,) = fit_model_trees([(X, y)])
    if isinstance(tree, FitError):
        raise tree
    return tree


def best_split_loop(X, y, min_leaf):
    n, m = X.shape
    parent_sse = float(np.sum((y - y.mean()) ** 2))
    best = None
    best_sse = parent_sse - 1e-12 * max(parent_sse, 1.0)
    for j in range(m):
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        ys = y[order]
        csum = np.cumsum(ys)
        csq = np.cumsum(ys * ys)
        total_sum = csum[-1]
        total_sq = csq[-1]
        for cut in range(min_leaf, n - min_leaf + 1):
            if xs[cut - 1] == xs[cut]:
                continue
            left_sse = csq[cut - 1] - csum[cut - 1] ** 2 / cut
            r_sum = total_sum - csum[cut - 1]
            right_sse = (total_sq - csq[cut - 1]) - r_sum**2 / (n - cut)
            sse = left_sse + right_sse
            if sse < best_sse:
                best_sse = sse
                middle = (xs[cut - 1] + xs[cut]) / 2.0
                # a midpoint outside [left, right) would send every row to one side
                best = (j, float(middle if xs[cut - 1] <= middle < xs[cut] else xs[cut - 1]))
    return best


def _grow_loop(X, y, min_leaf, depth, max_depth):
    if depth >= max_depth or len(y) < 2 * min_leaf:
        return _fit_leaf(X, y)
    split = best_split_loop(X, y, min_leaf)
    if split is None:
        return _fit_leaf(X, y)
    j, threshold = split
    mask = X[:, j] <= threshold
    return TreeNode(
        feature=j,
        threshold=threshold,
        left=_grow_loop(X[mask], y[mask], min_leaf, depth + 1, max_depth),
        right=_grow_loop(X[~mask], y[~mask], min_leaf, depth + 1, max_depth),
    )


def fit_model_tree_loop(X, y):
    """``fit_model_tree`` grown with the loop split search."""
    min_leaf = learners.MT_MIN_LEAF
    if len(y) < 2 * min_leaf:
        raise FitError(f"model tree needs at least {2 * min_leaf} pairs, got {len(y)}")
    return ModelTree(root=_grow_loop(X, y, min_leaf, 0, learners.MT_MAX_DEPTH), n_features=X.shape[1])


def assert_same_tree(got, want):
    """Equal structure, features and thresholds, and bitwise-equal leaves."""
    if isinstance(want, ModelTree):
        assert isinstance(got, ModelTree) and got.n_features == want.n_features
        assert_same_tree(got.root, want.root)
    elif isinstance(want, TreeNode):
        assert isinstance(got, TreeNode)
        assert (got.feature, got.threshold) == (want.feature, want.threshold)
        assert_same_tree(got.left, want.left)
        assert_same_tree(got.right, want.right)
    else:
        assert isinstance(got, TreeLeaf) and got.intercept == want.intercept
        assert (got.coef is None) == (want.coef is None)
        assert want.coef is None or np.array_equal(got.coef, want.coef)
