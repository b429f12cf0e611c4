"""Trainable components behind the model-tree, network, and GA adjusters.

All three learn from difference pairs: for every training project, the
feature-difference vector to its nearest in-training analogy (continuous:
target minus analogy, categorical: 0/1 mismatch) and the matching effort
difference. Every fit is a deterministic function of its inputs and seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class FitError(Exception):
    """A learner cannot be fitted on the given training fold."""


def diff_rows(cont_a, cat_a, cont_b, cat_b):
    """a-minus-b difference vectors on the last axis: continuous differences,
    then 0/1 category-code mismatches. The a and b parts broadcast together."""
    return np.concatenate([cont_a - cont_b, (cat_a != cat_b).astype(float)], axis=-1)


def build_diff_pairs(train, nearest):
    """Difference rows X and effort differences y of every training project
    against its nearest other training project ``nearest[i]`` (column 0 of
    ``knn_within(train, k)``)."""
    if train.n < 2:
        raise FitError("need at least 2 projects to build difference pairs")
    X = diff_rows(train.cont, train.cat, train.cont[nearest], train.cat[nearest])
    return X, train.efforts - train.efforts[nearest]


# ---------------------------------------------------------------------------
# Model tree: greedy variance-reduction splits, least-squares leaves.

@dataclass(frozen=True)
class TreeLeaf:
    intercept: float
    coef: np.ndarray | None    # None -> constant-mean leaf


@dataclass(frozen=True)
class TreeNode:
    feature: int
    threshold: float
    left: object
    right: object


@dataclass(frozen=True)
class ModelTree:
    root: object
    n_features: int


def _fit_leaf(X, y):
    # with fewer rows than the fit's m + 1 columns the fit is rank-deficient
    if len(y) < X.shape[1] + 1:
        return TreeLeaf(intercept=float(np.mean(y)), coef=None)
    A = np.hstack([X, np.ones((len(y), 1))])
    solution, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
    if rank < A.shape[1]:
        return TreeLeaf(intercept=float(np.mean(y)), coef=None)
    return TreeLeaf(intercept=float(solution[-1]), coef=solution[:-1])


def _best_split(X, y, min_leaf):
    """(feature, threshold) of the cut with the least summed SSE of its two
    sides, or None when no cut beats the parent's SSE.

    Every cut of every feature is scored at once in a (cuts, features) SSE
    array. Two rules decide which cuts may win: no cut between equal values,
    and no SSE that is not below the parent's, which NaN never is. Among the
    rest, the first least SSE in feature-major order wins.
    """
    n = len(y)
    parent_sse = float(np.sum((y - y.mean()) ** 2))
    best_sse = parent_sse - 1e-12 * max(parent_sse, 1.0)
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    ys = y[order]
    csum = np.cumsum(ys, axis=0)
    csq = np.cumsum(ys * ys, axis=0)
    cuts = np.arange(min_leaf, n - min_leaf + 1)
    left_sum, left_sq = csum[cuts - 1], csq[cuts - 1]
    # float_power squares with C pow, as a scalar's ** 2 does; an array's
    # ** 2 multiplies instead, which differs in the last bit now and then
    # and could move a near-tie between cuts
    left_sse = left_sq - np.float_power(left_sum, 2) / cuts[:, None]
    r_sum = csum[-1] - left_sum
    right_sse = (csq[-1] - left_sq) - np.float_power(r_sum, 2) / (n - cuts)[:, None]
    sse = left_sse + right_sse
    allowed = (xs[cuts - 1] != xs[cuts]) & (sse < best_sse)
    if not allowed.any():
        return None
    j, c = divmod(int(np.argmin(np.where(allowed, sse, np.inf).T)), len(cuts))
    cut = cuts[c]
    return j, float((xs[cut - 1, j] + xs[cut, j]) / 2.0)


def _grow(X, y, min_leaf, depth, max_depth):
    if depth >= max_depth or len(y) < 2 * min_leaf:
        return _fit_leaf(X, y)
    split = _best_split(X, y, min_leaf)
    if split is None:
        return _fit_leaf(X, y)
    j, threshold = split
    mask = X[:, j] <= threshold
    return TreeNode(
        feature=j,
        threshold=threshold,
        left=_grow(X[mask], y[mask], min_leaf, depth + 1, max_depth),
        right=_grow(X[~mask], y[~mask], min_leaf, depth + 1, max_depth),
    )


# The split search squares sums of up to n effort differences and of their
# deviations from the mean, all within 2 n max|y|. Above this limit a square
# may overflow, and the search would compare inf and NaN instead of errors.
_SQUARE_LIMIT = np.sqrt(np.finfo(float).max)


def fit_model_tree(X, y, config):
    if len(y) < 2 * config.mt_min_leaf:
        raise FitError(f"model tree needs at least {2 * config.mt_min_leaf} pairs, got {len(y)}")
    if 2 * len(y) * np.max(np.abs(y)) > _SQUARE_LIMIT:
        raise FitError("model tree split search overflows: effort differences too large to square")
    root = _grow(X, y, config.mt_min_leaf, 0, config.mt_max_depth)
    return ModelTree(root=root, n_features=X.shape[1])


def predict_model_tree(tree, x):
    """Route a difference vector to its leaf (boundary values go left)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (tree.n_features,):
        raise ValueError(f"expected {tree.n_features} features, got {x.shape}")
    node = tree.root
    while isinstance(node, TreeNode):
        node = node.left if x[node.feature] <= node.threshold else node.right
    if node.coef is None:
        return node.intercept
    return float(node.intercept + node.coef @ x)


# ---------------------------------------------------------------------------
# Feed-forward network: one tanh hidden layer, linear output, full-batch GD
# on mean squared error over z-standardized pairs.

@dataclass(frozen=True)
class FeedForwardNet:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: float
    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: float
    y_std: float


def network_loss_and_grads(w1, b1, w2, b2, X, y):
    """MSE loss and its analytic gradients for the 1-hidden-layer network.

    Shapes are w1 (..., h, m), b1 and w2 (..., h), b2 (...), X (..., n, m)
    and y (..., n): leading axes are a stack of networks and broadcast, and
    each network's values are those of its own 2-D call.
    """
    hidden = np.tanh(X @ np.swapaxes(w1, -1, -2) + b1[..., None, :])
    pred = (hidden @ w2[..., None])[..., 0] + np.asarray(b2)[..., None]
    err = pred - y
    n = y.shape[-1]
    loss = np.mean(err**2, axis=-1)
    d_pred = 2.0 * err / n
    g_w2 = (np.swapaxes(hidden, -1, -2) @ d_pred[..., None])[..., 0]
    g_b2 = np.sum(d_pred, axis=-1)
    d_hidden = d_pred[..., None] * w2[..., None, :] * (1.0 - hidden**2)
    g_w1 = np.swapaxes(d_hidden, -1, -2) @ X
    g_b1 = d_hidden.sum(axis=-2)
    return loss, (g_w1, g_b1, g_w2, g_b2)


def _standardize(X, y):
    """z-standardised pairs of one training set, and the scales that undo it."""
    x_mean = X.mean(axis=0)
    x_std = X.std(axis=0)
    x_std = np.where(x_std > 0, x_std, 1.0)
    y_mean = float(y.mean())
    y_std = float(y.std())
    if y_std == 0:
        y_mean, y_std = 0.0, 1.0
    scales = dict(x_mean=x_mean, x_std=x_std, y_mean=y_mean, y_std=y_std)
    return (X - x_mean) / x_std, (y - y_mean) / y_std, scales


def fit_networks(X, y, config, seeds):
    """Train a stack of networks by full-batch gradient descent, all at once.

    ``X`` is (F, n, m) and ``y`` (F, n): F training sets of n difference
    pairs, each standardised on its own. ``seeds`` holds F rows of K seeds,
    one network per seed trained on its row's set; each draws ``w1`` then
    ``w2`` from its own ``default_rng(seed)``. Returns F rows of K members:
    a ``FeedForwardNet``, or a ``FitError`` for a member whose loss was ever
    non-finite. No member depends on the others: each equals the network
    its set and seed train alone.
    """
    if y.shape[-1] < 4:
        raise FitError(f"network needs at least 4 pairs, got {y.shape[-1]}")
    Xs, ys, scales = zip(*(_standardize(Xf, yf) for Xf, yf in zip(X, y)))
    Xs = np.stack(Xs)[:, None]
    ys = np.stack(ys)[:, None]
    shape = (len(seeds), len(seeds[0]))
    m, h = X.shape[-1], config.nn_hidden
    w1 = np.empty(shape + (h, m))
    w2 = np.empty(shape + (h,))
    for f, row in enumerate(seeds):
        for j, seed in enumerate(row):
            rng = np.random.default_rng(seed)
            w1[f, j] = rng.standard_normal((h, m)) / np.sqrt(m)
            # small output init keeps the untrained net near zero output; the
            # hidden layer already breaks symmetry
            w2[f, j] = 0.1 * rng.standard_normal(h) / np.sqrt(h)
    b1 = np.zeros(shape + (h,))
    b2 = np.zeros(shape)
    diverged = np.zeros(shape, dtype=bool)
    lr = config.nn_lr
    for _ in range(config.nn_epochs):
        loss, (g_w1, g_b1, g_w2, g_b2) = network_loss_and_grads(w1, b1, w2, b2, Xs, ys)
        w1 = w1 - lr * g_w1
        b1 = b1 - lr * g_b1
        w2 = w2 - lr * g_w2
        b2 = b2 - lr * g_b2
        bad = ~np.isfinite(loss)
        if bad.any():
            # a diverged member goes on from zero weights, which keep its
            # values finite; it fails whatever follows
            diverged |= bad
            for weights in (w1, b1, w2, b2):
                weights[bad] = 0.0
    return [
        [
            FitError("network training diverged (non-finite loss)") if diverged[f, j]
            else FeedForwardNet(w1=w1[f, j], b1=b1[f, j], w2=w2[f, j], b2=float(b2[f, j]), **scales[f])
            for j in range(shape[1])
        ]
        for f in range(shape[0])
    ]


def predict_network(net, x):
    xs = (np.asarray(x, dtype=float) - net.x_mean) / net.x_std
    hidden = np.tanh(net.w1 @ xs + net.b1)
    return float((hidden @ net.w2 + net.b2) * net.y_std + net.y_mean)


# ---------------------------------------------------------------------------
# GA weight optimizer for the linear difference-correction adjuster.

@dataclass(frozen=True)
class GaWeights:
    alpha: np.ndarray
    fitness: float
    history: tuple        # best fitness per generation; nonincreasing


def ga_design(train, neighbors):
    """Precompute the in-training leave-one-out design for the GA objective.

    ``neighbors`` is the (n, k) table of every training project's k nearest
    other training projects, nearest first (``knn_within(train, k)``). With
    mean aggregation the corrected prediction for project t is
    base(t) + mean_diff(t) . alpha, so the objective reduces to an L1 fit:
    returns (residuals e - base, mean difference matrix D).
    """
    n, k = train.n, neighbors.shape[1]
    if n < k + 2:
        raise FitError(f"GA needs at least {k + 2} projects for k={k}, got {n}")
    base = train.efforts[neighbors].mean(axis=1)
    # mean of the (n, k, m) difference vectors of every project to its k analogies
    D = diff_rows(train.cont[:, None], train.cat[:, None], train.cont[neighbors],
                  train.cat[neighbors]).mean(axis=1)
    return train.efforts - base, D


def ga_fitness(residuals, D, alphas):
    """Mean absolute error of the corrected predictions for candidate rows.

    Shapes are residuals (..., n), D (..., n, m) and alphas (..., pop, m):
    leading axes are a stack of designs and broadcast. Each candidate's
    errors are averaged along their own contiguous row, so the zero vector
    scores exactly mean(|residuals|) in any population.
    """
    errors = np.atleast_2d(alphas) @ np.swapaxes(D, -1, -2)
    np.subtract(residuals[..., None, :], errors, out=errors)
    return np.abs(errors, out=errors).mean(axis=-1)


def fit_ga_weights(trains, neighbors, ks, config, seeds):
    """Tournament GA with arithmetic crossover, Gaussian mutation, elitism 1,
    for a stack of F training sets times K members, all at once.

    ``trains`` are F training sets of the same size and features, and
    ``neighbors`` their in-training neighbour tables (``knn_within``).
    ``seeds`` holds F rows of K seeds, one member per seed: member (f, j)
    searches the design ``ga_design(trains[f], neighbors[f][:, :ks[j]])``.
    The members whose designs can be built train as one stack of S:
    residuals (S, n), designs (S, n, m) and populations (S, ga_pop, m).
    Returns F rows of K outcomes: a ``GaWeights``, or the ``FitError`` of a
    member whose design cannot be built. No member depends on the others:
    each equals its lone fit.

    Each member draws from its own ``default_rng(seed)``: first its initial
    population, into which the zero vector is planted, so its weights never
    score worse than no correction at all. Each generation breeds its
    ``ga_pop - 1`` children at once from three calls, in this order:

    - ``integers``: the tournament contenders, 3 per parent, first parents
      then second parents, as one ``(2 * (ga_pop - 1), 3)`` array; the
      fittest contender wins and ties go to the first listed;
    - ``random``: the crossover mask and the blend weights, one per child
      each, then the mutation mask, one per child and weight;
    - ``standard_normal``: the Gaussian noise, one per child and weight,
      scaled by ``0.1 * ga_range``.

    These are the numbers that one ``random`` call per mask and a
    ``normal(0, 0.1 * ga_range)`` call would draw. Children are clipped to
    ``[-ga_range, ga_range]`` and the elite is carried over unchanged.
    """
    outcomes = [[None] * len(ks) for _ in seeds]
    designs = []
    for f, (train, table, row) in enumerate(zip(trains, neighbors, seeds)):
        for j, (k, seed) in enumerate(zip(ks, row)):
            try:
                designs.append(((f, j), *ga_design(train, table[:, :k]), seed))
            except FitError as exc:
                outcomes[f][j] = exc
    if not designs:
        return outcomes
    members, residuals, D, member_seeds = zip(*designs)
    residuals, D = np.stack(residuals), np.stack(D)
    size, m = len(members), D.shape[-1]
    n_children = config.ga_pop - 1
    r = config.ga_range
    rngs = [np.random.default_rng(seed) for seed in member_seeds]
    pop = np.stack([rng.uniform(-r, r, size=(config.ga_pop, m)) for rng in rngs])
    pop[:, 0] = 0.0
    fitness = ga_fitness(residuals, D, pop)
    history = [fitness.min(axis=1)]
    sigma = 0.1 * r
    contenders = np.empty((size, 2 * n_children, 3), dtype=np.int64)
    # selection indexes flat views: each member's first row in the (size *
    # ga_pop) fitness and population, each tournament's first contender
    offsets = np.arange(0, size * config.ga_pop, config.ga_pop)
    firsts = np.arange(0, contenders.size, 3).reshape(size, 2 * n_children)
    uniforms = np.empty((size, n_children * (2 + m)))
    cross, blend = uniforms[:, :n_children], uniforms[:, n_children:2 * n_children]
    mutate = uniforms[:, 2 * n_children:].reshape(size, n_children, m)
    noise = np.empty((size, n_children, m))
    for _ in range(config.ga_gens):
        for s, rng in enumerate(rngs):
            contenders[s] = rng.integers(0, config.ga_pop, size=(2 * n_children, 3))
            rng.random(out=uniforms[s])
            rng.standard_normal(out=noise[s])
        noise *= sigma
        entries = contenders + offsets[:, None, None]
        winners = entries.ravel().take(firsts + np.argmin(fitness.ravel().take(entries), axis=2))
        rows = pop.reshape(-1, m)
        parents = rows.take(winners, axis=0)
        p1, p2 = parents[:, :n_children], parents[:, n_children:]
        u = blend[..., None]
        children = np.where(cross[..., None] < config.ga_cx, u * p1 + (1.0 - u) * p2, p1)
        children = np.where(mutate < config.ga_mut, children + noise, children)
        pop = np.empty_like(pop)
        pop[:, 0] = rows[offsets + np.argmin(fitness, axis=1)]
        np.clip(children, -r, r, out=pop[:, 1:])
        fitness = ga_fitness(residuals, D, pop)
        history.append(fitness.min(axis=1))
    history = np.stack(history, axis=1).tolist()
    for s, ((f, j), best) in enumerate(zip(members, np.argmin(fitness, axis=1))):
        outcomes[f][j] = GaWeights(alpha=pop[s, best].copy(), fitness=float(fitness[s, best]),
                                   history=tuple(history[s]))
    return outcomes
