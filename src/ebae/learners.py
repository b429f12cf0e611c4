"""Trainable components behind the model-tree, network, and GA adjusters.

All three learn from the difference vectors of training projects to their
in-training analogies (continuous: project minus analogy, categorical: 0/1
mismatch): the model tree and the network from each project's vector to its
nearest analogy and their effort difference, a GA member for k from the
mean of its vectors to its k nearest. Every learner takes arrays, and every
fit is a deterministic function of its inputs and seed.
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


# ---------------------------------------------------------------------------
# Model tree: greedy variance-reduction splits, least-squares leaves.

MT_MIN_LEAF = 4     # fewest pairs on either side of a split
MT_MAX_DEPTH = 6    # nodes at this depth are leaves


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


def _split_search(X, y, counts, bars, min_leaf):
    """Best cut of each of N nodes at once: ``X`` (N, m, L) holds each node's
    feature columns and ``y`` (N, L) its targets, the first ``counts`` of L
    entries real and the rest pads, NaN in ``X``. Returns the (N,) features
    and thresholds of the winning cuts, feature -1 where no cut beats the
    node's SSE bar in ``bars``.

    Two rules decide which cuts may win: no cut between equal values, and
    no SSE that is not below the bar, which NaN never is. Among the rest,
    the first least SSE in feature-major order wins. SSEs are scored only
    at the cuts between unequal values.
    """
    N, m, L = X.shape
    # the stable sort puts NaN last, so each node's real rows sort as they
    # would alone and its prefix sums up to its last row are its own
    rows = np.argsort(X, axis=-1, kind="stable")
    xs = X.ravel()[rows + np.arange(0, N * m * L, L).reshape(N, m, 1)]
    ys = y.ravel()[rows + np.arange(0, N * L, L).reshape(N, 1, 1)]
    csum = np.cumsum(ys, axis=-1).ravel()
    csq = np.cumsum(ys * ys, axis=-1).ravel()
    # cut c puts a node's c smallest values on the left; every cut that
    # leaves min_leaf rows on each side, as its place in the (N, m, L - 1)
    # array of cuts, in order
    cuts = np.arange(1, L)
    inside = (cuts >= min_leaf) & (cuts <= counts[:, None] - min_leaf)
    flat = np.flatnonzero((xs[..., :-1] != xs[..., 1:]) & inside[:, None])
    features, thresholds = np.full(N, -1), np.zeros(N)
    if not len(flat):
        return features, thresholds
    # the node and feature of each cut, and the sorted row left of it
    column = flat // (L - 1)
    node = column // m
    at = flat + column
    cut, n = at % L + 1, counts[node]
    end = column * L + n - 1
    left_sum, left_sq = csum[at], csq[at]
    # float_power squares with C pow, as a scalar's ** 2 does; an array's
    # ** 2 multiplies instead, which differs in the last bit now and then
    # and could move a near-tie between cuts
    left_sse = left_sq - np.float_power(left_sum, 2) / cut
    r_sum = csum[end] - left_sum
    right_sse = (csq[end] - left_sq) - np.float_power(r_sum, 2) / (n - cut)
    sse = left_sse + right_sse
    sse[~(sse < bars[node])] = np.inf
    # each node's cuts are one run, in feature-major order: its winner is the
    # run's first cut at the run's least SSE, if that is finite
    heads = np.flatnonzero(np.diff(node, prepend=-1))
    run = np.repeat(np.arange(len(heads)), np.diff(heads, append=len(node)))
    hits = np.flatnonzero(sse == np.minimum.reduceat(sse, heads)[run])
    won = hits[np.diff(run[hits], prepend=-1) != 0]
    won = won[sse[won] < np.inf]
    features[node[won]] = column[won] % m
    # the midpoint of adjacent doubles may round up to the right value, which
    # would send every row to one side, so the left value is the threshold then
    a, b = xs.ravel()[at[won]], xs.ravel()[at[won] + 1]
    middle = (a + b) / 2.0
    thresholds[node[won]] = np.where((a <= middle) & (middle < b), middle, a)
    return features, thresholds


def _length_groups(rows, starts, counts, nodes):
    """(nodes of one length L, their (nodes, L) row indices) for each row
    count among ``nodes``, whose rows are ``rows[starts:starts + counts]``."""
    for length in np.unique(counts[nodes]):
        group = nodes[counts[nodes] == length]
        yield group, rows[starts[group, None] + np.arange(length)]


def fit_model_trees(pairs):
    """Grow the model trees of a stack of F difference-pair sets, one depth
    at a time for all F together.

    ``pairs`` holds F (X, y) sets with the same features. Returns F outcomes:
    a ``ModelTree``, or the ``FitError`` of a set with too few pairs. No tree
    depends on the others: each equals the tree its set grows alone, node by
    node, which ``tests/mt_reference.fit_model_tree_loop`` transcribes.

    A node below ``MT_MAX_DEPTH`` with at least ``2 * MT_MIN_LEAF`` rows
    searches for its cut; the others, and those whose cut does not beat
    their SSE, become leaves. Each step keeps a lone node's bits:

    - a node's rows stay in the order of its set, so its children and its
      leaf see the rows that the recursion gives them;
    - parent SSEs and constant-leaf means are row-wise reductions over the
      nodes of one exact length, whose rows numpy sums pairwise as it does
      one node's 1-D array;
    - the nodes that search for a cut are grouped into power-of-two classes
      of row counts, and each class makes one ``_split_search`` on
      NaN-padded (nodes, m, L) arrays; per cut it makes the arithmetic of a
      lone node, in the same order;
    - least-squares leaves are fitted one by one.
    """
    min_leaf = MT_MIN_LEAF
    outcomes, members = [], []
    for X, y in pairs:
        if len(y) < 2 * min_leaf:
            outcomes.append(FitError(f"model tree needs at least {2 * min_leaf} pairs, got {len(y)}"))
            continue
        outcomes.append(None)
        members.append((X, y))
    if not members:
        return outcomes
    m = members[0][0].shape[1]
    # every member's rows, and a pad row: NaN features, a zero target; the
    # searches read the features column by column, from ``by_column``
    X = np.concatenate([X for X, _ in members] + [np.full((1, m), np.nan)])
    y = np.concatenate([y for _, y in members] + [np.zeros(1)])
    pad = len(y) - 1
    by_column = X.T.ravel()
    columns = np.arange(0, m * len(y), len(y))[:, None]
    # the nodes of one depth: their ids, row counts and rows, node by node
    ids = np.arange(len(members))
    counts = np.array([len(y) for _, y in members])
    rows = np.arange(pad)
    splits, leaves = {}, {}
    for depth in range(MT_MAX_DEPTH + 1):
        starts = np.cumsum(counts) - counts
        features, thresholds = np.full(len(ids), -1), np.zeros(len(ids))
        growing = np.flatnonzero(counts >= 2 * min_leaf) if depth < MT_MAX_DEPTH else []
        if len(growing):
            bars = np.empty(len(ids))
            for group, index in _length_groups(rows, starts, counts, growing):
                ys = y[index]
                parent_sse = np.sum((ys - ys.mean(axis=1)[:, None]) ** 2, axis=1)
                bars[group] = parent_sse - 1e-12 * np.maximum(parent_sse, 1.0)
            classes = np.frexp(counts[growing] - 1)[1]
            for size in np.unique(classes):
                group = growing[classes == size]
                real = np.arange(counts[group].max()) < counts[group, None]
                index = np.full(real.shape, pad)
                index[real] = rows[(starts[group, None] + np.arange(real.shape[1]))[real]]
                features[group], thresholds[group] = _split_search(
                    by_column[index[:, None] + columns], y[index], counts[group], bars[group], min_leaf)
        done = np.flatnonzero(features < 0)
        short = done[counts[done] < m + 1]
        for group, index in _length_groups(rows, starts, counts, short):
            means = y[index].mean(axis=1).tolist()
            leaves.update((node, TreeLeaf(intercept=mean, coef=None))
                          for node, mean in zip(ids[group].tolist(), means))
        for node in done[counts[done] >= m + 1]:
            index = rows[starts[node]:starts[node] + counts[node]]
            leaves[int(ids[node])] = _fit_leaf(X[index], y[index])
        split = np.flatnonzero(features >= 0)
        if not len(split):
            break
        # each split node's rows, left side first, each side in set order
        owner = np.repeat(np.arange(len(ids)), counts)
        kept = features[owner] >= 0
        owner, rows = owner[kept], rows[kept]
        side = 2 * owner + ~(by_column[features[owner] * len(y) + rows] <= thresholds[owner])
        rows = rows[np.argsort(side, kind="stable")]
        counts = np.bincount(side, minlength=2 * len(ids)).reshape(-1, 2)[split].ravel()
        # ids count up level by level; a split node's right child follows its left
        children = ids[-1] + 1 + np.arange(len(counts))
        splits.update(zip(ids[split].tolist(), zip(features[split].tolist(), thresholds[split].tolist(),
                                                   children[::2].tolist())))
        ids = children

    def build(node):
        if node in leaves:
            return leaves[node]
        feature, threshold, left = splits[node]
        return TreeNode(feature=feature, threshold=threshold, left=build(left), right=build(left + 1))

    trees = iter(ModelTree(root=build(member), n_features=m) for member in range(len(members)))
    return [outcome if isinstance(outcome, FitError) else next(trees) for outcome in outcomes]


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

NN_HIDDEN = 4       # hidden units
NN_LR = 0.01        # gradient-descent step


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


def network_loss_and_grads(w1, b1, w2, b2, X, y, out=None):
    """MSE loss and its analytic gradients for one 1-hidden-layer network:
    w1 (h, m), b1 and w2 (h,), b2 a scalar, X (n, m) and y (n,); or for a
    stack of F networks, each trained on its own set, with a leading F axis
    on every argument. Returns the loss and the gradients of w1, b1, w2 and
    b2, in their shapes: in ``out``, four arrays of those shapes, if given.
    """
    b2 = np.asarray(b2)
    if out is None:
        out = tuple(np.empty(weight.shape) for weight in (w1, b1, w2, b2))
    g_w1, g_b1, g_w2, g_b2 = out
    # in place where an operand is a fresh temporary, in the same order of
    # operations as the out-of-place expressions, so every value is the same
    n = X.shape[-2]
    hidden = X @ w1.swapaxes(-1, -2)
    hidden += b1[..., None, :]
    np.tanh(hidden, out=hidden)
    pred = (hidden @ w2[..., None])[..., 0]
    pred += b2[..., None]
    err = np.subtract(pred, y, out=pred)
    # the sum and division of np.mean, without its checks
    loss = np.add.reduce(err**2, axis=-1) / n
    d_pred = np.multiply(2.0, err, out=err)
    d_pred /= n
    np.matmul(hidden.swapaxes(-1, -2), d_pred[..., None], out=g_w2[..., None])
    np.add.reduce(d_pred, axis=-1, out=g_b2)
    # the hidden layer is spent: its memory takes tanh's slope
    slope = np.multiply(hidden, hidden, out=hidden)
    np.subtract(1.0, slope, out=slope)
    d_hidden = d_pred[..., None] * w2[..., None, :]
    d_hidden *= slope
    np.matmul(d_hidden.swapaxes(-1, -2), X, out=g_w1)
    np.add.reduce(d_hidden, axis=-2, out=g_b1)
    return loss, out


def _standardize(X, y):
    """z-standardised pairs of one training set, and the scales that undo it."""
    x_mean, x_std = X.mean(axis=0), X.std(axis=0)
    x_std = np.where(x_std > 0, x_std, 1.0)
    y_mean, y_std = float(y.mean()), float(y.std())
    if y_std == 0:
        y_mean, y_std = 0.0, 1.0
    scales = dict(x_mean=x_mean, x_std=x_std, y_mean=y_mean, y_std=y_std)
    return (X - x_mean) / x_std, (y - y_mean) / y_std, scales


def fit_networks(X, y, config, seeds):
    """Train a stack of networks by full-batch gradient descent, all at once.

    ``X`` is (F, n, m) and ``y`` (F, n): F training sets of n difference
    pairs, each standardised on its own. ``seeds`` holds F seeds, one
    network per set; each draws ``w1`` then ``w2`` from its own
    ``default_rng(seed)``. Returns F outcomes: a ``FeedForwardNet``, or a
    ``FitError`` for a network whose loss was ever non-finite, and for every
    network when the sets have fewer than 4 pairs. No network depends on the
    others: each equals the network its set and seed train alone.

    Each epoch is one ``network_loss_and_grads`` call on the stack, with
    h = ``NN_HIDDEN``: ``w1`` (F, h, m), ``b1`` and ``w2`` (F, h), ``b2``
    (F,).
    """
    if y.shape[-1] < 4:
        return [FitError(f"network needs at least 4 pairs, got {y.shape[-1]}") for _ in seeds]
    Xs, ys, scales = zip(*(_standardize(Xf, yf) for Xf, yf in zip(X, y)))
    Xs, ys = np.stack(Xs), np.stack(ys)
    F, m, h = len(seeds), X.shape[-1], NN_HIDDEN
    # the weights, and their gradients, are views of one flat array each,
    # so that one update steps them all
    shapes = [(F, h, m), (F, h), (F, h), (F,)]
    ends = np.cumsum([np.prod(shape) for shape in shapes])
    params, grads = np.zeros(ends[-1]), np.empty(ends[-1])

    def views(flat):
        return [part.reshape(shape) for part, shape in zip(np.split(flat, ends[:-1]), shapes)]

    w1, b1, w2, b2 = weights = views(params)
    gradients = views(grads)
    for f, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        w1[f] = rng.standard_normal((h, m)) / np.sqrt(m)
        # small output init keeps the untrained net near zero output; the
        # hidden layer already breaks symmetry
        w2[f] = 0.1 * rng.standard_normal(h) / np.sqrt(h)
    diverged = np.zeros(F, dtype=bool)
    for _ in range(config.nn_epochs):
        loss, _ = network_loss_and_grads(*weights, Xs, ys, out=gradients)
        grads *= NN_LR
        params -= grads
        # a loss is learned, so no load-time bound keeps it finite
        if not np.isfinite(loss).all():
            # a diverged network goes on from zero weights, which keep its
            # values finite; it fails whatever follows
            bad = ~np.isfinite(loss)
            diverged |= bad
            for weight in weights:
                weight[bad] = 0.0
    return [
        FitError("network training diverged (non-finite loss)") if diverged[f]
        else FeedForwardNet(w1=w1[f], b1=b1[f], w2=w2[f], b2=float(b2[f]), **scales[f])
        for f in range(F)
    ]


def predict_network(net, x):
    xs = (np.asarray(x, dtype=float) - net.x_mean) / net.x_std
    hidden = np.tanh(net.w1 @ xs + net.b1)
    return float((hidden @ net.w2 + net.b2) * net.y_std + net.y_mean)


# ---------------------------------------------------------------------------
# GA weight optimizer for the linear difference-correction adjuster.

GA_CX = 0.8         # crossover rate
GA_MUT = 0.1        # mutation rate per weight
GA_RANGE = 5.0      # weights are searched in [-GA_RANGE, GA_RANGE]


@dataclass(frozen=True)
class GaWeights:
    alpha: np.ndarray
    fitness: float
    history: tuple        # best fitness per generation; nonincreasing


def ga_design(efforts, neighbor_efforts, diffs):
    """Precompute the in-training leave-one-out design for the GA objective.

    ``efforts`` (n,) are the training efforts; ``neighbor_efforts`` (n, k)
    and ``diffs`` (n, k, m) the efforts of each project's k nearest other
    training projects, nearest first, and its difference vectors to them.
    With mean aggregation the corrected prediction for project t is
    base(t) + mean_diff(t) . alpha, so the objective reduces to an L1 fit:
    returns (residuals e - base, mean difference matrix D). Raises
    ``FitError`` when there are fewer than k + 2 projects.
    """
    n, k = neighbor_efforts.shape
    if n < k + 2:
        raise FitError(f"GA needs at least {k + 2} projects for k={k}, got {n}")
    # within the load-time bound a fitness is below 1e50 + GA_RANGE * m * 2e50 = 1e50 + 1e51 * m: finite
    return efforts - neighbor_efforts.mean(axis=1), diffs.mean(axis=1)


def ga_fitness(residuals, D, alphas, out=None):
    """Mean absolute error of the corrected predictions for candidate rows.

    Shapes are residuals (..., n), D (..., n, m) and alphas (..., pop, m):
    leading axes are a stack of designs and broadcast. Each candidate's
    errors are averaged along their own contiguous row, so the zero vector
    scores exactly mean(|residuals|) in any population. ``out``, if given,
    is the C-contiguous (..., pop, n) array that takes the errors.
    """
    errors = np.matmul(np.atleast_2d(alphas), D.swapaxes(-1, -2), out=out)
    np.subtract(residuals[..., None, :], errors, out=errors)
    # the sum and division of np.mean, without its checks
    return np.add.reduce(np.abs(errors, out=errors), axis=-1) / errors.shape[-1]


def fit_ga_weights(residuals, D, config, seeds):
    """Tournament GA with arithmetic crossover, Gaussian mutation, elitism 1,
    for a stack of S members, all at once.

    ``residuals`` (S, n) and ``D`` (S, n, m) are S designs of ``ga_design``,
    one member per design and seed in ``seeds``. The members train as one
    stack, with populations (S, ga_pop, m). Returns S ``GaWeights``. No
    member depends on the others: each equals its lone fit.

    Each member draws from its own ``default_rng(seed)``: first its initial
    population, into which the zero vector is planted, so its weights never
    score worse than no correction at all. Each generation breeds its
    ``c = ga_pop - 1`` children at once from two draws:

    - ``random``: ``c * (8 + m)`` uniforms u in [0, 1). The first ``6 * c``
      are the tournament contenders ``floor(u * ga_pop)``, 3 per parent,
      first parents then second parents; the fittest contender wins and ties
      go to the first listed. Then come the crossover mask and the blend
      weights, one per child each, and the mutation mask, one per child and
      weight: a weight mutates where its u < ``GA_MUT``;
    - ``standard_normal``: the Gaussian noise, one per weight that mutates,
      in (child, weight) order, scaled by ``0.1 * GA_RANGE``.

    These are the numbers that one ``random`` call per part and a
    ``normal(0, 0.1 * GA_RANGE)`` call would draw. As u < 1, a contender is
    at most ``ga_pop - 1``, and each index's chance is within a few 2**-53
    of ``1 / ga_pop``. Children are clipped to ``[-GA_RANGE, GA_RANGE]`` and
    the elite is carried over unchanged.
    """
    size, n, m = D.shape
    n_pop, r = config.ga_pop, GA_RANGE
    n_children = n_pop - 1
    sigma = 0.1 * r
    rngs = [np.random.default_rng(seed) for seed in seeds]
    pop = np.stack([rng.uniform(-r, r, size=(n_pop, m)) for rng in rngs])
    pop[:, 0] = 0.0
    # Every array that a generation fills is allocated here, once. Each
    # generation breeds into ``spare``, and then the two populations swap.
    spare = np.empty_like(pop)
    errors = np.empty((size, n_pop, n))
    draws = np.empty((size, n_children * (8 + m)))
    picks, cross, blend, mutate = np.split(draws, [6 * n_children, 7 * n_children, 8 * n_children], axis=1)
    # the 3 contenders of each first parent, then of each second parent, as
    # rows of the flat (size * ga_pop) population, and their fitness
    contenders = np.empty((size, 2, n_children, 3), dtype=np.intp)
    scores = np.empty(contenders.shape)
    lead = np.empty(contenders.shape[:-1])
    second, third = np.empty(lead.shape, dtype=bool), np.empty(lead.shape, dtype=bool)
    winners = np.empty(lead.shape, dtype=np.intp)
    parents = np.empty((*lead.shape, m))
    p1, p2 = parents[:, 0], parents[:, 1]
    # each child's blend weight u, then 1 - u, on every weight of the child
    u, children, cloned = np.empty_like(p1), np.empty_like(p1), np.empty((size, n_children, 1), dtype=bool)
    mutated = np.empty(mutate.shape, dtype=bool)
    offsets = np.arange(0, size * n_pop, n_pop)
    fitness = ga_fitness(residuals, D, pop, out=errors)
    history = [fitness.min(axis=1)]
    for _ in range(config.ga_gens):
        for s, rng in enumerate(rngs):
            rng.random(out=draws[s])
        np.multiply(picks.reshape(contenders.shape), n_pop, out=contenders, casting="unsafe")
        contenders += offsets[:, None, None, None]
        # every index is in range; "clip" lets take write straight into
        # ``out``, which the default mode would buffer
        np.take(fitness, contenders, out=scores, mode="clip")
        # the fittest contender wins, ties to the first listed; fitness is
        # finite, by the bound in ga_design, so two comparisons decide
        np.less(scores[..., 1], scores[..., 0], out=second)
        np.minimum(scores[..., 0], scores[..., 1], out=lead)
        np.less(scores[..., 2], lead, out=third)
        np.copyto(winners, contenders[..., 0])
        np.copyto(winners, contenders[..., 1], where=second)
        np.copyto(winners, contenders[..., 2], where=third)
        rows = pop.reshape(-1, m)
        np.take(rows, winners, axis=0, out=parents, mode="clip")
        # a child that crosses is u * p1 + (1 - u) * p2, and one that does
        # not is a copy of p1
        np.copyto(u, blend[..., None])
        np.multiply(u, p1, out=children)
        np.subtract(1.0, u, out=u)
        children += np.multiply(u, p2, out=p2)
        np.greater_equal(cross[..., None], GA_CX, out=cloned)
        np.copyto(children, p1, where=cloned)
        np.less(mutate, GA_MUT, out=mutated)
        # each member's noise in (child, weight) order, the order of the flat
        # indices of its mutated weights
        noise = np.concatenate([rng.standard_normal(count) for rng, count in zip(rngs, mutated.sum(axis=1).tolist())])
        noise *= sigma
        children.reshape(-1)[np.flatnonzero(mutated)] += noise
        spare[:, 0] = rows[offsets + np.argmin(fitness, axis=1)]
        np.clip(children, -r, r, out=spare[:, 1:])
        pop, spare = spare, pop
        fitness = ga_fitness(residuals, D, pop, out=errors)
        history.append(fitness.min(axis=1))
    history = np.stack(history, axis=1).tolist()
    return [GaWeights(alpha=pop[s, best].copy(), fitness=float(fitness[s, best]), history=tuple(history[s]))
            for s, best in enumerate(np.argmin(fitness, axis=1))]
