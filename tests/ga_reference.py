"""Per-row, per-member and per-child loop versions of the GA learner, kept
as test oracles.

``diff_vector`` builds one difference vector at a time, the layout that
``ebae.learners.diff_rows`` produces for whole arrays. ``ga_design_loop`` is
the row-by-row construction of the GA design that ``ebae.learners.ga_design``
must reproduce exactly from a prefix of a LOOCV fold's difference table;
``table_design`` gathers that table as the fold does. ``fit_ga_one`` runs the
generation loop of one member on 2-D arrays, with its own fitness; every
member of a ``ebae.learners.fit_ga_weights`` stack must equal it exactly.
``fit_ga_weights_loop`` breeds one child at a time with the same operators
but a different random-number draw order, so it agrees in behaviour, not in
numbers.
"""

import numpy as np

from ebae import learners
from ebae.analogy import knn_within
from ebae.learners import FitError, GaWeights, diff_rows, ga_design, ga_fitness


def diff_vector(cont_a, cat_a, cont_b, cat_b):
    """a-minus-b over continuous features, 0/1 mismatch over categorical ones."""
    cont = np.asarray(cont_a, dtype=float) - np.asarray(cont_b, dtype=float)
    cat = (np.asarray(cat_a, dtype=object) != np.asarray(cat_b, dtype=object)).astype(float)
    return np.concatenate([cont, cat])


def ga_design_loop(train, k):
    """(residuals, D) of every project of ``train`` against its k nearest
    others, one row at a time, and the ``FitError`` of a design too small."""
    n = train.n
    if n < k + 2:
        raise FitError(f"GA needs at least {k + 2} projects for k={k}, got {n}")
    neighbors = knn_within(train, k)
    base = train.efforts[neighbors].mean(axis=1)
    m = len(train.cont_index) + len(train.cat_index)
    D = np.zeros((n, m))
    for i in range(n):
        diffs = [
            diff_vector(train.cont[i], train.cat[i], train.cont[j], train.cat[j])
            for j in neighbors[i]
        ]
        D[i] = np.mean(diffs, axis=0)
    return train.efforts - base, D


def table_design(train, neighbors):
    """``ga_design`` of every project of ``train`` against its analogies in
    the neighbour table ``neighbors``, gathered as a LOOCV fold gathers its
    difference table."""
    diffs = diff_rows(train.cont[:, None], train.cat[:, None], train.cont[neighbors], train.cat[neighbors])
    return ga_design(train.efforts, train.efforts[neighbors], diffs)


def fit_ga_weights_loop(train, k, config, seed):
    residuals, D = ga_design_loop(train, k)
    m = D.shape[1]
    r = learners.GA_RANGE
    rng = np.random.default_rng(seed)
    pop = rng.uniform(-r, r, size=(config.ga_pop, m))
    pop[0] = 0.0
    fitness = ga_fitness(residuals, D, pop)
    history = [float(fitness.min())]
    sigma = 0.1 * r
    for _ in range(config.ga_gens):
        elite = int(np.argmin(fitness))
        children = np.empty_like(pop)
        children[0] = pop[elite]
        for c in range(1, config.ga_pop):
            contenders = rng.integers(0, config.ga_pop, size=3)
            p1 = pop[contenders[np.argmin(fitness[contenders])]]
            contenders = rng.integers(0, config.ga_pop, size=3)
            p2 = pop[contenders[np.argmin(fitness[contenders])]]
            if rng.random() < learners.GA_CX:
                u = rng.random()
                child = u * p1 + (1.0 - u) * p2
            else:
                child = p1.copy()
            mutate = rng.random(m) < learners.GA_MUT
            child = np.where(mutate, child + rng.normal(0.0, sigma, size=m), child)
            children[c] = np.clip(child, -r, r)
        pop = children
        fitness = ga_fitness(residuals, D, pop)
        history.append(float(fitness.min()))
    best = int(np.argmin(fitness))
    return GaWeights(alpha=pop[best].copy(), fitness=float(fitness[best]), history=tuple(history))


def ga_fitness_2d(residuals, D, alphas):
    """Mean absolute error of the corrected predictions of each row of ``alphas``."""
    return np.abs(residuals - np.atleast_2d(alphas) @ D.T).mean(axis=1)


def fit_ga_one(residuals, D, config, seed):
    """The GA weights of one design (residuals, D) and seed."""
    m = D.shape[1]
    r = learners.GA_RANGE
    rng = np.random.default_rng(seed)
    pop = rng.uniform(-r, r, size=(config.ga_pop, m))
    pop[0] = 0.0
    fitness = ga_fitness_2d(residuals, D, pop)
    history = [float(fitness.min())]
    sigma = 0.1 * r
    n_children = config.ga_pop - 1
    parents = np.arange(2 * n_children)
    for _ in range(config.ga_gens):
        contenders = np.floor(rng.random((2 * n_children, 3)) * config.ga_pop).astype(int)
        winners = contenders[parents, np.argmin(fitness[contenders], axis=1)]
        p1, p2 = pop[winners].reshape(2, n_children, m)
        cross = rng.random(n_children) < learners.GA_CX
        u = rng.random(n_children)[:, None]
        children = np.where(cross[:, None], u * p1 + (1.0 - u) * p2, p1)
        mutate = rng.random((n_children, m)) < learners.GA_MUT
        # one normal per mutated weight, in (child, weight) order
        children[mutate] += rng.normal(0.0, sigma, size=int(mutate.sum()))
        pop = np.vstack([pop[np.argmin(fitness)], np.clip(children, -r, r)])
        fitness = ga_fitness_2d(residuals, D, pop)
        history.append(float(fitness.min()))
    best = int(np.argmin(fitness))
    return GaWeights(alpha=pop[best].copy(), fitness=float(fitness[best]), history=tuple(history))
