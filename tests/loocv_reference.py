"""Variant-first leave-one-out, kept as the test oracle of the fold-major
``ebae.validation.loocv_grid``.

``loocv_variant`` runs one variant over every fold and ``predict_variant``
rebuilds everything a prediction needs from scratch: the k nearest training
projects, the in-training neighbour table, the difference pairs and GA
design, built one row at a time, the model tree and the RTM correlation.
Its learners are the loop oracles: the one-member GA, the one-network
gradient descent and the tree grown by the loop split search. Like the
tree, the network learns from pairs that do not depend on k, so every NN
variant of a fold trains the same network, seeded from the fold and "NN".
Its adjusters are the single-k ones of ``adjust_reference``. The
fold-major engine builds the shared work once per fold for all variants,
derives most neighbour tables from one dataset-wide ranking, fits its
learners in stacks, predicts every k of a method in one pass, and must give
exactly the same tables.
"""

import math

import numpy as np

from ebae import adjust
from ebae.analogy import knn_within
from ebae.learners import FitError
from ebae.metrics import build_table, log_floor
from ebae.validation import derive_seed

from . import adjust_reference as ref
from .conftest import retrieve
from .ga_reference import diff_vector, fit_ga_one, ga_design_loop
from .mt_reference import fit_model_tree_loop
from .nn_reference import fit_network


def nearest(train):
    return knn_within(train, 1)[:, 0]


def diff_pairs_loop(train):
    """(X, y): every training project's difference vector to its nearest
    other training project, and their effort difference, one row at a time."""
    pairs = [(diff_vector(train.cont[i], train.cat[i], train.cont[j], train.cat[j]),
              train.efforts[i] - train.efforts[j]) for i, j in enumerate(nearest(train))]
    X, y = zip(*pairs)
    return np.array(X), np.array(y)


def predict_variant(variant, target, train, config, seed):
    """(prediction, fell_back) of one variant for one held-out target."""
    nbh = retrieve(target, train, variant.k)
    method = variant.method
    try:
        if method == "EBA":
            prediction = ref.adjust_eba(target, nbh, train)
        elif method == "LSE":
            prediction = ref.adjust_lse(target, nbh, train)
        elif method == "MLFE":
            prediction = ref.adjust_mlfe(target, nbh, train)
        elif method == "RTM":
            c = adjust.productivity_correlation(train, nearest(train))
            prediction = ref.adjust_rtm(target, nbh, train, c)
        elif method == "AQUA":
            prediction = ref.adjust_aqua(target, nbh, train)
        elif method == "MT":
            tree = fit_model_tree_loop(*diff_pairs_loop(train))
            prediction = ref.adjust_mt(target, nbh, train, tree)
        elif method == "GA":
            weights = fit_ga_one(*ga_design_loop(train, variant.k), config, seed)
            prediction = ref.adjust_ga(target, nbh, train, weights.alpha)
        elif method == "NN":
            net = fit_network(*diff_pairs_loop(train), config, seed)
            prediction = ref.adjust_nn(target, nbh, train, net)
        else:
            raise ValueError(f"unknown method {method!r}")
        if not math.isfinite(prediction):
            raise ref.Inapplicable(f"non-finite {method} prediction")
        return prediction, False
    except (ref.Inapplicable, FitError):
        return ref.adjust_eba(target, nbh, train), True


def loocv_variant(dataset, variant, config):
    """Leave-one-out table of one variant, one fold after another."""
    k = variant.k
    if dataset.n < k + 2:
        raise ValueError(f"dataset too small for k={k}: need at least {k + 2} projects, have {dataset.n}")
    outcomes = [
        predict_variant(variant, dataset.row(t), dataset.without(t), config,
                        derive_seed(config.seed, t, variant.method if variant.method == "NN" else variant.label))
        for t in range(dataset.n)
    ]
    return build_table(variant.label, dataset.ids, dataset.efforts,
                       [p for p, _ in outcomes], log_floor(dataset.efforts), sum(fb for _, fb in outcomes))


def loocv_variants(dataset, variants, config):
    """(tables, errors) of ``variants`` in the shape ``loocv_grid`` returns."""
    tables, errors = {}, {}
    for variant in variants:
        try:
            tables[variant.label] = loocv_variant(dataset, variant, config)
        except ValueError as exc:
            errors[variant.label] = str(exc)
    return tables, errors
