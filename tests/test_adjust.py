import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebae.adjust import (
    Inapplicable,
    VariantId,
    adjust_aqua,
    adjust_eba,
    adjust_ga,
    adjust_lse,
    adjust_mlfe,
    adjust_mt,
    adjust_nn,
    adjust_rtm,
    enumerate_variants,
    mean_productivity,
    productivity_correlation,
    variant_from_label,
)
from ebae.analogy import Neighborhood, knn_within, retrieve
from ebae.data import ColumnSpec

from .conftest import make_dataset, random_dataset, row_of, size_only_schema


def neighborhood(train, indices, distances=None):
    distances = distances if distances is not None else [0.0] * len(indices)
    return Neighborhood(np.array(indices, dtype=int), np.array(distances, dtype=float))


# --- variant grid ---


def test_enumerate_variants_grid():
    variants = enumerate_variants()
    assert len(variants) == 40
    assert len(set(variants)) == 40
    assert variants[0] == VariantId("EBA", 1)
    rtm = [v for v in variants if v.method == "RTM"]
    assert [v.k for v in rtm] == [1, 2, 3, 4, 5]


def test_variant_labels_roundtrip():
    for v in enumerate_variants():
        assert variant_from_label(v.label) == v


# --- EBA ---


def test_eba_examples(toy):
    assert adjust_eba(row_of(toy, (9,)), neighborhood(toy, [3]), toy) == 20.0
    assert adjust_eba(row_of(toy, (9,)), neighborhood(toy, [3, 2]), toy) == 16.0
    same = make_dataset("same", size_only_schema(), [(1,), (2,), (3,)], [7, 7, 7])
    assert adjust_eba(row_of(same, (2,)), neighborhood(same, [0, 1, 2]), same) == 7.0


# --- LSE ---


def test_lse_examples(toy):
    target = row_of(toy, (10,))
    assert adjust_lse(target, neighborhood(toy, [3]), toy) == pytest.approx(25.0)   # 20/8*10
    assert adjust_lse(target, neighborhood(toy, [3, 2]), toy) == pytest.approx(22.5)
    equal = row_of(toy, (8,))
    assert adjust_lse(equal, neighborhood(toy, [3]), toy) == pytest.approx(20.0)


def test_lse_zero_size_inapplicable(toy):
    with pytest.raises(Inapplicable):
        adjust_lse(row_of(toy, (0,)), neighborhood(toy, [3]), toy)
    zeros = make_dataset("z", size_only_schema(), [(0,), (4,), (6,)], [5, 8, 12])
    with pytest.raises(Inapplicable):
        adjust_lse(row_of(zeros, (5,)), neighborhood(zeros, [0]), zeros)


# --- MLFE ---


def two_size_dataset():
    schema = [
        ColumnSpec("s1", "feature", "continuous", "primary_size"),
        ColumnSpec("s2", "feature", "continuous", "size_related"),
    ]
    return make_dataset("two_sizes", schema, [(2, 5), (4, 9), (8, 30)], [10, 16, 40])


def test_mlfe_hand_example():
    ds = two_size_dataset()
    # analogy (e=10, f=(2,5)), target (4,10): ratios 2 and 2 -> 10 * 2
    assert adjust_mlfe(row_of(ds, (4, 10)), neighborhood(ds, [0]), ds) == pytest.approx(20.0)


def test_mlfe_identical_target_returns_effort():
    ds = two_size_dataset()
    assert adjust_mlfe(row_of(ds, (4, 9)), neighborhood(ds, [1]), ds) == pytest.approx(16.0)


def test_mlfe_zero_feature_excluded():
    schema = [
        ColumnSpec("s1", "feature", "continuous", "primary_size"),
        ColumnSpec("s2", "feature", "continuous", "size_related"),
    ]
    ds = make_dataset("zero_feature", schema, [(0, 5), (4, 9), (8, 30)], [10, 16, 40])
    # the zero s1 of the analogy drops out; only s2 ratio 10/5 remains
    assert adjust_mlfe(row_of(ds, (4, 10)), neighborhood(ds, [0]), ds) == pytest.approx(20.0)
    all_zero = make_dataset("all_zero", schema, [(0, 0), (4, 9), (8, 30)], [10, 16, 40])
    with pytest.raises(Inapplicable):
        adjust_mlfe(row_of(all_zero, (4, 10)), neighborhood(all_zero, [0]), all_zero)


def test_mlfe_single_size_feature_equals_lse_bitwise(toy):
    target = row_of(toy, (7.3,))
    for indices in ([3], [3, 2], [0, 1, 2, 3]):
        nbh = neighborhood(toy, indices)
        assert adjust_mlfe(target, nbh, toy) == adjust_lse(target, nbh, toy)


# --- RTM ---


def test_rtm_c1_is_size_times_mean_productivity(toy):
    target = row_of(toy, (10,))
    nbh = neighborhood(toy, [3, 2])
    pr = np.array([20 / 8, 12 / 6])
    expected = 10.0 * np.mean(pr)
    assert adjust_rtm(target, nbh, toy, correlation=1.0) == expected


def test_rtm_c0_hand_example():
    # analogies with productivities 2 and 3, historical mean 2.5, target size 10
    schema = size_only_schema()
    ds = make_dataset("pr", schema, [(10,), (10,), (10,)], [20, 30, 25])
    nbh = neighborhood(ds, [0, 1])
    value = adjust_rtm(row_of(ds, (10,)), nbh, ds, correlation=0.0)
    assert value == pytest.approx(25.0)


def test_rtm_k1_c0_full_regression(toy):
    h = mean_productivity(toy)
    value = adjust_rtm(row_of(toy, (10,)), neighborhood(toy, [0]), toy, correlation=0.0)
    assert value == pytest.approx(10.0 * h)


def test_rtm_zero_size_inapplicable(toy):
    with pytest.raises(Inapplicable):
        adjust_rtm(row_of(toy, (-1,)), neighborhood(toy, [3]), toy, correlation=0.5)


def test_productivity_correlation_in_unit_interval(albrecht):
    c = productivity_correlation(albrecht, knn_within(albrecht, 1)[:, 0])
    assert 0.0 <= c <= 1.0


def test_productivity_correlation_overflow_inapplicable():
    # productivities 1e160 * i: np.std squares them past the float range,
    # so np.corrcoef has no finite coefficient
    sizes = np.arange(1.0, 9.0)
    ds = make_dataset("huge", size_only_schema(), [(s,) for s in sizes], 1e160 * sizes**2)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(Inapplicable, match="overflow"):
        productivity_correlation(ds, knn_within(ds, 1)[:, 0])


# --- AQUA ---


def test_aqua_weighted_example():
    ds = make_dataset("aq", size_only_schema(), [(1,), (2,), (3,), (4,)], [20, 9, 9, 10])
    nbh = Neighborhood(np.array([3, 0]), np.array([0.25, 4.0]))
    # sims {0.8, 0.2} with efforts {10, 20} -> (8 + 4) / 1.0
    assert adjust_aqua(row_of(ds, (2,)), nbh, ds) == pytest.approx(12.0)


def test_aqua_equal_similarities_equals_eba_bitwise(toy):
    target = row_of(toy, (5,))
    nbh = neighborhood(toy, [1, 2, 3], distances=[0.4, 0.4, 0.4])
    assert adjust_aqua(target, nbh, toy) == adjust_eba(target, nbh, toy)


def test_aqua_k1_returns_effort(toy):
    nbh = neighborhood(toy, [2], distances=[3.7])
    assert adjust_aqua(row_of(toy, (5,)), nbh, toy) == 12.0


# --- GA ---


def test_ga_zero_alpha_equals_eba_bitwise(toy):
    target = row_of(toy, (5,))
    nbh = neighborhood(toy, [1, 3])
    assert adjust_ga(target, nbh, toy, np.zeros(1)) == adjust_eba(target, nbh, toy)


def test_ga_hand_example():
    ds = make_dataset("ga", size_only_schema(), [(3,), (4,), (5,)], [10, 11, 12])
    # analogy (e=10, f=3), target f=5, alpha=2 -> 10 + 2*2
    value = adjust_ga(row_of(ds, (5,)), neighborhood(ds, [0]), ds, np.array([2.0]))
    assert value == pytest.approx(14.0)


def test_ga_identical_features_any_alpha_equals_eba(toy):
    target = row_of(toy, (6,))
    nbh = neighborhood(toy, [2, 2])
    for alpha in (np.array([0.0]), np.array([4.2]), np.array([-3.0])):
        assert adjust_ga(target, nbh, toy, alpha) == adjust_eba(target, nbh, toy)


# --- MT / NN ---


def test_mt_zero_correction_tree(toy):
    from ebae.learners import ModelTree, TreeLeaf

    tree = ModelTree(root=TreeLeaf(intercept=0.0, coef=np.array([0.0])), n_features=1)
    target = row_of(toy, (8,))
    nbh = neighborhood(toy, [3])
    assert adjust_mt(target, nbh, toy, tree) == pytest.approx(20.0)


def test_mt_recovers_linear_fixture(linear_dataset):
    from ebae.config import Config
    from ebae.learners import build_diff_pairs, fit_model_tree

    # leave the largest project out, predict it from the rest
    train = linear_dataset.without(19)
    tree = fit_model_tree(*build_diff_pairs(train, knn_within(train, 1)[:, 0]), Config())
    target = linear_dataset.row(19)
    nbh = retrieve(target, train, 1)
    prediction = adjust_mt(target, nbh, train, tree)
    effort = linear_dataset.efforts[19]
    assert abs(prediction - effort) <= 0.1 * effort


def test_mt_outer_average_k2(toy):
    from ebae.learners import ModelTree, TreeLeaf

    tree = ModelTree(root=TreeLeaf(intercept=1.0, coef=None), n_features=1)
    target = row_of(toy, (9,))
    nbh = neighborhood(toy, [3, 2])
    assert adjust_mt(target, nbh, toy, tree) == pytest.approx(np.mean([20 + 1, 12 + 1]))


def test_nn_zero_network_equals_eba(toy):
    from ebae.learners import FeedForwardNet

    net = FeedForwardNet(
        w1=np.zeros((2, 1)), b1=np.zeros(2), w2=np.zeros(2), b2=0.0,
        x_mean=np.zeros(1), x_std=np.ones(1), y_mean=0.0, y_std=1.0,
    )
    target = row_of(toy, (9,))
    nbh = neighborhood(toy, [3, 1])
    assert adjust_nn(target, nbh, toy, net) == adjust_eba(target, nbh, toy)


def test_nn_outer_average_k3(toy):
    from ebae.learners import FeedForwardNet

    net = FeedForwardNet(
        w1=np.zeros((2, 1)), b1=np.zeros(2), w2=np.zeros(2), b2=0.5,
        x_mean=np.zeros(1), x_std=np.ones(1), y_mean=0.0, y_std=2.0,
    )
    target = row_of(toy, (9,))
    nbh = neighborhood(toy, [0, 1, 2])
    expected = np.mean(toy.efforts[[0, 1, 2]] + 1.0)     # constant correction 0.5*2
    assert adjust_nn(target, nbh, toy, net) == pytest.approx(expected)


# --- reduction identity property suite ---


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_reduction_identities_random_fixtures(seed, k):
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, n=int(rng.integers(max(k + 2, 5), 16)), n_features=1)
    target_index = int(rng.integers(0, ds.n))
    target = ds.row(target_index)
    train = ds.without(target_index)
    nbh = retrieve(target, train, k)

    # single size feature: multi-feature extrapolation degenerates to size extrapolation
    assert adjust_mlfe(target, nbh, train) == adjust_lse(target, nbh, train)
    # zero weights: linear correction degenerates to the plain mean
    assert adjust_ga(target, nbh, train, np.zeros(1)) == adjust_eba(target, nbh, train)
    # full correlation: no regression toward the historical mean
    sizes = train.cont[nbh.indices, 0]
    pr = train.efforts[nbh.indices] / sizes
    assert adjust_rtm(target, nbh, train, correlation=1.0) == float(
        target.cont[0] * np.mean(pr)
    )
    # equidistant analogies: similarity weighting degenerates to the plain mean
    equal = Neighborhood(nbh.indices, np.full(k, 0.5))
    assert adjust_aqua(target, equal, train) == adjust_eba(target, equal, train)


def test_k1_identical_analogy_exact_for_all_linear_methods(toy):
    # target feature-identical to its analogy: every linear method returns e_1
    target = row_of(toy, (8,))
    nbh = neighborhood(toy, [3], distances=[0.0])
    e1 = toy.efforts[3]
    assert adjust_eba(target, nbh, toy) == e1
    assert adjust_lse(target, nbh, toy) == e1
    assert adjust_mlfe(target, nbh, toy) == e1
    assert adjust_aqua(target, nbh, toy) == e1
