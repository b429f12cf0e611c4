import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebae.adjust import (
    VariantId,
    aqua,
    eba,
    enumerate_variants,
    ga,
    lse,
    mean_productivity,
    mlfe,
    mt,
    nn,
    productivity_correlation,
    rtm,
)
from ebae.analogy import Neighborhood, knn_within
from ebae.config import Config
from ebae.data import ColumnSpec
from ebae.learners import FeedForwardNet, ModelTree, TreeLeaf, TreeNode

from . import adjust_reference as ref
from .adjust_reference import Inapplicable
from .conftest import make_dataset, random_dataset, retrieve, row_of, size_only_schema


def neighborhood(train, indices, distances=None):
    distances = distances if distances is not None else [0.0] * len(indices)
    return Neighborhood(np.array(indices, dtype=int), np.array(distances, dtype=float))


# --- variant grid ---


def test_enumerate_variants_grid():
    variants = enumerate_variants(Config().k_max)
    assert len(variants) == 40
    assert len(set(variants)) == 40
    assert variants[0] == VariantId("EBA", 1)
    rtm = [v for v in variants if v.method == "RTM"]
    assert [v.k for v in rtm] == [1, 2, 3, 4, 5]


# --- EBA ---


def test_eba_examples(toy):
    assert eba(row_of(toy, (9,)), neighborhood(toy, [3]), toy)[-1] == 20.0
    assert eba(row_of(toy, (9,)), neighborhood(toy, [3, 2]), toy)[-1] == 16.0
    same = make_dataset("same", size_only_schema(), [(1,), (2,), (3,)], [7, 7, 7])
    assert eba(row_of(same, (2,)), neighborhood(same, [0, 1, 2]), same)[-1] == 7.0


# --- LSE ---


def test_lse_examples(toy):
    target = row_of(toy, (10,))
    assert lse(target, neighborhood(toy, [3]), toy)[-1] == pytest.approx(25.0)   # 20/8*10
    assert lse(target, neighborhood(toy, [3, 2]), toy)[-1] == pytest.approx(22.5)
    equal = row_of(toy, (8,))
    assert lse(equal, neighborhood(toy, [3]), toy)[-1] == pytest.approx(20.0)


def test_lse_zero_size_inapplicable(toy):
    assert np.isnan(lse(row_of(toy, (0,)), neighborhood(toy, [3]), toy)[-1])
    zeros = make_dataset("z", size_only_schema(), [(0,), (4,), (6,)], [5, 8, 12])
    assert np.isnan(lse(row_of(zeros, (5,)), neighborhood(zeros, [0]), zeros)[-1])


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
    assert mlfe(row_of(ds, (4, 10)), neighborhood(ds, [0]), ds)[-1] == pytest.approx(20.0)


def test_mlfe_identical_target_returns_effort():
    ds = two_size_dataset()
    assert mlfe(row_of(ds, (4, 9)), neighborhood(ds, [1]), ds)[-1] == pytest.approx(16.0)


def test_mlfe_zero_feature_excluded():
    schema = [
        ColumnSpec("s1", "feature", "continuous", "primary_size"),
        ColumnSpec("s2", "feature", "continuous", "size_related"),
    ]
    ds = make_dataset("zero_feature", schema, [(0, 5), (4, 9), (8, 30)], [10, 16, 40])
    # the zero s1 of the analogy drops out; only s2 ratio 10/5 remains
    assert mlfe(row_of(ds, (4, 10)), neighborhood(ds, [0]), ds)[-1] == pytest.approx(20.0)
    all_zero = make_dataset("all_zero", schema, [(0, 0), (4, 9), (8, 30)], [10, 16, 40])
    assert np.isnan(mlfe(row_of(all_zero, (4, 10)), neighborhood(all_zero, [0]), all_zero)[-1])


def test_mlfe_single_size_feature_equals_lse_bitwise(toy):
    target = row_of(toy, (7.3,))
    for indices in ([3], [3, 2], [0, 1, 2, 3]):
        nbh = neighborhood(toy, indices)
        assert mlfe(target, nbh, toy)[-1] == lse(target, nbh, toy)[-1]


# --- RTM ---


def test_rtm_c1_is_size_times_mean_productivity(toy):
    target = row_of(toy, (10,))
    nbh = neighborhood(toy, [3, 2])
    pr = np.array([20 / 8, 12 / 6])
    expected = 10.0 * np.mean(pr)
    assert rtm(target, nbh, toy, correlation=1.0)[-1] == expected


def test_rtm_c0_hand_example():
    # analogies with productivities 2 and 3, historical mean 2.5, target size 10
    schema = size_only_schema()
    ds = make_dataset("pr", schema, [(10,), (10,), (10,)], [20, 30, 25])
    nbh = neighborhood(ds, [0, 1])
    value = rtm(row_of(ds, (10,)), nbh, ds, correlation=0.0)[-1]
    assert value == pytest.approx(25.0)


def test_rtm_k1_c0_full_regression(toy):
    h = mean_productivity(toy)
    value = rtm(row_of(toy, (10,)), neighborhood(toy, [0]), toy, correlation=0.0)[-1]
    assert value == pytest.approx(10.0 * h)


def test_rtm_zero_size_inapplicable(toy):
    assert np.isnan(rtm(row_of(toy, (-1,)), neighborhood(toy, [3]), toy, correlation=0.5)[-1])


def test_productivity_correlation_in_unit_interval(albrecht):
    c = productivity_correlation(albrecht, knn_within(albrecht, 1)[:, 0])
    assert 0.0 <= c <= 1.0


def test_rtm_without_primary_size_predicts_nothing():
    # a size flag other than primary leaves RTM nothing to scale by
    schema = [ColumnSpec("size", "feature", "continuous", "size_related")]
    ds = make_dataset("unsized", schema, [(2,), (4,), (6,), (9,)], [4, 8, 12, 25])
    assert ds.size_col is None
    correlation = productivity_correlation(ds, knn_within(ds, 1)[:, 0])
    assert correlation == 0.0
    predictions = rtm(row_of(ds, (5,)), neighborhood(ds, [1, 2, 0]), ds, correlation)
    assert len(predictions) == 3 and np.all(np.isnan(predictions))


# --- AQUA ---


def test_aqua_weighted_example():
    ds = make_dataset("aq", size_only_schema(), [(1,), (2,), (3,), (4,)], [20, 9, 9, 10])
    nbh = Neighborhood(np.array([3, 0]), np.array([0.25, 4.0]))
    # sims {0.8, 0.2} with efforts {10, 20} -> (8 + 4) / 1.0
    assert aqua(row_of(ds, (2,)), nbh, ds)[-1] == pytest.approx(12.0)


def test_aqua_equal_similarities_equals_eba_bitwise(toy):
    target = row_of(toy, (5,))
    nbh = neighborhood(toy, [1, 2, 3], distances=[0.4, 0.4, 0.4])
    assert aqua(target, nbh, toy)[-1] == eba(target, nbh, toy)[-1]


def test_aqua_k1_returns_effort(toy):
    nbh = neighborhood(toy, [2], distances=[3.7])
    assert aqua(row_of(toy, (5,)), nbh, toy)[-1] == 12.0


# --- GA ---


def test_ga_zero_alpha_equals_eba_bitwise(toy):
    target = row_of(toy, (5,))
    nbh = neighborhood(toy, [1, 3])
    assert ga(target, nbh, toy, {2: np.zeros(1)})[-1] == eba(target, nbh, toy)[-1]


def test_ga_hand_example():
    ds = make_dataset("ga", size_only_schema(), [(3,), (4,), (5,)], [10, 11, 12])
    # analogy (e=10, f=3), target f=5, alpha=2 -> 10 + 2*2
    value = ga(row_of(ds, (5,)), neighborhood(ds, [0]), ds, {1: np.array([2.0])})[-1]
    assert value == pytest.approx(14.0)


def test_ga_identical_features_any_alpha_equals_eba(toy):
    target = row_of(toy, (6,))
    nbh = neighborhood(toy, [2, 2])
    for alpha in (np.array([0.0]), np.array([4.2]), np.array([-3.0])):
        assert ga(target, nbh, toy, {2: alpha})[-1] == eba(target, nbh, toy)[-1]


# --- MT / NN ---


def test_mt_zero_correction_tree(toy):
    from ebae.learners import ModelTree, TreeLeaf

    tree = ModelTree(root=TreeLeaf(intercept=0.0, coef=np.array([0.0])), n_features=1)
    target = row_of(toy, (8,))
    nbh = neighborhood(toy, [3])
    assert mt(target, nbh, toy, tree)[-1] == pytest.approx(20.0)


def test_mt_recovers_linear_fixture(linear_dataset):
    from .conftest import fold_pairs
    from .mt_reference import fit_model_tree

    # leave the largest project out, predict it from the rest
    train = linear_dataset.without(19)
    tree = fit_model_tree(*fold_pairs(linear_dataset, 19))
    target = linear_dataset.row(19)
    nbh = retrieve(target, train, 1)
    prediction = mt(target, nbh, train, tree)[-1]
    effort = linear_dataset.efforts[19]
    assert abs(prediction - effort) <= 0.1 * effort


def test_mt_outer_average_k2(toy):
    from ebae.learners import ModelTree, TreeLeaf

    tree = ModelTree(root=TreeLeaf(intercept=1.0, coef=None), n_features=1)
    target = row_of(toy, (9,))
    nbh = neighborhood(toy, [3, 2])
    assert mt(target, nbh, toy, tree)[-1] == pytest.approx(np.mean([20 + 1, 12 + 1]))


def test_nn_zero_network_equals_eba(toy):
    from ebae.learners import FeedForwardNet

    net = FeedForwardNet(
        w1=np.zeros((2, 1)), b1=np.zeros(2), w2=np.zeros(2), b2=0.0,
        x_mean=np.zeros(1), x_std=np.ones(1), y_mean=0.0, y_std=1.0,
    )
    target = row_of(toy, (9,))
    nbh = neighborhood(toy, [3, 1])
    assert np.array_equal(nn(target, nbh, toy, net), eba(target, nbh, toy))


def test_nn_outer_average_k3(toy):
    from ebae.learners import FeedForwardNet

    net = FeedForwardNet(
        w1=np.zeros((2, 1)), b1=np.zeros(2), w2=np.zeros(2), b2=0.5,
        x_mean=np.zeros(1), x_std=np.ones(1), y_mean=0.0, y_std=2.0,
    )
    target = row_of(toy, (9,))
    nbh = neighborhood(toy, [0, 1, 2])
    expected = np.mean(toy.efforts[[0, 1, 2]] + 1.0)     # constant correction 0.5*2
    assert nn(target, nbh, toy, net)[-1] == pytest.approx(expected)


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
    assert mlfe(target, nbh, train)[-1] == lse(target, nbh, train)[-1]
    # zero weights: linear correction degenerates to the plain mean
    assert ga(target, nbh, train, {k: np.zeros(1)})[-1] == eba(target, nbh, train)[-1]
    # full correlation: no regression toward the historical mean
    sizes = train.cont[nbh.indices, 0]
    pr = train.efforts[nbh.indices] / sizes
    assert rtm(target, nbh, train, correlation=1.0)[-1] == float(
        target.cont[0] * np.mean(pr)
    )
    # equidistant analogies: similarity weighting degenerates to the plain mean
    equal = Neighborhood(nbh.indices, np.full(k, 0.5))
    assert aqua(target, equal, train)[-1] == eba(target, equal, train)[-1]


def test_k1_identical_analogy_exact_for_all_linear_methods(toy):
    # target feature-identical to its analogy: every linear method returns e_1
    target = row_of(toy, (8,))
    nbh = neighborhood(toy, [3], distances=[0.0])
    e1 = toy.efforts[3]
    assert eba(target, nbh, toy)[-1] == e1
    assert lse(target, nbh, toy)[-1] == e1
    assert mlfe(target, nbh, toy)[-1] == e1
    assert aqua(target, nbh, toy)[-1] == e1


# --- prefix predictions against the single-k adjusters ---


def oracle(adjuster, target, nbh, train, models=None):
    """What ``adjuster`` predicts from the first k analogies for k = 1..len(nbh),
    NaN where it raises Inapplicable; ``models`` maps k to the model it takes,
    and a k without one has no prediction either."""
    predictions = []
    for k in range(1, len(nbh.indices) + 1):
        first = Neighborhood(nbh.indices[:k], nbh.distances[:k])
        try:
            if models is not None and k not in models:
                raise Inapplicable(f"no model for k={k}")
            predictions.append(adjuster(target, first, train, *(() if models is None else (models[k],))))
        except Inapplicable:
            predictions.append(np.nan)
    return np.array(predictions)


def assert_prefix_matches_oracle(target, nbh, train, correlation, tree, alphas, net):
    every_k = range(1, len(nbh.indices) + 1)
    cases = [
        (eba(target, nbh, train), ref.adjust_eba, None),
        (lse(target, nbh, train), ref.adjust_lse, None),
        (mlfe(target, nbh, train), ref.adjust_mlfe, None),
        (rtm(target, nbh, train, correlation), ref.adjust_rtm, dict.fromkeys(every_k, correlation)),
        (aqua(target, nbh, train), ref.adjust_aqua, None),
        (mt(target, nbh, train, tree), ref.adjust_mt, dict.fromkeys(every_k, tree)),
        (ga(target, nbh, train, alphas), ref.adjust_ga, alphas),
        (nn(target, nbh, train, net), ref.adjust_nn, dict.fromkeys(every_k, net)),
    ]
    for predictions, adjuster, models in cases:
        assert np.array_equal(predictions, oracle(adjuster, target, nbh, train, models), equal_nan=True), \
            adjuster.__name__


def random_tree(rng, width):
    """A one-split model tree over ``width`` difference features, linear on the left."""
    return ModelTree(root=TreeNode(feature=int(rng.integers(width)), threshold=float(rng.normal()),
                                   left=TreeLeaf(float(rng.normal()), rng.normal(size=width)),
                                   right=TreeLeaf(float(rng.normal()), None)),
                     n_features=width)


def random_network(rng, width, hidden=3):
    return FeedForwardNet(w1=rng.normal(size=(hidden, width)), b1=rng.normal(size=hidden),
                          w2=rng.normal(size=hidden), b2=float(rng.normal()), x_mean=rng.normal(size=width),
                          x_std=rng.uniform(0.5, 2.0, size=width), y_mean=float(rng.normal()),
                          y_std=float(rng.uniform(0.5, 2.0)))


SIZED = [
    ColumnSpec("size", "feature", "continuous", "primary_size"),
    ColumnSpec("fp", "feature", "continuous", "size_related"),
    ColumnSpec("team", "feature", "continuous", "none"),
]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 11), st.integers(0, 3), st.integers(0, 3), st.booleans())
def test_prefix_predictions_match_single_k_adjusters(seed, k_top, zero_sizes, duplicates, with_categorical):
    # up to 11 analogies, past the 8 terms from which a running sum rounds
    # differently; zero and negative sizes, all-zero extrapolation rows and
    # duplicate rows (tied distances) among them
    rng = np.random.default_rng(seed)
    schema = SIZED + ([ColumnSpec("lang", "feature", "categorical", "none")] if with_categorical else [])
    n = k_top + 1 + duplicates + int(rng.integers(1, 6))
    rows = [[float(v) for v in rng.uniform(0.5, 100.0, size=3)] + [str(rng.choice(["a", "b"]))] * with_categorical
            for _ in range(n - duplicates)]
    rows += [list(rows[int(rng.integers(len(rows)))]) for _ in range(duplicates)]
    for i in rng.choice(n, size=zero_sizes, replace=False):
        rows[i][0] = float(rng.choice([0.0, -1.0]))
        if rng.random() < 0.5:
            rows[i][:2] = [0.0, 0.0]
    ds = make_dataset("sized", schema, [tuple(row) for row in rows], rng.uniform(1.0, 500.0, size=n))
    t = int(rng.integers(n))
    train, target = ds.without(t), ds.row(t)
    nbh = retrieve(target, train, k_top)
    width = train.cont.shape[1] + train.cat.shape[1]
    alphas = {k: rng.normal(size=width) for k in range(1, k_top + 1) if rng.random() < 0.7}
    assert_prefix_matches_oracle(target, nbh, train, float(rng.uniform()), random_tree(rng, width), alphas,
                                 random_network(rng, width))


def test_zero_size_at_third_analogy_falls_back_from_k3():
    ds = make_dataset("z3", size_only_schema(), [(4,), (6,), (0,), (8,), (10,)], [8, 12, 5, 20, 30])
    target = row_of(ds, (5,))
    nbh = neighborhood(ds, [0, 1, 2, 3, 4], [0.1, 0.2, 0.3, 0.4, 0.5])
    every_k = range(1, 6)
    for predictions, adjuster, models in ((lse(target, nbh, ds), ref.adjust_lse, None),
                                          (mlfe(target, nbh, ds), ref.adjust_mlfe, None),
                                          (rtm(target, nbh, ds, 0.5), ref.adjust_rtm, dict.fromkeys(every_k, 0.5))):
        assert np.isnan(predictions).tolist() == [False, False, True, True, True]
        assert np.array_equal(predictions, oracle(adjuster, target, nbh, ds, models), equal_nan=True)
    assert lse(target, nbh, ds)[:2].tolist() == [8 * 5 / 4, (8 * 5 / 4 + 12 * 5 / 6) / 2]


def test_mlfe_all_zero_row_falls_back_from_its_k():
    # the second analogy's zero s1 drops out; the third has no nonzero value
    ds = make_dataset("zero_rows", two_size_dataset().feature_schema, [(2, 5), (0, 9), (0, 0), (8, 30)],
                      [10, 16, 40, 20])
    target = row_of(ds, (4, 10))
    nbh = neighborhood(ds, [0, 1, 2, 3], [0.1, 0.2, 0.3, 0.4])
    predictions = mlfe(target, nbh, ds)
    assert np.isnan(predictions).tolist() == [False, False, True, True]
    assert np.array_equal(predictions, oracle(ref.adjust_mlfe, target, nbh, ds), equal_nan=True)
    assert predictions[1] == pytest.approx((20.0 + 16 * 10 / 9) / 2)


def test_aqua_tied_distances_match_single_k():
    ds = make_dataset("aq", size_only_schema(), [(1,), (2,), (3,), (4,), (5,), (6,)], [20, 9, 9, 10, 14, 3])
    target = row_of(ds, (2,))
    nbh = neighborhood(ds, [3, 0, 5, 1, 4], [0.2, 0.2, 0.5, 0.5, 0.5])
    predictions = aqua(target, nbh, ds)
    assert np.array_equal(predictions, oracle(ref.adjust_aqua, target, nbh, ds))
    assert predictions[1] == eba(target, nbh, ds)[1]
