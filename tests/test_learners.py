import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebae.adjust import VariantId
from ebae.analogy import knn_within
from ebae.config import Config
from ebae.data import ColumnSpec
from ebae.learners import (
    FitError,
    _best_split,
    _fit_leaf,
    build_diff_pairs,
    diff_rows,
    fit_ga_weights,
    fit_model_tree,
    fit_networks,
    ga_design,
    ga_fitness,
    network_loss_and_grads,
    predict_model_tree,
    predict_network,
)
from ebae.validation import derive_seed, loocv

from .conftest import make_dataset, random_dataset, size_only_schema
from .ga_reference import diff_vector, fit_ga_one, fit_ga_weights_loop, ga_design_loop
from .mt_reference import assert_same_tree, best_split_loop, fit_model_tree_loop
from .nn_reference import fit_network, network_loss_and_grads_2d


def pairs_from(xs, ys):
    """(X, y) difference arrays from feature rows and effort differences."""
    return np.array([np.atleast_1d(np.asarray(x, float)) for x in xs]), np.asarray(ys, dtype=float)


def test_diff_rows_mixed():
    d = diff_rows(np.array([5.0, 2.0]), np.array([0, 2]), np.array([3.0, 2.0]), np.array([1, 2]))
    assert list(d) == [2.0, 0.0, 1.0, 0.0]


def row_parts(ds):
    return [(ds.cont[i], ds.cat[i]) for i in range(ds.n)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(1, 3))
def test_diff_rows_matches_per_row_oracle(seed, with_categorical, k):
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, with_categorical=with_categorical)
    rows = row_parts(ds)
    neighbors = rng.integers(0, ds.n, size=(ds.n, k))
    # target against k rows
    t_cont, t_cat = ds.row(0)
    got = diff_rows(t_cont, t_cat, ds.cont[neighbors[0]], ds.cat[neighbors[0]])
    assert np.array_equal(got, [diff_vector(t_cont, t_cat, *rows[j]) for j in neighbors[0]])
    # every row against its nearest row
    nearest = neighbors[:, 0]
    got = diff_rows(ds.cont, ds.cat, ds.cont[nearest], ds.cat[nearest])
    assert np.array_equal(got, [diff_vector(*rows[i], *rows[j]) for i, j in enumerate(nearest)])
    # (n, 1, m) rows against their (n, k, m) analogies
    got = diff_rows(ds.cont[:, None], ds.cat[:, None], ds.cont[neighbors], ds.cat[neighbors])
    want = [[diff_vector(*rows[i], *rows[j]) for j in neighbors[i]] for i in range(ds.n)]
    assert np.array_equal(got, want)


def test_build_diff_pairs_two_projects():
    ds = make_dataset("two", size_only_schema(), [(2,), (4,), (6,)], [4, 8, 12])
    X, y = build_diff_pairs(ds, knn_within(ds, 1)[:, 0])
    assert len(X) == len(y) == 3
    # each project pairs with its nearest other project
    assert X[0, 0] == -2.0 and y[0] == -4.0
    assert X[2, 0] == 2.0 and y[2] == 4.0


def test_build_diff_pairs_identical_projects_zero_diff():
    ds = make_dataset("same", size_only_schema(), [(3,), (3,), (9,)], [5, 5, 20])
    X, y = build_diff_pairs(ds, knn_within(ds, 1)[:, 0])
    assert X[0, 0] == 0.0 and y[0] == 0.0


def test_build_diff_pairs_matches_bruteforce(toy):
    X, _ = build_diff_pairs(toy, knn_within(toy, 1)[:, 0])
    norm = toy.normalized()
    for i, row in enumerate(X):
        distances = [
            (abs(norm[i, 0] - norm[j, 0]), j) for j in range(toy.n) if j != i
        ]
        _, nearest = min(distances)
        assert row[0] == toy.cont[i, 0] - toy.cont[nearest, 0]


# --- model tree ---


def test_constant_pairs_single_leaf():
    pairs = pairs_from([[x] for x in range(10)], [7.0] * 10)
    tree = fit_model_tree(*pairs, Config())
    assert predict_model_tree(tree, [123.0]) == pytest.approx(7.0)
    assert predict_model_tree(tree, [-5.0]) == pytest.approx(7.0)


def test_linear_recovery_at_training_points():
    xs = [[float(i)] for i in range(20)]
    pairs = pairs_from(xs, [3.0 * x[0] for x in xs])
    tree = fit_model_tree(*pairs, Config())
    for x in xs:
        assert predict_model_tree(tree, x) == pytest.approx(3.0 * x[0], abs=1e-6)
    assert predict_model_tree(tree, [2.0]) == pytest.approx(6.0, abs=1e-6)


def test_too_few_pairs_fit_failure():
    with pytest.raises(FitError):
        fit_model_tree(*pairs_from([[1.0], [2.0]], [1.0, 2.0]), Config())


def test_boundary_routes_left():
    from ebae.learners import TreeLeaf, TreeNode, ModelTree

    tree = ModelTree(
        root=TreeNode(
            feature=0,
            threshold=1.5,
            left=TreeLeaf(intercept=-1.0, coef=None),
            right=TreeLeaf(intercept=+1.0, coef=None),
        ),
        n_features=1,
    )
    assert predict_model_tree(tree, [1.5]) == -1.0
    assert predict_model_tree(tree, [1.5000001]) == 1.0


def test_training_error_bounded_by_variance():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(40, 3))
    y = rng.normal(size=40)
    tree = fit_model_tree(X, y, Config())
    predictions = np.array([predict_model_tree(tree, x) for x in X])
    assert np.mean((y - predictions) ** 2) <= np.var(y) + 1e-12


def test_model_tree_overflow_fit_failure():
    # efforts ~1e155..2e156: squared effort differences overflow the split search
    efforts = 10 * np.arange(1, 21) * 1e154
    ds = make_dataset("huge", size_only_schema(), [(float(s),) for s in range(1, 21)], efforts)
    train = ds.without(0)
    with pytest.raises(FitError, match="overflows"):
        fit_model_tree(*build_diff_pairs(train, knn_within(train, 1)[:, 0]), Config())
    assert loocv(ds, VariantId("MT", 1), Config(runs=200)).fallback_count == ds.n


def lstsq_leaf(X, y):
    """The leaf the least-squares path fits: the constant mean when the fit
    with an intercept column is rank-deficient, the linear fit otherwise."""
    A = np.hstack([X, np.ones((len(y), 1))])
    solution, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
    if rank < A.shape[1]:
        return None, float(np.mean(y))
    return solution[:-1], float(solution[-1])


def count_lstsq(monkeypatch):
    calls = []
    lstsq = np.linalg.lstsq

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    return calls


@pytest.mark.parametrize("m", [1, 2, 3, 6, 15])
def test_short_leaf_is_the_mean_without_lstsq(monkeypatch, m):
    # every row count from 1 up to m, where rows = columns - 1 with the
    # intercept column, so the least-squares fit is always rank-deficient
    rng = np.random.default_rng(m)
    leaves = []
    for rows in range(1, m + 1):
        for _ in range(5):
            X = rng.normal(size=(rows, m)) * rng.uniform(0.1, 100.0, size=m)
            y = rng.normal(size=rows) * 100.0
            leaves.append((X, y, lstsq_leaf(X, y)))
    calls = count_lstsq(monkeypatch)
    for X, y, (coef, intercept) in leaves:
        leaf = _fit_leaf(X, y)
        assert coef is None and leaf.coef is None
        assert leaf.intercept == intercept and type(leaf.intercept) is float
    assert calls == []


def test_tall_leaf_still_fits_by_lstsq(monkeypatch):
    # a copied column leaves rank 4 of 5 columns; rows = columns is the
    # shortest leaf that goes on to the fit
    rng = np.random.default_rng(3)
    X = rng.normal(size=(9, 3))
    y = rng.normal(size=9)
    cases = [(np.hstack([X, X[:, :1]]), y), (X[:4], y[:4]), (X, y)]
    want = [lstsq_leaf(*case) for case in cases]
    calls = count_lstsq(monkeypatch)
    got = [_fit_leaf(*case) for case in cases]
    assert calls == [(9, 5), (4, 4), (9, 4)]
    assert want[0][0] is None and want[1][0] is not None
    for leaf, (coef, intercept) in zip(got, want):
        assert (leaf.coef is None) == (coef is None)
        assert coef is None or np.array_equal(leaf.coef, coef)
        assert leaf.intercept == intercept


@pytest.fixture(scope="module")
def albrecht_pairs(albrecht):
    """Difference pairs of every Albrecht training fold."""
    folds = [albrecht.without(t) for t in range(albrecht.n)]
    return [build_diff_pairs(train, knn_within(train, 1)[:, 0]) for train in folds]


@pytest.mark.parametrize("min_leaf", [1, 2, 4])
def test_model_tree_matches_loop_oracle_albrecht(albrecht_pairs, min_leaf):
    config = Config(mt_min_leaf=min_leaf)
    for X, y in albrecht_pairs:
        assert_same_tree(fit_model_tree(X, y, config), fit_model_tree_loop(X, y, config))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(0, 15), st.integers(1, 5),
       st.booleans(), st.booleans())
def test_best_split_matches_loop_oracle_property(seed, min_leaf, extra, m, coarse, integer_y):
    # extra = 0 leaves the single cut of n = 2 * min_leaf; rounded features
    # tie within columns, a copied column ties whole features, a reversed one
    # splits off the same rows from the other end, a constant column has no
    # cut at all, and integer efforts tie the SSEs of different cuts
    rng = np.random.default_rng(seed)
    n = 2 * min_leaf + extra
    X = rng.normal(size=(n, m)) * rng.uniform(0.1, 100.0, size=m)
    if coarse:
        X = np.round(X / X.std())
    if m > 1:
        X[:, -1] = X[:, 0] if seed % 2 else X[::-1, 0]
    if m > 2:
        X[:, 1] = 2.5
    y = rng.integers(0, 4, size=n).astype(float) if integer_y else rng.normal(size=n) * 100.0
    assert _best_split(X, y, min_leaf) == best_split_loop(X, y, min_leaf)
    config = Config(mt_min_leaf=min_leaf)
    assert_same_tree(fit_model_tree(X, y, config), fit_model_tree_loop(X, y, config))


def test_best_split_rounds_as_the_loop_on_mirrored_columns():
    # column 1 is column 0 reversed, so the first cut of column 0 and the last
    # cut of column 1 split off the same row; their SSEs differ by rounding
    # alone, and squaring by multiplication instead of pow picks column 0
    X = np.array([[-2.0, 2.0], [-1.0, -1.0], [-1.0, -1.0], [2.0, -2.0]])
    y = np.array([77.47755922459794, -350.6169172860722, -125.59425255360593, 52.74648435986627])
    assert _best_split(X, y, 1) == best_split_loop(X, y, 1) == (1, 0.5)


def test_best_split_skips_inf_and_nan_sse():
    # efforts near 1e200 square to inf, so the parent SSE is inf, the bar a
    # cut must beat is inf - inf = NaN and every cut's SSE is inf or NaN
    X = np.arange(8.0)[:, None]
    y = np.array([1.0, -1.0, 2.0, -2.0, 1.5, -1.5, 3.0, -3.0]) * 1e200
    with np.errstate(all="ignore"):
        assert np.sum((y - y.mean()) ** 2) == np.inf
        assert _best_split(X, y, 2) is None
        assert best_split_loop(X, y, 2) is None


# --- network ---


def fit_one(X, y, config, seed):
    """The network of one training set and seed: a stack of one member."""
    return fit_networks(X[None], y[None], config, [[seed]])[0][0]


def test_network_deterministic():
    rng = np.random.default_rng(1)
    pairs = pairs_from(rng.normal(size=(12, 2)), rng.normal(size=12))
    a = fit_one(*pairs, Config(), seed=99)
    b = fit_one(*pairs, Config(), seed=99)
    assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w2, b.w2)
    assert a.b2 == b.b2


def test_network_zero_targets_give_near_zero_output():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(20, 2))
    pairs = pairs_from(X, np.zeros(20))
    net = fit_one(*pairs, Config(), seed=3)
    outputs = [abs(predict_network(net, x)) for x in X]
    assert max(outputs) < 0.05 * X.std()


def test_network_needs_four_pairs():
    with pytest.raises(FitError):
        fit_one(*pairs_from([[1.0]] * 3, [1.0] * 3), Config(), seed=0)


NET_FIELDS = ("w1", "b1", "w2", "b2", "x_mean", "x_std", "y_mean", "y_std")


def assert_same_network(got, want):
    assert all(np.array_equal(getattr(got, f), getattr(want, f)) for f in NET_FIELDS)
    assert type(got.b2) is type(want.b2) is float


@pytest.fixture(scope="module")
def albrecht_networks(albrecht):
    """Difference pairs, seeds and oracle networks of every Albrecht fold and NN variant."""
    config = Config()
    folds = [albrecht.without(t) for t in range(albrecht.n)]
    pairs = [build_diff_pairs(train, knn_within(train, 1)[:, 0]) for train in folds]
    X = np.stack([p[0] for p in pairs])
    y = np.stack([p[1] for p in pairs])
    seeds = [[derive_seed(config.seed, t, f"NN{k}") for k in range(1, 6)] for t in range(albrecht.n)]
    want = [[fit_network(X[t], y[t], config, s) for s in row] for t, row in enumerate(seeds)]
    return config, X, y, seeds, want


@pytest.mark.parametrize("stack", [1, 5, 120])
def test_fit_networks_matches_oracle_albrecht(albrecht_networks, stack):
    # stacks of one member, of the five k of one fold, and of all 120 fits
    config, X, y, seeds, want = albrecht_networks
    folds = max(1, stack // 5)
    members = min(stack, 5)
    for start in range(0, len(seeds), folds):
        for first in range(0, 5, members):
            rows = [row[first:first + members] for row in seeds[start:start + folds]]
            got = fit_networks(X[start:start + folds], y[start:start + folds], config, rows)
            for t, row in enumerate(got, start):
                for j, net in enumerate(row, first):
                    assert_same_network(net, want[t][j])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(4, 15), st.integers(1, 4), st.integers(1, 5),
       st.integers(1, 3), st.integers(1, 3))
def test_fit_networks_matches_oracle_property(seed, n, m, hidden, folds, members):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(folds, n, m)) * rng.uniform(0.1, 10.0, size=m)
    y = rng.normal(size=(folds, n))
    if seed % 4 == 0:
        y[0] = 3.0                    # constant efforts: the y_std = 0 branch
    config = Config(nn_hidden=hidden, nn_epochs=20, nn_lr=0.05)
    seeds = rng.integers(0, 2**63, size=(folds, members)).tolist()
    got = fit_networks(X, y, config, seeds)
    for f in range(folds):
        for j in range(members):
            assert_same_network(got[f][j], fit_network(X[f], y[f], config, seeds[f][j]))
    # a 2-D call of the broadcasting loss gives the one-network values
    w1 = rng.normal(size=(hidden, m))
    b1, w2 = rng.normal(size=hidden), rng.normal(size=hidden)
    loss, grads = network_loss_and_grads(w1, b1, w2, 0.3, X[0], y[0])
    want_loss, want_grads = network_loss_and_grads_2d(w1, b1, w2, 0.3, X[0], y[0])
    assert loss == want_loss
    assert all(np.array_equal(g, w) for g, w in zip(grads, want_grads))


def test_fit_networks_diverged_members_fail_alone():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(2, 12, 3))
    y = rng.normal(size=(2, 12))
    config = Config(nn_lr=1.5, nn_epochs=200)
    seeds = [list(range(8)), list(range(8, 16))]
    with np.errstate(all="ignore"):
        got = fit_networks(X, y, config, seeds)
        outcomes = []
        for f in range(2):
            for j, seed in enumerate(seeds[f]):
                try:
                    want = fit_network(X[f], y[f], config, seed)
                except FitError:
                    assert isinstance(got[f][j], FitError)
                    outcomes.append("diverged")
                else:
                    assert_same_network(got[f][j], want)
                    outcomes.append("trained")
    # the learning rate is large enough that the stack mixes both outcomes
    assert set(outcomes) == {"diverged", "trained"}


@pytest.mark.parametrize("hidden", [2, 4, 8])
def test_gradient_check_against_finite_differences(hidden):
    rng = np.random.default_rng(hidden)
    m, n = 3, 12
    X = rng.normal(size=(n, m))
    y = rng.normal(size=n)
    w1 = rng.normal(size=(hidden, m)) * 0.5
    b1 = rng.normal(size=hidden) * 0.1
    w2 = rng.normal(size=hidden) * 0.5
    b2 = 0.3
    _, (g_w1, g_b1, g_w2, g_b2) = network_loss_and_grads(w1, b1, w2, b2, X, y)

    def loss_at(w1v, b1v, w2v, b2v):
        return network_loss_and_grads(w1v, b1v, w2v, b2v, X, y)[0]

    eps = 1e-6
    checks = []
    for _ in range(5):
        i, j = rng.integers(0, hidden), rng.integers(0, m)
        up, down = w1.copy(), w1.copy()
        up[i, j] += eps
        down[i, j] -= eps
        numeric = (loss_at(up, b1, w2, b2) - loss_at(down, b1, w2, b2)) / (2 * eps)
        checks.append((numeric, g_w1[i, j]))
    i = rng.integers(0, hidden)
    up, down = w2.copy(), w2.copy()
    up[i] += eps
    down[i] -= eps
    checks.append(((loss_at(w1, b1, up, b2) - loss_at(w1, b1, down, b2)) / (2 * eps), g_w2[i]))
    checks.append(((loss_at(w1, b1, w2, b2 + eps) - loss_at(w1, b1, w2, b2 - eps)) / (2 * eps), g_b2))
    for numeric, analytic in checks:
        assert abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-12) < 1e-4


# --- GA ---


def fit_ga(train, k, config, seed):
    """The GA weights of one design and seed: a stack of one member."""
    ((weights,),) = fit_ga_weights([train], [knn_within(train, k)], [k], config, [[seed]])
    if isinstance(weights, FitError):
        raise weights
    return weights


def planted_alpha_dataset():
    # effort = 10 + 2 * size exactly: effort differences are 2x feature differences
    sizes = np.arange(1.0, 13.0)
    return make_dataset(
        "planted", size_only_schema(), [(s,) for s in sizes], [10.0 + 2.0 * s for s in sizes]
    )


def test_ga_beats_zero_vector():
    ds = planted_alpha_dataset()
    cfg = Config()
    result = fit_ga(ds, 1, cfg, seed=5)
    residuals, D = ga_design(ds, knn_within(ds, 1))
    zero_fitness = float(ga_fitness(residuals, D, np.zeros(D.shape[1]))[0])
    assert result.fitness <= zero_fitness


def test_ga_recovers_planted_slope_and_matches_grid_oracle():
    ds = planted_alpha_dataset()
    result = fit_ga(ds, 1, Config(), seed=5)
    assert 1.5 <= result.alpha[0] <= 2.5
    # independent grid oracle over the search interval
    sizes = ds.cont[:, 0]
    efforts = ds.efforts
    nearest = [
        min((abs(sizes[j] - sizes[i]), j) for j in range(ds.n) if j != i)[1]
        for i in range(ds.n)
    ]

    def objective(alpha):
        preds = [efforts[j] + alpha * (sizes[i] - sizes[j]) for i, j in enumerate(nearest)]
        return float(np.mean(np.abs(efforts - preds)))

    grid = np.linspace(-5, 5, 1001)
    best = grid[int(np.argmin([objective(a) for a in grid]))]
    assert abs(best - 2.0) < 0.02
    assert objective(float(result.alpha[0])) <= objective(0.0)


def test_ga_deterministic():
    ds = planted_alpha_dataset()
    a = fit_ga(ds, 2, Config(), seed=123)
    b = fit_ga(ds, 2, Config(), seed=123)
    assert np.array_equal(a.alpha, b.alpha)
    assert a.fitness == b.fitness


def test_ga_history_nonincreasing():
    ds = planted_alpha_dataset()
    result = fit_ga(ds, 1, Config(ga_gens=40), seed=9)
    history = result.history
    assert len(history) == 41
    assert all(later <= earlier for earlier, later in zip(history, history[1:]))
    assert result.fitness == history[-1]


def test_ga_needs_enough_projects():
    ds = make_dataset("tiny", size_only_schema(), [(1,), (2,), (3,)], [1, 2, 3])
    with pytest.raises(FitError):
        ga_design(ds, knn_within(ds, 2))


def mixed_dataset(seed, n=40):
    """Maxwell-like mix: 6 continuous features, a few sizes of 0, and 10
    categorical features with three levels each."""
    rng = np.random.default_rng(seed)
    schema = [ColumnSpec("size", "feature", "continuous", "primary_size")]
    schema += [ColumnSpec(f"s{j}", "feature", "continuous", "size_related") for j in range(2)]
    schema += [ColumnSpec(f"c{j}", "feature", "continuous", "none") for j in range(3)]
    schema += [ColumnSpec(f"k{j}", "feature", "categorical", "none") for j in range(10)]
    rows = []
    for i in range(n):
        cont = rng.lognormal(3.0, 1.0, size=6)
        if i % 20 == 0:
            cont[0] = 0.0
        rows.append((*(float(v) for v in cont), *(str(c) for c in rng.choice(["a", "b", "c"], size=10))))
    return make_dataset("mixed", schema, rows, rng.lognormal(6.0, 1.0, size=n))


def assert_design_matches_loop(train, k):
    residuals, D = ga_design(train, knn_within(train, k))
    loop_residuals, loop_D = ga_design_loop(train, k)
    assert np.array_equal(residuals, loop_residuals)
    assert np.array_equal(D, loop_D)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_ga_design_matches_loop_oracle_albrecht(albrecht, k):
    for t in (0, 7, 23):
        assert_design_matches_loop(albrecht.without(t), k)


@pytest.mark.parametrize("k", [1, 3, 5])
def test_ga_design_matches_loop_oracle_categorical(k):
    ds = mixed_dataset(3)
    for t in (0, 19):
        assert_design_matches_loop(ds.without(t), k)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(1, 3))
def test_ga_design_matches_loop_oracle_property(seed, with_categorical, k):
    assert_design_matches_loop(random_dataset(np.random.default_rng(seed), with_categorical=with_categorical), k)


def test_ga_fitness_no_worse_than_loop_oracle(albrecht):
    # the array GA draws its random numbers in another order than the
    # per-child loop, so single fits differ; on average it must not lose.
    # 18 fits of 40 generations tell a reversed tournament, dropped elitism
    # and an inverted mutation mask apart from the loop, as 36 of 100 did
    cfg = Config(ga_gens=40)
    keys = [(t, k, s) for t in range(0, 24, 8) for k in (1, 3, 5) for s in (0, 1)]
    folds = {t: albrecht.without(t) for t, _, _ in keys}
    new = [fit_ga(folds[t], k, cfg, 1000 * t + 10 * k + s).fitness for t, k, s in keys]
    old = [fit_ga_weights_loop(folds[t], k, cfg, 1000 * t + 10 * k + s).fitness for t, k, s in keys]
    assert np.mean(new) <= 1.02 * np.mean(old)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    with_categorical=st.booleans(),
    pop=st.integers(2, 12),
    gens=st.integers(0, 15),
    cx=st.floats(0.0, 1.0),
    mut=st.floats(0.0, 1.0),
    ga_range=st.floats(0.1, 5.0),
)
def test_ga_invariants_property(seed, with_categorical, pop, gens, cx, mut, ga_range):
    ds = random_dataset(np.random.default_rng(seed), with_categorical=with_categorical)
    cfg = Config(ga_pop=pop, ga_gens=gens, ga_cx=cx, ga_mut=mut, ga_range=ga_range)
    result = fit_ga(ds, 1, cfg, seed)
    residuals, D = ga_design(ds, knn_within(ds, 1))
    history = result.history
    assert len(history) == gens + 1
    # the planted zero vector bounds the first generation
    assert history[0] <= ga_fitness(residuals, D, np.zeros(D.shape[1]))[0]
    # elitism: the best weights of a generation survive into the next
    assert all(later <= earlier for earlier, later in zip(history, history[1:]))
    assert result.fitness == history[-1]
    assert result.fitness == pytest.approx(float(ga_fitness(residuals, D, result.alpha)[0]), rel=1e-12)
    assert np.all(np.abs(result.alpha) <= ga_range)
    again = fit_ga(ds, 1, cfg, seed)
    assert np.array_equal(again.alpha, result.alpha)
    assert again.history == history


def assert_same_weights(got, want):
    assert np.array_equal(got.alpha, want.alpha)
    assert np.array_equal(got.fitness, want.fitness) and type(got.fitness) is float
    assert np.array_equal(got.history, want.history) and got.history == want.history


@pytest.fixture(scope="module")
def albrecht_ga(albrecht):
    """Training folds, neighbour tables, seeds and oracle weights of every
    Albrecht fold and GA variant."""
    config = Config()
    folds = [albrecht.without(t) for t in range(albrecht.n)]
    neighbors = [knn_within(train, 5) for train in folds]
    seeds = [[derive_seed(config.seed, t, f"GA{k}") for k in range(1, 6)] for t in range(albrecht.n)]
    want = [[fit_ga_one(train, table[:, :k], config, s) for k, s in zip(range(1, 6), row)]
            for train, table, row in zip(folds, neighbors, seeds)]
    return config, folds, neighbors, seeds, want


@pytest.mark.parametrize("stack", [1, 2, 5, 24])
def test_fit_ga_weights_matches_oracle_albrecht(albrecht_ga, stack):
    # stacks of the five k of 1, 2, 5 and all 24 consecutive folds; a stack
    # of 5 leaves 4 folds over
    config, folds, neighbors, seeds, want = albrecht_ga
    for first in range(0, len(folds), stack):
        last = first + stack
        got = fit_ga_weights(folds[first:last], neighbors[first:last], [1, 2, 3, 4, 5], config,
                             seeds[first:last])
        assert len(got) == len(folds[first:last])
        for row, want_row in zip(got, want[first:last]):
            assert len(row) == 5
            for weights, want_weights in zip(row, want_row):
                assert_same_weights(weights, want_weights)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(0, 6), st.floats(0.0, 1.0),
       st.floats(0.0, 1.0), st.integers(1, 4), st.integers(0, 4), st.integers(0, 2))
def test_fit_ga_weights_matches_oracle_property(seed, pop, gens, cx, mut, folds, before, after):
    # several training folds of one random dataset, and a member between the
    # others whose k leaves too few training projects (n < k + 2)
    rng = np.random.default_rng(seed)
    dataset = random_dataset(rng, with_categorical=True)
    trains = [dataset.without(int(t)) for t in rng.choice(dataset.n, size=folds, replace=False)]
    n = dataset.n - 1
    ks = [*rng.integers(1, n, size=before).tolist(), n - 1, *rng.integers(1, n, size=after).tolist()]
    seeds = rng.integers(0, 2**63, size=(folds, len(ks))).tolist()
    config = Config(ga_pop=pop, ga_gens=gens, ga_cx=cx, ga_mut=mut)
    tables = [knn_within(train, max(ks)) for train in trains]
    got = fit_ga_weights(trains, tables, ks, config, seeds)
    assert len(got) == folds
    for train, table, row, got_row in zip(trains, tables, seeds, got):
        assert len(got_row) == len(ks)
        for k, s, weights in zip(ks, row, got_row):
            try:
                want = fit_ga_one(train, table[:, :k], config, s)
            except FitError as exc:
                assert isinstance(weights, FitError) and str(weights) == str(exc)
            else:
                assert_same_weights(weights, want)
        assert isinstance(got_row[before], FitError)


def test_fit_ga_weights_failed_member_fails_alone():
    # six training projects: k = 5 needs seven, every smaller k fits
    ds = make_dataset("seven", size_only_schema(), [(s,) for s in (1, 2, 4, 7, 11, 16, 22)],
                      [3, 5, 9, 14, 22, 30, 41])
    train = ds.without(0)
    config = Config(ga_gens=20)
    seeds = [11, 12, 13, 14, 15]
    (got,) = fit_ga_weights([train], [knn_within(train, 5)], [1, 2, 3, 4, 5], config, [seeds])
    assert isinstance(got[4], FitError) and "k=5" in str(got[4])
    for k, s, weights in zip(range(1, 5), seeds, got):
        assert_same_weights(weights, fit_ga(train, k, config, s))
        assert_same_weights(weights, fit_ga_one(train, knn_within(train, k), config, s))
