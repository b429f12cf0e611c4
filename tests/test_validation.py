from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebae import adjust, analogy, validation
from ebae.adjust import VariantId, enumerate_variants
from ebae.config import Config
from ebae.data import ColumnSpec, Dataset, Project
from ebae.ensemble import run_pipeline
from ebae.validation import dataset_baseline, derive_seed, evaluate_variant, loocv, loocv_grid

from .conftest import make_dataset, random_rows, size_only_schema
from .loocv_reference import loocv_variants

CFG = Config(runs=200)
# a small learner budget keeps the 40-variant oracle runs quick
SMALL = Config(runs=200, ga_pop=6, ga_gens=3, nn_epochs=10)
GRID = enumerate_variants(5)


def test_loocv_row_count(toy):
    table = loocv(toy, VariantId("EBA", 1), CFG)
    assert len(table) == toy.n
    assert tuple(table.project_ids) == toy.ids


def test_loocv_toy_eba1_prediction(toy):
    table = loocv(toy, VariantId("EBA", 1), CFG)
    p5 = table.project_ids.index("p5")
    # target p5 (size 10): nearest training project is p4 (size 8, effort 20)
    assert table.predictions[p5] == pytest.approx(20.0)
    assert table.aes[p5] == pytest.approx(10.0)


def test_loocv_toy_lse1_prediction(toy):
    table = loocv(toy, VariantId("LSE", 1), CFG)
    p5 = table.project_ids.index("p5")
    assert table.predictions[p5] == pytest.approx(25.0)     # 20/8 * 10


def test_loocv_too_small_for_k(toy):
    with pytest.raises(ValueError, match="too small"):
        loocv(toy, VariantId("EBA", 4), CFG)


def test_loocv_deterministic(toy):
    a = loocv(toy, VariantId("GA", 1), CFG, seed=11)
    b = loocv(toy, VariantId("GA", 1), CFG, seed=11)
    assert a == b


def test_loocv_parallel_identical(albrecht):
    serial = loocv(albrecht, VariantId("NN", 2), Config(runs=200, jobs=1))
    parallel = loocv(albrecht, VariantId("NN", 2), Config(runs=200, jobs=4))
    assert serial == parallel
    assert loocv_grid(albrecht, GRID, SMALL) == loocv_grid(albrecht, GRID, replace(SMALL, jobs=2))


def test_target_effort_never_leaks(toy):
    # changing the held-out project's effort must not move its own prediction
    variant = VariantId("LSE", 2)
    base_table = loocv(toy, variant, CFG)
    tampered = make_dataset(
        "toy2",
        size_only_schema(),
        [tuple(row) for row in toy.cont.tolist()],
        [4, 8, 12, 20, 3000.0],
    )
    tampered_table = loocv(tampered, variant, CFG)
    assert tampered_table.predictions[4] == base_table.predictions[4]


def test_fold_bounds_exclude_target(toy):
    # the held-out maximum cannot stretch the training bounds
    train = toy.without(4)
    mins, maxs = train.bounds
    assert maxs[0] == 8.0 and mins[0] == 2.0


def test_fallback_counted():
    # one training project has size 0: size extrapolation falls back to the mean
    ds = make_dataset(
        "zeros", size_only_schema(), [(0,), (4,), (6,), (8,), (10,), (12,)], [5, 8, 12, 20, 30, 35]
    )
    table = loocv(ds, VariantId("LSE", 4), Config(runs=200))
    assert table.fallback_count > 0
    assert len(table) == ds.n


def test_learner_fit_failure_falls_back_to_eba(toy):
    # 4-project training folds cannot fit a model tree (needs 2*min_leaf pairs)
    mt = loocv(toy, VariantId("MT", 1), CFG)
    eba = loocv(toy, VariantId("EBA", 1), CFG)
    assert mt.fallback_count == toy.n
    assert mt.predictions.tolist() == eba.predictions.tolist()


def test_evaluate_variant_summary(toy):
    summary = evaluate_variant(toy, VariantId("EBA", 1), CFG)
    assert summary.variant == "EBA1"
    assert summary.baseline.mae_p0 == pytest.approx(12.8)
    assert -5 < summary.sa <= 1


def test_derive_seed_stable():
    assert derive_seed(42, 3, "EBA1") == derive_seed(42, 3, "EBA1")
    assert derive_seed(42, 3, "EBA1") != derive_seed(42, 4, "EBA1")
    assert derive_seed(42, 3, "EBA1") != derive_seed(43, 3, "EBA1")


def test_baseline_shared_per_dataset(toy):
    b1 = dataset_baseline(toy, CFG)
    b2 = dataset_baseline(toy, CFG)
    assert b1 == b2


def test_mlfe_ratio_blowup_synthetic():
    # Synthetic stand-in for heavy-tailed FP-count data: a size_related feature
    # jumping between 1 and 1000 makes the extrapolation ratios explode, so
    # MLFE ends up worse than random guessing and the filter drops it.
    from ebae.data import ColumnSpec
    from ebae.ensemble import filter_actual_predictors
    from ebae.metrics import summarize

    rng = np.random.default_rng(17)
    schema = [
        ColumnSpec("size", "feature", "continuous", "primary_size"),
        ColumnSpec("churn", "feature", "continuous", "size_related"),
    ]
    n = 30
    sizes = rng.uniform(10, 100, size=n)
    # skewed counts: one outlier squashes the normalized values, so neighbors
    # stay close in retrieval space while raw ratios span orders of magnitude
    churn = rng.lognormal(mean=0.0, sigma=3.0, size=n)
    efforts = 5.0 * sizes + rng.uniform(0, 20, size=n)
    ds = make_dataset("synthetic_blowup", schema, list(zip(sizes, churn)), efforts)
    base = dataset_baseline(ds, CFG)
    summaries = {}
    for variant in (VariantId("MLFE", 1), VariantId("EBA", 1)):
        summaries[variant.label] = summarize(loocv(ds, variant, CFG), base)
    assert summaries["MLFE1"].sa < 0 < summaries["EBA1"].sa
    survivors, _ = filter_actual_predictors(summaries, base)
    assert "MLFE1" not in survivors and "EBA1" in survivors


def test_rtm_loocv_uses_training_correlation(albrecht):
    table = loocv(albrecht, VariantId("RTM", 3), Config(runs=200))
    assert len(table) == albrecht.n
    assert table.fallback_count == 0
    assert all(np.isfinite(table.predictions))


def assert_grid_matches_reference(dataset, config, variants=GRID):
    tables, errors = loocv_grid(dataset, variants, config)
    want_tables, want_errors = loocv_variants(dataset, variants, config)
    assert errors == want_errors
    assert list(tables) == list(want_tables)
    for label, table in tables.items():
        assert table == want_tables[label], label      # every column and fallback_count
    return tables, errors


def test_loocv_grid_matches_reference_albrecht(albrecht):
    tables, errors = assert_grid_matches_reference(albrecht, SMALL)
    assert len(tables) == 40 and not errors


def test_loocv_grid_matches_reference_toy(toy):
    tables, errors = assert_grid_matches_reference(toy, SMALL)
    assert len(tables) == 24
    assert errors["EBA4"] == "dataset too small for k=4: need at least 6 projects, have 5"
    assert errors["NN5"] == "dataset too small for k=5: need at least 7 projects, have 5"
    assert set(errors) == {v.label for v in GRID if v.k >= 4}
    report = run_pipeline(toy, SMALL)
    assert "GA4 not evaluated: dataset too small for k=4: need at least 6 projects, have 5" in report.notes


def test_loocv_grid_matches_reference_overflow():
    schema = size_only_schema() + [ColumnSpec("x", "feature", "continuous", "none")]
    rows = [(1e308, 3.0), (0.5, 1.0), (10.0, 2.0), (20.0, 5.0),
            (30.0, 4.0), (40.0, 7.0), (50.0, 6.0), (60.0, 8.0)]
    efforts = [100.0, 5.0, 20.0, 40.0, 55.0, 80.0, 90.0, 120.0]
    with np.errstate(all="ignore"):
        tables, _ = assert_grid_matches_reference(make_dataset("overflow", schema, rows, efforts), SMALL)
    assert tables["LSE1"].fallback_count == 1


def test_loocv_grid_matches_reference_deep_trees(albrecht):
    # two pairs per leaf let every fold's tree split over several levels
    config = replace(SMALL, mt_min_leaf=2)
    tables, _ = assert_grid_matches_reference(albrecht, config, [v for v in GRID if v.method == "MT"])
    train = albrecht.without(0)
    tree = validation.fit_model_tree(*validation.build_diff_pairs(train, analogy.knn_within(train, 1)[:, 0]),
                                     config)
    assert depth(tree.root) >= 3


def depth(node):
    return 1 + max(depth(node.left), depth(node.right)) if hasattr(node, "left") else 0


def test_loocv_grid_matches_reference_four_projects():
    # three difference pairs per fold: no network can be fitted
    ds = make_dataset("four", size_only_schema(), [(2,), (4,), (6,), (9,)], [4, 8, 12, 25])
    tables, _ = assert_grid_matches_reference(ds, SMALL)
    assert tables["NN1"].fallback_count == tables["NN2"].fallback_count == ds.n


def test_loocv_grid_matches_reference_no_size_feature():
    # no size flag at all: every fold's RTM correlation is Inapplicable and
    # LSE and MLFE cannot extrapolate, so all three fall back on every fold
    schema, rows, efforts = random_rows(np.random.default_rng(7), n=10, n_features=3, with_categorical=True)
    schema[0] = ColumnSpec("size", "feature", "continuous", "none")
    ds = make_dataset("unsized", schema, rows, efforts)
    tables, errors = assert_grid_matches_reference(ds, SMALL)
    assert len(tables) == 40 and not errors
    for v in GRID:
        if v.method in ("LSE", "MLFE", "RTM"):
            assert tables[v.label].fallback_count == ds.n, v.label


def test_loocv_grid_matches_reference_unfittable_trees(albrecht):
    # 12 pairs per leaf need 24 pairs, one more than a fold's 23
    config = replace(SMALL, mt_min_leaf=12)
    tables, _ = assert_grid_matches_reference(albrecht, config, [v for v in GRID if v.method == "MT"])
    assert [table.fallback_count for table in tables.values()] == [albrecht.n] * 5


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(0, 2), st.integers(0, 3))
def test_loocv_grid_matches_reference_property(seed, with_categorical, zero_sizes, duplicates):
    # zero sizes make LSE, MLFE and RTM fall back; duplicate rows tie in
    # every distance, so the neighbour order rests on the row-index tie-break
    rng = np.random.default_rng(seed)
    schema, rows, efforts = random_rows(rng, with_categorical=with_categorical)
    rows, efforts = [list(row) for row in rows], list(efforts)
    for i in rng.choice(len(rows), size=zero_sizes, replace=False):
        rows[i][0] = 0.0
    for _ in range(duplicates):
        source = int(rng.integers(len(rows)))
        rows.append(list(rows[source]))
        efforts.append(efforts[source] if rng.random() < 0.5 else float(rng.uniform(1.0, 500.0)))
    fixture = make_dataset("fixture", schema, rows, efforts)
    assert_grid_matches_reference(fixture, Config(runs=200, ga_pop=4, ga_gens=2, nn_epochs=5, mt_min_leaf=2))


def test_loocv_grid_builds_shared_work_once_per_fold(albrecht, monkeypatch):
    calls = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in ((validation, "fit_model_tree"), (validation, "build_diff_pairs"),
                        (adjust, "productivity_correlation"), (validation, "retrieve"),
                        (analogy, "knn_within"), (Dataset, "without")):
        count(owner, name)
    members = {"NN": [], "GA": []}
    fit_networks, fit_ga_weights = validation.fit_networks, validation.fit_ga_weights

    def stacked_networks(X, y, config, seeds):
        calls["fit_networks"] += 1
        members["NN"].extend(s for row in seeds for s in row)
        return fit_networks(X, y, config, seeds)

    def stacked_weights(trains, neighbors, ks, config, seeds):
        calls["fit_ga_weights"] += 1
        members["GA"].extend(s for row in seeds for s in row)
        return fit_ga_weights(trains, neighbors, ks, config, seeds)

    monkeypatch.setattr(validation, "fit_networks", stacked_networks)
    monkeypatch.setattr(validation, "fit_ga_weights", stacked_weights)
    tables, _ = loocv_grid(albrecht, GRID, SMALL)
    n = albrecht.n
    assert len(tables) == 40
    # Albrecht's 24 folds fit in one chunk: one stack of every (fold, NN k)
    # network, and GA stacks of the five k of up to
    # STACK_FLOATS // (5 * ga_pop * (n - 1)) = 47 folds, so one stack too
    assert validation.STACK_FLOATS // (5 * SMALL.ga_pop * (n - 1)) == 47
    assert calls == {"fit_model_tree": n, "build_diff_pairs": n, "productivity_correlation": n,
                     "retrieve": n, "knn_within": n, "without": n,
                     "fit_ga_weights": 1, "fit_networks": 1}
    for seeds in members.values():
        assert len(set(seeds)) == len(seeds) == 5 * n


# folds per NN stack and per GA stack on Albrecht under each STACK_FLOATS:
# an NN chunk holds floats // (23 pairs * 5 NN k * 4 hidden) folds, a GA stack
# within it floats // (23 pairs * 5 GA k * 6 members)
CHUNKINGS = {
    1: ([1] * 24, [1] * 24),
    23 * 20 * 5: ([5, 5, 5, 5, 4], [3, 2] * 4 + [3, 1]),
    23 * 30 * 2: ([3] * 8, [2, 1] * 8),
}


@pytest.mark.parametrize("floats", CHUNKINGS)
def test_loocv_grid_identical_for_any_chunking(albrecht, monkeypatch, floats):
    # the last two cases put a GA stack boundary inside every NN chunk
    whole = loocv_grid(albrecht, GRID, SMALL)
    stacks = {"NN": [], "GA": []}
    fit_networks, fit_ga_weights = validation.fit_networks, validation.fit_ga_weights

    def stacked_networks(X, y, config, seeds):
        stacks["NN"].append(len(seeds))
        return fit_networks(X, y, config, seeds)

    def stacked_weights(trains, neighbors, ks, config, seeds):
        stacks["GA"].append(len(seeds))
        return fit_ga_weights(trains, neighbors, ks, config, seeds)

    monkeypatch.setattr(validation, "STACK_FLOATS", floats)
    monkeypatch.setattr(validation, "fit_networks", stacked_networks)
    monkeypatch.setattr(validation, "fit_ga_weights", stacked_weights)
    assert loocv_grid(albrecht, GRID, SMALL) == whole
    assert (stacks["NN"], stacks["GA"]) == CHUNKINGS[floats]


def test_loocv_grid_makes_a_chunk_per_worker(albrecht, monkeypatch):
    stacks = []
    fit_networks = validation.fit_networks

    def stacked(X, y, config, seeds):
        stacks.append(len(seeds))
        return fit_networks(X, y, config, seeds)

    monkeypatch.setattr(validation, "fit_networks", stacked)
    loocv_grid(albrecht, GRID, replace(SMALL, jobs=3))
    assert sorted(stacks) == [8, 8, 8]


@pytest.mark.parametrize("methods, built", [
    (("EBA", "LSE", "MLFE", "AQUA"), ()),
    (("RTM",), ("knn_within", "productivity_correlation")),
])
def test_loocv_grid_builds_only_what_its_methods_use(albrecht, monkeypatch, methods, built):
    calls = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in ((analogy, "knn_within"), (validation, "build_diff_pairs"),
                        (validation, "fit_model_tree"), (adjust, "productivity_correlation"),
                        (validation, "fit_ga_weights"), (validation, "fit_networks")):
        count(owner, name)
    tables, _ = loocv_grid(albrecht, [v for v in GRID if v.method in methods], SMALL)
    assert len(tables) == 5 * len(methods)
    assert calls == {name: albrecht.n for name in built}
