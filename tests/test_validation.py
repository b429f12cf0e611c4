import multiprocessing
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebae import adjust, analogy, learners, validation
from ebae.adjust import VariantId, enumerate_variants
from ebae.config import Config
from ebae.data import ColumnSpec, Dataset
from ebae.ensemble import run_pipeline
from ebae.learners import FitError, predict_network
from ebae.metrics import summarize
from ebae.validation import dataset_baseline, derive_seed, loocv, loocv_grid

from . import adjust_reference
from .conftest import DATASETS, fold_pairs, make_dataset, random_rows, retrieve, size_only_schema, src_env
from .ga_reference import ga_design_loop
from .loocv_reference import diff_pairs_loop, loocv_variants
from .mt_reference import fit_model_tree
from .nn_reference import fit_network

CFG = Config(runs=200)
# a small learner budget keeps the 40-variant oracle runs quick; one job
# keeps every fold in this process, where the call-counting tests see it
SMALL = Config(runs=200, ga_pop=6, ga_gens=3, nn_epochs=10, jobs=1)
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
    a = loocv(toy, VariantId("GA", 1), replace(CFG, seed=11))
    b = loocv(toy, VariantId("GA", 1), replace(CFG, seed=11))
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
    base = dataset_baseline(toy, CFG)
    summary = summarize(loocv(toy, VariantId("EBA", 1), CFG), base)
    assert summary.variant == "EBA1"
    assert base.mae_p0 == pytest.approx(12.8)
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
    rows = [(1e50, 3.0), (0.5, 1.0), (10.0, 2.0), (20.0, 5.0),
            (30.0, 4.0), (40.0, 7.0), (50.0, 6.0), (60.0, 8.0)]
    efforts = [100.0, 5.0, 20.0, 40.0, 55.0, 80.0, 90.0, 120.0]
    # within the load-time bound every prediction is finite, and nothing warns
    tables, _ = assert_grid_matches_reference(make_dataset("overflow", schema, rows, efforts), SMALL)
    assert all(np.all(np.isfinite(table.predictions)) for table in tables.values())
    assert tables["LSE1"].fallback_count == 0 and tables["LSE1"].predictions[0] > 1e50


def test_loocv_grid_matches_reference_deep_trees(albrecht):
    # each fold's 23 pairs split over several levels
    tables, _ = assert_grid_matches_reference(albrecht, SMALL, [v for v in GRID if v.method == "MT"])
    tree = fit_model_tree(*fold_pairs(albrecht, 0))
    assert depth(tree.root) >= 3


def depth(node):
    return 1 + max(depth(node.left), depth(node.right)) if hasattr(node, "left") else 0


def test_loocv_grid_matches_reference_four_projects():
    # three difference pairs per fold: no network can be fitted
    ds = make_dataset("four", size_only_schema(), [(2,), (4,), (6,), (9,)], [4, 8, 12, 25])
    tables, _ = assert_grid_matches_reference(ds, SMALL)
    assert tables["NN1"].fallback_count == tables["NN2"].fallback_count == ds.n


def test_loocv_grid_matches_reference_no_size_feature():
    # no size flag at all: every fold's RTM correlation is 0, but no target
    # has a size to scale by, and LSE and MLFE cannot extrapolate, so all
    # three fall back on every fold
    schema, rows, efforts = random_rows(np.random.default_rng(7), n=10, n_features=3, with_categorical=True)
    schema[0] = ColumnSpec("size", "feature", "continuous", "none")
    ds = make_dataset("unsized", schema, rows, efforts)
    tables, errors = assert_grid_matches_reference(ds, SMALL)
    assert len(tables) == 40 and not errors
    for v in GRID:
        if v.method in ("LSE", "MLFE", "RTM"):
            assert tables[v.label].fallback_count == ds.n, v.label


def test_loocv_grid_matches_reference_unfittable_trees():
    # a tree needs 8 pairs, one more than a fold of 8 projects has
    ds = make_dataset("eight", size_only_schema(), [(s,) for s in (2, 3, 5, 8, 13, 21, 34, 55)],
                      [6, 8, 15, 20, 41, 60, 99, 170])
    tables, _ = assert_grid_matches_reference(ds, SMALL, [v for v in GRID if v.method == "MT"])
    assert [table.fallback_count for table in tables.values()] == [ds.n] * 5


def categorical_dataset():
    """30 projects of two continuous and three categorical features, whose
    difference pairs are mostly 0/1 mismatch columns."""
    rng = np.random.default_rng(23)
    schema = size_only_schema() + [ColumnSpec("x", "feature", "continuous", "none")]
    schema += [ColumnSpec(f"c{j}", "feature", "categorical", "none") for j in range(3)]
    rows = [(float(rng.integers(1, 40)), float(rng.uniform(0, 9)), *map(str, rng.choice(["a", "b", "c"], 3)))
            for _ in range(30)]
    return make_dataset("categorical", schema, rows, rng.uniform(5.0, 500.0, size=30))


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("floats", [2**15, 500])
@pytest.mark.parametrize("name", ["albrecht", "categorical"])
def test_loocv_grid_trees_match_reference_in_any_chunking(request, monkeypatch, tmp_path, name, floats, jobs):
    # MT-only chunks hold CHUNK_FLOATS // ((n - 1) * m) folds, and a chunk
    # grows its trees as one stack: all in one, rounded up to a chunk per
    # job, or 3 folds at most per stack (500 // (23 * 7) on Albrecht, 500 //
    # (29 * 5) on the categorical dataset)
    dataset = request.getfixturevalue("albrecht") if name == "albrecht" else categorical_dataset()
    monkeypatch.setattr(validation, "CHUNK_FLOATS", floats)
    fit_model_trees = validation.fit_model_trees

    def logged(pairs):
        # once per chunk, in the process that runs it
        with open(tmp_path / "stacks", "a", encoding="utf-8") as fh:
            fh.write(f"{len(pairs)}\n")
        return fit_model_trees(pairs)

    monkeypatch.setattr(validation, "fit_model_trees", logged)
    config = replace(SMALL, jobs=jobs)
    tables, _ = assert_grid_matches_reference(dataset, config, [v for v in GRID if v.method == "MT"])
    assert len(tables) == 5 and tables["MT1"].fallback_count < dataset.n
    stacks = list(map(int, (tmp_path / "stacks").read_text(encoding="utf-8").split()))
    assert sum(stacks) == dataset.n
    most = dataset.n if floats == 2**15 else floats // ((dataset.n - 1) * dataset.m)
    assert max(stacks) <= most and len(stacks) >= jobs


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
    assert_grid_matches_reference(fixture, Config(runs=200, ga_pop=4, ga_gens=2, nn_epochs=5))


def test_loocv_grid_builds_shared_work_once_per_fold(albrecht, monkeypatch):
    calls = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in ((validation, "fit_model_trees"), (validation, "diff_rows"), (validation, "ga_design"),
                        (adjust, "productivity_correlation"), (analogy, "fold_analogies"),
                        (analogy, "knn_within"), (Dataset, "without")):
        count(owner, name)
    members = {"NN": [], "GA": []}
    fit_networks, fit_ga_weights = validation.fit_networks, validation.fit_ga_weights

    def stacked_networks(X, y, config, seeds):
        calls["fit_networks"] += 1
        members["NN"].extend(seeds)
        return fit_networks(X, y, config, seeds)

    def stacked_weights(residuals, D, config, seeds):
        calls["fit_ga_weights"] += 1
        members["GA"].extend(seeds)
        return fit_ga_weights(residuals, D, config, seeds)

    monkeypatch.setattr(validation, "fit_networks", stacked_networks)
    monkeypatch.setattr(validation, "fit_ga_weights", stacked_weights)
    tables, _ = loocv_grid(albrecht, GRID, SMALL)
    n = albrecht.n
    assert len(tables) == 40
    # Albrecht's 24 folds fit in one chunk, of CHUNK_FLOATS // (23 pairs * 7
    # features) = 814 folds at most, which makes one fit_model_trees call,
    # of every fold's tree, one fit_ga_weights call, of its 120 (fold, GA k)
    # members, within GA_FLOATS // (6 ga_pop * 23 pairs) = 1899, and one
    # fit_networks call, of its 24 networks, within NN_FLOATS // (23 * 7) = 203
    assert validation._spans(n, validation.CHUNK_FLOATS // ((n - 1) * albrecht.m)) == [(0, n)]
    assert validation.GA_FLOATS // (SMALL.ga_pop * (n - 1)) >= 5 * n
    assert validation.NN_FLOATS // ((n - 1) * albrecht.m) >= n
    # one dataset-wide ranking, and a ranking of its own for each of the 4
    # folds whose held-out project alone sets a feature's min or max; one
    # difference table per fold, from which every GA design is cut
    assert calls == {"fit_model_trees": 1, "diff_rows": n, "ga_design": 5 * n, "productivity_correlation": n,
                     "fold_analogies": n, "knn_within": 1 + 4, "without": n,
                     "fit_ga_weights": 1, "fit_networks": 1}
    assert len(set(members["GA"])) == len(members["GA"]) == 5 * n
    assert members["NN"] == [derive_seed(SMALL.seed, t, "NN") for t in range(n)]


# Albrecht under patched budgets, in floats: a chunk holds CHUNK_FLOATS //
# (23 pairs * 7 features) folds, a network stack NN_FLOATS // (23 * 7) of a
# chunk's folds, and a GA stack GA_FLOATS // (6 ga_pop * 23 pairs) of its
# (fold, GA k) members, five per fold; each budget left out keeps its
# value. Each case lists the size of every network stack, in folds, and of
# every GA stack, in members.
CHUNKINGS = {
    # one fold per chunk
    "1": ({"CHUNK_FLOATS": 1}, [1] * 24, [5] * 24),
    # chunks of at most 14 folds (2300 // 161), or of at most 8 (1380 // 161)
    "2300": ({"CHUNK_FLOATS": 2300}, [12, 12], [60, 60]),
    "1380": ({"CHUNK_FLOATS": 1380}, [8] * 3, [40] * 3),
    # one chunk; GA stacks of 3 members split each fold's five over two
    "ga3": ({"GA_FLOATS": 3 * 6 * 23}, [24], [3] * 40),
    # one chunk; network stacks of at most 5 folds, GA stacks of at most 7
    "ga7-nn5": ({"GA_FLOATS": 7 * 6 * 23, "NN_FLOATS": 5 * 23 * 7}, [5, 5, 5, 5, 4], [7, 7, 6] * 6),
    # two chunks of 12 folds, each in network stacks of 4 and GA stacks of 6-7
    "2300-ga7-nn5": ({"CHUNK_FLOATS": 2300, "GA_FLOATS": 7 * 6 * 23, "NN_FLOATS": 5 * 23 * 7},
                     [4] * 6, [7, 7, 6, 7, 7, 6, 7, 7, 6] * 2),
}


@pytest.mark.parametrize("case", CHUNKINGS)
def test_loocv_grid_identical_for_any_chunking(albrecht, monkeypatch, case):
    whole = loocv_grid(albrecht, GRID, SMALL)
    stacks = {"NN": [], "GA": []}
    fit_networks, fit_ga_weights = validation.fit_networks, validation.fit_ga_weights

    def stacked_networks(X, y, config, seeds):
        stacks["NN"].append(len(seeds))
        return fit_networks(X, y, config, seeds)

    def stacked_weights(residuals, D, config, seeds):
        stacks["GA"].append(len(seeds))
        return fit_ga_weights(residuals, D, config, seeds)

    budgets, nn, ga = CHUNKINGS[case]
    for name, floats in budgets.items():
        monkeypatch.setattr(validation, name, floats)
    monkeypatch.setattr(validation, "fit_networks", stacked_networks)
    monkeypatch.setattr(validation, "fit_ga_weights", stacked_weights)
    assert loocv_grid(albrecht, GRID, SMALL) == whole
    assert (stacks["NN"], stacks["GA"]) == (nn, ga)


def test_loocv_grid_keeps_each_stack_within_its_budget(monkeypatch):
    # 100 projects of 16 continuous features at the default ga_pop of 50,
    # one job: two chunks of 50 folds (CHUNK_FLOATS // (99 pairs * 16) =
    # 82), each one fit_model_trees call, its 250 GA members in stacks of
    # at most GA_FLOATS // (50 * 99) = 52 and its networks in stacks of at
    # most NN_FLOATS // (99 * 16) = 20
    schema, rows, efforts = random_rows(np.random.default_rng(41), n=100, n_features=16)
    dataset = make_dataset("wide", schema, rows, efforts)
    config = Config(runs=200, ga_gens=1, nn_epochs=2, jobs=1)
    calls = {"MT": [], "GA": [], "NN": []}
    fit_model_trees, fit_networks, fit_ga_weights = (validation.fit_model_trees, validation.fit_networks,
                                                     validation.fit_ga_weights)

    def trees(pairs):
        calls["MT"].append(len(pairs))
        return fit_model_trees(pairs)

    def networks(X, y, config, seeds):
        folds, pairs, m = X.shape
        assert folds * pairs * max(m, learners.NN_HIDDEN) <= validation.NN_FLOATS
        calls["NN"].append(folds)
        return fit_networks(X, y, config, seeds)

    def weights(residuals, D, config, seeds):
        members, pairs = residuals.shape
        assert members * config.ga_pop * pairs <= validation.GA_FLOATS
        calls["GA"].append(members)
        return fit_ga_weights(residuals, D, config, seeds)

    monkeypatch.setattr(validation, "fit_model_trees", trees)
    monkeypatch.setattr(validation, "fit_networks", networks)
    monkeypatch.setattr(validation, "fit_ga_weights", weights)
    tables, _ = loocv_grid(dataset, [v for v in GRID if v.method in ("MT", "GA", "NN")], config)
    assert len(tables) == 15
    assert calls == {"MT": [50, 50], "GA": [50] * 10, "NN": [17, 17, 16] * 2}


def test_loocv_grid_makes_a_chunk_per_worker(albrecht, monkeypatch):
    plans = []
    map_chunks = validation._map_chunks

    def recorded(chunk, bounds, jobs):
        plans.append((bounds, jobs))
        return map_chunks(chunk, bounds, jobs)

    monkeypatch.setattr(validation, "_map_chunks", recorded)
    loocv_grid(albrecht, GRID, replace(SMALL, jobs=3))
    # all 24 Albrecht folds fit in one chunk; three workers get 8 folds each
    assert plans == [([(0, 8), (8, 16), (16, 24)], 3)]
    # n = 100 at 16 folds per chunk: 7 chunks round up to 8, 4 per worker
    assert [start for start, _ in validation._spans(100, 16, 2)] == [0, 13, 25, 38, 50, 63, 75, 88]
    # more workers than folds: one fold per chunk
    assert validation._spans(5, 10, 8) == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 600), st.integers(1, 100), st.integers(1, 12))
def test_chunk_starts_property(n, size, jobs):
    spans = validation._spans(n, size, jobs)
    sizes = [stop - start for start, stop in spans]
    assert spans[0][0] == 0 and spans[-1][1] == n and min(sizes) >= 1
    assert all(stop == start for (_, stop), (start, _) in zip(spans, spans[1:]))
    assert max(sizes) <= size and max(sizes) - min(sizes) <= 1
    assert len(spans) == n or len(spans) % jobs == 0
    # no more chunks than the size cap and the rounding need
    assert len(spans) < -(-n // size) + jobs


@pytest.mark.parametrize("jobs, floats, chunks", [(2, 2**15, 2), (3, 2**15, 3),
                                                  (2, 22 * 7 * 5, 6)])
def test_loocv_grid_worker_processes_give_the_serial_tables(albrecht, monkeypatch, tmp_path, jobs, floats, chunks):
    # 23 folds split unevenly over 2 or 3 chunks, or over 6: chunks of at
    # most 5 folds of 22 pairs of 7 features need 5, rounded up to a
    # multiple of 2
    dataset = albrecht.without(23)
    serial = loocv_grid(dataset, GRID, SMALL)
    monkeypatch.setattr(validation, "CHUNK_FLOATS", floats)
    fit_networks = validation._fit_networks

    def logged(folds, config):
        # once per chunk, in the process that runs it
        with open(tmp_path / "pids", "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return fit_networks(folds, config)

    monkeypatch.setattr(validation, "_fit_networks", logged)
    assert loocv_grid(dataset, GRID, replace(SMALL, jobs=jobs)) == serial
    assert multiprocessing.active_children() == []
    pids = (tmp_path / "pids").read_text(encoding="utf-8").split()
    assert len(pids) == chunks
    assert str(os.getpid()) not in pids and len(set(pids)) <= jobs


def test_loocv_grid_runs_serially_without_fork(albrecht, monkeypatch):
    serial = loocv_grid(albrecht, GRID, SMALL)
    stacks = []
    fit_networks = validation.fit_networks

    def stacked(X, y, config, seeds):
        stacks.append(len(seeds))
        return fit_networks(X, y, config, seeds)

    def no_pool(*args):
        raise AssertionError("no worker process may start")

    monkeypatch.setattr(validation, "fit_networks", stacked)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    assert loocv_grid(albrecht, GRID, replace(SMALL, jobs=2)) == serial
    # both chunks ran in this process
    assert stacks == [12, 12]


def test_loocv_grid_raises_a_worker_error_and_stops_every_worker(albrecht, monkeypatch):
    fit_networks = validation._fit_networks

    def failing(folds, config):
        if folds[0].t == 0:
            raise RuntimeError("network stack failed")
        return fit_networks(folds, config)

    monkeypatch.setattr(validation, "_fit_networks", failing)
    with pytest.raises(RuntimeError, match="network stack failed"):
        loocv_grid(albrecht, GRID, replace(SMALL, jobs=2))
    assert multiprocessing.active_children() == []


def test_loocv_grid_starts_no_chunk_after_a_worker_error(albrecht, monkeypatch, tmp_path):
    # one fold per chunk, so 24 chunks for 2 workers; the first fails at
    # once and every other takes 0.1 s, so the error is back long before
    # the later chunks would start
    monkeypatch.setattr(validation, "CHUNK_FLOATS", 1)
    fit_networks = validation._fit_networks

    def failing(folds, config):
        with open(tmp_path / "started", "a", encoding="utf-8") as fh:
            fh.write(f"{folds[0].t}\n")
        if folds[0].t == 0:
            raise RuntimeError("network stack failed")
        time.sleep(0.1)
        return fit_networks(folds, config)

    monkeypatch.setattr(validation, "_fit_networks", failing)
    with pytest.raises(RuntimeError, match="network stack failed"):
        loocv_grid(albrecht, GRID, replace(SMALL, jobs=2))
    assert multiprocessing.active_children() == []
    started = sorted(int(t) for t in (tmp_path / "started").read_text(encoding="utf-8").split())
    # only the chunks already running or handed to a worker at the error
    assert started[0] == 0 and started[-1] < 12, started


def test_a_killed_worker_fails_the_run_at_once(tmp_path):
    # the worker of the first chunk kills itself, as the OOM killer would;
    # the run must report it, not wait for that chunk forever
    code = ("import os, signal, sys\n"
            "from ebae import cli, validation\n"
            "fit_networks = validation._fit_networks\n"
            "def dying(folds, config):\n"
            "    if folds[0].t == 0:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return fit_networks(folds, config)\n"
            "validation._fit_networks = dying\n"
            "raise SystemExit(cli.main(sys.argv[1:]))\n")
    out = tmp_path / "report"
    # a session of its own, so that a hang can be ended with every worker
    child = subprocess.Popen(
        [sys.executable, "-c", code, "pipeline", "--data", str(DATASETS / "albrecht.csv"),
         "--schema", str(DATASETS / "albrecht.schema"), "--set", "runs=200", "--set", "ga.pop=6",
         "--set", "ga.gens=3", "--set", "nn.epochs=10", "--set", "jobs=2", "--out", str(out)],
        env=src_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, stderr = child.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        pytest.fail("the run still waited for the killed worker's chunk after 60 s")
    assert child.returncode == 1
    assert stderr.startswith("error: A process in the process pool was terminated abruptly"), stderr
    assert not out.exists()


@pytest.mark.parametrize("methods", [("EBA", "LSE", "MLFE", "AQUA"), ("RTM",)])
def test_loocv_grid_trains_only_its_methods_learners(albrecht, monkeypatch, methods):
    calls = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in ((analogy, "knn_within"), (validation, "diff_rows"),
                        (validation, "fit_model_trees"), (adjust, "productivity_correlation"),
                        (validation, "fit_ga_weights"), (validation, "fit_networks")):
        count(owner, name)
    tables, _ = loocv_grid(albrecht, [v for v in GRID if v.method in methods], SMALL)
    assert len(tables) == 5 * len(methods)
    # no learner trains, but every fold builds its shared inputs: one
    # dataset-wide ranking and a ranking of its own for each of the 4 folds
    # whose held-out project alone sets a feature's min or max
    assert calls == {"knn_within": 1 + 4, "productivity_correlation": 24, "diff_rows": 24}


def fold_neighbors(dataset, t, k):
    """The in-training neighbour table fold t of a grid whose largest k is
    ``k`` builds: what its call of ``knn_without`` returns."""
    ranking = analogy.knn_within(dataset, k + 1)
    tables = []
    with pytest.MonkeyPatch.context() as patch:
        def recorded(*args, original=analogy.knn_without):
            tables.append(original(*args))
            return tables[-1]

        patch.setattr(analogy, "knn_without", recorded)
        validation._Fold(dataset, t, k, ranking)
    (table,) = tables
    return table


def test_fold_neighbors_equal_knn_within_on_every_albrecht_fold(albrecht):
    # a fold keeps the dataset's bounds unless its held-out project alone
    # sets some feature's min or max
    computed = Counter()
    for t in range(albrecht.n):
        train = albrecht.without(t)
        computed[not all(map(np.array_equal, train.bounds, albrecht.bounds))] += 1
        for k in (1, 5, albrecht.n - 2):
            assert np.array_equal(fold_neighbors(albrecht, t, k), analogy.knn_within(train, k)), (t, k)
    assert computed == {False: 20, True: 4}


def tied_dataset(rng, kinds, all_tied, extreme):
    """A small dataset of continuous, categorical or mixed features where
    ties are common: few distinct values and duplicate rows. All-tied rows
    put every distance at 0; an extreme row is a column's unique minimum or
    maximum, so its fold's bounds change."""
    n = int(rng.integers(4, 12))
    schema = []
    if kinds != "cat":
        schema += [ColumnSpec(f"c{j}", "feature", "continuous", "none") for j in range(2)]
    if kinds != "cont":
        schema += [ColumnSpec(f"g{j}", "feature", "categorical", "none") for j in range(2)]
    rows = [[float(rng.integers(0, 3)) if col.kind == "continuous" else str(rng.choice(["a", "b"]))
             for col in schema] for _ in range(n)]
    rows[1] = list(rows[0])
    if all_tied:
        rows = [list(rows[0]) for _ in range(n)]
    if extreme and kinds != "cat":
        rows[int(rng.integers(n))][0] = float(rng.choice([-5.0, 9.0]))
    return make_dataset("ties", schema, [tuple(row) for row in rows], rng.uniform(1.0, 50.0, size=n))


TIED = (st.integers(0, 2**32 - 1), st.sampled_from(["cont", "cat", "mixed"]), st.booleans(), st.booleans())


@settings(max_examples=60, deadline=None)
@given(*TIED)
def test_fold_neighbors_equal_knn_within_property(seed, kinds, all_tied, extreme):
    ds = tied_dataset(np.random.default_rng(seed), kinds, all_tied, extreme)
    for t in range(ds.n):
        for k in (1, ds.n - 2):
            assert np.array_equal(fold_neighbors(ds, t, k), analogy.knn_within(ds.without(t), k)), (t, k)


def design_or_error(build, *args):
    try:
        return build(*args)
    except FitError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(*TIED)
def test_fold_difference_table_serves_every_k_property(seed, kinds, all_tied, extreme):
    # a fold's one k_top difference table: its first k columns give the GA
    # design of every k, or the error of a k that leaves too few training
    # projects, and its column 0 the difference pairs, each as the per-row
    # oracle builds it
    ds = tied_dataset(np.random.default_rng(seed), kinds, all_tied, extreme)
    k_top = ds.n - 2
    ranking = analogy.knn_within(ds, k_top + 1)
    for t in range(ds.n):
        fold = validation._Fold(ds, t, k_top, ranking)
        train, (efforts, diffs) = fold.train, fold.table
        for k in range(1, k_top + 1):
            got = design_or_error(validation.ga_design, train.efforts, efforts[:, :k], diffs[:, :k])
            want = design_or_error(ga_design_loop, train, k)
            assert type(got) is type(want), (t, k)
            assert got == want if isinstance(want, str) else all(map(np.array_equal, got, want)), (t, k)
        assert all(map(np.array_equal, fold.pairs, diff_pairs_loop(train))), t


def test_fold_falls_back_for_each_k_whose_model_is_an_error(albrecht, monkeypatch):
    variants = [VariantId(method, k) for method in ("EBA", "MT", "GA") for k in range(1, 6)]
    fold = validation._Fold(albrecht, 0, 5, analogy.knn_within(albrecht, 6))
    alphas = {k: np.full(albrecht.m, 0.5 * k) for k in (2, 4)}
    fold.models["MT"] = FitError("no tree")
    fold.models["GA"] = alphas
    eba, mt, ga = fold.predict(["EBA", "MT", "GA"])
    for k in range(1, 6):
        nbh = retrieve(fold.target, fold.train, k)
        assert eba[k - 1] == adjust_reference.adjust_eba(fold.target, nbh, fold.train)
        assert np.isnan(mt[k - 1])
        if k in alphas:
            assert ga[k - 1] == adjust_reference.adjust_ga(fold.target, nbh, fold.train, alphas[k])
        else:
            assert np.isnan(ga[k - 1])

    # the same errors on every fold: ``loocv_grid`` puts EBA in each NaN's
    # place and counts it as a fallback
    build = validation.ga_design

    def lost(efforts, neighbor_efforts, diffs):
        if neighbor_efforts.shape[1] % 2:
            raise FitError("lost")
        return build(efforts, neighbor_efforts, diffs)

    kept = loocv_grid(albrecht, variants, SMALL)[0]
    monkeypatch.setattr(validation, "fit_model_trees", lambda pairs: [FitError("no tree")] * len(pairs))
    monkeypatch.setattr(validation, "ga_design", lost)
    tables, _ = loocv_grid(albrecht, variants, SMALL)
    for k in range(1, 6):
        plain = tables[f"EBA{k}"].predictions
        assert tables[f"EBA{k}"].fallback_count == 0
        assert np.array_equal(tables[f"MT{k}"].predictions, plain)
        assert tables[f"MT{k}"].fallback_count == albrecht.n
        if k % 2:
            assert np.array_equal(tables[f"GA{k}"].predictions, plain)
            assert tables[f"GA{k}"].fallback_count == albrecht.n
        else:
            assert tables[f"GA{k}"] == kept[f"GA{k}"]


def test_fold_predicts_every_nn_k_from_one_network(albrecht, monkeypatch):
    # a fold trains one network, seeded from the fold and "NN", on its
    # difference pairs; NN1-NN5 are the prefix means of the analogy efforts
    # plus that network's corrections
    variants = [VariantId("NN", k) for k in range(1, 6)]
    t = 5
    tables, _ = loocv_grid(albrecht, variants, SMALL)
    fold = validation._Fold(albrecht, t, 5, analogy.knn_within(albrecht, 6))
    validation._fit_networks([fold], SMALL)
    net, train, target = fold.models["NN"], fold.train, fold.target
    want = fit_network(*fold.pairs, SMALL, derive_seed(SMALL.seed, t, "NN"))
    assert all(np.array_equal(got, lone) for got, lone in zip(vars(net).values(), vars(want).values()))
    prefix_means, returned = adjust._prefix_means, []

    def recorded(terms, k_top):
        returned.append((terms, k_top, prefix_means(terms, k_top)))
        return returned[-1][2]

    monkeypatch.setattr(adjust, "_prefix_means", recorded)
    (row,) = fold.predict(["NN"])
    ((terms, k_top, means),) = returned
    nearest = fold.analogies.indices
    diffs = learners.diff_rows(target.cont, target.cat, train.cont[nearest], train.cat[nearest])
    assert k_top == 5 and np.array_equal(terms, train.efforts[nearest] + [predict_network(net, d) for d in diffs])
    assert np.array_equal(row, means)
    for k in range(1, 6):
        assert row[k - 1] == adjust_reference.adjust_nn(target, retrieve(target, train, k), train, net)
        assert tables[f"NN{k}"].predictions[t] == row[k - 1]


@pytest.mark.parametrize("jobs", [1, 2])
def test_chunk_returns_one_float_array(albrecht, monkeypatch, jobs):
    # every chunk's predictions come back as (folds, methods, k_top), the
    # methods in adjust.METHODS order with EBA first
    variants = [VariantId(method, k) for method in ("NN", "LSE") for k in (1, 3)]
    returned = []
    map_chunks = validation._map_chunks

    def recorded(chunk, bounds, jobs):
        chunks = map_chunks(chunk, bounds, jobs)
        returned.extend(zip(bounds, chunks))
        return chunks

    monkeypatch.setattr(validation, "_map_chunks", recorded)
    tables, _ = loocv_grid(albrecht, variants, replace(SMALL, jobs=jobs))
    assert [bounds for bounds, _ in returned] == ([(0, 24)] if jobs == 1 else [(0, 12), (12, 24)])
    for (start, stop), predictions in returned:
        assert type(predictions) is np.ndarray and predictions.dtype == np.float64
        assert predictions.shape == (stop - start, 3, 3)
    predictions = np.concatenate([chunk for _, chunk in returned])
    methods = ["EBA", "LSE", "NN"]
    for variant in variants:
        # no NN or LSE prediction falls back on Albrecht
        column = predictions[:, methods.index(variant.method), variant.k - 1]
        assert np.array_equal(tables[variant.label].predictions, column)
        assert tables[variant.label].fallback_count == 0
