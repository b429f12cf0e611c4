import numpy as np
import pytest

from ebae.adjust import VariantId
from ebae.config import Config
from ebae.data import Project
from ebae.validation import dataset_baseline, derive_seed, evaluate_variant, loocv

from .conftest import make_dataset, size_only_schema

CFG = Config(runs=200)


def test_loocv_row_count(toy):
    table = loocv(toy, VariantId("EBA", 1), CFG)
    assert len(table) == toy.n
    assert list(table.project_ids) == [p.id for p in toy.projects]


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


def test_target_effort_never_leaks(toy):
    # changing the held-out project's effort must not move its own prediction
    variant = VariantId("LSE", 2)
    base_table = loocv(toy, variant, CFG)
    tampered = make_dataset(
        "toy2",
        size_only_schema(),
        [tuple(p.features) for p in toy.projects],
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
