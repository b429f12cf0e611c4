import re
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebae.adjust import METHODS
from ebae.config import Config
from ebae.data import ColumnSpec, DatasetError
from ebae.ensemble import (
    EnsembleSpec,
    build_ensembles,
    filter_actual_predictors,
    pooled_transform,
    prefix_tables,
    rank_candidates,
    run_pipeline,
    select_best_cluster,
)
from ebae.metrics import BaselineStats, EvalSummary, build_table
from ebae.stats import apply_transform

from .conftest import make_dataset, size_only_schema

BASE = BaselineStats(mae_p0=10.0, sp0=2.0, sa5=0.084, runs=1000, seed=0)


def summary(label, sa, delta, mae=1.0, lsd=1.0, mbre=1.0, mibre=0.5):
    return EvalSummary(
        variant=label, mae=mae, mmre=0.1, pred25=50.0, lsd=lsd, s2=0.1,
        mbre=mbre, mibre=mibre, sa=sa, delta=delta, fallback_count=0,
    )


def test_filter_keeps_strong_variant():
    survivors, verdicts = filter_actual_predictors({"EBA1": summary("EBA1", 0.63, 3.10)}, BASE)
    assert survivors == ["EBA1"]
    assert verdicts[0].kept and verdicts[0].reason == ""


def test_filter_drops_negative_sa():
    survivors, verdicts = filter_actual_predictors(
        {"MLFE1": summary("MLFE1", -2.42, -45.88)}, BASE
    )
    assert survivors == []
    assert not verdicts[0].kept
    assert "SA" in verdicts[0].reason


def test_filter_effect_size_boundary_is_strict():
    survivors, verdicts = filter_actual_predictors({"X1": summary("X1", 0.5, 0.5)}, BASE)
    assert survivors == []
    assert "effect size" in verdicts[0].reason


def test_filter_monotone_in_delta_threshold():
    import ebae.ensemble as ens

    summaries = {f"V{i}": summary(f"V{i}", 0.5, delta) for i, delta in enumerate([0.4, 0.6, 2.0])}
    strict, _ = filter_actual_predictors(summaries, BASE)
    original = ens.EFFECT_SIZE_GATE
    try:
        ens.EFFECT_SIZE_GATE = 0.3
        lax, _ = filter_actual_predictors(summaries, BASE)
    finally:
        ens.EFFECT_SIZE_GATE = original
    assert set(strict) <= set(lax)


def make_tables(spec_map, floor=1e-6):
    rng = np.random.default_rng(5)
    tables = {}
    for label, (mean_ae, n) in spec_map.items():
        actuals = np.full(n, 100.0)
        predictions = actuals - rng.normal(mean_ae, 0.1, size=n)
        tables[label] = build_table(label, map(str, range(n)), actuals, predictions, floor)
    return tables


def test_select_best_cluster_separates_clear_groups():
    tables = make_tables({"A": (1.0, 30), "B": (1.05, 30), "C": (9.0, 30), "D": (9.1, 30)})
    best, result = select_best_cluster(tables, ["A", "B", "C", "D"])
    assert set(best) == {"A", "B"}
    assert len(result.clusters) >= 2
    assert result.transform == pooled_transform(tables, ["A", "B", "C", "D"])[1]


def error_tables(kind, labels, n, rng):
    """Label -> n absolute errors: a spread, with exact zeros (the shift), all
    equal (the lambda = 1 branch), or near 1e300 (most lambdas overflow)."""
    aes = {
        "spread": lambda: rng.gamma(2.0, 3.0, size=n),
        "zeros": lambda: np.where(rng.random(n) < 0.3, 0.0, rng.gamma(2.0, 3.0, size=n)),
        "equal": lambda: np.full(n, 2.5),
        "huge": lambda: rng.uniform(0.1, 1.7, size=n) * 1e300,
        "huge_zeros": lambda: np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.1, 1.7, size=n) * 1e300),
    }[kind]
    # a table as pooled_transform reads it: its absolute errors alone
    return {label: SimpleNamespace(aes=aes()) for label in labels}


@pytest.mark.parametrize("kind", ["spread", "zeros", "equal", "huge", "huge_zeros"])
@settings(max_examples=20, deadline=None)
@given(n_labels=st.integers(2, 8), n=st.integers(2, 30), seed=st.integers(0, 2**32 - 1))
def test_pooled_transform_groups_equal_a_second_pass(kind, n_labels, n, seed):
    labels = [f"V{i}" for i in range(n_labels)]
    tables = error_tables(kind, labels, n, np.random.default_rng(seed))
    groups, spec = pooled_transform(tables, labels)
    assert list(groups) == labels
    for label in labels:
        assert np.array_equal(groups[label], apply_transform(tables[label].aes, spec)), label
    if kind == "equal":
        assert spec.box_cox_lambda == 1.0
    if any(np.min(t.aes) == 0 for t in tables.values()):
        assert spec.shift > 0


def test_select_best_cluster_identical_lists_merge():
    table = make_tables({"A": (2.0, 25)})["A"]
    clone = build_table("B", table.project_ids, table.actuals,
                        table.predictions, table.floor)
    best, result = select_best_cluster({"A": table, "B": clone}, ["A", "B"])
    assert set(best) == {"A", "B"}
    assert len(result.clusters) == 1


def test_select_best_cluster_single_survivor():
    tables = make_tables({"A": (1.0, 20)})
    best, result = select_best_cluster(tables, ["A"])
    assert best == ["A"] and result is None


def test_build_ensembles_prefixes():
    ranked = ["GA5", "GA3", "GA4", "LSE5", "AQUA5", "RTM1"]
    ensembles = build_ensembles(ranked)
    assert [e.label for e in ensembles] == ["Top2", "Top3", "Top4", "Top5", "Top6"]
    assert ensembles[1].members == ("GA5", "GA3", "GA4")
    assert build_ensembles(["only"]) == []
    assert [e.label for e in build_ensembles(["a", "b"])] == ["Top2"]


def test_ensemble_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec(z=2, members=("a",))
    with pytest.raises(ValueError):
        EnsembleSpec(z=2, members=("a", "a"))


def test_ensemble_table_exact_mean_and_ae_bound():
    tables = make_tables({"A": (1.0, 15), "B": (4.0, 15), "C": (8.0, 15)}, floor=0.25)
    ranked = ["C", "A", "B"]
    prefixes = prefix_tables(ranked, tables)
    assert list(prefixes) == ["Top2", "Top3"]
    for spec in build_ensembles(ranked):
        combined = prefixes[spec.label]
        assert combined.variant == spec.label
        assert {table.floor for table in tables.values()} == {combined.floor}
        member_predictions = np.array([tables[m].predictions for m in spec.members])
        assert np.array_equal(combined.predictions, member_predictions.mean(axis=0))
        member_aes = np.array([tables[m].aes for m in spec.members])
        assert np.all(combined.aes <= member_aes.max(axis=0) + 1e-12)


def test_rank_candidates_tie_break_by_mae_then_label():
    summaries = {
        "A": summary("A", 0.6, 2.0, mae=1.0, lsd=2.0, mbre=1.0, mibre=0.9),
        "B": summary("B", 0.6, 2.0, mae=2.0, lsd=1.0, mbre=0.9, mibre=1.0),
    }
    outcome, flat = rank_candidates(summaries, ["A", "B"])
    assert outcome.scores["A"] == outcome.scores["B"] == 0
    assert flat == ["A", "B"]          # tie resolved by the MAE voter


def big_toy():
    sizes = [2, 4, 6, 8, 10, 12, 14, 16, 18, 20]
    efforts = [4.2, 8.1, 12.4, 20.3, 30.1, 35.2, 41.8, 47.9, 56.1, 60.4]
    return make_dataset("big_toy", size_only_schema(), [(s,) for s in sizes], efforts)


def test_run_pipeline_structure():
    report = run_pipeline(big_toy(), Config(runs=200, ga_pop=12, ga_gens=10, nn_epochs=50))
    assert len(report.summaries) + len(report.variant_errors) == 40
    assert len(report.verdicts) == len(report.summaries)
    # mean-rank table has both sides whenever ensembles exist
    if report.ensembles:
        assert report.mean_rank_ensembles is not None
        assert report.mean_rank_singles is not None
        for spec in report.ensembles:
            combined = report.ensemble_tables[spec.label]
            members = np.array([report.tables[m].predictions for m in spec.members])
            assert np.array_equal(combined.predictions, members.mean(axis=0))
    assert report.best_k
    assert set(report.best_k) <= {"EBA", "LSE", "MLFE", "RTM", "AQUA", "MT", "GA", "NN"}


def test_run_pipeline_no_survivors_degrades():
    # constant-ish efforts with huge noise: nothing beats random guessing
    rng = np.random.default_rng(3)
    sizes = rng.uniform(1, 100, size=8)
    efforts = rng.permutation([1, 1000, 2, 900, 3, 800, 5, 700]).astype(float)
    ds = make_dataset("noise", size_only_schema(), [(s,) for s in sizes], efforts)
    report = run_pipeline(ds, Config(runs=200, ga_pop=10, ga_gens=5, nn_epochs=20))
    assert len(report.verdicts) == len(report.summaries)
    if not report.survivors:
        assert report.ensembles == []
        assert any("surviving" in note for note in report.notes)


def test_run_pipeline_records_small_k_failures(toy):
    report = run_pipeline(toy, Config(runs=200, ga_pop=10, ga_gens=5, nn_epochs=20))
    # k=4 and k=5 variants cannot run on a 5-project dataset
    assert all(f"{m}{k}" in report.variant_errors for m in ("EBA",) for k in (4, 5))
    assert len(report.summaries) + len(report.variant_errors) == 40


def overflow_dataset(big=1e308, small=0.5):
    """Sizes ``big`` and ``small`` beside ordinary ones: at 1e308 the size
    ratios and differences would overflow, and the load-time bound rejects it."""
    schema = size_only_schema() + [ColumnSpec("x", "feature", "continuous", "none")]
    rows = [(big, 3.0), (small, 1.0), (10.0, 2.0), (20.0, 5.0),
            (30.0, 4.0), (40.0, 7.0), (50.0, 6.0), (60.0, 8.0)]
    efforts = [100.0, 5.0, 20.0, 40.0, 55.0, 80.0, 90.0, 120.0]
    return make_dataset("overflow", schema, rows, efforts)


OVERFLOW_CONFIG = Config(runs=200, ga_pop=10, ga_gens=10, nn_epochs=50)
OVERFLOW_REJECTED = re.escape("project 'p1': column 'size': value 1e+308 has a magnitude outside [1e-50, 1e50]")


def test_run_pipeline_non_finite_predictions_fall_back():
    # size extrapolation from the 0.5-sized project to a 1e308-sized one
    # would predict inf; the load-time bound rejects that size
    with pytest.raises(DatasetError, match=OVERFLOW_REJECTED):
        overflow_dataset()


def test_overflow_fixture_runs_without_warnings():
    # the rejection warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DatasetError, match=OVERFLOW_REJECTED):
            overflow_dataset()


def test_ga_overflow_fails_to_fit_and_falls_back():
    # size differences near 1e308, which weights within GA_RANGE could
    # overflow, never reach the GA: the load-time bound rejects them
    with pytest.raises(DatasetError, match=OVERFLOW_REJECTED):
        overflow_dataset()


def test_in_range_extreme_fixture_runs_without_warnings():
    # a 1e50 size beside a 1e-50 one, the ends of the bound: every size
    # ratio, difference and error is finite, so every variant is evaluated
    # and nothing falls back but MT, whose 7 pairs are too few for a tree;
    # one job keeps the run in this process, where the filter applies
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = run_pipeline(overflow_dataset(1e50, 1e-50), replace(OVERFLOW_CONFIG, jobs=1))
    assert len(report.summaries) == 40 and not report.variant_errors
    for s in report.summaries.values():
        assert np.all(np.isfinite([s.mae, s.mmre, s.lsd, s.mbre, s.mibre, s.sa, s.delta]))
    assert {label for label, table in report.tables.items() if table.fallback_count} == {f"MT{k}" for k in range(1, 6)}
    assert report.tables["LSE1"].predictions[0] > 1e50


def test_run_pipeline_names_undefined_effect_size():
    # efforts ~1e155..2e156, whose baseline spread would overflow to inf,
    # are rejected at load; test_metrics covers baseline's own guard
    efforts = 10 * np.arange(1, 21) * 1e154
    with pytest.raises(DatasetError, match=re.escape("project 'p1': column 'effort': value 1e+155 ")):
        make_dataset("huge", size_only_schema(), [(float(s),) for s in range(1, 21)], efforts)


def test_pipeline_deterministic():
    ds = big_toy()
    cfg = Config(runs=200, ga_pop=10, ga_gens=5, nn_epochs=30)
    a = run_pipeline(ds, cfg)
    b = run_pipeline(ds, cfg)
    assert {k: v.predictions.tolist() for k, v in a.tables.items()} == {
        k: v.predictions.tolist() for k, v in b.tables.items()
    }
    assert a.best_ranking == b.best_ranking
    assert [e.members for e in a.ensembles] == [e.members for e in b.ensembles]


def partly_informative():
    """Effort that grows with size, times noise, and a feature of noise: the
    model trees' variants fail the gate, the other 35 pass it."""
    schema = size_only_schema() + [ColumnSpec("x", "feature", "continuous", "none")]
    xs = [5.1, 9.5, 1.4, 9.5, 3.1, 4.2, 8.3, 4.1, 5.5, 0.3, 7.5, 5.4]
    efforts = [6.4, 18.1, 22.5, 57.3, 51.2, 50.3, 43.8, 68.6, 90.4, 84.8, 239.1, 219.5]
    return make_dataset("partly_informative", schema, [(float(s), x) for s, x in enumerate(xs, 1)], efforts)


@pytest.mark.parametrize("all_survive", [True, False], ids=["all_survive", "some_dropped"])
def test_per_method_stages_fit_one_transform_over_every_evaluated_variant(albrecht, monkeypatch, all_survive):
    import ebae.ensemble

    fits = []
    box_cox = ebae.ensemble.box_cox

    def counted(values):
        fits.append(len(values))
        return box_cox(values)

    monkeypatch.setattr(ebae.ensemble, "box_cox", counted)
    ds = albrecht if all_survive else partly_informative()
    report = run_pipeline(ds, Config(runs=200, ga_pop=6, ga_gens=3, nn_epochs=10))
    assert len(report.tables) == 40
    assert (report.survivors == list(report.tables)) == all_survive
    if not all_survive:
        assert [label for label in report.tables if label not in report.survivors] == [f"MT{k}" for k in range(1, 6)]
    # the singles' clustering, the joint clustering, then the per-method
    # stages over every evaluated variant, which reuse the singles' fit
    # when that pool is theirs: one fit per distinct pool
    joint = len(report.best_cluster + report.ensembles)
    assert fits == [len(report.survivors) * ds.n, joint * ds.n] + ([] if all_survive else [40 * ds.n])
    groups, spec = pooled_transform(report.tables, list(report.tables))
    assert report.two_way.transform == spec
    if all_survive:
        assert report.sk_singles.transform == spec
    for method in METHODS:
        means = [(k, float(np.mean(groups[f"{method}{k}"]))) for k in range(1, 6)]
        assert report.best_k[method] == min(means, key=lambda entry: entry[1])
