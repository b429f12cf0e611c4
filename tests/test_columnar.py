"""The post-LOOCV tail works on stacks of tables: summaries reduce the rows
of one prediction matrix, ensembles are prefix means of the ranked matrix,
and the plotdata rows are written as text. Each is checked for exact
equality with its row-at-a-time reference."""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebae.cli import _transformed_ae_text, write_report
from ebae.config import Config
from ebae.data import describe, load_dataset
from ebae.ensemble import pooled_transform, run_pipeline
from ebae.metrics import BaselineStats, build_table, summarize, summarize_stack
from ebae.stats import scott_knott

from .report_reference import summarize_table, transformed_ae_csv

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CONFIG = Config(runs=200, ga_gens=3, nn_epochs=10)
BASE = BaselineStats(mae_p0=50.0, sp0=4.0, sa5=0.1, runs=1000, seed=0)


@pytest.fixture(scope="module", params=["albrecht", "china_screen"])
def case(request, albrecht, tmp_path_factory):
    """(dataset, pipeline report) of Albrecht and of china_screen fixture 0."""
    if request.param == "albrecht":
        dataset = albrecht
    else:
        sys.path.insert(0, str(PERFBENCH))
        try:
            import fixtures
        finally:
            sys.path.remove(str(PERFBENCH))
        dataset = load_dataset(*fixtures.china_screen(0, tmp_path_factory.mktemp("china")))
    return dataset, run_pipeline(dataset, CONFIG)


def test_each_summary_equals_its_own_table_summarized(case):
    _, report = case
    assert report.ensemble_summaries
    for summaries, tables in ((report.summaries, report.tables),
                              (report.ensemble_summaries, report.ensemble_tables)):
        assert list(summaries) == list(tables)
        for label, table in tables.items():
            base = report.baseline
            assert summaries[label] == summarize(table, base) == summarize_table(table, base), label


def test_plotdata_equals_the_csv_writer_rows(case, tmp_path):
    dataset, report = case
    write_report(report, describe(dataset), tmp_path)
    tables = {**report.tables, **report.ensemble_tables}
    for name, result in (("transformed_ae_singles.csv", report.sk_singles),
                         ("transformed_ae_joint.csv", report.sk_joint)):
        assert (tmp_path / "plotdata" / name).read_bytes() == transformed_ae_csv(result, tables), name


def test_plotdata_of_several_clusters_equals_the_csv_writer_rows():
    # errors near 1, 2 and 9 give more than one cluster, and each table's
    # one exact prediction a zero error, which the transform's shift lifts
    rng = np.random.default_rng(11)
    actuals = rng.uniform(50.0, 150.0, size=30)
    tables = {}
    for i, level in enumerate([1.0, 1.05, 2.0, 2.1, 9.0]):
        predictions = actuals - rng.normal(level, 0.05, size=30)
        predictions[i] = actuals[i]
        tables[f"V{i + 1}"] = build_table(f"V{i + 1}", map(str, range(30)), actuals, predictions, 1e-6)
    groups, spec = pooled_transform(tables, list(tables))
    result = replace(scott_knott(groups), transform=spec)
    assert len(result.clusters) >= 2
    text = "cluster,method,transformed_ae\r\n" + _transformed_ae_text(result, tables)
    assert text.encode("utf-8") == transformed_ae_csv(result, tables)


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(1, 74), n=st.integers(2, 499), seed=st.integers(0, 2**32 - 1))
def test_stacked_summaries_equal_one_table_at_a_time(rows, n, seed):
    # predictions on both sides of the actuals, some below the log floor
    rng = np.random.default_rng(seed)
    actuals = rng.lognormal(4.0, 1.0, size=n)
    floor = 1e-6 * float(np.median(actuals))
    tables = [build_table(f"V{i}", map(str, range(n)), actuals,
                          actuals * rng.lognormal(0.0, 0.7, size=n) - rng.uniform(0.0, 10.0, size=n), floor,
                          int(rng.integers(0, n)))
              for i in range(rows)]
    assert summarize_stack(tables, BASE) == [summarize_table(table, BASE) for table in tables]


def test_stacked_tables_must_share_actuals_and_floor():
    actuals = np.array([10.0, 20.0, 30.0])
    a = build_table("A", "xyz", actuals, [11.0, 19.0, 33.0], 1e-5)
    with pytest.raises(ValueError, match="share"):
        summarize_stack([a, build_table("B", "xyz", actuals * 2, [11.0, 19.0, 33.0], 1e-5)], BASE)
    with pytest.raises(ValueError, match="share"):
        summarize_stack([a, build_table("B", "xyz", actuals, [11.0, 19.0, 33.0], 2e-5)], BASE)
