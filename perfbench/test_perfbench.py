"""Tests of the benchmark's own parts: fixtures, report digest, output check, tracer, probe.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import fixtures  # noqa: E402
import run  # noqa: E402
from tracer import SITES, Tracer  # noqa: E402

sys.path.insert(0, str(run.SRC))
from ebae import load_dataset  # noqa: E402

# A small learner budget keeps a whole Albrecht pipeline to a few seconds.
SMALL = {"ga.gens": "2", "nn.epochs": "5", "runs": "200"}


@pytest.mark.parametrize("generate", [fixtures.china_screen, fixtures.mixed_screen])
def test_fixture_same_index_gives_identical_bytes(generate, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = generate(3, tmp_path / "a")
    b = generate(3, tmp_path / "b")
    c = generate(4, tmp_path / "a")
    assert [p.read_bytes() for p in a] == [p.read_bytes() for p in b]
    assert a[0].read_bytes() != c[0].read_bytes()


@pytest.mark.parametrize("workload, n, m", [("china_screen", fixtures.CHINA_N, 16), ("mixed_screen", fixtures.MIXED_N, 16)])
def test_fixture_loads_with_declared_shape_and_recorded_digest(workload, n, m, tmp_path):
    csv_path, schema_path, index = run.make_inputs(workload, 21, tmp_path)
    assert index == 21 % fixtures.FAMILY
    dataset = load_dataset(csv_path, schema_path)
    assert (dataset.n, dataset.m) == (n, m)
    reference = json.loads(run.REFERENCE.read_text())
    assert run.files_digest((csv_path, schema_path)) == reference[workload][str(index)]["inputs_sha256"]


def _small_albrecht_run(out_dir):
    csv_path, schema_path, _ = run.make_inputs("albrecht", 0, out_dir.parent)
    dataset = load_dataset(csv_path, schema_path)
    config = run.workload_config("albrecht")
    from ebae.config import with_overrides

    return run.run_once(dataset, with_overrides(config, SMALL), out_dir)


def test_same_seed_runs_give_the_same_report_digest(tmp_path):
    _small_albrecht_run(tmp_path / "one")
    _small_albrecht_run(tmp_path / "two")
    assert run.report_digest(tmp_path / "one") == run.report_digest(tmp_path / "two")


def test_check_passes_recorded_reference_and_flags_a_changed_mae(tmp_path):
    report, _ = _small_albrecht_run(tmp_path / "r")
    expected = json.loads(run.REFERENCE.read_text())["albrecht"]["0"]["mae"]
    assert run.check_report(report, tmp_path / "r", expected) == ([], [])

    report.summaries["MT2"] = replace(report.summaries["MT2"], mae=report.summaries["MT2"].mae * (1 + 1e-8))
    failed, problems = run.check_report(report, tmp_path / "r", expected)
    assert failed == ["MT2"]

    (tmp_path / "r" / "summary.md").unlink()
    failed, problems = run.check_report(report, tmp_path / "r", expected)
    assert len(failed) == 40
    assert any("summary.md" in p for p in problems)


def test_tracer_counts_calls_and_restores_originals(tmp_path):
    import ebae.learners
    import ebae.validation

    originals = (ebae.validation.fit_ga_weights, ebae.learners.knn_within)
    tracer = Tracer()
    with tracer.installed(SITES):
        report, _ = _small_albrecht_run(tmp_path / "r")
    assert (ebae.validation.fit_ga_weights, ebae.learners.knn_within) == originals
    assert tracer.absent == []
    n = report.n
    assert tracer.calls["learners.ga_fit"] == 5 * n
    assert tracer.calls["learners.ga_design"] == 5 * n
    assert tracer.calls["analogy.retrieve"] == 40 * n
    # MT and NN build pairs once per fold and k; RTM fits its correlation once per fold and k.
    assert tracer.calls["learners.diff_pairs"] == 10 * n
    assert tracer.calls["adjust.rtm_corr"] == 5 * n
    assert tracer.calls["analogy.knn_within"] == 20 * n


def test_tracer_reports_a_missing_name_as_absent():
    tracer = Tracer()
    with tracer.installed([("ebae.learners", "no_such_function", "x"),
                           ("ebae.data", "Dataset.no_such_method", "y")]):
        pass
    assert tracer.absent == ["ebae.learners.no_such_function", "ebae.data.Dataset.no_such_method"]


def test_layer_metrics_without_a_traced_loocv_covers_the_whole_pipeline(tmp_path):
    tracer = Tracer()
    with tracer.installed([site for site in SITES if site[1] != "loocv"]):
        report, timing = _small_albrecht_run(tmp_path / "r")
    metrics = run.layer_metrics(tracer, report, timing, 0.1, timing, (0.5, 0.6), tmp_path / "r")
    assert metrics["validation.loocv_s.GA"] == (0.0, "s")
    assert metrics["ensemble.post_loocv_s"] == (timing["pipeline_end"] - timing["pipeline_start"], "s")


def test_probe_samples_the_host_during_a_measurement():
    from time import perf_counter, sleep

    from probe import INTERVAL, Probe

    start = perf_counter()
    with Probe() as probe:
        sleep(6 * INTERVAL)
    end = perf_counter()
    assert len(probe.samples) >= 3
    # Each sample's busy time holds an untimed pass before the timed one.
    assert sum(probe.samples) < probe.busy_s < 6 * INTERVAL
    assert probe.at_reference_speed(start, end) == pytest.approx((end - start - probe.busy_s) / probe.speed_factor())


def test_probe_rescales_each_window_by_its_own_speed():
    from probe import REFERENCE_BURST_S, WINDOW, Probe

    probe = Probe()
    probe.samples = [REFERENCE_BURST_S] * WINDOW + [2 * REFERENCE_BURST_S] * WINDOW
    probe.ends = [(i + 1) / WINDOW for i in range(2 * WINDOW)]
    probe.busy = [0.0] * (2 * WINDOW)
    # One second at reference speed, then one second at half speed.
    assert probe.at_reference_speed(0.0, 2.0) == pytest.approx(1.5)
