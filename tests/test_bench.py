"""The paired arithmetic and output parsing of scripts/bench.py, on canned
samples; no benchmark runs."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench.py"
_spec = importlib.util.spec_from_file_location("bench_script", SCRIPT)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def test_quartiles_interpolate_within_the_sample():
    assert bench.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert bench.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)


def test_pairs_give_quartiles_ratio_and_wins():
    # (base, head, base ran first)
    pairs = [(1.00, 0.92, True), (1.02, 0.90, False), (1.10, 1.00, True), (1.12, 0.98, False), (1.20, 1.20, True)]
    s = bench.summarize_pairs(pairs, "lower")
    assert s["base_quartiles"] == (1.02, 1.10, 1.12)
    assert s["head_median"] == 0.98
    assert s["ratio"] == 1.00 / 1.10
    assert s["wins"] == 4                      # the tie counts for neither side
    # second / first: 0.92, 1.02 / 0.90, 1.00 / 1.10, 1.12 / 0.98 and 1
    assert s["order"] == 1.0


def test_identical_sides_show_the_order_effect_alone():
    # one program on both sides, whichever runs second 5% slower
    pairs = [(1.0, 1.05, True), (1.05, 1.0, False), (2.0, 2.1, True), (2.1, 2.0, False)]
    s = bench.summarize_pairs(pairs, "lower")
    assert s["wins"] == 2
    assert s["ratio"] == pytest.approx((1.0 / 1.05 + 1.05) / 2)
    assert s["order"] == pytest.approx(1.05)


def test_higher_is_better_counts_the_other_way():
    pairs = [(0.5, 0.6, True), (0.5, 0.4, False), (0.5, 0.7, True)]
    s = bench.summarize_pairs(pairs, "higher")
    assert s["wins"] == 2
    assert s["ratio"] == pytest.approx(1.2)


def test_a_zero_base_has_no_ratio():
    s = bench.summarize_pairs([(0.0, 1.0, True)], "lower")
    assert math.isnan(s["ratio"]) and math.isnan(s["order"])
    assert s["wins"] == 0


def test_parse_run_reads_env_inputs_digests_and_result():
    result = {"correct": True, "attempted": 80, "failed": 0,
              "metrics": {"pipeline_s": {"value": 0.25, "unit": "s"}, "ok_frac": {"value": 1.0, "unit": "ratio"}}}
    stdout = "\n".join([
        "setup_s samples [0.1]",
        'env {"python": "3.11.7", "numpy": "2.4.6"}',
        'inputs {"workload": "albrecht", "seed": 42}',
        "report_sha256 abc pipeline_s 0.2500 (wall 0.3 s, host speed factor 1.2)",
        "report_sha256 abc pipeline_s 0.2400 (wall 0.3 s, host speed factor 1.2)",
        "pipeline_s = 0.25 s",
        json.dumps(result),
    ])
    run = bench.parse_run(stdout)
    assert run == {"env": {"python": "3.11.7", "numpy": "2.4.6"}, "inputs": {"workload": "albrecht", "seed": 42},
                   "digests": ["abc"], "correct": True, "attempted": 80, "failed": 0,
                   "metrics": {"pipeline_s": 0.25, "ok_frac": 1.0}}


def test_summary_table_pairs_runs_by_position():
    spec = {"end_to_end": [{"name": "pipeline_s", "unit": "s", "better": "lower"}]}

    def run(value, position, digest="abc"):
        return {"metrics": {"pipeline_s": value}, "position": position, "digests": [digest], "correct": True}

    base = [run(1.0, 0), run(1.1, 1)]
    head = [run(0.9, 1), run(1.0, 0)]
    lines = bench.summary_table(spec, base, head).splitlines()
    assert lines[1].split() == ["pipeline_s", "s", "1.05", "[1.025,", "1.075]", "0.95", "0.9045", "2/2", "1.0000"]
    assert lines[2:] == ["report digests: identical", "correct: base True head True"]
    head[0]["digests"] = ["def"]
    digests = bench.summary_table(spec, base, head).splitlines()[2]
    assert digests == "report digests: base ['abc'], head ['abc', 'def']"
