import contextlib
import csv
import hashlib
import io
import math
import os
import re
import stat
import tempfile
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ebae import cli, config, ensemble
from ebae.adjust import enumerate_variants
from ebae.cli import main, write_report
from ebae.config import Config
from ebae.data import ColumnSpec, DatasetError, describe, write_dataset
from ebae.ensemble import run_pipeline
from ebae.stats import apply_transform

from .conftest import DATASETS, make_dataset

TOY_ARGS = ["--data", str(DATASETS / "toy.csv"), "--schema", str(DATASETS / "toy.schema")]
FAST = ["--set", "runs=200", "--set", "ga.pop=10", "--set", "ga.gens=5", "--set", "nn.epochs=20"]
REPORT_FILES = tuple(sorted(path for path in cli.REPORT_PATHS if path != "plotdata"))


def directory_digest(root):
    digest = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def test_describe_toy(capsys):
    assert main(["describe", *TOY_ARGS]) == 0
    out = capsys.readouterr().out
    assert "projects (n): 5" in out
    assert "features (m): 1" in out


def test_describe_missing_schema(tmp_path, capsys):
    code = main(["describe", "--data", str(DATASETS / "toy.csv"), "--schema", str(tmp_path / "nope")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_describe_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code = main(["describe", "--data", str(empty), "--schema", str(DATASETS / "toy.schema")])
    assert code == 2


@pytest.mark.parametrize("unreadable", ["directory", "not_utf8"])
@pytest.mark.parametrize("role", ["--data", "--schema"])
def test_describe_unreadable_input_names_the_file(tmp_path, capsys, role, unreadable):
    path = tmp_path / unreadable
    if unreadable == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"size\xff\xfe,effort\n")
    args = {"--data": str(DATASETS / "toy.csv"), "--schema": str(DATASETS / "toy.schema"), role: str(path)}
    assert main(["describe", *(item for pair in args.items() for item in pair)]) == 2
    assert f"error: {path}: " in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--runs", "200"], ["--seed", "1"], ["--set", "ga.pop=10"],
                                  ["--out", "rep"]])
def test_describe_rejects_run_settings(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["describe", *TOY_ARGS, *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_commands_are_describe_and_pipeline(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "{describe,pipeline}" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", *TOY_ARGS])
    assert exc.value.code == 2
    assert "invalid choice: 'evaluate'" in capsys.readouterr().err


def test_pipeline_writes_variant_grid(tmp_path):
    out = tmp_path / "rep"
    assert main(["pipeline", *TOY_ARGS, *FAST, "--out", str(out)]) == 0
    with (out / "variants.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 40
    header = rows[0].keys()
    assert list(header) == [
        "variant", "MAE", "MMRE", "Pred25", "LSD", "MBRE", "MIBRE",
        "SA", "Delta", "SA5", "fallback_count", "kept",
    ]
    evaluated = [r for r in rows if not r["kept"].startswith("error")]
    assert all(r["MAE"] for r in evaluated)


def test_pipeline_artifacts_present(tmp_path):
    out = tmp_path / "report"
    assert main(["pipeline", *TOY_ARGS, *FAST, "--out", str(out)]) == 0
    for name in REPORT_FILES:
        assert (out / name).exists(), name
    # what the writer may replace is what it writes
    assert {p.relative_to(out).as_posix() for p in out.rglob("*")} == cli.REPORT_PATHS
    for path, header in cli.REPORT_CSVS.items():
        with (out / path).open(encoding="utf-8", newline="") as fh:
            assert next(csv.reader(fh)) == list(header), path


def test_report_paths_are_the_csvs_summary_and_plotdata():
    assert cli.REPORT_PATHS == {*cli.REPORT_CSVS, "summary.md", "plotdata"}


def test_pipeline_rejects_a_feature_range_that_overflows(tmp_path, capsys):
    # -1e308 is finite, but a feature value must be 0 or of a magnitude in [1e-50, 1e50]
    data, schema, out = tmp_path / "wide.csv", tmp_path / "wide.schema", tmp_path / "report"
    data.write_text("id,size,effort\na,-1e308,10\nb,1e308,20\nc,5,30\nd,7,40\n")
    schema.write_text("id=identifier,categorical,none\nsize=feature,continuous,primary_size\n"
                      "effort=effort,continuous,none\n")
    assert main(["pipeline", "--data", str(data), "--schema", str(schema), *FAST, "--set", "jobs=1",
                 "--out", str(out)]) == 2
    assert ("error: project 'a': column 'size': value -1e+308 has a magnitude outside [1e-50, 1e50]"
            in capsys.readouterr().err)
    assert not out.exists()


SIZE = ColumnSpec("size", "feature", "continuous", "primary_size")
X = ColumnSpec("x", "feature", "continuous", "none")
SIZES = [float(i) for i in range(1, 11)]
XS = [float(7 * i % 10) for i in range(10)]
ROWS = list(zip(SIZES, XS))
EFFORTS = [10.0 * s + 3.0 * x for s, x in ROWS]
DEGENERATE = {
    "constant_feature": ([SIZE, X], [(s, 5.0) for s in SIZES], EFFORTS),
    "zero_sizes": ([SIZE, X], [(0.0, x) for x in XS], EFFORTS),
    "duplicate_rows": ([SIZE, X], ROWS[:5] * 2, EFFORTS),
    "n_is_k_max_plus_2": ([SIZE, X], ROWS[:7], EFFORTS[:7]),
    "categorical_only": ([ColumnSpec("lang", "feature", "categorical", "none"),
                          ColumnSpec("team", "feature", "categorical", "none")],
                         [("java" if i % 2 else "c", f"t{i % 3}") for i in range(10)], EFFORTS),
    "constant_efforts": ([SIZE, X], ROWS, [100.0] * 10),
    "near_constant_efforts": ([SIZE, X], ROWS, [100.0 * (1 + 1e-9 * i) for i in range(10)]),
    "identical_features": ([SIZE, X], [(4.0, 2.0)] * 10, EFFORTS),
}


def assert_report_or_notes(dataset, config, out):
    """Run the pipeline and write its report: every variant must be finite,
    or named in ``variant_errors`` and in the notes."""
    report = run_pipeline(dataset, config)
    write_report(report, describe(dataset), out)
    for name in REPORT_FILES:
        assert (out / name).exists(), name
    labels = [variant.label for variant in enumerate_variants(config.k_max)]
    assert len(labels) == 40
    for label in labels:
        if label in report.variant_errors:
            assert label not in report.summaries
            assert f"{label} not evaluated: {report.variant_errors[label]}" in report.notes
        else:
            numbers = astuple(report.summaries[label])[1:-1]     # the fields between label and baseline
            assert all(math.isfinite(v) for v in numbers), (label, numbers)


@pytest.mark.parametrize("case", list(DEGENERATE))
def test_degenerate_input_ends_in_report_or_notes(tmp_path, case):
    config = Config(runs=200, ga_pop=10, ga_gens=5, nn_epochs=20)
    assert_report_or_notes(make_dataset(case, *DEGENERATE[case]), config, tmp_path / "report")


@st.composite
def degenerate_datasets(draw):
    """The (schema, rows, efforts) of 3-13 projects and 1-3 features drawn
    around the DEGENERATE cases, with continuous features in [0.5, 100] and
    efforts in [1, 500], each then scaled to a magnitude within the load-time
    bound of [1e-50, 1e50], beyond it, or left as it is."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.one_of(st.just(7), st.integers(3, 13)))      # 7 = k_max + 2
    if draw(st.booleans()):
        kinds = ["categorical"] * draw(st.integers(1, 3))
        schema = [ColumnSpec(f"c{j}", "feature", "categorical", "none") for j in range(len(kinds))]
    else:
        kinds = [draw(st.sampled_from(["random", "constant", "zero"]))]
        kinds += draw(st.lists(st.sampled_from(["random", "constant", "copy", "categorical"]), max_size=2))
        schema = [SIZE] + [ColumnSpec(f"f{j}", "feature", "categorical" if kind == "categorical"
                                      else "continuous", "none") for j, kind in enumerate(kinds[1:])]
    scale = draw(st.sampled_from([1.0, 1e48, 1e-48, 1e300, 1e-300, 2.2e-319]))
    columns = []
    for kind in kinds:
        if kind == "categorical":
            columns.append(rng.choice(["a", "b", "c"][:draw(st.integers(1, 3))], size=n).tolist())
        elif kind == "copy":
            columns.append(columns[0])
        else:
            columns.append({"random": (rng.uniform(0.5, 100.0, size=n) * scale).tolist(),
                            "constant": [5.0 * scale] * n, "zero": [0.0] * n}[kind])
    rows = list(zip(*columns))
    for _ in range(draw(st.integers(0, 3))):                 # duplicate rows
        rows[int(rng.integers(n))] = rows[int(rng.integers(n))]
    if draw(st.booleans()):                                  # all-identical features
        rows = [rows[0]] * n
    efforts = {"random": rng.uniform(1.0, 500.0, size=n).tolist(), "constant": [100.0] * n,
               "near_constant": [100.0 * (1 + 1e-9 * i) for i in range(n)]}
    efforts = efforts[draw(st.sampled_from(list(efforts)))]
    scale = draw(st.sampled_from([1.0, 1e47, 1e-49, 1e150, 1e-310]))
    return schema, rows, [e * scale for e in efforts]


# draws beyond the bound that the fixed budgets do not reach: a subnormal
# feature, a 1e300 feature and subnormal efforts
BEYOND_BOUND = (
    ([SIZE], [(2.2e-319,), (4.4e-319,), (0.0,)], [1.0, 2.0, 3.0]),
    ([SIZE], [(1.0,), (1e300,), (3.0,)], [1.0, 2.0, 3.0]),
    ([SIZE], [(1.0,), (2.0,), (3.0,)], [1e-310, 2e-310, 3e-310]),
)


def first_value_beyond_bound(schema, rows, efforts):
    """(project index, column name) of the first value that is not 0 and
    whose magnitude lies outside [1e-50, 1e50], row by row and each row's
    continuous features before its effort; None when there is none."""
    for r, (row, effort) in enumerate(zip(rows, efforts)):
        cells = [(col.name, value) for col, value in zip(schema, row) if col.kind == "continuous"]
        for name, value in cells + [("effort", effort)]:
            if value != 0 and not 1e-50 <= abs(value) <= 1e50:
                return r, name
    return None


@settings(max_examples=60, deadline=None, derandomize=True)
@given(degenerate_datasets())
@example(BEYOND_BOUND[0])
@example(BEYOND_BOUND[1])
@example(BEYOND_BOUND[2])
def test_degenerate_input_matrix_ends_in_report_or_notes(drawn):
    beyond = first_value_beyond_bound(*drawn)
    if beyond is not None:
        with pytest.raises(DatasetError, match=f"^project 'p{beyond[0] + 1}': column '{beyond[1]}': "):
            make_dataset("drawn", *drawn)
        return
    # one job keeps every fold in this process, where a warning fails the test
    config = Config(runs=100, ga_pop=4, ga_gens=2, nn_epochs=5, jobs=1)
    with tempfile.TemporaryDirectory() as out:
        assert_report_or_notes(make_dataset("drawn", *drawn), config, Path(out) / "report")


@settings(max_examples=15, deadline=None, derandomize=True)
@given(degenerate_datasets())
@example(BEYOND_BOUND[0])
@example(BEYOND_BOUND[1])
@example(BEYOND_BOUND[2])
def test_degenerate_input_matrix_through_the_command(drawn):
    # the same draws, written to disk and run by `ebae pipeline`: a value
    # beyond the bound exits 2 and names its project (the CSV's row number)
    # and column; at one job a warning fails the run, so it would not exit 0
    schema, rows, efforts = drawn
    columns = [*schema, ColumnSpec("effort", "effort")]
    with tempfile.TemporaryDirectory() as tmp:
        data, sidecar, out = Path(tmp) / "drawn.csv", Path(tmp) / "drawn.schema", Path(tmp) / "report"
        sidecar.write_text("".join(f"{c.name}={c.role},{c.kind},{c.size_flag}\n" for c in columns))
        with data.open("w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([[c.name for c in columns], *([*row, e] for row, e in zip(rows, efforts))])
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            status = main(["pipeline", "--data", str(data), "--schema", str(sidecar), "--set", "runs=100",
                           "--set", "ga.pop=4", "--set", "ga.gens=2", "--set", "nn.epochs=5",
                           "--set", "jobs=1", "--out", str(out)])
        beyond = first_value_beyond_bound(*drawn)
        if beyond is not None:
            assert status == 2 and not out.exists()
            assert err.getvalue().startswith(f"error: project '{beyond[0] + 1}': column '{beyond[1]}': ")
            return
        assert status == 0
        for name in REPORT_FILES:
            assert (out / name).exists(), name
        notes = (out / "summary.md").read_text(encoding="utf-8").splitlines()
        with (out / "variants.csv").open(encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
    assert sorted(row["variant"] for row in rows) == sorted(v.label for v in enumerate_variants(5))
    for row in rows:
        if row["kept"].startswith("error: "):
            assert f"- {row['variant']} not evaluated: {row['kept'][len('error: '):]}" in notes
        else:
            numbers = [float(row[c]) for c in ("MAE", "MMRE", "Pred25", "LSD", "MBRE", "MIBRE", "SA", "Delta")]
            assert all(math.isfinite(v) for v in numbers), row


def test_constant_efforts_report_has_no_nan(tmp_path):
    # SA5 is undefined when every effort is the same: the CSVs leave it
    # empty and summary.md says so, beside the notes that name the cause
    dataset = make_dataset("flat", [SIZE, X], ROWS[:8], [100.0] * 8)
    data, schema, out = tmp_path / "flat.csv", tmp_path / "flat.schema", tmp_path / "report"
    write_dataset(dataset, data, schema)
    assert main(["pipeline", "--data", str(data), "--schema", str(schema), *FAST, "--set", "jobs=1",
                 "--out", str(out)]) == 0
    for name in REPORT_FILES:
        assert not re.search(r"\bnan\b", (out / name).read_text(encoding="utf-8"), re.IGNORECASE), name
    for name in ("variants.csv", "filter.csv"):
        with (out / name).open(encoding="utf-8", newline="") as fh:
            assert all(row["SA5"] == "" for row in csv.DictReader(fh)), name
    summary = (out / "summary.md").read_text(encoding="utf-8")
    assert "| 0.0000 | 0.0000 | undefined |" in summary
    assert "- EBA1 not evaluated: standardized accuracy undefined: constant efforts (MAE_p0 = 0)" in summary


def read_csv(path):
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def assert_same_floats(cells, values):
    """Each CSV cell parses back to exactly its report value (NaN as "nan")."""
    assert len(cells) == len(values) > 0
    for cell, value in zip(cells, values):
        assert float(cell) == value or (math.isnan(value) and cell == "nan"), (cell, value)


METRIC_COLUMNS = {"MAE": "mae", "MMRE": "mmre", "Pred25": "pred25", "LSD": "lsd", "MBRE": "mbre",
                  "MIBRE": "mibre", "SA": "sa", "Delta": "delta"}


def test_report_floats_read_back_exactly(tmp_path, albrecht):
    # csv writes each float as its shortest round-trip repr, so float(cell)
    # is the report's own value (test_constant_efforts_report_has_no_nan
    # checks the empty SA5 of a NaN)
    report = run_pipeline(albrecht, Config(runs=200, ga_pop=10, ga_gens=5, nn_epochs=20, jobs=1))
    out = tmp_path / "report"
    write_report(report, describe(albrecht), out)
    variants = read_csv(out / "variants.csv")
    for column, field in METRIC_COLUMNS.items():
        assert_same_floats([row[column] for row in variants],
                           [getattr(report.summaries[row["variant"]], field) for row in variants])
    verdicts = read_csv(out / "filter.csv")
    for rows in (variants, verdicts):
        assert_same_floats([row["SA5"] for row in rows], [report.baseline.sa5] * len(rows))
    assert_same_floats([row["SA"] for row in verdicts], [v.sa for v in report.verdicts])
    assert_same_floats([row["Delta"] for row in verdicts], [v.delta for v in report.verdicts])

    sk = read_csv(out / "scott_knott.csv")
    assert_same_floats([row["mean_transformed_ae"] for row in sk],
                       [mean for cluster in report.sk_singles.clusters for mean in cluster.means])
    assert_same_floats([row["mae"] for row in sk], [report.summaries[row["variant"]].mae for row in sk])
    ensembles = read_csv(out / "ensembles.csv")
    for column, field in METRIC_COLUMNS.items():
        assert_same_floats([row[column] for row in ensembles],
                           [getattr(report.ensemble_summaries[row["ensemble"]], field) for row in ensembles])
    for name, outcome, column in (("borda.csv", report.borda_singles, "variant"),
                                  ("joint_ranking.csv", report.borda_joint, "method")):
        rows = read_csv(out / name)
        assert_same_floats([row["xi"] for row in rows],
                           [outcome.xi.get(row[column], float("nan")) for row in rows])

    tables = {**report.tables, **report.ensemble_tables}
    for name, result in (("transformed_ae_singles.csv", report.sk_singles),
                         ("transformed_ae_joint.csv", report.sk_joint)):
        rows = read_csv(out / "plotdata" / name)
        values = [apply_transform(tables[member].aes, result.transform)
                  for cluster in result.clusters for member in cluster.members]
        assert_same_floats([row["transformed_ae"] for row in rows], np.concatenate(values).tolist())
    assert_same_floats([row["mean_transformed_ae"] for row in read_csv(out / "plotdata" / "two_way_types.csv")],
                       [mean for cluster in report.two_way.clusters for mean in cluster.means])


def test_pipeline_hash_identical_across_runs_and_parallelism(tmp_path):
    outs = [tmp_path / n for n in ("r1", "r2", "r3")]
    main(["pipeline", *TOY_ARGS, *FAST, "--set", "seed=5", "--out", str(outs[0])])
    main(["pipeline", *TOY_ARGS, *FAST, "--set", "seed=5", "--out", str(outs[1])])
    main(["pipeline", *TOY_ARGS, *FAST, "--set", "seed=5", "--set", "jobs=3", "--out", str(outs[2])])
    digests = {directory_digest(o) for o in outs}
    assert len(digests) == 1


def test_runs_flag_plumbs_to_baseline(tmp_path):
    out1, out2 = tmp_path / "x", tmp_path / "y"
    main(["pipeline", *TOY_ARGS, *FAST[2:], "--set", "runs=200", "--out", str(out1)])
    main(["pipeline", *TOY_ARGS, *FAST[2:], "--set", "runs=2000", "--out", str(out2)])

    def sa5(path):
        with (path / "variants.csv").open() as fh:
            return {row["SA5"] for row in csv.DictReader(fh)}

    assert sa5(out1) != sa5(out2)


@pytest.mark.parametrize("flag", [["--seed", "1"], ["--runs", "200"], ["--alpha", "0.01"], ["--k-max", "4"]])
def test_removed_setting_flags_are_unrecognized(tmp_path, capsys, flag):
    # every run setting is a --set key; the flags that shadowed four of them are gone
    with pytest.raises(SystemExit) as exc:
        main(["pipeline", *TOY_ARGS, *flag, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_repeated_set_key_fails_fast(tmp_path, capsys):
    code = main(["pipeline", *TOY_ARGS, "--set", "seed=4", "--set", "seed=5", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "error: config key 'seed' set twice" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_unknown_set_key_fails_fast(tmp_path, capsys):
    code = main(["pipeline", *TOY_ARGS, "--set", "bogus=1", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "unknown config key" in capsys.readouterr().err


def test_set_without_equals_fails_fast(tmp_path, capsys):
    code = main(["pipeline", *TOY_ARGS, "--set", "ga.pop", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "bad --set argument 'ga.pop': expected KEY=VALUE" in capsys.readouterr().err


# settings that are constants, no longer keys: the learners' in ``ebae.learners``
# and the significance level ``ebae.stats.ALPHA``
FIXED_KEYS = {"mt.min_leaf", "mt.max_depth", "nn.hidden", "nn.lr", "ga.cx", "ga.mut", "ga.range", "alpha"}


@pytest.mark.parametrize("args, key", [
    (["--set", "mt.min_leaf=0"], "mt.min_leaf"),
    (["--set", "ga.pop=0"], "ga.pop"),
    (["--set", "nn.hidden=-1"], "nn.hidden"),
    (["--set", "ga.range=-1"], "ga.range"),
    (["--set", "k_max=0"], "k_max"),
    (["--set", "k_max=1.5"], "k_max"),
    (["--set", "alpha=0.01"], "alpha"),
    (["--set", "alpha=0.2"], "alpha"),
    (["--set", "alpha=1.5"], "alpha"),
    (["--set", "alpha=nan"], "alpha"),
    (["--set", "nn.epochs=-1"], "nn.epochs"),
    (["--set", "ga.gens=-1"], "ga.gens"),
    (["--set", "ga.cx=1.5"], "ga.cx"),
    (["--set", "ga.cx=-0.1"], "ga.cx"),
    (["--set", "ga.mut=-0.5"], "ga.mut"),
    (["--set", "nn.lr=-0.01"], "nn.lr"),
    (["--set", "nn.lr=0"], "nn.lr"),
    (["--set", "runs=50"], "runs"),
    (["--set", "jobs=0"], "jobs"),
    (["--set", "seed=abc"], "seed"),
    (["--set", "mt.max_depth=-1"], "mt.max_depth"),
])
def test_out_of_range_config_value_fails_fast(tmp_path, capsys, args, key):
    code = main(["pipeline", *TOY_ARGS, *args, "--out", str(tmp_path / "o")])
    assert code == 1
    message = f"unknown config key {key!r}" if key in FIXED_KEYS else f"bad value for {key}:"
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_set_keys_are_the_config_fields():
    assert config._KEYS == {
        "seed": "seed", "runs": "runs", "k_max": "k_max", "jobs": "jobs",
        "nn.epochs": "nn_epochs", "ga.pop": "ga_pop", "ga.gens": "ga_gens",
    }


def pipeline_must_not_run(monkeypatch):
    def run_pipeline(*args, **kwargs):
        pytest.fail("the pipeline ran before --out was checked")

    monkeypatch.setattr(ensemble, "run_pipeline", run_pipeline)


def test_pipeline_out_naming_a_file_fails_and_keeps_it(tmp_path, capsys, monkeypatch):
    pipeline_must_not_run(monkeypatch)
    out = tmp_path / "report.txt"
    out.write_bytes(b"not a report\n")
    assert main(["pipeline", *TOY_ARGS, *FAST, "--set", "jobs=1", "--out", str(out)]) == 1
    assert f"error: report path {out} exists and is not a directory" in capsys.readouterr().err
    assert out.read_bytes() == b"not a report\n"
    assert [path.name for path in tmp_path.iterdir()] == ["report.txt"]


def test_pipeline_overwrites_existing_report(tmp_path):
    out = tmp_path / "report"
    out.mkdir()
    (out / "summary.md").write_text("old")
    assert main(["pipeline", *TOY_ARGS, *FAST, "--out", str(out)]) == 0
    assert (out / "summary.md").read_text().startswith("# Pipeline report: toy")
    assert [name for name in REPORT_FILES if not (out / name).is_file()] == []


@pytest.mark.parametrize("foreign", ["thesis.txt", "sub/", "plotdata/extra.csv", "summary.md/", "plotdata"])
def test_pipeline_refuses_out_holding_other_files(tmp_path, capsys, monkeypatch, foreign):
    # a directory that holds anything a report does not is left as it is,
    # whatever report files it also holds
    pipeline_must_not_run(monkeypatch)
    out = tmp_path / "precious"
    out.mkdir()
    (out / "variants.csv").write_text("old")
    if foreign != "plotdata":
        (out / "plotdata").mkdir()
    if foreign.endswith("/"):
        (out / foreign).mkdir()
        (out / foreign / "notes.txt").write_text("keep")
    else:
        (out / foreign).write_text("keep")

    def contents():
        return sorted((p.relative_to(tmp_path).as_posix(), p.is_dir() or p.read_bytes()) for p in tmp_path.rglob("*"))

    before = contents()
    assert main(["pipeline", *TOY_ARGS, *FAST, "--set", "jobs=1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: report path {out} holds {out / foreign.rstrip('/')}, which is not part of a report" in err
    assert contents() == before


def test_write_report_checks_out_itself(tmp_path, toy):
    report = run_pipeline(toy, Config(runs=100, ga_pop=4, ga_gens=2, nn_epochs=5, jobs=1))
    (tmp_path / "report.txt").write_text("keep")
    (tmp_path / "precious").mkdir()
    (tmp_path / "precious" / "thesis.txt").write_text("keep")
    with pytest.raises(NotADirectoryError, match="exists and is not a directory"):
        write_report(report, describe(toy), tmp_path / "report.txt")
    with pytest.raises(FileExistsError, match="which is not part of a report"):
        write_report(report, describe(toy), tmp_path / "precious")
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
        "precious", "precious/thesis.txt", "report.txt"]


def test_pipeline_follows_a_symlinked_out(tmp_path):
    # the report replaces the link's target; the link stays a link and
    # nothing is left renamed aside
    real, links = tmp_path / "real", tmp_path / "symt"
    real.mkdir()
    (real / "summary.md").write_text("old")
    links.mkdir()
    (links / "out").symlink_to(real)
    assert main(["pipeline", *TOY_ARGS, *FAST, "--set", "jobs=1", "--out", str(links / "out")]) == 0
    assert [path.name for path in links.iterdir()] == ["out"]
    assert (links / "out").is_symlink() and (links / "out").resolve() == real
    assert sorted(path.name for path in tmp_path.iterdir()) == ["real", "symt"]
    assert {p.relative_to(real).as_posix() for p in real.rglob("*")} == cli.REPORT_PATHS
    assert (real / "summary.md").read_text().startswith("# Pipeline report: toy")


def test_report_directory_has_a_plain_mkdirs_mode(tmp_path):
    # the report replaces an empty directory of another mode
    out = tmp_path / "report"
    out.mkdir(mode=0o700)
    umask = os.umask(0o022)
    try:
        assert main(["pipeline", *TOY_ARGS, *FAST, "--set", "jobs=1", "--out", str(out)]) == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE((out / "plotdata").stat().st_mode) == 0o755


def test_failed_rename_keeps_old_report(tmp_path, monkeypatch, toy):
    out = tmp_path / "report"
    out.mkdir()
    (out / "summary.md").write_text("old")
    report = run_pipeline(toy, Config(runs=100, ga_pop=4, ga_gens=2, nn_epochs=5, jobs=1))
    rename, failed = os.rename, []

    def fail_into_out_once(src, dst):
        if Path(dst) == out and not failed:
            failed.append(src)
            raise OSError("rename failed")
        rename(src, dst)

    monkeypatch.setattr(cli.os, "rename", fail_into_out_once)
    with pytest.raises(OSError, match="rename failed"):
        write_report(report, describe(toy), out)
    assert [path.name for path in tmp_path.iterdir()] == ["report"]      # no temp dir is left
    assert [path.name for path in out.iterdir()] == ["summary.md"]
    assert (out / "summary.md").read_text() == "old"
