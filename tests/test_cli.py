import csv
import hashlib
import math
import os
from dataclasses import astuple
from pathlib import Path

import pytest

from ebae.adjust import enumerate_variants
from ebae.cli import main, write_report
from ebae.config import Config
from ebae.data import ColumnSpec, describe
from ebae.ensemble import run_pipeline

from .conftest import DATASETS, make_dataset

TOY_ARGS = ["--data", str(DATASETS / "toy.csv"), "--schema", str(DATASETS / "toy.schema")]
FAST = ["--runs", "200", "--set", "ga.pop=10", "--set", "ga.gens=5", "--set", "nn.epochs=20"]
REPORT_FILES = (
    "variants.csv", "filter.csv", "scott_knott.csv", "borda.csv", "ensembles.csv", "joint_ranking.csv",
    "summary.md", "plotdata/transformed_ae_singles.csv", "plotdata/transformed_ae_joint.csv",
    "plotdata/two_way_types.csv",
)


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


@pytest.mark.parametrize("flag", [["--runs", "200"], ["--seed", "1"], ["--set", "ga.pop=10"],
                                  ["--out", "rep"]])
def test_describe_rejects_run_settings(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["describe", *TOY_ARGS, *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_evaluate_writes_variant_grid(tmp_path):
    out = tmp_path / "rep"
    assert main(["evaluate", *TOY_ARGS, *FAST, "--out", str(out)]) == 0
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


def test_evaluate_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["evaluate", *TOY_ARGS, *FAST, "--seed", "7", "--out", str(out1)])
    main(["evaluate", *TOY_ARGS, *FAST, "--seed", "7", "--out", str(out2)])
    assert (out1 / "variants.csv").read_bytes() == (out2 / "variants.csv").read_bytes()


def test_evaluate_and_pipeline_write_same_variants(tmp_path):
    evaluated, piped = tmp_path / "evaluate", tmp_path / "pipeline"
    assert main(["evaluate", *TOY_ARGS, *FAST, "--seed", "7", "--out", str(evaluated)]) == 0
    assert main(["pipeline", *TOY_ARGS, *FAST, "--seed", "7", "--out", str(piped)]) == 0
    assert (evaluated / "variants.csv").read_bytes() == (piped / "variants.csv").read_bytes()


def test_pipeline_artifacts_present(tmp_path):
    out = tmp_path / "report"
    assert main(["pipeline", *TOY_ARGS, *FAST, "--out", str(out)]) == 0
    for name in REPORT_FILES:
        assert (out / name).exists(), name


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


@pytest.mark.parametrize("case", list(DEGENERATE))
def test_degenerate_input_ends_in_report_or_notes(tmp_path, case):
    config = Config(runs=200, ga_pop=10, ga_gens=5, nn_epochs=20)
    dataset = make_dataset(case, *DEGENERATE[case])
    report = run_pipeline(dataset, config)
    write_report(report, describe(dataset), tmp_path / "report")
    for name in REPORT_FILES:
        assert (tmp_path / "report" / name).exists(), name
    labels = [variant.label for variant in enumerate_variants(config.k_max)]
    assert len(labels) == 40
    for label in labels:
        if label in report.variant_errors:
            assert label not in report.summaries
            assert f"{label} not evaluated: {report.variant_errors[label]}" in report.notes
        else:
            numbers = astuple(report.summaries[label])[1:-1]     # the fields between label and baseline
            assert all(math.isfinite(v) for v in numbers), (label, numbers)


def test_pipeline_hash_identical_across_runs_and_parallelism(tmp_path):
    outs = [tmp_path / n for n in ("r1", "r2", "r3")]
    main(["pipeline", *TOY_ARGS, *FAST, "--seed", "5", "--out", str(outs[0])])
    main(["pipeline", *TOY_ARGS, *FAST, "--seed", "5", "--out", str(outs[1])])
    main(["pipeline", *TOY_ARGS, *FAST, "--seed", "5", "--set", "jobs=3", "--out", str(outs[2])])
    digests = {directory_digest(o) for o in outs}
    assert len(digests) == 1


def test_pipeline_alpha_flag_changes_clustering(tmp_path):
    # lower alpha can only coarsen the clustering
    import numpy as np

    data = tmp_path / "groups.csv"
    schema = tmp_path / "groups.schema"
    rng = np.random.default_rng(2)
    rows = ["id,size,effort"]
    for i, s in enumerate(np.linspace(1, 50, 30)):
        rows.append(f"g{i},{s},{max(0.5, 3 * s + rng.normal(0, 4)):.3f}")
    data.write_text("\n".join(rows) + "\n")
    schema.write_text(
        "id=identifier,categorical,none\nsize=feature,continuous,primary_size\neffort=effort,continuous,none\n"
    )
    args = ["--data", str(data), "--schema", str(schema), *FAST]
    out1, out2 = tmp_path / "a05", tmp_path / "a01"
    assert main(["pipeline", *args, "--out", str(out1)]) == 0
    assert main(["pipeline", *args, "--alpha", "0.01", "--out", str(out2)]) == 0

    def clusters(path):
        with (path / "scott_knott.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        return max((int(r["cluster"]) for r in rows), default=0)

    assert clusters(out2) <= clusters(out1)


def test_runs_flag_plumbs_to_baseline(tmp_path):
    out1, out2 = tmp_path / "x", tmp_path / "y"
    main(["evaluate", *TOY_ARGS, *FAST[2:], "--runs", "200", "--out", str(out1)])
    main(["evaluate", *TOY_ARGS, *FAST[2:], "--runs", "2000", "--out", str(out2)])

    def sa5(path):
        with (path / "variants.csv").open() as fh:
            return {row["SA5"] for row in csv.DictReader(fh)}

    assert sa5(out1) != sa5(out2)


def test_env_seed_used_as_default(tmp_path, monkeypatch):
    out1, out2, out3 = tmp_path / "e1", tmp_path / "e2", tmp_path / "e3"
    monkeypatch.setenv("EBAE_SEED", "9")
    main(["evaluate", *TOY_ARGS, *FAST, "--out", str(out1)])
    monkeypatch.delenv("EBAE_SEED")
    main(["evaluate", *TOY_ARGS, *FAST, "--seed", "9", "--out", str(out2)])
    main(["evaluate", *TOY_ARGS, *FAST, "--seed", "10", "--out", str(out3)])
    assert (out1 / "variants.csv").read_bytes() == (out2 / "variants.csv").read_bytes()
    assert (out1 / "variants.csv").read_bytes() != (out3 / "variants.csv").read_bytes()


def test_unknown_set_key_fails_fast(tmp_path, capsys):
    code = main(["evaluate", *TOY_ARGS, "--set", "bogus=1", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "unknown config key" in capsys.readouterr().err


def test_set_without_equals_fails_fast(tmp_path, capsys):
    code = main(["evaluate", *TOY_ARGS, "--set", "ga.pop", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "bad --set argument 'ga.pop': expected KEY=VALUE" in capsys.readouterr().err


@pytest.mark.parametrize("args, key", [
    (["--set", "mt.min_leaf=0"], "mt.min_leaf"),
    (["--set", "ga.pop=0"], "ga.pop"),
    (["--set", "nn.hidden=-1"], "nn.hidden"),
    (["--set", "ga.range=-1"], "ga.range"),
    (["--set", "k_max=0"], "k_max"),
    (["--k-max", "0"], "k_max"),
    (["--alpha", "1.5"], "alpha"),
    (["--alpha", "0"], "alpha"),
    (["--set", "alpha=1"], "alpha"),
    (["--set", "alpha=nan"], "alpha"),
    (["--set", "nn.epochs=-1"], "nn.epochs"),
    (["--set", "ga.gens=-1"], "ga.gens"),
    (["--set", "ga.cx=1.5"], "ga.cx"),
    (["--set", "ga.cx=-0.1"], "ga.cx"),
    (["--set", "ga.mut=-0.5"], "ga.mut"),
    (["--set", "nn.lr=-0.01"], "nn.lr"),
    (["--set", "nn.lr=0"], "nn.lr"),
    (["--runs", "50"], "runs"),
    (["--set", "jobs=0"], "jobs"),
])
def test_out_of_range_config_value_fails_fast(tmp_path, capsys, args, key):
    code = main(["pipeline", *TOY_ARGS, *args, "--out", str(tmp_path / "o")])
    assert code == 1
    assert f"bad value for {key}:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_pipeline_overwrites_existing_report(tmp_path):
    out = tmp_path / "report"
    out.mkdir()
    (out / "stale.txt").write_text("old")
    assert main(["pipeline", *TOY_ARGS, *FAST, "--out", str(out)]) == 0
    assert not (out / "stale.txt").exists()
    assert (out / "summary.md").exists()
