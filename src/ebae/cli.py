"""Command-line front end: dataset description and pipeline runs, which write the report.

Every run setting is a ``Config`` field, set by ``--set KEY=VALUE`` under the
keys of ``config._KEYS`` (``seed``, ``runs``, ``k_max``, ``jobs``, ``nn.epochs``,
``ga.pop``, ``ga.gens``); a key may be given once. Exit codes: 0 success, 1 a bad
setting, a refused report path or an evaluation failure, 2 dataset/schema
problems. All outputs are deterministic functions of (input files, settings)
for one numpy build on one CPU kernel set: another BLAS kernel or SIMD dispatch
can move the last bits of GA and NN values and Box-Cox outputs, and with
them the report bytes. The report path (``--out``) must be absent, an empty
directory or an earlier report, and is checked before the pipeline runs: the
report is built in a temporary directory beside it and renamed into place, and
any other file or directory there is an error that leaves it untouched. A
symlinked ``--out`` is followed, so the report replaces the link's target.
``REPORT_PATHS`` lists every path a report holds, and ``REPORT_CSVS`` each
CSV's header row.

The pipeline's modules are imported by ``cmd_pipeline`` and the report
writer, not at module level, so ``ebae describe`` imports ``ebae.config`` and
``ebae.data`` alone.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import shutil
import sys
import tempfile
from itertools import chain
from pathlib import Path

from .config import Config, with_overrides
from .data import DatasetError, describe, load_dataset


def _write_csv(path, header, rows):
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# Every CSV of a report, by its path relative to the report directory, with its header row.
REPORT_CSVS = {
    "variants.csv": ("variant", "MAE", "MMRE", "Pred25", "LSD", "MBRE", "MIBRE", "SA", "Delta", "SA5",
                     "fallback_count", "kept"),
    "filter.csv": ("variant", "SA", "Delta", "SA5", "kept", "reason"),
    "scott_knott.csv": ("cluster", "variant", "mean_transformed_ae", "mae"),
    "borda.csv": ("rank", "variant", "score", "xi"),
    "ensembles.csv": ("ensemble", "members", "MAE", "MMRE", "Pred25", "LSD", "MBRE", "MIBRE", "SA", "Delta"),
    "joint_ranking.csv": ("rank", "method", "score", "xi"),
    "plotdata/transformed_ae_singles.csv": ("cluster", "method", "transformed_ae"),
    "plotdata/transformed_ae_joint.csv": ("cluster", "method", "transformed_ae"),
    "plotdata/two_way_types.csv": ("cluster", "type", "mean_transformed_ae"),
}
# Every path that ``write_report`` writes, relative to the report directory.
REPORT_PATHS = frozenset({*REPORT_CSVS, "summary.md", "plotdata"})


def _sa5_field(base):
    """SA5 for a CSV field: empty where constant efforts leave it undefined."""
    return "" if math.isnan(base.sa5) else base.sa5


def _variant_rows(report):
    sa5 = _sa5_field(report.baseline)
    for label, s in report.summaries.items():
        yield (label, s.mae, s.mmre, s.pred25, s.lsd, s.mbre, s.mibre, s.sa, s.delta, sa5,
               s.fallback_count, label in report.survivors)
    for label, message in report.variant_errors.items():
        yield label, "", "", "", "", "", "", "", "", sa5, "", f"error: {message}"


def _cluster_rows(result):
    """(cluster number, member, mean) of a Scott-Knott result, best cluster first."""
    if result is None:
        return
    for ci, cluster in enumerate(result.clusters, start=1):
        for member, mean in zip(cluster.members, cluster.means):
            yield ci, member, mean


def _ranking_rows(outcome, order=None):
    """(rank, candidate, score, rank change) of a Borda outcome, in ``order``
    or else best score group first; none without an outcome."""
    if outcome is None:
        return
    for c in chain.from_iterable(outcome.groups) if order is None else order:
        yield outcome.ranks[c], c, outcome.scores[c], outcome.xi.get(c, float("nan"))


def _transformed_ae_rows(result, tables):
    """(cluster number, member, transformed AE) of every absolute error of a
    Scott-Knott result's members, whose tables are in ``tables``."""
    from .stats import apply_transform

    for ci, member, _ in _cluster_rows(result):
        for v in apply_transform(tables[member].aes, result.transform).tolist():
            yield ci, member, v


def _csv_rows(report):
    """The rows of each ``REPORT_CSVS`` file, in that table's order. Each is a
    generator, so no file's rows exist before the file is written."""
    sa5 = _sa5_field(report.baseline)
    return (
        _variant_rows(report),
        ((v.variant, v.sa, v.delta, sa5, v.kept, v.reason) for v in report.verdicts),
        ((ci, name, mean, report.summaries[name].mae) for ci, name, mean in _cluster_rows(report.sk_singles)),
        _ranking_rows(report.borda_singles, report.best_ranking),
        ((e.label, "|".join(e.members), s.mae, s.mmre, s.pred25, s.lsd, s.mbre, s.mibre, s.sa, s.delta)
         for e in report.ensembles for s in [report.ensemble_summaries[e.label]]),
        _ranking_rows(report.borda_joint),
        _transformed_ae_rows(report.sk_singles, report.tables),
        _transformed_ae_rows(report.sk_joint, {**report.tables, **report.ensemble_tables}),
        _cluster_rows(report.two_way),
    )


def _pct(x):
    return f"{100.0 * x:.1f}"


def _md_table(header, rows):
    lines = ["| " + " | ".join(header) + " |", "|" + "|".join("---" for _ in header) + "|"]
    lines += ["| " + " | ".join(str(c) for c in row) + " |" for row in rows]
    return "\n".join(lines) + "\n"


def _summary_markdown(report, stats):
    from .stats import ALPHA

    cfg = report.config
    base = report.baseline
    out = [f"# Pipeline report: {report.dataset_name}", "",
           f"Projects: {report.n}, features: {report.m}, seed: {cfg.seed}, "
           f"baseline runs: {cfg.runs}, alpha: {ALPHA}.", ""]

    def section(title, header, rows, *intro):
        out.extend((f"## {title}", *intro, _md_table(header, rows)))

    def ranking(title, outcome, order=None):
        section(title, ("rank", "method", "score", "rank change"),
                [(rank, c, score, f"{xi:.2f}") for rank, c, score, xi in _ranking_rows(outcome, order)])

    section("Dataset", ("n", "m", "min", "max", "mean", "median", "skew"),
            [(stats.n, stats.m, f"{stats.minimum:g}", f"{stats.maximum:g}",
              f"{stats.mean:.2f}", f"{stats.median:.2f}", f"{stats.skewness:.2f}")])
    sa5 = "undefined" if math.isnan(base.sa5) else _pct(base.sa5) + "%"
    section("Random-guessing baseline", ("MAE_p0", "SP0", "SA at 5% quantile"),
            [(f"{base.mae_p0:.4f}", f"{base.sp0:.4f}", sa5)])
    if report.ks_statistic is not None:
        verdict = "rejected" if report.ks_reject else "not rejected"
        out.append(
            f"Normality of pooled survivor absolute errors: KS statistic "
            f"{report.ks_statistic:.4f}, normality {verdict} at alpha {ALPHA}."
        )
        out.append("")

    section("Variant accuracy (SA% / effect size)", ("variant", "SA", "effect size", "MAE", "kept"),
            [(label, _pct(s.sa), f"{s.delta:.2f}", f"{s.mae:.2f}", "yes" if label in report.survivors else "no")
             for label, s in report.summaries.items()])
    if report.sk_singles is not None:
        t = report.sk_singles.transform
        section("Error clusters of surviving variants (best first)",
                ("cluster", "variant", "mean transformed AE", "MAE"),
                [(ci, name, f"{mean:.4f}", f"{report.summaries[name].mae:.2f}")
                 for ci, name, mean in _cluster_rows(report.sk_singles)],
                f"Box-Cox lambda {t.box_cox_lambda:.2f}, shift {t.shift:g}; alpha {ALPHA}.")
    if report.borda_singles is not None:
        ranking("Borda ranking of the best cluster", report.borda_singles, report.best_ranking)
    if report.ensembles:
        section("Ensembles (mean aggregation over ranking prefixes)",
                ("ensemble", "members", "SA", "effect size", "MAE"),
                [(e.label, " ".join(e.members), _pct(s.sa), f"{s.delta:.2f}", f"{s.mae:.2f}")
                 for e in report.ensembles for s in [report.ensemble_summaries[e.label]]])
    if report.borda_joint is not None:
        ranking("Joint ranking: best singles and ensembles", report.borda_joint)
    if report.mean_rank_ensembles is not None or report.mean_rank_singles is not None:
        fmt = lambda v: "-" if v is None else f"{v:.2f}"
        section("Mean joint rank", ("ensemble methods", "single methods"),
                [(fmt(report.mean_rank_ensembles), fmt(report.mean_rank_singles))])
    if report.best_k:
        section("Best k per adjustment method (by mean transformed AE)", ("method", "best k"),
                [(m, report.best_k[m][0]) for m in sorted(report.best_k)])
    if report.two_way is not None:
        section("Adjustment-type clusters (two-way decomposition over k)",
                ("cluster", "type", "mean transformed AE"),
                [(ci, name, f"{mean:.4f}") for ci, name, mean in _cluster_rows(report.two_way)])

    if report.notes:
        out.append("## Notes")
        out.extend(f"- {note}" for note in report.notes)
        out.append("")
    return "\n".join(out)


def _foreign_entry(out_dir):
    """The first entry of the directory ``out_dir`` that ``write_report``
    does not write, or writes as another kind (only ``plotdata`` is a
    directory); None if there is none."""
    plotdata = out_dir / "plotdata"
    entries = [*out_dir.iterdir(), *(plotdata.iterdir() if plotdata.is_dir() else ())]
    for path in sorted(entries):
        if path.relative_to(out_dir).as_posix() not in REPORT_PATHS or path.is_dir() != (path == plotdata):
            return path
    return None


def _report_dir(out_dir):
    """The directory a report at ``out_dir`` replaces: ``out_dir`` itself, or
    the target of a symlink there. A path that exists and is not a directory
    raises NotADirectoryError, and a directory that holds anything but report
    paths FileExistsError."""
    out_dir = Path(out_dir)
    if out_dir.is_symlink():
        out_dir = out_dir.resolve()
    if out_dir.exists() and not out_dir.is_dir():
        raise NotADirectoryError(f"report path {out_dir} exists and is not a directory")
    foreign = _foreign_entry(out_dir) if out_dir.exists() else None
    if foreign is not None:
        raise FileExistsError(f"report path {out_dir} holds {foreign}, which is not part of a report; "
                              "the directory is left untouched")
    return out_dir


def write_report(report, stats, out_dir):
    """Write the report directory: build it in a temp dir, then rename it into
    place. An old report there is deleted only once the new one has replaced it.
    ``out_dir`` is checked by ``_report_dir`` before anything is written."""
    out_dir = _report_dir(out_dir)
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    holder = Path(tempfile.mkdtemp(prefix=out_dir.name + ".", dir=out_dir.parent))
    try:
        # made by mkdir, so the report gets the mode a plain mkdir gives,
        # where mkdtemp's own directory is private
        staging = holder / out_dir.name
        staging.mkdir()
        (staging / "plotdata").mkdir()
        for (path, header), rows in zip(REPORT_CSVS.items(), _csv_rows(report), strict=True):
            _write_csv(staging / path, header, rows)
        (staging / "summary.md").write_text(_summary_markdown(report, stats), encoding="utf-8")

        aside = holder.with_name(holder.name + ".old")
        if out_dir.exists():
            os.rename(out_dir, aside)
        try:
            os.rename(staging, out_dir)
        except OSError:
            if aside.exists():
                os.rename(aside, out_dir)
            raise
        shutil.rmtree(aside, ignore_errors=True)
    finally:
        shutil.rmtree(holder, ignore_errors=True)


def _build_config(pairs):
    """The Config of the ``--set KEY=VALUE`` pairs, each key at most once."""
    overrides = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ValueError(f"bad --set argument {pair!r}: expected KEY=VALUE")
        if key in overrides:
            raise ValueError(f"config key {key!r} set twice")
        overrides[key] = value
    return with_overrides(Config(), overrides)


def _add_paths(parser):
    parser.add_argument("--data", required=True, help="dataset CSV path")
    parser.add_argument("--schema", required=True, help="schema sidecar path")


def cmd_describe(args):
    dataset = load_dataset(args.data, args.schema)
    stats = describe(dataset)
    print(f"dataset: {dataset.name}")
    print(f"projects (n): {stats.n}")
    print(f"features (m): {stats.m}")
    print(f"effort min: {stats.minimum:g}")
    print(f"effort max: {stats.maximum:g}")
    print(f"effort mean: {stats.mean:.4f}")
    print(f"effort median: {stats.median:.4f}")
    print(f"effort skewness: {stats.skewness:.4f}")
    if dataset.dropped_rows:
        print(f"rows dropped for missing values: {dataset.dropped_rows}")
    return 0


def cmd_pipeline(args):
    from .ensemble import run_pipeline

    dataset = load_dataset(args.data, args.schema)
    config = _build_config(args.set or [])
    _report_dir(args.out)
    report = run_pipeline(dataset, config)
    write_report(report, describe(dataset), args.out)
    print(f"wrote report to {args.out}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ebae",
        description="Analogy-based effort estimation: adjustment variants, "
                    "random-guessing baselines, clustering/ranking, ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_desc = sub.add_parser("describe", help="print effort-column statistics")
    _add_paths(p_desc)
    p_desc.set_defaults(func=cmd_describe)
    p_pipe = sub.add_parser("pipeline", help="run the full selection/ensembling pipeline, write the report")
    _add_paths(p_pipe)
    p_pipe.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="run setting, e.g. --set seed=7 or --set ga.pop=30 (repeatable, each key "
                             "once); LOOCV runs in one worker process per usable core, --set jobs=1 runs "
                             "it in this process alone")
    p_pipe.add_argument("--out", default="./report",
                        help="report directory: absent, empty or an earlier report (default ./report)")
    p_pipe.set_defaults(func=cmd_pipeline)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DatasetError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
