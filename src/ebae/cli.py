"""Command-line front end: dataset description, variant evaluation, pipeline runs.

Exit codes: 0 success, 1 evaluation failure, 2 dataset/schema problems.
All outputs are deterministic functions of (input files, flags, seed); the
report directory is assembled in a temporary location and atomically moved
into place.
"""

from __future__ import annotations

import argparse
import csv
import os
import shutil
import sys
import tempfile
from pathlib import Path

from .config import Config, with_overrides
from .data import DatasetError, describe, load_dataset
from .ensemble import evaluate_grid, filter_actual_predictors, run_pipeline
from .stats import apply_transform
from .validation import dataset_baseline

VARIANT_COLUMNS = (
    "variant", "MAE", "MMRE", "Pred25", "LSD", "MBRE", "MIBRE",
    "SA", "Delta", "SA5", "fallback_count", "kept",
)


def _write_csv(path, header, rows):
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(value):
    if isinstance(value, float):
        return repr(value)
    return value


def _variant_rows(summaries, verdicts, base, errors):
    kept = {v.variant: v.kept for v in verdicts}
    rows = []
    for label, s in summaries.items():
        rows.append([
            label, _fmt(s.mae), _fmt(s.mmre), _fmt(s.pred25), _fmt(s.lsd),
            _fmt(s.mbre), _fmt(s.mibre), _fmt(s.sa), _fmt(s.delta),
            _fmt(base.sa5), s.fallback_count, kept.get(label, False),
        ])
    for label, message in errors.items():
        rows.append([label, "", "", "", "", "", "", "", "", _fmt(base.sa5), "", f"error: {message}"])
    return rows


def _cluster_rows(result):
    """(cluster number, member, mean) of a Scott-Knott result, best cluster first."""
    if result is None:
        return
    for ci, cluster in enumerate(result.clusters, start=1):
        for member, mean in zip(cluster.members, cluster.means):
            yield ci, member, mean


def _ranking_rows(outcome, order):
    """(rank, candidate, score, rank change) of a Borda outcome in ``order``."""
    for c in order:
        yield outcome.ranks[c], c, outcome.scores[c], outcome.xi.get(c, float("nan"))


def _rank_order(outcome):
    """Candidates by rank, ties by label."""
    return sorted(outcome.candidates, key=lambda c: (outcome.ranks[c], str(c)))


def _pct(x):
    return f"{100.0 * x:.1f}"


def _md_table(header, rows):
    lines = ["| " + " | ".join(header) + " |", "|" + "|".join("---" for _ in header) + "|"]
    lines += ["| " + " | ".join(str(c) for c in row) + " |" for row in rows]
    return "\n".join(lines) + "\n"


def _summary_markdown(report, stats):
    cfg = report.config
    base = report.baseline
    out = [f"# Pipeline report: {report.dataset_name}", ""]
    out.append(
        f"Projects: {report.n}, features: {report.m}, seed: {cfg.seed}, "
        f"baseline runs: {cfg.runs}, alpha: {cfg.alpha}."
    )
    out.append("")
    out.append("## Dataset")
    out.append(_md_table(
        ("n", "m", "min", "max", "mean", "median", "skew"),
        [(stats.n, stats.m, f"{stats.minimum:g}", f"{stats.maximum:g}",
          f"{stats.mean:.2f}", f"{stats.median:.2f}", f"{stats.skewness:.2f}")],
    ))
    out.append("## Random-guessing baseline")
    out.append(_md_table(
        ("MAE_p0", "SP0", "SA at 5% quantile"),
        [(f"{base.mae_p0:.4f}", f"{base.sp0:.4f}", _pct(base.sa5) + "%")],
    ))
    if report.ks_statistic is not None:
        verdict = "rejected" if report.ks_reject else "not rejected"
        out.append(
            f"Normality of pooled survivor absolute errors: KS statistic "
            f"{report.ks_statistic:.4f}, normality {verdict} at alpha {cfg.alpha}."
        )
        out.append("")

    out.append("## Variant accuracy (SA% / effect size)")
    rows = [
        (label, _pct(s.sa), f"{s.delta:.2f}", f"{s.mae:.2f}", "yes" if label in report.survivors else "no")
        for label, s in report.summaries.items()
    ]
    out.append(_md_table(("variant", "SA", "effect size", "MAE", "kept"), rows))

    if report.sk_singles is not None:
        out.append("## Error clusters of surviving variants (best first)")
        t = report.sk_singles.transform
        out.append(
            f"Box-Cox lambda {t.box_cox_lambda:.2f}, shift {t.shift:g}; "
            f"alpha {report.sk_singles.alpha}."
        )
        rows = [(ci, name, f"{mean:.4f}", f"{report.summaries[name].mae:.2f}")
                for ci, name, mean in _cluster_rows(report.sk_singles)]
        out.append(_md_table(("cluster", "variant", "mean transformed AE", "MAE"), rows))

    if report.borda_singles is not None:
        out.append("## Borda ranking of the best cluster")
        rows = [(rank, c, score, f"{xi:.2f}")
                for rank, c, score, xi in _ranking_rows(report.borda_singles, report.best_ranking)]
        out.append(_md_table(("rank", "method", "score", "rank change"), rows))

    if report.ensembles:
        out.append("## Ensembles (mean aggregation over ranking prefixes)")
        rows = [
            (e.label, " ".join(e.members), _pct(report.ensemble_summaries[e.label].sa),
             f"{report.ensemble_summaries[e.label].delta:.2f}",
             f"{report.ensemble_summaries[e.label].mae:.2f}")
            for e in report.ensembles
        ]
        out.append(_md_table(("ensemble", "members", "SA", "effect size", "MAE"), rows))

    if report.borda_joint is not None:
        out.append("## Joint ranking: best singles and ensembles")
        joint = report.borda_joint
        rows = [(rank, c, score, f"{xi:.2f}")
                for rank, c, score, xi in _ranking_rows(joint, _rank_order(joint))]
        out.append(_md_table(("rank", "method", "score", "rank change"), rows))

    if report.mean_rank_ensembles is not None or report.mean_rank_singles is not None:
        out.append("## Mean joint rank")
        fmt = lambda v: "-" if v is None else f"{v:.2f}"
        out.append(_md_table(
            ("ensemble methods", "single methods"),
            [(fmt(report.mean_rank_ensembles), fmt(report.mean_rank_singles))],
        ))

    if report.best_k:
        out.append("## Best k per adjustment method (by mean transformed AE)")
        rows = [(m, report.best_k[m][0]) for m in sorted(report.best_k)]
        out.append(_md_table(("method", "best k"), rows))

    if report.two_way is not None:
        out.append("## Adjustment-type clusters (two-way decomposition over k)")
        rows = [(ci, name, f"{mean:.4f}") for ci, name, mean in _cluster_rows(report.two_way)]
        out.append(_md_table(("cluster", "type", "mean transformed AE"), rows))

    if report.notes:
        out.append("## Notes")
        out.extend(f"- {note}" for note in report.notes)
        out.append("")
    return "\n".join(out)


def write_report(report, stats, out_dir):
    """Write the report directory atomically (build in a temp dir, then rename)."""
    out_dir = Path(out_dir)
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=out_dir.name + ".", dir=out_dir.parent))
    try:
        base = report.baseline
        _write_csv(
            staging / "variants.csv", VARIANT_COLUMNS,
            _variant_rows(report.summaries, report.verdicts, base, report.variant_errors),
        )
        _write_csv(
            staging / "filter.csv",
            ("variant", "SA", "Delta", "SA5", "kept", "reason"),
            [(v.variant, _fmt(v.sa), _fmt(v.delta), _fmt(base.sa5), v.kept, v.reason)
             for v in report.verdicts],
        )
        _write_csv(staging / "scott_knott.csv",
                   ("cluster", "variant", "mean_transformed_ae", "mae"),
                   [(ci, name, _fmt(mean), _fmt(report.summaries[name].mae))
                    for ci, name, mean in _cluster_rows(report.sk_singles)])
        borda_rows = []
        if report.borda_singles is not None:
            borda_rows = [(rank, c, score, _fmt(xi)) for rank, c, score, xi
                          in _ranking_rows(report.borda_singles, report.best_ranking)]
        _write_csv(staging / "borda.csv", ("rank", "variant", "score", "xi"), borda_rows)
        _write_csv(
            staging / "ensembles.csv",
            ("ensemble", "members", "MAE", "MMRE", "Pred25", "LSD", "MBRE", "MIBRE", "SA", "Delta"),
            [(e.label, "|".join(e.members), _fmt(s.mae), _fmt(s.mmre), _fmt(s.pred25),
              _fmt(s.lsd), _fmt(s.mbre), _fmt(s.mibre), _fmt(s.sa), _fmt(s.delta))
             for e in report.ensembles
             for s in [report.ensemble_summaries[e.label]]],
        )
        joint, joint_rows = report.borda_joint, []
        if joint is not None:
            joint_rows = [(rank, c, score, _fmt(xi))
                          for rank, c, score, xi in _ranking_rows(joint, _rank_order(joint))]
        _write_csv(staging / "joint_ranking.csv", ("rank", "method", "score", "xi"), joint_rows)

        plotdata = staging / "plotdata"
        plotdata.mkdir()
        for name, result, tables in (
            ("transformed_ae_singles.csv", report.sk_singles, report.tables),
            ("transformed_ae_joint.csv", report.sk_joint,
             {**report.tables, **report.ensemble_tables}),
        ):
            rows = [(ci, member, _fmt(float(v)))
                    for ci, member, _ in _cluster_rows(result)
                    for v in apply_transform(tables[member].aes, result.transform)]
            _write_csv(plotdata / name, ("cluster", "method", "transformed_ae"), rows)
        _write_csv(plotdata / "two_way_types.csv", ("cluster", "type", "mean_transformed_ae"),
                   [(ci, name, _fmt(mean)) for ci, name, mean in _cluster_rows(report.two_way)])

        (staging / "summary.md").write_text(_summary_markdown(report, stats), encoding="utf-8")

        if out_dir.exists():
            shutil.rmtree(out_dir)
        os.rename(staging, out_dir)
    except Exception:
        shutil.rmtree(staging, ignore_errors=True)
        raise


def _build_config(args):
    overrides = {}
    for pair in args.set or []:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ValueError(f"bad --set argument {pair!r}: expected KEY=VALUE")
        overrides[key] = value
    config = with_overrides(Config(), overrides)
    env_seed = os.environ.get("EBAE_SEED")
    updates = {}
    if env_seed is not None and args.seed is None and "seed" not in overrides:
        updates["seed"] = env_seed
    for flag in ("seed", "runs", "alpha", "k_max"):
        value = getattr(args, flag)
        if value is not None:
            updates[flag] = str(value)
    return with_overrides(config, updates)


def _add_paths(parser):
    parser.add_argument("--data", required=True, help="dataset CSV path")
    parser.add_argument("--schema", required=True, help="schema sidecar path")


def _add_run_options(parser):
    """Run settings (defaults from ``Config``) and the report directory."""
    parser.add_argument("--seed", type=int, default=None,
                        help=f"global seed (default {Config.seed}; EBAE_SEED overrides the default)")
    parser.add_argument("--runs", type=int, default=None, help=f"baseline Monte-Carlo runs (default {Config.runs})")
    parser.add_argument("--alpha", type=float, default=None, help=f"Scott-Knott significance level (default {Config.alpha})")
    parser.add_argument("--k-max", dest="k_max", type=int, default=None, help=f"largest analogy count (default {Config.k_max})")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="config override, e.g. --set ga.pop=30 (repeatable); LOOCV runs in one "
                             "worker process per usable core, --set jobs=1 runs it in this process alone")
    parser.add_argument("--out", default="./report", help="report directory (default ./report)")


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


def cmd_evaluate(args):
    dataset = load_dataset(args.data, args.schema)
    config = _build_config(args)
    base = dataset_baseline(dataset, config)
    _, summaries, errors = evaluate_grid(dataset, config, base)
    _, verdicts = filter_actual_predictors(summaries, base)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "variants.csv", VARIANT_COLUMNS,
               _variant_rows(summaries, verdicts, base, errors))
    print(f"wrote {out / 'variants.csv'} ({len(summaries)} variants evaluated)")
    return 0


def cmd_pipeline(args):
    dataset = load_dataset(args.data, args.schema)
    config = _build_config(args)
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
    p_eval = sub.add_parser("evaluate", help="LOOCV-evaluate every variant, write variants.csv")
    _add_paths(p_eval)
    _add_run_options(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)
    p_pipe = sub.add_parser("pipeline", help="run the full selection/ensembling pipeline")
    _add_paths(p_pipe)
    _add_run_options(p_pipe)
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
