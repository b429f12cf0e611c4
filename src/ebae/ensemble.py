"""Ensemble construction pipeline.

Stages: evaluate every (method, k) variant under LOOCV; keep the variants
that beat the random-guessing gate (SA above the 5% quantile) with a
better-than-medium effect size; Scott-Knott the survivors on Box-Cox
transformed absolute errors and keep the best cluster; Borda-rank that
cluster over MAE, LSD, MBRE and MIBRE; build Top2..TopM mean-aggregation
ensembles from the ranking prefixes; then re-evaluate and jointly re-rank
ensembles and best singles. Any stage failure is recorded and later stages
degrade rather than abort.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .adjust import enumerate_variants
from .metrics import build_table, summarize
from .ranking import borda_rank, profile_from_measures
from .stats import box_cox, ks_normality, scott_knott, scott_knott_two_way
from .validation import dataset_baseline, loocv_grid

# ranking voter -> EvalSummary attribute; the order is the profile's voter order
MEASURE_VOTERS = {"MAE": "mae", "LSD": "lsd", "MBRE": "mbre", "MIBRE": "mibre"}
EFFECT_SIZE_GATE = 0.5


@dataclass(frozen=True)
class EnsembleSpec:
    """TopZ: the first Z variants of the best-cluster Borda ranking."""

    z: int
    members: tuple

    def __post_init__(self):
        if self.z != len(self.members) or self.z < 2:
            raise ValueError("TopZ needs exactly Z >= 2 members")
        if len(set(self.members)) != self.z:
            raise ValueError("ensemble members must be distinct")

    @property
    def label(self):
        return f"Top{self.z}"


@dataclass(frozen=True)
class Verdict:
    variant: str
    sa: float
    delta: float
    kept: bool
    reason: str          # empty when kept


@dataclass
class PipelineReport:
    dataset_name: str
    n: int
    m: int
    config: object
    baseline: object
    summaries: dict = field(default_factory=dict)       # label -> EvalSummary (variants)
    tables: dict = field(default_factory=dict)          # label -> PredictionTable (variants)
    variant_errors: dict = field(default_factory=dict)  # label -> error message
    verdicts: list = field(default_factory=list)
    survivors: list = field(default_factory=list)
    ks_statistic: float | None = None
    ks_reject: bool | None = None
    sk_singles: object | None = None                    # ScottKnottResult
    best_cluster: list = field(default_factory=list)
    borda_singles: object | None = None                 # RankingOutcome
    best_ranking: list = field(default_factory=list)    # flat, tie-broken
    ensembles: list = field(default_factory=list)       # EnsembleSpec
    ensemble_summaries: dict = field(default_factory=dict)
    ensemble_tables: dict = field(default_factory=dict)
    sk_joint: object | None = None
    borda_joint: object | None = None
    mean_rank_ensembles: float | None = None
    mean_rank_singles: float | None = None
    best_k: dict = field(default_factory=dict)          # method -> (k, mean transformed AE)
    two_way: object | None = None                       # ScottKnottResult over method types
    notes: list = field(default_factory=list)


def filter_actual_predictors(summaries, base):
    """Keep variants with SA above the 5% random-guessing quantile and a
    better-than-medium effect size; every variant gets a recorded verdict."""
    verdicts = []
    survivors = []
    for label, summary in summaries.items():
        reasons = []
        if not summary.sa > base.sa5:
            reasons.append(f"SA {summary.sa:.4f} <= SA5 {base.sa5:.4f}")
        if not summary.delta > EFFECT_SIZE_GATE:
            reasons.append(f"effect size {summary.delta:.4f} <= {EFFECT_SIZE_GATE}")
        kept = not reasons
        verdicts.append(Verdict(label, summary.sa, summary.delta, kept, "; ".join(reasons)))
        if kept:
            survivors.append(label)
    return survivors, verdicts


def pooled_transform(tables, labels):
    """One Box-Cox transform fitted on the pooled absolute errors of ``labels``.

    Returns (label -> transformed errors, the fitted TransformSpec). Every
    table has one row per project, so the fit's own output splits into equal
    groups, each equal to ``apply_transform`` of that label's errors.
    """
    values, spec = box_cox(np.concatenate([tables[label].aes for label in labels]))
    return dict(zip(labels, np.split(values, len(labels)))), spec


def select_best_cluster(tables, survivors):
    """Scott-Knott the survivors on transformed absolute errors and return
    (best-cluster labels, clustering result carrying its transform)."""
    if len(survivors) < 2:
        return list(survivors), None
    groups, spec = pooled_transform(tables, survivors)
    result = scott_knott(groups)
    return list(result.clusters[0].members), replace(result, transform=spec)


def measure_values(summaries, labels):
    """Voter -> {candidate: value} for the four ranking measures (smaller is better)."""
    return {
        voter: {label: getattr(summaries[label], attr) for label in labels}
        for voter, attr in MEASURE_VOTERS.items()
    }


def rank_candidates(summaries, labels):
    """Borda outcome plus a flat order: score, then the MAE voter, then the id."""
    values = measure_values(summaries, labels)
    profile = profile_from_measures(values, candidates=labels)
    outcome = borda_rank(profile)
    mae_values = values["MAE"]
    flat = sorted(labels, key=lambda c: (-outcome.scores[c], mae_values[c], str(c)))
    return outcome, flat


def build_ensembles(ranked):
    """Top2..TopM prefixes of a flat Borda-ranked variant list."""
    if len(ranked) < 2:
        return []
    return [EnsembleSpec(z=z, members=tuple(ranked[:z])) for z in range(2, len(ranked) + 1)]


def ensemble_table(spec, tables):
    """Fold-level ensemble predictions: the exact per-row mean of the member
    tables computed once per variant (no refitting), with the members' ids,
    actuals and log floor."""
    member_tables = [tables[label] for label in spec.members]
    first = member_tables[0]
    predictions = np.mean([t.predictions for t in member_tables], axis=0)
    return build_table(spec.label, first.project_ids, first.actuals, predictions, first.floor)


def _joint_stage(report):
    """Joint Scott-Knott + Borda over best singles and ensembles."""
    candidates = list(report.best_cluster) + [e.label for e in report.ensembles]
    if len(candidates) < 2:
        report.notes.append("joint ranking skipped: fewer than 2 candidates")
        return
    tables = {**report.tables, **report.ensemble_tables}
    summaries = {**report.summaries, **report.ensemble_summaries}
    groups, spec = pooled_transform(tables, candidates)
    report.sk_joint = replace(scott_knott(groups), transform=spec)
    outcome, _ = rank_candidates(summaries, candidates)
    report.borda_joint = outcome
    ensemble_labels = {e.label for e in report.ensembles}
    ranks_e = [outcome.ranks[c] for c in candidates if c in ensemble_labels]
    ranks_s = [outcome.ranks[c] for c in candidates if c not in ensemble_labels]
    report.mean_rank_ensembles = float(np.mean(ranks_e)) if ranks_e else None
    report.mean_rank_singles = float(np.mean(ranks_s)) if ranks_s else None


def _per_method_stages(report, variants):
    """Best-k per method and the two-way (method type x k) clustering of the
    evaluated ``variants``, those with a table, both on one transform fitted
    over their pooled absolute errors."""
    variants = [variant for variant in variants if variant.label in report.tables]
    if len(variants) < 2:
        return
    groups, spec = pooled_transform(report.tables, [variant.label for variant in variants])
    for variant in variants:
        current = report.best_k.get(variant.method)
        candidate = (variant.k, float(np.mean(groups[variant.label])))
        if current is None or candidate[1] < current[1]:
            report.best_k[variant.method] = candidate
    cells = {(variant.method, variant.k): groups[variant.label] for variant in variants}
    if len({variant.method for variant in variants}) >= 2:
        try:
            report.two_way = replace(scott_knott_two_way(cells), transform=spec)
        except ValueError as exc:
            report.notes.append(f"two-way clustering skipped: {exc}")


def run_pipeline(dataset, config):
    """Run the whole selection / ranking / ensembling pipeline on one dataset."""
    base = dataset_baseline(dataset, config)
    report = PipelineReport(
        dataset_name=dataset.name, n=dataset.n, m=dataset.m, config=config, baseline=base
    )

    variants = enumerate_variants(config.k_max)
    report.tables, errors = loocv_grid(dataset, variants, config)
    for label, table in report.tables.items():
        try:
            report.summaries[label] = summarize(table, base)
        except ValueError as exc:
            errors[label] = str(exc)
    report.variant_errors = {v.label: errors[v.label] for v in variants if v.label in errors}
    report.notes += [f"{label} not evaluated: {message}"
                     for label, message in report.variant_errors.items()]

    report.survivors, report.verdicts = filter_actual_predictors(report.summaries, base)

    if report.survivors:
        pooled = np.concatenate([report.tables[s].aes for s in report.survivors])
        try:
            report.ks_statistic, report.ks_reject = ks_normality(pooled)
        except ValueError as exc:
            report.notes.append(f"normality check skipped: {exc}")

    report.best_cluster, report.sk_singles = select_best_cluster(report.tables, report.survivors)
    if report.sk_singles is None:
        report.notes.append("fewer than 2 surviving variants: no clustering, no ensembles")

    if len(report.best_cluster) >= 2:
        report.borda_singles, report.best_ranking = rank_candidates(
            report.summaries, report.best_cluster
        )
        report.ensembles = build_ensembles(report.best_ranking)
    else:
        report.best_ranking = list(report.best_cluster)
        report.notes.append("best cluster has fewer than 2 members: no ensembles")

    for spec in report.ensembles:
        table = ensemble_table(spec, report.tables)
        report.ensemble_tables[spec.label] = table
        report.ensemble_summaries[spec.label] = summarize(table, base)

    _joint_stage(report)
    _per_method_stages(report, variants)
    return report
