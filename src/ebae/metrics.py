"""Error measures and the random-guessing baseline.

Absolute error and MRE are computed from raw predictions. Log residuals (and
the balanced relative errors, which divide by predictions) clamp predictions
to a small positive floor so a degenerate estimate cannot produce infinities.
MMRE and Pred(0.25) are reported for benchmarking only and never drive
selection or ranking.

``summarize_stack`` summarizes tables that share one actuals column as the
rows of one prediction matrix, each measure one reduction along the rows;
``summarize`` of one table is its one-row case. The per-table measures
(``mae``, ``lsd_and_variance`` and the others) define each measure on one
table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Efforts whose expected random-guessing error is at most this fraction of the
# largest effort count as constant. SA divides by MAE_p0, so below this the
# rounding of the recorded efforts (relative 2**-53 of the largest) would be
# amplified by max / MAE_p0 into the accuracy itself.
CONSTANT_EFFORT_RTOL = 1e-6


@dataclass(frozen=True, eq=False, slots=True)
class PredictionTable:
    """Per-project outcomes of one leave-one-out run of a variant or ensemble.

    Columnar: ``project_ids`` is a tuple and ``actuals`` and ``predictions``
    float arrays, all in the same project order. The error columns are
    derived from them on each access, so a kept table holds no copy of them.
    Tables compare equal when every column is exactly equal.
    """

    variant: str
    project_ids: tuple
    actuals: np.ndarray
    predictions: np.ndarray
    floor: float
    fallback_count: int = 0

    def __len__(self):
        return len(self.project_ids)

    @property
    def aes(self):
        return np.abs(self.actuals - self.predictions)

    @property
    def mres(self):
        return self.aes / self.actuals

    @property
    def log_residuals(self):
        return np.log(self.actuals) - np.log(np.maximum(self.predictions, self.floor))

    def __eq__(self, other):
        if not isinstance(other, PredictionTable):
            return NotImplemented
        return (
            (self.variant, self.project_ids, self.floor, self.fallback_count)
            == (other.variant, other.project_ids, other.floor, other.fallback_count)
            and np.array_equal(self.actuals, other.actuals)
            and np.array_equal(self.predictions, other.predictions)
        )


@dataclass(frozen=True, slots=True)
class BaselineStats:
    """Random-guessing reference for one dataset.

    ``mae_p0`` is the exact expectation of guessing each project's effort by
    sampling uniformly from the other projects' efforts; ``sp0`` and ``sa5``
    come from a seeded Monte-Carlo simulation of that guessing strategy.
    """

    mae_p0: float
    sp0: float
    sa5: float
    runs: int
    seed: int

    @property
    def degenerate(self):
        return self.mae_p0 == 0.0


@dataclass(frozen=True, slots=True)
class EvalSummary:
    variant: str
    mae: float
    mmre: float
    pred25: float
    lsd: float
    s2: float
    mbre: float
    mibre: float
    sa: float
    delta: float
    fallback_count: int


def log_floor(efforts):
    """Positive floor for log-based measures: 1e-6 of the median effort."""
    return 1e-6 * float(np.median(np.asarray(efforts, dtype=float)))


def build_table(variant, ids, actuals, predictions, floor, fallback_count=0):
    """Columnar table of per-project errors. Each project has AE
    |actual - prediction|, MRE AE / actual and log residual
    log(actual) - log(max(prediction, floor)): the floor applies to the log
    only. A non-positive actual effort is a ValueError.

    A read-only float ``actuals`` array (a dataset's effort column) and an
    ``ids`` tuple are shared by the table rather than copied; anything else
    is copied, so a caller's writable array is never frozen or aliased.
    """
    if not (isinstance(actuals, np.ndarray) and actuals.dtype == float and not actuals.flags.writeable):
        actuals = np.array(actuals, dtype=float)
    predictions = np.array(predictions, dtype=float)
    if np.any(actuals <= 0):
        raise ValueError(f"actual effort must be positive, got {actuals[actuals <= 0][0]}")
    predictions.flags.writeable = False
    actuals.flags.writeable = False
    return PredictionTable(variant, tuple(ids), actuals, predictions, floor, fallback_count)


def mae(table):
    return float(np.mean(table.aes))


def mmre(table):
    return float(np.mean(table.mres))


def pred25(table):
    """Percentage of projects with MRE <= 0.25 (the boundary counts as within)."""
    return float(100.0 * np.mean(table.mres <= 0.25))


def lsd_and_variance(table):
    """(LSD, s^2) of the log residuals: LSD is
    sqrt(sum((lam_i + s^2/2)^2) / (n - 1)) with s^2 their sample variance.
    """
    lams = table.log_residuals
    if lams.size < 2:
        raise ValueError("LSD needs at least 2 rows")
    s2 = float(np.var(lams, ddof=1))
    return float(np.sqrt(np.sum((lams + s2 / 2.0) ** 2) / (lams.size - 1))), s2


def mbre_mibre(table):
    """Mean balanced and mean inverted balanced relative error."""
    e = table.actuals
    p = np.maximum(table.predictions, table.floor)
    ae = np.abs(e - p)
    return float(np.mean(ae / np.minimum(e, p))), float(np.mean(ae / np.maximum(e, p)))


def exact_random_mae(efforts):
    """Closed-form expected MAE of uniform random guessing: the double mean of
    |e_t - e_r| over every target t and every other project r."""
    e = np.asarray(efforts, dtype=float)
    diffs = np.abs(e[:, None] - e[None, :])
    n = e.size
    per_target = (diffs.sum(axis=1)) / (n - 1)   # diagonal terms are zero
    return float(per_target.mean())


def baseline(efforts, runs, seed):
    """Random-guessing baseline statistics for one effort column.

    The expectation is computed exactly; the run-to-run spread (``sp0``) and
    the 5%-quantile accuracy gate (``sa5``) are estimated by simulating
    ``runs`` guessing rounds, each predicting every project by one uniformly
    drawn other project. Efforts constant to within ``CONSTANT_EFFORT_RTOL``
    give the degenerate baseline, as exactly constant ones do.
    """
    e = np.asarray(efforts, dtype=float)
    n = e.size
    if n < 3:
        raise ValueError("baseline needs at least 3 efforts")
    if runs < 100:
        raise ValueError("baseline needs at least 100 runs")
    mae_p0 = exact_random_mae(e)
    if mae_p0 <= CONSTANT_EFFORT_RTOL * float(np.max(np.abs(e))):
        return BaselineStats(mae_p0=0.0, sp0=0.0, sa5=float("nan"), runs=runs, seed=seed)
    rng = np.random.default_rng(seed)
    others = rng.integers(0, n - 1, size=(runs, n))
    others += others >= np.arange(n)             # uniform over the n-1 indices != t
    # in place: |e[other] - e[t]| equals |e[t] - e[other]| exactly, and the
    # (runs, n) temporaries never outnumber two
    errors = e[others]
    errors -= e
    run_maes = np.mean(np.abs(errors, out=errors), axis=1)
    # baseline is public and takes any efforts: a spread too large to square is inf, which effect_size names
    with np.errstate(over="ignore"):
        sp0 = float(np.std(run_maes, ddof=1))
    sa5 = 1.0 - float(np.percentile(run_maes, 5.0)) / mae_p0
    return BaselineStats(mae_p0=mae_p0, sp0=sp0, sa5=sa5, runs=runs, seed=seed)


def standardized_accuracy(mae_value, base):
    """SA = 1 - MAE / MAE_p0; the fraction of random-guessing error removed."""
    if base.degenerate:
        raise ValueError("standardized accuracy undefined: constant efforts (MAE_p0 = 0)")
    return 1.0 - mae_value / base.mae_p0


def effect_size(mae_value, base):
    """Improvement over random guessing in units of its run-to-run deviation.

    Positive when the model beats random guessing; 0.2 / 0.5 / 0.8 mark
    small / medium / large effects.
    """
    if base.sp0 <= 0:
        raise ValueError("effect size undefined: zero baseline deviation")
    if not np.isfinite(base.sp0):          # a public baseline of any efforts may overflow
        raise ValueError("effect size undefined: baseline deviation overflows")
    return (base.mae_p0 - mae_value) / base.sp0


def summarize_stack(tables, base):
    """Evaluation summaries of ``tables``, which share one actuals column and
    log floor, against a baseline, in their order.

    Their predictions are stacked as the rows of one C-contiguous (tables, n)
    matrix, and each measure is one reduction along its rows. numpy reduces
    each contiguous row as it reduces that row alone, so every summary equals
    the one-row stack of its own table (``summarize``) bit for bit. Raises
    ValueError, for every table alike, where LSD, SA or the effect size is
    undefined.
    """
    tables = list(tables)
    first = tables[0]
    actuals, floor = first.actuals, first.floor
    if any(t.floor != floor or not np.array_equal(t.actuals, actuals) for t in tables):
        raise ValueError("stacked tables must share their actuals and log floor")
    if actuals.size < 2:
        raise ValueError("LSD needs at least 2 rows")
    predictions = np.stack([t.predictions for t in tables])
    aes = np.abs(actuals - predictions)
    maes = np.mean(aes, axis=1)
    mres = aes / actuals
    floored = np.maximum(predictions, floor)
    lams = np.log(actuals) - np.log(floored)
    s2 = np.var(lams, axis=1, ddof=1)
    lsd = np.sqrt(np.sum((lams + (s2 / 2.0)[:, None]) ** 2, axis=1) / (actuals.size - 1))
    balanced = np.abs(actuals - floored)
    columns = (
        maes,
        np.mean(mres, axis=1),
        100.0 * np.mean(mres <= 0.25, axis=1),
        lsd,
        s2,
        np.mean(balanced / np.minimum(actuals, floored), axis=1),
        np.mean(balanced / np.maximum(actuals, floored), axis=1),
        standardized_accuracy(maes, base),
        effect_size(maes, base),
    )
    return [EvalSummary(t.variant, *values, t.fallback_count)
            for t, values in zip(tables, zip(*(column.tolist() for column in columns)))]


def summarize(table, base):
    """Full evaluation summary of one prediction table against a baseline:
    the one-row case of ``summarize_stack``."""
    return summarize_stack([table], base)[0]
