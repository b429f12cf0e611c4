"""Row-at-a-time references for the columnar report path: each table
summarized from its own one-dimensional measures, and the plotdata of a
Scott-Knott result written by ``csv.writer``, one transformed absolute error
per row."""

import csv
import io

from ebae.metrics import (
    EvalSummary,
    effect_size,
    lsd_and_variance,
    mae,
    mbre_mibre,
    mmre,
    pred25,
    standardized_accuracy,
)
from ebae.stats import apply_transform


def summarize_table(table, base):
    """The summary of one table from the per-table measures."""
    mae_value = mae(table)
    lsd_value, s2 = lsd_and_variance(table)
    mbre_value, mibre_value = mbre_mibre(table)
    return EvalSummary(
        variant=table.variant, mae=mae_value, mmre=mmre(table), pred25=pred25(table),
        lsd=lsd_value, s2=s2, mbre=mbre_value, mibre=mibre_value,
        sa=standardized_accuracy(mae_value, base), delta=effect_size(mae_value, base),
        fallback_count=table.fallback_count,
    )


def transformed_ae_csv(result, tables):
    """The bytes of a plotdata file of ``result``: its header, then (cluster
    number, member, transformed AE) rows, each member's errors transformed
    on their own."""
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(("cluster", "method", "transformed_ae"))
    for ci, cluster in enumerate(result.clusters, start=1):
        for member in cluster.members:
            for v in apply_transform(tables[member].aes, result.transform).tolist():
                writer.writerow((ci, member, v))
    return fh.getvalue().encode("utf-8")
