"""Seeded synthetic effort datasets for the benchmark workloads.

Each generator writes a CSV plus schema pair that ``ebae.load_dataset``
reads, so the benchmark measures the real load path. A workload's fixtures
form a family: one fixed base draw, and per fixture index a shuffled row
order with every effort jittered by about 2%. The family keeps each
workload's shape (n, m, zero counts, fallbacks) and its accuracy level
steady across seeds, so accuracy metrics compare runs rather than draws,
while no two indices give the same bytes. The same index gives
byte-identical files wherever numpy's PCG64 stream and ``repr(float)``
match.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

FAMILY = 16          # fixture indices per workload; the benchmark uses seed % FAMILY
CHINA_N = 100        # projects per fixture; reference.json holds values for these sizes
MIXED_N = 80
EFFORT_JITTER = 0.02

# Column layout of datasets/china.schema (499 function-point projects).
CHINA_SIZE = ("Input", "Output", "Enquiry", "File", "Interface", "Added", "Changed", "Deleted")
CHINA_OTHER = ("PDR_AFP", "PDR_UFP", "NPDR_AFP", "NPDU_UFP", "Resource", "Dev.Type", "Duration")

# Maxwell-like mixed schema: 6 continuous features, 10 categorical ratings.
MIXED_CONT = ("Size", "Screens", "Reports", "Duration", "Nlan", "Time")
MIXED_CAT = ("App", "Har", "Dba", "Ifc", "Source", "T01", "T02", "T03", "T04", "T05")


def _num(x):
    return repr(float(x))


def _write(stem, index, header, schema_lines, ids, features, efforts):
    """Write fixture ``index`` of a base draw: rows shuffled, efforts jittered."""
    rng = np.random.default_rng([1703, 4568, 99, index])
    order = rng.permutation(len(ids))
    efforts = efforts * rng.lognormal(0.0, EFFORT_JITTER, len(ids))
    csv_path = Path(f"{stem}_{index}.csv")
    schema_path = Path(f"{stem}_{index}.schema")
    schema_path.write_text("".join(line + "\n" for line in schema_lines), encoding="utf-8")
    with csv_path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([ids[i], *features[i], _num(efforts[i])] for i in order)
    return csv_path, schema_path


def china_screen(index, out_dir):
    """China-shaped continuous fixture: lognormal AFP and effort, ~30% zero
    size-related counts, and the ignored ``N_effort`` alias of the target."""
    rng = np.random.default_rng([1703, 4568, 1])
    n = CHINA_N
    afp = np.maximum(5.0, np.round(rng.lognormal(np.log(250.0), 1.0, n)))
    shares = rng.dirichlet(np.ones(len(CHINA_SIZE)), n)
    counts = np.round(shares * afp[:, None] * rng.uniform(0.8, 1.2, (n, 1)) * 1.5)
    counts[rng.random(counts.shape) < 0.3] = 0.0
    productivity = rng.lognormal(np.log(8.0), 0.5, n)
    effort = np.maximum(1.0, np.round(afp * productivity * rng.lognormal(0.0, 0.3, n)))
    pdr_afp = np.round(productivity * rng.lognormal(0.0, 0.4, n), 1)
    other = np.column_stack([
        pdr_afp,
        np.round(pdr_afp * rng.uniform(0.9, 1.1, n), 1),
        np.round(pdr_afp * rng.lognormal(0.0, 0.2, n), 1),
        np.round(pdr_afp * rng.lognormal(0.0, 0.2, n), 1),
        rng.integers(1, 5, n).astype(float),
        rng.integers(0, 3, n).astype(float),
        np.maximum(1.0, np.round(rng.lognormal(np.log(8.0), 0.6, n))),
    ])
    n_effort = np.round(effort * rng.uniform(1.0, 1.2, n))

    header = ["ID", "AFP", *CHINA_SIZE, *CHINA_OTHER, "N_effort", "Effort"]
    schema = ["ID=identifier,categorical,none", "AFP=feature,continuous,primary_size"]
    schema += [f"{c}=feature,continuous,size_related" for c in CHINA_SIZE]
    schema += [f"{c}=feature,continuous,none" for c in CHINA_OTHER]
    schema += ["N_effort=ignored,continuous,none", "Effort=effort,continuous,none"]
    features = [
        [_num(afp[i]), *map(_num, counts[i]), *map(_num, other[i]), _num(n_effort[i])]
        for i in range(n)
    ]
    ids = [f"c{i + 1}" for i in range(n)]
    return _write(Path(out_dir) / "china_screen", index, header, schema, ids, features, effort)


def mixed_screen(index, out_dir):
    """Maxwell-like fixture: 6 continuous and 10 categorical features, with
    about 5% of projects at size 0 so the size-based adjusters fall back."""
    rng = np.random.default_rng([1703, 4568, 2])
    n = MIXED_N
    size = np.maximum(10.0, np.round(rng.lognormal(np.log(600.0), 0.8, n)))
    size[rng.random(n) < 0.05] = 0.0
    screens = np.round(size / 20.0 * rng.lognormal(0.0, 0.3, n))
    reports = np.round(size / 40.0 * rng.lognormal(0.0, 0.4, n))
    levels = rng.integers(1, 6, (n, len(MIXED_CAT)))
    # Ratings above the middle level make a project slower; two drivers dominate.
    drivers = np.exp(
        0.15 * (levels[:, 5] - 3) + 0.1 * (levels[:, 6] - 3) + 0.03 * (levels - 3).sum(axis=1)
    )
    scale = np.where(size > 0, size, rng.uniform(50.0, 150.0, n))
    effort = np.maximum(1.0, np.round(8.0 * scale * drivers * rng.lognormal(0.0, 0.35, n)))
    cont = np.column_stack([
        size,
        screens,
        reports,
        np.maximum(1.0, np.round(rng.lognormal(np.log(15.0), 0.5, n))),
        rng.integers(1, 5, n).astype(float),
        rng.integers(1, 10, n).astype(float),
    ])

    header = ["ID", *MIXED_CONT, *MIXED_CAT, "Effort"]
    schema = ["ID=identifier,categorical,none", "Size=feature,continuous,primary_size"]
    schema += [f"{c}=feature,continuous,size_related" for c in MIXED_CONT[1:3]]
    schema += [f"{c}=feature,continuous,none" for c in MIXED_CONT[3:]]
    schema += [f"{c}=feature,categorical,none" for c in MIXED_CAT]
    schema += ["Effort=effort,continuous,none"]
    features = [
        [*map(_num, cont[i]), *(f"{c.lower()}{v}" for c, v in zip(MIXED_CAT, levels[i]))]
        for i in range(n)
    ]
    ids = [f"m{i + 1}" for i in range(n)]
    return _write(Path(out_dir) / "mixed_screen", index, header, schema, ids, features, effort)
