"""Loading, validation, and min-max normalization of effort datasets.

A dataset is a CSV file (comma separator, ``.`` decimal, header row) plus a
schema sidecar that declares every header column on its own line::

    <column>=<role>,<kind>,<size_flag>

with role in {feature, effort, identifier, ignored}, kind in
{continuous, categorical}, and size_flag in {none, primary_size,
size_related}. Rows with a missing feature or effort value are dropped (and
counted); malformed values are errors, and so is a value outside ``MAGNITUDES``:
a continuous feature value must be 0 or of a magnitude in [1e-50, 1e50], and
an effort must lie in [1e-50, 1e50]. With B = 1e50 a productivity is at most
B**2 and a size-extrapolated prediction at most B**3, so every product, ratio
and square the study forms is finite and the kernels need no overflow guards.
Raw feature values are kept untouched; only the analogy ranking scales
them, by a training fold's min-max bounds.

A Dataset holds its projects column by column: an ``ids`` tuple and
read-only arrays, each categorical column coded once as integers into its
``levels``. ``row(i)`` hands one project's values to adjustment as a
``Row(cont, cat)``; ``without(i)``, the training fold of a
leave-one-out step, slices the columns and shares the levels.
"""

from __future__ import annotations

import copy
import csv
import io
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

log = logging.getLogger(__name__)

ROLES = ("feature", "effort", "identifier", "ignored")
KINDS = ("continuous", "categorical")
SIZE_FLAGS = ("none", "primary_size", "size_related")

# Cell contents (lower-cased, stripped) treated as a missing value.
MISSING = {"", "?", "na", "nan", "null"}

# The magnitudes an effort and a nonzero continuous feature value may have. With
# B = 1e50 every quantity the study derives from raw values is a finite float:
# - a productivity (effort / size) is at most B**2, its square 1e200 (RTM correlation);
# - a size-extrapolated prediction (LSE, MLFE, RTM) at most B**3, its square 1e300 (error variances);
# - a normalized query divides at most 2B by a span of at least ulp(1/B) ~ 1.4e-66: about 1.5e116;
# - a balanced relative error is at most 1e150 / (1e-6 * 1e-50) ~ 1e206.
MAGNITUDES = (1e-50, 1e50)


class DatasetError(ValueError):
    """A dataset or schema file violates the loading contract."""


@dataclass(frozen=True)
class ColumnSpec:
    """One schema line: how a CSV column is interpreted."""

    name: str
    role: str
    kind: str = "continuous"
    size_flag: str = "none"

    def __post_init__(self):
        if self.role not in ROLES:
            raise DatasetError(f"column {self.name!r}: unknown role {self.role!r}")
        if self.kind not in KINDS:
            raise DatasetError(f"column {self.name!r}: unknown kind {self.kind!r}")
        if self.size_flag not in SIZE_FLAGS:
            raise DatasetError(f"column {self.name!r}: unknown size flag {self.size_flag!r}")
        if self.size_flag != "none" and (self.role != "feature" or self.kind != "continuous"):
            raise DatasetError(
                f"column {self.name!r}: size flags require a continuous feature column"
            )


class Row(NamedTuple):
    """One project's feature values as they sit in a Dataset's arrays."""

    cont: np.ndarray         # float64, one value per continuous feature
    cat: np.ndarray          # int64, one code into ``Dataset.levels`` per categorical feature


class Dataset:
    """Immutable project collection with derived numeric views.

    ``feature_schema`` lists the role=feature columns in file order. Row r
    is project ``ids[r]`` with effort ``efforts[r]``, continuous values in
    ``cont`` (float64) and categorical codes in ``cat`` (int64): code c of
    column j is ``levels[j][c]``, numbered by first appearance. ``bounds``
    holds the per-continuous-feature (min, max) over all rows. ``size_col``
    is the ``cont`` column of the primary size (None without one) and
    ``size_cols`` the ``cont`` columns of every size-flagged feature.

    The constructor takes the project ids, their feature tuples in schema
    order and their efforts, three sequences of one length.
    """

    def __init__(self, name, columns, ids, rows, efforts, dropped_rows=0):
        self.name = name
        self.columns = tuple(columns)
        self.dropped_rows = dropped_rows
        self.feature_schema = tuple(c for c in self.columns if c.role == "feature")
        if not self.feature_schema:
            raise DatasetError("schema declares no feature columns")
        self.cont_index = tuple(i for i, c in enumerate(self.feature_schema) if c.kind == "continuous")
        self.cat_index = tuple(i for i, c in enumerate(self.feature_schema) if c.kind == "categorical")
        cont_schema = [self.feature_schema[i] for i in self.cont_index]
        self.size_col = next((c for c, col in enumerate(cont_schema) if col.size_flag == "primary_size"), None)
        self.size_cols = tuple(c for c, col in enumerate(cont_schema) if col.size_flag != "none")

        ids, rows, efforts = tuple(ids), tuple(rows), [float(e) for e in efforts]
        n = len(ids)
        if not n == len(rows) == len(efforts):
            raise DatasetError(f"got {n} ids, {len(rows)} feature rows and {len(efforts)} efforts")
        m = len(self.feature_schema)
        if n < 3:
            raise DatasetError(f"dataset needs at least 3 projects, got {n}")
        seen = set()
        for pid, row, effort in zip(ids, rows, efforts):
            if len(row) != m:
                raise DatasetError(f"project {pid!r}: expected {m} features, got {len(row)}")
            if not effort > 0:
                raise DatasetError(f"project {pid!r}: non-positive effort {effort!r}")
            if pid in seen:
                raise DatasetError(f"duplicate project id {pid!r}")
            seen.add(pid)

        cont = np.array([[row[i] for i in self.cont_index] for row in rows], dtype=float)
        values = np.column_stack([cont, efforts])
        bad = np.argwhere((values != 0) & (np.clip(np.abs(values), *MAGNITUDES) != np.abs(values)))
        if len(bad):
            r, j = bad[0]
            name = (cont_schema + [c for c in self.columns if c.role == "effort"])[j].name
            raise DatasetError(f"project {ids[r]!r}: column {name!r}: value {float(values[r, j])!r} "
                               "has a magnitude outside [1e-50, 1e50]")
        codes = [{} for _ in self.cat_index]      # value -> code, per column
        cat = np.array([[code.setdefault(row[i], len(code)) for i, code in zip(self.cat_index, codes)]
                        for row in rows], dtype=np.int64)
        self.levels = tuple(tuple(code) for code in codes)
        self._set_rows(ids, cont, cat, np.array(efforts))

    def _set_rows(self, ids, cont, cat, efforts):
        """Install the row ids and arrays, read-only, with their bounds."""
        self.ids, self.cont, self.cat, self.efforts = ids, cont, cat, efforts
        self.bounds = (cont.min(axis=0), cont.max(axis=0))
        for arr in (cont, cat, efforts, *self.bounds):
            arr.flags.writeable = False

    @property
    def n(self):
        return len(self.ids)

    @property
    def m(self):
        return len(self.feature_schema)

    def row(self, index):
        """Row ``index`` as a (cont, cat) pair of read-only views."""
        return Row(self.cont[index], self.cat[index])

    def without(self, index):
        """The dataset minus one row; the training fold of a LOOCV step.

        The fold shares this dataset's schema and levels and slices its
        columns, so it needs no revalidation."""
        fold = copy.copy(self)
        fold._set_rows(self.ids[:index] + self.ids[index + 1:],
                       *(np.delete(arr, index, axis=0) for arr in (self.cont, self.cat, self.efforts)))
        return fold


def normalize_minmax(values, bounds):
    """Scale columns of ``values`` to [0, 1] given (mins, maxs) bounds.

    Constant columns (min == max) map to 0 everywhere: they carry no
    distance information and this avoids a zero division. Out-of-bounds
    values (a held-out project outside the training range) are clipped into
    [0, 1]; a value inside its bounds never moves, as rounding is monotone.
    """
    mins, maxs = bounds
    span = maxs - mins
    safe = np.where(span > 0, span, 1.0)
    scaled = (np.asarray(values, dtype=float) - mins) / safe
    return np.clip(np.where(span > 0, scaled, 0.0), 0.0, 1.0)


def _read_text(path):
    """A file's UTF-8 text, byte-order mark dropped and line ends kept, or a
    ``DatasetError`` that names the file."""
    try:
        return Path(path).read_bytes().decode("utf-8-sig")
    except OSError as exc:
        raise DatasetError(f"{path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def load_schema(path):
    """Parse a schema sidecar into ColumnSpecs (file order)."""
    specs = []
    seen = set()
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DatasetError(f"{path}:{lineno}: expected <column>=<role>,<kind>,<size_flag>")
        name, _, rest = line.partition("=")
        name = name.strip()
        parts = [p.strip() for p in rest.split(",")]
        if len(parts) != 3:
            raise DatasetError(f"{path}:{lineno}: expected three comma-separated fields, got {rest!r}")
        if name in seen:
            raise DatasetError(f"{path}:{lineno}: duplicate column {name!r}")
        seen.add(name)
        specs.append(ColumnSpec(name, parts[0], parts[1], parts[2]))
    if not specs:
        raise DatasetError(f"{path}: empty schema")
    efforts = [c for c in specs if c.role == "effort"]
    if len(efforts) != 1:
        raise DatasetError(f"{path}: exactly one effort column required, found {len(efforts)}")
    if efforts[0].kind != "continuous":
        raise DatasetError(f"{path}: effort column must be continuous")
    if sum(c.size_flag == "primary_size" for c in specs) > 1:
        raise DatasetError(f"{path}: at most one primary_size column allowed")
    if sum(c.role == "identifier" for c in specs) > 1:
        raise DatasetError(f"{path}: at most one identifier column allowed")
    return specs


def _parse_cell(raw, column, row_id):
    text = raw.strip()
    if text.lower() in MISSING:
        return None
    if column.kind == "categorical":
        return text
    try:
        value = float(text)
    except ValueError:
        raise DatasetError(
            f"row {row_id}: non-numeric value {raw!r} in continuous column {column.name!r}"
        ) from None
    return value


def load_dataset(data_path, schema_path):
    """Load a CSV + schema pair into a validated Dataset.

    Rows with any missing feature or effort value are dropped with a logged
    warning; all other irregularities (unknown columns, non-numeric
    continuous values, non-positive efforts, duplicate ids or header
    columns) are errors.
    """
    data_path = Path(data_path)
    specs = load_schema(schema_path)
    by_name = {c.name: c for c in specs}

    reader = csv.reader(io.StringIO(_read_text(data_path), newline=""))
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise DatasetError(f"{data_path}: empty file") from None
    repeated = sorted({h for h in header if header.count(h) > 1})
    if repeated:
        raise DatasetError(f"{data_path}: duplicate header columns: {repeated}")
    missing_in_schema = [h for h in header if h not in by_name]
    if missing_in_schema:
        raise DatasetError(f"{data_path}: columns not declared in schema: {missing_in_schema}")
    missing_in_header = [c.name for c in specs if c.name not in header]
    if missing_in_header:
        raise DatasetError(f"{data_path}: schema columns absent from header: {missing_in_header}")

    columns = [by_name[h] for h in header]
    id_pos = next((i for i, c in enumerate(columns) if c.role == "identifier"), None)
    effort_pos = next(i for i, c in enumerate(columns) if c.role == "effort")
    feature_pos = [i for i, c in enumerate(columns) if c.role == "feature"]

    ids, rows, efforts = [], [], []
    dropped = 0
    for rownum, row in enumerate(reader, start=1):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(columns):
            raise DatasetError(f"{data_path}: row {rownum} has {len(row)} cells, expected {len(columns)}")
        pid = row[id_pos].strip() if id_pos is not None else str(rownum)
        cells = [_parse_cell(row[i], columns[i], pid) for i in feature_pos + [effort_pos]]
        if any(v is None for v in cells):
            dropped += 1
            continue
        ids.append(pid)
        rows.append(tuple(cells[:-1]))
        efforts.append(cells[-1])

    if dropped:
        log.warning("%s: dropped %d row(s) with missing values", data_path, dropped)
    retained = [c for c in columns if c.role != "ignored"]
    return Dataset(data_path.stem, retained, ids, rows, efforts, dropped_rows=dropped)


def write_dataset(dataset, data_path, schema_path):
    """Serialize a Dataset back to a CSV + schema pair (full float precision)."""
    with Path(schema_path).open("w", encoding="utf-8") as fh:
        for col in dataset.columns:
            fh.write(f"{col.name}={col.role},{col.kind},{col.size_flag}\n")
    # one list of cells per column; csv writes a Python float as its shortest round-trip repr
    cont = iter(dataset.cont.T.tolist())
    cat = iter([levels[c] for c in codes] for levels, codes in zip(dataset.levels, dataset.cat.T.tolist()))
    cells = []
    for col in dataset.columns:
        if col.role == "identifier":
            cells.append(dataset.ids)
        elif col.role == "effort":
            cells.append(dataset.efforts.tolist())
        else:
            cells.append(next(cat) if col.kind == "categorical" else next(cont))
    with Path(data_path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([c.name for c in dataset.columns])
        writer.writerows(zip(*cells))


@dataclass(frozen=True)
class EffortStats:
    n: int
    m: int
    minimum: float
    maximum: float
    mean: float
    median: float
    skewness: float


def skewness(values):
    """Adjusted Fisher-Pearson skewness; 0.0 for zero-variance input.

    The statistic is scale-free, so it is computed on the values times one
    power of two that brings max |x| into [0.5, 1); that scaling is exact and
    keeps the cubes and squares from overflowing or underflowing; within
    ``MAGNITUDES`` it still keeps the last bits."""
    x = np.asarray(values, dtype=float)
    n = x.size
    if n < 3:
        return 0.0
    x = np.ldexp(x, -int(np.frexp(np.max(np.abs(x)))[1]))
    centered = x - x.mean()
    m2 = np.mean(centered**2)
    if m2 == 0:
        return 0.0
    g1 = np.mean(centered**3) / m2**1.5
    return float(g1 * np.sqrt(n * (n - 1)) / (n - 2))


def describe(dataset):
    """Descriptive statistics of the effort column."""
    e = dataset.efforts
    return EffortStats(
        n=dataset.n,
        m=dataset.m,
        minimum=float(e.min()),
        maximum=float(e.max()),
        mean=float(e.mean()),
        median=float(np.median(e)),
        skewness=skewness(e),
    )
