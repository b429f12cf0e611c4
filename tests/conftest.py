from pathlib import Path

import numpy as np
import pytest

from ebae.data import ColumnSpec, Dataset, Row

DATASETS = Path(__file__).resolve().parent.parent / "datasets"


def make_dataset(name, schema, rows, efforts, ids=None):
    """Build a Dataset in memory: ``schema`` lists feature ColumnSpecs, ``rows``
    the matching feature tuples."""
    ids = ids or [f"p{i + 1}" for i in range(len(rows))]
    columns = list(schema) + [ColumnSpec("effort", "effort", "continuous", "none")]
    return Dataset(name, columns, ids, rows, efforts)


def row_of(dataset, features):
    """A target Row from a feature tuple in ``dataset``'s schema order; a
    categorical value that ``dataset`` never saw gets code -1, which matches
    no row."""
    codes = [levels.index(features[i]) if features[i] in levels else -1
             for i, levels in zip(dataset.cat_index, dataset.levels)]
    return Row(np.array([features[i] for i in dataset.cont_index], dtype=float), np.array(codes, dtype=np.int64))


def projects_of(dataset):
    """The (ids, feature tuples, efforts) lists of ``dataset``, the inputs of
    its constructor, with categories decoded through its levels."""
    rows = []
    for r in range(dataset.n):
        features = [None] * dataset.m
        for c, i in enumerate(dataset.cont_index):
            features[i] = float(dataset.cont[r, c])
        for c, i in enumerate(dataset.cat_index):
            features[i] = dataset.levels[c][dataset.cat[r, c]]
        rows.append(tuple(features))
    return list(dataset.ids), rows, dataset.efforts.tolist()


def size_only_schema():
    return [ColumnSpec("size", "feature", "continuous", "primary_size")]


@pytest.fixture
def toy():
    """Five projects on a single size feature; the hand-checked fixture."""
    return make_dataset(
        "toy", size_only_schema(), [(2,), (4,), (6,), (8,), (10,)], [4, 8, 12, 20, 30]
    )


@pytest.fixture(scope="session")
def albrecht():
    from ebae.data import load_dataset

    return load_dataset(DATASETS / "albrecht.csv", DATASETS / "albrecht.schema")


@pytest.fixture
def linear_dataset():
    """Twenty projects with effort exactly 10x size."""
    sizes = np.arange(1.0, 21.0)
    return make_dataset(
        "linear", size_only_schema(), [(s,) for s in sizes], [10.0 * s for s in sizes]
    )


def random_dataset(rng, n=None, n_features=None, with_categorical=False):
    """Random positive-effort dataset for property tests."""
    return make_dataset("random", *random_rows(rng, n, n_features, with_categorical))


def random_rows(rng, n=None, n_features=None, with_categorical=False):
    """(feature schema, feature tuples, efforts) of ``random_dataset``."""
    n = n or int(rng.integers(5, 15))
    n_features = n_features or int(rng.integers(1, 4))
    schema = [ColumnSpec("size", "feature", "continuous", "primary_size")]
    schema += [
        ColumnSpec(f"f{j}", "feature", "continuous", "none") for j in range(n_features - 1)
    ]
    if with_categorical:
        schema.append(ColumnSpec("lang", "feature", "categorical", "none"))
    rows = []
    for _ in range(n):
        row = [float(v) for v in rng.uniform(0.5, 100.0, size=n_features)]
        if with_categorical:
            row.append(str(rng.choice(["a", "b", "c"])))
        rows.append(tuple(row))
    return schema, rows, rng.uniform(1.0, 500.0, size=n)
