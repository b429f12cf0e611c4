from pathlib import Path

import numpy as np
import pytest

from ebae.data import ColumnSpec, Dataset, Project, Row

DATASETS = Path(__file__).resolve().parent.parent / "datasets"


def make_dataset(name, schema, rows, efforts, ids=None):
    """Build a Dataset in memory: ``schema`` lists feature ColumnSpecs, ``rows``
    the matching feature tuples."""
    ids = ids or [f"p{i + 1}" for i in range(len(rows))]
    columns = list(schema) + [ColumnSpec("effort", "effort", "continuous", "none")]
    projects = [
        Project(pid, tuple(row), float(e)) for pid, row, e in zip(ids, rows, efforts)
    ]
    return Dataset(name, columns, projects)


def row_of(dataset, features):
    """A target Row from a feature tuple in ``dataset``'s schema order."""
    return Row(np.array([features[i] for i in dataset.cont_index], dtype=float),
               np.array([features[i] for i in dataset.cat_index], dtype=object))


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
    efforts = rng.uniform(1.0, 500.0, size=n)
    return make_dataset("random", schema, rows, efforts)
