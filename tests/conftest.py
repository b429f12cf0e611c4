import ctypes
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ebae
from ebae import analogy, validation
from ebae.analogy import Neighborhood
from ebae.data import ColumnSpec, Dataset, Row, normalize_minmax

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


def fold_pairs(dataset, t):
    """The difference pairs (X, y) on which LOOCV fold t of ``dataset``
    trains its model tree and network."""
    return validation._Fold(dataset, t, 1, analogy.knn_within(dataset, 2)).pairs


def pool_distances(target, pool):
    """Reference distances from the ``target`` Row to every row of ``pool``,
    both scaled by the pool's bounds; the target's values are clipped into
    [0, 1], so a query outside the training range stays in the unit cube."""
    diff = normalize_minmax(target.cont, pool.bounds) - normalize_minmax(pool.cont, pool.bounds)
    diff *= diff
    return np.sqrt(diff.sum(axis=-1) + (target.cat != pool.cat).sum(axis=-1))


def retrieve(target, pool, k):
    """Reference retrieval: the k nearest ``pool`` rows to the ``target``
    Row, ordered by distance, then by row index."""
    d = pool_distances(target, pool)
    order = np.lexsort((np.arange(pool.n), d))[:k]
    return Neighborhood(order, d[order])


def src_env():
    """``os.environ`` with the source tree of the ``ebae`` under test first on
    PYTHONPATH, for a new interpreter to import."""
    src = str(Path(ebae.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


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


def openblas_core():
    """The core type whose kernels numpy's bundled OpenBLAS runs, or None
    where that library or its ``scipy_openblas_get_corename64_`` is absent."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        corename = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return None


def under_blas_core(core, names, module, function):
    """``module.function()``, through JSON, as a new interpreter computes it
    with ``OPENBLAS_CORETYPE=core``: numpy's OpenBLAS then runs another CPU's
    kernels, and must name one of ``names`` as its core. Skips where numpy
    has no bundled x86-64 OpenBLAS, or where this CPU cannot run the core."""
    if platform.machine() not in ("x86_64", "AMD64") or openblas_core() is None:
        pytest.skip("needs numpy's bundled x86-64 OpenBLAS")
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_features__
    if core == "Haswell" and not (__cpu_features__.get("AVX2") and __cpu_features__.get("FMA3")):
        pytest.skip("the Haswell kernels need AVX2 and FMA3")
    paths = [Path(ebae.__file__).resolve().parents[1], Path(__file__).resolve().parents[1]]
    env = {**os.environ, "OPENBLAS_CORETYPE": core,
           "PYTHONPATH": os.pathsep.join(filter(None, [*map(str, paths), os.environ.get("PYTHONPATH")]))}
    code = ("import json\n"
            "from tests.conftest import openblas_core\n"
            f"from {module} import {function}\n"
            f"print(json.dumps([openblas_core(), {function}()]))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    name, result = json.loads(out.stdout)
    assert name in names
    return result


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
