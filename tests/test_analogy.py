import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebae.analogy import fold_analogies, knn_within, similarity_from_distance
from ebae.data import ColumnSpec, normalize_minmax

from .conftest import make_dataset, pool_distances, random_rows, retrieve, row_of, size_only_schema

CONT2 = [ColumnSpec("a", "feature", "continuous", "none"), ColumnSpec("b", "feature", "continuous", "none")]
MIXED = [ColumnSpec("a", "feature", "continuous", "none"), ColumnSpec("lang", "feature", "categorical", "none")]


def distance(x, y, schema):
    """Per-feature loop oracle: Euclidean distance between two projects'
    feature tuples."""
    if len(x) != len(schema) or len(y) != len(schema):
        raise ValueError("project feature count does not match schema")
    total = 0.0
    for a, b, col in zip(x, y, schema):
        if col.kind == "categorical":
            total += 0.0 if a == b else 1.0
        else:
            diff = float(a) - float(b)
            total += diff * diff
    return float(np.sqrt(total))


def test_identical_projects_distance_zero():
    assert distance((0.3, 0.7), (0.3, 0.7), CONT2) == 0.0


def test_single_categorical_mismatch_is_one():
    assert distance((0.5, "java"), (0.5, "c"), MIXED) == 1.0
    assert distance((0.5, "java"), (0.5, "java"), MIXED) == 0.0


def test_hand_evaluated_euclidean():
    assert distance((0.0, 0.0), (0.6, 0.8), CONT2) == pytest.approx(1.0)


def test_schema_mismatch_rejected():
    with pytest.raises(ValueError):
        distance((0.5,), (0.5, 0.5), CONT2)


def test_similarity_bounds():
    assert similarity_from_distance(0.0) == 1.0
    assert 0.0 < similarity_from_distance(100.0) < similarity_from_distance(1.0) < 1.0


def naive_all_distances(target, pool):
    """Independent oracle: python-loop distance over normalized features."""
    bounds = pool.bounds
    norm = normalize_minmax(pool.cont, bounds)
    t = normalize_minmax(target.cont, bounds)
    out = []
    for r in range(pool.n):
        total = 0.0
        for c in range(len(pool.cont_index)):
            total += (t[c] - norm[r, c]) ** 2
        for c in range(len(pool.cat_index)):
            total += 0.0 if target.cat[c] == pool.cat[r, c] else 1.0
        out.append(math.sqrt(total))
    return out


def analogies(dataset, t, k):
    """The k nearest training projects of LOOCV fold t, read as the fold
    reads them: row t of the dataset ranked under the fold's bounds."""
    bounds = dataset.without(t).bounds
    return fold_analogies(dataset, knn_within(dataset, k, bounds), t, k, bounds)


def test_toy_retrieval_examples(toy):
    pool = toy.without(4)             # target p5: size 10, effort 30
    one = analogies(toy, 4, 1)
    assert pool.ids[one.indices[0]] == "p4"      # size 8
    two = analogies(toy, 4, 2)
    assert [pool.ids[i] for i in two.indices] == ["p4", "p3"]
    everything = analogies(toy, 4, pool.n)
    assert len(everything.indices) == len(everything.distances) == pool.n


def test_prefix_property(toy):
    pool = toy.without(0)
    for k in range(1, pool.n):
        small = [pool.ids[i] for i in analogies(toy, 0, k).indices]
        big = [pool.ids[i] for i in analogies(toy, 0, k + 1).indices]
        assert big[:k] == small


def test_tie_break_smaller_index_first():
    ds = make_dataset("ties", size_only_schema(), [(5,), (5,), (5,), (9,)], [1, 2, 3, 4])
    pool = ds.without(3)
    nbh = analogies(ds, 3, 3)
    assert [pool.ids[i] for i in nbh.indices] == ["p1", "p2", "p3"]


def test_tie_that_rounding_splits_in_squares_goes_to_smaller_index():
    # p3's squared distances to p1 and p2 are both 13/9, computed as
    # 1.4444444444444446 and 1.4444444444444444; their roots are equal, so
    # the tie goes to the smaller index, as for a held-out project
    ds = make_dataset("split", CONT2, [(1.0, 3.0), (0.0, 2.0), (3.0, 0.0)], [1.0, 2.0, 3.0])
    assert knn_within(ds, 2)[2].tolist() == [0, 1]
    # a held-out project's analogies follow the same rule
    ds = make_dataset("held", CONT2, [(3.0, 3.0), (1.0, 0.0), (2.0, 2.0), (3.0, 1.0)], [1.0, 2.0, 3.0, 4.0])
    nbh = analogies(ds, 2, 2)
    assert [ds.without(2).ids[i] for i in nbh.indices] == ["p1", "p4"]
    assert nbh.distances.tolist() == [0.6009252125773316] * 2


def test_retrieve_matches_bruteforce_oracle(albrecht):
    for t in range(albrecht.n):
        target = albrecht.row(t)
        pool = albrecht.without(t)
        oracle = sorted(zip(naive_all_distances(target, pool), range(pool.n)))
        got = analogies(albrecht, t, 5)
        for index, got_d, (d, idx) in zip(got.indices, got.distances, oracle[:5]):
            assert index == idx
            assert got_d == pytest.approx(d, abs=1e-12)
        # the reference retrieval of the LOOCV oracles, bit for bit
        want = retrieve(target, pool, 5)
        assert np.array_equal(got.indices, want.indices) and np.array_equal(got.distances, want.distances)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_distance_symmetry_and_identity(seed):
    rng = np.random.default_rng(seed)
    schema, rows, _ = random_rows(rng, with_categorical=True)
    i, j = rng.integers(0, len(rows), size=2)
    x, y = rows[i], rows[j]
    assert distance(x, y, schema) == distance(y, x, schema)
    assert distance(x, x, schema) == 0.0
    if x != y:
        assert distance(x, y, schema) > 0.0


def normalized_features(features, pool):
    """``features`` with the continuous values scaled (and clipped) by the pool's bounds."""
    scaled = iter(normalize_minmax(row_of(pool, features).cont, pool.bounds))
    return tuple(
        v if col.kind == "categorical" else float(next(scaled))
        for v, col in zip(features, pool.feature_schema)
    )


def test_pool_distances_match_scalar_distance():
    # the reference distances, the fold's analogy distances and the
    # schema-level scalar op agree on normalized values; the oracle reads the
    # feature tuples, not the dataset's codes
    toy = (size_only_schema(), [(2,), (4,), (6,), (8,), (10,)], [4, 8, 12, 20, 30])
    for schema, rows, efforts in (toy, random_rows(np.random.default_rng(11), with_categorical=True)):
        ds = make_dataset("ds", schema, rows, efforts)
        pool = ds.without(2)
        target = normalized_features(rows[2], pool)
        oracle = [distance(target, normalized_features(row, pool), schema)
                  for row in rows[:2] + rows[3:]]
        assert np.allclose(pool_distances(ds.row(2), pool), oracle, atol=1e-12)
        assert np.allclose(oracle, naive_all_distances(ds.row(2), pool), atol=1e-12)
        nbh = analogies(ds, 2, pool.n)
        assert np.allclose(nbh.distances, np.array(oracle)[nbh.indices], atol=1e-12)


def test_unseen_category_mismatches_every_row():
    ds = make_dataset("mixed", MIXED, [(1.0, "java"), (2.0, "c"), (3.0, "java")], [1.0, 2.0, 3.0])
    assert row_of(ds, (2.0, "go")).cat.tolist() == [-1]
    assert np.array_equal(pool_distances(row_of(ds, (2.0, "go")), ds), np.sqrt([1.25, 1.0, 1.25]))
    # a held-out project whose language no training project has
    ds = make_dataset("held", MIXED, [(1.0, "java"), (2.0, "c"), (3.0, "java"), (2.0, "go")], [1.0, 2.0, 3.0, 4.0])
    nbh = analogies(ds, 3, 3)
    assert nbh.indices.tolist() == [1, 0, 2]
    assert np.array_equal(nbh.distances, np.sqrt([1.0, 1.25, 1.25]))


def test_knn_within_matches_per_row_retrieve(toy):
    neighbors = knn_within(toy, 2)
    assert neighbors.shape == (5, 2)
    with pytest.raises(ValueError, match="need at least 6 projects, got 5"):
        knn_within(toy, 5)
    # under fold i's bounds, row i lists the held-out project's analogies
    for i in range(toy.n):
        assert i not in neighbors[i]
        pool = toy.without(i)
        row = knn_within(toy, pool.n, pool.bounds)[i]
        assert (row - (row > i)).tolist() == retrieve(toy.row(i), pool, pool.n).indices.tolist()


def knn_within_loop(dataset, k):
    """Per-row oracle of ``knn_within``: one distance row and one sort per
    project, by distance, then by index."""
    n = dataset.n
    cont01, cat = normalize_minmax(dataset.cont, dataset.bounds), dataset.cat
    neighbors = np.empty((n, k), dtype=int)
    for i in range(n):
        d2 = np.zeros(n)
        if cont01.shape[1]:
            diff = cont01 - cont01[i]
            d2 += (diff * diff).sum(axis=1)
        if cat.shape[1]:
            d2 += (cat != cat[i]).sum(axis=1).astype(float)
        d2[i] = np.inf
        neighbors[i] = np.lexsort((np.arange(n), np.sqrt(d2)))[:k]
    return neighbors


def test_knn_within_equals_loop_on_albrecht_folds(albrecht):
    for t in range(albrecht.n):
        train = albrecht.without(t)
        for k in (1, 5, train.n - 1):
            assert np.array_equal(knn_within(train, k), knn_within_loop(train, k))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["cont", "cat", "mixed"]), st.sampled_from([2, 3]))
def test_knn_within_equals_loop_with_ties(seed, kinds, top):
    # few distinct values and a duplicated first row make distance ties
    # common; values 0..2 scale to exact halves, values 0..3 to thirds,
    # which round, so some squared distances tie only after the root
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 12))
    schema = []
    if kinds != "cat":
        schema += [ColumnSpec(f"c{j}", "feature", "continuous", "none") for j in range(2)]
    if kinds != "cont":
        schema += [ColumnSpec(f"g{j}", "feature", "categorical", "none") for j in range(2)]
    rows = [tuple(float(rng.integers(0, top + 1)) if col.kind == "continuous" else str(rng.choice(["a", "b"]))
                  for col in schema) for _ in range(n)]
    rows[1] = rows[0]
    ds = make_dataset("ties", schema, rows, rng.uniform(1.0, 50.0, size=n))
    for k in (1, n - 1):
        assert np.array_equal(knn_within(ds, k), knn_within_loop(ds, k))
