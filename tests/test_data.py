import codecs
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebae.data import (
    ColumnSpec,
    Dataset,
    DatasetError,
    describe,
    load_dataset,
    load_schema,
    normalize_minmax,
    skewness,
    write_dataset,
)

from .conftest import DATASETS, make_dataset, projects_of, random_dataset


def write_pair(tmp_path, csv_text, schema_text):
    data = tmp_path / "d.csv"
    schema = tmp_path / "d.schema"
    data.write_text(csv_text)
    schema.write_text(schema_text)
    return data, schema


TOY_SCHEMA = "id=identifier,categorical,none\nsize=feature,continuous,primary_size\neffort=effort,continuous,none\n"


def test_load_albrecht_shape(albrecht):
    assert albrecht.n == 24
    assert albrecht.m == 7


def test_load_toy_csv():
    ds = load_dataset(DATASETS / "toy.csv", DATASETS / "toy.schema")
    assert ds.n == 5 and ds.m == 1
    assert ds.ids == ("p1", "p2", "p3", "p4", "p5")
    assert list(ds.efforts) == [4, 8, 12, 20, 30]
    assert list(ds.cont[:, 0]) == [2, 4, 6, 8, 10]


def test_zero_effort_rejected(tmp_path):
    data, schema = write_pair(
        tmp_path, "id,size,effort\na,1,5\nb,2,0\nc,3,4\n", TOY_SCHEMA
    )
    with pytest.raises(DatasetError, match="non-positive effort"):
        load_dataset(data, schema)


def test_missing_values_drop_rows(tmp_path):
    data, schema = write_pair(
        tmp_path, "id,size,effort\na,1,5\nb,?,9\nc,3,4\nd,4,\ne,5,6\n", TOY_SCHEMA
    )
    ds = load_dataset(data, schema)
    assert ds.n == 3
    assert ds.dropped_rows == 2


def test_non_numeric_continuous_is_error(tmp_path):
    data, schema = write_pair(tmp_path, "id,size,effort\na,big,5\nb,2,9\nc,3,4\n", TOY_SCHEMA)
    with pytest.raises(DatasetError, match="non-numeric"):
        load_dataset(data, schema)


def test_duplicate_ids_rejected(tmp_path):
    data, schema = write_pair(tmp_path, "id,size,effort\na,1,5\na,2,9\nc,3,4\n", TOY_SCHEMA)
    with pytest.raises(DatasetError, match="duplicate"):
        load_dataset(data, schema)


def test_header_schema_mismatch(tmp_path):
    data, schema = write_pair(tmp_path, "id,kloc,effort\na,1,5\nb,2,9\nc,3,4\n", TOY_SCHEMA)
    with pytest.raises(DatasetError, match="not declared in schema"):
        load_dataset(data, schema)


def test_duplicate_header_columns_rejected(tmp_path):
    data, schema = write_pair(
        tmp_path,
        "id,a,a,effort\np,1,2,5\nq,2,3,9\nr,3,4,4\n",
        "id=identifier,categorical,none\na=feature,continuous,primary_size\neffort=effort,continuous,none\n",
    )
    with pytest.raises(DatasetError, match=r"duplicate header columns: \['a'\]"):
        load_dataset(data, schema)


def test_schema_requires_one_effort(tmp_path):
    schema = tmp_path / "s"
    schema.write_text("size=feature,continuous,none\n")
    with pytest.raises(DatasetError, match="effort"):
        load_schema(schema)


def test_ignored_columns_dropped(tmp_path):
    data, schema = write_pair(
        tmp_path,
        "id,size,notes,effort\na,1,x,5\nb,2,y,9\nc,3,z,4\n",
        TOY_SCHEMA + "notes=ignored,categorical,none\n",
    )
    ds = load_dataset(data, schema)
    assert ds.m == 1
    assert all(c.name != "notes" for c in ds.columns)


def test_roundtrip_identical(tmp_path, albrecht):
    data = tmp_path / "out.csv"
    schema = tmp_path / "out.schema"
    write_dataset(albrecht, data, schema)
    again = load_dataset(data, schema)
    assert again.columns == albrecht.columns
    assert projects_of(again) == projects_of(albrecht)
    assert np.array_equal(again.bounds[0], albrecht.bounds[0])
    assert np.array_equal(again.bounds[1], albrecht.bounds[1])


@pytest.mark.parametrize("comments", [True, False])
def test_byte_order_mark_is_ignored(tmp_path, albrecht, comments):
    # Excel's "CSV UTF-8" starts a file with a UTF-8 byte-order mark; without
    # the schema's comment lines it sits on the first column name
    schema_lines = (DATASETS / "albrecht.schema").read_text(encoding="utf-8").splitlines(keepends=True)
    schema_text = "".join(line for line in schema_lines if comments or not line.startswith("#"))
    data, schema = tmp_path / "albrecht.csv", tmp_path / "albrecht.schema"
    data.write_bytes(codecs.BOM_UTF8 + (DATASETS / "albrecht.csv").read_bytes())
    schema.write_bytes(codecs.BOM_UTF8 + schema_text.encode("utf-8"))
    again = load_dataset(data, schema)
    assert again.columns == albrecht.columns and again.ids == albrecht.ids
    for name in ("cont", "cat", "efforts"):
        assert np.array_equal(getattr(again, name), getattr(albrecht, name))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_roundtrip_identical_categorical(tmp_path, seed):
    ds = random_dataset(np.random.default_rng(seed), n=12, with_categorical=True)
    ds = Dataset("random", [ColumnSpec("id", "identifier", "categorical"), *ds.columns], *projects_of(ds))
    paths = [(tmp_path / f"{i}.csv", tmp_path / f"{i}.schema") for i in range(2)]
    write_dataset(ds, *paths[0])
    again = load_dataset(*paths[0])
    assert again.ids == ds.ids and again.columns == ds.columns
    for name in ("cont", "cat", "efforts"):
        assert np.array_equal(getattr(again, name), getattr(ds, name))
    assert again.levels == ds.levels and projects_of(again) == projects_of(ds)
    write_dataset(again, *paths[1])
    for first, second in zip(*paths):
        assert first.read_bytes() == second.read_bytes()


def test_normalize_examples():
    values = np.array([[2.0], [4.0], [6.0], [8.0], [10.0]])
    bounds = (values.min(axis=0), values.max(axis=0))
    scaled = normalize_minmax(values, bounds)
    assert list(scaled[:, 0]) == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_normalize_constant_feature_maps_to_zero():
    values = np.array([[7.0], [7.0], [7.0]])
    bounds = (values.min(axis=0), values.max(axis=0))
    assert np.all(normalize_minmax(values, bounds) == 0.0)


def test_normalize_clamps_out_of_range():
    bounds = (np.array([2.0]), np.array([8.0]))
    assert normalize_minmax(np.array([10.0]), bounds)[0] == 1.0
    assert normalize_minmax(np.array([0.0]), bounds)[0] == 0.0


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 3.0, 49.0]))
def test_normalize_by_own_bounds_never_clips(seed, spread):
    # clipping moves no value inside its bounds, as rounding is monotone: a
    # dataset scaled by its own bounds equals the unclipped formula bit for
    # bit, at magnitudes 10**-spread..10**spread; spread 0 gives ties and
    # constant columns
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(3, 12)), int(rng.integers(1, 4))
    values = rng.choice([-1.0, 1.0], (n, m)) * 10.0 ** rng.uniform(-spread, spread, (n, m))
    schema = [ColumnSpec(f"c{j}", "feature", "continuous", "none") for j in range(m)]
    ds = make_dataset("wide", schema, [tuple(row) for row in values], np.ones(n))
    mins, maxs = ds.bounds
    span = maxs - mins
    unclipped = np.where(span > 0, (ds.cont - mins) / np.where(span > 0, span, 1.0), 0.0)
    assert normalize_minmax(ds.cont, ds.bounds).tobytes() == unclipped.tobytes()


def test_albrecht_normalized_in_unit_interval(albrecht):
    norm = normalize_minmax(albrecht.cont, albrecht.bounds)
    assert norm.min() >= 0.0 and norm.max() <= 1.0
    # normalization never touches the raw values
    assert albrecht.cont[:, albrecht.size_col].max() == 1902


def test_describe_toy(toy):
    stats = describe(toy)
    assert stats.n == 5 and stats.m == 1
    assert stats.mean == pytest.approx(14.8)
    assert stats.median == 12
    assert stats.minimum == 4 and stats.maximum == 30


def test_describe_albrecht_matches_published_stats(albrecht):
    stats = describe(albrecht)
    assert stats.minimum == pytest.approx(0.5)
    assert stats.maximum == pytest.approx(105.2)
    assert abs(stats.mean - 22) <= 1
    assert abs(stats.median - 12) <= 1
    assert abs(stats.skewness - 2.2) <= 0.3


def test_skewness_constant_is_zero():
    assert skewness([5, 5, 5, 5]) == 0.0


@pytest.mark.parametrize("factor", [1.0, 1e150, 1e250])
def test_skewness_exact_at_extreme_scale(factor):
    assert skewness(np.array([1.0, 2.0, 3.0, 10.0]) * factor) == 1.763632614803888


def test_skewness_matches_scipy():
    from scipy.stats import skew

    rng = np.random.default_rng(7)
    x = rng.lognormal(size=50)
    assert skewness(x) == pytest.approx(skew(x, bias=False))


@given(st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=3, max_size=40))
def test_describe_mean_is_sum_over_n(efforts):
    from .conftest import size_only_schema

    ds = make_dataset("h", size_only_schema(), [(float(i + 1),) for i in range(len(efforts))], efforts)
    stats = describe(ds)
    assert stats.mean == pytest.approx(sum(efforts) / len(efforts), rel=1e-9)


def test_size_flag_requires_continuous_feature():
    with pytest.raises(DatasetError, match="size flags"):
        ColumnSpec("lang", "feature", "categorical", "size_related")


def test_size_columns_index_cont():
    schema = [
        ColumnSpec("lang", "feature", "categorical", "none"),
        ColumnSpec("s2", "feature", "continuous", "size_related"),
        ColumnSpec("x", "feature", "continuous", "none"),
        ColumnSpec("s1", "feature", "continuous", "primary_size"),
    ]
    ds = make_dataset("sizes", schema, [("a", 5, 1, 2), ("b", 9, 2, 4), ("a", 30, 3, 8)], [10, 16, 40])
    assert ds.size_col == 2 and ds.size_cols == (0, 2)
    assert list(ds.cont[:, ds.size_col]) == [2, 4, 8]
    assert ds.row(1).cont.tolist() == [9, 2, 4] and [ds.levels[0][c] for c in ds.row(1).cat] == ["b"]
    # codes number each column's values by first appearance
    assert ds.levels == (("a", "b"),) and ds.cat.tolist() == [[0], [1], [0]]
    plain = make_dataset("plain", schema[:3], [("a", 5, 1), ("b", 9, 2), ("a", 30, 3)], [10, 16, 40])
    assert plain.size_col is None and plain.size_cols == (0,)


def test_dataset_needs_three_projects():
    with pytest.raises(DatasetError, match="at least 3 projects"):
        make_dataset("two", [ColumnSpec("s", "feature", "continuous", "none")], [(1,), (2,)], [1, 2])


@pytest.mark.parametrize("ids, rows, efforts", [
    (["a", "b"], [(1,), (2,), (3,)], [1, 2, 3]),
    (["a", "b", "c"], [(1,), (2,)], [1, 2, 3]),
    (["a", "b", "c"], [(1,), (2,), (3,)], [1, 2, 3, 4]),
])
def test_dataset_inputs_must_have_one_length(ids, rows, efforts):
    with pytest.raises(DatasetError, match="ids, .* feature rows and .* efforts"):
        make_dataset("bad", [ColumnSpec("s", "feature", "continuous", "none")], rows, efforts, ids)


def test_dataset_rejects_a_feature_range_that_overflows():
    # -1e308 and 1e308 are finite, but a feature value must be 0 or of a
    # magnitude in [1e-50, 1e50], and an effort must lie in that range
    schema = [ColumnSpec("x", "feature", "continuous", "none"),
              ColumnSpec("size", "feature", "continuous", "primary_size")]
    message = "project 'a': column 'size': value -1e+308 has a magnitude outside [1e-50, 1e50]"
    with pytest.raises(DatasetError, match=re.escape(message)):
        Dataset("wide", [*schema, ColumnSpec("effort", "effort")], ["a", "b", "c"],
                [(1.0, -1e308), (2.0, 1e308), (3.0, 0.0)], [1, 2, 3])
    # both ends and 0 are kept, and the widest range normalizes into [0, 1]
    ds = make_dataset("edge", schema, [(0.0, -1e50), (1e-50, 1e50), (-1e-50, 0.0)], [1e-50, 1e50, 1.0])
    assert normalize_minmax(ds.cont, ds.bounds)[:, 1].tolist() == [0.0, 1.0, 0.5]
    # one step beyond either end is rejected, in a feature and in the effort
    for column, value in [("size", v) for v in (1e-50, -1e-50, 1e50, -1e50)] + [("effort", 1e-50), ("effort", 1e50)]:
        beyond = np.nextafter(value, 0.0 if abs(value) < 1 else np.copysign(np.inf, value))
        row, effort = ((1.0, beyond), 2.0) if column == "size" else ((1.0, 3.0), beyond)
        with pytest.raises(DatasetError, match=re.escape(f"project 'p2': column '{column}': value {float(beyond)!r} ")):
            make_dataset("beyond", schema, [(1.0, 2.0), row, (3.0, 4.0)], [1.0, effort, 3.0])


def assert_fold_equals_rebuilt(ds, t):
    fold = ds.without(t)
    kept = (col[:t] + col[t + 1:] for col in projects_of(ds))
    rebuilt = Dataset(ds.name, ds.columns, *kept, ds.dropped_rows)
    assert fold.ids == rebuilt.ids
    # the fold keeps its parent's levels, so its codes stay comparable with
    # the held-out row's; a rebuilt dataset drops a level only that row had
    assert fold.levels is ds.levels
    assert projects_of(fold) == projects_of(rebuilt)
    for name in ("cont", "cat", "efforts"):
        got, want = getattr(fold, name), getattr(rebuilt, name)
        assert got.dtype == want.dtype and (name == "cat" or np.array_equal(got, want))
        assert not got.flags.writeable
    for got, want in zip(fold.bounds, rebuilt.bounds):
        assert np.array_equal(got, want) and not got.flags.writeable
    assert np.array_equal(normalize_minmax(fold.cont, fold.bounds), normalize_minmax(rebuilt.cont, rebuilt.bounds))
    assert (fold.size_col, fold.size_cols) == (rebuilt.size_col, rebuilt.size_cols)
    assert (fold.feature_schema, fold.cont_index, fold.cat_index) == (
        rebuilt.feature_schema, rebuilt.cont_index, rebuilt.cat_index)
    # the parent dataset is untouched
    assert ds.n == len(ds.cont) == len(ds.cat) == len(ds.efforts)


def test_without_equals_rebuilt_dataset_albrecht(albrecht):
    for t in range(albrecht.n):
        assert_fold_equals_rebuilt(albrecht, t)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_without_equals_rebuilt_dataset_mixed(seed, data):
    ds = random_dataset(np.random.default_rng(seed), with_categorical=True)
    assert_fold_equals_rebuilt(ds, data.draw(st.integers(0, ds.n - 1)))
