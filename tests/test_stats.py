import hashlib
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebae import stats
from ebae.adjust import enumerate_variants
from ebae.config import Config
from ebae.stats import (
    _LAMBDA_GRID,
    TransformSpec,
    _best_cut,
    _gammp,
    _log_likelihood,
    _normal_cdf,
    _power_transform,
    _screen,
    _significant,
    apply_transform,
    box_cox,
    ks_normality,
    scott_knott,
    scott_knott_two_way,
)
from ebae.validation import loocv_grid

from .conftest import src_env, under_blas_core


def test_box_cox_log_branch():
    assert apply_transform(np.array([math.e]), TransformSpec(0.0))[0] == pytest.approx(1.0)


def test_box_cox_affine_branch():
    x = np.array([1.0, 2.5, 7.0])
    assert np.allclose(apply_transform(x, TransformSpec(1.0)), x - 1.0)


def test_box_cox_selects_log_for_lognormal():
    rng = np.random.default_rng(12)
    x = rng.lognormal(mean=1.0, sigma=0.7, size=200)
    _, spec = box_cox(x)
    assert -0.2 <= spec.box_cox_lambda <= 0.2


def test_box_cox_grid_matches_likelihood_oracle():
    # independent likelihood oracle over the same grid
    rng = np.random.default_rng(5)
    x = rng.gamma(2.0, 3.0, size=150)
    _, spec = box_cox(x)
    log_sum = np.sum(np.log(x))

    def llf(lam):
        y = np.log(x) if lam == 0 else (x**lam - 1) / lam
        return -0.5 * x.size * np.log(np.var(y)) + (lam - 1) * log_sum

    grid = [round(-2 + 0.01 * i, 2) for i in range(401)]
    best = max(grid, key=llf)
    assert spec.box_cox_lambda == pytest.approx(best, abs=1e-9)


def test_box_cox_picks_finite_likelihood_on_huge_values():
    # values up to 1.59e308: most positive lambdas overflow (NaN likelihood)
    rng = np.random.default_rng(8)
    x = np.concatenate([rng.gamma(2.0, 3.0, size=60), [1e150, 1e300, 1.59e308]])
    with np.errstate(over="ignore", invalid="ignore"):
        transformed, spec = box_cox(x)
        grid = [round(-2 + 0.01 * i, 2) for i in range(401)]
        y = [np.log(x) if lam == 0 else (x**lam - 1) / lam for lam in grid]
        llf = [-0.5 * x.size * np.log(np.var(v)) + (lam - 1) * np.sum(np.log(x)) for lam, v in zip(grid, y)]
    assert any(np.isnan(llf))
    finite = [(ll, lam) for ll, lam in zip(llf, grid) if np.isfinite(ll)]
    assert spec.box_cox_lambda == pytest.approx(max(finite, key=lambda p: p[0])[1], abs=1e-9)
    assert np.all(np.isfinite(transformed))
    assert np.all(np.isfinite(apply_transform(x, spec)))


def shifted(values):
    """(values shifted as ``box_cox`` shifts them, the shift)."""
    x = np.asarray(values, dtype=float)
    shift = 0.0
    if np.min(x) <= 0:
        shift = 1e-3 * float(np.max(x)) if np.max(x) > 0 else 1e-3
    return x + shift, shift


def box_cox_full_grid(values):
    """The search ``box_cox`` screens: ``_log_likelihood`` at every grid
    point, and the first best; the same shift and constant-input branch."""
    x, shift = shifted(values)
    if np.all(x == x[0]):
        return _power_transform(x, 1.0), TransformSpec(1.0, shift)
    log_sum = float(np.sum(np.log(x)))
    with np.errstate(over="ignore", invalid="ignore"):
        lls = [_log_likelihood(x, float(lam), log_sum) for lam in _LAMBDA_GRID]
    best = float(_LAMBDA_GRID[int(np.nanargmax(lls))])
    return _power_transform(x, best), TransformSpec(best, shift)


@st.composite
def box_cox_inputs(draw):
    """Positive samples of 2-8,000 values from four skewed families at scales
    1e-3 to 1e6, some with zeros (shifted), two distinct values, or four
    values 1 to 1e12 ulps apart, where the screen's sums cancel."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.one_of(st.integers(2, 60), st.integers(2, 8000)))
    family = draw(st.sampled_from(["lognormal", "gamma", "pareto", "halfnormal"]))
    x = {"lognormal": lambda: rng.lognormal(0.0, 1.5, n), "gamma": lambda: rng.gamma(0.8, 1.0, n),
         "pareto": lambda: rng.pareto(1.2, n) + 1e-3, "halfnormal": lambda: np.abs(rng.normal(size=n))}[family]()
    x = x * 10.0 ** draw(st.floats(-3.0, 6.0))
    shape = draw(st.sampled_from(["plain", "zeros", "two_values", "near_constant"]))
    if shape == "zeros":
        x[rng.random(n) < draw(st.floats(0.0, 0.5))] = 0.0
        x[0] = 0.0
    elif shape == "two_values":
        x = np.where(np.arange(n) % 2 == 0, x[0], x[-1])
    elif shape == "near_constant":
        x = x[0] + np.spacing(x[0]) * rng.integers(0, 4, n) * 10.0 ** draw(st.floats(0.0, 12.0))
    return x


@settings(max_examples=150, deadline=None)
@given(box_cox_inputs())
def test_box_cox_matches_full_grid_oracle(x):
    transformed, spec = box_cox(x)
    want_transformed, want = box_cox_full_grid(x)
    assert spec == want
    assert np.array_equal(transformed, want_transformed)


@settings(max_examples=100, deadline=None)
@given(box_cox_inputs())
def test_box_cox_screen_bounds_the_likelihood(x):
    x, _ = shifted(x)
    log_sum = float(np.sum(np.log(x)))
    approx, bound = _screen(x, log_sum)
    assert not np.isfinite(bound[_LAMBDA_GRID == 0.0]).any()
    for i in np.flatnonzero(np.isfinite(bound)):
        assert abs(approx[i] - _log_likelihood(x, float(_LAMBDA_GRID[i]), log_sum)) <= bound[i], i


def count_likelihoods(monkeypatch, values):
    """(the TransformSpec ``box_cox`` fits to ``values``, its number of
    ``_log_likelihood`` calls)."""
    calls = []
    exact = stats._log_likelihood

    def counted(x, lam, log_sum):
        calls.append(lam)
        return exact(x, lam, log_sum)

    monkeypatch.setattr(stats, "_log_likelihood", counted)
    _, spec = box_cox(values)
    return spec, len(calls)


def test_box_cox_confirms_few_lambdas_on_albrecht_errors(monkeypatch, albrecht):
    tables, errors = loocv_grid(albrecht, enumerate_variants(5), Config(jobs=1))
    assert not errors and len(tables) == 40
    pooled = np.concatenate([table.aes for table in tables.values()])
    assert pooled.size == 960
    spec, calls = count_likelihoods(monkeypatch, pooled)
    assert spec == box_cox_full_grid(pooled)[1]
    assert calls <= 5


def test_box_cox_confirms_every_lambda_outside_the_screens_range(monkeypatch):
    rng = np.random.default_rng(8)
    x = np.concatenate([rng.gamma(2.0, 3.0, size=60), [1e150, 1e300, 1.59e308]])
    spec, calls = count_likelihoods(monkeypatch, x)
    assert spec == box_cox_full_grid(x)[1]
    assert calls == _LAMBDA_GRID.size


def box_cox_fingerprint():
    """lambda, shift and the sha256 of the transformed values of a fixed
    sample of 3,000 values with zeros."""
    rng = np.random.default_rng(2017)
    x = rng.lognormal(3.0, 1.2, size=3000)
    x[::50] = 0.0
    transformed, spec = box_cox(x)
    return [spec.box_cox_lambda, spec.shift, hashlib.sha256(transformed.tobytes()).hexdigest()]


@pytest.mark.parametrize("core, names", [("Haswell", ["Haswell"]), ("Prescott", ["Prescott", "Katmai"])],
                         ids=["Haswell", "Prescott"])
def test_box_cox_lambda_same_under_other_blas_kernels(core, names):
    # the screen's v @ v runs in OpenBLAS, whose kernels sum in their own
    # order; its bound holds for any order, so lambda may not move
    assert under_blas_core(core, names, "tests.test_stats", "box_cox_fingerprint") == box_cox_fingerprint()


def test_box_cox_shifts_zeros():
    values = np.array([0.0, 1.0, 4.0, 9.0])
    transformed, spec = box_cox(values)
    assert spec.shift == pytest.approx(9e-3)
    assert np.all(np.isfinite(transformed))
    assert np.allclose(apply_transform(values, spec), transformed)


def test_box_cox_empty_rejected():
    with pytest.raises(ValueError):
        box_cox(np.array([]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_box_cox_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        box_cox(np.array([1.0, bad, 2.0]))


def test_ks_accepts_normal_sample():
    rng = np.random.default_rng(42)
    stat, reject = ks_normality(rng.standard_normal(500))
    assert not reject
    assert 0 <= stat < 0.05


def test_ks_rejects_exponential_sample():
    rng = np.random.default_rng(42)
    _, reject = ks_normality(rng.exponential(size=500))
    assert reject


def test_ks_normality_is_exact_at_any_scale():
    # times 2**530 (~3.5e159) the squares of the deviations overflowed, and
    # times 2**-565 (~1.5e-170) they underflowed to a zero variance; a power
    # of two scales the sample exactly, so the result keeps every bit
    x = np.array([1, 2, 3.5, 4, 7, 9])
    want = ks_normality(x)
    assert ks_normality(x * 2.0**530) == want
    assert ks_normality(x * 2.0**-565) == want


def test_ks_statistic_matches_scipy():
    from scipy.stats import kstest

    rng = np.random.default_rng(3)
    x = rng.normal(10, 2, size=80)
    stat, _ = ks_normality(x)
    expected = kstest(x, "norm", args=(x.mean(), x.std(ddof=1))).statistic
    assert stat == pytest.approx(expected, abs=1e-12)


def test_normal_cdf_matches_scipy_ndtr():
    ndtr = pytest.importorskip("scipy.special").ndtr
    z = np.linspace(-40.0, 40.0, 160_001)
    assert np.max(np.abs(_normal_cdf(z) - ndtr(z))) <= 4.5e-16


def _sk_shape(g):
    """Incomplete-gamma shape a = nu0 / 2 of a Scott-Knott test over g means."""
    return g / (2.0 * (math.pi - 2.0))


def test_incomplete_gamma_matches_scipy_gammainc():
    gammainc = pytest.importorskip("scipy.special").gammainc
    for g in range(2, 200):
        a = _sk_shape(g)
        # the body of the distribution, below a + 1 (series) and above it
        # (continued fraction), and both sides of the point where they meet;
        # scipy's own far left tail at large a is off by ~1e-13 relative
        xs = [a + 1.0 + k * math.sqrt(a) for k in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 4.0, 8.0)]
        xs += [a + 1.0 - 1e-9, a + 1.0 + 1e-9]
        for x in (x for x in xs if x > 0):
            assert _gammp(a, x) == pytest.approx(gammainc(a, x), rel=1e-13, abs=0), (g, x)


def test_incomplete_gamma_limits():
    for g in (2, 7, 40):
        assert _gammp(_sk_shape(g), 0.0) == 0.0
        assert _gammp(_sk_shape(g), math.inf) == 1.0


def test_incomplete_gamma_huge_x_returns_one():
    # past x ~ 2.5e16 the continued fraction's b += 2 no longer moves b, so it
    # must not be entered where its prefactor has underflowed
    assert _gammp(3.5038767877682178, 1.368256611266831e19) == 1.0
    for g in (2, 7, 40):
        for x in (2.5e16, 1e19, 1e100, 1e300):
            assert _gammp(_sk_shape(g), x) == 1.0, (g, x)


@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.10, 0.5])
def test_split_decision_matches_chi2_quantile(monkeypatch, alpha):
    chi2 = pytest.importorskip("scipy.stats").chi2
    monkeypatch.setattr(stats, "ALPHA", alpha)
    for g in range(2, 200):
        crit = chi2.ppf(1.0 - alpha, g / (math.pi - 2.0))
        for lam in (0.0, crit * (1.0 - 1e-9), crit * (1.0 + 1e-9), math.inf):
            assert _significant(lam, g) == (lam > crit), (g, lam)


def test_one_level_for_normality_and_scott_knott(monkeypatch):
    # the modified KS statistic of this sample, 0.963, lies between the
    # critical values at 0.05 (0.895) and at 0.01 (1.035)
    sample = np.random.default_rng(3).exponential(size=40)
    assert ks_normality(sample)[1]
    monkeypatch.setattr(stats, "ALPHA", 0.01)
    assert not ks_normality(sample)[1]
    chi2 = pytest.importorskip("scipy.stats").chi2
    for g in range(2, 50):
        crit = chi2.ppf(0.99, g / (math.pi - 2.0))
        for lam in (crit * (1.0 - 1e-9), crit * (1.0 + 1e-9)):
            assert _significant(lam, g) == (lam > crit), (g, lam)


@pytest.mark.parametrize("module", ["ebae", "ebae.cli"])
def test_import_loads_no_scipy(module):
    code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_ks_degenerate_input():
    with pytest.raises(ValueError):
        ks_normality([3.0] * 10)
    with pytest.raises(ValueError):
        ks_normality([1.0, 2.0, 3.0])


def synthetic_groups(means, sigma, n, seed):
    rng = np.random.default_rng(seed)
    return {
        chr(ord("A") + i): rng.normal(mu, sigma, size=n) for i, mu in enumerate(means)
    }


def test_null_case_single_cluster(monkeypatch):
    monkeypatch.setattr(stats, "ALPHA", 0.01)
    groups = synthetic_groups([5.0] * 6, 1.0, 40, seed=21)
    result = scott_knott(groups)
    assert len(result.clusters) == 1
    assert set(result.clusters[0].members) == set(groups)


def test_two_separated_pairs_give_two_clusters():
    groups = synthetic_groups([1.0, 1.1, 5.0, 5.1], 0.1, 30, seed=7)
    result = scott_knott(groups)
    assert len(result.clusters) == 2
    assert set(result.clusters[0].members) == {"A", "B"}
    assert set(result.clusters[1].members) == {"C", "D"}


def test_cluster_concatenation_is_mean_sorted():
    groups = synthetic_groups([3.0, 1.0, 9.0, 5.0], 0.5, 25, seed=3)
    result = scott_knott(groups)
    order = [name for cluster in result.clusters for name in cluster.members]
    means = [np.mean(groups[name]) for name in order]
    assert means == sorted(means)
    assert sorted(order) == sorted(groups)


def test_shift_stability():
    groups = synthetic_groups([1.0, 2.0, 8.0], 0.7, 30, seed=13)
    shifted = {name: values + 100.0 for name, values in groups.items()}
    a = scott_knott(groups)
    b = scott_knott(shifted)
    assert [c.members for c in a.clusters] == [c.members for c in b.clusters]


def test_ulp_apart_constant_groups_cluster():
    # sigma2 is ~1e-33 and B0 is rounding noise, so lambda*/2 reaches ~1e17;
    # the noise is within B0's rounding bound, so no cut is counted
    low, high = 0.30000000000000004, 0.3000000000000001
    groups = {f"g{i}": [value] * 24 for i, value in enumerate([high] * 4 + [low] * 2)}
    result = scott_knott(groups)
    assert len(result.clusters) == 1
    assert sorted(result.clusters[0].members) == sorted(groups)
    assert [groups[name][0] for name in result.clusters[0].members] == sorted(v[0] for v in groups.values())


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(-3, 3), st.booleans())
def test_ulp_apart_constant_groups_never_split(seed, g, exponent, two_way):
    # constant groups whose means lie within a few ulps of each other, at
    # any scale, through both entry points
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.1, 10.0) * 10.0**exponent
    values = (base + np.spacing(base) * rng.integers(-2, 3, g)).tolist()
    if two_way:
        result = scott_knott_two_way({(f"t{i}", k): [v] * 12 for i, v in enumerate(values) for k in (1, 2)})
    else:
        result = scott_knott({f"g{i}": [v] * 24 for i, v in enumerate(values)})
    assert len(result.clusters) == 1


@pytest.mark.parametrize("factor", [1e200, 1e-200, 2.0**660, 2.0**-660])
def test_scott_knott_scale_free_at_extreme_magnitudes(factor):
    groups = synthetic_groups([1.0, 2.0, 4.0], 0.1, 20, seed=29)
    scaled = {name: values * factor for name, values in groups.items()}
    plain, result = scott_knott(groups), scott_knott(scaled)
    assert [c.members for c in plain.clusters] == [("A",), ("B",), ("C",)]
    assert [c.members for c in result.clusters] == [c.members for c in plain.clusters]
    for cluster in result.clusters:
        assert cluster.means == tuple(float(np.mean(scaled[name])) for name in cluster.members)
    if math.frexp(factor)[0] == 0.5:          # a power of two scales every mean exactly
        assert [c.means for c in result.clusters] == [
            tuple(m * factor for m in c.means) for c in plain.clusters]


@pytest.mark.parametrize("factor", [2.0**660, 2.0**-660])
def test_two_way_scale_free_at_extreme_magnitudes(factor):
    rng = np.random.default_rng(31)
    cells = {(t, k): rng.normal(mu, 0.1, size=10) for t, mu in (("A", 1.0), ("B", 2.0), ("C", 4.0))
             for k in (1, 2)}
    plain = scott_knott_two_way(cells)
    result = scott_knott_two_way({key: values * factor for key, values in cells.items()})
    assert len(plain.clusters) == 3
    assert [c.members for c in result.clusters] == [c.members for c in plain.clusters]
    assert [c.means for c in result.clusters] == [tuple(m * factor for m in c.means) for c in plain.clusters]


def best_cut_loop(means):
    """The cut loop ``stats._best_cut`` replaced: a running left sum, and the
    first cut whose B0 beats every earlier one."""
    g = means.size
    total = means.sum()
    best_b0 = -np.inf
    best_cut = 1
    left = 0.0
    for cut in range(1, g):
        left += means[cut - 1]
        right = total - left
        b0 = left * left / cut + right * right / (g - cut) - total * total / g
        if b0 > best_b0:
            best_b0 = b0
            best_cut = cut
    return best_cut, best_b0


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.sampled_from(["spread", "ties", "ulps"]))
def test_best_cut_matches_loop_oracle(seed, g, kind):
    # sorted means scaled into [0.5, 1) as ``_split`` sees them; tied and
    # ulp-apart means tie B0 between cuts, where the first cut must win
    rng = np.random.default_rng(seed)
    if kind == "spread":
        means = rng.uniform(-1.0, 1.0, size=g)
    elif kind == "ties":
        means = rng.choice([0.5, 0.625, 0.75], size=g)
    else:
        base = rng.uniform(0.5, 0.9)
        means = base + np.spacing(base) * rng.integers(-2, 3, size=g)
    means = np.ldexp(np.sort(means), -int(np.frexp(np.max(np.abs(means)))[1]))
    cut, b0 = _best_cut(means)
    want_cut, want_b0 = best_cut_loop(means)
    assert cut == want_cut and type(cut) is int
    assert b0 == want_b0


def oracle_scott_knott(groups, alpha):
    """Independent implementation: exhaustive contiguous bipartitions at each level."""
    from scipy.stats import chi2

    names = sorted(groups, key=lambda g: np.mean(groups[g]))
    n_total = sum(len(groups[g]) for g in groups)
    mse = sum(np.sum((np.asarray(groups[g]) - np.mean(groups[g])) ** 2) for g in groups) / (
        n_total - len(groups)
    )
    nu = n_total - len(groups)

    def recurse(subset):
        g = len(subset)
        if g == 1:
            return [subset]
        means = [np.mean(groups[name]) for name in subset]
        grand = np.mean(means)
        candidates = []
        for cut in range(1, g):
            left, right = means[:cut], means[cut:]
            b0 = (
                len(left) * (np.mean(left) - np.mean(means)) ** 2
                + len(right) * (np.mean(right) - np.mean(means)) ** 2
            )
            # equivalent quadratic form, computed differently on purpose
            candidates.append((b0, cut))
        b0, cut = max(candidates)
        sigma2 = (sum((m - grand) ** 2 for m in means) + nu * mse) / (g + nu)
        lam = math.pi / (2 * (math.pi - 2)) * b0 / sigma2
        if lam > chi2.ppf(1 - alpha, g / (math.pi - 2)):
            return recurse(subset[:cut]) + recurse(subset[cut:])
        return [subset]

    return [tuple(part) for part in recurse(names)]


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_matches_exhaustive_oracle(seed):
    rng = np.random.default_rng(seed)
    n_groups = int(rng.integers(2, 9))
    means = rng.uniform(0, 10, size=n_groups)
    groups = synthetic_groups(means, float(rng.uniform(0.2, 2.0)), 20, seed=seed + 100)
    result = scott_knott(groups)
    assert [c.members for c in result.clusters] == oracle_scott_knott(groups, 0.05)


def test_lower_alpha_never_refines(monkeypatch):
    groups = synthetic_groups([1.0, 1.6, 2.2, 6.0, 6.5], 0.8, 30, seed=17)
    fine = scott_knott(groups)
    monkeypatch.setattr(stats, "ALPHA", 0.01)
    coarse = scott_knott(groups)
    assert len(coarse.clusters) <= len(fine.clusters)
    # each strict-alpha cluster is a union of consecutive lax-alpha clusters
    fine_boundaries = set()
    pos = 0
    for cluster in fine.clusters:
        pos += len(cluster.members)
        fine_boundaries.add(pos)
    pos = 0
    for cluster in coarse.clusters:
        pos += len(cluster.members)
        assert pos in fine_boundaries


def test_scott_knott_input_validation():
    with pytest.raises(ValueError):
        scott_knott({"A": [1, 2, 3]})
    with pytest.raises(ValueError):
        scott_knott({"A": [1.0], "B": [1, 2]})


def test_scott_knott_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite observations in group.* B"):
        scott_knott({"A": [1.0, 2.0, 3.0], "B": [1.0, math.nan, 2.0]})


def test_two_way_null_case():
    rng = np.random.default_rng(11)
    cells = {
        (t, k): rng.normal(5.0, 1.0, size=20)
        for t in ("EBA", "LSE", "RTM", "AQUA", "MT", "GA", "NN", "MLFE")
        for k in range(1, 6)
    }
    result = scott_knott_two_way(cells)
    assert len(result.clusters) == 1


def test_two_way_isolates_shifted_treatment():
    rng = np.random.default_rng(19)
    types = ("EBA", "LSE", "RTM", "AQUA", "MT", "GA", "NN", "MLFE")
    cells = {(t, k): rng.normal(5.0, 1.0, size=30) for t in types for k in range(1, 6)}
    cells = {
        key: values + (10.0 if key[0] == "NN" else 0.0) for key, values in cells.items()
    }
    result = scott_knott_two_way(cells)
    assert result.clusters[-1].members == ("NN",)
    assert all("NN" not in c.members for c in result.clusters[:-1])


def test_two_way_means_are_grand_means():
    rng = np.random.default_rng(23)
    types = ("A", "B", "C")
    cells = {(t, k): rng.normal(i + 1.0, 0.5, size=15) for i, t in enumerate(types) for k in (1, 2)}
    result = scott_knott_two_way(cells)
    for cluster in result.clusters:
        for name, mean in zip(cluster.members, cluster.means):
            pooled = np.concatenate([cells[(name, 1)], cells[(name, 2)]])
            assert mean == pytest.approx(pooled.mean(), abs=1e-9)


def test_two_way_missing_treatment_rejected():
    with pytest.raises(ValueError):
        scott_knott_two_way({("A", 1): [1.0, 2.0]})


def test_transform_spec_roundtrip():
    spec = TransformSpec(box_cox_lambda=0.5, shift=0.0)
    x = np.array([1.0, 4.0, 9.0])
    assert np.allclose(apply_transform(x, spec), (np.sqrt(x) - 1) / 0.5)
