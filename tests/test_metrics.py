import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ebae.metrics import (
    baseline,
    build_table,
    effect_size,
    exact_random_mae,
    log_floor,
    lsd_and_variance,
    mae,
    mbre_mibre,
    mmre,
    pred25,
    standardized_accuracy,
    summarize,
)


def pointwise_errors(actual, predicted, floor):
    """(AE, MRE, log residual) for one project, the scalar oracle of
    ``build_table``; the floor applies to the log only."""
    if actual <= 0:
        raise ValueError(f"actual effort must be positive, got {actual}")
    ae = abs(actual - predicted)
    mre = ae / actual
    lam = np.log(actual) - np.log(max(predicted, floor))
    return float(ae), float(mre), float(lam)


def table_from(actuals, predictions, floor=1e-9):
    ids = [str(i) for i in range(len(actuals))]
    return build_table("stub", ids, np.asarray(actuals, float), np.asarray(predictions, float), floor)


def test_pointwise_perfect():
    assert pointwise_errors(100.0, 100.0, 1e-9) == (0.0, 0.0, 0.0)


def test_pointwise_quarter_off():
    ae, mre, _ = pointwise_errors(100.0, 75.0, 1e-9)
    assert ae == 25.0
    assert mre == 0.25


def test_pointwise_log_identity():
    _, _, lam = pointwise_errors(math.e, 1.0, 1e-9)
    assert lam == pytest.approx(1.0)


def test_pointwise_rejects_nonpositive_actual():
    with pytest.raises(ValueError):
        pointwise_errors(0.0, 1.0, 1e-9)


def test_mae_mmre_pred25_examples():
    t = table_from([10, 10, 10], [9, 8, 7])
    assert mae(t) == pytest.approx(2.0)                      # AEs 1,2,3
    t2 = table_from([10, 10, 10, 10], [9, 7, 8, 7.5])        # MREs .1 .3 .2 .25
    assert pred25(t2) == 75.0
    assert mmre(t2) == pytest.approx(0.2125)


def test_perfect_table():
    t = table_from([5, 6, 7], [5, 6, 7])
    assert mae(t) == 0.0 and mmre(t) == 0.0 and pred25(t) == 100.0


def test_lsd_zero_for_perfect():
    assert lsd_and_variance(table_from([5, 6, 7], [5, 6, 7]))[0] == 0.0


def test_lsd_hand_example():
    # log residuals 0.1 and -0.1 -> s2 = 0.02, LSD = sqrt(0.11^2 + (-0.09)^2)
    t = table_from([math.e**0.1, math.e**-0.1], [1.0, 1.0])
    assert lsd_and_variance(t)[0] == pytest.approx(math.sqrt(0.0121 + 0.0081), rel=1e-9)


def test_lsd_constant_residuals():
    c = 0.4
    n = 6
    t = table_from([math.exp(c)] * n, [1.0] * n)
    assert lsd_and_variance(t)[0] == pytest.approx(abs(c) * math.sqrt(n / (n - 1)), rel=1e-9)


def test_mbre_mibre_example():
    t = table_from([10.0], [5.0])
    mbre, mibre = mbre_mibre(t)
    assert mbre == 1.0 and mibre == 0.5
    swapped = table_from([5.0], [10.0])
    assert mbre_mibre(swapped) == (mbre, mibre)


def test_mbre_mibre_perfect():
    assert mbre_mibre(table_from([4, 5], [4, 5])) == (0.0, 0.0)


def test_exact_random_mae_toy():
    assert exact_random_mae([4, 8, 12, 20, 30]) == pytest.approx(12.8)


def test_baseline_toy_exact_and_monte_carlo():
    b = baseline([4, 8, 12, 20, 30], runs=1000, seed=1)
    assert b.mae_p0 == pytest.approx(12.8)
    assert b.sp0 > 0
    assert not b.degenerate


def test_baseline_constant_efforts_signal():
    b = baseline([7, 7, 7], runs=100, seed=1)
    assert b.degenerate
    with pytest.raises(ValueError):
        standardized_accuracy(1.0, b)


def test_baseline_efforts_constant_up_to_rounding_are_degenerate():
    # 0.01 and its next float apart: MAE_p0 is rounding noise, so SA would not
    # survive a change of units
    for efforts in ([0.010000000000000002, 0.010000000000000002, 0.01], [1.0, 1.0, 1.0 + 1e-7]):
        b = baseline(efforts, runs=100, seed=2)
        assert b.degenerate and b.sp0 == 0.0
    assert not baseline([1.0, 1.0, 1.0 + 1e-5], runs=100, seed=2).degenerate


def test_monte_carlo_mean_close_to_exact():
    rng = np.random.default_rng(3)
    efforts = rng.lognormal(3, 1, size=30)
    runs = 2000
    b = baseline(efforts, runs=runs, seed=9)
    # re-simulate independently to recover the mean run MAE
    rng2 = np.random.default_rng(11)
    sims = []
    n = len(efforts)
    for _ in range(runs):
        total = 0.0
        for t in range(n):
            r = rng2.integers(0, n - 1)
            r = r + 1 if r >= t else r
            total += abs(efforts[t] - efforts[r])
        sims.append(total / n)
    assert np.mean(sims) == pytest.approx(b.mae_p0, abs=3 * b.sp0 / math.sqrt(runs))


def test_sa_examples():
    b = baseline([4, 8, 12, 20, 30], runs=1000, seed=1)
    assert standardized_accuracy(0.0, b) == 1.0
    assert standardized_accuracy(b.mae_p0, b) == 0.0
    assert standardized_accuracy(2 * b.mae_p0, b) == -1.0


def test_effect_size_examples():
    from ebae.metrics import BaselineStats

    b = BaselineStats(mae_p0=12.8, sp0=2.0, sa5=0.1, runs=1000, seed=0)
    assert effect_size(12.8, b) == 0.0
    assert effect_size(8.8, b) == pytest.approx(2.0)
    assert effect_size(10.0, b) > 0


def test_effect_size_rejects_overflowing_baseline_spread():
    b = baseline(10 * np.arange(1, 21) * 1e154, 200, 1)
    assert b.sp0 == math.inf and math.isfinite(b.mae_p0) and math.isfinite(b.sa5)
    with pytest.raises(ValueError, match="effect size undefined: baseline deviation overflows"):
        effect_size(b.mae_p0 / 2, b)


def test_log_floor_scale():
    assert log_floor([10, 20, 30]) == pytest.approx(2e-5)


positive = st.floats(min_value=0.01, max_value=1e5, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(positive, positive), min_size=3, max_size=30))
@example([(1.0, 1.0), (1.0, 1.0), (0.010000000000000002, 0.01)])   # MAE 5.8e-19, SA rounds to 1.0
def test_metric_identities_property(pairs):
    actuals = [a for a, _ in pairs]
    predictions = [p for _, p in pairs]
    floor = log_floor(actuals)
    t = build_table("prop", [str(i) for i in range(len(pairs))], actuals, predictions, floor)
    b = baseline(actuals, runs=100, seed=5)
    assert 0.0 <= pred25(t) <= 100.0
    mbre, mibre = mbre_mibre(t)
    assert mibre <= mbre + 1e-12
    m = mae(t)
    if not b.degenerate:
        sa = standardized_accuracy(m, b)
        assert sa == 1.0 - m / b.mae_p0
        assert m != 0.0 or sa == 1.0
        if b.sp0 > 0:
            assert (effect_size(m, b) == 0.0) == (m == b.mae_p0)
    assert (lsd_and_variance(t)[0] == 0.0) == bool(np.all(t.log_residuals == 0.0))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(positive, st.floats(min_value=-1e3, max_value=1e5)), min_size=1, max_size=30))
def test_build_table_matches_pointwise_errors(pairs):
    actuals = [a for a, _ in pairs]
    predictions = [p for _, p in pairs]
    floor = log_floor(actuals)
    t = build_table("cols", [str(i) for i in range(len(pairs))], actuals, predictions, floor)
    expected = [pointwise_errors(a, p, floor) for a, p in pairs]
    assert t.project_ids == tuple(str(i) for i in range(len(pairs)))
    assert t.actuals.tolist() == actuals
    assert t.predictions.tolist() == predictions
    assert t.aes.tolist() == [ae for ae, _, _ in expected]
    assert t.mres.tolist() == [mre for _, mre, _ in expected]
    assert t.log_residuals.tolist() == [lam for _, _, lam in expected]
    assert t == build_table("cols", t.project_ids, actuals, predictions, floor)
    assert t != build_table("cols", t.project_ids, actuals, [p + 1.0 for p in predictions], floor)


def test_build_table_shares_read_only_actuals_and_copies_writable_ones():
    ids = ("a", "b", "c")
    frozen = np.array([1.0, 2.0, 4.0])
    frozen.flags.writeable = False
    shared = build_table("s", ids, frozen, [1.0, 1.0, 1.0], 1e-9)
    assert shared.actuals is frozen and shared.project_ids is ids
    writable = np.array([1.0, 2.0, 4.0])
    copied = build_table("s", ids, writable, [1.0, 1.0, 1.0], 1e-9)
    assert copied.actuals is not writable and writable.flags.writeable
    assert not copied.actuals.flags.writeable
    assert copied == shared
    writable[0] = 8.0
    assert copied == shared


def test_build_table_rejects_nonpositive_actual():
    with pytest.raises(ValueError, match="must be positive"):
        build_table("bad", ["a", "b"], [1.0, 0.0], [1.0, 1.0], 1e-9)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(positive, positive), min_size=3, max_size=20),
    st.floats(min_value=0.01, max_value=100.0),
)
def test_sa_scale_invariance(pairs, scale):
    actuals = np.array([a for a, _ in pairs])
    predictions = np.array([p for _, p in pairs])
    t1 = build_table("s", map(str, range(len(pairs))), actuals, predictions, log_floor(actuals))
    t2 = build_table(
        "s", map(str, range(len(pairs))), scale * actuals, scale * predictions, log_floor(scale * actuals)
    )
    b1 = baseline(actuals, runs=100, seed=2)
    b2 = baseline(scale * actuals, runs=100, seed=2)
    if b1.degenerate:
        return
    sa1 = standardized_accuracy(mae(t1), b1)
    sa2 = standardized_accuracy(mae(t2), b2)
    assert sa1 == pytest.approx(sa2, rel=1e-9, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(positive, positive), min_size=3, max_size=20), st.randoms())
def test_permutation_invariance(pairs, pyrandom):
    actuals = [a for a, _ in pairs]
    predictions = [p for _, p in pairs]
    floor = log_floor(actuals)
    t1 = build_table("p", map(str, range(len(pairs))), actuals, predictions, floor)
    order = list(range(len(pairs)))
    pyrandom.shuffle(order)
    t2 = build_table(
        "p", [str(i) for i in order], [actuals[i] for i in order], [predictions[i] for i in order], floor
    )
    assert mae(t1) == pytest.approx(mae(t2), rel=1e-12)
    assert mmre(t1) == pytest.approx(mmre(t2), rel=1e-12)
    assert pred25(t1) == pred25(t2)
    assert lsd_and_variance(t1)[0] == pytest.approx(lsd_and_variance(t2)[0], rel=1e-9)


def test_mibre_mre_mbre_ordering_when_underestimating():
    t = table_from([10, 20], [8, 15])       # predictions below actuals
    mbre, mibre = mbre_mibre(t)
    assert mibre <= mmre(t) <= mbre


def test_summarize_is_consistent(toy):
    b = baseline(toy.efforts, runs=500, seed=4)
    t = table_from(toy.efforts, toy.efforts * 1.1)
    s = summarize(t, b)
    assert s.sa == standardized_accuracy(mae(t), b)
    assert s.delta == effect_size(mae(t), b)
    assert s.mmre == pytest.approx(0.1, rel=1e-9)
