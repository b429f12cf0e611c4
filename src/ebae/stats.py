"""Normality tooling and Scott-Knott multiple-comparison clustering.

Scott-Knott sorts group means and recursively splits the ordering at the
contiguous cut maximizing the between-group sum of squares B0. A cut is kept
when lambda* = pi / (2*(pi-2)) * B0 / sigma2 exceeds the chi-square critical
value at ``alpha`` with g/(pi-2) degrees of freedom, where sigma2 is the
maximum-likelihood variance estimate of the g current means pooled with the
residual mean square: sigma2 = (sum((mean_i - mean)^2) + nu * mse) / (g + nu).
A cut whose B0 lies within the bound on its own rounding error is not kept.
The split search at each level is exhaustive over all contiguous binary
partitions, so the recursion is exact, not heuristic. The observations are
first multiplied by one power of two that brings their largest magnitude into
[0.5, 1), and the cluster means are multiplied back: both steps are exact, so
B0 and sigma2 scale alike and lambda* keeps its bits, while their sums of
squares can no longer overflow.

The critical value is never computed. The chi-square CDF with g/(pi-2)
degrees of freedom at lambda* is P(g/(2(pi-2)), lambda*/2), the regularised
lower incomplete gamma function, so a cut is kept when
P(g/(2(pi-2)), lambda*/2) > 1 - alpha. P(a, x) is evaluated by its series
for x < a + 1 and by its Lentz continued fraction otherwise (Press et al.,
Numerical Recipes, 3rd ed., section 6.2, ``gammp``), so the module needs
numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_PI_FACTOR = math.pi / (2.0 * (math.pi - 2.0))
_EPS = 1e-16       # relative stopping tolerance of the incomplete-gamma series and fraction
_FPMIN = 1e-300    # keeps the continued fraction's denominators off zero
_LAMBDA_GRID = np.arange(-200, 201) * 0.01

# B0 of a cut of g means, whose largest magnitude is M, is computed within
# 6 g^2 eps M^2 of its exact value (eps = 2^-52, first order in eps). B0 is
# T1 + T2 - T3, where each term s^2 / k squares a sum s of k <= g means:
# left, right = total - left and total, with T1 + T2 <= g M^2. A recursive or
# pairwise sum of k means is off by at most (k - 1) k M eps / 2, so left and
# total are off by at most g^2 M eps / 2 and right by g^2 M eps + g M eps / 2.
# A term whose s is off by D is off by at most 2 M D, as |s| <= k M, plus
# k M^2 eps for the rounding of the square and the quotient: 4 g^2 M^2 eps +
# 3 g M^2 eps over the three terms. The sum and difference that combine them
# add g M^2 eps, and 4 g M^2 eps <= 2 g^2 M^2 eps for g >= 2. A cut whose B0
# is within 8 g^2 eps M^2, which leaves room for the terms of higher order,
# may be rounding noise alone, as between groups whose means are equal or an
# ulp apart, and is not counted.
_B0_ROUNDING = 8.0 * np.finfo(float).eps


@dataclass(frozen=True)
class TransformSpec:
    """A fitted Box-Cox transform: shift applied first, then the power map."""

    box_cox_lambda: float
    shift: float = 0.0


@dataclass(frozen=True)
class Cluster:
    members: tuple       # group names, best (smallest mean) first within cluster
    means: tuple         # matching mean transformed values


@dataclass(frozen=True)
class ScottKnottResult:
    clusters: tuple      # best cluster first; contiguous in mean order
    alpha: float
    transform: TransformSpec | None = None


def _power_transform(x, lam):
    """The Box-Cox map of a float array already known to be positive."""
    if lam == 0.0:
        return np.log(x)
    return (x**lam - 1.0) / lam


def _log_likelihood(x, lam, log_sum):
    y = _power_transform(x, lam)
    var = np.var(y)
    if var <= 0:
        return -np.inf
    return -0.5 * x.size * np.log(var) + (lam - 1.0) * log_sum


def box_cox(values):
    """Fit lambda by maximum log-likelihood over a grid of -2 to 2 in steps
    of 0.01, and transform.

    Non-positive inputs are shifted up by 1e-3 of the maximum value first
    (exact predictions produce zero absolute errors). Returns the transformed
    array and the fitted TransformSpec.
    """
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        raise ValueError("empty input")
    if not np.all(np.isfinite(x)):
        raise ValueError("Box-Cox input contains non-finite values")
    shift = 0.0
    if np.min(x) <= 0:
        shift = 1e-3 * float(np.max(x)) if np.max(x) > 0 else 1e-3
        if np.min(x) + shift <= 0:
            raise ValueError("shift did not make values positive")
    shifted = x + shift
    if np.all(shifted == shifted[0]):
        # Degenerate constant input: any lambda is as good; use the affine branch.
        spec = TransformSpec(box_cox_lambda=1.0, shift=shift)
        return _power_transform(shifted, 1.0), spec
    log_sum = float(np.sum(np.log(shifted)))
    # NaN or -inf marks a lambda whose transform or variance overflows;
    # lambda = 0 (the log) never does, so the best likelihood is finite and
    # so is the transform it picks
    with np.errstate(over="ignore", invalid="ignore"):
        lls = [_log_likelihood(shifted, float(lam), log_sum) for lam in _LAMBDA_GRID]
    best = float(_LAMBDA_GRID[int(np.nanargmax(lls))])
    spec = TransformSpec(box_cox_lambda=best, shift=shift)
    return _power_transform(shifted, best), spec


def apply_transform(values, spec):
    """``spec``'s shift, then its Box-Cox map; shifted values must be positive."""
    x = np.asarray(values, dtype=float) + spec.shift
    if np.any(x <= 0):
        raise ValueError("Box-Cox requires strictly positive values")
    return _power_transform(x, spec.box_cox_lambda)


# Critical points for the normality KS statistic with estimated mean/std,
# after the Stephens small-sample modification D * (sqrt(n) - 0.01 + 0.85/sqrt(n)).
_LILLIEFORS_TABLE = ((0.01, 1.035), (0.025, 0.955), (0.05, 0.895), (0.10, 0.819), (0.15, 0.775))


def _normal_cdf(z):
    """Standard normal CDF, elementwise; erfc keeps the lower tail accurate."""
    return np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in np.asarray(z).tolist()])


def _lilliefors_critical(alpha):
    levels = [a for a, _ in _LILLIEFORS_TABLE]
    crits = [c for _, c in _LILLIEFORS_TABLE]
    if not levels[0] <= alpha <= levels[-1]:
        raise ValueError(f"alpha must be within [{levels[0]}, {levels[-1]}]")
    return float(np.interp(alpha, levels, crits))


def ks_normality(values, alpha=0.05):
    """One-sample KS test of normality with estimated parameters.

    Returns (statistic, reject). The critical value uses the Lilliefors
    correction, since mean and standard deviation are estimated from the
    sample itself.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    if n < 5:
        raise ValueError("normality test needs at least 5 observations")
    std = x.std(ddof=1)
    if std == 0:
        raise ValueError("normality test undefined for zero-variance input")
    cdf = _normal_cdf((x - x.mean()) / std)
    i = np.arange(1, n + 1)
    statistic = float(max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n)))
    modified = statistic * (math.sqrt(n) - 0.01 + 0.85 / math.sqrt(n))
    return statistic, bool(modified > _lilliefors_critical(alpha))


def _best_cut(means):
    """(cut, B0) of the contiguous binary partition of ordered means with the
    largest B0; the first such cut on ties."""
    g = means.size
    total = means.sum()
    cuts = np.arange(1, g)
    left = np.cumsum(means[:-1])
    b0 = left * left / cuts + (total - left) ** 2 / (g - cuts) - total * total / g
    best = int(np.argmax(b0))
    return best + 1, b0[best]


def _gammp(a, x):
    """Regularised lower incomplete gamma function P(a, x) for a > 0."""
    if not x > 0:
        return 0.0
    if x == math.inf:
        return 1.0
    a_log_x = a * math.log(x)
    if a < 170.0 and x < 700.0 and abs(a_log_x) < 700.0:
        # the direct product is a few ulps off; the exponential of a rounded
        # large exponent would be up to |exponent| ulps off
        prefactor = x**a * math.exp(-x) / math.gamma(a)
    else:
        prefactor = math.exp(a_log_x - x - math.lgamma(a))
    if x < a + 1.0:
        # series: P = e^-x x^a / Gamma(a) * sum_n x^n / (a (a+1) ... (a+n))
        term = total = 1.0 / a
        ap = a
        while True:
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * _EPS:
                return total * prefactor
    if prefactor == 0.0:
        # Q underflows; the fraction below would end on the same 1.0, but past
        # x ~ 2.5e16 its b += 2 no longer moves b and it would never end
        return 1.0
    # continued fraction for Q = 1 - P by the modified Lentz method
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    i = 1
    while True:
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return 1.0 - prefactor * h
        i += 1


def _significant(lam_star, g, alpha):
    """lam_star > chi2.ppf(1 - alpha, g/(pi-2)), asked through the chi-square CDF."""
    return _gammp(g / (2.0 * (math.pi - 2.0)), lam_star / 2.0) > 1.0 - alpha


def _split(names, means, mse, nu, alpha, out):
    g = means.size
    if g == 1:
        out.append((names, means))
        return
    cut, b0 = _best_cut(means)
    sigma2 = (np.sum((means - means.mean()) ** 2) + nu * mse) / (g + nu)
    lam_star = _PI_FACTOR * b0 / sigma2 if sigma2 > 0 else np.inf
    noise = _B0_ROUNDING * g * g * np.max(np.abs(means)) ** 2
    if b0 > noise and sigma2 > 0 and _significant(lam_star, g, alpha):
        _split(names[:cut], means[:cut], mse, nu, alpha, out)
        _split(names[cut:], means[cut:], mse, nu, alpha, out)
    else:
        out.append((names, means))


def _exponent(arrays):
    """e such that 2^-e brings the largest magnitude in ``arrays`` into [0.5, 1)."""
    return int(np.frexp(max(np.max(np.abs(a)) for a in arrays))[1])


def _cluster_means(names, means, mse, nu, alpha, e):
    """Cluster the means scaled by 2^-e; the result's means are unscaled."""
    order = np.argsort(means, kind="stable")
    ordered_names = [names[i] for i in order]
    ordered_means = means[order]
    pieces = []
    _split(ordered_names, ordered_means, mse, nu, alpha, pieces)
    return ScottKnottResult(
        clusters=tuple(
            Cluster(members=tuple(ns), means=tuple(float(m) for m in np.ldexp(ms, e)))
            for ns, ms in pieces
        ),
        alpha=alpha,
    )


def scott_knott(groups, alpha=0.05):
    """Cluster named observation groups into homogeneous, non-overlapping bands.

    ``groups`` maps a name to its (transformed) error observations. The
    residual mean square is the pooled within-group variance of all groups.
    """
    if len(groups) < 2:
        raise ValueError("need at least 2 groups")
    names = list(groups)
    arrays = [np.asarray(groups[name], dtype=float) for name in names]
    if any(a.size < 2 for a in arrays):
        raise ValueError("every group needs at least 2 observations")
    bad = [name for name, a in zip(names, arrays) if not np.all(np.isfinite(a))]
    if bad:
        raise ValueError(f"non-finite observations in group(s) {', '.join(map(str, bad))}")
    e = _exponent(arrays)
    arrays = [np.ldexp(a, -e) for a in arrays]
    means = np.array([a.mean() for a in arrays])
    total = sum(a.size for a in arrays)
    nu = total - len(arrays)
    sse = sum(float(np.sum((a - a.mean()) ** 2)) for a in arrays)
    mse = sse / nu
    return _cluster_means(names, means, mse, nu, alpha, e)


def scott_knott_two_way(cells, alpha=0.05):
    """Scott-Knott over treatment means with a two-way ANOVA error term.

    ``cells`` maps (treatment, group) -> observations, e.g. (adjustment
    method, k) -> absolute errors. The residual mean square comes from the
    additive two-way decomposition (interaction pooled into the residual),
    and the clustering runs over the treatment means.
    """
    treatments = sorted({t for t, _ in cells}, key=str)
    levels = sorted({g for _, g in cells}, key=str)
    if len(treatments) < 2:
        raise ValueError("need at least 2 treatments")
    values = {key: np.asarray(obs, dtype=float) for key, obs in cells.items()}
    if any(v.size == 0 for v in values.values()):
        raise ValueError("empty cell")
    e = _exponent(values.values())
    values = {key: np.ldexp(v, -e) for key, v in values.items()}

    grand = np.concatenate(list(values.values()))
    grand_mean = grand.mean()
    ss_total = float(np.sum((grand - grand_mean) ** 2))
    by_treatment = [np.concatenate([values[(t, g)] for g in levels if (t, g) in values])
                    for t in treatments]
    by_level = [np.concatenate([values[(t, g)] for t in treatments if (t, g) in values])
                for g in levels]
    ss_treat = float(sum(p.size * (p.mean() - grand_mean) ** 2 for p in by_treatment))
    ss_level = float(sum(p.size * (p.mean() - grand_mean) ** 2 for p in by_level))
    nu = grand.size - len(treatments) - len(levels) + 1
    if nu <= 0:
        raise ValueError("not enough observations for a two-way residual")
    mse = max(ss_total - ss_treat - ss_level, 0.0) / nu
    means = np.array([p.mean() for p in by_treatment])
    return _cluster_means(treatments, means, mse, nu, alpha, e)
