"""Box-Cox transform, normality tooling and Scott-Knott multiple-comparison
clustering.

Box-Cox fits lambda by maximum likelihood over a grid of 401 values from -2
to 2. A screen first approximates every grid point's likelihood from the
power sums sum(v) and sum(v^2) of v = x^lambda, stepping v along the grid
by one multiply with x^0.01 per point, and bounds its error: the rounding
of those multiplies, the cancellation of the one-pass variance, and the
error of the exact likelihood's own power and two-pass variance. The exact
likelihood is then computed only at the grid points the bound cannot rule
out, which always include every point that ties the best, so lambda is
the full grid's.

Scott-Knott sorts group means and recursively splits the ordering at the
contiguous cut maximizing the between-group sum of squares B0. A cut is kept
when lambda* = pi / (2*(pi-2)) * B0 / sigma2 exceeds the chi-square critical
value at level ``ALPHA`` with g/(pi-2) degrees of freedom, where sigma2 is the
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
P(g/(2(pi-2)), lambda*/2) > 1 - ALPHA. P(a, x) is evaluated by its series
for x < a + 1 and by its Lentz continued fraction otherwise (Press et al.,
Numerical Recipes, 3rd ed., section 6.2, ``gammp``), so the module needs
numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Significance level of Scott-Knott and of the normality check; a level
# missing from _LILLIEFORS_CRITICAL fails the normality check with KeyError.
ALPHA = 0.05
_PI_FACTOR = math.pi / (2.0 * (math.pi - 2.0))
_EPS = 1e-16       # relative stopping tolerance of the incomplete-gamma series and fraction
_FPMIN = 1e-300    # keeps the continued fraction's denominators off zero
_LAMBDA_STEP = 0.01
_LAMBDA_GRID = np.arange(-200, 201) * _LAMBDA_STEP
_ULP = np.finfo(float).eps     # 2^-52; a correctly rounded operation is within _ULP / 2
_LIBM_ERROR = 4.0 * _ULP       # relative error taken for np.power and np.log
_SCREEN_LIMIT = 1e60           # the screen runs on x within [1 / limit, limit]

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


# The screen's bound E. Write u = _ULP / 2, p = _LIBM_ERROR, w = x^lam for
# the grid's float lam, M2 = mean(w^2), V = var(w), K = M2 / V and
# C = (M2 + 1) / V; every bound is first order in u. Both paths add the same
# rounded t = (lam - 1) * log_sum, so they differ only in their variances
# and in their last roundings. On [1 / _SCREEN_LIMIT, _SCREEN_LIMIT] every
# v, v^2, sum and mean stays a normal number, where these relative bounds
# hold; outside it no lambda is bounded.
# Recurrence: v reaches lam = j * 0.01 from 1 by j factors x^0.01, each
# within p, and j - 1 rounded products; lam is j * 0.01 rounded, within
# u |lam|, and |ln x| <= ln _SCREEN_LIMIT. So v is within
# a = j (p + u) + u |lam| ln _SCREEN_LIMIT of w.
# One-pass variance: a sum of n positive terms in any order (numpy's
# pairwise sum, any BLAS kernel's dot) is within (n - 1) u of its terms'
# sum, a dot product within n u. So m1 = sum(v) / n is within a + n u,
# m2 = v @ v / n within 2a + (n + 1) u and m1^2 within 2a + (2n + 1) u.
# As m1^2 <= m2, the rounded m2 - m1^2 is within (4a + (3n + 3) u) M2 of V,
# and dividing by lam^2 adds 2u: q = var / lam^2 is within
# e_A = (4a + (3n + 5) u) K of V / lam^2. The cancellation costs the factor
# K = sum(v^2) / (n var).
# Exact path: the rounded pow, subtraction and quotient put y within
# (p + 3u)(w + 1) / |lam| of (w - 1) / lam. A standard deviation moves by
# at most the rms of the change, so std(y) is within
# d = (p + 3u) sqrt(2C) of sqrt(V) / |lam|. np.var's first pass gives a mean
# within n u rms(y), whose square adds at most 2 ((n + 1) u)^2 C; its
# second pass (difference, square, sum, quotient) is within (n + 3) u. So
# np.var is within e_X = 2d + d^2 + (n + 3) u + 2 ((n + 1) u)^2 C of V / lam^2.
# Likelihoods: lambda counts as bounded where e_A and e_X, computed with the
# screen's own K and C, are at most 1/8. The exact K and C are then at most
# 8/7 of those, each variance within 1/7 of V / lam^2, and each log within
# 4/3 of its e: n / 2 times the two logs differ by at most n (e_A + e_X).
# Each log is within p of its value, the product with -n / 2 and the sum
# with t within u, and |ln| of the exact variance is below |ln q| + 1: that
# adds n (p + 2u)(|ln q| + 1) + 2u |t|. E doubles the sum, which leaves room
# for the terms of higher order.
def _screen(x, log_sum):
    """(A, E) over ``_LAMBDA_GRID``: A approximates ``_log_likelihood`` from
    the power sums of x, and |A - _log_likelihood| <= E wherever E is finite.

    A is NaN and E inf where the screen cannot bound A: at lambda = 0, where
    v = 1 has no variance, wherever its sums cancel too far, and everywhere
    when x, which public box_cox takes from any caller, leaves [1 / _SCREEN_LIMIT, _SCREEN_LIMIT].
    """
    size = _LAMBDA_GRID.size
    approx = np.full(size, np.nan)
    bound = np.full(size, np.inf)
    if not (1.0 / _SCREEN_LIMIT <= np.min(x) and np.max(x) <= _SCREEN_LIMIT):
        return approx, bound
    n = x.size
    mid = size // 2
    s1 = np.full(size, float(n))
    s2 = np.full(size, float(n))
    for step, indices in ((_LAMBDA_STEP, range(mid + 1, size)), (-_LAMBDA_STEP, range(mid - 1, -1, -1))):
        ratio = x**step
        v = ratio.copy()
        for i in indices:
            s1[i] = v.sum()
            s2[i] = v @ v
            v *= ratio
    lam = _LAMBDA_GRID
    u = _ULP / 2.0
    m2 = s2 / n
    var = m2 - (s1 / n) ** 2
    a = np.abs(np.arange(size) - mid) * (_LIBM_ERROR + u) + u * np.abs(lam) * math.log(_SCREEN_LIMIT)
    with np.errstate(divide="ignore", invalid="ignore"):
        e_a = (4.0 * a + (3 * n + 5) * u) * (m2 / var)
        c = (m2 + 1.0) / var
        d = (_LIBM_ERROR + 3.0 * u) * np.sqrt(2.0 * c)
        e_x = 2.0 * d + d * d + (n + 3) * u + 2.0 * ((n + 1) * u) ** 2 * c
        bounded = (var > 0) & (e_a <= 0.125) & (e_x <= 0.125)
        log_q = np.log(var[bounded] / (lam[bounded] * lam[bounded]))
    tail = (lam[bounded] - 1.0) * log_sum
    approx[bounded] = -0.5 * n * log_q + tail
    bound[bounded] = 2.0 * (n * (e_a[bounded] + e_x[bounded])
                            + n * (_LIBM_ERROR + 2.0 * u) * (np.abs(log_q) + 1.0) + 2.0 * u * np.abs(tail))
    return approx, bound


def box_cox(values):
    """Fit lambda by maximum log-likelihood over a grid of -2 to 2 in steps
    of 0.01, and transform.

    Non-positive inputs are shifted up by 1e-3 of the maximum value first
    (exact predictions produce zero absolute errors). Returns the transformed
    array and the fitted TransformSpec.

    ``_screen`` first approximates every grid point's likelihood, A, within
    a bound E. ``_log_likelihood`` then confirms the contenders alone: the
    lambdas the screen cannot bound, lambda = 0 among them, and those with
    A + E >= max(A - E) over the bounded ones. Every other lambda's
    likelihood is below that maximum, and so below a contender's, so the
    first best likelihood of the contenders is the first best of the grid.
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
    approx, bound = _screen(shifted, log_sum)
    bounded = np.isfinite(bound)
    floor = np.max(approx[bounded] - bound[bounded], initial=-np.inf)
    contenders = np.flatnonzero(~bounded | (approx + bound >= floor))
    # box_cox is public and takes any array: NaN or -inf marks a lambda whose
    # transform or variance overflows; lambda = 0 (the log) never does, so
    # the best likelihood is finite and so is the transform it picks
    with np.errstate(over="ignore", invalid="ignore"):
        lls = [_log_likelihood(shifted, float(_LAMBDA_GRID[i]), log_sum) for i in contenders]
    best = float(_LAMBDA_GRID[contenders[int(np.nanargmax(lls))]])
    spec = TransformSpec(box_cox_lambda=best, shift=shift)
    return _power_transform(shifted, best), spec


def apply_transform(values, spec):
    """``spec``'s shift, then its Box-Cox map; shifted values must be positive."""
    x = np.asarray(values, dtype=float) + spec.shift
    if np.any(x <= 0):
        raise ValueError("Box-Cox requires strictly positive values")
    return _power_transform(x, spec.box_cox_lambda)


# Critical points, by level, for the normality KS statistic with estimated mean/std,
# after the Stephens small-sample modification D * (sqrt(n) - 0.01 + 0.85/sqrt(n)).
_LILLIEFORS_CRITICAL = {0.01: 1.035, 0.025: 0.955, 0.05: 0.895, 0.10: 0.819, 0.15: 0.775}


def _normal_cdf(z):
    """Standard normal CDF, elementwise; erfc keeps the lower tail accurate."""
    return np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in np.asarray(z).tolist()])


def ks_normality(values):
    """One-sample KS test of normality with estimated parameters, at level ``ALPHA``.

    Returns (statistic, reject). The critical value uses the Lilliefors
    correction, since mean and standard deviation are estimated from the
    sample itself.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    if n < 5:
        raise ValueError("normality test needs at least 5 observations")
    x = np.ldexp(x, -_exponent([x]))     # scale-free, so scaled exactly: no square overflows or underflows
    std = x.std(ddof=1)
    if std == 0:
        raise ValueError("normality test undefined for zero-variance input")
    cdf = _normal_cdf((x - x.mean()) / std)
    i = np.arange(1, n + 1)
    statistic = float(max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n)))
    modified = statistic * (math.sqrt(n) - 0.01 + 0.85 / math.sqrt(n))
    return statistic, bool(modified > _LILLIEFORS_CRITICAL[ALPHA])


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


def _significant(lam_star, g):
    """lam_star > chi2.ppf(1 - ALPHA, g/(pi-2)), asked through the chi-square CDF."""
    return _gammp(g / (2.0 * (math.pi - 2.0)), lam_star / 2.0) > 1.0 - ALPHA


def _split(names, means, mse, nu, out):
    g = means.size
    if g == 1:
        out.append((names, means))
        return
    cut, b0 = _best_cut(means)
    sigma2 = (np.sum((means - means.mean()) ** 2) + nu * mse) / (g + nu)
    lam_star = _PI_FACTOR * b0 / sigma2 if sigma2 > 0 else np.inf
    noise = _B0_ROUNDING * g * g * np.max(np.abs(means)) ** 2
    if b0 > noise and sigma2 > 0 and _significant(lam_star, g):
        _split(names[:cut], means[:cut], mse, nu, out)
        _split(names[cut:], means[cut:], mse, nu, out)
    else:
        out.append((names, means))


def _exponent(arrays):
    """e such that 2^-e brings the largest magnitude in ``arrays`` into [0.5, 1)."""
    return int(np.frexp(max(np.max(np.abs(a)) for a in arrays))[1])


def _cluster_means(names, means, mse, nu, e):
    """Cluster the means scaled by 2^-e; the result's means are unscaled."""
    order = np.argsort(means, kind="stable")
    ordered_names = [names[i] for i in order]
    ordered_means = means[order]
    pieces = []
    _split(ordered_names, ordered_means, mse, nu, pieces)
    return ScottKnottResult(
        clusters=tuple(
            Cluster(members=tuple(ns), means=tuple(float(m) for m in np.ldexp(ms, e)))
            for ns, ms in pieces
        ),
    )


def scott_knott(groups):
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
    e = _exponent(arrays)       # public, so any array: the exact scaling keeps the squares finite
    arrays = [np.ldexp(a, -e) for a in arrays]
    means = np.array([a.mean() for a in arrays])
    total = sum(a.size for a in arrays)
    nu = total - len(arrays)
    sse = sum(float(np.sum((a - a.mean()) ** 2)) for a in arrays)
    mse = sse / nu
    return _cluster_means(names, means, mse, nu, e)


def scott_knott_two_way(cells):
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
    return _cluster_means(treatments, means, mse, nu, e)
