"""Hypothesis tests and confidence intervals for compositional samples.

Likelihood-ratio machinery for Dirichlet-type models:

* one-sample test of a uniform mean composition (free precision),
* the screening procedure that runs that test on both groups and reports a
  joint verdict,
* the two-sample test of equal mean compositions with group-specific
  precisions, under either the plain Dirichlet or a nested model,
* Bonferroni-adjusted confidence intervals for componentwise mean
  differences,
* a log-ratio baseline: Hotelling's T-squared on centered log-ratios.

Every iterative fit exists in a private batch form operating on arrays of
independent datasets; the public functions wrap the single-dataset case. The
uniformity test is the one-row case of _uniformity_lrt_batch, the batch the
screening study and the calibration reference sample run, and the nested test
is the one-row case of nested._fit_nodes over _two_sample_lrt_batch, one
batch per child count on the carriers nested._node_stats reduces (``nested``
holds all per-node work). The two-sample batch fits
both groups' alternatives as one stacked batch too. The simulation harness
drives the batch forms directly. Both null fits, the two-sample test's
common mean and the uniformity test's mean held at 1/K, are one ascent
(_null_ascent) of one mean-precision objective (_null_ll) along one Newton
direction (_null_newton), over G groups.
Every fit runs the one stopping policy of the library (README, "Models"):
the constants dirichlet._GRAD_TOL = 1e-8 on the gradient max-norm,
dirichlet._STEP_TOL = 1e-10 on the largest move and dirichlet._MAX_ITER =
1000 steps; no public function takes a tolerance. The likelihood-ratio
tests report a fit that does not converge as converged=False instead of
raising.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dirichlet, nested
from .composition import CompositionDataset, SufficientStats, clr
from .dirichlet import _T_CAP
from .errors import (
    DegenerateDataError,
    InputError,
    NumericalError,
    SingularMatrixError,
)
from .numerics import (
    _digamma_trigamma_core,
    _is_integer,
    chi_square_sf,
    f_sf,
    normal_quantile,
)

__all__ = [
    "TestReport",
    "MaugardResult",
    "MeanDifferenceCI",
    "REJECT_BOTH",
    "REJECT_ONE",
    "FAIL_BOTH",
    "CALIBRATION_REPLICATES",
    "one_sample_uniformity_test",
    "maugard_procedure",
    "calibrated_uniformity_cutoff",
    "two_sample_dirichlet_lrt",
    "two_sample_ndd_lrt",
    "pairwise_mean_cis",
    "clr_hotelling_test",
]

REJECT_BOTH = "RejectBoth"
REJECT_ONE = "RejectOne"
FAIL_BOTH = "FailBoth"


@dataclass(frozen=True)
class TestReport:
    """Outcome of one hypothesis test."""

    test: str
    statistic: float
    df: tuple[int, ...]
    p_value: float
    groups: tuple[str, ...]
    converged: bool = True
    details: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class MaugardResult:
    """Verdict of the two uniformity tests run side by side."""

    verdict: str
    reports: tuple[TestReport, TestReport]
    level: float


@dataclass(frozen=True)
class MeanDifferenceCI:
    """Confidence interval for one component's mean difference."""

    component: str
    estimate: float
    se: float
    lower: float
    upper: float
    level: float
    z_value: float


# ---------------------------------------------------------------------------
# One-sample uniformity test

def _uniformity_null_batch(mean_log: np.ndarray, n: int | np.ndarray, init_a: np.ndarray):
    """Maximize the uniform-mean likelihood over the precision, per row.

    The common-mean model with one group and the mean held at 1/K:
    _null_ascent in x = (t,), t = log A, with no mean coordinate. For large
    A the likelihood's slope in A is D + (K - 1) / (2A), with D = log K +
    mean_j(mean_log_j) <= 0 (Jensen), so it has a maximum below the cap
    only where D < -(K - 1) / (2 exp(_T_CAP)); every other row, such as one
    whose mean logs all sit at log(1/K), is unconverged, however small its
    steps, since its likelihood is flat to rounding up to the cap.
    Returns (a_opt, loglik_full, converged).
    """
    b, k = mean_log.shape
    x = np.log(np.maximum(init_a, 1.0e-6))[:, None]
    converged, _, loglik_full = _null_ascent(x, [(np.broadcast_to(n, (b,)), mean_log)])
    bounded = np.log(k) + mean_log.mean(axis=1) < -(k - 1) / (2.0 * np.exp(_T_CAP))
    return np.exp(x[:, 0]), loglik_full, converged & bounded


# ---------------------------------------------------------------------------
# Finite-sample calibration of the uniformity test

# Reference draws of the finite-sample calibration unless a caller sets them.
CALIBRATION_REPLICATES = 10000
_CALIBRATION_SEED = 987654321
# Keyed by (n, K, replicates, seed).
_NULL_LRT_CACHE: dict[tuple[int, int, int, int], np.ndarray] = {}
# Draws per chunk and group (replicates x observations x components): the
# calibration and the studies draw and reduce one chunk of replicates at a
# time, so they hold one chunk, never all R replicates' draws. That is one
# 3.3 MB stack for the calibration and 2 x 3.3 MB for a study's two groups at
# n = 100, K = 4 (chunks are sized by the larger group). Chunks sized in
# replicates made small-n fits slower (the 10,000-row calibration at n = 7
# by 1.5x): glibc's malloc sets its trim threshold from the largest block
# freed, and with stacks smaller than the fits' (R, K) temporaries it gave
# that memory back to the system and faulted it in again every iteration.
_CHUNK_DRAWS = 1024 * 100 * 4


def _check_calibration_replicates(count) -> None:
    """Raise InputError unless count, the draws of a calibration reference
    sample, is an integer of at least 1 (a bool is not)."""
    if not (_is_integer(count) and count >= 1):
        raise InputError(
            f"calibration replicates must be an integer of at least 1, got {count!r}"
        )


def _chunk_rows(n_obs: int, k: int) -> int:
    """Replicates per chunk of (n_obs, K) draws."""
    return max(1, _CHUNK_DRAWS // (n_obs * k))


def _uniformity_lrt_batch(stats: SufficientStats):
    """Batched uniformity LRT, per row of a statistics carrier ((1,) results
    for one dataset); the null precision starts at the alternative's,
    floored at 1.

    Returns a dict of per-row arrays: statistic, usable, converged, and the
    fitted pieces needed for reporting.
    """
    alpha, ll1, _, conv1, usable = dirichlet._fit_batch(stats)
    a0, ll0, conv0 = _uniformity_null_batch(
        np.atleast_2d(stats.mean_log), stats.n, np.maximum(alpha.sum(axis=1), 1.0)
    )
    return {
        "statistic": np.maximum(-2.0 * (ll0 - ll1), 0.0),
        "usable": usable,
        "converged": conv1 & conv0,
        "alt_alpha": alpha,
        "alt_loglik": ll1,
        "null_precision": a0,
        "null_loglik": ll0,
    }


def _null_lrt_sample(n_obs: int, k: int, replicates: int, seed: int) -> np.ndarray:
    """Sorted sample of the uniformity LRT statistic under the null.

    Simulated once per (n, K, replicates, seed) and cached for the life of
    the process. The reference generator is the uniform distribution on the
    simplex; the statistic's null distribution is insensitive to the true
    precision (checked numerically over precisions from 2 to 1000), so one
    reference sample serves all null members of a given shape.
    """
    key = (int(n_obs), int(k), int(replicates), int(seed))
    cached = _NULL_LRT_CACHE.get(key)
    if cached is not None:
        return cached
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(n_obs, k))
    )
    # One generator draws the chunks in turn, so they hold the same draws
    # as one (replicates, n, K) call would.
    rows = _chunk_rows(n_obs, k)
    parts = [
        SufficientStats.reduce(
            rng.dirichlet(np.ones(k), size=(min(rows, replicates - lo), n_obs))
        )
        for lo in range(0, replicates, rows)
    ]
    res = _uniformity_lrt_batch(SufficientStats.concat(parts))
    lam = np.sort(res["statistic"][res["usable"] & res["converged"]])
    if 2 * lam.size < replicates:
        raise NumericalError(
            "null calibration failed: fewer than half of the reference "
            "fits converged"
        )
    _NULL_LRT_CACHE[key] = lam
    return lam


def _calibrated_p(statistic, n_obs: int, k: int, replicates: int):
    """Monte Carlo p-value(s) for uniformity LRT statistic(s), measured
    against the simulated finite-sample null distribution."""
    sample = _null_lrt_sample(n_obs, k, replicates, _CALIBRATION_SEED)
    stat = np.asarray(statistic, dtype=float)
    count_ge = sample.size - np.searchsorted(sample, stat, side="left")
    p = (1.0 + count_ge) / (sample.size + 1.0)
    return float(p) if np.ndim(statistic) == 0 else p


def calibrated_uniformity_cutoff(
    n_obs: int,
    k: int,
    level: float = 0.05,
    replicates: int = CALIBRATION_REPLICATES,
) -> float:
    """Finite-sample critical value of the uniformity LRT statistic.

    The asymptotic chi-square reference over-rejects for small samples
    (roughly 8% actual size at n=7 for a nominal 5%). This returns the
    (1 - level) quantile of the statistic's null distribution, simulated at
    the requested shape, which restores the nominal size. It converges to
    the chi-square quantile as n grows. n_obs and k are integers of at
    least 2; the reference sample is the one calibrated p-values use.
    """
    for name, value in (("n_obs", n_obs), ("k", k)):
        if not (_is_integer(value) and value >= 2):
            raise InputError(f"{name} must be an integer of at least 2, got {value!r}")
    if not (0.0 < level < 1.0):
        raise InputError(f"level must be in (0, 1), got {level}")
    _check_calibration_replicates(replicates)
    sample = _null_lrt_sample(int(n_obs), int(k), replicates, _CALIBRATION_SEED)
    return float(np.quantile(sample, 1.0 - level))


def one_sample_uniformity_test(
    data,
    group: str = "",
    calibration_replicates: int | None = None,
) -> TestReport:
    """Likelihood-ratio test of a uniform mean composition.

    Null: mean = (1/K, ..., 1/K) with a free precision. Alternative: any
    Dirichlet. The statistic is -2 log LR with K-1 degrees of freedom and
    the reported p-value is the asymptotic chi-square tail. That reference
    over-rejects for small samples; pass calibration_replicates (at least 1)
    to also get a Monte Carlo p-value against the simulated finite-sample
    null distribution, reported as details["calibrated_p_value"].

    This is the one-row case of _uniformity_lrt_batch; a fit that does not
    converge (README, "Models") gives converged=False.
    """
    if calibration_replicates is not None:
        _check_calibration_replicates(calibration_replicates)
    stats = dirichlet._as_stats(data)
    k = stats.n_components
    res = _uniformity_lrt_batch(stats)
    if not res["usable"][0]:
        raise DegenerateDataError("the data cannot support a Dirichlet fit")
    lam = float(res["statistic"][0])
    details = {
        "alternative_alpha": res["alt_alpha"][0].tolist(),
        "null_precision": float(res["null_precision"][0]),
        "log_likelihood_null": float(res["null_loglik"][0]),
        "log_likelihood_alt": float(res["alt_loglik"][0]),
    }
    if calibration_replicates is not None:
        details["calibrated_p_value"] = _calibrated_p(lam, stats.n, k, calibration_replicates)
        details["calibration_replicates"] = int(calibration_replicates)
    return TestReport(
        test="uniformity",
        statistic=lam,
        df=(k - 1,),
        p_value=chi_square_sf(lam, k - 1),
        groups=(group,) if group else (),
        converged=bool(res["converged"][0]),
        details=details,
    )


def _two_group_dataset(dataset: CompositionDataset, groups=None):
    labels = dataset.groups
    if groups is None:
        if len(labels) != 2:
            raise InputError(
                f"need exactly 2 groups, dataset has {len(labels)}: {labels}"
            )
        groups = labels
    g1, g2 = groups
    x1, x2 = dataset.group_matrix(g1), dataset.group_matrix(g2)
    if x1.shape[0] < 2 or x2.shape[0] < 2:
        raise DegenerateDataError("each group needs at least 2 observations")
    return g1, g2, x1, x2


def _maugard_verdicts(p1, p2, level: float):
    """RejectBoth / RejectOne / FailBoth from the two groups' p-values, per
    element of the (broadcast) p-value arrays."""
    rejections = (np.asarray(p1) < level).astype(int) + (np.asarray(p2) < level)
    return np.array([FAIL_BOTH, REJECT_ONE, REJECT_BOTH])[rejections]


def maugard_procedure(
    dataset: CompositionDataset,
    level: float = 0.05,
    groups=None,
    calibration_replicates: int | None = CALIBRATION_REPLICATES,
) -> MaugardResult:
    """Run the uniformity test on both groups and combine the decisions.

    Verdict: RejectBoth / RejectOne / FailBoth at the given level. The
    procedure flags a group difference only through RejectOne, which is what
    makes its operating characteristics interesting to compare against a
    direct two-sample test.

    By default each group's decision compares its statistic against a
    simulated finite-sample null distribution of calibration_replicates
    draws (at least 1) rather than the asymptotic chi-square tail. At the
    group sizes this screening procedure is meant for, the chi-square
    reference over-rejects, which distorts the verdict frequencies; the
    calibrated rule holds the per-group size at the nominal level. Pass
    calibration_replicates=None to decide on the raw asymptotic p-values.
    """
    if not (0.0 < level < 1.0):
        raise InputError(f"level must be in (0, 1), got {level}")
    if calibration_replicates is not None:
        _check_calibration_replicates(calibration_replicates)
    g1, g2, x1, x2 = _two_group_dataset(dataset, groups)
    r1, r2 = (
        one_sample_uniformity_test(x, group=g, calibration_replicates=calibration_replicates)
        for g, x in ((g1, x1), (g2, x2))
    )
    p1, p2 = (
        r.p_value if calibration_replicates is None else r.details["calibrated_p_value"]
        for r in (r1, r2)
    )
    verdict = str(_maugard_verdicts(p1, p2, level))
    return MaugardResult(verdict=verdict, reports=(r1, r2), level=level)


# ---------------------------------------------------------------------------
# Two-sample test: common mean, free precisions


def _softmax_pinned(theta: np.ndarray, k: int) -> np.ndarray:
    """Softmax of theta (B, d) padded with pinned zeros to K columns: the
    last K - d shares are tied, and d = 0 is the uniform mean."""
    z = np.concatenate([theta, np.zeros((theta.shape[0], k - theta.shape[1]))], axis=1)
    # Row maxima from a column-major copy: exact in any order, and numpy
    # reduces the short rows of a row-major z one row at a time.
    z -= np.asfortranarray(z).max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def _solve_positive_definite(m: np.ndarray, rhs: np.ndarray):
    """Solve m @ x = rhs for each symmetric matrix of a (B, d, d) stack by
    Gaussian elimination without pivoting, which meets only positive pivots
    exactly where m is positive definite. Returns (x, ok), ok marking those
    rows; x solves the system only where ok. Each row is solved by itself,
    bit for bit."""
    m, x = m.copy(), rhs.copy()
    ok = np.ones(m.shape[0], dtype=bool)
    pivots = np.empty_like(x)
    for j in range(m.shape[-1]):
        ok &= m[:, j, j] > 0.0
        # A failed row's pivots are infinite, so it takes no further updates.
        pivots[:, j] = np.where(ok, m[:, j, j], np.inf)
        p = pivots[:, j, None]
        x[:, j + 1 :] -= m[:, j + 1 :, j] * (x[:, j, None] / p)
        m[:, j + 1 :, j + 1 :] -= m[:, j + 1 :, j, None] * (m[:, None, j, j + 1 :] / p[:, :, None])
    for j in range(m.shape[-1] - 1, -1, -1):
        x[:, j] = (x[:, j] - (m[:, j, j + 1 :] * x[:, j + 1 :]).sum(axis=1)) / pivots[:, j]
    return x, ok


def _null_ll(x: np.ndarray, w: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Mean-precision objective per row at x = (theta, t_1, ..., t_G): the
    G groups' log-likelihoods per observation (mean logs m, (G, B, K)) at
    mean _softmax_pinned(theta, K) and precisions exp(min(t_g, _T_CAP)),
    weighted by w (G, B). theta has K - 1 columns for a shared mean and none
    for the mean held at 1/K. A row with a concentration a_g pi_j of 0 (a
    share softmaxed or a precision exponentiated to 0) scores -inf."""
    g, _, k = m.shape
    d = x.shape[1] - g
    pi = _softmax_pinned(x[:, :d], k)
    a = np.exp(np.minimum(x[:, d:], _T_CAP)).T[:, :, None]
    f = dirichlet._per_obs_loglik((a * pi).reshape(-1, k), m.reshape(-1, k), a.ravel())
    return (w * f.reshape(g, -1)).sum(axis=0)


def _null_newton(x: np.ndarray, w: np.ndarray, m: np.ndarray):
    """Gradient of _null_ll and a modified Newton direction, per row, at x
    = (theta, t_1, ..., t_G); theta's width d, K - 1 or 0, is the number of
    free mean coordinates.

    Digamma and trigamma come from one call at z + 1, z = (a_g pi, a_g), as
    psi(z) = psi(z + 1) - 1/z and z^2 psi1(z) = 1 + z^2 psi1(z + 1): no tiny
    argument. The t block of the negative Hessian is diagonal, so the t's
    are eliminated and the d x d Schur complement is solved; at d = 0 it is
    empty and the step is d_t = g_t / (t block + tau). Where
    the negative Hessian is not positive definite, tau is added to its
    diagonal, from beta minus its smallest diagonal entry and doubling, with
    beta 1e-3 of the largest (Nocedal & Wright 2006, sec. 3.4); one
    elimination, _solve_positive_definite, both tests and solves each
    shifted Schur complement, and a row still not positive definite after
    64 doublings takes the gradient. A direction moving a t by more than 10
    is shortened to 10.
    """
    g, _, k = m.shape
    d = x.shape[1] - g
    pi, a = _softmax_pinned(x[:, :d], k), np.exp(x[:, d:]).T
    ar = np.arange(d)
    z = np.concatenate((a[:, :, None] * pi, a[:, :, None]), axis=2)
    psi, psi1 = _digamma_trigamma_core(z + 1.0)
    ap, psi_ap, wa = z[:, :, :-1], psi[:, :, :-1], w * a
    # d2/(d theta_j d t_g) = w_g a_g pi_j (c_gj - sum_k pi_k c_gk), c = m -
    # psi(a pi) - a pi psi1(a pi); negated, as all of neg_h.
    c = m - psi_ap - ap * psi1[:, :, :-1]
    cross = wa[:, :, None] * pi[:, :d] * ((pi * c).sum(axis=2, keepdims=True) - c[:, :, :d])
    h = 1.0 + z * z * psi1  # z^2 psi1(z)
    g_ap = m + 1.0 / ap - psi_ap  # m_j - psi(a pi_j)
    gt = wa * (psi[:, :, -1] - 1.0 / a + (pi * g_ap).sum(axis=2))
    u = pi * (wa[:, :, None] * g_ap).sum(axis=0)
    s = u.sum(axis=1)
    g_theta = u[:, :d] - s[:, None] * pi[:, :d]
    t_block = -gt - w * (h[:, :, -1] - h[:, :, :-1].sum(axis=2))
    v = (w[:, :, None] * h[:, :, :-1]).sum(axis=0)
    pk, q = pi[:, :d], u[:, :d] - v[:, :d]
    neg_h = q[:, :, None] * pk[:, None, :]
    neg_h = neg_h + neg_h.transpose(0, 2, 1)
    neg_h += (v.sum(axis=1) - 2.0 * s)[:, None, None] * pk[:, :, None] * pk[:, None, :]
    neg_h[:, ar, ar] += v[:, :d] - g_theta
    del z, psi, psi1, ap, psi_ap, c, h, g_ap  # before the shift loop's temporaries

    diag = np.concatenate((neg_h[:, ar, ar].T, t_block))  # (d + G, B)
    beta, low = 1.0e-3 * np.abs(diag).max(axis=0), diag.min(axis=0)
    tau = np.where(low > 0.0, 0.0, beta - low)
    d_theta, todo = np.empty_like(g_theta), np.arange(pi.shape[0])
    for _ in range(64):
        sc, t_diag = neg_h[todo], t_block[:, todo] + tau[todo]
        sc[:, ar, ar] += tau[todo, None]
        for cg, dg in zip(cross[:, todo], t_diag):
            sc -= cg[:, :, None] * (cg[:, None, :] / dg[:, None, None])
        rhs = g_theta[todo] - (cross[:, todo] * (gt[:, todo] / t_diag)[:, :, None]).sum(axis=0)
        d_theta[todo], ok = _solve_positive_definite(sc, rhs)
        todo = todo[~ok]
        if todo.size == 0:
            break
        tau[todo] = np.maximum(2.0 * tau[todo], beta[todo])
    # A row still not positive definite takes the gradient.
    d_theta[todo] = g_theta[todo]
    d_t = (gt - (cross * d_theta).sum(axis=2)) / (t_block + tau)
    d_t[:, todo] = gt[:, todo]
    shorten = 10.0 / np.maximum(np.abs(d_t).max(axis=0), 10.0)
    direction = np.concatenate((d_theta, d_t.T), axis=1) * shorten[:, None]
    return np.concatenate((g_theta, gt.T), axis=1), direction


def _null_ascent(x: np.ndarray, groups):
    """_newton_ascent of _null_ll along _null_newton, in place on x = (theta,
    t_1, ..., t_G), for G groups of per-row counts (B,) and mean logs (B, K),
    given as (n, mean_log) pairs; each call gathers its own rows' data.
    Returns (converged, iterations, total), total the groups' summed
    log-likelihood at the final x."""

    def data(rows):
        return np.stack([n[rows] for n, _ in groups]), np.stack([m[rows] for _, m in groups])

    def value(rows):
        n, m = data(rows)
        w = n / n.sum(axis=0)
        return lambda xs: _null_ll(xs, w, m)

    def newton(rows, xs):
        n, m = data(rows)
        return _null_newton(xs, n / n.sum(axis=0), m)

    t0 = x.shape[1] - len(groups)
    converged, iterations = dirichlet._newton_ascent(x, t0, value, newton, dirichlet._MAX_ITER)
    total = dirichlet._blockwise(lambda s: _null_ll(x[s], *data(s)), x.shape[0])
    return converged, iterations, total


def _common_mean_fit(
    stats1: SufficientStats,
    stats2: SufficientStats,
    init_pi: np.ndarray,
    init_a1: np.ndarray,
    init_a2: np.ndarray,
):
    """Maximize the pooled log-likelihood under a common mean composition.

    _null_ascent in x = (theta, t1, t2) per row, theta the softmax
    coordinates of the shared mean (last component pinned) and t_g = log
    A_g. Start values and the results are evaluated per block of rows.

    Returns (pi, a1, a2, total_loglik, converged, iterations).
    """
    b, k = stats1.mean_log.shape
    k1 = k - 1

    def start(s):
        pi0 = np.clip(init_pi[s], 1.0e-12, None)
        pi0 /= pi0.sum(axis=1, keepdims=True)
        t = np.log(np.stack((init_a1[s], init_a2[s]), axis=1))
        return np.concatenate((np.log(pi0[:, :k1] / pi0[:, k1:]), t), axis=1)

    x = dirichlet._blockwise(start, b)
    converged, iterations, total = _null_ascent(x, [(s.n, s.mean_log) for s in (stats1, stats2)])
    pi = dirichlet._blockwise(lambda s: _softmax_pinned(x[s, :k1], k), b)
    return pi, np.exp(x[:, k1]), np.exp(x[:, k]), total, converged, iterations


def _two_sample_lrt_batch(stats1: SufficientStats, stats2: SufficientStats):
    """Batched two-sample likelihood-ratio test on stacked statistics.

    Both groups' alternatives fit as one stacked batch. Returns a dict of
    per-row arrays: statistic, usable, converged, and the fitted pieces
    needed for reporting (alt alphas, null mean/precisions).
    """
    b = stats1.mean_log.shape[0]
    alpha, ll, _, conv, ok = dirichlet._fit_batch(SufficientStats.concat([stats1, stats2]))
    alpha1, ll1, conv1, ok1 = alpha[:b], ll[:b], conv[:b], ok[:b]
    alpha2, ll2, conv2, ok2 = alpha[b:], ll[b:], conv[b:], ok[b:]
    a1_hat, a2_hat = alpha1.sum(axis=1), alpha2.sum(axis=1)
    n1, n2 = stats1.n[:, None], stats2.n[:, None]
    init_pi = (n1 * (alpha1 / a1_hat[:, None]) + n2 * (alpha2 / a2_hat[:, None])) / (n1 + n2)
    pi0, a1_0, a2_0, ll0, conv0, iters = _common_mean_fit(
        stats1, stats2, init_pi, np.maximum(a1_hat, 1.0e-6), np.maximum(a2_hat, 1.0e-6)
    )
    lam = np.maximum(-2.0 * (ll0 - (ll1 + ll2)), 0.0)
    return {
        "statistic": lam,
        "usable": ok1 & ok2,
        "converged": conv1 & conv2 & conv0,
        "alt_alpha_1": alpha1,
        "alt_alpha_2": alpha2,
        "alt_loglik": ll1 + ll2,
        "null_mean": pi0,
        "null_precision_1": a1_0,
        "null_precision_2": a2_0,
        "null_loglik": ll0,
        "iterations": iters,
    }


def two_sample_dirichlet_lrt(dataset: CompositionDataset, groups=None) -> TestReport:
    """Likelihood-ratio test of equal mean compositions.

    Null: both groups share one mean composition but keep their own
    precisions. Alternative: two unrestricted Dirichlet laws. The statistic
    is -2 log LR with K-1 degrees of freedom.
    """
    g1, g2, x1, x2 = _two_group_dataset(dataset, groups)
    res = _two_sample_lrt_batch(SufficientStats.reduce(x1[None]), SufficientStats.reduce(x2[None]))
    if not res["usable"][0]:
        raise DegenerateDataError("a group cannot support a Dirichlet fit")
    k = dataset.n_components
    lam = float(res["statistic"][0])
    return TestReport(
        test="dirichlet-lrt",
        statistic=lam,
        df=(k - 1,),
        p_value=chi_square_sf(lam, k - 1),
        groups=(g1, g2),
        converged=bool(res["converged"][0]),
        details={
            "alpha_" + g1: res["alt_alpha_1"][0].tolist(),
            "alpha_" + g2: res["alt_alpha_2"][0].tolist(),
            "null_mean": res["null_mean"][0].tolist(),
            "null_precision_" + g1: float(res["null_precision_1"][0]),
            "null_precision_" + g2: float(res["null_precision_2"][0]),
            "log_likelihood_null": float(res["null_loglik"][0]),
            "log_likelihood_alt": float(res["alt_loglik"][0]),
        },
    )


def two_sample_ndd_lrt(
    dataset: CompositionDataset,
    tree: nested.NestingTree,
    groups=None,
) -> TestReport:
    """Two-sample test under a nested model: one test per subtree, summed.

    Branch compositions at distinct internal nodes are independent, so the
    overall statistic is the sum of the per-subtree two-sample statistics and
    the degrees of freedom add up to sum(k_i - 1) = K - 1. For the flat tree
    this reduces to the plain two-sample test.
    """
    g1, g2, x1, x2 = _two_group_dataset(dataset, groups)
    m1 = nested._bind_matrix(tree, dataset.group_dataset(g1))
    m2 = nested._bind_matrix(tree, dataset.group_dataset(g2))
    keys = nested._child_leaf_sets(tree)
    nodes1, nodes2 = (
        [stats for stats, _ in nested._node_stats(keys, m[None])] for m in (m1, m2)
    )
    results = nested._fit_nodes(_two_sample_lrt_batch, nodes1, nodes2)
    labels = tree.internal_nodes()
    per_subtree = []
    for (label, node), res in zip(labels, results):
        if not res["usable"][0]:
            raise DegenerateDataError(
                f"subtree {label!r} cannot support a Dirichlet fit"
            )
        lam_i = float(res["statistic"][0])
        df_i = len(node.children) - 1
        per_subtree.append(
            {
                "subtree": label,
                "children": list(nested._child_labels(tree, node, labels)),
                "statistic": lam_i,
                "df": df_i,
                "p_value": chi_square_sf(lam_i, df_i),
            }
        )
    total = sum(sub["statistic"] for sub in per_subtree)
    df = dataset.n_components - 1
    return TestReport(
        test="ndd-lrt",
        statistic=total,
        df=(df,),
        p_value=chi_square_sf(total, df),
        groups=(g1, g2),
        converged=all(bool(res["converged"][0]) for res in results),
        details={"subtrees": per_subtree, "tree": nested.render_tree(tree, False)},
    )


# ---------------------------------------------------------------------------
# Confidence intervals


def _group_fit(dataset: CompositionDataset, label: str, tree: nested.NestingTree | None):
    """(fit, mean, mean_se) of one group, the last two in dataset column
    order: with no tree, a Dirichlet fit with inverse-information SEs; with
    one, a nested fit of tree with its leaf means and delta-method SEs."""
    if tree is None:
        x = dataset.group_matrix(label)
        fit = dirichlet.mle(x)
        return fit, fit.params.mean, dirichlet.mean_standard_errors(fit.params, x.shape[0])
    sub = dataset.group_dataset(label)
    fit = nested.mle(tree, sub)
    mean = nested.leaf_means(fit.params)
    se = nested.delta_method_ses(fit.params, sub.n_observations)
    if tree.leaf_names is not None:
        perm = [tree.leaf_names.index(name) for name in dataset.components]
        mean, se = mean[perm], se[perm]
    return fit, mean, se


def pairwise_mean_cis(
    dataset: CompositionDataset,
    level: float = 0.95,
    groups=None,
    tree: nested.NestingTree | None = None,
) -> tuple[MeanDifferenceCI, ...]:
    """Componentwise CIs for the difference of group mean compositions.

    Bonferroni-adjusted for the K simultaneous comparisons: each interval is
    estimate +/- z * se with z the normal quantile at 1 - (1 - level)/(2K).
    With no tree, standard errors come from the inverse information of each
    group's Dirichlet fit; with a tree, from the delta method on the leaf
    means of each group's nested fit.
    """
    if not (0.0 < level < 1.0):
        raise InputError(f"level must be in (0, 1), got {level}")
    g1, g2, _, _ = _two_group_dataset(dataset, groups)
    k = dataset.n_components
    _, mean1, se1 = _group_fit(dataset, g1, tree)
    _, mean2, se2 = _group_fit(dataset, g2, tree)
    z = normal_quantile(1.0 - (1.0 - level) / (2.0 * k))
    out = []
    for j, name in enumerate(dataset.components):
        est = float(mean1[j] - mean2[j])
        se = float(np.hypot(se1[j], se2[j]))
        out.append(
            MeanDifferenceCI(
                component=name,
                estimate=est,
                se=se,
                lower=est - z * se,
                upper=est + z * se,
                level=level,
                z_value=float(z),
            )
        )
    return tuple(out)


# ---------------------------------------------------------------------------
# Log-ratio baseline


def clr_hotelling_test(
    dataset: CompositionDataset, groups=None
) -> TestReport:
    """Hotelling's T-squared on centered log-ratios, F-scaled.

    The CLR vectors of a composition sum to zero, so one coordinate is
    dropped before forming the pooled-covariance statistic. The reported
    statistic is the F-scaled value with (K-1, n1+n2-K) degrees of freedom.
    """
    g1, g2, x1, x2 = _two_group_dataset(dataset, groups)
    k = dataset.n_components
    n1, n2 = x1.shape[0], x2.shape[0]
    if n1 + n2 - k < 1:
        raise DegenerateDataError(
            f"need n1 + n2 > K for the pooled covariance; have {n1}+{n2} vs K={k}"
        )
    z1 = clr(x1)[:, : k - 1]
    z2 = clr(x2)[:, : k - 1]
    d = z1.mean(axis=0) - z2.mean(axis=0)
    c1 = z1 - z1.mean(axis=0)
    c2 = z2 - z2.mean(axis=0)
    pooled = (c1.T @ c1 + c2.T @ c2) / (n1 + n2 - 2)
    try:
        solved = np.linalg.solve(pooled, d)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("pooled CLR covariance is singular") from exc
    t_squared = (n1 * n2 / (n1 + n2)) * float(d @ solved)
    p_dim = k - 1
    df2 = n1 + n2 - p_dim - 1
    f_stat = t_squared * df2 / (p_dim * (n1 + n2 - 2))
    return TestReport(
        test="clr-hotelling",
        statistic=f_stat,
        df=(p_dim, df2),
        p_value=f_sf(f_stat, p_dim, df2),
        groups=(g1, g2),
        converged=True,
        details={"t_squared": t_squared},
    )
