"""Dirichlet model: density, moments, sampling, maximum likelihood, and
standard errors for the mean composition.

The parameter vector alpha is kept in two equivalent forms: the raw
concentrations, and the (mean, precision) split pi = alpha / A, A = sum(alpha)
that the inferential machinery works in.

Fitting starts with 15 steps of the classical fixed-point update (given mean
log proportions, solve digamma(alpha_j) = digamma(sum alpha) + mean_log_j for
each component with a Newton inverse-digamma), then takes damped Newton steps
in alpha. A fit converges when the gradient max-norm falls below rel_tol or
the largest parameter move below abs_tol, within max_iter steps. The
common-mean and uniform-mean null fits of the inference module stop by the
same rule: both run inference._newton_ascent, one damped Newton driver
over the iteration loop here (_ascend) and its line search (_backtrack). A
private batch variant runs many independent fits as one array program; the
public API wraps the single-dataset case. Each row of a batch is fitted by
itself, bit for bit, so _ascend may run a batch in fixed blocks of rows and
callers may stack independent fits into one batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .composition import SufficientStats, validate
from .errors import (
    DegenerateDataError,
    DimensionMismatchError,
    DomainError,
    InputError,
    NonConvergenceError,
    NumericalError,
    SingularMatrixError,
)
from .numerics import (
    EULER_GAMMA,
    Tolerance,
    _digamma_core,
    _digamma_trigamma_core,
    _lgamma_core,
    _trigamma_core,
)

__all__ = [
    "DirichletParams",
    "FitResult",
    "log_density",
    "moments",
    "sample",
    "mle",
    "fisher_information",
    "mean_standard_errors",
]

_ALPHA_FLOOR = 1.0e-3  # floor applied to moment-based initial values


@dataclass(frozen=True)
class DirichletParams:
    """Concentration vector of a Dirichlet distribution."""

    alpha: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.alpha, dtype=float).copy()
        if arr.ndim != 1:
            raise DimensionMismatchError("alpha must be a vector")
        if arr.shape[0] < 2:
            raise DomainError("alpha needs at least 2 components")
        if not np.all(np.isfinite(arr)) or not np.all(arr > 0.0):
            raise DomainError("alpha entries must be finite and positive")
        arr.flags.writeable = False
        object.__setattr__(self, "alpha", arr)

    @property
    def n_components(self) -> int:
        return self.alpha.shape[0]

    @property
    def precision(self) -> float:
        return float(self.alpha.sum())

    @property
    def mean(self) -> np.ndarray:
        return self.alpha / self.alpha.sum()

    @classmethod
    def from_mean_precision(cls, mean, precision: float) -> "DirichletParams":
        m = np.asarray(mean, dtype=float)
        if not np.isfinite(precision) or precision <= 0.0:
            raise DomainError("precision must be finite and positive")
        m = validate(m)
        return cls(alpha=m * precision)


@dataclass(frozen=True)
class FitResult:
    """Outcome of a maximum-likelihood fit."""

    params: DirichletParams
    log_likelihood: float
    iterations: int
    converged: bool


def log_density(params: DirichletParams, x) -> float | np.ndarray:
    """Log density at one composition or per row of a matrix."""
    arr = validate(x)
    if arr.shape[-1] != params.n_components:
        raise DimensionMismatchError(
            f"{arr.shape[-1]} parts vs {params.n_components} parameters"
        )
    a = params.alpha
    const = _lgamma_core(np.asarray(a.sum())) - _lgamma_core(a).sum()
    val = const + ((a - 1.0) * np.log(arr)).sum(axis=-1)
    return float(val) if arr.ndim == 1 else val


def moments(params: DirichletParams) -> tuple[np.ndarray, np.ndarray]:
    """Mean vector and covariance matrix of the composition."""
    pi = params.mean
    a = params.precision
    cov = (np.diag(pi) - np.outer(pi, pi)) / (a + 1.0)
    return pi, cov


def sample(params: DirichletParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n compositions by normalizing independent gamma variates."""
    if n < 1:
        raise InputError(f"n must be at least 1, got {n}")
    # standard_gamma draws the same stream and values as gamma(shape,
    # scale=1.0), without gamma's second check of its array arguments.
    g = rng.standard_gamma(params.alpha, size=(n, params.n_components))
    if not g.all():
        raise NumericalError(
            "gamma draw underflowed to zero; concentration too small to "
            "sample in double precision"
        )
    g /= g.sum(axis=1, keepdims=True)
    return g


def _inv_digamma(y: np.ndarray) -> np.ndarray:
    """Solve digamma(x) = y with the standard initializer and 5 Newton steps."""
    x = np.where(y >= -2.22, np.exp(y) + 0.5, -1.0 / (y + EULER_GAMMA))
    x = np.maximum(x, 1.0e-300)
    for _ in range(5):
        psi, psi1 = _digamma_trigamma_core(x)
        x = x - (psi - y) / psi1
        x = np.maximum(x, 1.0e-300)
    return x


def _init_alpha(mean: np.ndarray, mean_sq: np.ndarray) -> np.ndarray:
    """Moment-matching start."""
    var = mean_sq - mean * mean
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = mean * (1.0 - mean) / var - 1.0
    # Average over the components with positive variance. A row with none
    # gets NaN and falls back below; nanmean would warn on it.
    valid = var > 0.0
    count = valid.sum(axis=-1)
    total = np.where(valid, ratio, 0.0).sum(axis=-1)
    a0 = np.where(count > 0, total / np.maximum(count, 1), np.nan)
    k = mean.shape[-1]
    a0 = np.where(np.isfinite(a0) & (a0 > 0.0), a0, float(k))
    a0 = np.clip(a0, 1.0e-2, 1.0e7)
    return np.maximum(a0[..., None] * mean, _ALPHA_FLOOR)


def _degenerate_rows(mean: np.ndarray, mean_sq: np.ndarray) -> np.ndarray:
    """Rows where some component is constant at machine precision."""
    var = mean_sq - mean * mean
    tiny = 16.0 * np.finfo(float).eps * np.maximum(mean * mean, np.finfo(float).tiny)
    return (var <= tiny).any(axis=-1)


def _with_column(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(B, K) m with the (B,) v appended as a last column.

    A special function of the result is that function at m and at v from
    one shift loop; elementwise, each value is the one a separate call
    gives.
    """
    return np.concatenate((m, v[:, None]), axis=1)


def _per_obs_loglik(alpha: np.ndarray, mean_log: np.ndarray) -> np.ndarray:
    """Mean log-likelihood per observation for each row of a batch."""
    lg = _lgamma_core(_with_column(alpha, alpha.sum(axis=1)))
    return lg[:, -1] - lg[:, :-1].sum(axis=1) + ((alpha - 1.0) * mean_log).sum(axis=1)


_FIXED_POINT_WARMUP = 15
_MAX_BACKTRACK = 30


def _backtrack(objective, x: np.ndarray, step: np.ndarray, base: np.ndarray):
    """Backtracking line search for an ascent step, per row of a batch.

    x and step are (B,) or (B, K); objective maps a trial point to (B,)
    values. Each row's step length t starts at 1 and halves until
    objective(x + t * step) is no lower than base, up to a relative slack of
    1e-12, for at most _MAX_BACKTRACK trials. Returns (t, accepted); a row
    that never passed should not move.
    """
    slack = 1.0e-12 * (1.0 + np.abs(base))
    t = np.ones(base.shape[0])
    for _ in range(_MAX_BACKTRACK):
        scale = t if step.ndim == 1 else t[:, None]
        accepted = objective(x + scale * step) >= base - slack
        if accepted.all():
            break
        t = np.where(accepted, t, t / 2.0)
    return t, accepted


# Rows per block of a batched fit. _ascend runs each block to completion, so
# an iteration's temporaries are O(_BLOCK_ROWS * K) however many rows a
# batch stacks. Blocks of 8,192 rows peaked 1-4 MB higher on the benchmark's
# study workloads.
_BLOCK_ROWS = 4096


def _ascend(step, rows: np.ndarray, b: int, tol: Tolerance):
    """Iterate a batched ascent over the given rows of a batch of b, for at
    most tol.max_iter steps.

    step(rows, it) takes iteration it on the active rows and returns
    (done, stuck, move), the first two masks over rows. Rows marked done
    meet rel_tol on the gradient and converge without moving; rows marked
    stuck cannot move on and stop unconverged; every other row took the
    step, move holds its largest parameter change, and a move below abs_tol
    converges it. Returns (converged, iterations), where iterations counts
    the steps each row took.

    The rows run in blocks of _BLOCK_ROWS, in order, each from iteration 0
    to completion. A step treats each row by itself, bit for bit, so the
    blocks change no result; they bound an iteration's temporaries by the
    block, not the batch.
    """
    converged = np.zeros(b, dtype=bool)
    iterations = np.zeros(b, dtype=int)
    for lo in range(0, rows.size, _BLOCK_ROWS):
        active = rows[lo : lo + _BLOCK_ROWS]
        for it in range(tol.max_iter):
            if active.size == 0:
                break
            done, stuck, move = step(active, it)
            converged[active[done]] = True
            active = active[~(done | stuck)]
            iterations[active] = it + 1
            small = move < tol.abs_tol
            converged[active[small]] = True
            active = active[~small]
    return converged, iterations


def _blockwise(fn, b: int) -> np.ndarray:
    """fn(rows) on each _BLOCK_ROWS slice of a batch of b, joined: a per-row
    evaluation over a whole batch with one block's temporaries (an empty
    batch is one empty block)."""
    return np.concatenate(
        [fn(slice(lo, lo + _BLOCK_ROWS)) for lo in range(0, max(b, 1), _BLOCK_ROWS)]
    )


def _newton_step(alpha: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton direction for the per-observation log-likelihood in alpha.

    The Hessian is psi1(A) ones - diag(psi1(alpha)), inverted in closed form.
    Returns the direction and a mask of rows where the closed form is
    untrustworthy (callers fall back to a fixed-point step there).
    """
    psi1 = _trigamma_core(_with_column(alpha, alpha.sum(axis=1)))
    c = psi1[:, -1]
    inv_q = 1.0 / psi1[:, :-1]
    denom = 1.0 - c * inv_q.sum(axis=1)
    bad = denom <= 1.0e-12
    safe = np.where(bad, 1.0, denom)
    coef = c * (grad * inv_q).sum(axis=1) / safe
    step = (grad + coef[:, None]) * inv_q
    return step, bad


def _fit_batch(stats: SufficientStats, tol: Tolerance):
    """Maximum-likelihood fits over one dataset or a stack of datasets.

    Every result is per row of the stack, (1, ...) for one dataset. Runs the
    fixed-point update for a short warmup, then damped Newton steps (the
    likelihood is strictly concave in alpha, so backtracking on it is a safe
    globalizer; a row whose Newton step never passes takes the fixed-point
    step instead), under the stopping rule of _ascend.

    Returns (alpha, log_likelihood, iterations, converged, usable) where
    usable marks rows that were fit at all (non-degenerate input).
    """
    mean_log, mean, mean_sq = (
        np.atleast_2d(a) for a in (stats.mean_log, stats.mean, stats.mean_sq)
    )
    b = mean_log.shape[0]
    n = np.broadcast_to(np.asarray(stats.n, dtype=float), (b,))
    usable = ~_blockwise(lambda s: _degenerate_rows(mean[s], mean_sq[s]), b) & (n >= 2)
    alpha = _blockwise(lambda s: _init_alpha(mean[s], mean_sq[s]), b)

    def fixed_point(cur, ml):
        return _inv_digamma(_digamma_core(cur.sum(axis=1))[:, None] + ml)

    def step(rows, it):
        cur, ml = alpha[rows], mean_log[rows]
        if it < _FIXED_POINT_WARMUP:
            done = np.zeros(rows.size, dtype=bool)
            new = fixed_point(cur, ml)
        else:
            psi = _digamma_core(_with_column(cur, cur.sum(axis=1)))
            grad = psi[:, -1:] - psi[:, :-1] + ml
            done = np.abs(grad).max(axis=1) < tol.rel_tol
            if done.all():
                return done, np.zeros_like(done), np.empty(0)
            rows, cur, ml, grad = rows[~done], cur[~done], ml[~done], grad[~done]
            direction, bad = _newton_step(cur, grad)

            def trial_loglik(trial):
                # Rows with an untrustworthy step or a nonpositive trial never pass.
                fine = (trial > 0.0).all(axis=1) & ~bad
                safe = np.where(fine[:, None], trial, 1.0)
                return np.where(fine, _per_obs_loglik(safe, ml), -np.inf)

            t, ok = _backtrack(trial_loglik, cur, direction, _per_obs_loglik(cur, ml))
            new = cur + t[:, None] * direction
            if not ok.all():
                new[~ok] = fixed_point(cur[~ok], ml[~ok])
        alpha[rows] = new
        return done, np.zeros_like(done), np.abs(new - cur).max(axis=1)

    converged, iterations = _ascend(step, np.flatnonzero(usable), b, tol)
    loglik = _blockwise(lambda s: n[s] * _per_obs_loglik(alpha[s], mean_log[s]), b)
    loglik = np.where(usable, loglik, np.nan)
    return alpha, loglik, iterations, converged, usable


def _as_stats(data) -> SufficientStats:
    """Statistics of one dataset, from raw compositions or a carrier."""
    if not isinstance(data, SufficientStats):
        return SufficientStats.from_matrix(np.asarray(data, dtype=float))
    if data.stacked:
        raise DimensionMismatchError(
            "expected the statistics of one dataset, got a stack"
        )
    return data


def mle(data, tol: Tolerance = Tolerance()) -> FitResult:
    """Maximum-likelihood fit from raw compositions or sufficient statistics.

    Raises DegenerateDataError when the input cannot identify the parameters
    (a single observation, or a component without variation) and
    NonConvergenceError when the iteration cap is hit.
    """
    stats = _as_stats(data)
    if stats.n < 2:
        raise DegenerateDataError("maximum likelihood needs at least 2 observations")
    alpha, loglik, iters, conv, usable = _fit_batch(stats, tol)
    if not usable[0]:
        raise DegenerateDataError(
            "a component is constant across observations; the precision "
            "parameter diverges"
        )
    if not conv[0]:
        raise NonConvergenceError(
            f"fixed-point warmup and Newton steps did not converge in "
            f"{tol.max_iter} iterations",
            iterations=int(iters[0]),
        )
    return FitResult(
        params=DirichletParams(alpha=alpha[0]),
        log_likelihood=float(loglik[0]),
        iterations=int(iters[0]),
        converged=True,
    )


def fisher_information(params: DirichletParams, n: int) -> np.ndarray:
    """Expected information for (pi_1..pi_{K-1}, A) from n observations.

    The last mean coordinate is eliminated through the sum constraint, so the
    matrix is K x K for K components: K-1 mean rows plus one precision row.
    """
    if n < 1:
        raise InputError(f"n must be at least 1, got {n}")
    pi = params.mean
    a = params.precision
    k = params.n_components
    t = _trigamma_core(a * pi)  # trigamma at alpha_j
    t_last = t[k - 1]
    t_total = float(_trigamma_core(np.asarray(a)))

    info = np.empty((k, k), dtype=float)
    mean_block = np.full((k - 1, k - 1), t_last)
    mean_block[np.diag_indices(k - 1)] += t[: k - 1]
    info[: k - 1, : k - 1] = n * a * a * mean_block
    cross = n * a * (pi[: k - 1] * t[: k - 1] - pi[k - 1] * t_last)
    info[: k - 1, k - 1] = cross
    info[k - 1, : k - 1] = cross
    info[k - 1, k - 1] = n * ((pi * pi * t).sum() - t_total)
    return info


def mean_standard_errors(params: DirichletParams, n: int) -> np.ndarray:
    """Asymptotic standard errors of all K mean components.

    The first K-1 come straight from the inverse information; the last one is
    the variance of 1 - sum of the others, i.e. the full block sum of the
    inverse information over the mean coordinates.
    """
    info = fisher_information(params, n)
    k = params.n_components
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(
            "information matrix is numerically singular"
        ) from exc
    mean_cov = cov[: k - 1, : k - 1]
    variances = np.empty(k, dtype=float)
    variances[: k - 1] = np.diag(mean_cov)
    variances[k - 1] = mean_cov.sum()
    if np.any(variances <= 0.0) or not np.all(np.isfinite(variances)):
        raise SingularMatrixError(
            "information matrix is not positive definite at these parameters"
        )
    return np.sqrt(variances)
