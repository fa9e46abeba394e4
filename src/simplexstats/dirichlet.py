"""Dirichlet model: density, moments, sampling, maximum likelihood, and
standard errors for the mean composition.

The parameter vector alpha is kept in two equivalent forms: the raw
concentrations, and the (mean, precision) split pi = alpha / A, A = sum(alpha)
that the inferential machinery works in.

Fitting starts with 15 steps of the classical fixed-point update (given mean
log proportions, solve digamma(alpha_j) = digamma(sum alpha) + mean_log_j for
each component with a Newton inverse-digamma), then takes damped Newton steps
in alpha until the parameters stop moving. A private batch variant runs many
independent fits as one array program; the public API wraps the
single-dataset case.
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
    g = rng.gamma(shape=params.alpha, size=(n, params.n_components))
    if np.any(g == 0.0):
        raise NumericalError(
            "gamma draw underflowed to zero; concentration too small to "
            "sample in double precision"
        )
    return g / g.sum(axis=1, keepdims=True)


def _inv_digamma(y: np.ndarray) -> np.ndarray:
    """Solve digamma(x) = y with the standard initializer and 5 Newton steps."""
    x = np.where(y >= -2.22, np.exp(y) + 0.5, -1.0 / (y + EULER_GAMMA))
    x = np.maximum(x, 1.0e-300)
    for _ in range(5):
        x = x - (_digamma_core(x) - y) / _trigamma_core(x)
        x = np.maximum(x, 1.0e-300)
    return x


def _init_alpha(
    mean_log: np.ndarray, mean: np.ndarray | None, mean_sq: np.ndarray | None
) -> np.ndarray:
    """Moment-matching start; falls back to geometric means when moments are
    unavailable."""
    if mean is None or mean_sq is None:
        pi0 = np.exp(mean_log - mean_log.max(axis=-1, keepdims=True))
        pi0 /= pi0.sum(axis=-1, keepdims=True)
        k = mean_log.shape[-1]
        return np.maximum(k * pi0, _ALPHA_FLOOR)
    var = mean_sq - mean * mean
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = mean * (1.0 - mean) / var - 1.0
    # Average over the components with positive variance. A row with none
    # gets NaN and falls back below; nanmean would warn on it.
    valid = var > 0.0
    count = valid.sum(axis=-1)
    total = np.where(valid, ratio, 0.0).sum(axis=-1)
    a0 = np.where(count > 0, total / np.maximum(count, 1), np.nan)
    k = mean_log.shape[-1]
    a0 = np.where(np.isfinite(a0) & (a0 > 0.0), a0, float(k))
    a0 = np.clip(a0, 1.0e-2, 1.0e7)
    return np.maximum(a0[..., None] * mean, _ALPHA_FLOOR)


def _degenerate_rows(mean: np.ndarray, mean_sq: np.ndarray) -> np.ndarray:
    """Rows where some component is constant at machine precision."""
    var = mean_sq - mean * mean
    tiny = 16.0 * np.finfo(float).eps * np.maximum(mean * mean, np.finfo(float).tiny)
    return (var <= tiny).any(axis=-1)


def _per_obs_loglik(alpha: np.ndarray, mean_log: np.ndarray) -> np.ndarray:
    """Mean log-likelihood per observation for each row of a batch."""
    return (
        _lgamma_core(alpha.sum(axis=1))
        - _lgamma_core(alpha).sum(axis=1)
        + ((alpha - 1.0) * mean_log).sum(axis=1)
    )


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


def _newton_step(alpha: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton direction for the per-observation log-likelihood in alpha.

    The Hessian is psi1(A) ones - diag(psi1(alpha)), inverted in closed form.
    Returns the direction and a mask of rows where the closed form is
    untrustworthy (callers fall back to a fixed-point step there).
    """
    q = _trigamma_core(alpha)
    c = _trigamma_core(alpha.sum(axis=1))
    inv_q = 1.0 / q
    denom = 1.0 - c * inv_q.sum(axis=1)
    bad = denom <= 1.0e-12
    safe = np.where(bad, 1.0, denom)
    coef = c * (grad * inv_q).sum(axis=1) / safe
    step = (grad + coef[:, None]) * inv_q
    return step, bad


def _fit_batch(
    mean_log: np.ndarray,
    n,
    tol: Tolerance,
    mean: np.ndarray | None = None,
    mean_sq: np.ndarray | None = None,
    init: np.ndarray | None = None,
):
    """Maximum-likelihood fits over a batch of independent datasets.

    mean_log is (B, K); n is a scalar or (B,) vector of sample sizes. Runs the
    fixed-point update for a short warmup, then damped Newton steps (the
    likelihood is strictly concave in alpha, so backtracking on it is a safe
    globalizer). Stops a row when its parameter change drops below abs_tol or
    its per-observation gradient max-norm drops below rel_tol.

    Returns (alpha, log_likelihood, iterations, converged, usable) where
    usable marks rows that were fit at all (non-degenerate input).
    """
    mean_log = np.atleast_2d(np.asarray(mean_log, dtype=float))
    b, k = mean_log.shape
    usable = np.ones(b, dtype=bool)
    if mean is not None and mean_sq is not None:
        usable &= ~_degenerate_rows(np.atleast_2d(mean), np.atleast_2d(mean_sq))
    n_arr = np.broadcast_to(np.asarray(n, dtype=float), (b,))
    usable = usable & (n_arr >= 2)

    if init is not None:
        alpha = np.atleast_2d(np.asarray(init, dtype=float)).copy()
    else:
        alpha = _init_alpha(
            mean_log,
            None if mean is None else np.atleast_2d(mean),
            None if mean_sq is None else np.atleast_2d(mean_sq),
        )
    iterations = np.zeros(b, dtype=int)
    converged = np.zeros(b, dtype=bool)

    active_idx = np.flatnonzero(usable)
    warmup = min(_FIXED_POINT_WARMUP, tol.max_iter)
    for it in range(warmup):
        if active_idx.size == 0:
            break
        cur = alpha[active_idx]
        target = _digamma_core(cur.sum(axis=1))[:, None] + mean_log[active_idx]
        new = _inv_digamma(target)
        delta = np.abs(new - cur).max(axis=1)
        alpha[active_idx] = new
        iterations[active_idx] = it + 1
        done = delta < tol.abs_tol
        converged[active_idx[done]] = True
        active_idx = active_idx[~done]

    for it in range(warmup, tol.max_iter):
        if active_idx.size == 0:
            break
        cur = alpha[active_idx]
        ml = mean_log[active_idx]
        grad = _digamma_core(cur.sum(axis=1))[:, None] - _digamma_core(cur) + ml
        small_grad = np.abs(grad).max(axis=1) < tol.rel_tol
        if small_grad.any():
            converged[active_idx[small_grad]] = True
            keep = ~small_grad
            active_idx = active_idx[keep]
            if active_idx.size == 0:
                break
            cur, ml, grad = cur[keep], ml[keep], grad[keep]

        step, bad = _newton_step(cur, grad)

        def trial_loglik(trial):
            # Rows with an untrustworthy step or a nonpositive trial never pass.
            fine = (trial > 0.0).all(axis=1) & ~bad
            return np.where(
                fine, _per_obs_loglik(np.where(fine[:, None], trial, 1.0), ml), -np.inf
            )

        t, ok = _backtrack(trial_loglik, cur, step, _per_obs_loglik(cur, ml))
        # Rows whose Newton step never passed fall back to the fixed point.
        fp_target = _digamma_core(cur.sum(axis=1))[:, None] + ml
        fp_new = _inv_digamma(fp_target)
        new = np.where(ok[:, None], cur + t[:, None] * step, fp_new)
        delta = np.abs(new - cur).max(axis=1)
        alpha[active_idx] = new
        iterations[active_idx] = it + 1
        done = delta < tol.abs_tol
        converged[active_idx[done]] = True
        active_idx = active_idx[~done]

    loglik = np.where(usable, n_arr * _per_obs_loglik(alpha, mean_log), np.nan)
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
    if _degenerate_rows(stats.mean[None, :], stats.mean_sq[None, :])[0]:
        raise DegenerateDataError(
            "a component is constant across observations; the precision "
            "parameter diverges"
        )
    alpha, loglik, iters, conv, usable = _fit_batch(
        stats.mean_log[None, :],
        stats.n,
        tol,
        mean=stats.mean[None, :],
        mean_sq=stats.mean_sq[None, :],
    )
    if not usable[0]:
        raise DegenerateDataError("data cannot support a Dirichlet fit")
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
