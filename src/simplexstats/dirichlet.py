"""Dirichlet model: density, moments, sampling, maximum likelihood, and
standard errors for the mean composition.

The parameter vector alpha is kept in two equivalent forms: the raw
concentrations, and the (mean, precision) split pi = alpha / A, A = sum(alpha)
that the inferential machinery works in.

Fitting starts with 15 steps of the classical fixed-point update (given mean
log proportions, solve digamma(alpha_j) = digamma(sum alpha) + mean_log_j for
each component with a Newton inverse-digamma), then takes damped Newton steps
in alpha. The inverse digamma is most of a small fit's cost, so its first 4
of 5 Newton steps evaluate digamma and trigamma on the series shifted past 4
rather than 10, and only the last step evaluates them in full; the result is
that of 5 full steps to within that step's rounding. All three fits of the
library, this one and the common-mean and uniform-mean nulls of the
inference module, run one damped Newton driver (_newton_ascent) over one
iteration loop (_ascend) and one line search (_backtrack), on one Dirichlet
objective (_per_obs_loglik). Each fit plugs into the driver the same way:
a point-wise objective, a Newton direction returning (grad, direction) and
a function gathering its rows' data, here _per_obs_loglik, _newton_step and
the rows' mean logs. Every fit stops by one policy, three module
constants that no public function lets a caller change: a row converges
when its gradient max-norm falls below _GRAD_TOL = 1e-8 or its largest
parameter move below _STEP_TOL = 1e-10, within _MAX_ITER = 1000 steps (this
fit's warmup included). A private batch variant runs many independent fits
as one array program; the public API wraps the single-dataset case. Each
row of a batch is fitted by itself, bit for bit, so _ascend may run a batch
in fixed blocks of rows and callers may stack independent fits into one
batch.
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
    _SHIFT_TO,
    EULER_GAMMA,
    _digamma_core,
    _digamma_trigamma_core,
    _is_integer,
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
    """Outcome of a converged maximum-likelihood fit: mle raises
    NonConvergenceError instead of returning a fit that stopped short of
    tolerance, so every FitResult is at the maximum."""

    params: DirichletParams
    log_likelihood: float
    iterations: int


def log_density(params: DirichletParams, x) -> float | np.ndarray:
    """Log density at one composition or per row of a matrix."""
    arr = validate(x)
    if arr.shape[-1] != params.n_components:
        raise DimensionMismatchError(
            f"{arr.shape[-1]} parts vs {params.n_components} parameters"
        )
    a = params.alpha
    val = _per_obs_loglik(a[None], np.log(np.atleast_2d(arr)), a.sum(keepdims=True))
    return float(val[0]) if arr.ndim == 1 else val


def moments(params: DirichletParams) -> tuple[np.ndarray, np.ndarray]:
    """Mean vector and covariance matrix of the composition."""
    pi = params.mean
    a = params.precision
    cov = (np.diag(pi) - np.outer(pi, pi)) / (a + 1.0)
    return pi, cov


def sample(params: DirichletParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n compositions by normalizing independent gamma variates."""
    if not (_is_integer(n) and n >= 1):
        raise InputError(f"n must be an integer at least 1, got {n!r}")
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


# Shift point of the series behind the inverse digamma's first Newton steps.
_INV_DIGAMMA_SHIFT = 4


def _inv_digamma(y: np.ndarray) -> np.ndarray:
    """Solve digamma(x) = y with Minka's initializer and 5 Newton steps.

    Steps 1-4 take digamma and trigamma from the series shifted past 4, not
    10: at most 4 passes of the shift loop instead of 10, at a truncation of
    about 3e-10, which moves the root they approach by under 1e-9 relative.
    Step 5 is exact, and Newton converges quadratically, so the result is
    that of 5 exact steps to within the rounding of that step (at most 8 ulp
    apart for x from 1e-8 to 1e8).
    """
    # Each branch sees only arguments of its own side, so exp never underflows.
    x = np.where(
        y >= -2.22,
        np.exp(np.maximum(y, -2.22)) + 0.5,
        -1.0 / (np.minimum(y, -2.22) + EULER_GAMMA),
    )
    np.maximum(x, 1.0e-300, out=x)
    for shift_to in (_INV_DIGAMMA_SHIFT,) * 4 + (_SHIFT_TO,):
        psi, psi1 = _digamma_trigamma_core(x, shift_to)
        # x - (psi - y) / psi1, in place
        psi -= y
        psi /= psi1
        x -= psi
        np.maximum(x, 1.0e-300, out=x)
    return x


def _init_alpha(mean: np.ndarray, mean_sq: np.ndarray) -> np.ndarray:
    """Moment-matching start."""
    var = mean_sq - mean * mean
    # Average over the components with positive variance (the others add 0);
    # a row with none averages to 0 and falls back to K below.
    valid = var > 0.0
    ratio = np.divide(mean * (1.0 - mean), var, out=np.ones_like(var), where=valid) - 1.0
    a0 = ratio.sum(axis=-1) / np.maximum(valid.sum(axis=-1), 1)
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


def _per_obs_loglik(
    alpha: np.ndarray, mean_log: np.ndarray, total: np.ndarray | None = None
) -> np.ndarray:
    """Mean log-likelihood per observation for each row of a batch, at
    concentrations alpha (B, K) that sum to total (B,), their row sums by
    default. A row with a concentration that is not positive is infeasible
    and scores -inf; no special function sees it."""
    if total is None:
        total = alpha.sum(axis=1)
    fine = (alpha > 0.0).all(axis=1)
    alpha, total = np.where(fine[:, None], alpha, 1.0), np.where(fine, total, 1.0)
    lg = _lgamma_core(_with_column(alpha, total))
    ll = lg[:, -1] - lg[:, :-1].sum(axis=1) + ((alpha - 1.0) * mean_log).sum(axis=1)
    return np.where(fine, ll, -np.inf)


# The stopping policy of every fit (see the module docstring), read when a
# fit is called.
_GRAD_TOL = 1.0e-8
_STEP_TOL = 1.0e-10
_MAX_ITER = 1000
_FIXED_POINT_WARMUP = 15
_MAX_BACKTRACK = 30


def _backtrack(objective, x: np.ndarray, step: np.ndarray, base: np.ndarray):
    """Backtracking line search for an ascent step, per row of a batch.

    x and step are (B, d); objective maps trial points (B, d) to (B,)
    values. Each row's step length t starts at 1 and halves until
    objective(x + t * step) is no lower than base, up to a relative slack of
    1e-12, for at most _MAX_BACKTRACK trials. Returns (t, accepted, value):
    an accepted row's value is the objective at x + t * step, bit for bit;
    a row that never passed should not move, and its value is its base.
    """
    slack = 1.0e-12 * (1.0 + np.abs(base))
    t = np.ones(base.shape[0])
    for _ in range(_MAX_BACKTRACK):
        value = objective(x + t[:, None] * step)
        accepted = value >= base - slack
        if accepted.all():
            break
        t = np.where(accepted, t, t / 2.0)
    return t, accepted, np.where(accepted, value, base)


# Rows per block of a batched fit. _ascend runs each block to completion, so
# an iteration's temporaries are O(_BLOCK_ROWS * K) however many rows a
# batch stacks. Blocks of 8,192 rows peaked 1-4 MB higher on the benchmark's
# study workloads.
_BLOCK_ROWS = 4096


def _ascend(step, rows: np.ndarray, b: int, max_iter: int):
    """Iterate a batched ascent over the given rows of a batch of b, for at
    most max_iter steps (none if max_iter < 1).

    step(rows, it) takes iteration it on the active rows and returns
    (done, stuck, move), the first two masks over rows. Rows marked done
    meet _GRAD_TOL on the gradient and converge without moving; rows marked
    stuck cannot move on and stop unconverged; every other row took the
    step, move holds its largest parameter change, and a move below
    _STEP_TOL converges it. Returns (converged, iterations), where
    iterations counts the steps each row took.

    The rows run in blocks of _BLOCK_ROWS, in order, each from iteration 0
    to completion. A step treats each row by itself, bit for bit, so the
    blocks change no result; they bound an iteration's temporaries by the
    block, not the batch.
    """
    converged = np.zeros(b, dtype=bool)
    iterations = np.zeros(b, dtype=int)
    for lo in range(0, rows.size, _BLOCK_ROWS):
        active = rows[lo : lo + _BLOCK_ROWS]
        for it in range(max_iter):
            if active.size == 0:
                break
            done, stuck, move = step(active, it)
            converged[active[done]] = True
            active = active[~(done | stuck)]
            iterations[active] = it + 1
            small = move < _STEP_TOL
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


def _newton_step(alpha: np.ndarray, mean_log: np.ndarray):
    """Gradient of the per-observation log-likelihood in alpha, at mean log
    proportions mean_log, and its Newton direction: (grad, direction).

    The Hessian is psi1(A) ones - diag(psi1(alpha)), inverted in closed form.
    A row whose closed form is untrustworthy (its denominator at most 1e-12)
    takes the gradient, as a null fit's row with no positive definite shift
    does.
    """
    z = _with_column(alpha, alpha.sum(axis=1))
    psi = _digamma_core(z)
    grad = psi[:, -1:] - psi[:, :-1] + mean_log
    psi1 = _trigamma_core(z)
    c = psi1[:, -1]
    inv_q = 1.0 / psi1[:, :-1]
    denom = 1.0 - c * inv_q.sum(axis=1)
    trusted = denom > 1.0e-12
    coef = c * (grad * inv_q).sum(axis=1) / np.where(trusted, denom, 1.0)
    return grad, np.where(trusted[:, None], (grad + coef[:, None]) * inv_q, grad)


_T_CAP = 34.0  # log-precision cap, beyond which the data are degenerate


def _newton_ascent(
    x: np.ndarray, rows: np.ndarray, t0: int, objective, newton, data, max_iter: int
):
    """Damped Newton ascent of a per-row objective, in place on the given
    rows of x (B, d), for at most max_iter steps under the stopping rule of
    _ascend; returns (converged, iterations) over all B rows.

    Each step gathers its rows' data once, as the tuple data(rows), and
    calls objective(xs, *data) for their values (B,) at points xs and
    newton(xs, *data) for their (grad, direction). Columns t0 on are
    log-precisions (none for the Dirichlet fit, t0 = d), held at or below
    _T_CAP, and the objective reads one above it as the cap; a row at the
    cap with that derivative not negative cannot move on and stops
    unconverged. Each other row takes one _backtrack search from the value
    its last accepted trial found, which is the objective at its point, bit
    for bit. A row whose search is rejected stays where it is, so its move
    of 0 stops it under _STEP_TOL.
    """
    x[rows, t0:] = np.minimum(x[rows, t0:], _T_CAP)
    fval = np.empty(x.shape[0])  # the objective at x, on the rows fitted

    def step(rows, it):
        xs, d = x[rows], data(rows)
        if it == 0:
            fval[rows] = objective(xs, *d)
        grad, direction = newton(xs, *d)
        done = np.abs(grad).max(axis=1) < _GRAD_TOL
        stuck = ((xs[:, t0:] >= _T_CAP) & (grad[:, t0:] >= 0.0)).any(axis=1)
        keep = ~(done | stuck)
        if not keep.all():
            rows, xs, direction = rows[keep], xs[keep], direction[keep]
            d = data(rows)
        scale, accepted, fval[rows] = _backtrack(
            lambda trial: objective(trial, *d), xs, direction, fval[rows]
        )
        new = xs + scale[:, None] * direction
        new[:, t0:] = np.minimum(new[:, t0:], _T_CAP)
        x[rows] = np.where(accepted[:, None], new, xs)
        return done, stuck, np.abs(x[rows] - xs).max(axis=1)

    return _ascend(step, rows, x.shape[0], max_iter)


def _fit_batch(stats: SufficientStats):
    """Maximum-likelihood fits over one dataset or a stack of datasets.

    Every result is per row of the stack, (1, ...) for one dataset. Runs
    _FIXED_POINT_WARMUP steps of the fixed-point update as one _ascend, then
    _newton_ascent of _per_obs_loglik along _newton_step, in place on alpha
    over the rows not yet converged, for the steps of _MAX_ITER left, if any
    (the likelihood is strictly concave in alpha, so backtracking on it is a
    safe globalizer); iterations add up over both phases.

    Returns (alpha, log_likelihood, iterations, converged, usable) where
    usable marks rows that were fit at all (non-degenerate input).
    """
    mean_log, mean, mean_sq = (
        np.atleast_2d(a) for a in (stats.mean_log, stats.mean, stats.mean_sq)
    )
    b, k = mean_log.shape
    n = np.broadcast_to(np.asarray(stats.n, dtype=float), (b,))
    usable = ~_blockwise(lambda s: _degenerate_rows(mean[s], mean_sq[s]), b) & (n >= 2)
    alpha = _blockwise(lambda s: _init_alpha(mean[s], mean_sq[s]), b)

    def fixed_point(rows, it):
        cur = alpha[rows]
        new = _inv_digamma(_digamma_core(cur.sum(axis=1))[:, None] + mean_log[rows])
        alpha[rows] = new
        none = np.zeros(rows.size, dtype=bool)
        return none, none, np.abs(new - cur).max(axis=1)

    warmup = min(_MAX_ITER, _FIXED_POINT_WARMUP)
    converged, iterations = _ascend(fixed_point, np.flatnonzero(usable), b, warmup)
    todo = np.flatnonzero(usable & ~converged)
    newton_converged, newton_iterations = _newton_ascent(
        alpha, todo, k, _per_obs_loglik, _newton_step, lambda rows: (mean_log[rows],),
        _MAX_ITER - warmup,
    )
    converged |= newton_converged
    iterations += newton_iterations
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


def mle(data) -> FitResult:
    """Maximum-likelihood fit from raw compositions or sufficient statistics.

    Raises DegenerateDataError when the input cannot identify the parameters
    (a single observation, or a component without variation) and
    NonConvergenceError when the iteration cap is hit.
    """
    stats = _as_stats(data)
    if stats.n < 2:
        raise DegenerateDataError("maximum likelihood needs at least 2 observations")
    alpha, loglik, iters, conv, usable = _fit_batch(stats)
    if not usable[0]:
        raise DegenerateDataError(
            "a component is constant across observations; the precision "
            "parameter diverges"
        )
    if not conv[0]:
        raise NonConvergenceError(
            f"fixed-point warmup and Newton steps did not converge in "
            f"{int(iters[0])} iterations",
            iterations=int(iters[0]),
        )
    return FitResult(
        params=DirichletParams(alpha=alpha[0]),
        log_likelihood=float(loglik[0]),
        iterations=int(iters[0]),
    )


def fisher_information(params: DirichletParams, n: int) -> np.ndarray:
    """Expected information for (pi_1..pi_{K-1}, A) from n observations.

    The last mean coordinate is eliminated through the sum constraint, so the
    matrix is K x K for K components: K-1 mean rows plus one precision row.
    """
    if not (_is_integer(n) and n >= 1):
        raise InputError(f"n must be an integer at least 1, got {n!r}")
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
