"""Special functions and tail probabilities built on plain arithmetic.

Everything the statistical layers need from classical analysis lives here:
log-gamma, digamma, trigamma, regularized incomplete gamma and beta integrals,
and the chi-square and F tails derived from them. These use no numerical
library beyond numpy's elementwise arithmetic, so results are reproducible
from first principles and easy to audit. The normal cdf and quantile come
from the standard library: math.erfc, and statistics.NormalDist's inv_cdf
(Wichura's AS241).

Log-gamma, digamma and trigamma shift the argument past 10 with their
recurrences, then apply an asymptotic series. Where a fit needs digamma and
trigamma at the same points, one shift loop serves both values; each matches
its separate evaluation bit for bit. The shift loop and the series run in
place: each pass writes its recurrence term into one reused buffer, and each
series accumulates in one buffer, with the operations of the plain
expression form in the same order, so every value is bitwise equal to that
form (kept as the reference in the tests). Past 1.3e154, z*z overflows
quietly to inf and the series read 1/z**2 as 0, far below their last bit.

The incomplete gamma sums a series below x = a + 1, and one modified Lentz
loop evaluates its continued fraction above and the incomplete beta's. Near
x = a these need about sqrt(a) terms, so each element stops at 500 +
10 sqrt(shape) terms (pairs for the beta), a cap that stops growing at shape
1e8. Against scipy the tails are accurate to about 1e-13 absolute for shapes
up to 100; beyond, the exp(-x + a log x - log_gamma(a)) prefactor loses
digits about linearly in the shape (measured: 2e-11 up to 1e4, 3e-9 up to
1e6, 1e-6 up to 1e8), and past 1e8 values near x = a can be wrong outright.

All functions accept a float or an ndarray and apply elementwise; a scalar in
gives a Python float out. Inputs outside a function's domain raise
:class:`~simplexstats.errors.DomainError`, and so do arguments at which
digamma or trigamma leaves the double range, and so does an infinite shape
of the regularized incomplete gamma and beta functions. At an infinite
argument the tails return their limits; log-gamma returns inf there and
wherever its value leaves the double range, from about 2.5563e305.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import DomainError

__all__ = [
    "EULER_GAMMA",
    "log_gamma",
    "digamma",
    "trigamma",
    "regularized_gamma_p",
    "regularized_gamma_q",
    "regularized_beta",
    "chi_square_sf",
    "chi_square_cdf",
    "f_sf",
    "normal_cdf",
    "normal_quantile",
]

EULER_GAMMA = 0.5772156649015328606

_LN_SQRT_2PI = 0.9189385332046727418

# Iterative routines: relative target, the least cap on their terms, and
# the shape past which the cap stops growing (see _terms_cap).
_EPS = 1.0e-15
_FPMIN = 1.0e-300
_MAX_ITER = 500
_CAP_SHAPE = 1.0e8

# Asymptotic series are applied after shifting the argument above this point.
_SHIFT_TO = 10

# Bernoulli-number coefficients for the three asymptotic series, lowest order
# first. Truncation error at z = 10 is below 1e-15 relative in each case.
_LGAMMA_TAIL = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
)
_DIGAMMA_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
)
_TRIGAMMA_TAIL = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
)


# Digamma (about -1/x) and trigamma (about 1/x^2) leave the double range
# below these arguments, as scipy's do; the public functions refuse them.
_DIGAMMA_MIN = float(np.nextafter(1.0 / np.finfo(float).max, 1.0))
_TRIGAMMA_MIN = float(1.0 / np.sqrt(np.finfo(float).max))


def _prepare(
    x, name: str, *, positive=False, nonnegative=False, open_unit=False, finite=False
):
    """Coerce to float array, remember scalarness, enforce the stated domain."""
    arr = np.asarray(x, dtype=float)
    if np.any(np.isnan(arr)):
        raise DomainError(f"{name} is NaN")
    if finite and np.any(np.isinf(arr)):
        raise DomainError(f"{name} must be finite")
    if positive and not np.all(arr > 0.0):
        raise DomainError(f"{name} must be positive")
    if nonnegative and not np.all(arr >= 0.0):
        raise DomainError(f"{name} must be nonnegative")
    if open_unit and not np.all((arr > 0.0) & (arr < 1.0)):
        raise DomainError(f"{name} must lie strictly between 0 and 1")
    return arr, arr.ndim == 0


def _finish(values: np.ndarray, scalar: bool):
    return float(values) if scalar else values


def _is_integer(value) -> bool:
    """Whether value is a Python or numpy integer; bools are not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_df(df, name: str) -> int:
    """df as an int: an integer or an integral float of any numpy type (a
    bool, a fractional float or anything else raises DomainError)."""
    integral = isinstance(df, (float, np.floating)) and float(df).is_integer()
    if not (_is_integer(df) or integral):
        raise DomainError(f"{name} must be an integer, got {df!r}")
    value = int(df)
    if value < 1:
        raise DomainError(f"{name} must be at least 1, got {value}")
    return value


def _tail_sum(w: np.ndarray, coeffs, *, out: np.ndarray) -> np.ndarray:
    """Evaluate sum_k c_k * w^(k+1) by Horner's rule (w = 1/z**2) in out."""
    acc = np.multiply(coeffs[-1], w, out=out)
    for c in reversed(coeffs[:-1]):
        acc += c
        acc *= w
    return acc


def _shift_up(x: np.ndarray, orders, shift_to: int = _SHIFT_TO):
    """Add 1 to each element of x below shift_to, a whole number, until it
    is at least shift_to: shift_to passes at most.

    Returns the shifted z and, per polygamma order, the sum over the values
    each element took below the shift point of its recurrence term: log z
    for order -1 (log-gamma), 1/z for 0 (digamma), 1/z**2 for 1 (trigamma).

    The loop runs on x capped at shift_to (NaN too): a capped element never
    shifts, and no term sees a huge, infinite or NaN z; the returned z is x
    there. The least element is the last to pass shift_to, so its own
    shifts, counted up front, are the passes. Each pass turns z < shift_to
    into a 0.0/1.0 step, and each term is written as step / z,
    step / (z*z) or log(z) * step into one reused buffer: exactly the term
    below the shift point, exactly 0 past it. With no pass to make, z is a
    copy of x.
    """
    # A float bound: np.less into a float out takes about 1.7 times as long
    # against an int as against a float, and a fit calls this on a handful
    # of elements at a time.
    cap = float(shift_to)
    z = np.fmin(x, cap, out=np.empty(np.shape(x)))
    sums = [np.zeros(z.shape) for _ in orders]
    least = float(z.min(initial=cap))
    passes = 0
    while passes < shift_to and least < cap:
        least += 1.0
        passes += 1
    if passes == 0:
        return np.array(x, dtype=float), sums
    step = np.empty_like(z)
    buf = np.empty_like(z)
    for _ in range(passes):
        np.less(z, cap, out=step)
        for acc, order in zip(sums, orders):
            if order < 0:
                np.log(z, out=buf)
                buf *= step
            elif order == 0:
                np.divide(step, z, out=buf)
            else:
                np.multiply(z, z, out=buf)
                np.divide(step, buf, out=buf)
            acc += buf
        z += step
    return np.maximum(z, x, out=z), sums


def _inverse_square(z: np.ndarray) -> np.ndarray:
    """w = 1/(z*z) for z > 0. Past 1.34e154, z*z overflows to inf and w reads
    0 instead of a value below 5.6e-309, whose part in every series lies far
    below the last bit; the overflow is expected, so it does not warn."""
    with np.errstate(over="ignore"):
        w = np.multiply(z, z, out=np.empty_like(z))
    return np.divide(1.0, w, out=w)


def _lgamma_core(x: np.ndarray) -> np.ndarray:
    z, (shift,) = _shift_up(x, (-1,))
    w = _inverse_square(z)
    # (z - 0.5) log z - z + log sqrt(2 pi) + sum c_k / z**(2k-1) - shift
    val = np.subtract(z, 0.5, out=np.empty_like(z))
    tmp = np.log(z, out=np.empty_like(z))
    val *= tmp
    val -= z
    val += _LN_SQRT_2PI
    series = _tail_sum(w, _LGAMMA_TAIL, out=tmp)
    series *= z
    val += series
    val -= shift
    return val


def _polygamma(x: np.ndarray, orders, shift_to: int = _SHIFT_TO) -> list[np.ndarray]:
    """Digamma (order 0) and trigamma (order 1) at x, for each of orders,
    from one shift loop and the series past shift_to."""
    z, shifts = _shift_up(x, orders, shift_to)
    w = _inverse_square(z)
    tmp = np.empty_like(z)
    values = []
    for order, shift in zip(orders, shifts):
        if order == 0:
            # log z - 1/(2z) - sum c_k w^k - shift
            val = np.log(z, out=np.empty_like(z))
            val -= np.divide(0.5, z, out=tmp)
            val -= _tail_sum(w, _DIGAMMA_TAIL, out=tmp)
            val -= shift
        else:
            # 1/z + w/2 + (sum c_k w^k) / z + shift
            val = np.divide(1.0, z, out=np.empty_like(z))
            val += np.multiply(0.5, w, out=tmp)
            tail = _tail_sum(w, _TRIGAMMA_TAIL, out=tmp)
            tail /= z
            val += tail
            val += shift
        values.append(val)
    return values


def _digamma_core(x: np.ndarray) -> np.ndarray:
    return _polygamma(x, (0,))[0]


def _trigamma_core(x: np.ndarray) -> np.ndarray:
    return _polygamma(x, (1,))[0]


def _digamma_trigamma_core(
    x: np.ndarray, shift_to: int = _SHIFT_TO
) -> tuple[np.ndarray, np.ndarray]:
    """Digamma and trigamma at the same points, from one shift loop; at the
    default shift point each matches its single core bit for bit.

    A lower shift_to takes fewer passes and truncates the series earlier:
    past 4, the first omitted terms are about 3e-10 for digamma and 1e-9
    for trigamma, which an approximate Newton step can afford.
    """
    return tuple(_polygamma(x, (0, 1), shift_to))


def log_gamma(x):
    """Natural log of the gamma function for x > 0; infinite from about
    2.5563e305, where it leaves the double range, as scipy's is."""
    arr, scalar = _prepare(x, "x", positive=True)
    inf = np.isinf(arr)
    # The core's (z - 0.5) log z - z is inf - inf at inf; it sees 1 there.
    # Past the double range, (z - 0.5) log z overflows to the limit, inf.
    with np.errstate(over="ignore"):
        out = np.where(inf, np.inf, _lgamma_core(np.where(inf, 1.0, arr)))
    return _finish(out, scalar)


def _check_in_range(arr: np.ndarray, least: float, what: str) -> None:
    if np.any(arr < least):
        raise DomainError(
            f"x must be at least {least!r}: below it {what} leaves the double range"
        )


def digamma(x):
    """First derivative of log-gamma for x > 0, down to _DIGAMMA_MIN."""
    arr, scalar = _prepare(x, "x", positive=True)
    _check_in_range(arr, _DIGAMMA_MIN, "digamma")
    return _finish(_digamma_core(arr), scalar)


def trigamma(x):
    """Second derivative of log-gamma for x > 0, down to _TRIGAMMA_MIN."""
    arr, scalar = _prepare(x, "x", positive=True)
    _check_in_range(arr, _TRIGAMMA_MIN, "trigamma")
    return _finish(_trigamma_core(arr), scalar)


def _terms_cap(shape: np.ndarray) -> np.ndarray:
    """Per-element term cap of a series or continued fraction."""
    return _MAX_ITER + 10.0 * np.sqrt(np.minimum(shape, _CAP_SHAPE))


def _gamma_p_series(a: np.ndarray, x: np.ndarray, cap: np.ndarray) -> np.ndarray:
    """Lower regularized gamma by power series; wants x < a + 1."""
    term = 1.0 / a
    total = term.copy()
    ap = a.copy()
    active = x > 0.0
    for n in itertools.count(1):
        active &= n <= cap
        if not active.any():
            break
        ap = np.where(active, ap + 1.0, ap)
        term = np.where(active, term * x / ap, term)
        total = np.where(active, total + term, total)
        active = active & (np.abs(term) >= np.abs(total) * _EPS)
    log_front = -x + a * np.where(x > 0.0, np.log(np.where(x > 0.0, x, 1.0)), 0.0)
    out = total * np.exp(log_front - _lgamma_core(a))
    return np.where(x > 0.0, out, 0.0)


def _lentz(h, c, d, terms, n_terms):
    """Continued fraction by the modified Lentz method (Thompson and
    Barnett 1986; Numerical Recipes 5.2) from its value h and ratios c, d
    after the leading term. terms yields (a_j, b_j) for j = 1, 2, ...; an
    element stops after n_terms terms or a term moving h by under _EPS."""
    active = np.ones(np.shape(h), dtype=bool)
    for j, (an, bn) in enumerate(terms, start=1):
        active &= j <= n_terms
        if not active.any():
            break
        d_new = an * d + bn
        d_new = 1.0 / np.where(np.abs(d_new) < _FPMIN, _FPMIN, d_new)
        c_new = bn + an / c
        c_new = np.where(np.abs(c_new) < _FPMIN, _FPMIN, c_new)
        delta = d_new * c_new
        h = np.where(active, h * delta, h)
        d = np.where(active, d_new, d)
        c = np.where(active, c_new, c)
        active = active & (np.abs(delta - 1.0) >= _EPS)
    return h


def _gamma_q_contfrac(a: np.ndarray, x: np.ndarray, cap: np.ndarray) -> np.ndarray:
    """Upper regularized gamma by continued fraction; wants x >= a + 1."""

    def terms(b):
        for i in itertools.count(1):
            b = b + 2.0
            yield -i * (i - a), b

    b = x + 1.0 - a
    c = np.full_like(x, 1.0 / _FPMIN)
    d = 1.0 / np.maximum(np.abs(b), _FPMIN) * np.sign(np.where(b == 0.0, 1.0, b))
    h = _lentz(d, c, d, terms(b), cap)
    return np.exp(-x + a * np.log(x) - _lgamma_core(a)) * h


def _gamma_pq(a: np.ndarray, x: np.ndarray):
    """(P, Q) regularized incomplete gamma pair, elementwise; (1, 0) at
    x = inf."""
    use_series = x < a + 1.0
    inf = np.isinf(x)
    # Evaluate each branch on safe stand-ins, which run no term, and stitch.
    cap = _terms_cap(a)
    xs = np.where(use_series, x, 0.0)
    xc = np.where(use_series | inf, a + 1.5, x)
    p_series = _gamma_p_series(a, xs, cap)
    q_cf = _gamma_q_contfrac(a, xc, np.where(use_series | inf, 0.0, cap))
    p = np.where(use_series, p_series, np.where(inf, 1.0, 1.0 - q_cf))
    q = np.where(use_series, 1.0 - p_series, np.where(inf, 0.0, q_cf))
    return p, q


def _gamma_tails(a, x):
    """Checked (P, Q) at (a, x), broadcast, and whether both were scalars."""
    a_arr, s1 = _prepare(a, "a", positive=True, finite=True)
    x_arr, s2 = _prepare(x, "x", nonnegative=True)
    a_arr, x_arr = np.broadcast_arrays(a_arr, x_arr)
    return _gamma_pq(a_arr, x_arr), s1 and s2


def regularized_gamma_p(a, x):
    """Lower regularized incomplete gamma P(a, x) for finite a > 0 and
    x >= 0."""
    (p, _), scalar = _gamma_tails(a, x)
    return _finish(p, scalar)


def regularized_gamma_q(a, x):
    """Upper regularized incomplete gamma Q(a, x) = 1 - P(a, x), for finite
    a > 0 and x >= 0."""
    (_, q), scalar = _gamma_tails(a, x)
    return _finish(q, scalar)


def _beta_contfrac(a: np.ndarray, b: np.ndarray, x: np.ndarray, cap: np.ndarray) -> np.ndarray:
    """Continued fraction of the incomplete beta integral, whose odd and
    even partial numerators alternate."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0

    def terms():
        for m in itertools.count(1):
            m2 = 2.0 * m
            yield m * (b - m) * x / ((qam + m2) * (a + m2)), 1.0
            yield -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)), 1.0

    d = 1.0 - qab * x / qap
    d = 1.0 / np.where(np.abs(d) < _FPMIN, _FPMIN, d)
    return _lentz(d, np.ones_like(x), d, terms(), cap)


def _reg_beta_core(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    swap = x >= (a + 1.0) / (a + b + 2.0)
    aa = np.where(swap, b, a)
    bb = np.where(swap, a, b)
    xx = np.where(swap, 1.0 - x, x)
    interior = (xx > 0.0) & (xx < 1.0)
    xs = np.where(interior, xx, 0.5)
    log_front = (
        _lgamma_core(aa + bb)
        - _lgamma_core(aa)
        - _lgamma_core(bb)
        + aa * np.log(xs)
        + bb * np.log1p(-xs)
    )
    cap = np.where(interior, 2.0 * _terms_cap(np.maximum(aa, bb)), 0.0)
    val = np.exp(log_front) * _beta_contfrac(aa, bb, xs, cap) / aa
    val = np.where(interior, val, np.where(xx <= 0.0, 0.0, 1.0))
    return np.where(swap, 1.0 - val, val)


def regularized_beta(a, b, x):
    """Regularized incomplete beta I_x(a, b) for finite a, b > 0 and x in
    [0, 1]."""
    a_arr, s1 = _prepare(a, "a", positive=True, finite=True)
    b_arr, s2 = _prepare(b, "b", positive=True, finite=True)
    x_arr, s3 = _prepare(x, "x")
    if np.any(x_arr < 0.0) or np.any(x_arr > 1.0):
        raise DomainError("x must lie in [0, 1]")
    a_arr, b_arr, x_arr = np.broadcast_arrays(a_arr, b_arr, x_arr)
    return _finish(_reg_beta_core(a_arr, b_arr, x_arr), s1 and s2 and s3)


def chi_square_sf(x, df):
    """Upper tail P(X > x) of the chi-square distribution with df degrees:
    Q(df/2, x/2)."""
    return regularized_gamma_q(_check_df(df, "df") / 2.0, np.asarray(x, dtype=float) / 2.0)


def chi_square_cdf(x, df):
    """Lower tail P(X <= x) of the chi-square distribution with df degrees:
    P(df/2, x/2)."""
    return regularized_gamma_p(_check_df(df, "df") / 2.0, np.asarray(x, dtype=float) / 2.0)


def f_sf(x, df1, df2):
    """Upper tail of the F distribution with (df1, df2) degrees of freedom.

    Uses the exact identity P(F > x) = I_t(df2/2, df1/2) with
    t = df2 / (df2 + df1 * x).
    """
    d1 = _check_df(df1, "df1")
    d2 = _check_df(df2, "df2")
    x_arr, _ = _prepare(x, "x", nonnegative=True)
    return regularized_beta(d2 / 2.0, d1 / 2.0, d2 / (d2 + d1 * x_arr))


def normal_cdf(z):
    """Standard normal lower tail Phi(z) = erfc(-z / sqrt 2) / 2, as
    statistics.NormalDist computes it."""
    arr, scalar = _prepare(z, "z")
    cdf = np.vectorize(lambda v: 0.5 * math.erfc(-v / math.sqrt(2.0)), otypes=[float])
    return _finish(cdf(arr), scalar)


def normal_quantile(p):
    """Standard normal quantile Phi^{-1}(p) for p strictly inside (0, 1):
    statistics.NormalDist's inv_cdf, Wichura's AS241 algorithm, which is
    accurate to the last bit or so."""
    # Imported here, not at module level: statistics loads fractions and
    # decimal, about 2.8 ms and 0.45 MB that no study or tree search needs.
    from statistics import NormalDist

    arr, scalar = _prepare(p, "p", open_unit=True)
    return _finish(np.vectorize(NormalDist().inv_cdf, otypes=[float])(arr), scalar)
