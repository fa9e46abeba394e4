"""Special functions and distribution tails checked against scipy and mpmath."""

import functools
import os
import pathlib
import subprocess
import sys

import mpmath
import numpy as np
import pytest
import scipy.special as sp
import scipy.stats as st

from simplexstats import numerics
from simplexstats.errors import DomainError
from simplexstats.numerics import (
    _DIGAMMA_TAIL,
    _LGAMMA_TAIL,
    _LN_SQRT_2PI,
    _SHIFT_TO,
    _TRIGAMMA_TAIL,
    chi_square_cdf,
    chi_square_sf,
    digamma,
    f_sf,
    log_gamma,
    normal_cdf,
    normal_quantile,
    regularized_beta,
    regularized_gamma_p,
    regularized_gamma_q,
    trigamma,
)

GRID = np.concatenate(
    [
        np.array([1e-6, 1e-4, 1e-2, 0.1, 0.25, 0.5, 0.77, 1.0, 1.5]),
        np.linspace(2.0, 30.0, 29),
        np.array([50.0, 123.4, 1e3, 1e5, 1e8]),
    ]
)


def test_log_gamma_matches_scipy_over_grid():
    ours = log_gamma(GRID)
    ref = sp.gammaln(GRID)
    assert np.allclose(ours, ref, rtol=1e-13, atol=1e-13)


def test_log_gamma_matches_mpmath_at_awkward_points():
    mpmath.mp.dps = 30
    for x in (1e-8, 0.5, 1.0, 2.0, 9.999, 10.001, 171.6):
        ref = float(mpmath.loggamma(x))
        assert log_gamma(x) == pytest.approx(ref, rel=1e-13, abs=1e-13)


def test_digamma_matches_scipy_over_grid():
    assert np.allclose(digamma(GRID), sp.psi(GRID), rtol=1e-12, atol=1e-12)


def test_trigamma_matches_scipy_over_grid():
    ref = sp.polygamma(1, GRID)
    assert np.allclose(trigamma(GRID), ref, rtol=1e-12, atol=1e-12)


def test_polygamma_recurrences_hold():
    # psi(x+1) = psi(x) + 1/x and the trigamma analogue, independent of scipy
    rng = np.random.default_rng(11)
    x = rng.uniform(0.05, 40.0, size=200)
    assert np.allclose(digamma(x + 1.0), digamma(x) + 1.0 / x, rtol=1e-11, atol=1e-11)
    assert np.allclose(trigamma(x + 1.0), trigamma(x) - 1.0 / x**2, rtol=1e-10, atol=1e-12)


def test_gamma_tails_match_scipy():
    rng = np.random.default_rng(5)
    a = rng.uniform(0.05, 60.0, size=300)
    x = rng.uniform(0.0, 90.0, size=300)
    assert np.allclose(regularized_gamma_p(a, x), sp.gammainc(a, x), atol=1e-12)
    assert np.allclose(regularized_gamma_q(a, x), sp.gammaincc(a, x), atol=1e-12)


def test_gamma_tails_sum_to_one():
    rng = np.random.default_rng(6)
    a = rng.uniform(0.05, 60.0, size=300)
    x = rng.uniform(0.0, 90.0, size=300)
    total = regularized_gamma_p(a, x) + regularized_gamma_q(a, x)
    assert np.allclose(total, 1.0, atol=1e-13)


def test_regularized_beta_matches_scipy():
    rng = np.random.default_rng(7)
    a = rng.uniform(0.1, 40.0, size=300)
    b = rng.uniform(0.1, 40.0, size=300)
    x = rng.uniform(1e-6, 1.0 - 1e-6, size=300)
    assert np.allclose(regularized_beta(a, b, x), sp.betainc(a, b, x), atol=1e-12)


def test_regularized_beta_endpoints():
    assert regularized_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_beta(2.0, 3.0, 1.0) == 1.0


def test_chi_square_sf_matches_scipy():
    x = np.linspace(0.0, 80.0, 161)
    for df in (1, 2, 3, 4, 7, 20):
        assert np.allclose(chi_square_sf(x, df), st.chi2.sf(x, df), atol=1e-12)


def test_chi_square_cdf_complements_sf():
    x = np.linspace(0.0, 30.0, 61)
    total = chi_square_cdf(x, 3) + chi_square_sf(x, 3)
    assert np.allclose(total, 1.0, atol=1e-13)


def test_chi_square_sf_accepts_array_statistic_with_scalar_df():
    stats = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = chi_square_sf(stats, 3)
    assert out.shape == stats.shape
    assert np.allclose(out, st.chi2.sf(stats, 3), atol=1e-12)


def test_f_sf_matches_scipy():
    rng = np.random.default_rng(8)
    x = rng.uniform(0.0, 12.0, size=200)
    for df1, df2 in ((1, 5), (3, 10), (7, 3), (20, 40)):
        assert np.allclose(f_sf(x, df1, df2), st.f.sf(x, df1, df2), atol=1e-11)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "got, ref, tol",
    [
        # Values at the old fixed cap of 500 terms: 0.7393, off by 3.4e-7
        # (twice), 0.0920 and 0.499956.
        (lambda: chi_square_sf(1e6, 10**6), lambda: st.chi2.sf(1e6, 10**6), 1e-9),
        (lambda: chi_square_sf(2e4, 20000), lambda: st.chi2.sf(2e4, 20000), 1e-10),
        (lambda: regularized_gamma_p(1e4, 1e4), lambda: sp.gammainc(1e4, 1e4), 1e-10),
        (lambda: regularized_gamma_p(1e6, 1e6 - 1e3), lambda: sp.gammainc(1e6, 1e6 - 1e3), 1e-9),
        (lambda: regularized_beta(1e7, 1e7, 0.5), lambda: sp.betainc(1e7, 1e7, 0.5), 1e-7),
    ],
    ids=["chi2-1e6", "chi2-2e4", "gamma-p-1e4", "gamma-p-1e6", "beta-1e7"],
)
def test_large_shape_tails_run_their_loops_to_convergence(got, ref, tol):
    assert got() == pytest.approx(ref(), abs=tol)


def test_a_stand_in_element_runs_no_term(monkeypatch):
    # The series element (a = 1e8, x = 1) stands in the continued fraction
    # at x = a + 1.5, where the fraction would take about 1e5 terms.
    drawn = []
    lentz = numerics._lentz

    def counting(h, c, d, terms, n_terms):
        return lentz(h, c, d, (drawn.append(t) or t for t in terms), n_terms)

    monkeypatch.setattr(numerics, "_lentz", counting)
    a, x = np.array([1e8, 2.0]), np.array([1.0, 50.0])
    assert np.allclose(regularized_gamma_p(a, x), sp.gammainc(a, x), rtol=1e-13, atol=0.0)
    assert len(drawn) < 50


def test_normal_cdf_matches_scipy():
    z = np.linspace(-10.0, 10.0, 401)
    assert np.allclose(normal_cdf(z), st.norm.cdf(z), atol=1e-15)


def test_normal_quantile_matches_scipy():
    # The Bonferroni points of pairwise_mean_cis, 1 - (1 - level) / (2K).
    bonferroni = [1.0 - (1.0 - level) / (2.0 * k) for k in range(3, 7) for level in (0.9, 0.95, 0.99)]
    p = np.concatenate(
        [
            np.array([1e-300, 1e-15, 1e-10, 1e-6, 1e-3]),
            np.linspace(0.01, 0.99, 197),
            np.array([1.0 - 1e-3, 1.0 - 1e-6, 1.0 - 1e-10]),
            # Within a few ulps of 1, where 1 - p keeps few digits of p.
            np.array([0.9999999999999741, 1.0 - 2.0**-45, 1.0 - 1e-16]),
            bonferroni,
        ]
    )
    assert np.allclose(normal_quantile(p), st.norm.ppf(p), rtol=1e-14, atol=1e-13)


def test_normal_quantile_is_exactly_odd_about_one_half():
    # 1 - k/64 is exact, so the two quantiles must be exact negatives.
    p = np.arange(1, 64) / 64.0
    assert np.array_equal(normal_quantile(p), -normal_quantile(1.0 - p))


def test_importing_the_cli_loads_no_statistics_module():
    # normal_quantile imports statistics when called: at import time it would
    # load statistics, fractions and decimal into every command and study.
    code = (
        "import sys, simplexstats.cli; "
        "print(sorted({'statistics', 'fractions', 'decimal'} & set(sys.modules)))"
    )
    src = str(pathlib.Path(numerics.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_normal_quantile_round_trips_through_cdf():
    p = np.linspace(0.001, 0.999, 199)
    assert np.allclose(normal_cdf(normal_quantile(p)), p, atol=1e-12)


def test_normal_quantile_symmetry_and_median():
    assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-13)
    p = np.array([0.01, 0.1, 0.3])
    assert np.allclose(normal_quantile(p), -normal_quantile(1.0 - p), atol=1e-11)


def test_scalar_in_float_out():
    assert isinstance(log_gamma(2.5), float)
    assert isinstance(chi_square_sf(1.0, 2), float)
    assert isinstance(normal_quantile(0.3), float)
    assert isinstance(f_sf(1.0, 2, 3), float)


def test_array_in_array_out():
    out = log_gamma(np.array([1.0, 2.0]))
    assert isinstance(out, np.ndarray) and out.shape == (2,)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
def test_log_gamma_rejects_nonpositive(bad):
    with pytest.raises(DomainError):
        log_gamma(bad)


def test_chi_square_sf_rejects_bad_arguments():
    with pytest.raises(DomainError):
        chi_square_sf(-0.5, 3)
    with pytest.raises(DomainError):
        chi_square_sf(1.0, 0)
    with pytest.raises(DomainError):
        chi_square_sf(1.0, 2.5)
    with pytest.raises(DomainError):
        chi_square_sf(1.0, True)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tails_and_log_gamma_reach_their_limits_at_infinity():
    # Each of these was NaN with an "invalid value" warning: the continued
    # fraction and the log-gamma series met inf - inf.
    inf = np.inf
    cases = [
        (chi_square_sf(inf, 3), st.chi2.sf(inf, 3), 0.0),
        (chi_square_cdf(inf, 3), st.chi2.cdf(inf, 3), 1.0),
        (regularized_gamma_q(1.0, inf), sp.gammaincc(1.0, inf), 0.0),
        (regularized_gamma_p(1.0, inf), sp.gammainc(1.0, inf), 1.0),
        (normal_cdf(inf), st.norm.cdf(inf), 1.0),
        (normal_cdf(-inf), st.norm.cdf(-inf), 0.0),
        (log_gamma(inf), sp.gammaln(inf), inf),
    ]
    for got, ref, limit in cases:
        assert got == ref == limit
    # In an array, the finite elements keep their values bit for bit.
    x = np.array([0.5, 3.0, inf, 40.0])
    a = np.array([2.0, 2.0, 2.0, 7.5])
    finite = np.isfinite(x)
    assert regularized_gamma_q(a, x)[finite].tobytes() == regularized_gamma_q(a[finite], x[finite]).tobytes()
    assert chi_square_sf(x, 4).tolist()[2] == 0.0
    assert log_gamma(x)[finite].tobytes() == log_gamma(x[finite]).tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "call",
    [
        lambda: regularized_gamma_p(np.inf, 1.0),
        lambda: regularized_gamma_q(np.inf, np.inf),
        lambda: regularized_gamma_q(np.array([2.0, np.inf]), 1.0),
        lambda: regularized_beta(np.inf, 1.0, 0.5),
        lambda: regularized_beta(1.0, np.array([np.inf, 3.0]), 0.5),
    ],
    ids=["gamma-p", "gamma-q", "gamma-q-array", "beta-a", "beta-b-array"],
)
def test_regularized_functions_refuse_an_infinite_shape(call):
    # Each of these was NaN with an "invalid value" warning; log_gamma keeps
    # its limit at inf.
    with pytest.raises(DomainError, match="must be finite"):
        call()
    assert log_gamma(np.inf) == np.inf


@pytest.mark.parametrize(
    "df", [3, np.int8(3), np.uint64(3), 3.0, np.float16(3.0), np.float32(3.0), np.float64(3.0)]
)
def test_df_accepts_integers_and_integral_floats_of_any_type(df):
    assert chi_square_sf(2.0, df) == chi_square_sf(2.0, 3)
    assert f_sf(1.0, df, 10) == f_sf(1.0, 3, 10)
    assert f_sf(1.0, 10, df) == f_sf(1.0, 10, 3)


@pytest.mark.parametrize(
    "df", [np.float32(3.5), np.float64(2.5), 2.5, np.inf, np.nan, True, np.bool_(True), "3", None]
)
def test_df_refuses_anything_but_an_integral_number(df):
    # np.float32(3.5) used to read as df = 3.
    for call in (lambda: chi_square_sf(2.0, df), lambda: f_sf(1.0, df, 10), lambda: f_sf(1.0, 10, df)):
        with pytest.raises(DomainError, match="must be an integer"):
            call()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_digamma_and_trigamma_refuse_arguments_whose_value_leaves_the_double_range():
    # scipy's values are finite from these bounds up and infinite just below.
    for fn, ref, least in (
        (digamma, sp.digamma, numerics._DIGAMMA_MIN),
        (trigamma, lambda x: sp.polygamma(1, x), numerics._TRIGAMMA_MIN),
    ):
        below = np.nextafter(least, 0.0)
        assert np.isfinite(ref(least)) and np.isinf(ref(below))
        assert fn(least) == pytest.approx(ref(least), rel=1e-15)
        for bad in (below, 5e-324, np.array([1.0, below])):
            with pytest.raises(DomainError, match="leaves the double range"):
                fn(bad)
    for bad in (1e-155, 1e-170):
        with pytest.raises(DomainError):
            trigamma(bad)
    assert trigamma(1e-154) == pytest.approx(sp.polygamma(1, 1e-154), rel=1e-15)


def test_normal_quantile_rejects_boundary():
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(DomainError):
            normal_quantile(bad)


# Reference cores: the np.where forms of the three shift loops, kept
# verbatim. The cores in numerics compute the same expressions in place, and
# digamma and trigamma share one loop, so every output must match these bit
# for bit, at both shift points the library uses.


def _ref_tail_sum(w, coeffs):
    acc = np.zeros_like(w)
    for c in reversed(coeffs):
        acc = (acc + c) * w
    return acc


def _ref_lgamma_core(x):
    z = x.astype(float, copy=True)
    shift = np.zeros_like(z)
    for _ in range(10):
        low = z < _SHIFT_TO
        if not low.any():
            break
        shift = np.where(low, shift + np.log(np.where(low, z, 1.0)), shift)
        z = np.where(low, z + 1.0, z)
    w = 1.0 / (z * z)
    series = _ref_tail_sum(w, _LGAMMA_TAIL) * z  # sum of c_k / z**(2k-1)
    return (z - 0.5) * np.log(z) - z + _LN_SQRT_2PI + series - shift


def _ref_digamma_core(x, shift_to=_SHIFT_TO):
    z = x.astype(float, copy=True)
    shift = np.zeros_like(z)
    for _ in range(shift_to):
        low = z < shift_to
        if not low.any():
            break
        shift = np.where(low, shift + 1.0 / np.where(low, z, 1.0), shift)
        z = np.where(low, z + 1.0, z)
    w = 1.0 / (z * z)
    return np.log(z) - 0.5 / z - _ref_tail_sum(w, _DIGAMMA_TAIL) - shift


def _ref_trigamma_core(x, shift_to=_SHIFT_TO):
    z = x.astype(float, copy=True)
    shift = np.zeros_like(z)
    for _ in range(shift_to):
        low = z < shift_to
        if not low.any():
            break
        zz = np.where(low, z, 1.0)
        shift = np.where(low, shift + 1.0 / (zz * zz), shift)
        z = np.where(low, z + 1.0, z)
    w = 1.0 / (z * z)
    return 1.0 / z + 0.5 * w + _ref_tail_sum(w, _TRIGAMMA_TAIL) / z + shift


def _ref_digamma_trigamma_core(x, shift_to=_SHIFT_TO):
    return _ref_digamma_core(x, shift_to), _ref_trigamma_core(x, shift_to)


# (core, reference, least argument): trigamma leaves the double range below
# _TRIGAMMA_MIN, digamma and log-gamma below _DIGAMMA_MIN.
REFERENCE_CORES = {
    "lgamma": (numerics._lgamma_core, _ref_lgamma_core, numerics._DIGAMMA_MIN),
    "digamma": (numerics._digamma_core, _ref_digamma_core, numerics._DIGAMMA_MIN),
    "trigamma": (numerics._trigamma_core, _ref_trigamma_core, numerics._TRIGAMMA_MIN),
    "digamma_trigamma_10": (
        numerics._digamma_trigamma_core,
        _ref_digamma_trigamma_core,
        numerics._TRIGAMMA_MIN,
    ),
    "digamma_trigamma_4": (
        functools.partial(numerics._digamma_trigamma_core, shift_to=4),
        functools.partial(_ref_digamma_trigamma_core, shift_to=4),
        numerics._TRIGAMMA_MIN,
    ),
}


def assert_bitwise(got, want, shape):
    """got equals want bit for bit, each output an array of the given shape."""
    if not isinstance(got, tuple):
        got, want = (got,), (want,)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert isinstance(g, np.ndarray) and g.shape == shape
        assert g.tobytes() == np.asarray(w).tobytes()


BITWISE_GRID = np.concatenate(
    [
        np.geomspace(1e-300, 1e8, 4001),
        np.arange(1.0, 13.0),
        np.nextafter(10.0, [0.0, 20.0]),
    ]
)

_rng = np.random.default_rng(27)
_ALPHA = np.concatenate(
    [
        _rng.uniform(0.9, 1.1, (40, 4)),
        _rng.uniform(4.0, 14.0, (40, 4)),
        _rng.gamma(2.0, 3.0, (40, 4)),
    ]
)
# The grid; arguments from digamma's range bound up to 1e150, with alpha near
# 1 and in 4-14, where the shift loop takes from none to all of its passes;
# 0-d arguments; and (B, K) and (B, K + 1) batches, the second with each
# row's total, as the fits pass them.
BITWISE_INPUTS = [
    BITWISE_GRID,
    np.concatenate(
        [
            np.geomspace(numerics._DIGAMMA_MIN, 1e150, 3001),
            _rng.uniform(0.9, 1.1, 300),
            _rng.uniform(4.0, 14.0, 300),
            np.nextafter([1.0, 4.0, 10.0], 0.0),
        ]
    ),
    *(np.array(v) for v in (0.5, 3.25, 10.0, 1e150)),
    _ALPHA,
    np.column_stack([_ALPHA, _ALPHA.sum(axis=1)]),
]


def _reference_warns(ref, x):
    """Mask of the arguments at which the reference core raises a
    floating-point warning."""
    flat = x.reshape(-1)
    out = np.zeros(flat.shape, dtype=bool)
    with np.errstate(all="raise"):
        for i in range(flat.size):
            try:
                ref(flat[i : i + 1])
            except FloatingPointError:
                out[i] = True
    return out.reshape(x.shape)


def _evaluate(fn, x, loud):
    """fn over x, with warnings silenced. A first run over x with 1.0 in
    place of the loud arguments must raise none, so a warning anywhere else
    fails the test."""
    fn(np.where(loud, 1.0, x))
    with np.errstate(all="ignore"):
        return fn(x)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "core, ref",
    [
        (numerics._lgamma_core, _ref_lgamma_core),
        (numerics._digamma_core, _ref_digamma_core),
        (numerics._trigamma_core, _ref_trigamma_core),
    ],
)
def test_special_cores_match_reference_bitwise(core, ref):
    for x in BITWISE_INPUTS:
        loud = _reference_warns(ref, x)
        assert_bitwise(_evaluate(core, x, loud), _evaluate(ref, x, loud), x.shape)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fused_digamma_trigamma_matches_reference_bitwise():
    x = BITWISE_GRID
    loud = _reference_warns(_ref_trigamma_core, x)
    # On the grid, trigamma warns only where x * x underflows.
    assert loud.any() and x[loud].max() < 1e-150
    assert not _reference_warns(_ref_digamma_core, x).any()
    for form in ("digamma_trigamma_10", "digamma_trigamma_4"):
        core, ref, _ = REFERENCE_CORES[form]
        for x in BITWISE_INPUTS:
            loud = _reference_warns(ref, x)
            assert_bitwise(_evaluate(core, x, loud), _evaluate(ref, x, loud), x.shape)


@pytest.mark.filterwarnings("error")
def test_log_gamma_is_infinite_without_a_warning_past_the_double_range():
    # (z - 0.5) log z overflows from about 2.5563e305; scipy's is inf there.
    for x in (3e305, 1.7e308, np.finfo(float).max):
        assert log_gamma(x) == sp.gammaln(x) == np.inf
    assert log_gamma(2.5e305) == pytest.approx(sp.gammaln(2.5e305), rel=1e-15)
    mixed = np.array([0.5, 2.5e305, 3e305, np.inf])
    assert log_gamma(mixed)[:2].tobytes() == log_gamma(mixed[:2]).tobytes()
    assert np.isinf(log_gamma(mixed)[2:]).all()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("x", [1e200, 1e300])
def test_special_functions_at_huge_arguments_match_scipy_without_overflow(x):
    assert log_gamma(x) == pytest.approx(sp.gammaln(x), rel=1e-15)
    assert digamma(x) == pytest.approx(sp.digamma(x), rel=1e-15)
    assert trigamma(x) == pytest.approx(sp.polygamma(1, x), rel=1e-15)
    # Beside a huge argument, every other element keeps its bits.
    mixed = np.array([0.5, 12.0, 1e150, x])
    for fn in (log_gamma, digamma, trigamma):
        got = fn(mixed)
        assert np.array_equal(got[:3], fn(mixed[:3]))
        assert got[3] == fn(x)
