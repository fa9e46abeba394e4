"""Flat Dirichlet model: density, sampling, fitting, information."""

import json
import pathlib

import numpy as np
import pytest
import scipy.optimize
import scipy.stats as st

from simplexstats import dirichlet, inference
from simplexstats.composition import SufficientStats
from simplexstats.dirichlet import DirichletParams
from simplexstats.errors import DegenerateDataError, DomainError, InputError, NumericalError
from simplexstats.numerics import (
    EULER_GAMMA,
    _digamma_core,
    _digamma_trigamma_core,
    digamma,
    trigamma,
)


def test_params_validate_and_freeze():
    p = DirichletParams(alpha=[2.0, 3.0, 5.0])
    assert p.precision == pytest.approx(10.0)
    assert np.allclose(p.mean, [0.2, 0.3, 0.5])
    with pytest.raises(ValueError):
        p.alpha[0] = 1.0
    with pytest.raises(DomainError):
        DirichletParams(alpha=[1.0, -2.0])
    with pytest.raises(DomainError):
        DirichletParams(alpha=[1.0, np.inf])


def test_from_mean_precision_round_trip():
    p = DirichletParams.from_mean_precision([0.423, 0.194, 0.181, 0.202], 27.025)
    assert np.allclose(p.alpha, np.array([0.423, 0.194, 0.181, 0.202]) * 27.025)
    with pytest.raises(DomainError):
        DirichletParams.from_mean_precision([0.5, 0.5], -1.0)


def test_log_density_matches_scipy():
    rng = np.random.default_rng(21)
    for _ in range(25):
        alpha = rng.uniform(0.3, 15.0, size=4)
        params = DirichletParams(alpha=alpha)
        x = rng.dirichlet(alpha, size=6)
        ref = st.dirichlet.logpdf(x.T, alpha)
        assert np.allclose(dirichlet.log_density(params, x), ref, atol=1e-10)


def test_log_density_scalar_for_single_vector():
    params = DirichletParams(alpha=[2.0, 3.0])
    out = dirichlet.log_density(params, np.array([0.4, 0.6]))
    assert isinstance(out, float)


DENSITY_PINS = pathlib.Path(__file__).parent / "data" / "log_density_and_nested_fit_pins.json"


def test_log_density_matches_recorded_values_exactly():
    # Recorded when log_density had its own lgamma formula; scored through
    # _per_obs_loglik it must give the same bits at K = 2..40 and
    # concentrations from 0.05 to 1e6, per row and for one vector.
    for case in json.loads(DENSITY_PINS.read_text())["dirichlet"]:
        x = np.array(case["x"])
        for alpha, want in zip(case["alpha"], case["log_density"]):
            params = DirichletParams(alpha=alpha)
            assert dirichlet.log_density(params, x).tolist() == want
            assert dirichlet.log_density(params, x[0]) == want[0]


def test_moments_match_closed_form():
    params = DirichletParams(alpha=[2.0, 3.0, 5.0])
    mean, cov = dirichlet.moments(params)
    a = params.alpha
    total = a.sum()
    assert np.allclose(mean, a / total)
    expected_cov = (np.diag(mean) - np.outer(mean, mean)) / (total + 1.0)
    assert np.allclose(cov, expected_cov, atol=1e-14)


def test_sampling_is_deterministic_per_seed():
    params = DirichletParams(alpha=[3.0, 4.0, 5.0])
    x1 = dirichlet.sample(params, 10, np.random.default_rng(99))
    x2 = dirichlet.sample(params, 10, np.random.default_rng(99))
    assert np.array_equal(x1, x2)
    assert np.allclose(x1.sum(axis=1), 1.0, atol=1e-12)


def _gamma_path_sample(params, n, rng):
    # The sampler as it drew through rng.gamma(shape, scale=1.0).
    g = rng.gamma(shape=params.alpha, size=(n, params.n_components))
    if np.any(g == 0.0):
        raise NumericalError("underflow")
    return g / g.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("n", [1, 3, 7, 100])
@pytest.mark.parametrize(
    "alpha",
    [(9.8, 6.1, 5.4, 5.9), (0.05,) * 4, (1e6, 2.0, 3.0), (0.5, 0.7), (0.003,) * 3],
    ids=["row1", "small", "huge", "k2", "underflow"],
)
def test_sample_equals_the_gamma_path_bitwise(alpha, n):
    # Values, the underflow error and the generator state after the call all
    # match. At alpha = 0.003 some of the 40 seeds underflow and some do not.
    params = DirichletParams(alpha=alpha)
    for seed in range(40):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        try:
            want = _gamma_path_sample(params, n, want_rng)
        except NumericalError:
            with pytest.raises(NumericalError):
                dirichlet.sample(params, n, got_rng)
        else:
            got = dirichlet.sample(params, n, got_rng)
            assert got.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_sampling_moments_approach_theory():
    params = DirichletParams(alpha=[9.8, 6.1, 5.4, 5.9])
    x = dirichlet.sample(params, 200_000, np.random.default_rng(4))
    mean, cov = dirichlet.moments(params)
    se_mean = np.sqrt(np.diag(cov) / x.shape[0])
    assert np.all(np.abs(x.mean(axis=0) - mean) < 5.0 * se_mean)
    sample_cov = np.cov(x, rowvar=False)
    assert np.allclose(sample_cov, cov, atol=4e-5)


def test_mle_recovers_generating_parameters():
    params = DirichletParams(alpha=[9.8, 6.1, 5.4, 5.9])
    x = dirichlet.sample(params, 100_000, np.random.default_rng(17))
    fit = dirichlet.mle(x)
    assert np.isfinite(fit.log_likelihood)
    assert np.allclose(fit.params.alpha, params.alpha, rtol=0.03)


def test_mle_matches_direct_optimizer_on_small_sample():
    rng = np.random.default_rng(31)
    x = rng.dirichlet([4.0, 2.0, 3.0], size=12)
    stats = SufficientStats.from_matrix(x)
    fit = dirichlet.mle(x)

    def negative_loglik(log_alpha):
        alpha = np.exp(log_alpha)
        val = (
            scipy.special.gammaln(alpha.sum())
            - scipy.special.gammaln(alpha).sum()
            + ((alpha - 1.0) * stats.mean_log).sum()
        )
        return -stats.n * val

    opt = scipy.optimize.minimize(
        negative_loglik, np.log(fit.params.alpha) + 0.3, method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 5000},
    )
    assert np.allclose(fit.params.alpha, np.exp(opt.x), rtol=1e-5)
    assert fit.log_likelihood == pytest.approx(-opt.fun, rel=1e-10)


def test_mle_log_likelihood_is_total_over_observations():
    rng = np.random.default_rng(53)
    x = rng.dirichlet([3.0, 5.0, 2.0], size=9)
    fit = dirichlet.mle(x)
    ref = st.dirichlet.logpdf(x.T, fit.params.alpha).sum()
    assert fit.log_likelihood == pytest.approx(ref, rel=1e-10)


def test_mle_accepts_sufficient_stats_input():
    rng = np.random.default_rng(67)
    x = rng.dirichlet([2.0, 2.0, 6.0], size=20)
    from_matrix = dirichlet.mle(x)
    from_stats = dirichlet.mle(SufficientStats.from_matrix(x))
    assert np.allclose(from_matrix.params.alpha, from_stats.params.alpha, rtol=1e-12)


def test_mle_rejects_degenerate_inputs():
    with pytest.raises(DegenerateDataError):
        dirichlet.mle(np.array([[0.5, 0.5]]))
    constant = np.array([[0.4, 0.3, 0.3], [0.4, 0.2, 0.4], [0.4, 0.35, 0.25]])
    with pytest.raises(DegenerateDataError):
        dirichlet.mle(constant)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_batch_degenerate_row_is_silent_and_leaves_other_rows_unchanged():
    rng = np.random.default_rng(71)
    good = SufficientStats.from_matrix(rng.dirichlet([2.0, 3.0, 4.0], size=30))
    p = np.array([0.2, 0.3, 0.5])
    # Zero variance in every component: no moment ratio to average.
    flat = SufficientStats(n=30, mean_log=np.log(p), mean=p, mean_sq=p * p)

    def fit(*stats):
        stack = SufficientStats(
            n=np.full(len(stats), 30.0),
            mean_log=np.array([s.mean_log for s in stats]),
            mean=np.array([s.mean for s in stats]),
            mean_sq=np.array([s.mean_sq for s in stats]),
        )
        return dirichlet._fit_batch(stack)

    alone = fit(good)
    batch = fit(good, flat)
    unstacked = dirichlet._fit_batch(good)
    assert batch[4].tolist() == [True, False]
    for a, b, c in zip(alone, batch, unstacked):
        assert np.array_equal(a[0], b[0])
        assert c.shape == a.shape and np.array_equal(c, a)


def test_ascend_stopping_rule(monkeypatch):
    # A per-row contraction x <- x * rate[row]: row 0 starts at its optimum,
    # row 1 is stuck from the first call, row 2 halves its move each step
    # until it falls below _STEP_TOL, and row 3 keeps moving by 1 forever.
    monkeypatch.setattr(dirichlet, "_STEP_TOL", 1.0e-3)
    x = np.array([0.0, 1.0, 1.0, 1.0])
    rate = np.array([0.5, 0.5, 0.5, 1.0])
    calls = []

    def step(rows, it):
        calls.append((rows.tolist(), it))
        done = x[rows] == 0.0
        stuck = rows == 1
        moving = rows[~(done | stuck)]
        new = np.where(rate[moving] < 1.0, x[moving] * rate[moving], x[moving] + 1.0)
        move = np.abs(new - x[moving])
        x[moving] = new
        return done, stuck, move

    converged, iterations = dirichlet._ascend(step, np.arange(4), 5, 20)
    # Moves of row 2 are 2**-1, 2**-2, ...; 2**-10 < 1e-3 <= 2**-9.
    assert converged.tolist() == [True, False, True, False, False]
    assert iterations.tolist() == [0, 0, 10, 20, 0]
    assert calls[0] == ([0, 1, 2, 3], 0)
    assert calls[1] == ([2, 3], 1)
    assert calls[-1] == ([3], 19)
    assert len(calls) == 20
    # A batch with no rows to fit takes no step.
    converged, iterations = dirichlet._ascend(step, np.arange(0), 3, 20)
    assert len(calls) == 20 and not converged.any() and not iterations.any()


def test_newton_step_solves_the_closed_form_hessian_or_takes_the_gradient():
    rng = np.random.default_rng(29)
    alpha = rng.uniform(0.3, 40.0, size=(6, 4))
    want_grad = rng.normal(size=(6, 4))
    # The gradient is psi(A) - psi(alpha) + mean_log.
    mean_log = want_grad - digamma(alpha.sum(axis=1))[:, None] + digamma(alpha)
    grad, direction = dirichlet._newton_step(alpha, mean_log)
    np.testing.assert_allclose(grad, want_grad, rtol=0.0, atol=1e-13)
    hess = trigamma(alpha.sum(axis=1))[:, None, None] - np.stack([np.diag(v) for v in trigamma(alpha)])
    want = np.linalg.solve(-hess, grad[..., None])[..., 0]
    np.testing.assert_allclose(direction, want, rtol=1e-10)
    # At alpha = 1e13 the closed form's denominator rounds to at most 1e-12.
    huge = np.full((1, 4), 1e13)
    g = np.array([[1e-15, -2e-15, 3e-15, -1e-15]])
    grad, direction = dirichlet._newton_step(huge, g - digamma(4e13) + digamma(1e13))
    assert np.abs(grad).max() > 0.0
    assert direction.tobytes() == grad.tobytes()


def _ascent_problem(fit):
    # A batch of 10 datasets at K = 4 from concentrations 0.4 to 9, as the
    # alternative fit (x = alpha, no log-precision) or the common-mean null
    # (x = (theta, t1, t2), started at the uniform mean) plugs into the driver.
    rng = np.random.default_rng(41)
    alphas = rng.choice([0.4, 1.5, 9.0], size=(10, 4))
    s1, s2 = (
        SufficientStats.reduce(np.stack([rng.dirichlet(a, size=n) for a in alphas])) for n in (7, 9)
    )
    if fit == "alternative":
        x = dirichlet._init_alpha(s1.mean, s1.mean_sq)
        ml = s1.mean_log
        return x, 4, dirichlet._per_obs_loglik, dirichlet._newton_step, lambda rows: (ml[rows],)
    x = np.concatenate((np.zeros((10, 3)), np.log(np.full((10, 2), 5.0))), axis=1)
    w = np.stack((s1.n, s2.n)) / (s1.n + s2.n)
    m = np.stack((s1.mean_log, s2.mean_log))
    return x, 3, inference._null_ll, inference._null_newton, lambda rows: (w[:, rows], m[:, rows])


@pytest.mark.parametrize("fit", ["alternative", "common-mean"])
def test_newton_ascent_over_a_subset_of_rows_equals_the_compacted_batch(fit, monkeypatch):
    # Blocks of 3 rows: the subset runs in blocks of the same rows as the
    # compacted batch does.
    monkeypatch.setattr(dirichlet, "_BLOCK_ROWS", 3)
    x, t0, objective, newton, data = _ascent_problem(fit)
    rows, others = np.array([1, 2, 4, 5, 8]), np.array([0, 3, 6, 7, 9])
    start = x.copy()
    converged, iterations = dirichlet._newton_ascent(x, rows, t0, objective, newton, data, 200)
    assert x[others].tobytes() == start[others].tobytes()
    assert not converged[others].any() and not iterations[others].any()
    assert converged[rows].all() and (x[rows] != start[rows]).any(axis=1).all()

    packed = start[rows].copy()
    packed_converged, packed_iterations = dirichlet._newton_ascent(
        packed, np.arange(rows.size), t0, objective, newton, lambda r: data(rows[r]), 200
    )
    assert packed.tobytes() == x[rows].tobytes()
    assert packed_converged.tolist() == converged[rows].tolist()
    assert packed_iterations.tolist() == iterations[rows].tolist()


def test_backtrack_returns_the_accepted_value_or_keeps_the_base():
    # Ascent on -|x - c|^2 from x along multiples of c - x: a multiple of 1
    # or 0.5 passes at t = 1, one of 3 or 2.5 at t = 0.5, and the last row's
    # base lies above the maximum, so it fails every trial.
    rng = np.random.default_rng(43)
    x, c = rng.normal(size=(5, 3)), rng.normal(size=3)
    step = np.array([1.0, 3.0, 0.5, 2.5, 1.0])[:, None] * (c - x)
    calls = []

    def objective(trial):
        calls.append(trial.shape[0])
        return -((trial - c) ** 2).sum(axis=1)

    base = objective(x)
    base[4] = 1.0
    calls.clear()
    t, accepted, value = dirichlet._backtrack(objective, x, step, base)
    assert accepted.tolist() == [True, True, True, True, False]
    assert t.tolist() == [1.0, 0.5, 1.0, 0.5, 2.0**-dirichlet._MAX_BACKTRACK]
    assert len(calls) == dirichlet._MAX_BACKTRACK
    assert value[:4].tobytes() == objective(x + t[:, None] * step)[:4].tobytes()
    assert value[4] == base[4]


def test_init_alpha_matches_nanmean_reference():
    rng = np.random.default_rng(73)
    mean = rng.dirichlet([2.0, 3.0, 4.0, 1.0], size=40)
    mean_sq = mean * mean + rng.uniform(0.0, 0.01, size=mean.shape)
    mean_sq[::3, 0] = mean[::3, 0] ** 2  # no variance in one component
    mean_sq[1::5, 2] = mean[1::5, 2] ** 2 - 1e-18  # negative by rounding
    var = mean_sq - mean * mean
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(var > 0.0, mean * (1.0 - mean) / var - 1.0, np.nan)
    a0 = np.nanmean(ratio, axis=-1)
    a0 = np.clip(np.where(np.isfinite(a0) & (a0 > 0.0), a0, 4.0), 1.0e-2, 1.0e7)
    expected = np.maximum(a0[:, None] * mean, dirichlet._ALPHA_FLOOR)
    assert np.array_equal(dirichlet._init_alpha(mean, mean_sq), expected)


def _expected_loglik_factory(pi0, a0, n):
    """Log-likelihood with the data replaced by its expectation at (pi0, a0).

    The likelihood is linear in the log-data means, so the Hessian of this
    function equals the expected Hessian and its negative is the information.
    """
    alpha0 = a0 * pi0
    mean_log = digamma(alpha0) - digamma(a0)

    def loglik(theta):
        pi_free = theta[:-1]
        a = theta[-1]
        pi = np.append(pi_free, 1.0 - pi_free.sum())
        alpha = a * pi
        return n * (
            scipy.special.gammaln(a)
            - scipy.special.gammaln(alpha).sum()
            + ((alpha - 1.0) * mean_log).sum()
        )

    return loglik


def _numerical_hessian(f, x0, h=1e-4):
    d = x0.size
    hess = np.empty((d, d))
    for i in range(d):
        for j in range(i, d):
            if i == j:
                e = np.zeros(d)
                e[i] = h
                val = (f(x0 + e) - 2.0 * f(x0) + f(x0 - e)) / h**2
            else:
                ei = np.zeros(d)
                ej = np.zeros(d)
                ei[i] = h
                ej[j] = h
                val = (
                    f(x0 + ei + ej) - f(x0 + ei - ej) - f(x0 - ei + ej) + f(x0 - ei - ej)
                ) / (4.0 * h**2)
            hess[i, j] = val
            hess[j, i] = val
    return hess


INV_DIGAMMA_GRID = np.geomspace(1e-8, 1e8, 1001)


def test_inv_digamma_recovers_its_argument():
    x = INV_DIGAMMA_GRID
    back = dirichlet._inv_digamma(_digamma_core(x))
    assert np.max(np.abs(back - x) / x) < 1e-13


def test_inv_digamma_matches_five_exact_newton_steps():
    x = INV_DIGAMMA_GRID
    with np.errstate(all="raise"):
        y = _digamma_core(x)
        start = np.where(
            y >= -2.22,
            np.exp(np.maximum(y, -2.22)) + 0.5,
            -1.0 / (np.minimum(y, -2.22) + EULER_GAMMA),
        )
        want = np.maximum(start, 1e-300)
        for _ in range(5):
            psi, psi1 = _digamma_trigamma_core(want)
            want = np.maximum(want - (psi - y) / psi1, 1e-300)
        got = dirichlet._inv_digamma(y)
        # The last exact step lands anywhere in the band its own rounding
        # leaves, up to 8 ulp wide on this grid, as it does from any start
        # that close to the root.
        assert np.all(np.abs(got - want) <= 16 * np.spacing(want))

        # The first four steps run on the series shifted past 4. Its digamma
        # error moves the root they approach by the error over x * psi1(x);
        # its trigamma error is below the first omitted term, 7/6 z**-15,
        # which is under 4.4e-9 of psi1(z) > 1/z for z >= 4.
        approx, approx1 = _digamma_trigamma_core(x, dirichlet._INV_DIGAMMA_SHIFT)
        exact, exact1 = _digamma_trigamma_core(x)
        assert np.max(np.abs(approx - exact) / (x * exact1)) <= 1e-9
        assert np.max(np.abs(approx1 - exact1) / exact1) <= 5e-9


def test_fisher_information_matches_numerical_hessian():
    # Matrix-norm relative agreement at 1e-6: entrywise relative comparison is
    # meaningless for the near-zero cross terms, whose absolute magnitude sits
    # below what central differences can resolve.
    pi0 = np.array([0.301, 0.255, 0.216, 0.228])
    a0 = 41.678
    n = 7
    params = DirichletParams.from_mean_precision(pi0, a0)
    info = dirichlet.fisher_information(params, n)
    f = _expected_loglik_factory(pi0, a0, n)
    theta0 = np.append(pi0[:-1], a0)
    hess = _numerical_hessian(f, theta0)
    assert np.linalg.norm(info + hess) <= 1e-6 * np.linalg.norm(info)


def test_fisher_information_scales_linearly_in_n():
    params = DirichletParams(alpha=[3.0, 4.0, 5.0])
    one = dirichlet.fisher_information(params, 1)
    many = dirichlet.fisher_information(params, 13)
    assert np.allclose(many, 13.0 * one, rtol=1e-12)


@pytest.mark.parametrize("fn", [dirichlet.fisher_information, dirichlet.mean_standard_errors])
def test_information_and_standard_errors_take_n_as_a_count(fn):
    params = DirichletParams(alpha=[3.0, 4.0, 5.0])
    for bad in (True, 2.5, 7.0, 0):
        with pytest.raises(InputError, match="n must be an integer at least 1"):
            fn(params, bad)
    assert np.array_equal(fn(params, np.int64(7)), fn(params, 7))


def test_mean_standard_errors_invariant_under_component_rotation():
    # The SE of a given component must not depend on whether it happens to be
    # the one eliminated by the sum constraint.
    alpha = np.array([9.8, 6.1, 5.4, 5.9])
    n = 7
    base = dirichlet.mean_standard_errors(DirichletParams(alpha=alpha), n)
    rolled = dirichlet.mean_standard_errors(DirichletParams(alpha=np.roll(alpha, 1)), n)
    assert np.allclose(np.roll(base, 1), rolled, rtol=1e-10)


def test_mean_standard_errors_match_monte_carlo():
    params = DirichletParams(alpha=[6.0, 3.0, 2.0])
    n = 60
    analytic = dirichlet.mean_standard_errors(params, n)
    rng = np.random.default_rng(2024)
    means = []
    for _ in range(400):
        x = dirichlet.sample(params, n, rng)
        means.append(dirichlet.mle(x).params.mean)
    observed = np.asarray(means).std(axis=0, ddof=1)
    assert np.allclose(observed, analytic, rtol=0.15)
