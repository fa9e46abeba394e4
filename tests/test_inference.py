"""Hypothesis tests, screening, and confidence intervals."""

import numpy as np
import pytest
import scipy.optimize
import scipy.special
import scipy.stats as st

from simplexstats import dirichlet, inference, nested
from simplexstats.composition import CompositionDataset, SufficientStats, clr
from simplexstats.dirichlet import DirichletParams
from simplexstats.errors import DegenerateDataError, DimensionMismatchError, InputError
from simplexstats.inference import (
    calibrated_uniformity_cutoff,
    clr_hotelling_test,
    maugard_procedure,
    one_sample_uniformity_test,
    pairwise_mean_cis,
    two_sample_dirichlet_lrt,
    two_sample_ndd_lrt,
)
from simplexstats.nested import NddParams, flat_tree, parse_tree
from simplexstats.numerics import Tolerance, chi_square_sf


def _two_group_dataset(seed=101, n1=9, n2=11, alpha1=(6.0, 4.0, 3.0, 5.0), alpha2=None):
    rng = np.random.default_rng(seed)
    x1 = rng.dirichlet(alpha1, size=n1)
    x2 = rng.dirichlet(alpha2 if alpha2 is not None else alpha1, size=n2)
    labels = ["one"] * n1 + ["two"] * n2
    return CompositionDataset.from_arrays(np.vstack([x1, x2]), labels)


def _loglik(alpha, mean_log, n):
    return n * (
        scipy.special.gammaln(alpha.sum())
        - scipy.special.gammaln(alpha).sum()
        + ((alpha - 1.0) * mean_log).sum()
    )


def test_two_sample_lrt_null_optimum_matches_direct_optimizer():
    ds = _two_group_dataset()
    tr = two_sample_dirichlet_lrt(ds)
    ml1 = np.log(ds.group_matrix("one")).mean(axis=0)
    ml2 = np.log(ds.group_matrix("two")).mean(axis=0)
    n1, n2 = 9, 11

    def negative_null(theta):
        # softmax mean with the last logit pinned at zero, log precisions
        logits = np.append(theta[:3], 0.0)
        pi = np.exp(logits - logits.max())
        pi = pi / pi.sum()
        a1, a2 = np.exp(theta[3]), np.exp(theta[4])
        return -(_loglik(a1 * pi, ml1, n1) + _loglik(a2 * pi, ml2, n2))

    start = np.zeros(5)
    start[3] = start[4] = np.log(18.0)
    opt = scipy.optimize.minimize(
        negative_null, start, method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-13, "maxiter": 20000, "maxfev": 20000},
    )
    assert tr.details["log_likelihood_null"] == pytest.approx(-opt.fun, abs=1e-7)


def test_two_sample_lrt_alternative_is_sum_of_group_fits():
    ds = _two_group_dataset()
    tr = two_sample_dirichlet_lrt(ds)
    alt = (
        dirichlet.mle(ds.group_matrix("one")).log_likelihood
        + dirichlet.mle(ds.group_matrix("two")).log_likelihood
    )
    assert tr.details["log_likelihood_alt"] == pytest.approx(alt, rel=1e-10)
    lam = -2.0 * (tr.details["log_likelihood_null"] - tr.details["log_likelihood_alt"])
    assert tr.statistic == pytest.approx(max(lam, 0.0), abs=1e-9)


def test_two_sample_lrt_equals_its_row_of_the_batch_path():
    sets = [_two_group_dataset(seed=seed) for seed in (101, 102, 103, 104)]
    batch = inference._two_sample_lrt_batch(
        SufficientStats.reduce(np.stack([ds.group_matrix("one") for ds in sets])),
        SufficientStats.reduce(np.stack([ds.group_matrix("two") for ds in sets])),
        Tolerance(),
    )
    for i, ds in enumerate(sets):
        tr = two_sample_dirichlet_lrt(ds)
        assert tr.statistic == batch["statistic"][i]
        assert tr.details["log_likelihood_null"] == batch["null_loglik"][i]
        assert tr.details["null_mean"] == batch["null_mean"][i].tolist()
        assert tr.converged == batch["converged"][i]


def test_two_sample_lrt_report_shape():
    ds = _two_group_dataset()
    tr = two_sample_dirichlet_lrt(ds)
    assert tr.test == "dirichlet-lrt"
    assert tr.df == (3,)
    assert tr.groups == ("one", "two")
    assert tr.statistic >= 0.0
    assert tr.p_value == pytest.approx(chi_square_sf(tr.statistic, 3), abs=1e-14)
    assert tr.converged


def test_two_sample_lrt_identical_groups_gives_zero_statistic():
    rng = np.random.default_rng(7)
    x = rng.dirichlet([5.0, 5.0, 5.0], size=10)
    ds = CompositionDataset.from_arrays(
        np.vstack([x, x]), ["a"] * 10 + ["b"] * 10
    )
    tr = two_sample_dirichlet_lrt(ds)
    assert tr.statistic == pytest.approx(0.0, abs=1e-6)
    assert tr.p_value == pytest.approx(1.0, abs=1e-6)


def test_two_sample_lrt_group_selection_and_errors():
    ds = _two_group_dataset()
    flipped = two_sample_dirichlet_lrt(ds, groups=("two", "one"))
    assert flipped.groups == ("two", "one")

    rng = np.random.default_rng(3)
    three = CompositionDataset.from_arrays(
        rng.dirichlet([2.0, 2.0], size=6), ["a", "a", "b", "b", "c", "c"]
    )
    with pytest.raises(InputError):
        two_sample_dirichlet_lrt(three)
    picked = two_sample_dirichlet_lrt(three, groups=("a", "c"))
    assert picked.groups == ("a", "c")

    tiny = CompositionDataset.from_arrays(
        rng.dirichlet([2.0, 2.0], size=3), ["a", "a", "b"]
    )
    with pytest.raises(DegenerateDataError):
        two_sample_dirichlet_lrt(tiny)


def test_ndd_lrt_on_flat_tree_equals_dirichlet_lrt():
    ds = _two_group_dataset(seed=11)
    flat = two_sample_ndd_lrt(ds, flat_tree(4, leaf_names=ds.components))
    plain = two_sample_dirichlet_lrt(ds)
    assert flat.statistic == pytest.approx(plain.statistic, abs=1e-10)
    assert flat.df == plain.df
    assert flat.p_value == pytest.approx(plain.p_value, abs=1e-12)


def test_ndd_lrt_sums_subtree_statistics():
    ds = _two_group_dataset(seed=13)
    tree = parse_tree("((c1,c2),(c3,c4))")
    tr = two_sample_ndd_lrt(ds, tree)
    subtrees = tr.details["subtrees"]
    assert [s["subtree"] for s in subtrees] == ["root", "N1", "N2"]
    assert tr.statistic == pytest.approx(sum(s["statistic"] for s in subtrees), rel=1e-12)
    assert tr.df == (sum(s["df"] for s in subtrees),)
    assert tr.df == (3,)
    for s in subtrees:
        assert s["statistic"] >= 0.0
        assert s["p_value"] == pytest.approx(chi_square_sf(s["statistic"], s["df"]), abs=1e-12)


def test_ndd_lrt_subtree_matches_two_sample_test_on_branch_data():
    # The root split of ((c1,c2),(c3,c4)) is the two-sample problem on the
    # aggregated masses (c1+c2, c3+c4); the statistics must agree.
    ds = _two_group_dataset(seed=17)
    tree = parse_tree("((c1,c2),(c3,c4))")
    tr = two_sample_ndd_lrt(ds, tree)
    masses = np.stack(
        [ds.matrix[:, 0] + ds.matrix[:, 1], ds.matrix[:, 2] + ds.matrix[:, 3]], axis=1
    )
    branch = CompositionDataset.from_arrays(masses, list(ds.labels))
    root_only = two_sample_dirichlet_lrt(branch)
    root_stat = tr.details["subtrees"][0]["statistic"]
    assert root_stat == pytest.approx(root_only.statistic, abs=1e-8)


def test_clr_hotelling_matches_manual_computation():
    ds = _two_group_dataset(seed=19)
    tr = clr_hotelling_test(ds)
    z1 = clr(ds.group_matrix("one"))[:, :-1]
    z2 = clr(ds.group_matrix("two"))[:, :-1]
    n1, n2 = z1.shape[0], z2.shape[0]
    d = z1.mean(axis=0) - z2.mean(axis=0)
    pooled = ((n1 - 1) * np.cov(z1, rowvar=False) + (n2 - 1) * np.cov(z2, rowvar=False)) / (
        n1 + n2 - 2
    )
    t2 = (n1 * n2 / (n1 + n2)) * d @ np.linalg.solve(pooled, d)
    k = ds.n_components
    f_stat = t2 * (n1 + n2 - k) / ((n1 + n2 - 2) * (k - 1))
    assert tr.details["t_squared"] == pytest.approx(t2, rel=1e-10)
    assert tr.statistic == pytest.approx(f_stat, rel=1e-10)
    assert tr.df == (k - 1, n1 + n2 - k)
    assert tr.p_value == pytest.approx(st.f.sf(f_stat, k - 1, n1 + n2 - k), abs=1e-10)


def test_uniformity_null_matches_direct_optimizer():
    rng = np.random.default_rng(23)
    x = rng.dirichlet([4.0, 2.0, 3.0], size=8)
    tr = one_sample_uniformity_test(x)
    ml = np.log(x).mean(axis=0)

    def negative_null(log_a):
        a = np.exp(log_a[0])
        return -_loglik(np.full(3, a / 3.0), ml, 8)

    opt = scipy.optimize.minimize(
        negative_null, [np.log(9.0)], method="Nelder-Mead",
        options={"xatol": 1e-13, "fatol": 1e-13},
    )
    assert tr.details["log_likelihood_null"] == pytest.approx(-opt.fun, abs=1e-9)
    alt = dirichlet.mle(x).log_likelihood
    assert tr.details["log_likelihood_alt"] == pytest.approx(alt, rel=1e-10)
    lam = -2.0 * (tr.details["log_likelihood_null"] - alt)
    assert tr.statistic == pytest.approx(max(lam, 0.0), abs=1e-9)
    assert tr.df == (2,)
    assert tr.p_value == pytest.approx(chi_square_sf(tr.statistic, 2), abs=1e-14)


@pytest.mark.parametrize("fit", [dirichlet.mle, one_sample_uniformity_test])
def test_single_dataset_fits_reject_a_stacked_carrier(fit):
    x = np.random.default_rng(41).dirichlet([3.0, 4.0, 5.0], size=(2, 10))
    with pytest.raises(DimensionMismatchError):
        fit(SufficientStats.reduce(x))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_uniformity_null_row_at_the_centre_stops_at_the_cap():
    # Every part's mean log at log(1/K): the likelihood rises without bound
    # in the precision, so the row has to stop at the cap.
    ml = np.log(np.random.default_rng(43).dirichlet([6.0, 4.0, 3.0, 5.0], size=8)).mean(axis=0)
    centre = np.full(4, np.log(0.25))
    tol = Tolerance()
    alone = inference._uniformity_null_batch(ml[None], np.array([8.0]), np.array([10.0]), tol)
    a, ll, converged = inference._uniformity_null_batch(
        np.stack([ml, centre]), np.array([8.0, 8.0]), np.array([10.0, 10.0]), tol
    )
    assert np.isfinite(a[1]) and a[1] <= np.exp(inference._T_CAP)
    assert np.isfinite(ll[1])
    assert alone[2][0] and converged[0]
    for one, pair in zip(alone, (a, ll, converged)):
        assert np.array_equal(one[0], pair[0])


def test_uniformity_statistic_is_zero_on_symmetric_fit():
    # A dataset whose fitted mean is exactly uniform cannot beat the null.
    x = np.array(
        [
            [0.5, 0.3, 0.2],
            [0.2, 0.5, 0.3],
            [0.3, 0.2, 0.5],
            [0.4, 0.35, 0.25],
            [0.25, 0.4, 0.35],
            [0.35, 0.25, 0.4],
        ]
    )
    tr = one_sample_uniformity_test(x)
    assert tr.statistic == pytest.approx(0.0, abs=1e-8)


def test_uniformity_calibration_is_deterministic_and_reported():
    rng = np.random.default_rng(29)
    x = rng.dirichlet([9.0, 6.0, 6.0, 6.0], size=7)
    plain = one_sample_uniformity_test(x)
    assert "calibrated_p_value" not in plain.details
    one = one_sample_uniformity_test(x, calibration_replicates=2000)
    two = one_sample_uniformity_test(x, calibration_replicates=2000)
    assert one.details["calibrated_p_value"] == two.details["calibrated_p_value"]
    assert one.details["calibration_replicates"] == 2000
    # the asymptotic p-value is unchanged by calibration
    assert one.p_value == plain.p_value
    assert 0.0 < one.details["calibrated_p_value"] <= 1.0


def test_calibrated_cutoff_exceeds_asymptotic_at_small_n():
    cut = calibrated_uniformity_cutoff(7, 4, replicates=4000)
    assert cut == calibrated_uniformity_cutoff(7, 4, replicates=4000)
    # chi-square(3) critical value at 5% is 7.815; the finite-sample null at
    # n=7 is stochastically larger, so the calibrated cutoff must sit above
    assert 7.815 < cut < 10.5


def test_calibrated_cutoff_approaches_chi_square_at_large_n():
    cut = calibrated_uniformity_cutoff(400, 4, replicates=4000)
    assert abs(cut - 7.8147) < 0.6


def test_maugard_procedure_verdicts():
    rng = np.random.default_rng(31)
    peaked = rng.dirichlet([20.0, 3.0, 3.0, 3.0], size=7)
    flat1 = rng.dirichlet([7.0, 7.0, 7.0, 7.0], size=7)
    flat2 = rng.dirichlet([7.0, 7.0, 7.0, 7.0], size=7)
    peaked2 = rng.dirichlet([3.0, 20.0, 3.0, 3.0], size=7)

    def verdict(x1, x2):
        ds = CompositionDataset.from_arrays(
            np.vstack([x1, x2]), ["g1"] * 7 + ["g2"] * 7
        )
        return maugard_procedure(ds)

    one = verdict(peaked, flat1)
    assert one.verdict == "RejectOne"
    assert len(one.reports) == 2
    assert one.level == 0.05
    assert verdict(flat1, flat2).verdict == "FailBoth"
    assert verdict(peaked, peaked2).verdict == "RejectBoth"


def test_maugard_uncalibrated_uses_asymptotic_pvalues():
    rng = np.random.default_rng(37)
    x1 = rng.dirichlet([9.0, 6.0, 6.0, 6.0], size=7)
    x2 = rng.dirichlet([9.0, 6.0, 6.0, 6.0], size=7)
    ds = CompositionDataset.from_arrays(np.vstack([x1, x2]), ["a"] * 7 + ["b"] * 7)
    res = maugard_procedure(ds, calibrated=False)
    rejs = sum(1 for tr in res.reports if tr.p_value < 0.05)
    expected = {0: "FailBoth", 1: "RejectOne", 2: "RejectBoth"}[rejs]
    assert res.verdict == expected
    for tr in res.reports:
        assert "calibrated_p_value" not in tr.details


def test_pairwise_mean_cis_dirichlet():
    ds = _two_group_dataset(seed=41)
    cis = pairwise_mean_cis(ds)
    assert len(cis) == 4
    z = st.norm.ppf(1.0 - 0.05 / 8.0)
    fit1 = dirichlet.mle(ds.group_matrix("one")).params.mean
    fit2 = dirichlet.mle(ds.group_matrix("two")).params.mean
    for j, ci in enumerate(cis):
        assert ci.component == ds.components[j]
        assert ci.estimate == pytest.approx(fit1[j] - fit2[j], rel=1e-9)
        assert ci.z_value == pytest.approx(z, abs=1e-9)
        assert ci.lower == pytest.approx(ci.estimate - z * ci.se, abs=1e-12)
        assert ci.upper == pytest.approx(ci.estimate + z * ci.se, abs=1e-12)
        assert ci.level == 0.95


def test_pairwise_mean_cis_ses_combine_both_groups():
    ds = _two_group_dataset(seed=43)
    cis = pairwise_mean_cis(ds)
    f1 = dirichlet.mle(ds.group_matrix("one"))
    f2 = dirichlet.mle(ds.group_matrix("two"))
    se1 = dirichlet.mean_standard_errors(f1.params, 9)
    se2 = dirichlet.mean_standard_errors(f2.params, 11)
    for j, ci in enumerate(cis):
        assert ci.se == pytest.approx(np.hypot(se1[j], se2[j]), rel=1e-9)


def test_pairwise_mean_cis_nested_model():
    params = NddParams(tree=parse_tree("((AQ1:11.6,OQ:10.3):8.1,(AQ2:5.6,TQ:9.2):11.2)"))
    rng = np.random.default_rng(47)
    x = np.vstack([nested.sample(params, 30, rng), nested.sample(params, 30, rng)])
    ds = CompositionDataset.from_arrays(
        x, ["a"] * 30 + ["b"] * 30, components=("AQ1", "OQ", "AQ2", "TQ")
    )
    tree = params.tree.strip_alphas()
    cis = pairwise_mean_cis(ds, model="ndd", tree=tree)
    assert len(cis) == 4
    for ci in cis:
        assert ci.lower < ci.estimate < ci.upper
        # equal generators: zero difference should be covered most of the time
        assert ci.se > 0.0
    with pytest.raises(InputError):
        pairwise_mean_cis(ds, model="ndd")  # tree is required
    with pytest.raises(InputError):
        pairwise_mean_cis(ds, model="bogus")


def test_pairwise_mean_cis_level_controls_width():
    ds = _two_group_dataset(seed=53)
    narrow = pairwise_mean_cis(ds, level=0.80)
    wide = pairwise_mean_cis(ds, level=0.99)
    for lo, hi in zip(narrow, wide):
        assert (hi.upper - hi.lower) > (lo.upper - lo.lower)


def test_prec_derivs_match_central_differences_of_group_loglik():
    rng = np.random.default_rng(7)
    b, k = 12, 4
    pi = rng.dirichlet(np.full(k, 2.0), size=b)
    ml = np.log(rng.dirichlet(np.full(k, 3.0), size=(b, 9))).mean(axis=1)
    t = np.linspace(-1.0, 8.0, b)
    d1, d2 = inference._prec_derivs(pi, np.exp(t), ml)

    def f(tt):
        return inference._group_ll(pi, np.exp(tt), ml)

    h1, h2 = 1e-5, 1e-3
    num1 = (f(t + h1) - f(t - h1)) / (2.0 * h1)
    num2 = (f(t + h2) - 2.0 * f(t) + f(t - h2)) / (h2 * h2)
    assert np.max(np.abs(num1 - d1) / np.abs(d1)) < 1e-7
    assert np.max(np.abs(num2 - d2) / np.abs(d2)) < 1e-4
