"""Hypothesis tests, screening, and confidence intervals."""

import json
import pathlib

import numpy as np
import pytest
import scipy.optimize
import scipy.special
import scipy.stats as st

from simplexstats import dirichlet, inference, nested, simulate
from simplexstats.composition import CompositionDataset, SufficientStats, clr
from simplexstats.dirichlet import DirichletParams
from simplexstats.errors import (
    DegenerateDataError,
    DimensionMismatchError,
    InputError,
    NumericalError,
)
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
from simplexstats.numerics import chi_square_sf
from simplexstats.simulate import DirichletLRT, SimSpec


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


def test_stacked_ndd_batch_equals_per_node_batches_bitwise():
    # Root and N1 of ((a,b,c),(d,e),f) have three children and fit as one
    # stacked batch; N2 has two and fits alone. Each node's results must be
    # those of its own two-sample batch, whose alternatives in turn are the
    # two groups' separate fits.
    tree = parse_tree("((a,b,c),(d,e),f)")
    rng = np.random.default_rng(29)
    alpha = [2.0, 3.0, 1.5, 4.0, 0.8, 3.0]
    keys = nested._child_leaf_sets(tree)
    nodes1 = [s for s, _ in nested._node_stats(keys, rng.dirichlet(alpha, size=(40, 7)))]
    nodes2 = [s for s, _ in nested._node_stats(keys, rng.dirichlet(alpha, size=(40, 9)))]
    stacked = nested._fit_nodes(inference._two_sample_lrt_batch, nodes1, nodes2)
    assert [s.n_components for s in nodes1] == [3, 3, 2]
    for s1, s2, got in zip(nodes1, nodes2, stacked):
        want = inference._two_sample_lrt_batch(s1, s2)
        assert got.keys() == want.keys()
        for key in want:
            assert got[key].dtype == want[key].dtype
            assert got[key].shape == want[key].shape
            assert got[key].tobytes() == want[key].tobytes(), key
        fit1, fit2 = dirichlet._fit_batch(s1), dirichlet._fit_batch(s2)
        assert want["alt_alpha_1"].tobytes() == fit1[0].tobytes()
        assert want["alt_alpha_2"].tobytes() == fit2[0].tobytes()
        assert want["alt_loglik"].tobytes() == (fit1[1] + fit2[1]).tobytes()


def _mixed_carriers():
    # 23 datasets of two groups from concentrations 0.4 to 9, so rows stop
    # after very different iteration counts; dataset 5 of group 1 repeats
    # one composition, so its alternative fit is unusable.
    rng = np.random.default_rng(37)
    alphas = rng.choice([0.4, 1.5, 9.0], size=(23, 4))
    x1 = np.stack([rng.dirichlet(a, size=7) for a in alphas])
    x2 = np.stack([rng.dirichlet(a, size=9) for a in alphas])
    x1[5] = x1[5, 0]
    return SufficientStats.reduce(x1), SufficientStats.reduce(x2)


@pytest.mark.parametrize("block", [1, 7, 10_000])
def test_fixed_row_blocks_change_no_fit_bitwise(monkeypatch, block):
    # _ascend runs a batch in blocks of _BLOCK_ROWS rows; at the default
    # the 23 rows are one block.
    s1, s2 = _mixed_carriers()

    def fits():
        fit = dirichlet._fit_batch(s1)
        a1 = fit[0].sum(axis=1)
        null = inference._common_mean_fit(s1, s2, fit[0] / a1[:, None], a1, np.maximum(a1, 2.0))
        unif = inference._uniformity_null_batch(s2.mean_log, s2.n, np.maximum(a1, 1.0))
        return [*fit, *null, *unif]

    want = fits()
    monkeypatch.setattr(dirichlet, "_BLOCK_ROWS", block)
    got = fits()
    assert len(got) == 5 + 6 + 3
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


FIT_BATCH_PINS = pathlib.Path(__file__).parent / "data" / "fit_batch_max_iter.json"


@pytest.mark.parametrize("max_iter", [3, 15, 16, 17, 1000])
def test_fit_batch_matches_recorded_fits_at_each_max_iter(monkeypatch, max_iter):
    # The alternative fit runs its fixed-point warmup and then its Newton
    # steps as two ascents whose iteration counts add up. Against fits
    # recorded when both ran in one loop, no count and no converged flag
    # moves at caps inside the warmup, at its end and just past it, or at
    # the default; alpha agrees to rounding.
    pins = json.loads(FIT_BATCH_PINS.read_text())["fits"][str(max_iter)]
    stats = SufficientStats.concat([*_mixed_carriers(), *_alpha_005_rows(range(120, 130))])
    monkeypatch.setattr(dirichlet, "_MAX_ITER", max_iter)
    alpha, _, iterations, converged, _ = dirichlet._fit_batch(stats)
    assert iterations.tolist() == pins["iterations"]
    assert converged.astype(int).tolist() == pins["converged"]
    np.testing.assert_allclose(alpha, pins["alpha"], rtol=1e-12, atol=0.0)


def _null_oracle(s1, s2, res):
    # The best null log-likelihood scipy finds: Nelder-Mead from the fit's
    # start (pooled alternative means and precisions) and from a uniform
    # mean, then L-BFGS-B from the better of the two.
    k = s1.mean_log.shape[-1]

    def negative_null(x):
        logits = np.append(x[: k - 1], 0.0)
        pi = np.exp(logits - logits.max())
        pi = pi / pi.sum()
        return -sum(
            _loglik(np.exp(t) * pi, s.mean_log[0], s.n[0]) for t, s in zip(x[k - 1 :], (s1, s2))
        )

    a1, a2 = res["alt_alpha_1"][0], res["alt_alpha_2"][0]
    pooled = (s1.n[0] * a1 / a1.sum() + s2.n[0] * a2 / a2.sum()) / (s1.n[0] + s2.n[0])
    log_a = np.log([a1.sum(), a2.sum()])
    starts = (np.append(np.log(pooled[:-1] / pooled[-1]), log_a), np.append(np.zeros(k - 1), log_a))
    options = {"xatol": 1e-10, "fatol": 1e-12, "maxiter": 40000, "maxfev": 40000}
    best = min(
        (scipy.optimize.minimize(negative_null, x0, method="Nelder-Mead", options=options)
         for x0 in starts),
        key=lambda opt: opt.fun,
    )
    polished = scipy.optimize.minimize(negative_null, best.x, method="L-BFGS-B")
    return -min(best.fun, polished.fun)


def _alpha_005_rows(rows):
    # Replicates of the DirichletLRT cell alpha = (0.05,)*4, n = 3, seed 0,
    # drawn as the study draws them.
    gen = DirichletParams(alpha=(0.05,) * 4)
    spec = SimSpec(gen, gen, 3, DirichletLRT(), replicates=2000, master_seed=0)
    draws = [simulate._draw_stacks(spec, r, r + 1)[:2] for r in rows]
    x1, x2 = (np.concatenate(z) for z in zip(*draws))
    return SufficientStats.reduce(x1), SufficientStats.reduce(x2)


def _oracle_cases():
    # Rows 131 and 328 of the alpha = 0.05 cell, where block-coordinate
    # ascent stopped far below the null maximum, and 20 seeded small cases:
    # K = 3..5, n = 3..20 with unequal group sizes, unequal means.
    cases = [pytest.param(*_alpha_005_rows([r]), id=f"alpha-0.05-row-{r}") for r in (131, 328)]
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        k = int(rng.integers(3, 6))
        n1, n2 = rng.choice(np.arange(3, 21), size=2, replace=False)
        x1 = rng.dirichlet(rng.uniform(0.3, 12.0, size=k), size=(1, n1))
        x2 = rng.dirichlet(rng.uniform(0.3, 12.0, size=k), size=(1, n2))
        stats = SufficientStats.reduce(x1), SufficientStats.reduce(x2)
        cases.append(pytest.param(*stats, id=f"seed-{seed}"))
    return cases


@pytest.mark.parametrize("s1, s2", _oracle_cases())
def test_common_mean_null_reaches_the_scipy_optimum(s1, s2):
    res = inference._two_sample_lrt_batch(s1, s2)
    assert res["converged"][0]
    best = _null_oracle(s1, s2, res)
    ours = res["null_loglik"][0]
    assert ours >= best - 1.0e-6 * abs(best), (ours, best)


def _fd_hessian(f, x, h):
    # Central-difference Hessian, (B, d, d), of a per-row function of (B, d).
    eye = np.eye(x.shape[1])
    return np.stack([
        np.stack([
            (f(x + h * (ei + ej)) - f(x + h * (ei - ej)) - f(x - h * (ei - ej))
             + f(x - h * (ei + ej))) / (4.0 * h * h)
            for ej in eye
        ], axis=1)
        for ei in eye
    ], axis=1)


@pytest.mark.parametrize("alpha, seed", [((9.8, 6.1, 5.4, 5.9), 3), ((0.05,) * 4, 0)])
def test_common_mean_rows_converge_at_local_maxima(alpha, seed):
    # Every converged row of a DirichletLRT cell at n = 3 (2,000 replicates)
    # sits at a local maximum of the null objective: its finite-difference
    # Hessian in (theta, t1, t2) is negative definite. On the row-1 cell
    # block-coordinate ascent took up to 484 iterations, and the joint step
    # without its diagonal shift 292; with it, every row takes at most 25.
    gen = DirichletParams(alpha=alpha)
    spec = SimSpec(gen, gen, 3, DirichletLRT(), replicates=2000, master_seed=seed)
    s1, s2 = (SufficientStats.reduce(x) for x in simulate._draw_stacks(spec, 0, 2000)[:2])
    res = inference._two_sample_lrt_batch(s1, s2)
    assert res["iterations"].max() <= 25
    ok = res["converged"]
    assert ok.sum() >= 1999
    pi = res["null_mean"][ok]
    x = np.concatenate((
        np.log(pi[:, :-1] / pi[:, -1:]),
        np.log(np.stack((res["null_precision_1"][ok], res["null_precision_2"][ok]), axis=1)),
    ), axis=1)
    w = np.stack((s1.n[ok], s2.n[ok]))
    w = w / w.sum(axis=0)
    m = np.stack((s1.mean_log[ok], s2.mean_log[ok]))

    def f(xx):
        return inference._null_ll(xx, w, m)

    assert np.linalg.eigvalsh(_fd_hessian(f, x, 1e-4)).max() < 0.0


def test_common_mean_line_search_base_is_the_objective_at_its_point(monkeypatch):
    # Each line search of every fit, the alternative, the common-mean null
    # and the uniform-mean null, starts from the value carried over from the
    # row's last accepted trial; it must equal the objective evaluated
    # afresh at the same point, bit for bit.
    real = dirichlet._backtrack
    checked = {5: [], 4: [], 1: []}

    def checking(objective, x, step, base):
        assert objective(x).tobytes() == base.tobytes()
        # (theta, t1, t2) at K = 4, alpha for the alternative fits, or t alone.
        checked[x.shape[1]].append(base.size)
        return real(objective, x, step, base)

    monkeypatch.setattr(dirichlet, "_backtrack", checking)
    for s1, s2 in (_mixed_carriers(), _alpha_005_rows(range(120, 340))):
        inference._two_sample_lrt_batch(s1, s2)
        inference._uniformity_lrt_batch(s2)
    assert sum(checked[5]) > 500
    assert sum(checked[4]) > 500
    assert sum(checked[1]) > 500


def test_null_objective_scores_a_zero_precision_as_infeasible():
    # exp(-800) is 0, so group 1's concentrations are all 0: the row is
    # infeasible, and lgamma never sees the 0.
    x = np.array([[0.0, 0.0, 0.0, -800.0, 1.0]])
    w = np.full((2, 1), 0.5)
    m = np.full((2, 1, 4), np.log(0.25))
    assert inference._null_ll(x, w, m).tolist() == [-np.inf]


def test_two_sample_lrt_with_a_constant_column_raises_degenerate_at_any_cap(monkeypatch):
    # Group a's last column is constant at 1e-300. At max_iter = 17 its null
    # fit steps a log-precision to where the precision is 0; that must not
    # reach lgamma as a RuntimeWarning before the test reports the data.
    a = [[5.8168365014776733e-06, 4.1621665306606151e-11, 0.99999418312187682, 1e-300],
         [2.1641456992349373e-05, 9.9397890409894426e-19, 0.99997835854300765, 1e-300],
         [0.016421246102677641, 5.0766549632580291e-08, 0.98357870313077278, 1e-300]]
    b = [[0.99999961672581739, 4.4006431521256861e-28, 2.2993829059796139e-09, 3.8097479970776685e-07],
         [0.99948388877055394, 3.6193091331537094e-27, 1.0153665529989982e-10, 5.1611112790940375e-04],
         [0.73116691668595379, 2.2910613321678531e-04, 1.8176560062071172e-03, 0.26678632117462225]]
    ds = CompositionDataset.from_arrays(np.array(a + b), ["a"] * 3 + ["b"] * 3)
    for max_iter in (16, 17, 1000):
        monkeypatch.setattr(dirichlet, "_MAX_ITER", max_iter)
        with pytest.raises(DegenerateDataError):
            two_sample_dirichlet_lrt(ds)


def test_common_mean_row_pinned_at_the_cap_stops_unconverged():
    # Dataset 5 of group 1 repeats one composition, so its null precision
    # runs to _T_CAP; the row stops there, unconverged, instead of creeping
    # on to max_iter, and the other rows converge.
    s1, s2 = _mixed_carriers()
    res = inference._two_sample_lrt_batch(s1, s2)
    assert res["null_precision_1"][5] == np.exp(dirichlet._T_CAP)
    assert not res["converged"][5] and res["iterations"][5] < 50
    assert res["converged"][np.arange(23) != 5].all()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_positive_definite_elimination_solves_and_tests_each_row_alone():
    # A stack of positive definite, indefinite and all-zero matrices. The
    # positive definite rows match np.linalg.solve; the others read not-ok,
    # whether their elimination fails at the first pivot or a later one; and
    # every row is the one it gets when solved alone, bit for bit.
    rng = np.random.default_rng(31)
    d = 4
    g = rng.normal(size=(10, d, d))
    m = g @ g.transpose(0, 2, 1) + np.eye(d)
    q = np.linalg.qr(rng.normal(size=(d, d)))[0]
    m[1] = q @ np.diag([2.0, 1.0, -0.5, 3.0]) @ q.T
    m[4] = np.diag([1.0, 2.0, 3.0, -1.0e-9])
    m[6] = -m[6]
    m[[2, 7]] = 0.0
    rhs = rng.normal(size=(10, d))
    x, ok = inference._solve_positive_definite(m, rhs)
    pd = np.linalg.eigvalsh(m).min(axis=1) > 0.0
    assert ok.tolist() == pd.tolist() == [i not in (1, 2, 4, 6, 7) for i in range(10)]
    want = np.linalg.solve(m[pd], rhs[pd][..., None])[..., 0]
    assert (np.abs(x[pd] - want).max(axis=1) <= 1e-12 * np.abs(want).max(axis=1)).all()
    for i in range(10):
        alone, ok_alone = inference._solve_positive_definite(m[i : i + 1], rhs[i : i + 1])
        assert alone.tobytes() == x[i : i + 1].tobytes()
        assert ok_alone[0] == ok[i]


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
    # in the precision, so the row has to stop at the cap, unconverged, and
    # leave its neighbour's fit as it is alone.
    for k in (2, 3, 4, 6):
        alpha = (6.0, 4.0, 3.0, 5.0, 2.0, 7.0)[:k]
        ml = np.log(np.random.default_rng(43).dirichlet(alpha, size=8)).mean(axis=0)
        centre = np.full(k, np.log(1.0 / k))
        alone = inference._uniformity_null_batch(ml[None], np.array([8.0]), np.array([10.0]))
        a, ll, converged = inference._uniformity_null_batch(
            np.stack([ml, centre]), np.array([8.0, 8.0]), np.array([10.0, 10.0])
        )
        assert np.isfinite(a[1]) and a[1] <= np.exp(dirichlet._T_CAP)
        assert np.isfinite(ll[1])
        assert not converged[1], k
        assert alone[2][0] and converged[0]
        for one, pair in zip(alone, (a, ll, converged)):
            assert one[0].tobytes() == pair[0].tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_uniformity_null_centre_rows_are_unconverged_from_every_start():
    # A centre row's likelihood rises in the precision up to the cap, flat
    # to rounding long before it, so wherever its steps stop they must not
    # read as a maximum.
    starts = np.array([1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 20.0, 30.0, 100.0, 1e3, 1e5])
    for k in (2, 3, 4, 6):
        centre = np.full((starts.size, k), np.log(1.0 / k))
        _, _, converged = inference._uniformity_null_batch(
            centre, np.full(starts.size, 8.0), starts
        )
        assert not converged.any(), (k, starts[converged])


@pytest.mark.parametrize(
    "alpha, n, small", [((0.2, 0.2, 0.2), 10, True), ((6.0, 4.0, 3.0, 5.0), 9, False)]
)
def test_uniformity_test_equals_its_row_of_the_batch_path(alpha, n, small):
    x = np.random.default_rng(47).dirichlet(alpha, size=n)
    # The one-dataset carrier gives the batch's (1,) results.
    res = inference._uniformity_lrt_batch(SufficientStats.from_matrix(x))
    assert (res["alt_alpha"][0].sum() < 1.0) == small
    tr = one_sample_uniformity_test(x)
    lam = res["statistic"][0]
    assert repr(tr.statistic) == repr(float(lam))
    assert repr(tr.p_value) == repr(chi_square_sf(float(lam), len(alpha) - 1))
    assert tr.converged is bool(res["converged"][0]) is True
    assert tr.details == {
        "alternative_alpha": res["alt_alpha"][0].tolist(),
        "null_precision": float(res["null_precision"][0]),
        "log_likelihood_null": float(res["null_loglik"][0]),
        "log_likelihood_alt": float(res["alt_loglik"][0]),
    }


def test_uniformity_test_reports_nonconvergence(monkeypatch):
    x = np.random.default_rng(53).dirichlet([6.0, 4.0, 3.0, 5.0], size=9)
    with monkeypatch.context() as m:
        m.setattr(dirichlet, "_MAX_ITER", 3)
        tr = one_sample_uniformity_test(x)
    assert tr.converged is False
    assert tr.statistic >= 0.0
    assert one_sample_uniformity_test(x).converged is True


def test_uniformity_test_rejects_unusable_data():
    x = np.random.default_rng(59).dirichlet([6.0, 4.0, 3.0], size=6)
    with pytest.raises(DegenerateDataError):
        one_sample_uniformity_test(x[:1])
    with pytest.raises(DegenerateDataError):
        one_sample_uniformity_test(np.repeat(x[:1], 6, axis=0))


@pytest.mark.parametrize("replicates", [0, -5, True, 2.5, 500.0])
def test_calibration_needs_at_least_one_replicate(replicates, monkeypatch):
    # 2.5 used to fail with a bare TypeError in the uniformity test and to
    # run 2 draws in the cutoff; True ran a one-draw calibration. Every entry
    # point refuses the count before it fits anything.
    x = np.random.default_rng(29).dirichlet([9.0, 6.0, 6.0, 6.0], size=7)
    ds = CompositionDataset.from_arrays(np.vstack([x, x[::-1]]), ["a"] * 7 + ["b"] * 7)

    def no_fit(*args):
        raise AssertionError("fitted before checking the calibration count")

    monkeypatch.setattr(dirichlet, "_fit_batch", no_fit)
    with pytest.raises(InputError, match="at least 1"):
        one_sample_uniformity_test(x, calibration_replicates=replicates)
    with pytest.raises(InputError, match="at least 1"):
        maugard_procedure(ds, calibration_replicates=replicates)
    with pytest.raises(InputError, match="at least 1"):
        calibrated_uniformity_cutoff(7, 4, replicates=replicates)


def test_calibration_refuses_a_sample_with_half_the_fits_failed(monkeypatch):
    # At one replicate the reference sample must not come back empty.
    batch = inference._uniformity_lrt_batch

    def unconverged(stats):
        res = batch(stats)
        res["converged"] = np.zeros_like(res["converged"])
        return res

    monkeypatch.setattr(inference, "_uniformity_lrt_batch", unconverged)
    with pytest.raises(NumericalError, match="fewer than half"):
        inference._null_lrt_sample(7, 4, 1, 13)
    assert (7, 4, 1, 13) not in inference._NULL_LRT_CACHE


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


@pytest.mark.parametrize(
    "n_obs,k", [(0, 4), (1, 4), (True, 4), (7.5, 4), (7, 1), (7, 4.0), (7, False)]
)
def test_calibrated_cutoff_refuses_a_shape_before_drawing(monkeypatch, n_obs, k):
    # n_obs = 0 divided by zero sizing the chunks, k = 1 warned in a divide,
    # n_obs = 1 or True failed the fits, and n_obs = 7.5 read as 7.
    def no_draw(*args):
        raise AssertionError("drew a reference sample before checking its shape")

    monkeypatch.setattr(inference, "_null_lrt_sample", no_draw)
    with pytest.raises(InputError, match="integer of at least 2"):
        calibrated_uniformity_cutoff(n_obs, k, replicates=100)


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
    res = maugard_procedure(ds, calibration_replicates=None)
    rejs = sum(1 for tr in res.reports if tr.p_value < 0.05)
    expected = {0: "FailBoth", 1: "RejectOne", 2: "RejectBoth"}[rejs]
    assert res.verdict == expected
    for tr in res.reports:
        assert "calibrated_p_value" not in tr.details


def test_calibration_cache_holds_one_sample_per_shape_count_and_seed(monkeypatch):
    # The cache is flat: the first call simulates and stores the sorted
    # sample under (n, K, replicates, seed); the second reads it back.
    monkeypatch.setattr(inference, "_NULL_LRT_CACHE", {})
    first = calibrated_uniformity_cutoff(7, 4, replicates=300)
    key = (7, 4, 300, inference._CALIBRATION_SEED)
    assert list(inference._NULL_LRT_CACHE) == [key]
    sample = inference._NULL_LRT_CACHE[key]
    assert isinstance(sample, np.ndarray) and (np.diff(sample) >= 0.0).all()
    assert calibrated_uniformity_cutoff(7, 4, replicates=300) == first
    assert inference._null_lrt_sample(*key) is sample


@pytest.mark.parametrize("k", [2, 4, 6])
def test_calibration_sample_drawn_in_chunks_equals_one_draw(monkeypatch, k):
    samples = []
    for rows in (250, 100):  # one draw, then 100 + 100 + 50 replicates
        monkeypatch.setattr(inference, "_NULL_LRT_CACHE", {})
        monkeypatch.setattr(inference, "_CHUNK_DRAWS", rows * 7 * k)
        assert inference._chunk_rows(7, k) == rows
        samples.append(inference._null_lrt_sample(7, k, 250, 19))
    assert np.array_equal(samples[1], samples[0])


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
    cis = pairwise_mean_cis(ds, tree=tree)
    assert len(cis) == 4
    for ci in cis:
        assert ci.lower < ci.estimate < ci.upper
        # equal generators: zero difference should be covered most of the time
        assert ci.se > 0.0


def test_pairwise_mean_cis_level_controls_width():
    ds = _two_group_dataset(seed=53)
    narrow = pairwise_mean_cis(ds, level=0.80)
    wide = pairwise_mean_cis(ds, level=0.99)
    for lo, hi in zip(narrow, wide):
        assert (hi.upper - hi.lower) > (lo.upper - lo.lower)


def test_null_newton_matches_central_differences_of_the_null_objective():
    # The gradient against central differences of _null_ll in (theta, t1,
    # t2), and, where the negative Hessian is positive definite and no t
    # moves by more than 10, the direction against the Newton step on the
    # finite-difference Hessian. Where it is indefinite, the direction must
    # be another (shifted) one; every direction must ascend.
    rng = np.random.default_rng(11)
    b, k = 60, 4
    x = np.concatenate((rng.normal(0.0, 0.7, (b, k - 1)), rng.uniform(-1.0, 5.0, (b, 2))), axis=1)
    m = np.log(rng.dirichlet(np.full(k, 3.0), size=(2, b, 8))).mean(axis=2)
    w = rng.uniform(0.2, 0.8, b)
    w = np.stack((w, 1.0 - w))
    grad, direction = inference._null_newton(
        inference._softmax_pinned(x[:, : k - 1]), np.exp(x[:, k - 1 :]).T, w, m
    )

    def f(xx):
        return inference._null_ll(xx, w, m)

    h = 1e-5
    num_g = np.stack([(f(x + h * e) - f(x - h * e)) / (2.0 * h) for e in np.eye(k + 1)], axis=1)
    num_h = _fd_hessian(f, x, 1e-3)
    assert np.allclose(grad, num_g, rtol=1e-6, atol=1e-8)
    newton = np.linalg.solve(-num_h, num_g[..., None])[..., 0]
    low = np.linalg.eigvalsh(-num_h).min(axis=1)
    rows = (low > 1e-3) & (np.abs(newton[:, k - 1 :]).max(axis=1) < 10.0)
    assert rows.sum() >= b // 4 and (low < -1e-3).sum() >= b // 4
    err = np.linalg.norm(direction - newton, axis=1) / np.linalg.norm(newton, axis=1)
    assert err[rows].max() < 1e-4
    assert err[low < -1e-3].min() > 1e-2
    assert ((direction * grad).sum(axis=1) > 0.0).all()


def test_prec_derivs_match_central_differences_of_group_loglik():
    rng = np.random.default_rng(7)
    b, k = 12, 4
    pi = rng.dirichlet(np.full(k, 2.0), size=b)
    ml = np.log(rng.dirichlet(np.full(k, 3.0), size=(b, 9))).mean(axis=1)
    t = np.linspace(-1.0, 8.0, b)
    d1, d2 = inference._prec_derivs(pi, np.exp(t), ml)

    def f(tt):
        a = np.exp(tt)
        return dirichlet._per_obs_loglik(a[:, None] * pi, ml, a)

    h1, h2 = 1e-5, 1e-3
    num1 = (f(t + h1) - f(t - h1)) / (2.0 * h1)
    num2 = (f(t + h2) - 2.0 * f(t) + f(t - h2)) / (h2 * h2)
    assert np.max(np.abs(num1 - d1) / np.abs(d1)) < 1e-7
    assert np.max(np.abs(num2 - d2) / np.abs(d2)) < 1e-4
