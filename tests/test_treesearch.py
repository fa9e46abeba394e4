"""Tree enumeration, correlation screening, and model selection."""

import functools
import importlib.resources
import itertools

import numpy as np
import pytest

from simplexstats import dirichlet, nested, treesearch
from simplexstats.composition import CompositionDataset, SufficientStats, sample_correlation
from simplexstats.errors import (
    DimensionMismatchError,
    InputError,
    NotNormalizedError,
    NumericalError,
    ZeroComponentError,
)
from simplexstats.nested import NddParams, parse_tree
from simplexstats.report import parse_csv
from simplexstats.treesearch import (
    enumerate_trees,
    filter_impossible,
    search,
    select_tree,
)

# Pooled sample correlations of the four maze quadrants, order TQ, AQ1, OQ,
# AQ2. The single positive entry is the (AQ1, OQ) pair.
QUADRANT_CORR = np.array(
    [
        [1.00, -0.66, -0.51, -0.32],
        [-0.66, 1.00, 0.15, -0.25],
        [-0.51, 0.15, 1.00, -0.27],
        [-0.32, -0.25, -0.27, 1.00],
    ]
)
QUADRANTS = ("TQ", "AQ1", "OQ", "AQ2")


def _brute_force_shapes(k: int) -> set:
    """Independent enumeration through restricted-growth set partitions."""

    def partitions(items):
        if len(items) == 1:
            yield [items]
            return
        first, rest = items[0], items[1:]
        for smaller in partitions(rest):
            for i in range(len(smaller)):
                yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1 :]
            yield [[first]] + smaller

    def shapes(leaves):
        if len(leaves) == 1:
            yield str(leaves[0])
            return
        for part in partitions(list(leaves)):
            if len(part) == 1:
                continue
            for combo in itertools.product(*(shapes(tuple(b)) for b in part)):
                yield "(" + ",".join(sorted(combo, key=_block_key)) + ")"

    def _block_key(rendered):
        digits = [int(c) for c in rendered if c.isdigit()]
        return min(digits)

    return set(shapes(tuple(range(k))))


@functools.lru_cache(maxsize=None)
def _enumerated(k: int, components: tuple[str, ...] | None = None):
    return enumerate_trees(k, components)


@pytest.fixture(scope="module", autouse=True)
def _drop_enumerations():
    # The K = 7 list holds about 40 MB; free it when this module is done.
    yield
    _enumerated.cache_clear()


@pytest.mark.parametrize(
    "k,count", [(2, 1), (3, 4), (4, 26), (5, 236), (6, 2752), (7, 39208)]
)
def test_enumeration_counts(k, count):
    cands = _enumerated(k)
    assert len(cands) == count
    renders = [c.tree.render(include_alphas=False) for c in cands]
    assert len(set(renders)) == count
    # The text enumeration sorts on and hands on is the text render_tree
    # builds, and every root is built canonical, not rebuilt.
    assert renders == [nested.render_tree(c.tree, include_alphas=False) for c in cands]
    assert renders == sorted(renders)
    assert all(nested._canonical(c.tree.root) is c.tree.root for c in cands)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_enumeration_matches_brute_force_shapes(k):
    ours = set()
    for cand in enumerate_trees(k):
        text = cand.tree.render(include_alphas=False)
        for j in range(k):
            text = text.replace(f"c{j + 1}", str(j))
        ours.add(text)
    assert ours == _brute_force_shapes(k)


def test_enumeration_includes_flat_tree_and_respects_names():
    cands = enumerate_trees(3, components=("x", "y", "z"))
    renders = [c.tree.render(include_alphas=False) for c in cands]
    assert "(x,y,z)" in renders
    assert renders == sorted(renders)


def test_enumeration_guards():
    with pytest.raises(InputError):
        enumerate_trees(1)
    with pytest.raises(InputError):
        enumerate_trees(treesearch.MAX_COMPONENTS + 1)
    with pytest.raises(InputError):
        enumerate_trees(3, components=("a", "b"))


def test_filter_rejects_cherry_with_sign_conflict():
    # TQ and AQ1 cannot share a node: OQ correlates negatively with TQ but
    # positively with AQ1.
    cands = enumerate_trees(4, components=QUADRANTS)
    flagged = filter_impossible(cands, QUADRANT_CORR)
    by_render = {c.tree.render(include_alphas=False): c for c in flagged}
    cherry = by_render["((TQ,AQ1),OQ,AQ2)"]
    assert cherry.filtered
    assert cherry.witness is not None
    pair_names = set(cherry.witness[1])
    assert pair_names == {"TQ", "AQ1"}
    assert cherry.witness[2] == "OQ"
    assert "OQ" in cherry.filter_reason


def test_filter_keeps_compatible_trees():
    cands = enumerate_trees(4, components=QUADRANTS)
    flagged = filter_impossible(cands, QUADRANT_CORR)
    by_render = {c.tree.render(include_alphas=False): c for c in flagged}
    assert not by_render["(TQ,AQ1,OQ,AQ2)"].filtered
    assert not by_render["((TQ,AQ2),(AQ1,OQ))"].filtered
    survivors = [c for c in flagged if not c.filtered]
    assert 0 < len(survivors) < len(flagged)


def test_filter_treats_zero_correlation_as_compatible():
    corr = np.eye(3)
    cands = enumerate_trees(3)
    flagged = filter_impossible(cands, corr)
    assert not any(c.filtered for c in flagged)


def test_filter_validates_matrix():
    cands = enumerate_trees(3)
    with pytest.raises(InputError):
        filter_impossible(cands, np.eye(4))
    bad = np.eye(3)
    bad[0, 1] = 0.5
    with pytest.raises(InputError):
        filter_impossible(cands, bad)
    huge = np.eye(3)
    huge[0, 1] = huge[1, 0] = 1.5
    with pytest.raises(InputError):
        filter_impossible(cands, huge)


def _reference_screen(candidates, corr):
    """The per-tree loop filter_impossible replaces: each candidate's
    internal nodes walked recursively, their leaf sets recomputed, and the
    pair x outside-leaf check re-run. Returns (filtered, filter_reason,
    witness) per candidate."""

    def leaves(node):
        if node.is_leaf:
            return [node.component]
        return [j for c in node.children for j in leaves(c)]

    def internal(node, out):
        out.append((f"N{len(out)}" if out else "root", node))
        for c in node.children:
            if not c.is_leaf:
                internal(c, out)
        return out

    k = candidates[0].tree.n_components
    rows = []
    for cand in candidates:
        tree = cand.tree
        hit = None
        for label, node in internal(tree.root, []):
            inside = sorted(leaves(node))
            outside = sorted(set(range(k)) - set(inside))
            if not outside:
                continue
            for u, v in itertools.combinations(inside, 2):
                for w in outside:
                    if corr[w, u] * corr[w, v] < 0.0:
                        hit = (label, (u, v), w)
                        break
                if hit:
                    break
            if hit:
                break
        if hit is None:
            rows.append((False, "", None))
            continue
        label, (u, v), w = hit
        name = tree.component_name
        reason = (
            f"corr({name(w)},{name(u)}) = {corr[w, u]:+.3f} and "
            f"corr({name(w)},{name(v)}) = {corr[w, v]:+.3f} disagree in "
            f"sign, but {name(u)} and {name(v)} are nested together "
            f"under {label}"
        )
        rows.append((True, reason, (label, (name(u), name(v)), name(w))))
    return rows


def _screen_matrices(k, seed):
    """Correlation matrices with random signs, with one leaf against all
    others, with exact zeros, and the identity."""
    rng = np.random.default_rng(seed)
    noisy = np.corrcoef(rng.standard_normal((k, k + 2)))
    one_out = np.abs(np.corrcoef(rng.standard_normal((k, 40))))
    one_out[0, 1:] *= -1.0
    one_out[1:, 0] *= -1.0
    zeros = noisy.copy()
    for i, j in ((0, 1), (1, 2), (0, k - 1)):
        zeros[i, j] = zeros[j, i] = 0.0
    mats = [noisy, one_out, zeros, np.eye(k)]
    for m in mats:
        np.fill_diagonal(m, 1.0)
    return mats


@pytest.mark.parametrize("k,seeds", [(4, (1, 2, 3)), (5, (4, 5, 6)), (6, (7, 8)), (7, (9,))])
def test_filter_matches_per_tree_screen(k, seeds):
    cands = _enumerated(k, tuple("pqrstu"[:k]) if k < 7 else None)
    if k == 4:
        # Candidates bound to other names and positional ones, in one list.
        cands = cands + _enumerated(4) + _enumerated(4, ("w", "x", "y", "z"))
    seen_filtered = seen_kept = False
    for seed in seeds:
        mats = _screen_matrices(k, seed)
        # 39,208 candidates: the reference loop takes about a second each.
        for corr in mats if k < 7 else mats[1:3]:
            flagged = filter_impossible(cands, corr)
            got = [(c.filtered, c.filter_reason, c.witness) for c in flagged]
            assert got == _reference_screen(cands, corr)
            assert [c.tree for c in flagged] == [c.tree for c in cands]
            seen_filtered |= any(row[0] for row in got)
            seen_kept |= not all(row[0] for row in got[1:])
    assert seen_filtered and seen_kept


def test_filter_keeps_fitted_fields_of_flagged_candidates():
    cands = [
        treesearch.TreeCandidate(tree=c.tree, log_likelihood=1.5)
        for c in enumerate_trees(4, components=QUADRANTS)
    ]
    flagged = filter_impossible(cands, QUADRANT_CORR)
    assert any(c.filtered for c in flagged)
    assert all(c.log_likelihood == 1.5 for c in flagged)


def _edges(tree):
    return sum(len(node.children) for _, node in tree.internal_nodes())


def test_child_leaf_sets_key_each_node_and_count_edges():
    for cand in enumerate_trees(5):
        keys = nested._child_leaf_sets(cand.tree)
        assert keys == tuple(
            tuple(c.leaf_indices() for c in node.children)
            for _, node in cand.tree.internal_nodes()
        )
        assert sum(map(len, keys)) == _edges(cand.tree)


def test_select_tree_ranks_by_log_likelihood():
    params = NddParams(
        tree=parse_tree("((AQ1:11.6,OQ:10.3):8.1,(AQ2:5.6,TQ:9.2):11.2)")
    )
    x = nested.sample(params, 1000, np.random.default_rng(7))
    cands = enumerate_trees(4, components=("AQ1", "OQ", "AQ2", "TQ"))
    best, ranking = select_tree(x, cands)
    assert best.tree.is_same_shape(params.tree)
    logliks = [c.log_likelihood for c in ranking if c.log_likelihood is not None]
    assert logliks == sorted(logliks, reverse=True)
    assert ranking[0].tree.is_same_shape(params.tree)


def test_select_tree_aic_penalizes_extra_edges():
    # Data truly flat: the flat tree has K parameters, nested shapes more, so
    # AIC must prefer flat even though nesting can only raise the likelihood.
    rng = np.random.default_rng(11)
    x = rng.dirichlet([5.0, 4.0, 3.0], size=400)
    cands = enumerate_trees(3)
    best_aic, ranking = select_tree(x, cands, criterion="aic")
    assert best_aic.tree.is_flat
    scores = [
        2.0 * _edges(c.tree) - 2.0 * c.log_likelihood
        for c in ranking
        if c.log_likelihood is not None
    ]
    assert scores == sorted(scores)


def test_select_tree_rejects_bad_inputs():
    cands = enumerate_trees(3)
    rng = np.random.default_rng(13)
    x = rng.dirichlet([2.0, 2.0, 2.0], size=10)
    with pytest.raises(InputError):
        select_tree(x, cands, criterion="bic")
    all_filtered = [
        treesearch.TreeCandidate(tree=c.tree, filtered=True, filter_reason="test")
        for c in cands
    ]
    with pytest.raises(InputError):
        select_tree(x, all_filtered)


def test_search_end_to_end_recovers_generating_tree():
    params = NddParams(
        tree=parse_tree("((AQ1:11.6,OQ:10.3):8.1,(AQ2:5.6,TQ:9.2):11.2)")
    )
    x = nested.sample(params, 1000, np.random.default_rng(17))
    ds = CompositionDataset.from_arrays(
        x, ["g"] * 1000, components=("AQ1", "OQ", "AQ2", "TQ")
    )
    best, ranking = search(ds)
    assert best.tree.is_same_shape(params.tree)
    assert len(ranking) == 26
    # screened-out shapes sit at the very end of the ranking
    filtered_flags = [c.filtered for c in ranking]
    first_filtered = filtered_flags.index(True) if True in filtered_flags else len(ranking)
    assert all(filtered_flags[first_filtered:])


def test_filtered_candidates_read_unconverged():
    # The screen's rejects are never fitted, so they have no log-likelihood.
    fixture = importlib.resources.files("simplexstats") / "data" / "synthetic_navigation.csv"
    _, ranking = search(parse_csv(str(fixture)))
    filtered = [c for c in ranking if c.filtered]
    assert filtered
    for cand in filtered:
        assert cand.log_likelihood is None
    for cand in ranking[: len(ranking) - len(filtered)]:
        assert cand.log_likelihood is not None


def _reference_fits(x, candidates):
    """Per-tree nested.mle of every survivor, in enumeration order: the
    loop that select_tree's shared node fits replace."""
    fits = []
    for cand in candidates:
        if cand.filtered:
            continue
        try:
            fits.append((cand, nested.mle(cand.tree, x)))
        except (NumericalError, InputError):
            fits.append((cand, None))
    return fits


def _reference_ranking(fits, criterion):
    scored = []
    for order, (cand, fit) in enumerate(fits):
        if fit is None:
            scored.append((np.inf, order, cand, None))
            continue
        ll = fit.log_likelihood
        score = -ll if criterion == "loglik" else 2.0 * _edges(cand.tree) - 2.0 * ll
        scored.append((score, order, cand, ll))
    scored.sort(key=lambda item: item[:2])
    return scored


def _assert_matches_reference(x, candidates, fits, criterion):
    best, ranking = select_tree(x, candidates, criterion=criterion)
    ref = _reference_ranking(fits, criterion)
    assert [c.tree for c in ranking] == [r[2].tree for r in ref]
    for cand, (_, _, _, ll) in zip(ranking, ref):
        if ll is None:
            assert cand.log_likelihood is None
        else:
            assert cand.log_likelihood == pytest.approx(ll, rel=1e-12, abs=0.0)
    assert best == nested.mle(ranking[0].tree, x).params
    return ranking


def _nested_sample(text, n, seed):
    tree = parse_tree(text)
    return tree, nested.sample(NddParams(tree=tree), n, np.random.default_rng(seed))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("criterion", ["loglik", "aic"])
def test_select_tree_matches_per_tree_fits_k4(criterion):
    tree, x = _nested_sample("((AQ1:11.6,OQ:10.3):8.1,(AQ2:5.6,TQ:9.2):11.2)", 300, 5)
    cands = enumerate_trees(4, components=tree.leaf_names)
    _assert_matches_reference(x, cands, _reference_fits(x, cands), criterion)


@pytest.fixture(scope="module")
def k5_screened():
    tree, x = _nested_sample("((a:3.0,b:4.0):5.0,(c:2.0,d:6.0,e:3.0):4.0)", 150, 9)
    ds = CompositionDataset.from_arrays(x, ["g"] * len(x), components=tree.leaf_names)
    cands = filter_impossible(enumerate_trees(5, tree.leaf_names), sample_correlation(ds))
    return x, cands, _reference_fits(x, cands)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("criterion", ["loglik", "aic"])
def test_select_tree_matches_per_tree_fits_k5(k5_screened, criterion):
    x, cands, fits = k5_screened
    assert sum(not c.filtered for c in cands) > 26
    _assert_matches_reference(x, cands, fits, criterion)


@pytest.mark.filterwarnings("error")
def test_select_tree_fails_exactly_the_trees_with_a_failed_node():
    # Columns 1 and 2 keep a fixed 1:2 ratio, so the node splitting c1 from
    # c2 alone sees a constant branch composition and cannot be fitted.
    rng = np.random.default_rng(23)
    y = rng.dirichlet([4.0, 3.0, 5.0, 2.0], size=80)
    x = np.column_stack([y[:, 0] / 3.0, 2.0 * y[:, 0] / 3.0, y[:, 1:]])
    cands = enumerate_trees(5)
    ranking = _assert_matches_reference(x, cands, _reference_fits(x, cands), "loglik")
    failed = [c for c in ranking if c.log_likelihood is None]
    assert len(failed) == 26
    assert ranking[-26:] == failed
    order = [c.tree for c in cands]
    assert [order.index(c.tree) for c in failed] == sorted(order.index(c.tree) for c in failed)
    for cand in failed:
        assert any(
            [ch.leaf_indices() for ch in node.children] == [(0,), (1,)]
            for _, node in cand.tree.internal_nodes()
        )


def _fixed_ratio_sample():
    # c1:c2 is fixed at 1:2, so the node holding c1 and c2 alone cannot fit.
    y = np.random.default_rng(31).dirichlet([3.0, 4.0, 5.0], size=40)
    s = y[:, 0] + y[:, 1]
    return np.column_stack([s / 3.0, 2.0 * s / 3.0, y[:, 2]])


@pytest.mark.filterwarnings("error")
def test_select_tree_marks_failed_candidates_unconverged():
    _, ranking = select_tree(_fixed_ratio_sample(), enumerate_trees(3))
    failed = ranking[-1]
    assert failed.tree.render() == "((c1,c2),c3)"
    assert failed.log_likelihood is None
    for cand in ranking[:-1]:
        assert cand.log_likelihood is not None


@pytest.mark.filterwarnings("error")
def test_select_tree_clears_the_log_likelihood_a_failed_candidate_came_in_with():
    # A ranking from other data carries a log-likelihood on every candidate;
    # a tree that fails on the new data must not keep its old value.
    _, first = select_tree(np.random.default_rng(5).dirichlet([3.0, 4.0, 5.0], 40), enumerate_trees(3))
    assert all(c.log_likelihood is not None for c in first)
    _, ranking = select_tree(_fixed_ratio_sample(), first)
    failed = ranking[-1]
    assert failed.tree.render() == "((c1,c2),c3)"
    assert failed.log_likelihood is None


def test_select_tree_fits_each_distinct_node_once(monkeypatch):
    tree, x = _nested_sample("((a:3.0,b:4.0):5.0,(c:2.0,d:6.0,e:3.0):4.0)", 150, 9)
    cands = enumerate_trees(5, tree.leaf_names)
    keys = {
        tuple(c.leaf_indices() for c in node.children)
        for cand in cands
        for _, node in cand.tree.internal_nodes()
    }
    rows = []
    fit_batch = dirichlet._fit_batch

    def counting(stats):
        rows.append(np.atleast_2d(stats.mean_log).shape[0])
        return fit_batch(stats)

    monkeypatch.setattr(dirichlet, "_fit_batch", counting)
    best, _ = select_tree(x, cands)
    child_counts = {len(key) for key in keys}
    winner_nodes = len(best.tree.internal_nodes())
    assert len(rows) == len(child_counts) + winner_nodes
    assert sum(rows[: len(child_counts)]) == len(keys)
    assert rows[len(child_counts):] == [1] * winner_nodes


@pytest.mark.filterwarnings("error")
def test_node_terms_equal_each_node_fitted_alone():
    # The shared batch fits nodes of 2, 3 and 4 children, each child count
    # as one stack; each node's term must be the one its own one-row fit
    # gives. c1:c2 is fixed at 1:2, so the node splitting c1 from c2 alone
    # sees a constant branch composition and reads None.
    y = np.random.default_rng(53).dirichlet([4.0, 3.0, 5.0, 2.0], size=60)
    x = np.column_stack([y[:, 0] / 3.0, 2.0 * y[:, 0] / 3.0, y[:, 1:]])
    trees = {c.tree.render(): c.tree for c in enumerate_trees(5)}
    texts = ["((c1,c2),c3,c4,c5)", "((c1,c3,c4),(c2,c5))", "((c1,c5),(c2,c3,c4))", "(c1,(c2,c3,c4,c5))"]
    keys = {key for text in texts for key in nested._child_leaf_sets(trees[text])}
    assert sorted(len(key) for key in keys) == [2] * 6 + [3, 3, 4, 4]
    terms = treesearch._node_terms(keys, x)
    assert terms.keys() == keys
    for key in keys:
        block, mass = nested._branch_blocks(key, x)
        _, loglik, _, converged, usable = dirichlet._fit_batch(SufficientStats.reduce(block))
        if key == ((0,), (1,)):
            assert not usable[0]
            assert terms[key] is None
            continue
        assert usable[0] and converged[0]
        want = nested._node_term(loglik[0], len(key), mass)
        assert np.float64(terms[key]).tobytes() == want.tobytes(), key


def test_select_tree_reports_bad_input():
    cands = enumerate_trees(3)
    x = np.random.default_rng(29).dirichlet([2.0, 3.0, 4.0], size=12)
    zero = x.copy()
    zero[4] = [0.0, 0.4, 0.6]
    with pytest.raises(ZeroComponentError) as info:
        select_tree(zero, cands)
    assert info.value.row == 4
    off = x.copy()
    off[7] *= 1.1
    with pytest.raises(NotNormalizedError):
        select_tree(off, cands)
    with pytest.raises(DimensionMismatchError):
        select_tree(x, enumerate_trees(4))
