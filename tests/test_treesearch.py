"""Tree enumeration, correlation screening, and model selection."""

import itertools

import numpy as np
import pytest

from simplexstats import dirichlet, nested, treesearch
from simplexstats.composition import CompositionDataset, sample_correlation
from simplexstats.errors import (
    DimensionMismatchError,
    InputError,
    NotNormalizedError,
    NumericalError,
    ZeroComponentError,
)
from simplexstats.nested import NddParams, parse_tree
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


@pytest.mark.parametrize("k,count", [(2, 1), (3, 4), (4, 26), (5, 236), (6, 2752)])
def test_enumeration_counts(k, count):
    cands = enumerate_trees(k)
    assert len(cands) == count
    renders = {c.tree.render(include_alphas=False) for c in cands}
    assert len(renders) == count


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
            scored.append((np.inf, order, cand, None, cand.converged))
            continue
        ll = fit.log_likelihood
        score = -ll if criterion == "loglik" else 2.0 * _edges(cand.tree) - 2.0 * ll
        scored.append((score, order, cand, ll, fit.converged))
    scored.sort(key=lambda item: item[:2])
    return scored


def _assert_matches_reference(x, candidates, fits, criterion):
    best, ranking = select_tree(x, candidates, criterion=criterion)
    ref = _reference_ranking(fits, criterion)
    assert [c.tree for c in ranking] == [r[2].tree for r in ref]
    for cand, (_, _, _, ll, converged) in zip(ranking, ref):
        assert cand.converged == converged
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

    def counting(stats, tol):
        rows.append(np.atleast_2d(stats.mean_log).shape[0])
        return fit_batch(stats, tol)

    monkeypatch.setattr(dirichlet, "_fit_batch", counting)
    best, _ = select_tree(x, cands)
    child_counts = {len(key) for key in keys}
    winner_nodes = len(best.tree.internal_nodes())
    assert len(rows) == len(child_counts) + winner_nodes
    assert sum(rows[: len(child_counts)]) == len(keys)
    assert rows[len(child_counts):] == [1] * winner_nodes


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
