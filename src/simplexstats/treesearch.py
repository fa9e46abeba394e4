"""Search over candidate nesting trees for a compositional dataset.

Three stages: enumerate every distinct tree shape over the components,
screen out shapes that contradict the signs of the sample correlation
matrix, and fit the survivors to pick the one with the highest
log-likelihood.

Each stage works once per distinct subtree, not once per candidate.
Candidates share subtree objects: enumeration builds the trees on each leaf
subset once, every node already in canonical order, its leaf set cached on
it and its text built from its children's; the sort and the ranking's
rendered trees reuse that text. The screen's verdict on a node depends only
on the node's leaf set, so each distinct set is screened once (a K = 6 tree
has 57 possible internal leaf sets).

A nested log-likelihood is a sum of per-node terms, and a node's term
depends only on the leaf sets of its children (``nested._child_leaf_sets``),
which many candidate trees share. Selection therefore runs each distinct
node once through the per-node helpers of ``nested`` (one batched Dirichlet
fit per child count) and scores a tree by adding up its nodes' terms.
Unscreened, the 2,752 candidates at K = 6 hold 11,348 nodes, 813 of them
distinct; the 39,208 at K = 7 hold 192,788, of which 4,012 are distinct.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, replace

import numpy as np

from . import dirichlet, nested
from .composition import CompositionDataset, sample_correlation, validate
from .errors import DimensionMismatchError, InputError, NumericalError
from .nested import NddParams, NestingTree, TreeNode
from .numerics import _is_integer

__all__ = [
    "TreeCandidate",
    "enumerate_trees",
    "filter_impossible",
    "select_tree",
    "MAX_COMPONENTS",
]

# Enumeration is exhaustive and the tree count grows fast with K
# (4, 26, 236, 2752, 39208 for K = 3..7, 660,032 for K = 8), so cap the
# component count. On a 2-vCPU machine, an unscreened K = 7 search on 200
# rows takes 2.6-3.1 s, listing the candidates 0.8-1.1 s of it; K = 8 would
# need candidates built lazily.
MAX_COMPONENTS = 8


@dataclass(frozen=True)
class TreeCandidate:
    """One tree shape moving through the search pipeline.

    log_likelihood is filled by select_tree and is None on a shape whose fit
    failed or that it never fitted, such as one the screen filtered.
    filtered marks shapes ruled out by the correlation-sign screen, with the
    witnessing node, leaf pair, and outside leaf recorded.
    """

    tree: NestingTree
    log_likelihood: float | None = None
    filtered: bool = False
    filter_reason: str = ""
    witness: tuple[str, tuple[str, str], str] | None = None


def _partitions(items: list):
    """Every partition of items into unordered nonempty blocks."""
    if len(items) == 1:
        yield [items]
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def _subtrees(
    leaves: tuple[int, ...], names: tuple[str, ...], memo: dict
) -> list[tuple[str, TreeNode]]:
    """All rooted trees on the given leaves with internal degree >= 2, each
    with its alpha-free text under the component names.

    Each partition's blocks are ordered by least leaf, so every node is
    built in canonical order. memo maps each leaf set already expanded to
    its list; every partition that contains a block reuses that block's
    nodes and text instead of rebuilding them.
    """
    if leaves not in memo:
        if len(leaves) == 1:
            memo[leaves] = [(names[leaves[0]], TreeNode(component=leaves[0]))]
        else:
            out = []
            for blocks in _partitions(list(leaves)):
                if len(blocks) == 1:
                    continue
                # Blocks are disjoint and ascending, so they sort by least leaf.
                parts = [_subtrees(tuple(b), names, memo) for b in sorted(blocks)]
                for combo in itertools.product(*parts):
                    texts, kids = zip(*combo)
                    out.append(("(" + ",".join(texts) + ")", TreeNode(children=kids)))
            memo[leaves] = out
    return memo[leaves]


def enumerate_trees(
    k: int, components: tuple[str, ...] | None = None
) -> list[TreeCandidate]:
    """Every distinct nesting tree over k components, flat tree included.

    Trees are canonical, so the result has no duplicates; it is sorted
    by rendered form, which fixes the tie-break order used downstream.
    """
    if not (_is_integer(k) and 2 <= k <= MAX_COMPONENTS):
        raise InputError(
            f"component count must be an integer between 2 and {MAX_COMPONENTS}, got {k!r}"
        )
    if components is None:
        components = tuple(f"c{j + 1}" for j in range(k))
    components = tuple(components)
    if len(components) != k:
        raise InputError(
            f"expected {k} component names, got {len(components)}"
        )
    shapes = _subtrees(tuple(range(k)), tuple(map(str, components)), {})
    shapes.sort(key=operator.itemgetter(0))
    out = []
    for text, root in shapes:
        tree = NestingTree(root=root, leaf_names=components)
        # The text render(include_alphas=False) returns, already built.
        tree.__dict__["_shape_text"] = text
        out.append(TreeCandidate(tree=tree))
    return out


def _validate_correlation(corr: np.ndarray, k: int) -> np.ndarray:
    corr = np.asarray(corr, dtype=float)
    if corr.shape != (k, k):
        raise InputError(
            f"correlation matrix must be {k}x{k}, got {corr.shape}"
        )
    if not np.allclose(corr, corr.T, atol=1.0e-8):
        raise InputError("correlation matrix must be symmetric")
    if not np.allclose(np.diag(corr), 1.0, atol=1.0e-6):
        raise InputError("correlation matrix must have unit diagonal")
    if np.any(np.abs(corr) > 1.0 + 1.0e-8):
        raise InputError("correlation entries must lie in [-1, 1]")
    return corr


def _sign_conflict(inside: tuple[int, ...], k: int, corr: np.ndarray, name):
    """The first leaf pair (u, v) under a node and leaf w outside it, in
    index order, with corr[w, u] and corr[w, v] of opposite signs.

    Returns (the filter reason up to the node's label, (name(u), name(v)),
    name(w)), or None when the node's leaf set has no such pair.
    """
    outside = [w for w in range(k) if w not in inside]
    for u, v in itertools.combinations(inside, 2):
        for w in outside:
            if corr[w, u] * corr[w, v] < 0.0:
                reason = (
                    f"corr({name(w)},{name(u)}) = {corr[w, u]:+.3f} and "
                    f"corr({name(w)},{name(v)}) = {corr[w, v]:+.3f} disagree in "
                    f"sign, but {name(u)} and {name(v)} are nested together "
                    "under "
                )
                return reason, (name(u), name(v)), name(w)
    return None


def filter_impossible(
    candidates: list[TreeCandidate], corr: np.ndarray
) -> list[TreeCandidate]:
    """Flag trees whose nesting contradicts the correlation signs.

    Components nested under a common node share their sign of correlation
    with every component outside that node. A candidate is filtered when
    some outside leaf w correlates positively with one leaf under a node
    and negatively with another; the first such witness (in pre-order node
    order, then index order) is recorded. Zero correlations are compatible
    with either sign, and the flat tree is never filtered because its only
    internal node has no outside leaves.

    A node's witness depends only on its leaf set, which many candidates
    share, so each distinct leaf set is screened once.
    """
    if not candidates:
        return []
    k = candidates[0].tree.n_components
    corr = _validate_correlation(corr, k)
    # Per leaf-name binding, per leaf set: the node's _sign_conflict.
    screens: dict = {}
    out = []
    for cand in candidates:
        tree = cand.tree
        screen = screens.setdefault(tree.leaf_names, {})
        hit = None
        for label, node in tree._walk_internal():
            leaves = node.leaf_indices()
            if leaves not in screen:
                screen[leaves] = _sign_conflict(leaves, k, corr, tree.component_name)
            hit = screen[leaves]
            if hit is not None:
                break
        if hit is None:
            out.append(cand)
            continue
        reason, pair, w = hit
        out.append(
            TreeCandidate(
                tree=tree,
                log_likelihood=cand.log_likelihood,
                filtered=True,
                filter_reason=reason + label,
                witness=(label, pair, w),
            )
        )
    return out


def _as_matrix(data) -> np.ndarray:
    if isinstance(data, CompositionDataset):
        return data.matrix
    return np.asarray(data, dtype=float)


def _node_terms(keys, x: np.ndarray) -> dict:
    """Each node's nested._node_term, or None where its fit, batched by
    child count, is unusable (too few rows, a constant branch) or does not
    converge and dirichlet.mle would raise."""

    def fit(stats):
        _, loglik, _, converged, usable = dirichlet._fit_batch(stats)
        return {"loglik": loglik, "ok": usable & converged}

    keys = list(keys)
    stats, masses = zip(*nested._node_stats(keys, x[None]))
    return {
        key: float(nested._node_term(res["loglik"][0], len(key), mass[0])) if res["ok"][0] else None
        for key, mass, res in zip(keys, masses, nested._fit_nodes(fit, stats))
    }


def select_tree(
    data,
    candidates: list[TreeCandidate],
    criterion: str = "loglik",
) -> tuple[NddParams, list[TreeCandidate]]:
    """Fit every surviving candidate and rank them.

    data may be a dataset (all rows pooled) or a plain matrix, bound to the
    trees positionally. Returns the best fit's parameters and the full
    ranking, best first. criterion is "loglik" (default) or "aic", which
    penalizes trees with more edges; ties and fit failures fall back to the
    enumeration order, and failed fits rank last with log_likelihood None,
    whatever value the candidate came in with. A tree fails when one of its
    node fits fails.

    A tree's log-likelihood is the sum of its nodes' terms, and each
    distinct node (the leaf sets of its children) is fitted once for all
    candidates. Only the winner is refitted through nested.mle, for its
    parameters. Raises InputError when the data are not compositions with
    one column per tree component.
    """
    if criterion not in ("loglik", "aic"):
        raise InputError(f"criterion must be 'loglik' or 'aic', got {criterion!r}")
    raw = _as_matrix(data)
    x = np.atleast_2d(validate(raw))
    survivors = [c for c in candidates if not c.filtered]
    if not survivors:
        raise InputError("no surviving candidate trees to fit")
    keys = [nested._child_leaf_sets(c.tree) for c in survivors]
    # The root's children cover every component.
    widths = {sum(map(len, tree_keys[0])) for tree_keys in keys}
    if widths != {x.shape[1]}:
        raise DimensionMismatchError(
            f"{x.shape[1]} columns vs {sorted(widths)} tree components"
        )
    terms = _node_terms({key for tree_keys in keys for key in tree_keys}, x)
    fitted: list[tuple[float, int, TreeCandidate]] = []
    for order, (cand, tree_keys) in enumerate(zip(survivors, keys)):
        parts = [terms[key] for key in tree_keys]
        if None in parts:
            fitted.append((np.inf, order, replace(cand, log_likelihood=None)))
            continue
        ll = float(sum(parts))
        # Every child of every node carries one edge weight.
        edges = sum(map(len, tree_keys))
        score = -ll if criterion == "loglik" else 2.0 * edges - 2.0 * ll
        fitted.append((score, order, replace(cand, log_likelihood=ll)))

    fitted.sort(key=lambda item: (item[0], item[1]))
    if fitted[0][0] == np.inf:
        raise NumericalError("every candidate tree failed to fit")
    ranking = [item[2] for item in fitted]
    return nested.mle(ranking[0].tree, raw).params, ranking


def search(
    dataset: CompositionDataset, criterion: str = "loglik"
) -> tuple[NddParams, list[TreeCandidate]]:
    """End-to-end search on a dataset: enumerate, screen on the pooled
    sample correlation, fit the survivors on the pooled rows."""
    cands = enumerate_trees(dataset.n_components, dataset.components)
    corr = sample_correlation(dataset)
    cands = filter_impossible(cands, corr)
    best, ranking = select_tree(dataset, cands, criterion=criterion)
    skipped = [c for c in cands if c.filtered]
    return best, ranking + skipped
