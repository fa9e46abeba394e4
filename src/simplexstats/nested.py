"""Nested Dirichlet model on a rooted tree of components.

The model groups the K parts of a composition under a rooted tree whose
leaves are the components. Every internal node splits its mass among its
children according to an independent Dirichlet draw; a leaf's proportion is
the product of branch fractions along its root path. Each non-root node
carries one concentration parameter (the weight of the edge above it), so an
internal node with children weights (a_1..a_k) sends its mass through a
Dirichlet(a_1..a_k) split.

A nested likelihood is a sum of independent per-node Dirichlet terms over
each node's branch compositions: its children's leaf-column sums divided by
their total. This module holds all per-node work of the fit, the nested LRT
and tree search: ``_child_leaf_sets`` keys a node by its children's leaf
sets, ``_branch_blocks`` cuts its block, ``_node_stats`` reduces blocks as
they are cut, ``_fit_nodes`` fits one batch per child count, and
``_node_term`` is a block's Dirichlet log-likelihood less (k - 1) sum log
mass. ``mle`` sums those terms but fits node by node with ``dirichlet.mle``
while the benchmark's tracer counts those calls. ``_assemble`` multiplies
per-node splits down to the leaves; the same downward walk sums per-node
relative variances for the delta-method standard errors, and one
re-weighting walk, ``_reweight``, sets the fitted edge weights or clears
them.

The flat tree (root with K leaf children) recovers the plain Dirichlet model.

Trees have a text form, e.g. ``((AQ1,OQ):8.1,(AQ2,TQ):11.2)``: parentheses
group children, an optional ``:value`` after a node is its edge weight, and
the root carries none. Children are kept in a canonical order (by smallest
contained component index) so structurally equal trees compare equal.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import dirichlet
from .composition import CompositionDataset, SufficientStats, validate
from .errors import (
    DegenerateDataError,
    DimensionMismatchError,
    DomainError,
    InputError,
    NonConvergenceError,
    TreeFormatError,
    TreeStructureError,
)
from .numerics import _is_integer

__all__ = [
    "TreeNode",
    "NestingTree",
    "NddParams",
    "SubtreeBlock",
    "SubtreeDecomposition",
    "NddFitResult",
    "flat_tree",
    "parse_tree",
    "render_tree",
    "decompose",
    "reconstruct",
    "log_density",
    "mle",
    "sample",
    "leaf_means",
    "delta_method_ses",
]


@dataclass(frozen=True)
class TreeNode:
    """One node: a leaf holds a component index, an internal node children.

    ``alpha`` is the concentration on the edge joining this node to its
    parent; the root has none.
    """

    component: int | None = None
    children: tuple["TreeNode", ...] = ()
    alpha: float | None = None

    def __post_init__(self):
        if (self.component is None) == (len(self.children) == 0):
            raise TreeStructureError(
                "a node is either a leaf with a component index or an "
                "internal node with children"
            )
        if self.component is not None and self.component < 0:
            raise TreeStructureError("component indices must be nonnegative")
        if self.children and len(self.children) < 2:
            raise TreeStructureError("internal nodes need at least 2 children")
        if self.alpha is not None and not (
            np.isfinite(self.alpha) and self.alpha > 0.0
        ):
            raise TreeStructureError("edge weights must be finite and positive")
        # The sorted leaf tuple and whether the subtree is in canonical order
        # (children canonical and ordered by least leaf), built once from the
        # children's. Plain attributes, not fields: equality, hashing and
        # repr see only the structure.
        if self.component is not None:
            leaves, canonical = (self.component,), True
        else:
            leaves, canonical, least = (), True, -1
            for c in self.children:
                canonical = canonical and c._is_canonical and c._leaves[0] > least
                least = c._leaves[0]
                leaves += c._leaves
            leaves = tuple(sorted(leaves))
        object.__setattr__(self, "_leaves", leaves)
        object.__setattr__(self, "_is_canonical", canonical)

    @property
    def is_leaf(self) -> bool:
        return self.component is not None

    def min_leaf(self) -> int:
        return self._leaves[0]

    def leaf_indices(self) -> tuple[int, ...]:
        return self._leaves


def _canonical(node: TreeNode) -> TreeNode:
    """node with every child list ordered by least leaf; node itself when
    it already is."""
    if node._is_canonical:
        return node
    kids = tuple(sorted((_canonical(c) for c in node.children), key=TreeNode.min_leaf))
    return TreeNode(component=None, children=kids, alpha=node.alpha)


@dataclass(frozen=True)
class NestingTree:
    """A rooted component tree, canonicalized and validated.

    ``leaf_names`` optionally names component i as leaf_names[i]; unnamed
    trees bind to data positionally.
    """

    root: TreeNode
    leaf_names: tuple[str, ...] | None = None

    def __post_init__(self):
        root = self.root
        if root.is_leaf:
            raise TreeStructureError("the root must be an internal node")
        if root.alpha is not None:
            raise TreeStructureError("the root cannot carry an edge weight")
        root = _canonical(root)
        object.__setattr__(self, "root", root)
        leaves = root.leaf_indices()
        k = len(leaves)
        if leaves != tuple(range(k)):
            raise TreeStructureError(
                f"leaves must cover component indices 0..{k - 1} exactly once, "
                f"got {leaves}"
            )
        if self.leaf_names is not None:
            names = tuple(map(str, self.leaf_names))
            if len(names) != k:
                raise DimensionMismatchError(
                    f"{len(names)} leaf names for {k} components"
                )
            if len(set(names)) != k:
                raise TreeStructureError("leaf names must be unique")
            object.__setattr__(self, "leaf_names", names)

    @functools.cached_property
    def n_components(self) -> int:
        return len(self.root.leaf_indices())

    @property
    def is_flat(self) -> bool:
        return all(c.is_leaf for c in self.root.children)

    def component_name(self, index: int) -> str:
        if self.leaf_names is not None:
            return self.leaf_names[index]
        return f"c{index + 1}"

    def internal_nodes(self) -> tuple[tuple[str, TreeNode], ...]:
        """Internal nodes in pre-order with stable labels root, N1, N2, ..."""
        return tuple(self._walk_internal())

    def _walk_internal(self):
        """internal_nodes, lazily: a caller that stops early walks no
        further."""
        stack = [self.root]
        index = 0
        while stack:
            node = stack.pop()
            yield (f"N{index}" if index else "root"), node
            index += 1
            stack.extend(reversed([c for c in node.children if not c.is_leaf]))

    def strip_alphas(self) -> "NestingTree":
        return _reweight(self, itertools.repeat(itertools.repeat(None)))

    def is_same_shape(self, other: "NestingTree") -> bool:
        return self.strip_alphas().root == other.strip_alphas().root

    @functools.cached_property
    def _shape_text(self) -> str:
        """The alpha-free text, built once per tree; enumerate_trees fills it
        in from text it builds once per shared subtree."""
        return render_tree(self, include_alphas=False)

    def render(self, include_alphas: bool = True) -> str:
        if not include_alphas:
            return self._shape_text
        return render_tree(self, include_alphas=True)


def flat_tree(k: int, leaf_names: tuple[str, ...] | None = None) -> NestingTree:
    """The tree with all K components directly under the root."""
    if not (_is_integer(k) and k >= 2):
        raise DomainError(f"need an integer of at least 2 components, got {k!r}")
    kids = tuple(TreeNode(component=j) for j in range(k))
    return NestingTree(root=TreeNode(children=kids), leaf_names=leaf_names)


# ---------------------------------------------------------------------------
# Text format


_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_CHARS = _NAME_START | set("0123456789.-")
_WEIGHT_CHARS = set("0123456789.eE+-")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.names: list[str] = []

    def error(self, message: str):
        raise TreeFormatError(message, position=self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def parse_name(self) -> str:
        start = self.pos
        if self.peek() not in _NAME_START:
            self.error("expected a component name")
        while self.peek() in _NAME_CHARS:
            self.pos += 1
        return self.text[start : self.pos]

    def parse_weight(self) -> float | None:
        self.skip_ws()
        if self.peek() != ":":
            return None
        self.pos += 1
        self.skip_ws()
        start = self.pos
        while self.peek() in _WEIGHT_CHARS:
            self.pos += 1
        token = self.text[start : self.pos]
        try:
            value = float(token)
        except ValueError:
            self.pos = start
            self.error(f"bad edge weight {token!r}")
        if not np.isfinite(value) or value <= 0.0:
            self.pos = start
            self.error(f"edge weights must be positive, got {token}")
        return value

    def parse_node(self) -> TreeNode:
        self.skip_ws()
        if self.peek() == "(":
            self.take("(")
            children = [self.parse_node()]
            self.skip_ws()
            while self.peek() == ",":
                self.take(",")
                children.append(self.parse_node())
                self.skip_ws()
            self.take(")")
            if len(children) < 2:
                self.error("groups need at least 2 children")
            alpha = self.parse_weight()
            return TreeNode(children=tuple(children), alpha=alpha)
        name = self.parse_name()
        if name in self.names:
            self.error(f"component {name!r} appears twice")
        self.names.append(name)
        alpha = self.parse_weight()
        return TreeNode(component=self.names.index(name), alpha=alpha)


def parse_tree(text: str) -> NestingTree:
    """Parse the parenthesized tree format.

    Component indices are assigned by first appearance in the text; use the
    leaf names to bind the tree to a dataset's columns.
    """
    if not isinstance(text, str) or not text.strip():
        raise TreeFormatError("empty tree text")
    p = _Parser(text)
    node = p.parse_node()
    p.skip_ws()
    if p.pos != len(text):
        p.error("trailing characters after the tree")
    if node.is_leaf:
        raise TreeFormatError("a tree needs at least 2 components")
    if node.alpha is not None:
        raise TreeFormatError("the root cannot carry an edge weight")
    return NestingTree(root=node, leaf_names=tuple(p.names))


def render_tree(tree: NestingTree, include_alphas: bool = True) -> str:
    """Canonical text for a tree; parse_tree(render_tree(t)) reproduces t."""

    def fmt(node: TreeNode, is_root: bool) -> str:
        if node.is_leaf:
            body = tree.component_name(node.component)
        else:
            body = "(" + ",".join(fmt(c, False) for c in node.children) + ")"
        if include_alphas and not is_root and node.alpha is not None:
            body += f":{node.alpha!s}"
        return body

    return fmt(tree.root, True)


# ---------------------------------------------------------------------------
# Parameters


@dataclass(frozen=True)
class NddParams:
    """A fully weighted nesting tree: every non-root node has its
    concentration set."""

    tree: NestingTree

    def __post_init__(self):
        for _, node in self.tree.internal_nodes():
            if any(c.alpha is None for c in node.children):
                raise TreeStructureError(
                    "every non-root node needs an edge weight; "
                    f"missing on {render_tree(self.tree, include_alphas=False)}"
                )

    @property
    def n_components(self) -> int:
        return self.tree.n_components

    def subtree_params(self) -> tuple[tuple[str, tuple[str, ...], dirichlet.DirichletParams], ...]:
        """(label, child labels, Dirichlet over the children) per internal
        node, in pre-order."""
        labels = self.tree.internal_nodes()
        return tuple(
            (label, _child_labels(self.tree, node, labels), dd)
            for (label, node), dd in zip(labels, self._splits)
        )

    @functools.cached_property
    def _splits(self) -> tuple[dirichlet.DirichletParams, ...]:
        """The Dirichlet over each internal node's children, in pre-order,
        built and validated once for every draw."""
        return tuple(
            dirichlet.DirichletParams(alpha=[c.alpha for c in node.children])
            for _, node in self.tree.internal_nodes()
        )


def _child_labels(
    tree: NestingTree,
    node: TreeNode,
    labels: tuple[tuple[str, TreeNode], ...],
) -> tuple[str, ...]:
    """Labels of a node's children: component names for leaves, N# for
    internal children (matched by position in the pre-order listing)."""
    by_id = {id(n): lab for lab, n in labels}
    out = []
    for c in node.children:
        if c.is_leaf:
            out.append(tree.component_name(c.component))
        else:
            out.append(by_id[id(c)])
    return tuple(out)


def leaf_means(params: NddParams) -> np.ndarray:
    """Expected composition: product of branch mean fractions along each
    root-to-leaf path."""
    splits = (dd.mean[None, :] for dd in params._splits)
    return _assemble(params.tree, splits, 1)[0]


# ---------------------------------------------------------------------------
# Decomposition


@dataclass(frozen=True)
class SubtreeBlock:
    """The branch compositions observed at one internal node."""

    matrix: np.ndarray  # (n, k_children), rows sum to 1
    mass: np.ndarray  # (n,) share of total mass reaching this node

    def __post_init__(self):
        for name in ("matrix", "mass"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class SubtreeDecomposition:
    """All subtree blocks of a dataset under one tree, in pre-order."""

    tree: NestingTree
    blocks: tuple[SubtreeBlock, ...]

    @property
    def n_observations(self) -> int:
        return self.blocks[0].matrix.shape[0]


def _bind_matrix(tree: NestingTree, data) -> np.ndarray:
    """Dataset columns in tree component order; plain arrays bind
    positionally."""
    if isinstance(data, CompositionDataset):
        if tree.leaf_names is not None:
            if set(tree.leaf_names) != set(data.components):
                raise InputError(
                    f"tree components {sorted(tree.leaf_names)} do not match "
                    f"dataset components {sorted(data.components)}"
                )
            perm = [data.component_index(nm) for nm in tree.leaf_names]
            return data.matrix[:, perm]
        matrix = data.matrix
    else:
        matrix = validate(np.asarray(data, dtype=float))
        if matrix.ndim == 1:
            matrix = matrix[None, :]
    if matrix.shape[1] != tree.n_components:
        raise DimensionMismatchError(
            f"{matrix.shape[1]} columns vs {tree.n_components} tree components"
        )
    return matrix


def _renumber(tree: NestingTree, names: tuple[str, ...]) -> NestingTree:
    """The same tree with component j named names[j], leaves matched by name.

    Returns tree itself when its names are already in that order. The
    caller checks that both name sets agree.
    """
    if tree.leaf_names == names:
        return tree
    index = {name: j for j, name in enumerate(names)}

    def walk(node: TreeNode) -> TreeNode:
        if node.is_leaf:
            return TreeNode(component=index[tree.leaf_names[node.component]], alpha=node.alpha)
        return TreeNode(children=tuple(walk(c) for c in node.children), alpha=node.alpha)

    return NestingTree(root=walk(tree.root), leaf_names=names)


def _child_leaf_sets(tree: NestingTree) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Per internal node in pre-order, the sorted leaf sets of its children.

    A node's branch compositions depend on nothing else, so this is the
    node's identity: trees that share a key share that node's block and fit.
    """
    return tuple(
        tuple(c.leaf_indices() for c in node.children) for _, node in tree.internal_nodes()
    )


def _branch_blocks(children, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One node's branch compositions from compositions x of shape (..., n, K).

    children holds the leaf set of each child. Returns (block, mass): each
    child's leaf-column sum divided by the node's total, shape (..., n, k),
    and that total, shape (..., n).
    """
    masses = np.stack([x[..., list(leaves)].sum(axis=-1) for leaves in children], axis=-1)
    mass = masses.sum(axis=-1)
    return masses / mass[..., None], mass


def _node_stats(keys, x: np.ndarray):
    """Per node key, the carrier of its block of a (B, n, K) stack x and its
    (B, n) mass; lazily, so one block is held at a time."""
    for children in keys:
        block, mass = _branch_blocks(children, x)
        yield SufficientStats.reduce(block), mass


def _fit_nodes(fit, *columns) -> list[dict]:
    """Each node's rows of fit's per-row result dict, in node order. fit runs
    once per child count on the joined carriers of each column (one carrier
    per node for each argument of fit); a row's fit ignores its batch."""
    first = columns[0]
    out: list = [None] * len(first)
    for count in dict.fromkeys(stats.n_components for stats in first):
        group = [i for i, stats in enumerate(first) if stats.n_components == count]
        res = fit(*(SufficientStats.concat([col[i] for i in group]) for col in columns))
        bounds = np.cumsum([0] + [first[i].mean_log.shape[0] for i in group])
        for i, lo, hi in zip(group, bounds, bounds[1:]):
            out[i] = {key: val[lo:hi] for key, val in res.items()}
    return out


def _node_term(loglik, k: int, mass: np.ndarray):
    """A k-child node's Dirichlet log-likelihood less (k - 1) sum log mass,
    over mass's last axis."""
    return loglik - (k - 1.0) * np.log(mass).sum(axis=-1)


def _assemble(tree: NestingTree, splits, n: int, op: np.ufunc = np.multiply) -> np.ndarray:
    """Combine per-node splits down to the leaves with op, from op.identity
    at the root: products of branch fractions by default.

    splits yields one (n, k_children) array per internal node in pre-order
    and is consumed in that order. Returns (n, K) per-leaf results in tree
    component order.
    """
    out = np.empty((n, tree.n_components), dtype=float)
    splits = iter(splits)

    def walk(node: TreeNode, acc: np.ndarray):
        split = next(splits)
        for j, child in enumerate(node.children):
            child_acc = op(split[:, j], acc)
            if child.is_leaf:
                out[:, child.component] = child_acc
            else:
                walk(child, child_acc)

    walk(tree.root, np.full(n, op.identity, dtype=float))
    return out


def _reweight(tree: NestingTree, weights) -> NestingTree:
    """The same tree with each internal node's children re-weighted.

    weights yields one sequence of child edge weights (None to clear) per
    internal node in pre-order and is consumed in that order; the root
    stays unweighted.
    """
    weights = iter(weights)

    def walk(node: TreeNode, alpha: float | None) -> TreeNode:
        if node.is_leaf:
            return TreeNode(component=node.component, alpha=alpha)
        kids = tuple(walk(c, a) for c, a in zip(node.children, next(weights)))
        return TreeNode(children=kids, alpha=alpha)

    return NestingTree(root=walk(tree.root, None), leaf_names=tree.leaf_names)


def decompose(tree: NestingTree, data) -> SubtreeDecomposition:
    """Branch compositions at every internal node.

    Each block row holds the children's shares of the node's mass (their
    leaf-column sums divided by the total), so rows sum to one; the block's
    ``mass`` is the node's share of the whole.
    """
    matrix = _bind_matrix(tree, data)
    blocks = tuple(
        SubtreeBlock(*_branch_blocks(children, matrix)) for children in _child_leaf_sets(tree)
    )
    return SubtreeDecomposition(tree=tree, blocks=blocks)


def reconstruct(decomposition: SubtreeDecomposition) -> np.ndarray:
    """Invert decompose: rebuild compositions in tree component order."""
    return _assemble(
        decomposition.tree,
        (blk.matrix for blk in decomposition.blocks),
        decomposition.n_observations,
    )


# ---------------------------------------------------------------------------
# Density, likelihood, sampling


def log_density(params: NddParams, x) -> float | np.ndarray:
    """Log density of compositions under the nested model.

    By the change of variables from leaf space to stacked branch coordinates,
    this is the sum of the subtree Dirichlet log-densities minus
    sum_i (k_i - 1) log s_i, with s_i the mass share at internal node i.
    """
    arr = np.asarray(x, dtype=float) if not isinstance(x, CompositionDataset) else x
    decomp = decompose(params.tree, arr)
    total = np.zeros(decomp.n_observations, dtype=float)
    for dd, blk in zip(params._splits, decomp.blocks):
        a = dd.alpha
        total += dirichlet._per_obs_loglik(a[None], np.log(blk.matrix), a.sum(keepdims=True))
        total -= (len(a) - 1.0) * np.log(blk.mass)
    single = not isinstance(x, CompositionDataset) and np.asarray(x).ndim == 1
    return float(total[0]) if single else total


@dataclass(frozen=True)
class NddFitResult:
    """Converged maximum-likelihood fit of a nested model: mle raises
    NonConvergenceError when a node's fit stops short of tolerance."""

    params: NddParams
    log_likelihood: float


def mle(tree: NestingTree, data) -> NddFitResult:
    """Fit every subtree by Dirichlet maximum likelihood.

    The branch compositions at distinct internal nodes are independent, so
    the joint fit splits into one Dirichlet fit per internal node. The
    reported total is the leaf-space log-likelihood: each subtree's term
    carries its own change-of-variables correction (_node_term). A node's
    DegenerateDataError or NonConvergenceError names the node's label.
    """
    fits, total = [], 0.0
    for (label, _), blk in zip(tree.internal_nodes(), decompose(tree, data).blocks):
        try:
            fit = dirichlet.mle(blk.matrix)
        except (DegenerateDataError, NonConvergenceError) as exc:
            exc.args = (f"subtree {label!r}: {exc}",)
            raise
        fits.append(fit)
        total += _node_term(fit.log_likelihood, blk.matrix.shape[1], blk.mass)
    return NddFitResult(
        params=NddParams(tree=_reweight(tree, (f.params.alpha.tolist() for f in fits))),
        log_likelihood=float(total),
    )


def sample(params: NddParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n compositions: independent branch splits multiplied down the
    tree. One Dirichlet split is drawn per internal node, in pre-order; its
    columns follow the children's canonical order."""
    if not (_is_integer(n) and n >= 1):
        raise InputError(f"n must be an integer at least 1, got {n!r}")
    splits = (dirichlet.sample(dd, n, rng) for dd in params._splits)
    return _assemble(params.tree, splits, n)


def delta_method_ses(params: NddParams, n: int) -> np.ndarray:
    """Asymptotic standard errors of the leaf means for a sample of size n.

    A leaf mean is the product of independent branch-mean estimates along its
    path, so its relative variance is, to first order, the sum of the branch
    estimates' relative variances: Var(p_j) = p_j^2 * sum_i Var(m_i)/m_i^2.
    Branch variances come from each subtree's inverse information.
    """
    if not (_is_integer(n) and n >= 1):
        raise InputError(f"n must be an integer at least 1, got {n!r}")
    rel_vars = (
        ((dirichlet.mean_standard_errors(dd, n) / dd.mean) ** 2)[None, :]
        for dd in params._splits
    )
    rel_var = _assemble(params.tree, rel_vars, 1, np.add)[0]
    return leaf_means(params) * np.sqrt(rel_var)
