"""Tree-structured model: parsing, decomposition, density, fitting, sampling."""

import dataclasses
import json
import pathlib

import numpy as np
import pytest
import scipy.stats as st

from simplexstats import dirichlet, nested, treesearch
from simplexstats.composition import CompositionDataset
from simplexstats.dirichlet import DirichletParams
from simplexstats.errors import (
    DegenerateDataError,
    InputError,
    NonConvergenceError,
    TreeFormatError,
    TreeStructureError,
)
from simplexstats.nested import (
    NddParams,
    NestingTree,
    TreeNode,
    flat_tree,
    parse_tree,
    render_tree,
)

BEST_TREE_TEXT = "((AQ1:11.6,OQ:10.3):8.1,(AQ2:5.6,TQ:9.2):11.2)"


def test_parse_render_round_trip():
    tree = parse_tree(BEST_TREE_TEXT)
    assert tree.leaf_names == ("AQ1", "OQ", "AQ2", "TQ")
    again = parse_tree(render_tree(tree))
    assert again == tree


def test_parse_assigns_leaf_indices_by_first_appearance():
    tree = parse_tree("((b,c),a)")
    assert tree.leaf_names == ("b", "c", "a")
    assert tree.component_name(0) == "b"


def test_render_without_alphas_strips_weights():
    tree = parse_tree(BEST_TREE_TEXT)
    assert ":" not in tree.render(include_alphas=False)


def test_canonical_ordering_is_stable():
    # Children sort by their smallest contained component index, so the two
    # writings of the same shape render identically.
    one = parse_tree("((a,b),(c,d))")
    two = parse_tree("((d,c),(b,a))")
    assert one.render(include_alphas=False) == "((a,b),(c,d))"
    assert two.render(include_alphas=False) == "((d,c),(b,a))"
    assert one.is_same_shape(parse_tree("((b,a),(d,c))"))


def _recursive_leaves(node):
    if node.is_leaf:
        return [node.component]
    return sorted(j for c in node.children for j in _recursive_leaves(c))


def _subtree_nodes(node):
    yield node
    for c in node.children:
        yield from _subtree_nodes(c)


def _alphabetical(text):
    """The written tree with leaves numbered in alphabetical order of their
    names and children kept in written order, so mostly not canonical."""
    tree = parse_tree(text)  # first-appearance numbering keeps written order
    index = {name: j for j, name in enumerate(sorted(tree.leaf_names))}

    def walk(node):
        if node.is_leaf:
            return TreeNode(component=index[tree.leaf_names[node.component]], alpha=node.alpha)
        return TreeNode(children=tuple(walk(c) for c in node.children), alpha=node.alpha)

    return walk(tree.root)


TEXTS = ["((c,a),b,(e,d))", "(b,(d,(c,a)),e)", "((e,d),(b,(c,a)))", BEST_TREE_TEXT]


@pytest.mark.parametrize("text", TEXTS)
def test_cached_leaf_sets_match_recursion(text):
    written = _alphabetical(text)
    for node in [*_subtree_nodes(written), *_subtree_nodes(NestingTree(root=written).root)]:
        leaves = _recursive_leaves(node)
        assert node.leaf_indices() == tuple(leaves)
        assert node.min_leaf() == leaves[0]


@pytest.mark.parametrize("text", TEXTS)
def test_canonical_rebuilds_only_out_of_order_nodes(text):
    written = _alphabetical(text)
    root = NestingTree(root=written).root
    assert NestingTree(root=root).root is root
    for node in _subtree_nodes(root):
        firsts = [c.min_leaf() for c in node.children]
        assert firsts == sorted(firsts)
        assert nested._canonical(node) is node
    if text != BEST_TREE_TEXT:
        assert root is not written and root != written


def test_canonical_rebuilds_a_root_whose_inner_node_is_out_of_order():
    leaf = [TreeNode(component=j) for j in range(3)]
    inner_swapped = TreeNode(children=(leaf[0], TreeNode(children=(leaf[2], leaf[1]))))
    canon = nested._canonical(inner_swapped)
    assert canon == TreeNode(children=(leaf[0], TreeNode(children=(leaf[1], leaf[2]))))
    assert nested._canonical(canon) is canon


def test_cached_leaf_sets_are_not_fields():
    node = parse_tree("((a,b),c)").root
    assert [f.name for f in dataclasses.fields(TreeNode)] == ["component", "children", "alpha"]
    assert "_leaves" not in repr(node)
    same = TreeNode(children=(TreeNode(children=(TreeNode(component=0), TreeNode(component=1))),
                              TreeNode(component=2)))
    assert node == same and hash(node) == hash(same)
    assert dataclasses.replace(node.children[0], alpha=2.0).leaf_indices() == (0, 1)


def test_internal_nodes_are_labeled_in_preorder():
    tree = parse_tree("((a,(b,c)),d)")
    labels = [label for label, _ in tree.internal_nodes()]
    assert labels == ["root", "N1", "N2"]


def test_flat_tree_shape():
    tree = flat_tree(4, leaf_names=("w", "x", "y", "z"))
    assert tree.is_flat
    assert tree.n_components == 4
    assert tree.render(include_alphas=False) == "(w,x,y,z)"


@pytest.mark.parametrize(
    "text",
    ["", "((a,b)", "(a)", "(a,a)", "(a,b))", "(a,b):3", "(a:0,b)", "(a:xyz,b)"],
)
def test_parse_rejects_malformed_text(text):
    with pytest.raises(TreeFormatError):
        parse_tree(text)


def test_parse_error_carries_position():
    with pytest.raises(TreeFormatError) as err:
        parse_tree("((a,b)")
    assert err.value.position is not None


def test_tree_rejects_root_weight_and_leaf_gaps():
    with pytest.raises(TreeStructureError):
        NestingTree(root=TreeNode(children=(TreeNode(component=0), TreeNode(component=2))))
    with pytest.raises(TreeStructureError):
        NestingTree(
            root=TreeNode(
                children=(TreeNode(component=0), TreeNode(component=1)), alpha=2.0
            )
        )


def test_ndd_params_require_all_weights():
    shape = parse_tree("((a,b),c)")
    with pytest.raises(TreeStructureError):
        NddParams(tree=shape)
    weighted = parse_tree("((a:1.0,b:2.0):3.0,c:4.0)")
    params = NddParams(tree=weighted)
    assert params.n_components == 3


def test_subtree_params_expose_each_split():
    params = NddParams(tree=parse_tree(BEST_TREE_TEXT))
    blocks = dict(
        (label, (children, dd)) for label, children, dd in params.subtree_params()
    )
    assert set(blocks) == {"root", "N1", "N2"}
    children, dd = blocks["root"]
    assert children == ("N1", "N2")
    assert np.allclose(dd.alpha, [8.1, 11.2])
    assert np.allclose(blocks["N1"][1].alpha, [11.6, 10.3])
    assert np.allclose(blocks["N2"][1].alpha, [5.6, 9.2])


def test_decompose_reconstruct_round_trip():
    rng = np.random.default_rng(41)
    for text in ["((a,(b,c)),d,e)", "(a,b,(c,(d,e,f)))", "(((a,b),(c,d)),((e,f),g))"]:
        tree = parse_tree(text).strip_alphas()
        k = tree.n_components
        x = rng.dirichlet(np.arange(2.0, 2.0 + k), size=40)
        dec = nested.decompose(tree, x)
        back = nested.reconstruct(dec)
        assert np.max(np.abs(back - x)) < 1e-12
        # A (B, n, K) stack gets the blocks of each dataset on its own.
        stack = rng.dirichlet(np.arange(2.0, 2.0 + k), size=(3, 20))
        singles = [nested.decompose(tree, d).blocks for d in stack]
        for i, children in enumerate(nested._child_leaf_sets(tree)):
            block, mass = nested._branch_blocks(children, stack)
            assert block.shape == (3, 20, len(children))
            for b, blocks in enumerate(singles):
                assert np.max(np.abs(block[b] - blocks[i].matrix)) <= 1e-15
                assert np.max(np.abs(mass[b] - blocks[i].mass)) <= 1e-15


def test_decompose_binds_dataset_columns_by_leaf_name():
    rng = np.random.default_rng(43)
    x = rng.dirichlet([3.0, 4.0, 5.0], size=10)
    ds = CompositionDataset.from_arrays(x, ["g"] * 10, components=("a", "b", "c"))
    tree = parse_tree("((c,a),b)")
    dec = nested.decompose(tree, ds)
    back = nested.reconstruct(dec)
    # reconstruct returns columns in the tree's leaf order: c, a, b
    assert np.max(np.abs(back - x[:, [2, 0, 1]])) < 1e-12


def _manual_log_density(x):
    """Independent route for tree ((c1:a1,c2:a2):an,c3:a3): two scipy Dirichlet
    factors plus the change-of-variables term for the inner node's mass."""
    a1, a2, an, a3 = 3.0, 2.0, 4.0, 1.5
    s = x[:, 0] + x[:, 1]
    root = st.dirichlet.logpdf(np.vstack([s, x[:, 2]]), [an, a3])
    inner = st.dirichlet.logpdf(np.vstack([x[:, 0] / s, x[:, 1] / s]), [a1, a2])
    return root + inner - np.log(s)


def test_log_density_matches_manual_factorization():
    rng = np.random.default_rng(47)
    x = rng.dirichlet([2.0, 2.0, 2.0], size=50)
    params = NddParams(tree=parse_tree("((c1:3.0,c2:2.0):4.0,c3:1.5)"))
    ours = nested.log_density(params, x)
    assert np.allclose(ours, _manual_log_density(x), atol=1e-10)


def _weighted_collapsing_tree(shape: NestingTree, rng) -> NddParams:
    """Assign random leaf weights and give every internal node the sum of its
    children's weights, which collapses the nested density to a flat one."""

    def build(node: TreeNode):
        if node.is_leaf:
            alpha = float(rng.uniform(0.5, 8.0))
            return TreeNode(component=node.component, alpha=alpha), alpha
        pairs = [build(c) for c in node.children]
        total = sum(a for _, a in pairs)
        return TreeNode(children=tuple(p for p, _ in pairs), alpha=total), total

    kids = [build(c) for c in shape.root.children]
    root = TreeNode(children=tuple(p for p, _ in kids))
    leaf_alpha = np.empty(shape.n_components)

    def collect(node: TreeNode):
        if node.is_leaf:
            leaf_alpha[node.component] = node.alpha
            return
        for c in node.children:
            collect(c)

    collect(root)
    return NddParams(tree=NestingTree(root=root)), leaf_alpha


def test_collapsing_weights_reduce_to_flat_dirichlet():
    # When every internal weight equals the sum of its children's weights the
    # nested density is exactly the flat Dirichlet density.
    rng = np.random.default_rng(59)
    cases = 0
    while cases < 100:
        k = int(rng.integers(3, 6))
        shapes = treesearch.enumerate_trees(k)
        shape = shapes[int(rng.integers(0, len(shapes)))].tree
        if shape.is_flat:
            continue
        params, leaf_alpha = _weighted_collapsing_tree(shape, rng)
        x = rng.dirichlet(leaf_alpha, size=5)
        ours = nested.log_density(params, x)
        flat = dirichlet.log_density(DirichletParams(alpha=leaf_alpha), x)
        assert np.allclose(ours, flat, atol=1e-10)
        cases += 1


def test_mle_on_flat_tree_equals_dirichlet_mle():
    rng = np.random.default_rng(61)
    x = rng.dirichlet([4.0, 3.0, 2.0, 5.0], size=25)
    nfit = nested.mle(flat_tree(4), x)
    dfit = dirichlet.mle(x)
    leaf_alphas = np.array([c.alpha for c in nfit.params.tree.root.children])
    assert np.allclose(leaf_alphas, dfit.params.alpha, rtol=1e-8)
    assert nfit.log_likelihood == pytest.approx(dfit.log_likelihood, rel=1e-10)


def test_mle_log_likelihood_equals_density_sum():
    rng = np.random.default_rng(71)
    params = NddParams(tree=parse_tree(BEST_TREE_TEXT))
    x = nested.sample(params, 200, rng)
    fit = nested.mle(params.tree.strip_alphas(), x)
    total = nested.log_density(fit.params, x).sum()
    assert fit.log_likelihood == pytest.approx(total, rel=1e-10)


def test_mle_names_the_subtree_whose_fit_fails(monkeypatch):
    # a:b is fixed at 1:2, so node N1 of ((a,b),c,d) sees one branch
    # composition; on free data, three iterations stop the root's fit short.
    tree = parse_tree("((a,b),c,d)")
    y = np.random.default_rng(41).dirichlet([3.0, 4.0, 5.0], size=30)
    fixed = np.column_stack([y[:, 0] / 3.0, 2.0 * y[:, 0] / 3.0, y[:, 1:]])
    with pytest.raises(DegenerateDataError, match="subtree 'N1': a component is constant"):
        nested.mle(tree, fixed)
    free = np.random.default_rng(43).dirichlet([3.0, 4.0, 5.0, 2.0], size=30)
    monkeypatch.setattr(dirichlet, "_MAX_ITER", 3)
    with pytest.raises(NonConvergenceError) as direct:
        dirichlet.mle(nested.decompose(tree, free).blocks[0].matrix)
    with pytest.raises(NonConvergenceError, match="subtree 'root': ") as info:
        nested.mle(tree, free)
    assert info.value.iterations == direct.value.iterations == 3
    assert str(info.value) == f"subtree 'root': {direct.value}"


DENSITY_PINS = pathlib.Path(__file__).parent / "data" / "log_density_and_nested_fit_pins.json"


def test_log_density_and_mle_match_recorded_values_exactly():
    # The densities were recorded when the nested density had its own
    # lgamma formula, and keep their bits. The fitted weights and the total
    # log-likelihood were re-recorded when the warmup's inverse digamma took
    # its first Newton steps on the series shifted past 4 (they moved by at
    # most 2.4e-14 and 1.3e-15 relative), and keep the bits of that fit.
    for case in json.loads(DENSITY_PINS.read_text())["nested"]:
        params = NddParams(tree=parse_tree(case["tree"]))
        x = np.array(case["x"])
        assert nested.log_density(params, x).tolist() == case["log_density"]
        fit = nested.mle(params.tree.strip_alphas(), x)
        assert [dd.alpha.tolist() for _, _, dd in fit.params.subtree_params()] == case["fit_weights"]
        assert fit.log_likelihood == case["fit_log_likelihood"]


def test_mle_recovers_generating_weights():
    params = NddParams(tree=parse_tree(BEST_TREE_TEXT))
    x = nested.sample(params, 100_000, np.random.default_rng(73))
    fit = nested.mle(params.tree.strip_alphas(), x)
    got = {
        label: dd.alpha for label, _, dd in fit.params.subtree_params()
    }
    want = {label: dd.alpha for label, _, dd in params.subtree_params()}
    for label, alpha in want.items():
        assert np.allclose(got[label], alpha, rtol=0.03), label


def test_sampling_is_deterministic_and_normalized():
    params = NddParams(tree=parse_tree(BEST_TREE_TEXT))
    x1 = nested.sample(params, 20, np.random.default_rng(5))
    x2 = nested.sample(params, 20, np.random.default_rng(5))
    assert np.array_equal(x1, x2)
    assert np.allclose(x1.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(x1 > 0.0)


def test_sample_draws_one_split_per_node_in_preorder():
    params = NddParams(tree=parse_tree("((a:2.0,(b:3.0,c:1.0):2.0):4.0,d:1.0,e:2.5)"))
    got = nested.sample(params, 30, np.random.default_rng(19))
    rng = np.random.default_rng(19)
    root, n1, n2 = (
        dirichlet.sample(dd, 30, rng) for _, _, dd in params.subtree_params()
    )
    # root splits into (N1, d, e), N1 into (a, N2), N2 into (b, c).
    want = np.column_stack([
        root[:, 0] * n1[:, 0],
        root[:, 0] * n1[:, 1] * n2[:, 0],
        root[:, 0] * n1[:, 1] * n2[:, 1],
        root[:, 1],
        root[:, 2],
    ])
    assert np.array_equal(got, want)


def test_sample_builds_node_params_once_and_draws_as_before(monkeypatch):
    # Each draw used to build and validate one DirichletParams per node; the
    # params hold them now, and the draws and generator states are the same.
    params = NddParams(tree=parse_tree("((a:2.0,(b:3.0,c:1.0):2.0):4.0,d:1.0,e:2.5)"))

    def per_draw_setup(n, rng):
        splits = (
            dirichlet.sample(DirichletParams(alpha=[c.alpha for c in node.children]), n, rng)
            for _, node in params.tree.internal_nodes()
        )
        return nested._assemble(params.tree, splits, n)

    nested.sample(params, 1, np.random.default_rng(0))
    built = []
    post_init = DirichletParams.__post_init__
    monkeypatch.setattr(
        DirichletParams, "__post_init__", lambda self: (built.append(1), post_init(self))
    )
    for n, seed in ((1, 3), (7, 4), (50, 5)):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        built.clear()
        got = nested.sample(params, n, got_rng)
        assert not built
        want = per_draw_setup(n, want_rng)
        assert got.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_sample_means_match_leaf_means():
    params = NddParams(tree=parse_tree(BEST_TREE_TEXT))
    mean = nested.leaf_means(params)
    x = nested.sample(params, 200_000, np.random.default_rng(83))
    assert np.allclose(x.mean(axis=0), mean, atol=0.003)


def test_leaf_means_multiply_along_the_path():
    params = NddParams(tree=parse_tree("((a:2.0,b:6.0):4.0,c:1.0)"))
    # P(a) = 4/5 * 2/8, P(b) = 4/5 * 6/8, P(c) = 1/5
    assert np.allclose(nested.leaf_means(params), [0.2, 0.6, 0.2])


def test_nesting_can_produce_positive_correlation():
    params = NddParams(tree=parse_tree(BEST_TREE_TEXT))
    x = nested.sample(params, 50_000, np.random.default_rng(89))
    corr = np.corrcoef(x, rowvar=False)
    # AQ1 and OQ share a node: positively correlated; across nodes: negative.
    assert corr[0, 1] > 0.1
    assert corr[0, 2] < 0.0 and corr[0, 3] < 0.0


def test_delta_method_ses_take_n_as_a_count():
    params = NddParams(tree=parse_tree(BEST_TREE_TEXT))
    for bad in (True, 2.5, 7.0, 0):
        with pytest.raises(InputError, match="n must be an integer at least 1"):
            nested.delta_method_ses(params, bad)
    assert np.array_equal(
        nested.delta_method_ses(params, np.int64(7)), nested.delta_method_ses(params, 7)
    )


def test_delta_method_ses_match_parametric_bootstrap():
    params = NddParams(tree=parse_tree(BEST_TREE_TEXT))
    n = 80
    analytic = nested.delta_method_ses(params, n)
    shape = params.tree.strip_alphas()
    rng = np.random.default_rng(97)
    means = []
    for _ in range(400):
        x = nested.sample(params, n, rng)
        means.append(nested.leaf_means(nested.mle(shape, x).params))
    observed = np.asarray(means).std(axis=0, ddof=1)
    assert np.allclose(observed, analytic, rtol=0.10)
