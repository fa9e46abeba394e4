"""Monte Carlo study machinery: seeding, tallies, and guardrails."""

import tracemalloc
import warnings

import numpy as np
import pytest

from simplexstats import dirichlet, inference, nested, simulate, treesearch
from simplexstats.composition import CompositionDataset, SufficientStats
from simplexstats.dirichlet import DirichletParams
from simplexstats.errors import InputError, NumericalError
from simplexstats.nested import NddParams, NestingTree, flat_tree, parse_tree
from simplexstats.numerics import chi_square_sf
from simplexstats.simulate import (
    FAIL_TO_REJECT,
    FIT_FAILURE,
    REJECT,
    DirichletLRT,
    MaugardProcedure,
    NddLRT,
    SimResult,
    SimSpec,
    run_correlation_check,
    run_power_study,
    run_type1_study,
    same_generator,
)

CONTROL = DirichletParams.from_mean_precision(
    (0.423, 0.194, 0.181, 0.202), 27.025
)
TREATMENT = DirichletParams.from_mean_precision(
    (0.301, 0.255, 0.216, 0.228), 41.678
)
BEST_TREE_TEXT = "((AQ1:11.6,OQ:10.3):8.1,(AQ2:5.6,TQ:9.2):11.2)"


def _spec(**kw):
    base = dict(
        generator_1=CONTROL,
        generator_2=CONTROL,
        n_per_group=7,
        procedure=DirichletLRT(),
        replicates=50,
        master_seed=5,
    )
    base.update(kw)
    return SimSpec(**base)


def _replicate_rng(master_seed, i):
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(i,))
    )


def test_spec_validation():
    with pytest.raises(InputError):
        _spec(replicates=0)
    with pytest.raises(InputError):
        _spec(level=0.0)
    with pytest.raises(InputError):
        _spec(level=1.0)
    with pytest.raises(InputError):
        _spec(generator_2=DirichletParams(alpha=(1.0, 2.0, 3.0)))
    with pytest.raises(InputError):
        _spec(n_per_group=1)
    with pytest.raises(InputError):
        _spec(n_per_group=(7, 1))
    with pytest.raises(InputError):
        _spec(procedure=NddLRT(tree=flat_tree(3)))
    with pytest.raises(InputError):
        _spec(generator_1="not a generator")


@pytest.mark.parametrize(
    "field,value",
    [
        ("replicates", 2.5),
        ("replicates", 50.0),
        ("replicates", True),
        ("n_per_group", 5.5),
        ("n_per_group", (7, 5.5)),
        ("n_per_group", np.float64(7.0)),
        ("n_per_group", (5, 6, 7)),
    ],
)
def test_spec_sizes_must_be_integers(field, value):
    # A float count used to construct and then fail inside the study
    # (replicates) or be truncated (group sizes); a bool read as 1; three
    # group sizes failed in n_pair with a bare "too many values to unpack".
    gen = DirichletParams(alpha=(2.0, 3.0, 4.0))
    with pytest.raises(InputError, match="integer"):
        _spec(generator_1=gen, generator_2=gen, **{field: value})


@pytest.mark.parametrize("count", [0, -5, True, 2.5, 500.0])
def test_maugard_calibration_count_is_checked_at_construction(count):
    # A count below 1 used to fail only after the whole study had been
    # drawn and fitted.
    with pytest.raises(InputError, match="calibration replicates"):
        MaugardProcedure(calibration_replicates=count)


def test_spec_accepts_numpy_integer_sizes():
    spec = _spec(replicates=np.int64(3), n_per_group=(np.int32(5), 6))
    assert spec.n_pair == (5, 6)
    assert sum(run_type1_study(spec).counts.values()) == 3


_COUNT_GEN = DirichletParams(alpha=(2.0, 3.0, 4.0))


@pytest.mark.parametrize(
    "call",
    [
        lambda n: dirichlet.sample(_COUNT_GEN, n, np.random.default_rng(0)),
        lambda n: nested.sample(NddParams(tree=parse_tree("((a:2,b:3):4,c:1)")), n,
                                np.random.default_rng(0)),
        lambda n: simulate.run_correlation_check(_COUNT_GEN, n),
        treesearch.enumerate_trees,
        nested.flat_tree,
    ],
    ids=["dirichlet.sample", "nested.sample", "run_correlation_check", "enumerate_trees",
         "flat_tree"],
)
@pytest.mark.parametrize("n", [3.0, 3.5, np.float64(3.0), True])
def test_counts_must_be_integers(call, n):
    # A float count used to reach range() or numpy's size argument and raise
    # TypeError; a bool read as 1.
    with pytest.raises(InputError, match="integer"):
        call(n)
    # The same count as an integer, numpy's included, is accepted.
    call(np.int64(3))


SEEDS = (0, 1, 987654321, 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 1)
KEYS = (0, 1, 2**31, 2**32 - 1, *range(0, 50_000, 7))


@pytest.mark.parametrize("seed", SEEDS)
def test_replicate_seeding_matches_numpy_seed_sequence(seed):
    # The study seeds replicates with its own copy of numpy's SeedSequence
    # hash and PCG64 seeding rule; a numpy that changes either fails here.
    want = np.array([
        np.random.SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(4, np.uint64)
        for i in KEYS
    ])
    got = simulate._spawn_words(seed, np.array(KEYS, dtype=np.uint64))
    assert got.dtype == np.uint64
    assert np.array_equal(got, want)
    # One PCG64 serves a whole chunk; its whole state (state, inc,
    # has_uint32, uinteger) is reset at every replicate.
    for lo, hi in ((0, 3), (2**31 - 1, 2**31 + 1), (49_990, 50_000), (2**32 - 2, 2**32)):
        rngs = simulate._replicate_rngs(seed, lo, hi)
        for i, rng in zip(range(lo, hi), rngs, strict=True):
            assert rng.bit_generator.state == _replicate_rng(seed, i).bit_generator.state


def test_replicate_keys_from_2_to_the_32_are_refused():
    with pytest.raises(InputError, match="2\\*\\*32"):
        simulate._spawn_words(0, np.array([2**32], dtype=np.uint64))
    with pytest.raises(InputError):
        next(simulate._replicate_rngs(0, 2**32 - 1, 2**32 + 1))


@pytest.mark.parametrize("seed", [-1, np.int64(-1), -(2**70), 2.5, np.float64(3.0), "7"])
def test_invalid_master_seed_is_an_input_error(seed):
    with pytest.raises((TypeError, ValueError)):
        np.random.SeedSequence(entropy=seed, spawn_key=(0,))
    with pytest.raises(InputError, match="non-negative integer"):
        simulate._spawn_words(seed, np.arange(3, dtype=np.uint64))
    with pytest.raises(InputError, match="non-negative integer"):
        _spec(master_seed=seed)
    with pytest.raises(InputError, match="non-negative integer"):
        run_correlation_check(CONTROL, 10, master_seed=seed)


def _reference_stacks(spec, lo, hi):
    """The loop _draw_stacks replaces: a generator built per replicate from
    its SeedSequence, and one draw per group."""
    n1, n2 = spec.n_pair
    k = spec.n_components
    x1 = np.full((hi - lo, n1, k), 1.0 / k)
    x2 = np.full((hi - lo, n2, k), 1.0 / k)
    drawn = np.ones(hi - lo, dtype=bool)
    for j, i in enumerate(range(lo, hi)):
        rng = _replicate_rng(spec.master_seed, i)
        try:
            a = simulate._draw(spec.generator_1, n1, rng)
            b = simulate._draw(spec.generator_2, n2, rng)
        except NumericalError:
            drawn[j] = False
            continue
        x1[j], x2[j] = a, b
    return x1, x2, drawn


_TREE = NddParams(tree=parse_tree(BEST_TREE_TEXT))
_TINY = DirichletParams(alpha=(0.01,) * 4)
# Nine components: numpy sums a row of eight or more in pairs.
_WIDE = DirichletParams(alpha=np.linspace(0.5, 4.0, 9))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "gen1, gen2, n, seed, lo, hi",
    [
        (CONTROL, CONTROL, 100, 0, 1021, 1030),
        (_WIDE, _WIDE, 20, 8, 3, 40),
        (CONTROL, TREATMENT, (5, 11), 2**40 + 1, 17, 41),
        (_TREE, _TREE, 7, 4, 5, 25),
        (_TINY, _TINY, 3, 0, 100, 400),
    ],
    ids=["type1", "type1-k9", "power", "nested", "underflow"],
)
def test_draw_stacks_equal_per_replicate_generators_bitwise(gen1, gen2, n, seed, lo, hi):
    spec = _spec(generator_1=gen1, generator_2=gen2, n_per_group=n, master_seed=seed)
    got = simulate._draw_stacks(spec, lo, hi)
    want = _reference_stacks(spec, lo, hi)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()
    if gen1 is _TINY:
        assert 0 < (~want[2]).sum() < hi - lo


@pytest.mark.parametrize(
    "gen1, gen2, n",
    [
        (CONTROL, CONTROL, 100),
        (CONTROL, TREATMENT, (5, 11)),
        (_TREE, _TREE, 7),
        (_TINY, _TINY, 3),
    ],
    ids=["type1", "power", "nested", "underflow"],
)
def test_layout_draw_stacks_are_observation_major(gen1, gen2, n):
    # Each group is a view of one (n1 + n2, B, K) buffer: observation i of
    # every replicate is one contiguous (B, K) block.
    spec = _spec(generator_1=gen1, generator_2=gen2, n_per_group=n, master_seed=3)
    b, k = 70, spec.n_components
    x1, x2, drawn = simulate._draw_stacks(spec, 0, b)
    assert x1.base is x2.base is not None
    for x, size in zip((x1, x2), spec.n_pair):
        assert x.shape == (b, size, k)
        assert x.strides == (k * 8, b * k * 8, 8)
    if gen1 is _TINY:
        assert not drawn.all()


def _formula_carriers(spec, x):
    """The procedure's carriers of a C-ordered copy of a stack, reduced by
    the written-out formula."""
    x = np.ascontiguousarray(x)
    if isinstance(spec.procedure, NddLRT):
        keys = nested._child_leaf_sets(spec.procedure.tree)
        blocks = [nested._branch_blocks(children, x)[0] for children in keys]
    else:
        blocks = [x]
    return [(np.log(y).mean(axis=1), y.mean(axis=1), (y * y).mean(axis=1)) for y in blocks]


# One node of nine leaves: numpy sums eight or more columns in pairs.
_NINE_LEAF = parse_tree("((a:3,b:2,c:4,d:2.5,e:3.5,f:1.5,g:2,h:5,i:3):6,(j:4,k:2):5)")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "gen, procedure, n",
    [
        (_WIDE, DirichletLRT(), (20, 13)),
        (NddParams(tree=_NINE_LEAF), NddLRT(tree=_NINE_LEAF.strip_alphas()), 11),
    ],
    ids=["dirichlet-k9", "ndd-9-leaf-node"],
)
def test_layout_stream_carriers_equal_the_formula_on_c_ordered_draws(monkeypatch, gen, procedure, n):
    # Chunks of 150 replicates: the last chunk and its last stage block are
    # partial.
    spec = _spec(generator_1=gen, generator_2=gen, n_per_group=n, procedure=procedure,
                 replicates=400, master_seed=21)
    monkeypatch.setattr(inference, "_CHUNK_DRAWS", 150 * max(spec.n_pair) * spec.n_components)
    c1, c2, drawn = simulate._stream(spec)
    x1, x2, want_drawn = _reference_stacks(spec, 0, spec.replicates)
    assert drawn.tolist() == want_drawn.tolist()
    for carriers, x in ((c1, x1), (c2, x2)):
        want = _formula_carriers(spec, x)
        assert len(carriers) == len(want)
        for got, fields in zip(carriers, want):
            for name, value in zip(("mean_log", "mean", "mean_sq"), fields):
                assert getattr(got, name).tobytes() == value.tobytes(), name


@pytest.mark.parametrize("power, sizes", [(False, [15]), (True, [6, 9])])
def test_type1_dirichlet_study_draws_both_groups_in_one_call(monkeypatch, power, sizes):
    sample = dirichlet.sample
    calls = []

    def counted(params, n, rng):
        calls.append(n)
        return sample(params, n, rng)

    monkeypatch.setattr(dirichlet, "sample", counted)
    spec = _spec(generator_2=TREATMENT if power else CONTROL, n_per_group=(6, 9), replicates=30)
    (run_power_study if power else run_type1_study)(spec)
    # One call per replicate in a type-I cell, one per group in a power cell.
    assert calls == sizes * spec.replicates


def test_n_pair_accepts_scalar_or_tuple():
    assert _spec(n_per_group=9).n_pair == (9, 9)
    assert _spec(n_per_group=(8, 12)).n_pair == (8, 12)
    assert _spec().n_components == 4


def test_same_generator():
    assert same_generator(CONTROL, CONTROL)
    rebuilt = DirichletParams.from_mean_precision(
        (0.423, 0.194, 0.181, 0.202), 27.025
    )
    assert same_generator(CONTROL, rebuilt)
    assert not same_generator(CONTROL, TREATMENT)
    t1 = NddParams(tree=parse_tree("((a:2,b:3):1.5,c:4)"))
    t2 = NddParams(tree=parse_tree("((a:2,b:3):1.5,c:4)"))
    t3 = NddParams(tree=parse_tree("((a:2,b:3):1.5,c:5)"))
    assert same_generator(t1, t2)
    assert not same_generator(t1, t3)
    assert not same_generator(CONTROL, t1)
    # A named tree and its unnamed copy are one law.
    named = NddParams(tree=parse_tree("((a:5,b:5):3,(c:2,d:8):6)"))
    unnamed = NddParams(tree=NestingTree(root=named.tree.root))
    assert same_generator(named, unnamed)
    with pytest.raises(InputError, match="distinct"):
        run_power_study(_spec(generator_1=named, generator_2=unnamed, replicates=5))


def test_study_determinism_and_tally_math():
    spec = _spec(replicates=60)
    res1 = run_type1_study(spec)
    res2 = run_type1_study(spec)
    assert res1.counts == res2.counts
    assert res1.rates == res2.rates
    assert res1.mc_se == res2.mc_se

    assert set(res1.counts) == {REJECT, FAIL_TO_REJECT, FIT_FAILURE}
    assert sum(res1.counts.values()) == 60
    assert res1.counts[FIT_FAILURE] == 0
    for cat, cnt in res1.counts.items():
        assert res1.rates[cat] == cnt / 60
        p = res1.rates[cat]
        assert res1.mc_se[cat] == pytest.approx(np.sqrt(p * (1.0 - p) / 60))
    assert res1.procedure == "dirichlet-lrt"
    assert res1.n_per_group == (7, 7)
    assert res1.level == 0.05
    assert res1.master_seed == 5


def test_master_seed_changes_tally():
    r1 = run_type1_study(_spec(replicates=200, master_seed=1))
    r2 = run_type1_study(_spec(replicates=200, master_seed=2))
    assert r1.counts != r2.counts


def test_batch_matches_per_replicate_public_test():
    spec = _spec(
        generator_2=TREATMENT,
        n_per_group=(6, 9),
        replicates=25,
        master_seed=77,
        level=0.1,
    )
    res = run_power_study(spec)
    rejects = 0
    for i in range(25):
        rng = _replicate_rng(77, i)
        x1 = dirichlet.sample(CONTROL, 6, rng)
        x2 = dirichlet.sample(TREATMENT, 9, rng)
        ds = CompositionDataset.from_arrays(
            np.vstack([x1, x2]), ["a"] * 6 + ["b"] * 9
        )
        report = inference.two_sample_dirichlet_lrt(ds)
        rejects += int(report.p_value < 0.1)
    assert res.counts[REJECT] == rejects
    assert res.counts[FAIL_TO_REJECT] == 25 - rejects


NDD_STUDY_CASES = [
    # test tree spelled in another leaf order than the generators
    (BEST_TREE_TEXT, "((AQ1:6.0,OQ:14.0):8.1,(AQ2:5.6,TQ:9.2):11.2)", "((TQ,OQ),(AQ2,AQ1))"),
    # a three-child root over a shape the generators do not share
    ("((a:4,b:6):5,(c:3,d:7,e:5):8)", "((a:7,b:3):5,(c:3,d:7,e:5):8)", "((a,(b,c)),d,e)"),
    # the quadrant tree itself
    (BEST_TREE_TEXT, "((AQ1:6.0,OQ:14.0):8.1,(AQ2:5.6,TQ:9.2):11.2)", "((AQ1,OQ),(AQ2,TQ))"),
]


def test_ndd_study_matches_per_replicate_public_test():
    for gen_1, gen_2, test_tree in NDD_STUDY_CASES:
        gen1 = NddParams(tree=parse_tree(gen_1))
        gen2 = NddParams(tree=parse_tree(gen_2))
        tree = parse_tree(test_tree)
        spec = _spec(
            generator_1=gen1,
            generator_2=gen2,
            n_per_group=(6, 9),
            replicates=20,
            master_seed=19,
            procedure=NddLRT(tree=tree),
        )
        res = run_power_study(spec)
        tally = {REJECT: 0, FAIL_TO_REJECT: 0, FIT_FAILURE: 0}
        for i in range(20):
            rng = _replicate_rng(19, i)
            x1 = nested.sample(gen1, 6, rng)
            x2 = nested.sample(gen2, 9, rng)
            # Sampled columns follow generator 1's names; the test binds by name.
            ds = CompositionDataset.from_arrays(
                np.vstack([x1, x2]), ["a"] * 6 + ["b"] * 9, components=gen1.tree.leaf_names
            )
            report = inference.two_sample_ndd_lrt(ds, tree)
            if not report.converged:
                tally[FIT_FAILURE] += 1
            else:
                tally[REJECT if report.p_value < 0.05 else FAIL_TO_REJECT] += 1
        assert res.counts == tally, test_tree


def test_studies_bind_generator_2_and_test_tree_by_leaf_name():
    gen = NddParams(tree=parse_tree("((a:5,b:5):3,(c:2,d:8):6)"))
    reordered = NddParams(tree=parse_tree("((c:2,d:8):6,(a:5,b:5):3)"))
    shape = gen.tree.strip_alphas()
    spec = _spec(generator_1=gen, generator_2=reordered, n_per_group=10,
                 replicates=100, master_seed=1, procedure=NddLRT(tree=shape))
    # The same law in another leaf order is the same generator.
    assert same_generator(spec.generator_1, spec.generator_2)
    with pytest.raises(InputError, match="distinct"):
        run_power_study(spec)
    same = _spec(generator_1=gen, generator_2=gen, n_per_group=10,
                 replicates=100, master_seed=1, procedure=NddLRT(tree=shape))
    assert run_type1_study(spec).counts == run_type1_study(same).counts
    # Names already in generator 1's order keep the very same test tree.
    assert same.procedure.tree is shape

    # The three pairings of four leaves are three different tests.
    other = NddParams(tree=parse_tree("((a:5,b:9):3,(c:2,d:8):6)"))
    tallies = {
        text: run_power_study(
            _spec(generator_1=gen, generator_2=other, n_per_group=10, replicates=100,
                  master_seed=1, procedure=NddLRT(tree=parse_tree(text)))
        ).counts[REJECT]
        for text in ("((a,b),(c,d))", "((a,c),(b,d))", "((a,d),(b,c))")
    }
    assert len(set(tallies.values())) == 3

    with pytest.raises(InputError, match="generator 2"):
        _spec(generator_1=gen, generator_2=NddParams(tree=parse_tree("((a:5,b:5):3,(c:2,e:8):6)")),
              procedure=NddLRT(tree=shape))
    with pytest.raises(InputError, match="test tree"):
        _spec(generator_1=gen, generator_2=gen, procedure=NddLRT(tree=parse_tree("((a,b),(c,e))")))


def test_flat_tree_ndd_study_matches_dirichlet_study():
    dspec = _spec(replicates=40, master_seed=9)
    nspec = _spec(replicates=40, master_seed=9, procedure=NddLRT(tree=flat_tree(4)))
    rd = run_type1_study(dspec)
    rn = run_type1_study(nspec)
    assert rd.counts[REJECT] == rn.counts[REJECT]
    assert rd.counts[FAIL_TO_REJECT] == rn.counts[FAIL_TO_REJECT]


@pytest.mark.parametrize("calibration_replicates", [None, 500], ids=["uncalibrated", "calibrated"])
def test_maugard_study_matches_per_replicate_procedure(calibration_replicates):
    spec = _spec(
        procedure=MaugardProcedure(calibration_replicates=calibration_replicates),
        replicates=20,
        master_seed=31,
    )
    res = run_type1_study(spec)
    x1, x2, _ = simulate._draw_stacks(spec, 0, spec.replicates)
    outcomes, ok = simulate._maugard_outcomes(
        spec, simulate._carriers(spec, x1), simulate._carriers(spec, x2)
    )
    tally = {
        inference.REJECT_BOTH: 0,
        inference.REJECT_ONE: 0,
        inference.FAIL_BOTH: 0,
    }
    for i in range(20):
        rng = _replicate_rng(31, i)
        x1 = dirichlet.sample(CONTROL, 7, rng)
        x2 = dirichlet.sample(CONTROL, 7, rng)
        ds = CompositionDataset.from_arrays(
            np.vstack([x1, x2]), ["a"] * 7 + ["b"] * 7
        )
        verdict = inference.maugard_procedure(
            ds, calibration_replicates=calibration_replicates
        ).verdict
        assert verdict == outcomes[i] and ok[i]
        tally[verdict] += 1
    for cat, want in tally.items():
        assert res.counts[cat] == want
    assert res.counts[FIT_FAILURE] == 0


# The ids say whether the decisions are calibrated.
@pytest.mark.parametrize("calibration_replicates", [300, None], ids=["True", "False"])
def test_maugard_groups_fit_as_one_batch_equal_to_per_group_batches(calibration_replicates):
    # The study fits both groups as one stacked batch; each group's rows,
    # and its decisions against its own n's calibration, are those of a
    # batch of that group alone.
    proc = MaugardProcedure(calibration_replicates=calibration_replicates)
    spec = _spec(procedure=proc, n_per_group=(7, 9), replicates=40, master_seed=23)
    c1, c2, _ = simulate._stream(spec)
    both = inference._uniformity_lrt_batch(SufficientStats.concat([c1[0], c2[0]]))
    p, ok = [], True
    for rows, (stats,), n in zip((slice(0, 40), slice(40, 80)), (c1, c2), (7, 9)):
        alone = inference._uniformity_lrt_batch(stats)
        for key in alone:
            assert both[key][rows].tobytes() == alone[key].tobytes(), key
        good = alone["usable"] & alone["converged"]
        stat = alone["statistic"]
        if calibration_replicates is None:
            p.append(chi_square_sf(np.where(good, stat, 0.0), 3))
        else:
            p.append(inference._calibrated_p(stat, n, 4, 300))
        ok = ok & good
    outcomes, got_ok = simulate._maugard_outcomes(spec, c1, c2)
    assert outcomes.tolist() == inference._maugard_verdicts(p[0], p[1], spec.level).tolist()
    assert got_ok.tolist() == ok.tolist()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "procedure",
    [
        DirichletLRT(),
        NddLRT(tree=parse_tree(BEST_TREE_TEXT).strip_alphas()),
        MaugardProcedure(calibration_replicates=None),
    ],
    ids=["dirichlet-lrt", "ndd-lrt", "maugard"],
)
def test_unusable_replicate_is_a_fit_failure(monkeypatch, procedure):
    # Replicate 4's second group repeats one row, so every component is
    # constant there and no fit of that replicate is usable.
    spec = _spec(procedure=procedure, replicates=200, master_seed=3)
    x1, x2, drawn = simulate._draw_stacks(spec, 0, spec.replicates)
    bad = x2.copy()
    bad[4] = bad[4, 0]
    if isinstance(procedure, MaugardProcedure):
        outcomes = simulate._maugard_outcomes
    else:
        outcomes = simulate._lrt_outcomes
    c1 = simulate._carriers(spec, x1)
    base, base_ok = outcomes(spec, c1, simulate._carriers(spec, x2))
    got, got_ok = outcomes(spec, c1, simulate._carriers(spec, bad))
    assert base_ok[4] and not got_ok[4]
    others = np.arange(spec.replicates) != 4
    assert np.array_equal(got[others], base[others])
    assert np.array_equal(got_ok[others], base_ok[others])

    monkeypatch.setattr(
        simulate, "_draw_stacks",
        lambda _, lo, hi: (x1[lo:hi], bad[lo:hi], drawn[lo:hi]),
    )
    res = run_type1_study(spec)
    ok = got_ok & drawn
    assert res.counts[FIT_FAILURE] == int((~ok).sum()) >= 1
    for cat in procedure.categories[:-1]:
        assert res.counts[cat] == int((got[ok] == cat).sum())


@pytest.mark.parametrize(
    "procedure",
    [
        DirichletLRT(),
        NddLRT(tree=parse_tree(BEST_TREE_TEXT).strip_alphas()),
        MaugardProcedure(calibration_replicates=300),
    ],
    ids=["dirichlet-lrt", "ndd-lrt", "maugard"],
)
def test_streamed_study_equals_one_chunk_bitwise(monkeypatch, procedure):
    chunk = 8
    draw_stacks = simulate._draw_stacks
    calls = []

    def counted(spec, lo, hi):
        calls.append((lo, hi))
        return draw_stacks(spec, lo, hi)

    monkeypatch.setattr(simulate, "_draw_stacks", counted)
    for r in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
        spec = _spec(procedure=procedure, replicates=r, master_seed=13)
        runs = []
        for rows in (r, chunk):
            draws = rows * max(spec.n_pair) * spec.n_components
            monkeypatch.setattr(inference, "_CHUNK_DRAWS", draws)
            calls.clear()
            c1, c2, drawn = simulate._stream(spec)
            res = run_type1_study(spec)
            runs.append((c1 + c2, drawn, res.counts))
        assert len(calls) == 2 * -(-r // chunk)  # _stream, then the study
        (whole, whole_drawn, whole_counts), (parts, drawn, counts) = runs
        assert counts == whole_counts
        assert np.array_equal(drawn, whole_drawn)
        assert len(parts) == len(whole)
        for got, want in zip(parts, whole):
            for name in ("n", "mean_log", "mean", "mean_sq"):
                assert np.array_equal(getattr(got, name), getattr(want, name))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_study_memory_is_flat_in_the_replicate_count():
    # Doubling R adds (R, K) statistics and fit state, never (R, n, K) draws:
    # less than one chunk's stack of one group.
    n, k = 100, 4
    chunk = inference._chunk_rows(n, k)

    def peak(r):
        spec = _spec(n_per_group=n, replicates=r, master_seed=17)
        tracemalloc.start()
        try:
            run_type1_study(spec)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4 * chunk) - peak(2 * chunk) < chunk * n * k * 8


def test_fit_temporaries_do_not_grow_with_the_replicate_count(monkeypatch):
    # From 2 to 8 blocks of rows, the peak of the two-sample fits grows by
    # their (R, K) carriers, state and results alone: about 330 bytes a
    # replicate at K = 4 here, under a budget of 64 doubles. Iterating all
    # rows at once, the iteration temporaries added about 1.1 KB more.
    block = 512
    monkeypatch.setattr(dirichlet, "_BLOCK_ROWS", block)

    def peak(r):
        spec = _spec(n_per_group=100, replicates=r, master_seed=17)
        c1, c2, _ = simulate._stream(spec)
        tracemalloc.start()
        try:
            simulate._lrt_outcomes(spec, c1, c2)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(8 * block) - peak(2 * block) < 6 * block * 64 * 8


def test_common_mean_fit_temporaries_do_not_grow_with_the_batch():
    # Start values, iterations and results run per block of rows, so the
    # peak above entry, net of the returned arrays, is that of one block.
    rng = np.random.default_rng(29)

    def net_peak(b):
        s1, s2 = (SufficientStats.reduce(rng.dirichlet((9.8, 6.1, 5.4, 5.9), size=(b, 7)))
                  for _ in range(2))
        init = np.full((b, 4), 0.25), np.full(b, 20.0), np.full(b, 25.0)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            out = inference._common_mean_fit(s1, s2, *init)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - entry - sum(a.nbytes for a in out)

    small, large = net_peak(4096), net_peak(16384)
    assert abs(large - small) <= 0.1 * small, (small, large)


def test_common_mean_line_search_takes_no_log_of_zero():
    # At alpha = 0.05 and n = 3 the common-mean line search tries means with
    # a share softmaxed to zero; they must be rejected before lgamma sees a
    # zero argument. The null fit's digamma and trigamma arguments reach
    # 1e-160 and below, so it evaluates them at z + 1 and must raise no
    # warning of its own. Recorded, not raised: the cell's other fits are
    # held only to the 140 warnings block-coordinate ascent raised here (74
    # from inference.py).
    gen = DirichletParams(alpha=(0.05,) * 4)
    spec = _spec(
        generator_1=gen, generator_2=gen, n_per_group=3,
        replicates=2000, master_seed=0,
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = run_type1_study(spec)
    messages = {str(w.message) for w in caught}
    assert "divide by zero encountered in log" not in messages
    assert [w for w in caught if w.filename.endswith("inference.py")] == []
    assert len(caught) <= 140
    assert res.counts == {REJECT: 318, FAIL_TO_REJECT: 1681, FIT_FAILURE: 1}


def test_calibrated_maugard_study_runs_and_is_deterministic():
    spec = _spec(
        procedure=MaugardProcedure(calibration_replicates=500),
        replicates=10,
        master_seed=41,
    )
    res1 = run_type1_study(spec)
    res2 = run_type1_study(spec)
    assert res1.counts == res2.counts
    assert sum(res1.counts.values()) == 10


def test_study_kind_guards():
    with pytest.raises(InputError):
        run_type1_study(_spec(generator_2=TREATMENT))
    with pytest.raises(InputError):
        run_power_study(_spec())


def test_result_counts_must_partition_replicates():
    with pytest.raises(InputError):
        SimResult(
            procedure="dirichlet-lrt",
            counts={REJECT: 3, FAIL_TO_REJECT: 4, FIT_FAILURE: 0},
            rates={},
            mc_se={},
            replicates=10,
            n_per_group=(5, 5),
            level=0.05,
            master_seed=0,
            wall_time_seconds=0.0,
        )


def test_lower_level_rejects_less():
    strict = run_type1_study(_spec(replicates=100, level=0.01, master_seed=21))
    lax = run_type1_study(_spec(replicates=100, level=0.5, master_seed=21))
    assert strict.counts[REJECT] < lax.counts[REJECT]


def test_power_exceeds_size_at_moderate_n():
    size = run_type1_study(_spec(replicates=150, n_per_group=20, master_seed=3))
    power = run_power_study(
        _spec(generator_2=TREATMENT, replicates=150, n_per_group=20, master_seed=3)
    )
    assert size.rates[REJECT] < 0.15
    assert power.rates[REJECT] > 0.5


def test_correlation_check():
    best = NddParams(tree=parse_tree(BEST_TREE_TEXT))
    c1 = run_correlation_check(best, 4000, master_seed=12)
    c2 = run_correlation_check(best, 4000, master_seed=12)
    assert np.array_equal(c1, c2)
    assert c1.shape == (4, 4)
    assert np.allclose(np.diag(c1), 1.0)
    # tree leaf order is AQ1, OQ, AQ2, TQ: the nested pair correlates
    # positively, quadrants across the split negatively
    assert c1[0, 1] > 0.1
    assert c1[3, 0] < -0.3

    flat = run_correlation_check(CONTROL, 4000, master_seed=4)
    off = flat[~np.eye(4, dtype=bool)]
    assert np.all(off < 0.0)

    with pytest.raises(InputError):
        run_correlation_check(best, 2)
