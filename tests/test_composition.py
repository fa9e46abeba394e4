"""Dataset handling, validation, and log-ratio transforms."""

import tracemalloc

import numpy as np
import pytest

from simplexstats.composition import (
    CompositionDataset,
    SufficientStats,
    clr,
    sample_correlation,
    validate,
)
from simplexstats.errors import (
    DegenerateDataError,
    DimensionMismatchError,
    EmptyGroupError,
    InputError,
    NotNormalizedError,
    TooFewComponentsError,
    ZeroComponentError,
)


def _toy_dataset():
    matrix = np.array(
        [
            [0.5, 0.3, 0.2],
            [0.4, 0.4, 0.2],
            [0.25, 0.5, 0.25],
            [0.3, 0.3, 0.4],
            [0.2, 0.45, 0.35],
        ]
    )
    labels = ["a", "a", "b", "b", "b"]
    return CompositionDataset.from_arrays(matrix, labels, components=("x", "y", "z"))


def test_validate_accepts_rows_on_the_simplex():
    out = validate(np.array([[0.2, 0.8], [0.5, 0.5]]))
    assert out.shape == (2, 2)


def test_validate_rejects_zero_and_unnormalized():
    with pytest.raises(ZeroComponentError):
        validate(np.array([0.0, 1.0]))
    with pytest.raises(NotNormalizedError):
        validate(np.array([0.6, 0.6]))


def test_validate_tolerance_is_configurable():
    x = np.array([0.5, 0.5004])
    with pytest.raises(NotNormalizedError):
        validate(x)
    out = validate(x, sum_tolerance=1e-3)
    assert out.shape == (2,)


def test_sufficient_stats_from_matrix():
    x = np.array([[0.2, 0.8], [0.4, 0.6]])
    s = SufficientStats.from_matrix(x)
    assert s.n == 2
    assert np.allclose(s.mean_log, np.log(x).mean(axis=0))
    assert np.allclose(s.mean, x.mean(axis=0))
    assert np.allclose(s.mean_sq, (x * x).mean(axis=0))


def test_stacked_stats_equal_per_matrix_stats_bitwise():
    cases = (
        np.random.default_rng(17).dirichlet([2.0, 5.0, 3.0], size=(6, 9)) * 1.0000001,
        # Validation moves these rows by up to 1.1e-16, which moves one mean
        # log of the raw draws' statistics by 4.4e-16.
        np.random.default_rng(47).dirichlet([6.0, 4.0, 3.0, 5.0], size=(1, 9)),
    )
    for raw in cases:
        stacked = SufficientStats.reduce(np.stack([validate(m) for m in raw]))
        assert stacked.stacked
        assert stacked.n.tolist() == [9.0] * raw.shape[0]
        for i, m in enumerate(raw):
            one = SufficientStats.from_matrix(m)
            assert not one.stacked and one.n == 9
            for name in ("mean_log", "mean", "mean_sq"):
                assert np.array_equal(getattr(stacked, name)[i], getattr(one, name))


def test_stats_reduced_in_parts_and_joined_equal_the_whole_bitwise():
    x = np.random.default_rng(23).dirichlet([0.5, 2.0, 7.0, 1.5], size=(9, 6))
    whole = SufficientStats.reduce(x)
    joined = SufficientStats.concat(
        [SufficientStats.reduce(x[lo:hi]) for lo, hi in ((0, 1), (1, 5), (5, 9))]
    )
    for name in ("n", "mean_log", "mean", "mean_sq"):
        assert np.array_equal(getattr(joined, name), getattr(whole, name))


def _formula_stats(x):
    """Each replicate's statistics of a C-ordered (B, n, K) stack, written out."""
    return np.log(x).mean(axis=1), x.mean(axis=1), (x * x).mean(axis=1)


# Layout guards: the studies reduce observation-major views of their draws
# (simulate._draw_stacks), and their statistics must equal a C-ordered
# stack's bit for bit. Widths from 8 up are where numpy sums in pairs.
@pytest.mark.parametrize("k", [2, 4, 8, 9, 12])
@pytest.mark.parametrize("b", [1, 5, 1024])
def test_layout_observation_major_view_reduces_as_its_c_ordered_copy_bitwise(b, k):
    rng = np.random.default_rng(b * 100 + k)
    for n in (2, 7, 8, 9, 100, 129):
        # Observations 3 on of an observation-major buffer, as a study's
        # group 2 is.
        buf = rng.dirichlet(np.linspace(0.3, 6.0, k), size=(n + 3, b))
        view = buf[3:].transpose(1, 0, 2)
        copy = np.ascontiguousarray(view)
        assert view.strides[1] == max(view.strides) and copy.flags.c_contiguous
        got, want = SufficientStats.reduce(view), SufficientStats.reduce(copy)
        formula = _formula_stats(copy)
        for name, value in zip(("mean_log", "mean", "mean_sq"), formula):
            assert getattr(got, name).tobytes() == value.tobytes(), (n, name)
            assert getattr(want, name).tobytes() == value.tobytes(), (n, name)
        assert got.n.tolist() == want.n.tolist() == [float(n)] * b


def test_concat_builds_each_joined_field_once():
    rng = np.random.default_rng(5)
    parts = [
        SufficientStats.reduce(rng.dirichlet([1.0, 2.0, 3.0, 4.0], size=(8192, 3)))
        for _ in range(2)
    ]
    joined_bytes = 16384 * 8 * (1 + 3 * 4)
    tracemalloc.start()
    try:
        joined = SufficientStats.concat(parts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert joined.mean_log.shape == (16384, 4)
    assert not joined.mean_log.flags.writeable
    assert peak <= 1.25 * joined_bytes


def test_sufficient_stats_reject_bad_shapes():
    p = np.full((2, 2, 3), 1.0 / 3.0)
    with pytest.raises(DimensionMismatchError):
        SufficientStats(n=np.full((2, 2), 5.0), mean_log=np.log(p), mean=p, mean_sq=p * p)
    q = p[0]
    with pytest.raises(DimensionMismatchError):
        SufficientStats(n=5, mean_log=np.log(q), mean=q, mean_sq=q * q)
    with pytest.raises(DimensionMismatchError):
        SufficientStats(n=5, mean_log=np.log(q[0]), mean=q, mean_sq=q * q)
    with pytest.raises(InputError):
        SufficientStats.from_matrix(p)


def test_dataset_groups_keep_first_appearance_order():
    ds = _toy_dataset()
    assert ds.groups == ("a", "b")
    assert ds.n_observations == 5
    assert ds.n_components == 3
    assert ds.group_matrix("a").shape == (2, 3)
    assert ds.group_matrix("b").shape == (3, 3)


def test_group_dataset_holds_one_groups_rows_and_components():
    ds = _toy_dataset()
    sub = ds.group_dataset("b")
    assert sub.components == ds.components
    assert sub.labels == ("b", "b", "b")
    assert np.array_equal(sub.matrix, ds.group_matrix("b"))
    with pytest.raises(EmptyGroupError):
        ds.group_dataset("missing")


def test_dataset_default_component_names():
    ds = CompositionDataset.from_arrays(np.array([[0.5, 0.5]]), ["g"])
    assert ds.components == ("c1", "c2")


def test_dataset_component_index_and_errors():
    ds = _toy_dataset()
    assert ds.component_index("y") == 1
    with pytest.raises(InputError):
        ds.component_index("nope")
    with pytest.raises(EmptyGroupError):
        ds.group_matrix("missing")


def test_dataset_rejects_mismatched_labels():
    with pytest.raises(DimensionMismatchError):
        CompositionDataset.from_arrays(np.array([[0.5, 0.5]]), ["a", "b"])


def test_dataset_needs_two_components():
    with pytest.raises(TooFewComponentsError):
        CompositionDataset.from_arrays(np.array([[1.0]]), ["a"])


def test_clr_rows_sum_to_zero():
    x = np.array([[0.2, 0.3, 0.5], [0.1, 0.6, 0.3]])
    z = clr(x)
    assert np.allclose(z.sum(axis=1), 0.0, atol=1e-14)
    assert np.allclose(z, np.log(x) - np.log(x).mean(axis=1, keepdims=True))


def test_sample_correlation_pooled_matches_numpy():
    ds = _toy_dataset()
    ref = np.corrcoef(ds.matrix, rowvar=False)
    assert np.allclose(sample_correlation(ds), ref, atol=1e-12)


def test_sample_correlation_needs_variation():
    with pytest.raises(DegenerateDataError):
        sample_correlation(np.array([[0.5, 0.5]]))
    with pytest.raises(DegenerateDataError):
        sample_correlation(np.array([[0.5, 0.5], [0.5, 0.5]]))
