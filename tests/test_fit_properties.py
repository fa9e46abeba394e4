"""Properties of the batched fits, over stacks of datasets hypothesis draws.

Each dataset draws n observations from a Dirichlet law with concentrations
from 0.05 to 1e4 and K from 2 to 8; a stack holds up to four datasets of
different sizes, and the two groups of a two-sample row differ in size too.
Concentrations stay at or below 1e4: above about 1e6 the fits can stop short
of the maximum (ROADMAP item 2). Every test is derandomized, so a run draws
the same inputs each time and keeps no example database.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexstats import dirichlet, inference
from simplexstats.composition import SufficientStats
from simplexstats.dirichlet import DirichletParams

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

derandomized = settings(derandomize=True, database=None, deadline=None, max_examples=60)

FIELDS = ("n", "mean_log", "mean", "mean_sq")


@st.composite
def stacks(draw, groups):
    """groups stacked carriers of the same K and row count: row i of each
    reduces its own draw of its own law and size."""
    k = draw(st.integers(min_value=2, max_value=8))
    rows = draw(st.integers(min_value=1, max_value=4))
    concentration = st.floats(min_value=np.log(0.05), max_value=np.log(1e4))
    out = []
    for _ in range(groups):
        parts = []
        for _ in range(rows):
            alpha = np.exp(draw(st.lists(concentration, min_size=k, max_size=k)))
            n = draw(st.integers(min_value=2, max_value=200))
            rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
            x = dirichlet.sample(DirichletParams(alpha=tuple(alpha)), n, rng)
            parts.append(SufficientStats.reduce(x[None]))
        out.append(SufficientStats.concat(parts))
    return out


def _row(stats: SufficientStats, i: int) -> SufficientStats:
    return SufficientStats(**{name: getattr(stats, name)[i : i + 1] for name in FIELDS})


@derandomized
@given(stacks(groups=1))
def test_fit_batch_rows_equal_their_single_row_fits_bitwise(stats):
    (stats,) = stats
    whole = dirichlet._fit_batch(stats)
    for i in range(stats.n.size):
        alone = dirichlet._fit_batch(_row(stats, i))
        for got, want in zip(whole, alone):
            assert got[i : i + 1].tobytes() == want.tobytes()
    alpha, ll, _, _, usable = whole
    assert np.all(alpha[usable] > 0.0) and np.all(np.isfinite(ll[usable]))


@derandomized
@given(stacks(groups=2))
def test_two_sample_lrt_rows_equal_their_single_row_tests_bitwise(groups):
    stats1, stats2 = groups
    whole = inference._two_sample_lrt_batch(stats1, stats2)
    for i in range(stats1.n.size):
        alone = inference._two_sample_lrt_batch(_row(stats1, i), _row(stats2, i))
        assert whole.keys() == alone.keys()
        for key, want in alone.items():
            assert whole[key][i : i + 1].tobytes() == want.tobytes(), key
    lam = whole["statistic"][whole["usable"]]
    assert np.all(np.isfinite(lam)) and np.all(lam >= 0.0)


@derandomized
@given(stacks(groups=2))
def test_two_sample_lrt_is_invariant_to_swapping_the_groups(groups):
    # The null fit's group axis carries no order: with the groups swapped,
    # every row keeps its usable and converged flags, and its statistic
    # moves by rounding alone, at most 1e-8 (1 + lambda).
    stats1, stats2 = groups
    ab = inference._two_sample_lrt_batch(stats1, stats2)
    ba = inference._two_sample_lrt_batch(stats2, stats1)
    assert ab["usable"].tolist() == ba["usable"].tolist()
    assert ab["converged"].tolist() == ba["converged"].tolist()
    lam = ab["statistic"][ab["usable"]]
    assert np.all(np.abs(ba["statistic"][ab["usable"]] - lam) <= 1e-8 * (1.0 + lam))
