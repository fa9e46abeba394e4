"""Properties of the special functions and tails, over inputs hypothesis
draws. Every test is derandomized, so a run draws the same inputs each time
and keeps no example database.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from simplexstats import numerics
from simplexstats.numerics import (
    chi_square_sf,
    digamma,
    regularized_gamma_p,
    regularized_gamma_q,
    trigamma,
)
from test_numerics import REFERENCE_CORES, assert_bitwise

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

derandomized = settings(derandomize=True, database=None, deadline=None, max_examples=300)

shape = st.floats(min_value=1e-3, max_value=1e4)
# Arguments of a tail, from 0 up to and including infinity.
point = st.one_of(st.floats(min_value=0.0, max_value=1e6), st.just(np.inf))


@derandomized
@given(a=shape, x=point)
def test_lower_and_upper_regularized_gamma_add_up_to_one(a, x):
    p, q = regularized_gamma_p(a, x), regularized_gamma_q(a, x)
    assert 0.0 <= p <= 1.0 and 0.0 <= q <= 1.0
    assert p + q == pytest.approx(1.0, abs=1e-13)


@derandomized
@given(df=st.integers(min_value=1, max_value=200), x=point, y=point)
def test_chi_square_sf_lies_in_the_unit_interval_and_falls_as_x_grows(df, x, y):
    lo, hi = sorted((x, y))
    sf_lo, sf_hi = chi_square_sf(lo, df), chi_square_sf(hi, df)
    assert 0.0 <= sf_hi <= sf_lo <= 1.0
    assert chi_square_sf(np.inf, df) == 0.0


@derandomized
@given(x=st.floats(min_value=numerics._DIGAMMA_MIN, max_value=1e8))
def test_digamma_recurrence_holds_down_to_its_range_bound(x):
    # psi(x) = psi(x + 1) - 1/x, in the form that keeps its precision at
    # tiny x, where psi(x) is about -1/x.
    assert np.isclose(digamma(x), digamma(x + 1.0) - 1.0 / x, rtol=1e-11, atol=1e-11)


@derandomized
@given(x=st.floats(min_value=numerics._TRIGAMMA_MIN, max_value=1e8))
def test_trigamma_recurrence_holds_down_to_its_range_bound(x):
    # psi1(x) = psi1(x + 1) + 1/x^2.
    assert np.isclose(trigamma(x), trigamma(x + 1.0) + 1.0 / (x * x), rtol=1e-10, atol=1e-12)


@derandomized
@given(
    form=st.sampled_from(sorted(REFERENCE_CORES)),
    x=arrays(
        float,
        array_shapes(min_dims=0, max_dims=2, max_side=6),
        elements=st.floats(min_value=numerics._DIGAMMA_MIN, max_value=1e150),
    ),
)
def test_special_cores_match_reference_bitwise_anywhere(form, x):
    core, ref, least = REFERENCE_CORES[form]
    x = np.asarray(np.maximum(x, least))
    assert_bitwise(core(x), ref(x), x.shape)
