import numpy as np
import pytest
from hypothesis import given, strategies as st

from dais import (
    StepSizeScheme,
    constant_steps,
    make_linear_schedule,
    make_stepsize_scheme,
)


def test_linear_schedule_quarters():
    assert make_linear_schedule(4).betas.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_linear_schedule_minimal():
    assert make_linear_schedule(1).betas.tolist() == [0.0, 1.0]


def test_linear_schedule_formula():
    assert make_linear_schedule(10).betas[7] == pytest.approx(0.7)


def test_linear_schedule_rejects_zero():
    with pytest.raises(ValueError):
        make_linear_schedule(0)


@given(st.integers(min_value=1, max_value=5000))
def test_linear_schedule_invariants(K):
    sched = make_linear_schedule(K)
    assert sched.K == K
    assert sched.betas[0] == 0.0
    assert sched.betas[-1] == 1.0
    assert np.all(np.diff(sched.betas) >= 0)
    assert np.array_equal(sched.betas, np.arange(K + 1) / K)


def test_constant_exponent_zero():
    steps = make_stepsize_scheme(0.1, 0.0, 1000)
    assert steps.eta == np.float64(0.1 * 1000 ** -0.0)


def test_stepsize_rejects_nonpositive_base():
    with pytest.raises(ValueError):
        make_stepsize_scheme(0.0, 0.25, 10)
    with pytest.raises(ValueError):
        make_stepsize_scheme(-1.0, 0.25, 10)


@given(
    st.floats(min_value=0.01, max_value=3.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=1, max_value=10000),
)
def test_stepsize_scheme_positive(a, c, K):
    steps = make_stepsize_scheme(a, c, K)
    assert steps.eta > 0
    assert steps.eta == np.float64(a * K ** -c)


def test_degenerate_zero_steps_allowed():
    steps = constant_steps(0.0, 5)
    assert steps.eta == 0.0


def test_stepsize_scheme_rejects_zero_steps():
    with pytest.raises(ValueError, match="K must be >= 1"):
        StepSizeScheme(0.1, 0.0, 0)
