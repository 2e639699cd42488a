import numpy as np
import pytest
from hypothesis import given, strategies as st

from dais import (
    AnnealingSchedule,
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


def test_schedule_rejects_bad_endpoints():
    with pytest.raises(ValueError):
        AnnealingSchedule([0.1, 1.0])
    with pytest.raises(ValueError):
        AnnealingSchedule([0.0, 0.9])
    with pytest.raises(ValueError):
        AnnealingSchedule([0.0, 0.6, 0.5, 1.0])


def test_constant_exponent_zero():
    steps = make_stepsize_scheme(0.1, 0.0, 1000)
    assert np.all(steps.per_step == 0.1)


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
    assert steps.per_step.shape == (K,)
    assert np.all(steps.per_step > 0)
    assert steps.per_step[0] == pytest.approx(a * K ** (-c))


def test_degenerate_zero_steps_allowed():
    steps = constant_steps(0.0, 5)
    assert np.all(steps.per_step == 0.0)
