import numbers
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dais import (
    InfoBuffer,
    StepSizeScheme,
    TransitionConfig,
    additive_noise_cov,
    blr_target,
    dais_bound_mc,
    gen_blr_data,
    generator,
    make_linear_schedule,
    make_stepsize_scheme,
    reversible_backward,
    reversible_forward,
    sample_chains,
)
from dais.schedules import count, is_integer


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


@pytest.mark.parametrize("a, c, refusal", [
    (np.inf, 0.25, "base step size a must be finite and positive, got inf"),
    (-np.inf, 0.25, "base step size a must be finite and positive, got -inf"),
    (np.nan, 0.25, "base step size a must be finite and positive, got nan"),
    (0.3, -0.25, "exponent c must be finite and non-negative, got -0.25"),
    (0.3, np.inf, "exponent c must be finite and non-negative, got inf"),  # K ** -inf would give eta = 0
    (0.3, np.nan, "exponent c must be finite and non-negative, got nan"),
])
def test_stepsize_rejects_a_non_finite_base_or_a_bad_exponent(a, c, refusal):
    with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
        make_stepsize_scheme(a, c, 16)


@pytest.mark.parametrize("eta", [-0.1, -np.inf, np.inf, np.nan])
def test_stepsize_scheme_rejects_a_negative_or_non_finite_eta(eta):
    with pytest.raises(ValueError, match="^step size must be finite and non-negative, got "):
        StepSizeScheme(16, eta)


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
    steps = StepSizeScheme(5, 0.0)
    assert steps.eta == 0.0


def test_stepsize_scheme_rejects_zero_steps():
    with pytest.raises(ValueError, match="K must be >= 1"):
        StepSizeScheme(0, 0.1)
    with pytest.raises(ValueError, match="K must be >= 1"):
        make_stepsize_scheme(1.0, 0.25, 0)  # 0 ** -0.25 would divide by zero


@pytest.mark.parametrize("K", [8.5, np.float64(8.0), True])
def test_chain_length_must_be_an_integer(K):
    # 8.5 once built betas ending past 1 and failed later; True ran a K = 1 chain
    with pytest.raises(ValueError, match="K must be an integer"):
        make_linear_schedule(K)
    with pytest.raises(ValueError, match="K must be an integer"):
        StepSizeScheme(K, 0.1)
    with pytest.raises(ValueError, match="K must be an integer"):
        make_stepsize_scheme(0.3, 0.25, K)


def test_numpy_integer_chain_length_is_accepted():
    # and held as a Python int: np.int64(8) ** -1 raises where 8 ** -1 is 0.125
    K = np.int64(8)
    assert make_linear_schedule(K).betas.tolist() == make_linear_schedule(8).betas.tolist()
    for c in (0.25, 1):
        assert make_stepsize_scheme(0.3, c, K).eta == make_stepsize_scheme(0.3, c, 8).eta
    assert type(make_linear_schedule(K).K) is type(StepSizeScheme(K, 0.1).K) is int


class _RegisteredIntegral:
    """A user type that declares itself a ``numbers.Integral``."""


numbers.Integral.register(_RegisteredIntegral)


class _IntSubclass(int):
    pass


NUMPY_INTEGER_TYPES = list(dict.fromkeys(np.dtype(code).type for code in np.typecodes["AllInteger"]))
IS_INTEGER_TABLE = (
    [(3, True), (True, False), (np.True_, False)]
    + [(t(3), True) for t in NUMPY_INTEGER_TYPES]
    + [(3.0, False), (np.float64(3.0), False), (Fraction(3), False), (_RegisteredIntegral(), True),
       (_IntSubclass(3), True), ("3", False), (None, False)]
)


@pytest.mark.parametrize("value, expected", IS_INTEGER_TABLE,
                         ids=[f"{type(value).__module__}.{type(value).__name__}" for value, _ in IS_INTEGER_TABLE])
def test_is_integer_answers(value, expected):
    # a Python or numpy integer, or any declared numbers.Integral; never a bool
    assert is_integer(value) is expected


def _chains(n_chains, bound=False):
    model = gen_blr_data(20, 2, 0)
    run = dais_bound_mc if bound else sample_chains
    return run(blr_target(model), make_linear_schedule(3), StepSizeScheme(3, 0.1), TransitionConfig(),
               n_chains, generator(0))


def _pop(modulus):
    buffer = InfoBuffer(1)
    buffer.push([2], 3)
    return buffer.pop(modulus)


def _reversible_chain():
    return (blr_target(gen_blr_data(20, 2, 0)), make_linear_schedule(3), StepSizeScheme(3, 0.1),
            TransitionConfig(gamma=0.9))


def _forward(s0):
    return reversible_forward(*_reversible_chain(), s0, np.zeros(2), np.zeros(2))


def _backward(seed):
    fwd = _forward(3)
    return reversible_backward(*_reversible_chain(), fwd.fixed, None, seed, fwd.buffer)


# every integer count and seed the package takes, by the name its error gives
COUNT_SITES = {
    "K-schedule": ("K", make_linear_schedule),
    "K-steps": ("K", lambda n: StepSizeScheme(n, 0.1)),
    "K-stepsize": ("K", lambda n: make_stepsize_scheme(0.3, 0.25, n)),
    "n_chains-sample": ("n_chains", _chains),
    "n_chains-bound": ("n_chains", lambda n: _chains(n, bound=True)),
    "n": ("n", lambda n: gen_blr_data(n, 2, 0)),
    "d": ("d", lambda n: gen_blr_data(5, n, 0)),
    "seed": ("seed", lambda n: gen_blr_data(5, 2, n)),
    "batch_size": ("batch_size", lambda n: additive_noise_cov(gen_blr_data(20, 2, 0), n)),
    "n_slots": ("n_slots", InfoBuffer),
    "push-modulus": ("modulus", lambda n: InfoBuffer(1).push([0], n)),
    "pop-modulus": ("modulus", _pop),
    "s0-forward": ("s0", _forward),
    "seed-backward": ("seed", _backward),
}


@pytest.mark.parametrize("site", list(COUNT_SITES))
@pytest.mark.parametrize("value", [2.5, True, np.float64(3.0)], ids=["fraction", "bool", "float64"])
def test_every_count_is_an_integer(site, value):
    # fractions once reached numpy (TypeError) or ran silently, e.g. the noise of a batch of 2.5 rows
    name, call = COUNT_SITES[site]
    message = f"{name} must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("site", list(COUNT_SITES))
def test_every_count_accepts_a_numpy_integer(site):
    COUNT_SITES[site][1](np.int64(3))


def test_a_count_is_held_as_a_python_int():
    assert type(count("n_chains", np.int64(3))) is int


def test_data_seed_must_be_non_negative():
    # numpy's own refusal ("expected non-negative integer") named no input
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        gen_blr_data(5, 2, -1)
