import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dais import (
    NumericalFailure,
    TransitionConfig,
    annealed_posterior,
    blr_target,
    constant_steps,
    dais_bound_mc,
    dais_chain,
    exact_log_ml,
    gen_blr_data,
    generator,
    leapfrog,
    make_linear_schedule,
    make_stepsize_scheme,
    noisy_gradient,
    refresh,
    sample_chains,
    update_matrices,
)

from dais.blr import additive_noise_cov
from dais.cli import main as cli_main
from dais.sampler import _draw_inputs, _refresh_with_noise, _run_chains

from conftest import random_model


CFG = TransitionConfig(gamma=0.0)


def _prior_only_target(dim=2):
    from dais import Gaussian, geometric_target

    return geometric_target(Gaussian(mean=np.zeros(dim), precision=np.eye(dim)), None, None)


# ---------------------------------------------------------------- leapfrog

def test_leapfrog_fixed_point_at_annealed_mean(toy_model):
    beta = 0.6
    ann = annealed_posterior(toy_model, beta)
    target = blr_target(toy_model)
    theta, v_hat = leapfrog(ann.mu.copy(), np.zeros(1), 0.3, beta, target)
    assert np.allclose(theta, ann.mu, atol=1e-14)
    assert np.allclose(v_hat, 0.0, atol=1e-14)


def test_leapfrog_zero_step_is_identity(toy_model):
    target = blr_target(toy_model)
    theta0, v0 = np.array([0.7]), np.array([-0.4])
    theta, v_hat = leapfrog(theta0, v0, 0.0, 0.5, target)
    assert np.array_equal(theta, theta0)
    assert np.array_equal(v_hat, v0)


def test_leapfrog_matches_affine_form(toy_model):
    # independent oracle: the closed-form affine map of the same step
    target = blr_target(toy_model)
    maps = update_matrices(toy_model, 1.0, 0.1)
    theta0, v0 = np.array([0.0]), np.array([0.0])
    theta, v_hat = leapfrog(theta0, v0, 0.1, 1.0, target)
    assert np.allclose(theta, maps.A @ theta0 + maps.B @ v0 + maps.c_vec, atol=1e-12)
    assert np.allclose(v_hat, maps.C @ theta0 + maps.D @ v0 + maps.e_vec, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_leapfrog_reversibility(seed):
    rng = generator(seed)
    model = random_model(rng, n=20, d=3)
    target = blr_target(model)
    theta = rng.standard_normal(3)
    v = rng.standard_normal(3)
    eta = float(rng.uniform(0.01, 0.3))
    beta = float(rng.uniform())
    t1, v1 = leapfrog(theta, v, eta, beta, target)
    t2, v2 = leapfrog(t1, -v1, eta, beta, target)
    assert np.allclose(t2, theta, rtol=1e-10, atol=1e-12)
    assert np.allclose(-v2, v, rtol=1e-10, atol=1e-12)


def test_leapfrog_nonfinite_gradient_raises(toy_model):
    target = blr_target(toy_model)
    with pytest.raises(NumericalFailure) as err:
        leapfrog(np.array([np.inf]), np.zeros(1), 0.1, 1.0, target)
    assert err.value.midpoint is not None


# ----------------------------------------------------------------- refresh

def test_refresh_gamma_one_keeps_momentum():
    v_hat = np.array([1.0, -2.0])
    out = refresh(v_hat, 1.0, generator(0))
    assert np.allclose(out, v_hat)


def test_refresh_gamma_zero_independent():
    v_hat = np.array([100.0, -100.0])
    out = refresh(v_hat, 0.0, generator(0))
    assert np.all(np.abs(out) < 10)


def test_refresh_preserves_momentum_law():
    # if v_hat ~ N(0, I) then v ~ N(0, I) for every gamma
    rng = generator(42)
    n = 100000
    for gamma in (0.0, 0.5, 0.9, 1.0):
        v_hat = rng.standard_normal((n, 3))
        v = refresh(v_hat, gamma, rng)
        emp = np.cov(v.T)
        se = np.sqrt((1.0 + np.eye(3)) / n)
        assert np.all(np.abs(emp - np.eye(3)) < 4 * se + 1e-3)
        assert np.all(np.abs(v.mean(axis=0)) < 4 * np.sqrt(1.0 / n))


# -------------------------------------------------------------- dais_chain

def test_chain_zero_step_collapses_to_elbo_sample(toy_model):
    # K=1, eta=0, gamma=0: kinetic terms cancel, L = log f_1(theta_0) - log p_0(theta_0)
    target = blr_target(toy_model)
    schedule = make_linear_schedule(1)
    steps = constant_steps(0.0, 1)
    rng = generator(9)
    theta_K, _, bound = dais_chain(target, schedule, steps, CFG, rng)
    expected = float(target.log_f(1.0, theta_K) - target.log_p0(theta_K))
    assert bound == pytest.approx(expected, abs=1e-12)


def test_chain_prior_equals_posterior_mean_zero():
    target = _prior_only_target()
    schedule = make_linear_schedule(16)
    steps = constant_steps(0.05, 16)
    mean, stderr = dais_bound_mc(target, schedule, steps, CFG, 4000, generator(21))
    assert abs(mean) <= 3 * stderr + 1e-4


def test_chain_unbiased_on_toy(toy_model):
    # E[exp(L - log Z)] = 1 for finite K; moderate-size version of the
    # acceptance run
    target = blr_target(toy_model)
    schedule = make_linear_schedule(8)
    steps = constant_steps(0.2, 8)
    log_z = exact_log_ml(toy_model)
    _, _, L = sample_chains(target, schedule, steps, CFG, 50000, generator(2024))
    w = np.exp(L - log_z)
    se = w.std(ddof=1) / np.sqrt(w.size)
    assert abs(w.mean() - 1.0) <= 3 * se


def test_chain_with_injected_noise_reproducible(toy_model):
    target = blr_target(toy_model)
    schedule = make_linear_schedule(4)
    steps = constant_steps(0.15, 4)
    theta0, v0 = np.array([0.3]), np.array([-0.8])
    eps = generator(5).standard_normal((4, 1))
    theta1, _, L1 = dais_chain(target, schedule, steps, CFG, theta0=theta0, v0=v0, refresh_noise=eps)
    theta2, _, L2 = dais_chain(target, schedule, steps, CFG, theta0=theta0, v0=v0, refresh_noise=eps)
    assert L1 == L2
    assert np.array_equal(theta1, theta2)


def test_chain_divergence_raises_with_step(toy_model):
    target = blr_target(toy_model)
    schedule = make_linear_schedule(50)
    steps = constant_steps(50.0, 50)  # far beyond the stability limit
    with pytest.raises(NumericalFailure) as err:
        dais_chain(target, schedule, steps, CFG, generator(0))
    assert err.value.step is not None or err.value.midpoint is not None


def test_chain_requires_rng_or_full_noise(toy_model):
    target = blr_target(toy_model)
    schedule = make_linear_schedule(2)
    steps = constant_steps(0.1, 2)
    with pytest.raises(ValueError):
        dais_chain(target, schedule, steps, CFG)
    # the schedule and the step sizes must be for one chain length
    with pytest.raises(ValueError, match="step scheme has K=3, schedule has K=2"):
        dais_chain(target, schedule, constant_steps(0.1, 3), CFG, generator(0))


# ------------------------------------------------------- batched chain core

def _per_step_chains(target, schedule, steps, config, theta, v, eps):
    """Independent slow path: `leapfrog`, kinetic energies, then `_refresh_with_noise` per step."""
    L = -target.log_p0(theta)
    for k in range(1, schedule.K + 1):
        theta, v_hat = leapfrog(theta, v, steps.eta, schedule.betas[k], target)
        L = L + 0.5 * ((v * v).sum(axis=-1) - (v_hat * v_hat).sum(axis=-1))
        v = _refresh_with_noise(v_hat, config.gamma, eps[:, k - 1, :])
    return theta, v, L + target.log_f(1.0, theta)


# the "-None" in each case id names the unit mass the case has always run with
@pytest.mark.parametrize("gamma", [0.0, 0.9, 1.0])
@pytest.mark.parametrize("noisy", [False, True], ids=lambda noisy: f"{noisy}-None")
def test_run_chains_matches_per_step_composition(gamma, noisy):
    model = gen_blr_data(200, 4, 13)
    config = TransitionConfig(gamma=gamma)
    K, n = 40, 16
    schedule, steps = make_linear_schedule(K), make_stepsize_scheme(0.3, 0.25, K)
    g = generator(29)
    theta0 = blr_target(model).sample_p0(g, n)
    v0 = g.standard_normal((n, 4))
    eps = g.standard_normal((n, K, 4))

    def target():
        # same seed each time, so both paths see the same gradient noise
        clean = blr_target(model)
        return noisy_gradient(clean, additive_noise_cov(model, 100), generator(31)) if noisy else clean

    fast = _run_chains(target(), schedule, steps, config, theta0, v0, eps)
    slow = _per_step_chains(target(), schedule, steps, config, theta0, v0, eps)
    for got, want in zip(fast, slow):
        np.testing.assert_allclose(got, want, rtol=1e-12)


def test_sample_chains_prefix_consistent():
    # chain i's inputs depend only on the seed and i, not on n_chains
    model = gen_blr_data(100, 5, 4)
    target = blr_target(model)
    config = TransitionConfig(gamma=0.5)
    K = 24
    schedule, steps = make_linear_schedule(K), make_stepsize_scheme(0.3, 0.25, K)
    n, m = 300, 37
    for got, want in zip(_draw_inputs(target, K, n, generator(8)),
                         _draw_inputs(target, K, m, generator(8))):
        assert np.array_equal(got[:m], want)
    # BLAS blocking may change with the row count, so outputs agree to rounding
    big = sample_chains(target, schedule, steps, config, n, generator(8))
    small = sample_chains(target, schedule, steps, config, m, generator(8))
    for got, want in zip(big, small):
        np.testing.assert_allclose(got[:m], want, rtol=1e-12)


class _GradientBlowUp:
    """Wraps a target; the gradient of row ``chain`` is inf at step ``step``."""

    def __init__(self, inner, step, chain):
        self.inner, self.step, self.chain, self.calls = inner, step, chain, 0
        self.dim, self.log_f, self.log_p0, self.sample_p0 = inner.dim, inner.log_f, inner.log_p0, inner.sample_p0

    def grad_log_f(self, beta, theta):
        self.calls += 1
        grad = self.inner.grad_log_f(beta, theta)
        if self.calls == self.step:
            grad[self.chain] = np.inf
        return grad


def test_run_chains_failure_names_step_and_chain(toy_model):
    target = _GradientBlowUp(blr_target(toy_model), step=5, chain=3)
    schedule, steps = make_linear_schedule(8), constant_steps(0.2, 8)
    with pytest.raises(NumericalFailure, match=r"non-finite bound accumulator at step 5 \(chain 3\)") as err:
        sample_chains(target, schedule, steps, CFG, 6, generator(1))
    assert err.value.step == 5
    assert err.value.chain == 3
    assert err.value.midpoint.shape == (1,)


def test_cli_chain_divergence_names_step(capsys):
    assert cli_main(["chain", "--K", "64", "--a", "80", "--n", "200", "--d", "5"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("numerical failure: non-finite bound accumulator at step ")


# ------------------------------------------------------------ dais_bound_mc

def test_bound_mc_substreams_differ(toy_model):
    # the three child streams give every chain its own theta_0, v_0 and noise
    target = blr_target(toy_model)
    schedule = make_linear_schedule(4)
    steps = constant_steps(0.1, 4)
    n = 6
    theta0, v0, eps = _draw_inputs(target, 4, n, generator(17))
    theta, _, L = sample_chains(target, schedule, steps, CFG, n, generator(17))
    for rows in (theta0, v0, eps.reshape(n, -1), theta, L):
        assert len(np.unique(rows, axis=0)) == n
    assert not np.array_equal(theta0, v0)


def test_bound_mc_needs_two_chains(toy_model):
    target = blr_target(toy_model)
    with pytest.raises(ValueError):
        dais_bound_mc(target, make_linear_schedule(2), constant_steps(0.1, 2), CFG, 1, generator(0))


def test_bound_mc_matches_expected_bound():
    from dais import expected_bound, gen_blr_data, propagate_moments

    model = gen_blr_data(200, 10, 31)
    target = blr_target(model)
    schedule = make_linear_schedule(64)
    steps = make_stepsize_scheme(0.3, 0.25, 64)
    mean, stderr = dais_bound_mc(target, schedule, steps, CFG, 100, generator(77))
    moments = propagate_moments(model, schedule, steps, 0.0)
    assert abs(mean - expected_bound(model, moments, schedule)) <= 3 * stderr


def test_bound_mc_propagates_chain_id(toy_model):
    target = blr_target(toy_model)
    schedule = make_linear_schedule(80)
    steps = constant_steps(50.0, 80)
    with pytest.raises(NumericalFailure) as err:
        dais_bound_mc(target, schedule, steps, CFG, 8, generator(3))
    assert err.value.chain is not None


# ------------------------------------------------------------------ config

def test_config_validation():
    with pytest.raises(ValueError):
        TransitionConfig(gamma=1.5)
