import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dais import (
    BlrModel,
    NumericalFailure,
    StepSizeScheme,
    TransitionConfig,
    annealed_posterior,
    blr_target,
    dais_bound_mc,
    exact_log_ml,
    gen_blr_data,
    generator,
    make_linear_schedule,
    make_stepsize_scheme,
    noisy_gradient,
    sample_chains,
    update_matrices,
)

from dais.blr import additive_noise_cov
from dais.cli import main as cli_main
from dais.sampler import _draw_inputs, _run_chains, leapfrog

from conftest import random_model


CFG = TransitionConfig(gamma=0.0)


def _prior_only_target(dim=2):
    # no observations, so every f_beta is the standard normal prior
    return blr_target(BlrModel(X=np.zeros((0, dim)), y=[], sigma2=1.0, mu_p=np.zeros(dim), Lambda_p=np.eye(dim)))


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
    A, B, C, c_vec, e_vec = update_matrices(toy_model, 1.0, 0.1)
    theta0, v0 = np.array([0.0]), np.array([0.0])
    theta, v_hat = leapfrog(theta0, v0, 0.1, 1.0, target)
    assert np.allclose(theta, A @ theta0 + B @ v0 + c_vec, atol=1e-12)
    assert np.allclose(v_hat, C @ theta0 + A @ v0 + e_vec, atol=1e-12)


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


@pytest.mark.parametrize("beta", [0.0, 0.6])
def test_leapfrog_at_minus_eta_undoes_the_step(beta):
    # the reverse step needs no momentum flip: -eta from the forward step's output returns the start
    rng = generator(3)
    target = blr_target(random_model(rng, n=20, d=3))
    theta, v = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
    t1, v1 = leapfrog(theta, v, 0.2, beta, target)
    t0, v0 = leapfrog(t1, v1, -0.2, beta, target)
    assert np.allclose(t0, theta, rtol=1e-12, atol=1e-14)
    assert np.allclose(v0, v, rtol=1e-12, atol=1e-14)
    assert not np.allclose(t1, theta, atol=1e-3)  # the forward step moved


@pytest.mark.parametrize("beta", [0.0, 0.6])
def test_leapfrog_per_row_step_sizes_are_the_rows_of_scalar_calls(beta):
    # an (n, 1) eta steps row i as a scalar call at eta_i steps it, bit for bit, on the same batch
    rng = generator(4)
    target = blr_target(random_model(rng, n=20, d=10))
    theta, v = rng.standard_normal((6, 10)), rng.standard_normal((6, 10))
    etas = np.array([0.0, 0.05, 0.1, 0.2, 0.3, 0.45])
    t_all, v_all = leapfrog(theta, v, etas[:, None], beta, target)
    for i, eta in enumerate(etas):
        t_i, v_i = leapfrog(theta, v, eta, beta, target)
        assert t_all[i].tobytes() == t_i[i].tobytes()
        assert v_all[i].tobytes() == v_i[i].tobytes()


def test_leapfrog_passes_a_nonfinite_gradient_to_v_hat(toy_model):
    # the chain reports it by its per-step check on L (test_run_chains_failure_names_step_and_chain)
    target = blr_target(toy_model)
    with np.errstate(over="ignore", invalid="ignore"):
        _, v_hat = leapfrog(np.array([np.inf]), np.zeros(1), 0.1, 1.0, target)
    assert not np.isfinite(v_hat).any()


# ----------------------------------------------------------------- refresh

def _refreshed(gamma, n, K, seed, dim=3):
    """v_0, the refresh noise and v_K of `sample_chains` at eta = 0, where each step only refreshes."""
    target = _prior_only_target(dim)
    _, v0, eps = _draw_inputs(target, K, n, generator(seed))
    _, v, _ = sample_chains(target, make_linear_schedule(K), StepSizeScheme(K, 0.0),
                            TransitionConfig(gamma=gamma), n, generator(seed))
    return v0, eps, v


def test_refresh_gamma_one_keeps_momentum():
    v0, _, v = _refreshed(1.0, 5, 4, 0)
    assert np.array_equal(v, v0)


def test_refresh_gamma_zero_independent():
    # the momentum is the last step's fresh draw, whatever came before
    _, eps, v = _refreshed(0.0, 5, 4, 0)
    assert np.array_equal(v, eps[:, -1])


def test_refresh_preserves_momentum_law():
    # v_0 ~ N(0, I), so v_K ~ N(0, I) for every gamma
    n = 100000
    for gamma in (0.0, 0.5, 0.9, 1.0):
        _, _, v = _refreshed(gamma, n, 3, 42)
        emp = np.cov(v.T)
        se = np.sqrt((1.0 + np.eye(3)) / n)
        assert np.all(np.abs(emp - np.eye(3)) < 4 * se + 1e-3)
        assert np.all(np.abs(v.mean(axis=0)) < 4 * np.sqrt(1.0 / n))


# --------------------------------------------------------------- one chain

def test_chain_zero_step_collapses_to_elbo_sample(toy_model):
    # K=1, eta=0, gamma=0: kinetic terms cancel, L = log f_1(theta_0) - log p_0(theta_0)
    target = blr_target(toy_model)
    schedule = make_linear_schedule(1)
    steps = StepSizeScheme(1, 0.0)
    theta_K, _, L = sample_chains(target, schedule, steps, CFG, 1, generator(9))
    expected = target.log_f(1.0, theta_K) - target.log_p0(theta_K)
    assert L[0] == pytest.approx(expected[0], abs=1e-12)


def test_chain_prior_equals_posterior_mean_zero():
    target = _prior_only_target()
    schedule = make_linear_schedule(16)
    steps = StepSizeScheme(16, 0.05)
    mean, stderr = dais_bound_mc(target, schedule, steps, CFG, 4000, generator(21))
    assert abs(mean) <= 3 * stderr + 1e-4


def test_chain_unbiased_on_toy(toy_model):
    # E[exp(L - log Z)] = 1 for finite K; moderate-size version of the
    # acceptance run
    target = blr_target(toy_model)
    schedule = make_linear_schedule(8)
    steps = StepSizeScheme(8, 0.2)
    log_z = exact_log_ml(toy_model)
    _, _, L = sample_chains(target, schedule, steps, CFG, 50000, generator(2024))
    w = np.exp(L - log_z)
    se = w.std(ddof=1) / np.sqrt(w.size)
    assert abs(w.mean() - 1.0) <= 3 * se


def test_chain_divergence_raises_with_step(toy_model):
    target = blr_target(toy_model)
    schedule = make_linear_schedule(50)
    steps = StepSizeScheme(50, 50.0)  # far beyond the stability limit
    with pytest.raises(NumericalFailure) as err:
        sample_chains(target, schedule, steps, CFG, 1, generator(0))
    assert err.value.step is not None
    assert err.value.chain == 0


def test_chain_requires_rng_or_full_noise(toy_model):
    target = blr_target(toy_model)
    schedule = make_linear_schedule(2)
    # the schedule and the step sizes must be for one chain length
    with pytest.raises(ValueError, match="step scheme has K=3, schedule has K=2"):
        sample_chains(target, schedule, StepSizeScheme(3, 0.1), CFG, 1, generator(0))


# ------------------------------------------------------- batched chain core

def _per_step_chains(target, schedule, steps, config, theta, v, eps):
    """Slow path around the chain's own `leapfrog`: kinetic energies as row sums, then the refreshment, per step."""
    L = -target.log_p0(theta)
    for k in range(1, schedule.K + 1):
        theta, v_hat = leapfrog(theta, v, steps.eta, schedule.betas[k], target)
        L = L + 0.5 * ((v * v).sum(axis=-1) - (v_hat * v_hat).sum(axis=-1))
        v = config.gamma * v_hat + np.sqrt(1.0 - config.gamma * config.gamma) * eps[:, k - 1, :]
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
    schedule, steps = make_linear_schedule(8), StepSizeScheme(8, 0.2)
    with pytest.raises(NumericalFailure, match=r"non-finite bound accumulator at step 5 \(chain 3\)") as err:
        sample_chains(target, schedule, steps, CFG, 6, generator(1))
    assert err.value.step == 5
    assert err.value.chain == 3


class _InfiniteAtTheEnd:
    """``target`` whose final density log f_1 is +inf: every step stays finite, the last weight does not."""

    def __init__(self, target):
        self._target = target

    def log_f(self, beta, theta):
        return np.full(np.shape(theta)[:-1], np.inf) if beta == 1.0 else self._target.log_f(beta, theta)

    def __getattr__(self, name):
        return getattr(self._target, name)


def test_non_finite_final_weight_fails_at_step_K(toy_model):
    target = _InfiniteAtTheEnd(blr_target(toy_model))
    schedule, steps = make_linear_schedule(6), StepSizeScheme(6, 0.2)
    with pytest.raises(NumericalFailure, match=r"^non-finite bound accumulator at step 6 \(chain 0\)$") as err:
        sample_chains(target, schedule, steps, CFG, 3, generator(1))
    assert (err.value.step, err.value.chain) == (6, 0)


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
    steps = StepSizeScheme(4, 0.1)
    n = 6
    theta0, v0, eps = _draw_inputs(target, 4, n, generator(17))
    theta, _, L = sample_chains(target, schedule, steps, CFG, n, generator(17))
    for rows in (theta0, v0, eps.reshape(n, -1), theta, L):
        assert len(np.unique(rows, axis=0)) == n
    assert not np.array_equal(theta0, v0)


def test_bound_mc_needs_two_chains(toy_model):
    target = blr_target(toy_model)
    with pytest.raises(ValueError):
        dais_bound_mc(target, make_linear_schedule(2), StepSizeScheme(2, 0.1), CFG, 1, generator(0))


def test_bound_mc_matches_expected_bound():
    from dais import gen_blr_data, propagate_moments
    from dais.moments import expected_bound

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
    steps = StepSizeScheme(80, 50.0)
    with pytest.raises(NumericalFailure) as err:
        dais_bound_mc(target, schedule, steps, CFG, 8, generator(3))
    assert err.value.chain is not None


def test_bound_mc_spread_past_float_range_is_inf_se():
    # a = 5 at c = 0 diverges slowly enough that every L stays finite, but
    # their squared spread does not: no overflow warning, stderr is inf
    target = blr_target(gen_blr_data(100, 2, 0))
    mean, stderr = dais_bound_mc(target, make_linear_schedule(64), make_stepsize_scheme(5.0, 0.0, 64),
                                 CFG, 20, generator(1))
    assert np.isfinite(mean) and mean < -1e160
    assert stderr == np.inf


def test_bound_mc_mean_past_float_range_raises(toy_model, monkeypatch):
    monkeypatch.setattr("dais.sampler.sample_chains", lambda *args: (None, None, np.array([1e308, 1e308])))
    with pytest.raises(NumericalFailure, match="mean of L"):
        dais_bound_mc(blr_target(toy_model), make_linear_schedule(2), StepSizeScheme(2, 0.1), CFG, 2,
                      generator(0))


# ------------------------------------------------------------------ config

def test_config_validation():
    with pytest.raises(ValueError):
        TransitionConfig(gamma=1.5)


# ------------------------------------------------------------------ digest

# sha256 of the outputs below; any change to the sampler's draws or arithmetic moves it
SAMPLER_PINNED_DIGEST = "82db9f73337dc0b1bbec5c8678aa46057974add7ed116eac1fb30a22bbf983bb"


def test_sampler_outputs_pinned_digest():
    h = hashlib.sha256()

    def put(*arrays):
        for a in arrays:
            h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())

    d, K, n = 4, 40, 16
    model = gen_blr_data(200, d, 13)
    clean = blr_target(model)
    schedule, steps = make_linear_schedule(K), make_stepsize_scheme(0.3, 0.25, K)
    put(*sample_chains(clean, schedule, steps, TransitionConfig(gamma=0.9), n, generator(5)))
    noisy = noisy_gradient(clean, additive_noise_cov(model, 50), generator(7))
    put(*sample_chains(noisy, schedule, steps, TransitionConfig(gamma=0.0), n, generator(11)))
    put(*dais_bound_mc(clean, schedule, steps, TransitionConfig(gamma=0.5), n, generator(17)))
    assert h.hexdigest() == SAMPLER_PINNED_DIGEST
