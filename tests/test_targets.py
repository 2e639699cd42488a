import hashlib

import numpy as np
import pytest

from dais import BlrModel, blr_target, gen_blr_data, generator, noisy_gradient

from dais.targets import check_noise_cov

from conftest import central_difference, random_model, random_spd


def _prior_model(mu_p, Lambda_p):
    """A model with no observations: every f_beta is the prior N(mu_p, Lambda_p^{-1})."""
    return BlrModel(X=np.zeros((0, len(mu_p))), y=[], sigma2=1.0, mu_p=mu_p, Lambda_p=Lambda_p)


@pytest.fixture
def prior_model():
    return _prior_model([0.5, -1.0], [[2.0, 0.3], [0.3, 1.0]])


@pytest.fixture
def model2():
    # two weights, a non-isotropic prior and a few observations
    return random_model(generator(8), 6, 2)


def _log_normal(theta, mean, precision):
    """Independent log density of N(mean, precision^{-1}) through slogdet."""
    delta = theta - np.asarray(mean)
    return -0.5 * (len(delta) * np.log(2 * np.pi) - np.linalg.slogdet(precision)[1] + delta @ precision @ delta)


def test_geometric_endpoints(model2):
    target = blr_target(model2)
    theta = np.array([0.3, 0.7])
    log_p0 = _log_normal(theta, model2.mu_p, model2.Lambda_p)
    assert target.log_p0(theta) == pytest.approx(log_p0)
    assert target.log_f(0.0, theta) == target.log_p0(theta)
    resid = model2.y - model2.X @ theta
    log_lik = -0.5 * model2.n * np.log(2 * np.pi * model2.sigma2) - 0.5 * resid @ resid / model2.sigma2
    assert target.log_f(1.0, theta) == pytest.approx(log_p0 + log_lik)


def test_geometric_rejects_beta_outside(model2):
    target = blr_target(model2)
    theta = np.zeros(2)
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            target.log_f(bad, theta)
        with pytest.raises(ValueError):
            target.grad_log_f(bad, theta)


def test_geometric_blr_toy_midpoint(toy_model):
    # at theta=0: beta * (-(y - x theta)^2 / (2 sigma2)) = 0.5 * (-0.5) = -0.25,
    # plus half the likelihood normalizer -0.5 log(2 pi)
    full = blr_target(toy_model)
    theta = np.zeros(1)
    delta = full.log_f(0.5, theta) - full.log_f(0.0, theta)
    assert delta == pytest.approx(-0.25 - 0.25 * np.log(2 * np.pi))


def test_gradient_matches_finite_differences(toy_model, prior_model):
    # contract at randomly probed points: data with an isotropic prior, a
    # non-isotropic prior, and no data at all
    rng = generator(11)
    models = [toy_model, random_model(generator(12), 7, 3), prior_model]
    for target in map(blr_target, models):
        for beta in (0.0, 0.37, 1.0):
            for _ in range(3):
                theta = rng.standard_normal(target.dim)
                want = central_difference(lambda x: float(target.log_f(beta, x)), theta)
                got = target.grad_log_f(beta, theta)
                assert np.allclose(got, want, rtol=1e-5, atol=1e-7)


def test_gaussian_sampling_moments():
    cov = np.array([[2.0, 0.8], [0.8, 1.0]])
    target = blr_target(_prior_model([1.0, -2.0], np.linalg.inv(cov)))
    samples = target.sample_p0(generator(5), size=200000)
    assert np.allclose(samples.mean(axis=0), [1.0, -2.0], atol=0.02)
    assert np.allclose(np.cov(samples.T), cov, atol=0.03)


def test_gaussian_batched_log_density(model2):
    target = blr_target(model2)
    thetas = generator(3).standard_normal((7, 2))
    assert np.allclose(target.log_p0(thetas), [target.log_p0(t) for t in thetas])
    assert np.allclose(target.log_f(0.6, thetas), [target.log_f(0.6, t) for t in thetas])
    assert np.allclose(target.grad_log_f(0.6, thetas), [target.grad_log_f(0.6, t) for t in thetas])


def test_noisy_gradient_zero_noise_identical(model2):
    target = blr_target(model2)
    noisy = noisy_gradient(target, np.zeros((2, 2)), generator(1))
    theta = np.array([0.4, -0.2])
    assert np.array_equal(noisy.grad_log_f(0.5, theta), target.grad_log_f(0.5, theta))
    assert noisy.log_f(0.5, theta) == target.log_f(0.5, theta)


def test_noisy_gradient_fresh_noise(model2):
    noisy = noisy_gradient(blr_target(model2), np.eye(2), generator(2))
    theta = np.zeros(2)
    g1 = noisy.grad_log_f(0.5, theta)
    g2 = noisy.grad_log_f(0.5, theta)
    assert not np.array_equal(g1, g2)


def test_noisy_gradient_empirical_covariance(model2):
    target = blr_target(model2)
    sigma = np.array([[0.5, 0.2], [0.2, 0.3]])
    noisy = noisy_gradient(target, sigma, generator(3))
    theta = np.array([0.1, 0.2])
    clean = target.grad_log_f(0.5, theta)
    # one batched call draws the same normals as 100000 single-state calls
    draws = noisy.grad_log_f(0.5, np.tile(theta, (100000, 1))) - clean
    emp = np.cov(draws.T)
    # MC error on covariance entries is ~sigma/sqrt(n)
    assert np.allclose(emp, sigma, atol=0.02)


def test_noise_spec_validation(prior_model):
    with pytest.raises(ValueError):
        check_noise_cov(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
    with pytest.raises(ValueError):
        check_noise_cov(np.diag([-1.0, 1.0]))
    for bad in ([[np.inf]], [[np.nan]], [[1.0, np.inf], [np.inf, 1.0]]):
        with pytest.raises(ValueError, match="noise covariance must be finite"):
            check_noise_cov(bad)
    with pytest.raises(ValueError, match=r"^noise matrix has shape \(2, 2\), expected \(3, 3\)$"):
        check_noise_cov(np.eye(2), 3)
    sigma = check_noise_cov(np.diag([0.5, 2.0]), 2)
    assert np.trace(sigma) == pytest.approx(2.5)
    factor = noisy_gradient(blr_target(prior_model), sigma, generator(0))._factor
    assert np.allclose(factor @ factor.T, np.diag([0.5, 2.0]))


# sha256 of the outputs below, computed when blr_target still composed a prior
# object with likelihood closures; any change to the target's arithmetic or
# draws moves it
TARGET_PINNED_DIGEST = "c111e30458e52860cf625a16de301e73d09eaeec953d1a10bfcc105ca3fe07bf"


def test_blr_target_outputs_pinned_digest():
    h = hashlib.sha256()

    def put(value):
        h.update(repr(np.asarray(value).tolist()).encode())

    rng = generator(19)
    models = [gen_blr_data(50, 3, 7), random_model(rng, 20, 3),
              _prior_model([0.2, -0.1, 0.4], random_spd(rng, 3))]
    states = generator(2).standard_normal((6, 3))
    for target in map(blr_target, models):
        for theta in (states[0], states[1:]):
            for beta in (0.0, 0.37, 1.0):
                put(target.log_f(beta, theta))
                put(target.grad_log_f(beta, theta))
            put(target.log_p0(theta))
        for size in (None, 4):
            put(target.sample_p0(generator(3), size))
    assert h.hexdigest() == TARGET_PINNED_DIGEST
