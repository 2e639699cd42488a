import numpy as np
import pytest

from dais import (
    Gaussian,
    blr_target,
    generator,
    geometric_target,
    noisy_gradient,
)

from dais.targets import check_noise_cov

from conftest import central_difference


@pytest.fixture
def gauss_prior():
    return Gaussian(mean=[0.5, -1.0], precision=[[2.0, 0.3], [0.3, 1.0]])


def _quadratic_lik(dim=2):
    # likelihood proportional to exp(-||theta - 1||^2)
    mu = np.ones(dim)

    def log_lik(theta):
        delta = np.asarray(theta) - mu
        return -np.sum(delta * delta, axis=-1)

    def grad_log_lik(theta):
        return -2.0 * (np.asarray(theta) - mu)

    return log_lik, grad_log_lik


def test_geometric_endpoints(gauss_prior):
    target = geometric_target(gauss_prior, *_quadratic_lik())
    theta = np.array([0.3, 0.7])
    assert target.log_f(0.0, theta) == pytest.approx(gauss_prior.log_density(theta))
    expected = gauss_prior.log_density(theta) + _quadratic_lik()[0](theta)
    assert target.log_f(1.0, theta) == pytest.approx(expected)


def test_geometric_rejects_beta_outside(gauss_prior):
    target = geometric_target(gauss_prior, *_quadratic_lik())
    theta = np.zeros(2)
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            target.log_f(bad, theta)
        with pytest.raises(ValueError):
            target.grad_log_f(bad, theta)


def test_geometric_blr_toy_midpoint(toy_model):
    # at theta=0: beta * (-(y - x theta)^2 / (2 sigma2)) = 0.5 * (-0.5) = -0.25
    prior = Gaussian(mean=[0.0], precision=[[1.0]])
    target = geometric_target(
        prior,
        lambda th: -0.5 * np.sum((1.0 - np.asarray(th)) ** 2, axis=-1),
        lambda th: 1.0 - np.asarray(th),
    )
    theta = np.zeros(1)
    assert target.log_f(0.5, theta) - target.log_f(0.0, theta) == pytest.approx(-0.25)
    # blr_target carries the likelihood normalizer on top of the same quadratic
    full = blr_target(toy_model)
    delta = full.log_f(0.5, theta) - full.log_f(0.0, theta)
    assert delta == pytest.approx(-0.25 - 0.25 * np.log(2 * np.pi))


def test_gradient_matches_finite_differences(gauss_prior, toy_model):
    # contract for every bundled target at randomly probed points
    rng = generator(11)
    targets = [
        geometric_target(gauss_prior, *_quadratic_lik()),
        blr_target(toy_model),
        geometric_target(Gaussian(mean=[0.0], precision=[[1.0]]), None, None),
    ]
    for target in targets:
        for beta in (0.0, 0.37, 1.0):
            for _ in range(3):
                theta = rng.standard_normal(target.dim)
                want = central_difference(lambda x: float(target.log_f(beta, x)), theta)
                got = target.grad_log_f(beta, theta)
                assert np.allclose(got, want, rtol=1e-5, atol=1e-7)


def test_gaussian_sampling_moments():
    g = Gaussian(mean=[1.0, -2.0], precision=np.linalg.inv([[2.0, 0.8], [0.8, 1.0]]))
    samples = g.sample(generator(5), size=200000)
    assert np.allclose(samples.mean(axis=0), g.mean, atol=0.02)
    assert np.allclose(np.cov(samples.T), [[2.0, 0.8], [0.8, 1.0]], atol=0.03)


def test_gaussian_batched_log_density():
    g = Gaussian(mean=[0.0, 0.0], precision=np.eye(2))
    thetas = generator(3).standard_normal((7, 2))
    batched = g.log_density(thetas)
    single = [g.log_density(t) for t in thetas]
    assert np.allclose(batched, single)


def test_noisy_gradient_zero_noise_identical(gauss_prior):
    target = geometric_target(gauss_prior, *_quadratic_lik())
    noisy = noisy_gradient(target, np.zeros((2, 2)), generator(1))
    theta = np.array([0.4, -0.2])
    assert np.array_equal(noisy.grad_log_f(0.5, theta), target.grad_log_f(0.5, theta))
    assert noisy.log_f(0.5, theta) == target.log_f(0.5, theta)


def test_noisy_gradient_fresh_noise(gauss_prior):
    target = geometric_target(gauss_prior, *_quadratic_lik())
    noisy = noisy_gradient(target, np.eye(2), generator(2))
    theta = np.zeros(2)
    g1 = noisy.grad_log_f(0.5, theta)
    g2 = noisy.grad_log_f(0.5, theta)
    assert not np.array_equal(g1, g2)


def test_noisy_gradient_empirical_covariance(gauss_prior):
    target = geometric_target(gauss_prior, *_quadratic_lik())
    sigma = np.array([[0.5, 0.2], [0.2, 0.3]])
    noisy = noisy_gradient(target, sigma, generator(3))
    theta = np.array([0.1, 0.2])
    clean = target.grad_log_f(0.5, theta)
    # one batched call draws the same normals as 100000 single-state calls
    draws = noisy.grad_log_f(0.5, np.tile(theta, (100000, 1))) - clean
    emp = np.cov(draws.T)
    # MC error on covariance entries is ~sigma/sqrt(n)
    assert np.allclose(emp, sigma, atol=0.02)


def test_noise_spec_validation(gauss_prior):
    with pytest.raises(ValueError):
        check_noise_cov(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
    with pytest.raises(ValueError):
        check_noise_cov(np.diag([-1.0, 1.0]))
    sigma = check_noise_cov(np.diag([0.5, 2.0]), 2)
    assert np.trace(sigma) == pytest.approx(2.5)
    factor = noisy_gradient(geometric_target(gauss_prior, None, None), sigma, generator(0))._factor
    assert np.allclose(factor @ factor.T, np.diag([0.5, 2.0]))
