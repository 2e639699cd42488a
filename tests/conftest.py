import importlib.util
from pathlib import Path

import numpy as np
import pytest

from dais import BlrModel, annealed_posterior, gap_breakdown, make_linear_schedule, propagate_moments
from dais.reversible import forward_seed
from dais.rng import keyed_generator


@pytest.fixture
def toy_model():
    """Conjugate model small enough to integrate by hand: d=1, one data point."""
    return BlrModel(X=[[1.0]], y=[1.0], sigma2=1.0, mu_p=[0.0], Lambda_p=[[1.0]])


def central_difference(f, x, h=1e-5):
    """Independent gradient oracle: central differences coordinate by coordinate."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (f(x + step) - f(x - step)) / (2 * h)
    return grad


def random_spd(rng, d, scale=1.0):
    a = rng.standard_normal((d, d))
    return scale * (a @ a.T / d + np.eye(d))


def random_model(rng, n, d):
    return BlrModel(
        X=rng.standard_normal((n, d)) * 0.3,
        y=rng.standard_normal(n),
        sigma2=0.5 + rng.uniform(),
        mu_p=rng.standard_normal(d) * 0.5,
        Lambda_p=random_spd(rng, d),
    )


def seed_noise(s, dim):
    """Oracle: the reversible chain's refresh draw for seed state ``s``, from a freshly keyed stream."""
    return keyed_generator(s).standard_normal(dim)


def _seed_noise_stream(s0, K, d):
    """The refresh noise `reversible_forward` draws from seed s0, and the final seed."""
    eps = np.empty((K, d))
    s = s0
    for k in range(K):
        s = forward_seed(s)
        eps[k] = seed_noise(s, d)
    return eps, s


def keyed_start(target, s):
    """A reversible chain's start (theta_0, v_0) from a stream keyed by ``s``: theta_0 from p_0, then v_0."""
    g = keyed_generator(s)
    return target.sample_p0(g), g.standard_normal(target.dim)


def dense_gap(model, gamma, steps, noise=None):
    """Oracle: the dense 2d x 2d moment recursion and the closed-form gap."""
    schedule = make_linear_schedule(steps.K)
    return gap_breakdown(model, propagate_moments(model, schedule, steps, gamma, noise=noise), schedule).total


def closed_recursions(model, schedule, eta):
    """Independent oracle: the full-refreshment (gamma=0) scalar recursions.

    mu_k   = (I - eta^2/2 L) mu_{k-1} + eta^2/2 L m
    Sigma_k = (I - eta^2/2 L)(Sigma_{k-1} - S)(I - eta^2/2 L) + S
              - eta^4/4 L + eta^6/16 L^2
    mu^v_k  = eta L (m - mu_{k-1})
    Sigma^v_k = (I - eta^2/2 L)^2 + eta^2 L Sigma_{k-1} L
    with L, m, S the annealed precision, mean, and covariance at beta_k.
    """
    d = model.d
    eye = np.eye(d)
    mu = model.mu_p.copy()
    Sigma = np.linalg.inv(model.Lambda_p)
    mus, Sigmas, mu_vs, Sigma_vs = [mu.copy()], [Sigma.copy()], [None], [None]
    for k in range(1, schedule.K + 1):
        ann = annealed_posterior(model, schedule.betas[k])
        L = ann.Lambda
        S = np.linalg.inv(L)
        A = eye - 0.5 * eta**2 * L
        mu_v = eta * L @ (ann.mu - mu)
        Sigma_v = A @ A + eta**2 * L @ Sigma @ L
        mu = A @ mu + 0.5 * eta**2 * L @ ann.mu
        Sigma = A @ (Sigma - S) @ A + S - 0.25 * eta**4 * L + eta**6 / 16 * L @ L
        mus.append(mu.copy())
        Sigmas.append(Sigma.copy())
        mu_vs.append(mu_v)
        Sigma_vs.append(Sigma_v)
    return mus, Sigmas, mu_vs, Sigma_vs


SCRIPTS = Path(__file__).parent.parent / "scripts"


def load_script(name):
    """``scripts/<name>.py`` as a module, so tests can call its ``main``."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script
