import importlib.util
from pathlib import Path

import numpy as np
import pytest

from dais import BlrModel, gap_breakdown, make_linear_schedule, propagate_moments
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


def keyed_start(target, s):
    """A reversible chain's start (theta_0, v_0) from a stream keyed by ``s``: theta_0 from p_0, then v_0."""
    g = keyed_generator(s)
    return target.sample_p0(g), g.standard_normal(target.dim)


def dense_gap(model, gamma, steps, noise=None):
    """Oracle: the dense 2d x 2d moment recursion and the closed-form gap."""
    schedule = make_linear_schedule(steps.K)
    return gap_breakdown(model, propagate_moments(model, schedule, steps, gamma, noise=noise), schedule).total


SCRIPTS = Path(__file__).parent.parent / "scripts"


def load_script(name):
    """``scripts/<name>.py`` as a module, so tests can call its ``main``."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script
