import numpy as np
import pytest
from scipy import integrate

from dais import (
    BlrModel,
    additive_noise_cov,
    annealed_posterior,
    blr_target,
    exact_log_ml,
    gen_blr_data,
    generator,
    update_matrices,
    TransitionConfig,
)
from dais.blr import blr_grad
from dais.sampler import leapfrog

from conftest import central_difference, random_model


@pytest.fixture
def empty_model():
    return BlrModel(
        X=np.zeros((0, 2)), y=np.zeros(0), sigma2=1.0, mu_p=[0.5, -0.5], Lambda_p=np.eye(2)
    )


# ---------------------------------------------------------------- posterior

def test_toy_posterior_hand_values(toy_model):
    post = annealed_posterior(toy_model, 1.0)
    assert post.Lambda[0, 0] == pytest.approx(2.0)
    assert post.mu[0] == pytest.approx(0.5)


def test_empty_data_posterior_is_prior(empty_model):
    post = annealed_posterior(empty_model, 1.0)
    assert np.allclose(post.mu, empty_model.mu_p)
    assert np.allclose(post.Lambda, empty_model.Lambda_p)


def test_posterior_mean_between_prior_and_data_means():
    # precision-weighted mean is a convex combination in d=1
    model = BlrModel(X=[[1.0], [1.0]], y=[2.0, 2.0], sigma2=1.0, mu_p=[-1.0], Lambda_p=[[3.0]])
    post = annealed_posterior(model, 1.0)
    assert -1.0 <= post.mu[0] <= 2.0


def test_annealed_endpoints(toy_model):
    at0 = annealed_posterior(toy_model, 0.0)
    assert np.allclose(at0.mu, toy_model.mu_p)
    assert np.allclose(at0.Lambda, toy_model.Lambda_p)
    # the posterior: Lambda_p + X^T X / sigma2, mean solving the normal equations
    m = toy_model
    at1 = annealed_posterior(m, 1.0)
    assert np.allclose(at1.Lambda, m.Lambda_p + m.X.T @ m.X / m.sigma2)
    assert np.allclose(at1.Lambda @ at1.mu, m.Lambda_p @ m.mu_p + m.X.T @ m.y / m.sigma2)


def test_annealed_midpoint_hand_values(toy_model):
    ann = annealed_posterior(toy_model, 0.5)
    assert ann.Lambda[0, 0] == pytest.approx(1.5)
    assert ann.mu[0] == pytest.approx(1.0 / 3.0)


def test_annealed_rejects_beta_outside(toy_model):
    for bad in (-0.01, 1.01):
        with pytest.raises(ValueError):
            annealed_posterior(toy_model, bad)


def test_singular_design_still_annealable():
    # X^T X singular (duplicate column); annealed systems stay SPD
    X = np.array([[1.0, 1.0], [2.0, 2.0]])
    model = BlrModel(X=X, y=[1.0, 0.5], sigma2=1.0, mu_p=[0.0, 0.0], Lambda_p=np.eye(2))
    for beta in (0.0, 0.5, 1.0):
        ann = annealed_posterior(model, beta)
        assert np.all(np.isfinite(ann.mu))
        np.linalg.cholesky(ann.Lambda)


# --------------------------------------------------------------- log ML

def test_exact_log_ml_frozen_toy_value(toy_model):
    # frozen from the closed form; cross-checked by quadrature below
    assert exact_log_ml(toy_model) == pytest.approx(-1.515512, abs=5e-7)


def test_exact_log_ml_against_quadrature(toy_model):
    # independent oracle: 1-D numerical integration of p(D|theta) p_0(theta)
    def integrand(theta):
        lik = np.exp(-0.5 * (1.0 - theta) ** 2) / np.sqrt(2 * np.pi)
        prior = np.exp(-0.5 * theta**2) / np.sqrt(2 * np.pi)
        return lik * prior

    z, err = integrate.quad(integrand, -12, 12, epsabs=1e-13, epsrel=1e-13)
    assert exact_log_ml(toy_model) == pytest.approx(np.log(z), abs=1e-8)


def test_exact_log_ml_empty_data(empty_model):
    assert exact_log_ml(empty_model) == pytest.approx(0.0, abs=1e-14)


def test_additive_noise_rejects_empty_data(empty_model):
    # the noise is a population covariance over rows, so it needs at least one
    with pytest.raises(ValueError, match="empty data"):
        additive_noise_cov(empty_model, 5)


def test_exact_log_ml_quadrature_random_d1():
    rng = generator(123)
    for _ in range(3):
        model = random_model(rng, n=4, d=1)

        def integrand(theta):
            resid = model.y - model.X[:, 0] * theta
            lik = np.exp(-0.5 * resid @ resid / model.sigma2) / (
                2 * np.pi * model.sigma2
            ) ** (model.n / 2)
            pr = np.exp(-0.5 * model.Lambda_p[0, 0] * (theta - model.mu_p[0]) ** 2)
            pr *= np.sqrt(model.Lambda_p[0, 0] / (2 * np.pi))
            return lik * pr

        z, _ = integrate.quad(integrand, -20, 20, epsabs=1e-13, epsrel=1e-13)
        assert exact_log_ml(model) == pytest.approx(np.log(z), abs=1e-8)


# --------------------------------------------------------------- gradients

def test_grad_zero_at_annealed_mean(toy_model):
    for beta in (0.0, 0.4, 1.0):
        ann = annealed_posterior(toy_model, beta)
        assert np.allclose(blr_grad(toy_model, beta, ann.mu), 0.0, atol=1e-12)


def test_grad_zero_at_prior_mean_beta_zero(toy_model):
    assert np.allclose(blr_grad(toy_model, 0.0, toy_model.mu_p), 0.0)


def test_grad_matches_finite_differences():
    rng = generator(7)
    model = random_model(rng, n=12, d=3)
    target = blr_target(model)
    for beta in (0.0, 0.31, 1.0):
        theta = rng.standard_normal(3)
        want = central_difference(lambda x: float(target.log_f(beta, x)), theta, h=1e-6)
        got = blr_grad(model, beta, theta)
        assert np.allclose(got, want, rtol=1e-6, atol=1e-6)


def test_grad_agrees_with_target_gradient(toy_model):
    target = blr_target(toy_model)
    theta = np.array([0.37])
    for beta in (0.0, 0.5, 1.0):
        assert np.allclose(blr_grad(toy_model, beta, theta), target.grad_log_f(beta, theta))


def test_target_gradient_matches_residual_form_oracle():
    # blr_target's likelihood gradient comes from the cached sufficient
    # statistics X^T y / sigma2 and X^T X / sigma2; blr_grad keeps the
    # residual form X^T (y - X theta) / sigma2.  Both are exact, so they may
    # differ only by rounding: per state, at most
    #   1e-10 * (||X^T y|| / sigma2 + (||X^T X|| / sigma2 + ||Lambda_p||) * (1 + ||theta||)).
    rng = generator(29)
    models = [
        gen_blr_data(1000, 10, 3),
        gen_blr_data(1000, 10, 4),
        random_model(rng, n=40, d=4),
        random_model(rng, n=3, d=6),  # X^T X singular
    ]
    for model in models:
        target = blr_target(model)
        xty_scale = np.linalg.norm(model.X.T @ model.y) / model.sigma2
        mat_scale = np.linalg.norm(model.Lambda_lld, 2) + np.linalg.norm(model.Lambda_p, 2)
        for beta in (0.0, 0.37, 1.0):
            ann_mu = annealed_posterior(model, beta).mu
            thetas = np.vstack([ann_mu, rng.standard_normal((5, model.d)), 3.0 * rng.standard_normal(model.d)])
            tol = 1e-10 * (xty_scale + mat_scale * (1.0 + np.linalg.norm(thetas, axis=-1)))
            batched = target.grad_log_f(beta, thetas)
            assert batched.shape == thetas.shape
            err = np.abs(batched - blr_grad(model, beta, thetas)).max(axis=-1)
            assert np.all(err <= tol), (beta, err, tol)
            for theta, t in zip(thetas, tol):
                single = target.grad_log_f(beta, theta)
                assert single.shape == (model.d,)
                assert np.abs(single - blr_grad(model, beta, theta)).max() <= t
            # at the annealed mean the gradient vanishes up to the same rounding
            assert np.abs(target.grad_log_f(beta, ann_mu)).max() <= tol[0]


# ----------------------------------------------------------- update matrices

def test_update_matrices_small_step_limits(toy_model):
    eta = 1e-6
    A, B, C, c_vec, e_vec = update_matrices(toy_model, 0.5, eta)
    assert np.allclose(A, np.eye(1), atol=1e-11)
    assert np.allclose(B, eta * np.eye(1), atol=1e-11)
    assert np.allclose(C, 0.0, atol=1e-5)
    assert np.allclose(c_vec, 0.0, atol=1e-11)
    assert np.allclose(e_vec, 0.0, atol=1e-5)


def test_update_matrices_fixed_point(toy_model):
    ann = annealed_posterior(toy_model, 0.8)
    A, _, C, c_vec, e_vec = update_matrices(toy_model, 0.8, 0.2)
    theta = A @ ann.mu + c_vec
    v_hat = C @ ann.mu + e_vec
    assert np.allclose(theta, ann.mu, atol=1e-13)
    assert np.allclose(v_hat, 0.0, atol=1e-13)


def test_affine_trajectory_equivalence_any_gamma():
    # whole trajectories agree when the generic chain and the affine maps
    # consume the same refresh noise, for damped and undamped momentum
    from dais import StepSizeScheme, make_linear_schedule
    from dais.sampler import _run_chains

    rng = generator(29)
    model = random_model(rng, n=10, d=3)
    target = blr_target(model)
    K, eta = 24, 0.15
    schedule = make_linear_schedule(K)
    steps = StepSizeScheme(K, eta)
    for gamma in (0.0, 0.6, 1.0):
        theta0 = rng.standard_normal(3)
        v0 = rng.standard_normal(3)
        eps = rng.standard_normal((K, 3))
        (theta_K,), (v_K,), _ = _run_chains(target, schedule, steps, TransitionConfig(gamma=gamma),
                                            theta0[None], v0[None], eps[None])
        theta, v = theta0.copy(), v0.copy()
        for k in range(1, K + 1):
            A, B, C, c_vec, e_vec = update_matrices(model, schedule.betas[k], eta)
            theta, v_hat = A @ theta + B @ v + c_vec, C @ theta + A @ v + e_vec
            v = gamma * v_hat + np.sqrt(1 - gamma**2) * eps[k - 1]
        assert np.allclose(theta_K, theta, atol=1e-10)
        assert np.allclose(v_K, v, atol=1e-10)


def test_update_matrices_match_generic_leapfrog_random():
    # equivalence oracle on random SPD models, d=3
    rng = generator(8)
    for _ in range(20):
        model = random_model(rng, n=6, d=3)
        target = blr_target(model)
        beta = float(rng.uniform())
        eta = float(rng.uniform(0.01, 0.4))
        theta = rng.standard_normal(3)
        v = rng.standard_normal(3)
        A, B, C, c_vec, e_vec = update_matrices(model, beta, eta)
        t_new, v_hat = leapfrog(theta, v, eta, beta, target)
        assert np.allclose(t_new, A @ theta + B @ v + c_vec, atol=1e-12)
        assert np.allclose(v_hat, C @ theta + A @ v + e_vec, atol=1e-12)


# ----------------------------------------------------------------- validation

def test_model_validation():
    with pytest.raises(ValueError):
        BlrModel(X=[[1.0]], y=[1.0], sigma2=-1.0, mu_p=[0.0], Lambda_p=[[1.0]])
    with pytest.raises(ValueError):
        BlrModel(X=[[1.0]], y=[1.0, 2.0], sigma2=1.0, mu_p=[0.0], Lambda_p=[[1.0]])
    with pytest.raises(np.linalg.LinAlgError):
        BlrModel(X=[[1.0]], y=[1.0], sigma2=1.0, mu_p=[0.0], Lambda_p=[[-1.0]])
    # a design matrix with no columns fixes d = 0, whatever the prior says
    with pytest.raises(ValueError, match="prior dimensions do not match the design matrix"):
        BlrModel(X=np.zeros((3, 0)), y=[1.0, 2.0, 3.0], sigma2=1.0, mu_p=[0.0], Lambda_p=[[1.0]])
    with pytest.raises(ValueError, match="prior dimensions do not match the design matrix"):
        BlrModel(X=[[]], y=[1.0], sigma2=1.0, mu_p=[0.0, 0.0], Lambda_p=np.eye(2))
    with pytest.raises(ValueError, match=r"^Lambda_p must be 2x2, got \(2, 3\)$"):
        BlrModel(X=np.eye(2), y=[1.0, 2.0], sigma2=1.0, mu_p=[0.0, 0.0], Lambda_p=np.eye(2, 3))
    with pytest.raises(ValueError, match="^Lambda_p must be symmetric$"):
        BlrModel(X=np.eye(2), y=[1.0, 2.0], sigma2=1.0, mu_p=[0.0, 0.0], Lambda_p=[[1.0, 0.5], [0.0, 1.0]])


_FINITE_MODEL = {"X": [[1.0, 0.0], [0.0, 2.0]], "y": [1.0, -1.0], "sigma2": 0.5,
                 "mu_p": [0.0, 0.0], "Lambda_p": [[1.0, 0.0], [0.0, 1.0]]}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["sigma2", "X", "y", "mu_p", "Lambda_p"])
def test_model_rejects_non_finite_inputs(field, bad):
    # one non-finite entry would otherwise surface later as a nan log marginal likelihood
    kwargs = dict(_FINITE_MODEL)
    if field == "sigma2":
        kwargs[field] = bad
    else:
        value = np.array(kwargs[field])
        value.flat[-1] = bad
        kwargs[field] = value
    with pytest.raises(ValueError, match=f"{field} must be"):
        BlrModel(**kwargs)
    assert np.isfinite(exact_log_ml(BlrModel(**_FINITE_MODEL)))
