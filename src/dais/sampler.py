"""Annealed importance sampling chains without accept/reject corrections.

A chain starts at an exact sample from the base distribution, applies one
leapfrog step plus a partial momentum refreshment per annealing level, and
accumulates a log importance weight L whose exponential is an unbiased
estimate of the normalizing-constant ratio: E[exp(L)] = Z for any number of
levels.  By Jensen, E[L] <= log Z, so averages of L are stochastic lower
bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import substreams
from .schedules import check_addressable, check_same_K, count
from .targets import AnnealedTarget


class NumericalFailure(ArithmeticError):
    """Non-finite value produced by a chain; never silently clipped.

    Carries the failing step index and, for a sampled chain, the chain index.
    """

    def __init__(self, message, step=None, chain=None):
        super().__init__(message)
        self.step = step
        self.chain = chain


@dataclass(frozen=True)
class TransitionConfig:
    """Momentum damping gamma of the partial refreshment; the mass is the identity.

    gamma = 0 refreshes the momentum completely each step; gamma = 1 never
    refreshes.
    """

    gamma: float = 0.0

    def __post_init__(self):
        check_gamma(self.gamma)


def check_gamma(gamma) -> None:
    """Raise ValueError unless the momentum damping ``gamma`` lies in [0, 1]."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")


def leapfrog(theta, v, eta, beta, target: AnnealedTarget):
    """One volume-preserving, time-reversible integrator step.

    Half position update, full momentum kick with the annealed gradient at the
    midpoint, half position update; ``eta`` broadcasts against the rows, and
    -eta undoes the step.  Returns (theta_new, v_hat); a non-finite gradient
    is passed on in v_hat, for `_run_chains`' check on L.
    """
    half = theta + (0.5 * eta) * v
    v_hat = v + eta * target.grad_log_f(beta, half)
    theta_new = half + (0.5 * eta) * v_hat
    return theta_new, v_hat


def _run_chains(target, schedule, steps, config, theta, v, eps):
    """Chain core over a batch: theta/v (n, d), eps (n, K, d).

    Returns (theta_K, v_K, L) with L accumulated as
    -log p_0(theta_0) + sum_k [log pi(v_hat_k) - log pi(v_{k-1})] + log f_1(theta_K).
    Each step is `leapfrog` followed by the partial refreshment
    v = gamma v_hat + sqrt(1 - gamma^2) eps_k, which leaves N(0, I)
    invariant, with its constants formed once per call.  A non-finite
    gradient makes v_hat, and so L, non-finite at the same step, so the one
    finiteness check per step is on L.
    """
    check_same_K(schedule, steps)
    betas = schedule.betas
    eta = steps.eta
    gamma = config.gamma
    noise_scale = np.sqrt(1.0 - gamma * gamma)
    # |v|^2 as a product with ones: a row sum would round differently
    ones = np.ones(target.dim)
    L = -target.log_p0(theta)
    kinetic = (v * v) @ ones
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, schedule.K + 1):
            theta, v_hat = leapfrog(theta, v, eta, betas[k], target)
            L = L + 0.5 * (kinetic - (v_hat * v_hat) @ ones)
            if not np.isfinite(L).all():
                _fail(L, k)
            v = gamma * v_hat + noise_scale * eps[:, k - 1, :]
            kinetic = (v * v) @ ones
        L = L + target.log_f(1.0, theta)
    if not np.isfinite(L).all():
        _fail(L, schedule.K)
    return theta, v, L


def _fail(L, step):
    """Raise NumericalFailure naming the step and the first non-finite chain."""
    chain = int(np.nonzero(~np.isfinite(L))[0][0])
    raise NumericalFailure(f"non-finite bound accumulator at step {step} (chain {chain})", step=step, chain=chain)


def sample_chains(target, schedule, steps, config, n_chains, rng):
    """Run ``n_chains`` independent chains on one batch of drawn inputs.

    Returns (theta_K, v_K, L) with leading axis ``n_chains``.  ``rng`` is
    split into three child streams that draw, in one call each, theta_0 for
    every chain, v_0 as an (n_chains, d) array and the refresh noise as a
    chain-major (n_chains, K, d) array.  Chain i's inputs depend only on
    ``rng`` and i: the first m chains of an n-chain call draw the same
    inputs as an m-chain call.  Gradient noise that a target adds itself
    (`noisy_gradient`) is drawn by the target, for the whole batch per step.
    """
    theta, v, eps = _draw_inputs(target, schedule.K, n_chains, rng)
    return _run_chains(target, schedule, steps, config, theta, v, eps)


def _draw_inputs(target, K, n_chains, rng):
    """theta_0 (n, d), v_0 (n, d) and refresh noise (n, K, d) from three child streams."""
    n_chains = count("n_chains", n_chains)
    d = target.dim
    check_addressable(n_chains, K, d)
    g_theta, g_v, g_eps = substreams(rng, 3)
    theta = target.sample_p0(g_theta, n_chains)
    v = g_v.standard_normal((n_chains, d))
    eps = g_eps.standard_normal((n_chains, K, d))
    return theta, v, eps


def dais_bound_mc(target, schedule, steps, config, n_chains, rng):
    """Mean and standard error of L over independent chains; a spread past the float range gives inf."""
    n_chains = count("n_chains", n_chains, low=2)  # a standard error needs two chains
    _, _, L = sample_chains(target, schedule, steps, config, n_chains, rng)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(L.mean())
        if not np.isfinite(mean):
            raise NumericalFailure(f"the mean of L over {n_chains} chains overflows")
        return mean, float(L.std(ddof=1) / np.sqrt(n_chains))
