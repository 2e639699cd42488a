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
from .schedules import AnnealingSchedule, StepSizeScheme, check_addressable, check_same_K
from .targets import AnnealedTarget


class NumericalFailure(ArithmeticError):
    """Non-finite value produced by a chain; never silently clipped.

    Carries the failing step index, the chain index for multi-chain runs,
    and the position midpoint of the failing leapfrog step.
    """

    def __init__(self, message, step=None, chain=None, midpoint=None):
        super().__init__(message)
        self.step = step
        self.chain = chain
        self.midpoint = midpoint


@dataclass(frozen=True)
class TransitionConfig:
    """Momentum damping gamma of the partial refreshment; the mass is the identity.

    gamma = 0 refreshes the momentum completely each step; gamma = 1 never
    refreshes.
    """

    gamma: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")


def leapfrog(theta, v, eta, beta, target: AnnealedTarget):
    """One volume-preserving, time-reversible integrator step.

    Half position update, full momentum kick with the annealed gradient at
    the midpoint, half position update.  Returns (theta_new, v_hat).
    """
    if eta < 0:
        raise ValueError("eta must be non-negative")
    half = theta + (0.5 * eta) * v
    grad = target.grad_log_f(beta, half)
    if not np.all(np.isfinite(grad)):
        chain = None
        mid = half
        if np.ndim(grad) > 1:
            bad = np.nonzero(~np.isfinite(grad).all(axis=-1))[0]
            chain = int(bad[0])
            mid = half[chain]
        raise NumericalFailure("non-finite gradient in leapfrog", chain=chain, midpoint=mid)
    v_hat = v + eta * grad
    theta_new = half + (0.5 * eta) * v_hat
    return theta_new, v_hat


def _refresh_with_noise(v_hat, gamma, z):
    """v = gamma * v_hat + sqrt(1 - gamma^2) z for pre-drawn z."""
    return gamma * v_hat + np.sqrt(1.0 - gamma * gamma) * z


def refresh(v_hat, gamma, rng: np.random.Generator):
    """Partial momentum refreshment; leaves N(0, I) invariant for any gamma."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    return _refresh_with_noise(v_hat, gamma, rng.standard_normal(np.shape(v_hat)))


def _run_chains(target, schedule, steps, config, theta, v, eps):
    """Shared chain core over a batch: theta/v (..., d), eps (..., K, d).

    Returns (theta_K, v_K, L) with L accumulated as
    -log p_0(theta_0) + sum_k [log pi(v_hat_k) - log pi(v_{k-1})] + log f_1(theta_K).
    Each step is `leapfrog` followed by `_refresh_with_noise`, written out
    so that the step constants are formed once per call.  A non-finite
    gradient makes v_hat, and so L, non-finite at the same step, so the one
    finiteness check per step is on L.
    """
    check_same_K(schedule, steps)
    betas = schedule.betas
    eta = steps.eta
    drift = 0.5 * eta
    gamma = config.gamma
    noise_scale = np.sqrt(1.0 - gamma * gamma)
    # |v|^2 as a product with ones: a row sum would round differently
    ones = np.ones(target.dim)
    L = -target.log_p0(theta)
    kinetic = (v * v) @ ones
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, schedule.K + 1):
            half = theta + drift * v
            v_hat = v + eta * target.grad_log_f(betas[k], half)
            theta = half + drift * v_hat
            L = L + 0.5 * (kinetic - (v_hat * v_hat) @ ones)
            if not np.all(np.isfinite(L)):
                _fail(L, k, half)
            v = gamma * v_hat + noise_scale * eps[..., k - 1, :]
            kinetic = (v * v) @ ones
        L = L + target.log_f(1.0, theta)
    if not np.all(np.isfinite(L)):
        _fail(L, schedule.K)
    return theta, v, L


def _fail(L, step, half=None):
    """Raise NumericalFailure naming the step and the first non-finite chain."""
    chain = None
    if np.ndim(L) > 0:
        chain = int(np.nonzero(~np.isfinite(L))[0][0])
        half = None if half is None else half[chain]
    where = f"at step {step}" + ("" if chain is None else f" (chain {chain})")
    raise NumericalFailure(f"non-finite bound accumulator {where}", step=step, chain=chain, midpoint=half)


def dais_chain(
    target: AnnealedTarget,
    schedule: AnnealingSchedule,
    steps: StepSizeScheme,
    config: TransitionConfig,
    rng: np.random.Generator | None = None,
    *,
    theta0=None,
    v0=None,
    refresh_noise=None,
):
    """Run one chain; returns (theta_K, v_K, L), as `sample_chains` does.

    exp(L) is a single-sample unbiased estimate of the normalizing-constant
    ratio between the beta=1 and beta=0 densities.  ``theta0``, ``v0`` and
    ``refresh_noise`` (a (K, dim) array of standard normal draws) may be
    supplied to pin the randomness; anything missing is
    drawn from ``rng`` in the order theta_0, v_0, refresh noise.
    """
    d = target.dim
    if theta0 is None or v0 is None or refresh_noise is None:
        if rng is None:
            raise ValueError("rng is required unless theta0, v0 and refresh_noise are given")
    if theta0 is None:
        theta0 = target.sample_p0(rng)
    if v0 is None:
        v0 = rng.standard_normal(d)
    if refresh_noise is None:
        refresh_noise = rng.standard_normal((schedule.K, d))
    refresh_noise = np.asarray(refresh_noise, dtype=float)
    if refresh_noise.shape != (schedule.K, d):
        raise ValueError(f"refresh_noise must have shape ({schedule.K}, {d})")
    theta, v, L = _run_chains(
        target, schedule, steps, config, np.asarray(theta0, float), np.asarray(v0, float), refresh_noise
    )
    return theta, v, float(L)


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
    if n_chains < 1:
        raise ValueError("n_chains must be >= 1")
    d = target.dim
    check_addressable(n_chains, K, d)
    g_theta, g_v, g_eps = substreams(rng, 3)
    theta = target.sample_p0(g_theta, n_chains)
    v = g_v.standard_normal((n_chains, d))
    eps = g_eps.standard_normal((n_chains, K, d))
    return theta, v, eps


def dais_bound_mc(target, schedule, steps, config, n_chains, rng):
    """Mean and standard error of L over independent chains."""
    if n_chains < 2:
        raise ValueError("n_chains must be >= 2 for a standard error")
    _, _, L = sample_chains(target, schedule, steps, config, n_chains, rng)
    return float(L.mean()), float(L.std(ddof=1) / np.sqrt(n_chains))
