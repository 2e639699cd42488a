"""Exact Gaussian moment propagation and bound-gap accounting.

For Bayesian linear regression every chain update is an affine map of a
Gaussian state, so the joint distribution of (theta_k, v_k) stays Gaussian
and can be propagated in closed form for any damping gamma and any additive
gradient-noise covariance.  From those moments the expected bound, its gap
to the exact log marginal likelihood, and the gap's three-term breakdown
follow without sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blr import BlrModel, leapfrog_affine, posterior_volume, update_matrices, _chol_logdet
from .sampler import NumericalFailure, check_gamma
from .schedules import StepSizeScheme, check_same_K, make_linear_schedule
from .targets import check_noise_cov

PSD_TOL = 1e-10


@dataclass(frozen=True)
class JointMoments:
    """Moments of the joint (theta, v) state after step k.

    ``Sigma`` is the full 2d x 2d covariance.  ``mu_vhat`` / ``Sigma_vhat``
    are the pre-refreshment momentum moments recorded during step k (None at
    k = 0).
    """

    mu_theta: np.ndarray
    mu_v: np.ndarray
    Sigma: np.ndarray
    mu_vhat: np.ndarray | None = None
    Sigma_vhat: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.mu_theta.size

    @property
    def Sigma_theta(self) -> np.ndarray:
        return self.Sigma[: self.dim, : self.dim]

    @property
    def Sigma_v(self) -> np.ndarray:
        return self.Sigma[self.dim :, self.dim :]


def propagate_moments(model: BlrModel, schedule, steps, gamma: float = 0.0, noise=None):
    """Propagate exact joint moments through a K-step chain.

    Starts at mean (mu_p, 0) and covariance blockdiag(Sigma_p, I).  Each step
    applies the affine leapfrog map, adds (when ``noise``, the d x d
    gradient-noise covariance S, is set) the fully correlated per-step
    covariance [[eta^4/4 S, eta^3/2 S], [eta^3/2 S, eta^2 S]], records the
    pre-refreshment momentum moments, then applies the refreshment map
    (v-block scaled by gamma, (1 - gamma^2) I injected).  Returns K+1
    JointMoments, the initial moments first.  Identity mass throughout.
    """
    check_gamma(gamma)
    check_same_K(schedule, steps)
    d = model.d
    sigma_eps = None if noise is None else check_noise_cov(noise, d)

    Sigma_p = np.linalg.solve(model.Lambda_p, np.eye(d))
    mu = np.concatenate([model.mu_p, np.zeros(d)])
    Sigma = np.zeros((2 * d, 2 * d))
    Sigma[:d, :d] = 0.5 * (Sigma_p + Sigma_p.T)
    Sigma[d:, d:] = np.eye(d)
    out = [JointMoments(mu[:d].copy(), mu[d:].copy(), Sigma.copy())]
    eta = steps.eta
    with np.errstate(over="ignore", invalid="ignore"):
        if sigma_eps is not None:  # each entry a coefficient times an entry of S, as in four scaled blocks
            noise_block = np.kron([[0.25 * eta**4, 0.5 * eta**3], [0.5 * eta**3, eta**2]], sigma_eps)
        for k in range(1, schedule.K + 1):
            A, B, C, c_vec, e_vec = update_matrices(model, schedule.betas[k], eta)
            T = np.block([[A, B], [C, A]])
            shift = np.concatenate([c_vec, e_vec])
            mu = T @ mu + shift
            Sigma = T @ Sigma @ T.T
            if sigma_eps is not None:
                Sigma += noise_block
            Sigma = 0.5 * (Sigma + Sigma.T)
            if not (np.all(np.isfinite(Sigma)) and np.all(np.isfinite(mu))):
                raise NumericalFailure("moment propagation overflowed", step=k)
            mu_vhat = mu[d:].copy()
            Sigma_vhat = Sigma[d:, d:].copy()
            mu[d:] *= gamma
            Sigma[:d, d:] *= gamma
            Sigma[d:, :d] *= gamma
            Sigma[d:, d:] = gamma**2 * Sigma[d:, d:] + (1.0 - gamma**2) * np.eye(d)
            low = float(np.linalg.eigvalsh(Sigma).min())
            if low < -PSD_TOL:
                raise NumericalFailure(f"covariance lost positive semi-definiteness ({low:.3e})", step=k)
            out.append(JointMoments(mu[:d].copy(), mu[d:].copy(), Sigma.copy(), mu_vhat, Sigma_vhat))
    return out


def expected_kinetic_sum(moments) -> float:
    """E[sum_k log pi(v_hat_k) - log pi(v_{k-1})] from Gaussian moments.

    Each term is -(1/2)(||mu_vhat||^2 + tr Sigma_vhat)
    + (1/2)(||mu_v||^2 + tr Sigma_v) with the second pair taken
    from the refreshed momentum of the previous step; the normalization
    constants cancel.
    """
    if len(moments) < 1:
        raise ValueError("moments must contain at least the initial entry")

    def energy(mu, Sigma):
        return float(mu @ mu + np.sum(np.diag(Sigma)))

    total = 0.0
    for prev, cur in zip(moments[:-1], moments[1:]):
        if cur.mu_vhat is None or cur.Sigma_vhat is None:
            raise ValueError("missing pre-refreshment momentum moments")
        total += 0.5 * (energy(prev.mu_v, prev.Sigma_v) - energy(cur.mu_vhat, cur.Sigma_vhat))
    return total


def _check_match(model, moments, schedule):
    if moments[0].dim != model.d:
        raise ValueError(f"moments have dim {moments[0].dim}, model has d={model.d}")
    if len(moments) != schedule.K + 1:
        raise ValueError(f"{len(moments)} moment entries for a K={schedule.K} schedule")


def _expected_log_gaussian(mean_q, cov_q, mean_p, prec_p, logdet_cov_p):
    """E_q[log N(theta; mean_p, prec_p^{-1})] for q with moments (mean_q, cov_q)."""
    d = mean_q.size
    delta = mean_q - mean_p
    return float(
        -0.5 * d * np.log(2 * np.pi)
        - 0.5 * logdet_cov_p
        - 0.5 * np.trace(prec_p @ cov_q)
        - 0.5 * delta @ prec_p @ delta
    )


def expected_bound(model: BlrModel, moments, schedule) -> float:
    """Exact expectation of the chain's log weight L.

    E[L] = E[log p(D | theta_K)] + E[log p_0(theta_K)] - E[log p_0(theta_0)]
    + ``expected_kinetic_sum``; every expectation is a Gaussian identity in
    the propagated moments.
    """
    _check_match(model, moments, schedule)
    last = moments[-1]
    mu_K, Sigma_K = last.mu_theta, last.Sigma_theta
    resid = model.y - model.X @ mu_K
    e_lik = (
        -0.5 * model.n * np.log(2 * np.pi * model.sigma2)
        - 0.5 * resid @ resid / model.sigma2
        - 0.5 * np.trace(model.Lambda_lld @ Sigma_K)
    )
    logdet_cov_p = -_chol_logdet(model.Lambda_p)
    e_p0_K = _expected_log_gaussian(mu_K, Sigma_K, model.mu_p, model.Lambda_p, logdet_cov_p)
    first = moments[0]
    e_p0_0 = _expected_log_gaussian(first.mu_theta, first.Sigma_theta, model.mu_p, model.Lambda_p, logdet_cov_p)
    return float(e_lik + e_p0_K - e_p0_0 + expected_kinetic_sum(moments))


@dataclass(frozen=True)
class GapBreakdown:
    """Three-term split of log Z - E[L]; ``total`` is their sum.

    term1: squared mean error under the posterior metric.
    term2: covariance-trace error, (1/2) tr(Lambda_pos Sigma_K) - d/2.
    term3: log-determinant volume ratio minus the expected kinetic sum.
    """

    term1: float
    term2: float
    term3: float
    total: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "total", self.term1 + self.term2 + self.term3)


def gap_breakdown(model: BlrModel, moments, schedule) -> GapBreakdown:
    """Closed-form gap between the exact log marginal likelihood and E[L]."""
    _check_match(model, moments, schedule)
    post, logdet_ratio = posterior_volume(model)
    last = moments[-1]
    delta = last.mu_theta - post.mu
    term1 = 0.5 * float(delta @ post.Lambda @ delta)
    term2 = 0.5 * float(np.trace(post.Lambda @ last.Sigma_theta)) - 0.5 * model.d
    term3 = 0.5 * logdet_ratio - expected_kinetic_sum(moments)
    return GapBreakdown(term1=term1, term2=term2, term3=term3)


def _mode_step_maps(p, lam, prior_shift, data_shift, noise, gamma, beta, eta, maps):
    """Per-mode affine maps of T steps of cells with betas ``beta`` (T, cells, d) and one eta each.

    In the eigenbasis of X^T X / sigma2 (eigenvalues ``lam``) under prior
    p I, ``prior_shift`` and ``data_shift`` are Lambda_p mu_p and X^T y /
    sigma2 and ``noise`` is diag(Q^T Sigma_eps Q); these and ``eta`` come
    repeated per cell as (cells, d), so each operation runs over cells and
    modes in one loop.  Writes into ``maps`` (5, 6, T, cells, d) the maps
    that take the pre-refreshment state after step k-1, with a sixth entry
    of ones, to the one after step k: the refreshment (v scaled by gamma,
    1 - gamma^2 injected), the leapfrog map of ``update_matrices`` at
    beta_k, then the noise.  Column 5 is the step's shift.  The refreshment
    scales multiply the 13 non-zero coefficients of columns 0-4 as they are
    written, and at gamma = 0 the eight gamma-scaled ones are not written;
    entries never written must be 0.
    """
    ell = p + beta * lam  # annealed precision
    shift = prior_shift + beta * data_shift  # annealed precision times mean
    A, B, C, c, e = leapfrog_affine(eta, ell, shift, 1.0)
    g, g2 = gamma, gamma**2
    maps[0, 0], maps[1, 0], maps[0, 5], maps[1, 5] = A, C, c, e
    for i, j, x, y in ((2, 2, A, A), (3, 2, A, C), (4, 2, C, C), (2, 5, B, B), (3, 5, A, B), (4, 5, A, A)):
        np.multiply(x, y, out=maps[i, j])
    if gamma:
        maps[0, 1], maps[1, 1], maps[2, 3], maps[4, 3] = B * g, A * g, 2.0 * A * B * g, 2.0 * A * C * g
        maps[3, 3] = (maps[2, 2] + B * C) * g
        np.multiply(maps[2:, 5], g2, out=maps[2:, 4])  # BB, AB, AA times g2
        maps[2:, 5] *= 1.0 - g2
    maps[2:, 5] += np.stack([0.25 * eta**4, 0.5 * eta**3, eta**2])[:, None] * noise


# mode-steps per block of step maps: sets the engine's memory, 37 doubles per
# mode-step, and the grouping of the kinetic sums, so their bits
_BLOCK_MODE_STEPS = 1 << 14


def sweep_gaps(model: BlrModel, gamma: float, steps_list, noise=None) -> np.ndarray:
    """Gaps of many chains, each with a linear schedule and one eta, on an isotropic-prior model.

    Entry i is ``gap_breakdown(model, propagate_moments(model, schedule, s,
    gamma, noise), schedule).total`` for ``s = steps_list[i]`` and
    ``schedule = make_linear_schedule(s.K)``; a cell whose propagation fails
    (non-finite state, or a covariance below -PSD_TOL) is nan.

    With an isotropic prior ``Lambda_p = p I`` every annealed precision
    p I + beta X^T X / sigma2 shares the eigenbasis Q of X^T X / sigma2.  In
    that basis each leapfrog step and refreshment acts on d independent
    (theta_i, v_i) modes, each carrying two means and a 2 x 2 covariance
    block; the blocks form a closed recursion even under a non-diagonal
    noise covariance, which enters through diag(Q^T Sigma_eps Q).  The gap
    needs only the per-mode means, tr(Lambda_post Sigma_theta) and
    tr Sigma_v.  All cells advance together, sorted by K, so the step loop
    runs max K times, each step one ``np.einsum`` of the 5 x 6 step maps
    (the sixth column the shift) against the state and a row of ones.  A
    call allocates its buffers once, 37 x max(2^14, cells * d) doubles of
    step maps, states and scratch.  At gamma = 0 the refreshed momentum is
    exactly N(0, I): the eight gamma-scaled map coefficients stay 0, and the
    read-outs take S_vv = 1, E|v|^2 = d and hypot(a, 0) = |a|.  Any other
    prior raises ``ValueError``: use ``propagate_moments`` and
    ``gap_breakdown`` for it.
    """
    check_gamma(gamma)
    steps_list = list(steps_list)
    d = model.d
    p = model.Lambda_p[0, 0]
    if not np.array_equal(model.Lambda_p, p * np.eye(d)):
        raise ValueError("sweep_gaps needs an isotropic prior Lambda_p = p I; "
                         "use propagate_moments and gap_breakdown for any other prior")
    gaps = np.full(len(steps_list), np.nan)
    if not steps_list:
        return gaps
    lam, Q = np.linalg.eigh(model.Lambda_lld)
    prior_shift, data_shift = p * (model.mu_p @ Q), model.Xty_over_s2 @ Q
    mode_noise = np.zeros(d) if noise is None else np.einsum("ji,jk,ki->i", Q, check_noise_cov(noise, d), Q)
    g2 = gamma**2

    # cells sorted by K: the cells still running at step k are a suffix
    order = np.argsort([s.K for s in steps_list], kind="stable")
    Ks = np.array([steps_list[i].K for i in order])
    etas = np.array([steps_list[i].eta for i in order])
    # the step maps' inputs as (cells, d): per-mode ones repeated per cell, per-cell ones per mode
    per_cell = [np.tile(v, (Ks.size, 1)) for v in (lam, prior_shift, data_shift, mode_noise)]
    cell_Ks, cell_etas = (np.repeat(v, d).reshape(Ks.size, d) for v in (Ks, etas))
    # built for its size check alone: a K whose schedule numpy cannot allocate
    # raises MemoryError here, as on the dense path, instead of starting K steps
    make_linear_schedule(int(Ks[-1]))
    # Each cell's per-mode state (mu_theta, mu_v, S_tt, S_tv, S_vv, 1) is
    # kept before refreshment; step maps fold in the previous refreshment and,
    # against the ones, the shift.  The start (mu_p, 0), blockdiag(Sigma_p, I)
    # is its own refreshment.
    state = np.zeros((6, Ks.size, d))
    state[0] = model.mu_p @ Q
    state[2] = 1.0 / p
    state[4] = state[5] = 1.0
    energy = np.full(Ks.size, float(d))  # E|v|^2 of the refreshed momentum: d throughout at gamma = 0
    kinetic = np.zeros(Ks.size)
    ok = np.ones(Ks.size, dtype=bool)
    # a block's step maps (30 columns), states (6) and read-out scratch (1) are
    # views of these buffers; a block of T steps of m cells fills T * m * d <= size
    size = max(_BLOCK_MODE_STEPS, Ks.size * d)
    map_buffer, hat_buffer, scratch = np.zeros((5, 6, size)), np.empty(6 * size), np.empty(size)

    k = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while k < Ks[-1]:
            lo = int(np.searchsorted(Ks, k + 1))
            stop = min(int(Ks[lo]), k + max(1, _BLOCK_MODE_STEPS // ((Ks.size - lo) * d)))
            block_betas = np.arange(k + 1, stop + 1)[:, None, None] / cell_Ks[lo:]  # beta_k = k / K, as in the schedule
            shape, n = block_betas.shape, block_betas.size
            maps = map_buffer[:, :, :n].reshape((5, 6) + shape)
            _mode_step_maps(p, *(v[lo:] for v in per_cell), gamma, block_betas, cell_etas[lo:], maps)
            hats = hat_buffer[: 6 * n].reshape(shape[0], 6, -1)  # a step's cells and modes on one axis
            hats[:, 5] = 1.0
            x = state[:, lo:].reshape(6, -1)
            steps = zip(np.moveaxis(maps.reshape(5, 6, shape[0], -1), 2, 0), hats[:, :5], hats)
            for step_map, out, x_next in steps:
                np.einsum("ijk,jk->ik", step_map, x, out=out)
                x = x_next
            state[:, lo:] = x.reshape(6, -1, d)
            hats = np.moveaxis(hats.reshape((shape[0], 6) + shape[1:]), 1, 0)
            mu_v, tt, work = hats[1], hats[2], scratch[:n].reshape(shape)
            energy_hat = np.sum(np.add(np.multiply(mu_v, mu_v, out=work), hats[4], out=work), axis=2)
            if gamma:  # refreshed, as the maps fold it
                tv, vv = gamma * hats[3], g2 * hats[4] + (1.0 - g2)
                energy_refreshed = np.sum((gamma * mu_v) ** 2 + vv, axis=2)
                prev = np.concatenate([energy[None, lo:], energy_refreshed[:-1]])
                energy[lo:] = energy_refreshed[-1]
                low = 0.5 * (tt + vv) - np.hypot(0.5 * (tt - vv), tv)  # smaller eigenvalue per mode
            else:  # the refreshed momentum is exactly N(0, I): vv = 1, tv = 0 and E|v|^2 = d
                prev = energy[lo:]
                low = 0.5 * (tt + 1.0) - np.abs(0.5 * (tt - 1.0))  # smaller eigenvalue per mode
            kinetic[lo:] += 0.5 * np.sum(prev - energy_hat, axis=0)
            ok[lo:] &= np.all(np.all(low >= -PSD_TOL, axis=0), axis=1)
            k = stop

        post, logdet_ratio = posterior_volume(model)
        post_prec = p + lam
        delta = state[0] - post.mu @ Q
        term1 = 0.5 * np.sum(post_prec * delta * delta, axis=1)
        term2 = 0.5 * np.sum(post_prec * state[2], axis=1) - 0.5 * d
        term3 = 0.5 * logdet_ratio - kinetic
        total = term1 + term2 + term3
    gaps[order] = np.where(ok & np.isfinite(total), total, np.nan)
    return gaps


def stochastic_penalty(steps: StepSizeScheme, sigma_eps) -> float:
    """Irreducible bound inflation under additive gradient noise.

    K eta^2 tr(Sigma_eps) / 2 for a chain of K steps of one step size eta:
    with eta = a / sqrt(K) this is (1/2) a^2 tr(Sigma_eps) independent of K,
    which is why the gap cannot vanish once the noise trace is positive.
    ``sigma_eps`` is the d x d noise covariance.
    """
    return float(0.5 * steps.K * steps.eta**2 * np.trace(check_noise_cov(sigma_eps)))


def theory_slope(c: float) -> float:
    """Predicted log-log slope 2c - 1 of the gap against the step count."""
    return 2.0 * c - 1.0
