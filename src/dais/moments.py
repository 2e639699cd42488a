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

from .blr import BlrModel, derive_posterior, update_matrices, _chol_logdet
from .sampler import NumericalFailure
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


def propagate_moments(model: BlrModel, schedule=None, steps=None, gamma: float = 0.0, noise=None):
    """Propagate exact joint moments through a K-step chain.

    Starts at mean (mu_p, 0) and covariance blockdiag(Sigma_p, I).  Each step
    applies the affine leapfrog map, adds (when ``noise``, the d x d
    gradient-noise covariance S, is set) the fully correlated per-step
    covariance [[eta^4/4 S, eta^3/2 S], [eta^3/2 S, eta^2 S]], records the
    pre-refreshment momentum moments, then applies the refreshment map
    (v-block scaled by gamma, (1 - gamma^2) I injected).  Returns K+1
    JointMoments.  ``schedule=None`` (K = 0) returns the initial moments
    only.  Identity mass throughout.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    d = model.d
    sigma_eps = None if noise is None else check_noise_cov(noise, d)

    Sigma_p = np.linalg.solve(model.Lambda_p, np.eye(d))
    mu = np.concatenate([model.mu_p, np.zeros(d)])
    Sigma = np.zeros((2 * d, 2 * d))
    Sigma[:d, :d] = 0.5 * (Sigma_p + Sigma_p.T)
    Sigma[d:, d:] = np.eye(d)
    out = [JointMoments(mu[:d].copy(), mu[d:].copy(), Sigma.copy())]
    if schedule is None or steps is None:
        if (schedule is None) != (steps is None):
            raise ValueError("schedule and steps must be given together")
        return out
    check_same_K(schedule, steps)

    eta = steps.eta
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, schedule.K + 1):
            maps = update_matrices(model, schedule.betas[k], eta)
            T = np.block([[maps.A, maps.B], [maps.C, maps.D]])
            shift = np.concatenate([maps.c_vec, maps.e_vec])
            mu = T @ mu + shift
            Sigma = T @ Sigma @ T.T
            if sigma_eps is not None:
                Sigma[:d, :d] += 0.25 * eta**4 * sigma_eps
                Sigma[:d, d:] += 0.5 * eta**3 * sigma_eps
                Sigma[d:, :d] += 0.5 * eta**3 * sigma_eps
                Sigma[d:, d:] += eta**2 * sigma_eps
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
    if schedule is not None and len(moments) != schedule.K + 1:
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
    if model.n:
        resid = model.y - model.X @ mu_K
        e_lik = (
            -0.5 * model.n * np.log(2 * np.pi * model.sigma2)
            - 0.5 * resid @ resid / model.sigma2
            - 0.5 * np.trace(model.Lambda_lld @ Sigma_K)
        )
    else:
        e_lik = 0.0
    logdet_cov_p = -_chol_logdet(model.Lambda_p)
    e_p0_K = _expected_log_gaussian(mu_K, Sigma_K, model.mu_p, model.Lambda_p, logdet_cov_p)
    first = moments[0]
    e_p0_0 = _expected_log_gaussian(first.mu_theta, first.Sigma_theta, model.mu_p, model.Lambda_p, logdet_cov_p)
    kinetic = expected_kinetic_sum(moments) if len(moments) > 1 else 0.0
    return float(e_lik + e_p0_K - e_p0_0 + kinetic)


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
    post = derive_posterior(model)
    last = moments[-1]
    delta = last.mu_theta - post.mu
    term1 = 0.5 * float(delta @ post.Lambda @ delta)
    term2 = 0.5 * float(np.trace(post.Lambda @ last.Sigma_theta)) - 0.5 * model.d
    logdet_ratio = _chol_logdet(model.Lambda_p) - _chol_logdet(post.Lambda)
    kinetic = expected_kinetic_sum(moments) if len(moments) > 1 else 0.0
    term3 = 0.5 * logdet_ratio - kinetic
    return GapBreakdown(term1=term1, term2=term2, term3=term3)


@dataclass(frozen=True)
class _RotatedChain:
    """An isotropic-prior model and chain in the eigenbasis of X^T X / sigma2.

    ``lam``: eigenvalues; ``prior_shift``, ``data_shift``: Lambda_p mu_p and
    X^T y / sigma2 in that basis; ``noise``: diag(Q^T Sigma_eps Q);
    ``gamma``: momentum damping.
    """

    p: float
    lam: np.ndarray
    prior_shift: np.ndarray
    data_shift: np.ndarray
    noise: np.ndarray
    gamma: float

    @property
    def refresh(self) -> np.ndarray:
        """Refreshment scale of (mu_theta, mu_v, S_tt, S_tv, S_vv); S_vv also gains 1 - gamma^2."""
        return np.array([1.0, self.gamma, 1.0, self.gamma, self.gamma**2])

    def step_maps(self, betas: np.ndarray, etas: np.ndarray):
        """Per-mode affine maps of T steps of cells with betas (T, cells) and one eta each (cells,).

        Returns maps (T, 5, 5, cells, d) and shifts (T, 5, cells, d) taking the
        pre-refreshment state after step k-1 to the one after step k: the
        refreshment (v scaled by gamma, 1 - gamma^2 injected), then the
        leapfrog map of ``update_matrices`` at beta_k, then the noise.
        """
        T = betas.shape[0]
        beta = betas[:, :, None]
        eta = etas[:, None]
        ell = self.p + beta * self.lam  # annealed precision
        shift = self.prior_shift + beta * self.data_shift  # annealed precision times mean
        A = 1.0 - (0.5 * eta**2) * ell
        B = eta - (0.25 * eta**3) * ell
        C = -eta * ell
        maps = np.zeros((T, 5, 5) + ell.shape[1:])
        maps[:, 0, 0], maps[:, 0, 1], maps[:, 1, 0], maps[:, 1, 1] = A, B, C, A
        maps[:, 2, 2], maps[:, 2, 3], maps[:, 2, 4] = A * A, 2.0 * A * B, B * B
        maps[:, 3, 2], maps[:, 3, 3], maps[:, 3, 4] = A * C, A * A + B * C, A * B
        maps[:, 4, 2], maps[:, 4, 3], maps[:, 4, 4] = C * C, 2.0 * A * C, A * A
        shifts = np.empty((T, 5) + ell.shape[1:])
        shifts[:, 0] = (0.5 * eta**2) * shift
        shifts[:, 1] = eta * shift
        shifts[:, 2] = (0.25 * eta**4) * self.noise
        shifts[:, 3] = (0.5 * eta**3) * self.noise
        shifts[:, 4] = eta**2 * self.noise
        shifts += (1.0 - self.gamma**2) * maps[:, :, 4]
        maps *= self.refresh[:, None, None]
        return maps, shifts


# mode-steps per block of precomputed step maps (bounds the engine's memory)
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
    runs max K times.  Any other prior raises ``ValueError``: use
    ``propagate_moments`` and ``gap_breakdown`` for it.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
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
    chain = _RotatedChain(
        p=p,
        lam=lam,
        prior_shift=p * (model.mu_p @ Q),
        data_shift=model._Xty_over_s2 @ Q,
        noise=np.zeros(d) if noise is None else np.einsum("ji,jk,ki->i", Q, check_noise_cov(noise, d), Q),
        gamma=gamma,
    )

    # cells sorted by K: the cells still running at step k are a suffix
    order = np.argsort([s.K for s in steps_list], kind="stable")
    Ks = np.array([steps_list[i].K for i in order])
    etas = np.array([steps_list[i].eta for i in order])
    betas = [make_linear_schedule(int(K)).betas for K in Ks]
    # Each cell's per-mode state (mu_theta, mu_v, S_tt, S_tv, S_vv) is kept
    # before refreshment; step maps fold in the previous refreshment.  The
    # start (mu_p, 0), blockdiag(Sigma_p, I) is its own refreshment.
    state = np.zeros((5, Ks.size, d))
    state[0] = model.mu_p @ Q
    state[2] = 1.0 / p
    state[4] = 1.0
    energy = np.full(Ks.size, float(d))  # E|v|^2 of the refreshed momentum
    kinetic = np.zeros(Ks.size)
    ok = np.ones(Ks.size, dtype=bool)

    k = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while k < Ks[-1]:
            lo = int(np.searchsorted(Ks, k + 1))
            stop = min(int(Ks[lo]), k + max(1, _BLOCK_MODE_STEPS // ((Ks.size - lo) * d)))
            block_betas = np.stack([b[k + 1 : stop + 1] for b in betas[lo:]], axis=1)
            maps, shifts = chain.step_maps(block_betas, etas[lo:])
            hats = np.empty_like(shifts)
            x = state[:, lo:]
            for t in range(stop - k):
                x = np.einsum("ijcd,jcd->icd", maps[t], x, out=hats[t])
                x += shifts[t]
            state[:, lo:] = x
            refreshed = hats * chain.refresh[:, None, None]
            refreshed[:, 4] += 1.0 - gamma**2
            energy_hat = np.sum(hats[:, 1] ** 2 + hats[:, 4], axis=2)
            energy_refreshed = np.sum(refreshed[:, 1] ** 2 + refreshed[:, 4], axis=2)
            prev = np.concatenate([energy[None, lo:], energy_refreshed[:-1]])
            kinetic[lo:] += 0.5 * np.sum(prev - energy_hat, axis=0)
            energy[lo:] = energy_refreshed[-1]
            tt, tv, vv = refreshed[:, 2], refreshed[:, 3], refreshed[:, 4]
            low = 0.5 * (tt + vv) - np.hypot(0.5 * (tt - vv), tv)  # smaller eigenvalue per mode
            ok[lo:] &= np.all(low >= -PSD_TOL, axis=(0, 2))
            k = stop

        post = derive_posterior(model)
        post_prec = p + lam
        delta = state[0] - post.mu @ Q
        term1 = 0.5 * np.sum(post_prec * delta * delta, axis=1)
        term2 = 0.5 * np.sum(post_prec * state[2], axis=1) - 0.5 * d
        term3 = 0.5 * (_chol_logdet(model.Lambda_p) - _chol_logdet(post.Lambda)) - kinetic
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
