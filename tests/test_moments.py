import hashlib
import tracemalloc

import numpy as np
import pytest

from dais import (
    BlrModel,
    NumericalFailure,
    StepSizeScheme,
    TransitionConfig,
    annealed_posterior,
    blr_target,
    exact_log_ml,
    gap_breakdown,
    gen_blr_data,
    generator,
    make_linear_schedule,
    make_stepsize_scheme,
    propagate_moments,
    sweep_gaps,
    theory_slope,
    update_matrices,
)
from dais.blr import additive_noise_cov
from dais.moments import GapBreakdown, expected_bound, expected_kinetic_sum, stochastic_penalty
from dais.sampler import leapfrog

from conftest import closed_recursions, dense_gap, random_model


CFG0 = TransitionConfig(gamma=0.0)


# ------------------------------------------------------------- propagation

def test_initial_moments_only():
    model = gen_blr_data(20, 3, 0)
    moments = propagate_moments(model, make_linear_schedule(1), StepSizeScheme(1, 0.1))
    assert len(moments) == 2
    m0 = moments[0]
    assert np.allclose(m0.mu_theta, model.mu_p)
    assert np.allclose(m0.mu_v, 0.0)
    assert np.allclose(m0.Sigma_theta, np.linalg.inv(model.Lambda_p))
    assert np.allclose(m0.Sigma_v, np.eye(3))
    assert np.allclose(m0.Sigma[:3, 3:], 0.0)


def test_full_refresh_matches_closed_recursions():
    rng = generator(4)
    model = random_model(rng, n=30, d=3)
    K, eta = 32, 0.12
    schedule = make_linear_schedule(K)
    moments = propagate_moments(model, schedule, StepSizeScheme(K, eta), gamma=0.0)
    mus, Sigmas, mu_vs, Sigma_vs = closed_recursions(model, schedule, eta)
    for k in range(K + 1):
        assert np.allclose(moments[k].mu_theta, mus[k], atol=1e-10)
        assert np.allclose(moments[k].Sigma_theta, Sigmas[k], atol=1e-10)
        if k:
            assert np.allclose(moments[k].mu_vhat, mu_vs[k], atol=1e-10)
            assert np.allclose(moments[k].Sigma_vhat, Sigma_vs[k], atol=1e-10)
            # full refreshment kills cross-covariance and resets momentum
            assert np.allclose(moments[k].Sigma[:3, 3:], 0.0, atol=1e-12)
            assert np.allclose(moments[k].Sigma_v, np.eye(3), atol=1e-12)


def test_partial_refresh_matches_sampled_chains():
    # MC oracle: empirical moments of many sampled chains, gamma = 0.9
    model = gen_blr_data(50, 2, 9)
    K, eta, gamma = 32, 0.15, 0.9
    schedule = make_linear_schedule(K)
    steps = StepSizeScheme(K, eta)
    moments = propagate_moments(model, schedule, steps, gamma=gamma)
    from dais import sample_chains

    n = 100000
    theta, v, _ = sample_chains(blr_target(model), schedule, steps,
                                TransitionConfig(gamma=gamma), n, generator(10))
    last = moments[-1]
    se_mu = theta.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(theta.mean(axis=0) - last.mu_theta) <= 3 * se_mu)
    emp_cov = np.cov(theta.T)
    S = last.Sigma_theta
    se_cov = np.sqrt((np.outer(np.diag(S), np.diag(S)) + S**2) / n)
    assert np.all(np.abs(emp_cov - S) <= 3.5 * se_cov)
    se_mv = v.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(v.mean(axis=0) - last.mu_v) <= 3 * se_mv)


def test_propagation_rejects_mismatched_steps():
    model = gen_blr_data(10, 2, 1)
    with pytest.raises(ValueError):
        propagate_moments(model, make_linear_schedule(4), StepSizeScheme(5, 0.1), 0.0)


def test_propagation_psd_guard_raises():
    model = gen_blr_data(100, 2, 2)
    schedule = make_linear_schedule(200)
    steps = StepSizeScheme(200, 5.0)  # unstable: covariance explodes
    with pytest.raises(NumericalFailure):
        propagate_moments(model, schedule, steps, 0.0)


# ------------------------------------------------------- batched gap engine

ENGINE_RTOL = 1e-10
# (a, c, K) cells, deliberately unsorted in K
ENGINE_CELLS = [(0.5, 0.25, 300), (0.3, 0.5, 1), (0.5, 1 / 3, 64), (0.3, 0.25, 7),
                (0.3, 0.5, 300), (0.5, 0.0, 7), (0.5, 0.5, 64), (0.5, 0.25, 1)]


def isotropic_model():
    rng = np.random.default_rng(17)
    n, d = 40, 4
    return BlrModel(X=0.3 * rng.standard_normal((n, d)), y=rng.standard_normal(n), sigma2=0.7,
                    mu_p=rng.standard_normal(d), Lambda_p=2.5 * np.eye(d))


def engine_noise(kind, model):
    if kind is None:
        return None
    if kind == "matrix":
        noise = additive_noise_cov(model, 5)
        assert np.abs(noise - np.diag(np.diag(noise))).max() > 0.1 * np.abs(noise).max()
        return noise
    if kind == "scalar":
        return 0.3 * np.eye(model.d)
    return np.diag([0.1, 0.4, 0.0, 0.25])


@pytest.mark.parametrize("noise_kind", [None, "matrix", "scalar", "vector"])
@pytest.mark.parametrize("gamma", [0.0, 0.5, 0.9, 1.0])
def test_sweep_gaps_matches_dense_oracle(gamma, noise_kind):
    model = isotropic_model()
    noise = engine_noise(noise_kind, model)
    steps = [make_stepsize_scheme(a, c, K) for a, c, K in ENGINE_CELLS]
    gaps = sweep_gaps(model, gamma, steps, noise=noise)
    assert gaps.shape == (len(steps),)
    for s, gap in zip(steps, gaps):
        assert gap == pytest.approx(dense_gap(model, gamma, s, noise), rel=ENGINE_RTOL, abs=0.0)


DIVERGENT_CELLS = [  # (gamma, a, K, reason, noise batch size or None)
    (0.0, 90.0, 128, "overflowed", None),  # as in the sweep's divergent-cell test
    (1.0, 3.0, 5, "positive semi-definiteness", None),  # finite, but the covariance turns indefinite
    # with damping a moderate step size turns the covariance indefinite before
    # anything overflows; eta = 1e80 overflows the step maps at step 1
    (0.5, 1e80, 64, "overflowed", None),
    (0.9, 1e80, 4, "overflowed", None),
    # gamma = 0 leaves the damping coefficients and the refreshed momentum's terms unwritten
    (0.0, 1e80, 64, "overflowed", None),
    (0.0, 1e80, 4, "overflowed", None),
    (0.0, 90.0, 128, "overflowed", 10),
]


@pytest.mark.parametrize("gamma,a,K,reason,batch", DIVERGENT_CELLS,
                         ids=["-".join(map(str, case[:4])) + ("" if case[4] is None else f"-batch{case[4]}")
                              for case in DIVERGENT_CELLS])
def test_sweep_gaps_divergent_cell_is_nan(gamma, a, K, reason, batch):
    # the failed cell is nan; the other cells of the same call are unaffected
    model = gen_blr_data(100, 2, 5)
    noise = None if batch is None else additive_noise_cov(model, batch)
    steps = [make_stepsize_scheme(0.4, 0.25, 16), make_stepsize_scheme(a, 0.0, K),
             make_stepsize_scheme(0.4, 0.25, 256)]
    with pytest.raises(NumericalFailure, match=reason):
        dense_gap(model, gamma, steps[1], noise)
    gaps = sweep_gaps(model, gamma, steps, noise=noise)
    assert np.isnan(gaps[1])
    for i in (0, 2):
        assert gaps[i] == pytest.approx(dense_gap(model, gamma, steps[i], noise), rel=ENGINE_RTOL, abs=0.0)


SWEEP_PINNED_DIGEST = "f0f6a0135af4800155e399ed533a1ee1048dc803734f93fd744e55db4fe87d5c"


def test_sweep_gaps_pinned_to_parent_digest():
    # every bit of the engine's gaps: the step maps may be built in any way
    # that leaves the arithmetic of each gap unchanged
    h = hashlib.sha256()
    for model, batch in ((isotropic_model(), 5), (gen_blr_data(1000, 10, 7), 100)):
        # mixed K, unsorted, so the active suffix shrinks between blocks
        steps = [make_stepsize_scheme(a, c, K)
                 for a, c, K in [(1.1, 0.25, 4096), (0.5, 0.5, 1), (1.0, 1 / 3, 64), (1.1, 0.5, 1024),
                                 (0.3, 0.0, 7), (1.0, 0.25, 300), (1.1, 1 / 3, 4096)]]
        for gamma in (0.0, 0.5, 0.9, 1.0):
            for noise in (None, additive_noise_cov(model, batch)):
                h.update(repr(sweep_gaps(model, gamma, steps, noise=noise).tolist()).encode())
    assert h.hexdigest() == SWEEP_PINNED_DIGEST


DENSE_PINNED_DIGEST = "0bda8f305be5e8f23757bdd51cdc6150eceaf14060dc50c39411adb49c5ae0a4"


def test_propagate_moments_pinned_digest():
    # every bit of the dense oracle: each JointMoments field of each step and
    # each `update_matrices` array of each beta, on a general and an isotropic prior
    h = hashlib.sha256()
    for model, batch in ((random_model(np.random.default_rng(29), 30, 3), 5), (gen_blr_data(200, 5, 3), 20)):
        schedule = make_linear_schedule(24)
        steps = make_stepsize_scheme(0.6, 0.25, 24)
        for beta in schedule.betas:
            for field in update_matrices(model, beta, steps.eta):  # A, B, C, c_vec, e_vec
                h.update(field.tobytes())
        for gamma in (0.0, 0.5, 0.9):
            for noise in (None, additive_noise_cov(model, batch)):
                for m in propagate_moments(model, schedule, steps, gamma, noise=noise):
                    for field in (m.mu_theta, m.mu_v, m.Sigma, m.mu_vhat, m.Sigma_vhat):
                        h.update(b"None" if field is None else field.tobytes())
    assert h.hexdigest() == DENSE_PINNED_DIGEST


@pytest.mark.parametrize("block_mode_steps", [1, 7, 64])
@pytest.mark.parametrize("gamma,noise_kind", [(0.0, None), (0.5, "matrix"), (0.9, "vector")])
def test_sweep_gaps_block_edges(monkeypatch, block_mode_steps, gamma, noise_kind):
    # small blocks force many block shapes, down to one step whose cells x
    # modes exceed the block size
    monkeypatch.setattr("dais.moments._BLOCK_MODE_STEPS", block_mode_steps)
    model = isotropic_model()
    noise = engine_noise(noise_kind, model)
    steps = [make_stepsize_scheme(a, c, K) for a, c, K in ENGINE_CELLS]
    gaps = sweep_gaps(model, gamma, steps, noise=noise)
    for s, gap in zip(steps, gaps):
        assert gap == pytest.approx(dense_gap(model, gamma, s, noise), rel=ENGINE_RTOL, abs=0.0)


def test_sweep_gaps_peak_memory():
    # one panel: 21 cells, d = 10, K up to 4096; the traced peak was 10.4 MiB
    # when every block allocated its own step maps
    model = gen_blr_data(1000, 10, 7)
    noise = additive_noise_cov(model, 100)
    steps = [make_stepsize_scheme(1.1, c, K) for c in (0.25, 1 / 3, 0.5)
             for K in (64, 128, 256, 512, 1024, 2048, 4096)]
    tracemalloc.start()
    try:
        sweep_gaps(model, 0.0, steps, noise=noise)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * 2**20


def _prior_importance_gap(model):
    """log Z - E_p0[log p(y | theta)]: the gap of importance sampling from the prior, in closed form."""
    resid = model.y - model.X @ model.mu_p
    spread = np.trace(model.X.T @ model.X @ np.linalg.inv(model.Lambda_p))
    expected_log_lik = (-0.5 * model.n * np.log(2 * np.pi * model.sigma2)
                        - (resid @ resid + spread) / (2 * model.sigma2))
    return exact_log_ml(model) - expected_log_lik


@pytest.mark.parametrize("seed", [7, 11])
def test_sweep_gaps_zero_step_is_importance_sampling_from_the_prior(seed):
    # eta = 0 leaves theta_0 ~ p_0 in place, so the gap is the prior baseline
    # whatever gamma, the gradient noise or K
    model = gen_blr_data(1000, 10, seed)
    want = _prior_importance_gap(model)
    steps = [StepSizeScheme(K, 0.0) for K in (1, 64, 4096)]
    for gamma in (0.0, 0.9):
        for noise in (None, additive_noise_cov(model, 100)):
            np.testing.assert_allclose(sweep_gaps(model, gamma, steps, noise=noise), want, rtol=1e-12)


@pytest.mark.parametrize("seed", [7, 11])
def test_sweep_gaps_minibatch_noise_leaves_no_step_size_better_than_the_prior(seed):
    # the mini-batch negative result over every step size on a grid: with b = 100 the
    # noisy gap's minimum over eta stays at the eta -> 0 baseline at every K, while the
    # clean minimum keeps falling with K
    model = gen_blr_data(1000, 10, seed)
    Ks, etas = (64, 256, 1024, 4096), np.logspace(np.log10(1e-4), np.log10(0.5), 20)
    steps = [StepSizeScheme(K, eta) for K in Ks for eta in etas]
    clean = sweep_gaps(model, 0.0, steps).reshape(len(Ks), len(etas))
    noisy = sweep_gaps(model, 0.0, steps, noise=additive_noise_cov(model, 100)).reshape(len(Ks), len(etas))
    assert np.isfinite(clean).all() and np.isfinite(noisy).all()
    assert (noisy.min(axis=1) >= 0.99 * _prior_importance_gap(model)).all()
    best = clean.min(axis=1)
    assert (best[1:] <= best[:-1] / 2).all()


def test_sweep_gaps_rejects_non_isotropic_prior():
    model = random_model(np.random.default_rng(23), 30, 3)
    steps = [make_stepsize_scheme(0.3, c, K) for c, K in [(0.25, 40), (0.5, 3), (1 / 3, 12)]]
    with pytest.raises(ValueError, match="propagate_moments and gap_breakdown"):
        sweep_gaps(model, 0.5, steps)


def test_sweep_gaps_empty_and_invalid():
    model = gen_blr_data(20, 2, 0)
    assert sweep_gaps(model, 0.0, []).shape == (0,)
    with pytest.raises(ValueError):
        sweep_gaps(model, 1.5, [make_stepsize_scheme(0.3, 0.25, 4)])
    # a chain whose schedule numpy cannot allocate is refused before any step runs
    with pytest.raises(MemoryError):
        sweep_gaps(model, 0.0, [make_stepsize_scheme(0.3, 0.25, 4), make_stepsize_scheme(0.3, 0.25, 10**15)])


# ------------------------------------------------------------ kinetic sum

def test_kinetic_sum_zero_step():
    model = gen_blr_data(20, 2, 3)
    K = 8
    schedule = make_linear_schedule(K)
    moments = propagate_moments(model, schedule, StepSizeScheme(K, 0.0), gamma=0.0)
    assert expected_kinetic_sum(moments) == pytest.approx(0.0, abs=1e-14)


def test_kinetic_sum_stationary_prior_target():
    # f_1 = p_0 and eta = 0: chain sits at stationarity, every term vanishes
    from dais import BlrModel

    empty = BlrModel(
        X=np.zeros((0, 2)), y=np.zeros(0), sigma2=1.0, mu_p=np.zeros(2), Lambda_p=np.eye(2)
    )
    K = 16
    schedule = make_linear_schedule(K)
    moments = propagate_moments(empty, schedule, StepSizeScheme(K, 0.0), gamma=0.0)
    assert expected_kinetic_sum(moments) == pytest.approx(0.0, abs=1e-10)


def test_kinetic_sum_matches_chain_average():
    # MC oracle: average per-chain sum of log pi(v_hat) - log pi(v) over
    # sampled chains
    model = gen_blr_data(300, 10, 11)
    target = blr_target(model)
    K, eta = 64, 0.25
    schedule = make_linear_schedule(K)
    steps = StepSizeScheme(K, eta)
    moments = propagate_moments(model, schedule, steps, gamma=0.0)
    predicted = expected_kinetic_sum(moments)

    n = 10000
    rng = generator(13)
    theta = np.stack([target.sample_p0(g) for g in rng.spawn(n)])
    v = generator(14).standard_normal((n, 10))
    eps = generator(15).standard_normal((n, K, 10))
    kin = np.zeros(n)
    for k in range(1, K + 1):
        theta, v_hat = leapfrog(theta, v, eta, schedule.betas[k], target)
        kin += 0.5 * (np.sum(v * v, axis=-1) - np.sum(v_hat * v_hat, axis=-1))
        v = 0.0 * v_hat + eps[:, k - 1, :]
    se = kin.std(ddof=1) / np.sqrt(n)
    assert abs(kin.mean() - predicted) <= 3 * se


def test_kinetic_sum_requires_prerefresh_moments():
    model = gen_blr_data(10, 2, 5)
    moments = propagate_moments(model, make_linear_schedule(2), StepSizeScheme(2, 0.1), 0.0)
    broken = [moments[0], type(moments[1])(
        mu_theta=moments[1].mu_theta, mu_v=moments[1].mu_v, Sigma=moments[1].Sigma
    )]
    with pytest.raises(ValueError):
        expected_kinetic_sum(broken + [moments[2]])


# ---------------------------------------------------------- expected bound

def test_expected_bound_zero_step_is_prior_elbo(toy_model):
    # eta = 0: theta_K ~ p_0 exactly, so E[L] = log Z - gap(eta=0)
    K = 4
    schedule = make_linear_schedule(K)
    moments = propagate_moments(toy_model, schedule, StepSizeScheme(K, 0.0), 0.0)
    bound = expected_bound(toy_model, moments, schedule)
    gap = gap_breakdown(toy_model, moments, schedule)
    assert bound == pytest.approx(exact_log_ml(toy_model) - gap.total, abs=1e-12)
    # and the zero-step gap has the hand-computed value
    assert gap.term1 == pytest.approx(0.25, abs=1e-12)
    assert gap.term2 == pytest.approx(0.5, abs=1e-12)
    assert gap.term3 == pytest.approx(-0.5 * np.log(2.0), abs=1e-12)
    assert gap.total == pytest.approx(0.403426, abs=5e-7)


def test_bound_and_gap_vanish_for_prior_target():
    from dais import BlrModel

    empty = BlrModel(
        X=np.zeros((0, 2)), y=np.zeros(0), sigma2=1.0, mu_p=np.zeros(2), Lambda_p=np.eye(2)
    )
    K = 8
    schedule = make_linear_schedule(K)
    moments = propagate_moments(empty, schedule, StepSizeScheme(K, 0.0), 0.0)
    assert expected_bound(empty, moments, schedule) == pytest.approx(0.0, abs=1e-12)
    gap = gap_breakdown(empty, moments, schedule)
    for term in (gap.term1, gap.term2, gap.term3, gap.total):
        assert term == pytest.approx(0.0, abs=1e-12)


def test_expected_bound_matches_mc():
    from dais import dais_bound_mc

    model = gen_blr_data(40, 2, 21)
    target = blr_target(model)
    K = 16
    schedule = make_linear_schedule(K)
    steps = make_stepsize_scheme(0.25, 0.25, K)
    for gamma in (0.0, 0.9):
        moments = propagate_moments(model, schedule, steps, gamma)
        want = expected_bound(model, moments, schedule)
        mean, se = dais_bound_mc(target, schedule, steps, TransitionConfig(gamma=gamma),
                                 10000, generator((22, int(gamma * 10))))
        assert abs(mean - want) <= 3 * se


def test_expected_bound_dimension_mismatch(toy_model):
    other = gen_blr_data(10, 3, 0)
    schedule = make_linear_schedule(2)
    moments = propagate_moments(other, schedule, StepSizeScheme(2, 0.1), 0.0)
    with pytest.raises(ValueError):
        expected_bound(toy_model, moments, schedule)


# ------------------------------------------------------------ gap identity

def test_gap_identity_random_models():
    rng = generator(31)
    for _ in range(20):
        model = random_model(rng, n=15, d=5)
        K = int(rng.integers(1, 40))
        eta = float(rng.uniform(0.0, 0.25))
        gamma = float(rng.uniform())
        schedule = make_linear_schedule(K)
        steps = StepSizeScheme(K, eta)
        moments = propagate_moments(model, schedule, steps, gamma)
        gap = gap_breakdown(model, moments, schedule)
        identity = exact_log_ml(model) - expected_bound(model, moments, schedule)
        assert gap.total == pytest.approx(identity, abs=1e-8)
        assert gap.total == pytest.approx(gap.term1 + gap.term2 + gap.term3, abs=1e-12)
        assert gap.term1 >= 0.0


# ------------------------------------------------------------- noise model

def test_noisy_moments_dominate_clean():
    # covariance ordering under gradient noise, every step
    model = gen_blr_data(60, 3, 41)
    K = 32
    schedule = make_linear_schedule(K)
    steps = StepSizeScheme(K, 0.2)
    sigma_eps = 4.0 * np.eye(3)
    clean = propagate_moments(model, schedule, steps, 0.0)
    noisy = propagate_moments(model, schedule, steps, 0.0, noise=sigma_eps)
    for mc, mn in zip(clean[1:], noisy[1:]):
        diff = mn.Sigma_theta - mc.Sigma_theta
        assert np.linalg.eigvalsh(diff).min() >= -1e-10
        dv = mn.Sigma_vhat - mc.Sigma_vhat
        assert np.linalg.eigvalsh(dv).min() >= -1e-10
        assert np.allclose(mn.mu_theta, mc.mu_theta, atol=1e-12)


def test_noisy_vhat_trace_inflation_structure():
    # Tr(noisy Sigma_vhat) = Tr(recursion on noisy theta-cov) + eta^2 Tr(S)
    model = gen_blr_data(30, 2, 42)
    K, eta = 8, 0.2
    schedule = make_linear_schedule(K)
    steps = StepSizeScheme(K, eta)
    sigma_eps = np.diag([1.0, 2.5])
    noisy = propagate_moments(model, schedule, steps, 0.0, noise=sigma_eps)
    eye = np.eye(2)
    for k in range(1, K + 1):
        L = annealed_posterior(model, schedule.betas[k]).Lambda
        A = eye - 0.5 * eta**2 * L
        base = A @ A + eta**2 * L @ noisy[k - 1].Sigma_theta @ L
        want = np.trace(base) + eta**2 * np.trace(sigma_eps)
        assert np.trace(noisy[k].Sigma_vhat) == pytest.approx(want, abs=1e-10)


def test_gap_inflation_at_least_penalty():
    model = gen_blr_data(60, 3, 43)
    sigma_eps = np.diag([2.0, 1.0, 3.0])
    for K in (8, 64):
        schedule = make_linear_schedule(K)
        steps = make_stepsize_scheme(0.5, 0.25, K)
        clean = gap_breakdown(model, propagate_moments(model, schedule, steps, 0.0), schedule)
        noisy = gap_breakdown(
            model, propagate_moments(model, schedule, steps, 0.0, noise=sigma_eps), schedule
        )
        penalty = stochastic_penalty(steps, sigma_eps)
        assert noisy.total - clean.total >= penalty - 1e-8


def test_stochastic_penalty_values():
    steps = StepSizeScheme(10, 0.1)
    assert stochastic_penalty(steps, np.zeros((2, 2))) == 0.0
    # constant eta = a / sqrt(K): penalty = a^2 t / 2 independent of K
    for K in (4, 400):
        a, t = 0.3, 5.0
        sk = make_stepsize_scheme(a, 0.5, K)
        assert stochastic_penalty(sk, np.diag([2.0, 3.0])) == pytest.approx(0.5 * a**2 * t)
    with pytest.raises(ValueError):
        stochastic_penalty(steps, np.float64(1.0))


# ------------------------------------------------------------ rate formula

def test_theory_slope_values():
    assert theory_slope(0.25) == pytest.approx(-0.5)
    assert theory_slope(0.5) == pytest.approx(0.0)
    assert theory_slope(1 / 3) == pytest.approx(-1 / 3)


def test_gap_breakdown_rejects_moments_of_another_chain():
    model = gen_blr_data(20, 2, 0)
    moments = propagate_moments(model, make_linear_schedule(4), make_stepsize_scheme(0.3, 0.25, 4))
    with pytest.raises(ValueError, match="^5 moment entries for a K=8 schedule$"):
        gap_breakdown(model, moments, make_linear_schedule(8))
    with pytest.raises(ValueError, match="^moments have dim 2, model has d=3$"):
        gap_breakdown(gen_blr_data(20, 3, 0), moments, make_linear_schedule(4))


def test_gap_breakdown_total_field():
    gb = GapBreakdown(term1=1.0, term2=2.0, term3=-0.5)
    assert gb.total == pytest.approx(2.5)
