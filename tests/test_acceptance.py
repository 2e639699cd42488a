"""Acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``
to see the lines as they complete).
"""

import time

import numpy as np
import pytest
from scipy import integrate

from dais import (
    TransitionConfig,
    annealed_posterior,
    blr_target,
    constant_steps,
    dais_bound_mc,
    exact_log_ml,
    expected_bound,
    fit_loglog_slope,
    float_to_fixed,
    forward_seed,
    gap_breakdown,
    gen_blr_data,
    generator,
    keyed_generator,
    leapfrog,
    make_linear_schedule,
    make_stepsize_scheme,
    propagate_moments,
    reversible_backward,
    reversible_forward,
    sample_chains,
    seed_noise,
    stochastic_penalty,
    theory_slope,
    tune_stepsize_base,
    update_matrices,
)
from dais.blr import additive_noise_cov
from dais.harness import ResultRow

from conftest import random_model

SEED = 7
K_GRID = (64, 128, 256, 512, 1024, 2048, 4096)
C_FULL = (0.25, 1 / 3, 0.5)


def report(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
          f"{' (' + detail + ')' if detail else ''}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def instance():
    """Standard d=10, n=1000 instance with the tuned step-size base and the
    exact clean/noisy gap tables used by criteria 1-3."""
    t0 = time.perf_counter()
    model = gen_blr_data(1000, 10, SEED)
    a = tune_stepsize_base(model, 0.0, K_GRID[0], C_FULL)
    sigma_eps = additive_noise_cov(model, 100)
    clean, noisy, penalties = {}, {}, {}
    for c in C_FULL:
        for K in K_GRID:
            schedule = make_linear_schedule(K)
            steps = make_stepsize_scheme(a, c, K)
            mom = propagate_moments(model, schedule, steps, 0.0)
            clean[c, K] = gap_breakdown(model, mom, schedule).total
            mom_n = propagate_moments(model, schedule, steps, 0.0, noise=sigma_eps)
            noisy[c, K] = gap_breakdown(model, mom_n, schedule).total
            penalties[c, K] = stochastic_penalty(steps, sigma_eps)
    elapsed = time.perf_counter() - t0
    return dict(model=model, a=a, sigma_eps=sigma_eps, clean=clean, noisy=noisy,
                penalties=penalties, elapsed=elapsed)


@pytest.fixture
def toy_chain_setup(toy_model):
    return toy_model, blr_target(toy_model), make_linear_schedule(8), constant_steps(0.2, 8)


def _rows(table, c, **extra):
    return [
        ResultRow(K=K, c=c, gamma=0.0, mode="exact", batch_size=None,
                  gap=table[c, K], stderr=0.0, elapsed_ms=0.0, seed=SEED)
        for K in K_GRID
    ]


def test_criterion_01_convergence_rate(instance):
    details = []
    ok = instance["elapsed"] < 60.0
    details.append(f"sweep {instance['elapsed']:.1f}s")
    for c in (0.25, 1 / 3):
        slope, _, _ = fit_loglog_slope(_rows(instance["clean"], c))
        want = theory_slope(c)
        details.append(f"c={c:.3f}: slope {slope:+.4f} vs {want:+.4f}")
        ok = ok and abs(slope - want) <= 0.1
    report(1, "log-log gap slope matches 2c-1 (full batch)", ok, "; ".join(details))


def test_criterion_02_constant_gap_under_noise(instance):
    c = 0.5
    g_256 = instance["noisy"][c, 256]
    g_4096 = instance["noisy"][c, 4096]
    clean_4096 = instance["clean"][c, 4096]
    flat = abs(g_4096 - g_256) <= 0.2 * g_256
    dominant = g_4096 >= 10.0 * clean_4096
    report(2, "noisy gap constant at c=1/2 and noise-dominated",
           flat and dominant,
           f"gap(4096)={g_4096:.3f} gap(256)={g_256:.3f} noise/clean={g_4096 / clean_4096:.1f}x")


def test_criterion_03_inconsistency_floor(instance):
    ok = True
    details = []
    for c in C_FULL:
        worst = min(
            instance["noisy"][c, K] - instance["clean"][c, K] - instance["penalties"][c, K]
            for K in K_GRID
        )
        ok = ok and worst >= -1e-8
        details.append(f"c={c:.3f} floor margin {worst:.3g}")
        if c < 0.5:
            non_vanishing = instance["noisy"][c, 4096] >= 0.5 * instance["penalties"][c, 4096]
            ok = ok and non_vanishing
    report(3, "noisy gap exceeds clean gap by the stochastic penalty", ok, "; ".join(details))


def test_criterion_04_unbiasedness(toy_chain_setup):
    t0 = time.perf_counter()
    toy, target, schedule, steps = toy_chain_setup

    # closed form cross-checked against 1-D quadrature before use
    def integrand(theta):
        lik = np.exp(-0.5 * (1.0 - theta) ** 2) / np.sqrt(2 * np.pi)
        return lik * np.exp(-0.5 * theta**2) / np.sqrt(2 * np.pi)

    z_quad, _ = integrate.quad(integrand, -12, 12, epsabs=1e-13, epsrel=1e-13)
    log_z = exact_log_ml(toy)
    quad_ok = abs(log_z - np.log(z_quad)) < 1e-8 and abs(log_z - (-1.515512)) < 5e-7

    _, _, L = sample_chains(target, schedule, steps, TransitionConfig(gamma=0.0),
                            200000, generator((SEED, 104)))
    w = np.exp(L - log_z)
    se = w.std(ddof=1) / np.sqrt(w.size)
    elapsed = time.perf_counter() - t0
    ok = quad_ok and abs(w.mean() - 1.0) <= 3 * se and elapsed < 120.0
    report(4, "E[exp(L - log Z)] = 1 over 2e5 chains",
           ok, f"mean={w.mean():.5f} se={se:.5f} logZ={log_z:.6f} {elapsed:.0f}s")


def test_criterion_05_exact_vs_mc(instance):
    model = instance["model"]
    target = blr_target(model)
    log_z = exact_log_ml(model)
    ok = True
    details = []
    for K in (16, 64, 256):
        schedule = make_linear_schedule(K)
        steps = make_stepsize_scheme(0.3, 0.25, K)
        moments = propagate_moments(model, schedule, steps, 0.0)
        exact_gap = gap_breakdown(model, moments, schedule).total
        mean, se = dais_bound_mc(target, schedule, steps, TransitionConfig(gamma=0.0),
                                 1000, generator((SEED, 105, K)))
        mc_gap = log_z - mean
        ok = ok and abs(exact_gap - mc_gap) <= 3 * se
        details.append(f"K={K}: |{exact_gap:.3f}-{mc_gap:.3f}|<={3 * se:.3f}")
    report(5, "closed-form gap agrees with sampled gap", ok, "; ".join(details))


def test_criterion_06_gap_identity():
    rng = generator(61)
    worst = 0.0
    for _ in range(20):
        model = random_model(rng, n=15, d=5)
        K = int(rng.integers(1, 48))
        eta = float(rng.uniform(0.0, 0.25))
        gamma = float(rng.uniform())
        schedule = make_linear_schedule(K)
        steps = constant_steps(eta, K)
        moments = propagate_moments(model, schedule, steps, gamma)
        total = gap_breakdown(model, moments, schedule).total
        identity = exact_log_ml(model) - expected_bound(model, moments, schedule)
        worst = max(worst, abs(total - identity))
    report(6, "term1+term2+term3 equals logZ - E[L]", worst <= 1e-8, f"max dev {worst:.2e}")


def test_criterion_07_affine_equivalence():
    rng = generator(71)
    config = TransitionConfig(gamma=0.0)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 11))
        model = random_model(rng, n=12, d=d)
        target = blr_target(model)
        beta = float(rng.uniform())
        eta = float(rng.uniform(0.01, 0.4))
        theta = rng.standard_normal(d)
        v = rng.standard_normal(d)
        maps = update_matrices(model, beta, eta)
        t_new, v_hat = leapfrog(theta, v, eta, beta, target, config)
        worst = max(
            worst,
            float(np.max(np.abs(t_new - (maps.A @ theta + maps.B @ v + maps.c_vec)))),
            float(np.max(np.abs(v_hat - (maps.C @ theta + maps.D @ v + maps.e_vec)))),
        )
    report(7, "generic leapfrog equals affine update maps", worst <= 1e-10,
           f"max dev {worst:.2e} over 100 states")


def test_criterion_08_moment_recursions():
    # closed full-refreshment recursions as the independent oracle, K = 128
    model = gen_blr_data(300, 3, 83)
    K, eta = 128, 0.15
    schedule = make_linear_schedule(K)
    moments = propagate_moments(model, schedule, constant_steps(eta, K), 0.0)
    eye = np.eye(3)
    mu = model.mu_p.copy()
    Sigma = np.linalg.inv(model.Lambda_p)
    worst = 0.0
    for k in range(1, K + 1):
        ann = annealed_posterior(model, schedule.betas[k])
        L, S = ann.Lambda, np.linalg.inv(ann.Lambda)
        A = eye - 0.5 * eta**2 * L
        mu_v = eta * L @ (ann.mu - mu)
        Sigma_v = A @ A + eta**2 * L @ Sigma @ L
        mu = A @ mu + 0.5 * eta**2 * L @ ann.mu
        Sigma = A @ (Sigma - S) @ A + S - 0.25 * eta**4 * L + eta**6 / 16 * L @ L
        worst = max(
            worst,
            float(np.max(np.abs(moments[k].mu_theta - mu))),
            float(np.max(np.abs(moments[k].Sigma_theta - Sigma))),
            float(np.max(np.abs(moments[k].mu_vhat - mu_v))),
            float(np.max(np.abs(moments[k].Sigma_vhat - Sigma_v))),
        )
    recursion_ok = worst <= 1e-10

    # sampled-moment oracle: 1e5 chains, d=2, K=32
    model2 = gen_blr_data(50, 2, 9)
    K2 = 32
    schedule2 = make_linear_schedule(K2)
    steps2 = constant_steps(0.15, K2)
    mom2 = propagate_moments(model2, schedule2, steps2, 0.0)
    n = 100000
    theta, _, _ = sample_chains(blr_target(model2), schedule2, steps2,
                                TransitionConfig(gamma=0.0), n, generator((SEED, 108)))
    last = mom2[-1]
    se_mu = theta.std(axis=0, ddof=1) / np.sqrt(n)
    mean_ok = np.all(np.abs(theta.mean(axis=0) - last.mu_theta) <= 3 * se_mu)
    S = last.Sigma_theta
    se_cov = np.sqrt((np.outer(np.diag(S), np.diag(S)) + S**2) / n)
    cov_ok = np.all(np.abs(np.cov(theta.T) - S) <= 3 * se_cov)
    report(8, "moment recursions match oracle and sampled chains",
           recursion_ok and bool(mean_ok) and bool(cov_ok),
           f"recursion dev {worst:.2e}; sampled within 3se: mean={bool(mean_ok)} cov={bool(cov_ok)}")


def test_criterion_09_reversibility():
    d, K, gamma = 10, 1000, 0.9
    model = gen_blr_data(100, d, 3)
    target = blr_target(model)
    schedule = make_linear_schedule(K)
    steps = constant_steps(0.1, K)
    config = TransitionConfig(gamma=gamma)
    s0 = 424242

    fwd = reversible_forward(target, schedule, steps, config, s0)
    bits = fwd.buffer.bit_size()
    low = np.log2(1 / gamma) * d * K
    high = (np.log2(1 / gamma) + 1) * d * K
    bits_ok = low <= bits <= high

    g = keyed_generator(s0)
    theta0 = target.sample_p0(g)
    v0 = g.standard_normal(d)
    th, vv, s_back = reversible_backward(target, schedule, steps, config,
                                         fwd.fixed, None, fwd.seed, fwd.buffer)
    exact_ok = (
        all(int(x) == int(y) for x, y in zip(th, float_to_fixed(theta0)))
        and all(int(x) == int(y) for x, y in zip(vv, float_to_fixed(v0)))
        and s_back == s0
    )

    # the plain sampler at gamma_eff on the same seed-derived noise runs the
    # same chain; they differ by fixed-point rounding only
    eps = np.empty((K, d))
    s = s0
    for k in range(K):
        s = forward_seed(s)
        eps[k] = seed_noise(s, d)
    from dais import dais_chain

    _, plain_L = dais_chain(target, schedule, steps, TransitionConfig(gamma=fwd.gamma_eff),
                            theta0=theta0, v0=v0, refresh_noise=eps)
    plain_ok = abs(fwd.bound - plain_L) <= 1e-8
    report(9, "bit-exact reversal, buffer budget, plain-sampler equivalence",
           exact_ok and bits_ok and plain_ok,
           f"zero-error={exact_ok} bits={bits} in [{low:.0f}, {high:.0f}] "
           f"|dL|={abs(fwd.bound - plain_L):.2e}")


def test_criterion_10_lower_bound(instance, toy_chain_setup):
    toy, toy_target, toy_schedule, toy_steps = toy_chain_setup
    model = instance["model"]
    target = blr_target(model)
    configs = [
        (toy, toy_target, toy_schedule, toy_steps, 0.0, 20000),
        (model, target, make_linear_schedule(64), make_stepsize_scheme(0.3, 0.25, 64), 0.0, 10000),
        (model, target, make_linear_schedule(64), make_stepsize_scheme(0.3, 0.25, 64), 0.9, 10000),
        (model, target, make_linear_schedule(16), constant_steps(0.1, 16), 0.5, 10000),
    ]
    ok = True
    details = []
    for i, (mdl, tgt, schedule, steps, gamma, S) in enumerate(configs):
        log_z = exact_log_ml(mdl)
        mean, se = dais_bound_mc(tgt, schedule, steps, TransitionConfig(gamma=gamma),
                                 S, generator((SEED, 110, i)))
        ok = ok and mean <= log_z + 3 * se
        details.append(f"K={schedule.K} gamma={gamma}: {mean:.3f} <= {log_z:.3f}+{3 * se:.3f}")
    report(10, "sampled mean bound never exceeds log Z", ok, "; ".join(details))
