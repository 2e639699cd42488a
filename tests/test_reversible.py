import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dais import (
    BufferCorruption,
    InfoBuffer,
    NumericalFailure,
    TransitionConfig,
    blr_target,
    constant_steps,
    dais_chain,
    fixed_to_float,
    float_to_fixed,
    gen_blr_data,
    generator,
    keyed_generator,
    make_linear_schedule,
    quantize_gamma,
    reversible_backward,
    reversible_forward,
)
from dais.cli import main as cli_main
from dais.reversible import BLOCK_STEPS, MASK64, _FixedPointChain, backward_seed, forward_seed, seed_noise


def _setup(d=4, n=40, seed=2, K=50, eta=0.12, gamma=0.9):
    model = gen_blr_data(n, d, seed)
    target = blr_target(model)
    schedule = make_linear_schedule(K)
    steps = constant_steps(eta, K)
    config = TransitionConfig(gamma=gamma)
    return target, schedule, steps, config


# ------------------------------------------------------------------- seeds

@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_seed_inverse_pair(s):
    assert backward_seed(forward_seed(s)) == s
    assert forward_seed(backward_seed(s)) == s


def test_seed_inverse_bulk_vectorized():
    # 10^6 random states through the same affine maps, numpy uint64 arithmetic
    rng = np.random.default_rng(0)
    states = rng.integers(0, 2**64, size=10**6, dtype=np.uint64)
    mult = np.uint64(6364136223846793005)
    inc = np.uint64(1442695040888963407)
    mult_inv = np.uint64(pow(6364136223846793005, -1, 2**64))
    with np.errstate(over="ignore"):
        fwd = mult * states + inc
        assert bool(np.all(mult_inv * (fwd - inc) == states))
        # spot check agreement with the scalar implementation
        for s in states[:64]:
            assert forward_seed(int(s)) == int(mult * s + inc)


def test_seed_orbit_injective():
    s = 123456789
    seen = np.empty(10**6, dtype=np.uint64)
    for i in range(seen.size):
        s = forward_seed(s)
        seen[i] = s
    assert np.unique(seen).size == seen.size


def test_seed_chain_round_trip_and_interleave():
    s0 = 42
    s = s0
    for _ in range(1000):
        s = forward_seed(s)
    for _ in range(1000):
        s = backward_seed(s)
    assert s == s0
    # stack-like interleaving at arbitrary depths
    s = s0
    trail = [s]
    for depth in (3, 1, 4, 2):
        for _ in range(depth):
            s = forward_seed(s)
            trail.append(s)
        s = backward_seed(s)
        assert s == trail[-2]
        trail.pop()


def test_seed_noise_deterministic():
    # the chain re-keys one generator per step; each draw must equal a freshly
    # built keyed stream, whatever the previous draw left buffered
    chain = _FixedPointChain(*_setup(d=2, K=1))
    keys = [0, 1, 2**63, 2**64 - 1, 2**64 + 3]
    for key, dim in zip(keys * 3, [1, 7, 100] * 5):
        expected = keyed_generator(key).standard_normal(dim)
        assert np.array_equal(chain.seed_noise(key, dim), expected)
        assert np.array_equal(seed_noise(key, dim), expected)
    assert np.array_equal(chain.seed_noise(2**64 + 3, 5), chain.seed_noise(3, 5))
    assert not np.array_equal(seed_noise(987654321, 6), seed_noise(987654322, 6))


# -------------------------------------------------------------- fixed point

@given(st.lists(st.floats(min_value=-30.0, max_value=30.0), min_size=1, max_size=8))
def test_fixed_point_conversion_round_trip(values):
    fixed = float_to_fixed(np.array(values))
    assert fixed.dtype == np.int64
    # the object-integer reference the int64 state replaced
    assert [int(i) for i in fixed] == [int(np.rint(x * 2**48)) for x in values]
    back = fixed_to_float(fixed)
    assert np.array_equal(back, np.array([int(i) for i in fixed], dtype=float) / 2**48)
    assert np.all(np.abs(back - np.array(values)) <= 2.0**-48)


def test_fixed_point_overflow_guard():
    for bad in (np.nan, np.inf, -np.inf, 1e20, -1e20, 2.0**62 / 2**48):
        with pytest.raises(NumericalFailure):
            float_to_fixed(np.array([0.5, bad]))
    # the largest float below 2^14 is still representable
    assert float_to_fixed(np.array([np.nextafter(2.0**14, 0)])).tolist() == [2**62 - 2**9]


def test_quantize_gamma_rounds_down():
    num, den, eff = quantize_gamma(0.9)
    assert den == 2**16
    assert eff <= 0.9
    assert 0.9 - eff < 1e-4
    num2, den2, eff2 = quantize_gamma(0.5)
    assert (num2, eff2) == (den2 // 2, 0.5)


# ---------------------------------------------------------------- round trip

@pytest.mark.parametrize("gamma", [0.5, 0.9, 0.99])
def test_fixedpoint_round_trip_exact(gamma):
    target, schedule, steps, config = _setup(d=3, K=60, gamma=gamma)
    s0 = 31337
    fwd = reversible_forward(target, schedule, steps, config, s0)
    g = keyed_generator(s0)
    theta0 = target.sample_p0(g)
    v0 = g.standard_normal(3)
    th, vv, s_back = reversible_backward(
        target, schedule, steps, config, fwd.fixed, None, fwd.seed, fwd.buffer
    )
    assert all(int(a) == int(b) for a, b in zip(th, float_to_fixed(theta0)))
    assert all(int(a) == int(b) for a, b in zip(vv, float_to_fixed(v0)))
    assert s_back == s0
    assert fwd.buffer.is_empty()


@settings(max_examples=50, deadline=None)
@given(
    d=st.integers(1, 4),
    K=st.integers(1, 30),
    gamma=st.floats(2.0**-8, 1.0),
    eta=st.floats(0.0, 0.3),
    s0=st.integers(0, 2**64 - 1),
)
def test_round_trip_property(d, K, gamma, eta, s0):
    # forward, serialize the buffer, backward: the start state comes back bit for bit
    target = blr_target(gen_blr_data(20, d, 0))
    schedule, steps = make_linear_schedule(K), constant_steps(eta, K)
    config = TransitionConfig(gamma=gamma)
    g = keyed_generator(s0)
    theta0 = target.sample_p0(g)
    v0 = g.standard_normal(d)
    fwd = reversible_forward(target, schedule, steps, config, s0, theta0=theta0, v0=v0)
    restored = InfoBuffer.from_bytes(fwd.buffer.to_bytes())
    th, vv, s_back = reversible_backward(target, schedule, steps, config, fwd.fixed, None,
                                         fwd.seed, restored)
    assert [int(x) for x in th] == [int(x) for x in float_to_fixed(theta0)]
    assert [int(x) for x in vv] == [int(x) for x in float_to_fixed(v0)]
    assert s_back == s0
    assert restored.is_empty()


def test_forward_draws_only_the_missing_start():
    # a start given without its partner is kept; the missing one comes from s0
    target, schedule, steps, config = _setup(d=3, K=40)
    theta0, v0 = np.array([5.0, 5.0, 5.0]), np.array([0.5, -1.0, 2.0])
    for given, start in (({"theta0": theta0}, (theta0, keyed_generator(21).standard_normal(3))),
                         ({"v0": v0}, (target.sample_p0(keyed_generator(21)), v0))):
        fwd = reversible_forward(target, schedule, steps, config, 21, **given)
        th, vv, s = reversible_backward(target, schedule, steps, config, fwd.fixed, None,
                                        fwd.seed, fwd.buffer)
        assert th.tolist() == float_to_fixed(start[0]).tolist()
        assert vv.tolist() == float_to_fixed(start[1]).tolist()
        assert s == 21


def test_backward_accepts_raw_integer_arrays():
    # the integer state can be passed without the FixedPointState wrapper
    target, schedule, steps, config = _setup(d=3, K=30, gamma=0.8)
    fwd = reversible_forward(target, schedule, steps, config, 55)
    th, vv, s = reversible_backward(
        target, schedule, steps, config, fwd.fixed.theta, fwd.fixed.v,
        fwd.seed, fwd.buffer,
    )
    g = keyed_generator(55)
    theta0 = target.sample_p0(g)
    v0 = g.standard_normal(3)
    assert all(int(a) == int(b) for a, b in zip(th, float_to_fixed(theta0)))
    assert all(int(a) == int(b) for a, b in zip(vv, float_to_fixed(v0)))
    assert s == 55


def test_round_trip_varying_k():
    target, schedule, steps, _ = _setup(d=2, K=25, eta=0.1)
    config = TransitionConfig(gamma=0.75)
    fwd = reversible_forward(target, schedule, steps, config, 99)
    th, vv, s_back = reversible_backward(
        target, schedule, steps, config, fwd.fixed, None, fwd.seed, fwd.buffer
    )
    g = keyed_generator(99)
    theta0 = target.sample_p0(g)
    v0 = g.standard_normal(2)
    assert all(int(a) == int(b) for a, b in zip(th, float_to_fixed(theta0)))
    assert all(int(a) == int(b) for a, b in zip(vv, float_to_fixed(v0)))
    assert s_back == 99


def test_gamma_one_buffer_stays_empty():
    target, schedule, steps, _ = _setup(K=30)
    config = TransitionConfig(gamma=1.0)
    fwd = reversible_forward(target, schedule, steps, config, 5)
    assert fwd.buffer.is_empty()
    th, vv, s_back = reversible_backward(
        target, schedule, steps, config, fwd.fixed, None, fwd.seed, fwd.buffer
    )
    assert s_back == 5


def test_degenerate_chain_inputs_unchanged():
    # zero step size and no refreshment: the chain is the identity map
    target, _, _, _ = _setup()
    theta0 = np.zeros(4)
    v0 = np.ones(4)
    trivial_schedule = make_linear_schedule(1)
    zero_steps = constant_steps(0.0, 1)
    fwd = reversible_forward(
        target, trivial_schedule, zero_steps, TransitionConfig(gamma=1.0), 7,
        theta0=theta0, v0=v0,
    )
    assert np.allclose(fwd.theta, theta0)
    assert np.allclose(fwd.v, v0)


def _seed_noise_stream(s0, K, d):
    """The refresh noise `reversible_forward` draws from seed s0, and the final seed."""
    eps = np.empty((K, d))
    s = s0
    for k in range(K):
        s = forward_seed(s)
        eps[k] = seed_noise(s, d)
    return eps, s


def test_float_mode_matches_plain_chain():
    # the float views of the exact chain follow the plain float sampler at
    # gamma_eff, driven by the seed-derived noise, up to fixed-point rounding
    # (2^-48 per sub-step)
    target, schedule, steps, config = _setup(d=10, n=100, K=100, eta=0.1, gamma=0.9)
    s0 = 777
    g = keyed_generator(s0)
    theta0 = target.sample_p0(g)
    v0 = g.standard_normal(10)
    eps, s = _seed_noise_stream(s0, 100, 10)
    fwd = reversible_forward(target, schedule, steps, config, s0, theta0=theta0, v0=v0)
    assert fwd.gamma_eff != config.gamma
    theta_K, v_K, plain_L = dais_chain(target, schedule, steps, TransitionConfig(gamma=fwd.gamma_eff),
                                       theta0=theta0, v0=v0, refresh_noise=eps)
    assert abs(fwd.bound - plain_L) <= 1e-8
    assert np.max(np.abs(fwd.theta - theta_K)) <= 1e-8
    assert np.max(np.abs(fwd.v - v_K)) <= 1e-8
    assert fwd.seed == s


def test_fixedpoint_bound_close_to_float_bound():
    # against the plain float sampler at the requested gamma: quantization
    # noise only, since gamma_eff differs from gamma by < 2^-16
    target, schedule, steps, config = _setup(d=3, K=40)
    s0 = 11
    g = keyed_generator(s0)
    theta0 = target.sample_p0(g)
    v0 = g.standard_normal(3)
    eps, _ = _seed_noise_stream(s0, 40, 3)
    f_fixed = reversible_forward(target, schedule, steps, config, s0, theta0=theta0, v0=v0)
    _, _, float_L = dais_chain(target, schedule, steps, config,
                               theta0=theta0, v0=v0, refresh_noise=eps)
    assert f_fixed.bound == pytest.approx(float_L, rel=1e-3, abs=1e-3)


# sha256 of the outputs below, computed on the implementation that still took a
# diagonal mass (unit mass in every case); any change to the chain's arithmetic moves it
PINNED_DIGEST = "ef0880c4a72d095ef423bb6720a8b84c39bbb15ceb86d1eee50e3df23ca94dd7"


def test_outputs_pinned_to_parent_digest():
    h = hashlib.sha256()

    def put(*items):
        for item in items:
            h.update(repr(item).encode())

    for seed in (7, 11):
        # (d, K, gamma, start drawn from the seed)
        cases = [(4, 120, g, False) for g in (0.5, 0.9, 0.99, 1.0)]
        cases += [(3, 80, 0.75, False), (5, 60, 0.9, True)]
        for d, K, gamma, seed_start in cases:
            target = blr_target(gen_blr_data(40, d, seed))
            schedule, steps = make_linear_schedule(K), constant_steps(0.1, K)
            config = TransitionConfig(gamma=gamma)
            g = generator((seed, d, K))
            s0 = int(g.integers(0, 2**63))
            start = {} if seed_start else {
                "theta0": target.sample_p0(g),
                "v0": g.standard_normal(d)}
            fwd = reversible_forward(target, schedule, steps, config, s0, **start)
            blob = fwd.buffer.to_bytes()
            put(repr(fwd.bound), blob, [int(x) for x in fwd.fixed.theta],
                [int(x) for x in fwd.fixed.v], fwd.seed, fwd.theta.tolist(), fwd.v.tolist())
            th, vv, s = reversible_backward(target, schedule, steps, config, fwd.fixed, None,
                                            fwd.seed, InfoBuffer.from_bytes(blob))
            put([int(x) for x in th], [int(x) for x in vv], s)
    assert h.hexdigest() == PINNED_DIGEST


def _oracle_forward(target, schedule, steps, config, s0, theta0, v0):
    """Reference forward chain, one step at a time, built from public pieces.

    Each step is leapfrog, damping through `InfoBuffer.exchange`, then the
    refresh increment of `seed_noise`: no blocks, no norm screens, and every
    value checked against 2^62 in full.  Returns (theta, v, seed, bound,
    buffer blob).
    """
    d = target.dim
    num, den, gamma_eff = quantize_gamma(config.gamma)
    noise_scale = np.sqrt(1.0 - gamma_eff * gamma_eff)
    buffer = InfoBuffer(d)

    def fixed(x, k):
        try:
            return float_to_fixed(x)
        except NumericalFailure:
            raise NumericalFailure("increment overflow", step=k) from None

    def checked(x, k):
        if not np.abs(x).max() < 2**62:
            raise NumericalFailure("state overflow", step=k)
        return x

    th, vv, s = float_to_fixed(theta0), float_to_fixed(v0), s0
    L = float(-target.log_p0(fixed_to_float(th)))
    for k in range(1, schedule.K + 1):
        eta = steps.eta
        half = 0.5 * eta
        v_before = vv / 2**48
        th = checked(th + fixed(half * v_before, k), k)
        midpoint = th / 2**48
        grad = target.grad_log_f(schedule.betas[k], midpoint)
        if not np.isfinite(grad).all():
            raise NumericalFailure("non-finite gradient", step=k, midpoint=midpoint)
        vv = checked(vv + fixed(eta * grad, k), k)
        v_after = vv / 2**48
        th = checked(th + fixed(half * v_after, k), k)
        L += 0.5 * ((v_before * v_before).sum() - (v_after * v_after).sum())
        s = forward_seed(s)
        if gamma_eff != 1.0:
            q, r = np.divmod(vv, den)
            vv = q * num + buffer.exchange(r, den, num)
            buffer.depth += 1
        vv = checked(vv + fixed(noise_scale * seed_noise(s, d), k), k)
    L = float(L + target.log_f(1.0, fixed_to_float(th)))
    return th, vv, s, L, buffer.to_bytes()


def _assert_matches_oracle(target, schedule, steps, config, s0, theta0, v0):
    fwd = reversible_forward(target, schedule, steps, config, s0, theta0=theta0, v0=v0)
    th, vv, s, L, blob = _oracle_forward(target, schedule, steps, config, s0, theta0, v0)
    assert fwd.fixed.theta.tolist() == th.tolist()
    assert fwd.fixed.v.tolist() == vv.tolist()
    assert fwd.seed == s
    assert repr(fwd.bound) == repr(L)
    assert fwd.buffer.to_bytes() == blob
    th0, v0_back, s_back = reversible_backward(target, schedule, steps, config, fwd.fixed, None,
                                               fwd.seed, InfoBuffer.from_bytes(blob))
    assert th0.tolist() == float_to_fixed(theta0).tolist()
    assert v0_back.tolist() == float_to_fixed(v0).tolist()
    assert s_back == s0


# the "-None" in each case id names the unit mass the case has always run with
@pytest.mark.parametrize("gamma", [0.5, 1.0], ids=lambda gamma: f"{gamma}-None")
@pytest.mark.parametrize("K", [1, BLOCK_STEPS - 1, BLOCK_STEPS, BLOCK_STEPS + 1, 2 * BLOCK_STEPS + 3])
def test_blocked_chain_matches_per_step_oracle(K, gamma):
    # block edges: the refresh increments are drawn BLOCK_STEPS steps at a time
    target, schedule, steps, _ = _setup(d=3, K=K, eta=0.1)
    config = TransitionConfig(gamma=gamma)
    g = generator(K)
    theta0 = target.sample_p0(g)
    v0 = g.standard_normal(3)
    _assert_matches_oracle(target, schedule, steps, config, 4242, theta0, v0)


def test_screen_fallback_keeps_large_in_range_states():
    # |theta|, |v| near 1.6e4 < 2^14 fail the norm screens (d * 1.6e4^2 > 2^28),
    # so the exact checks decide, and they pass
    K = BLOCK_STEPS + 5
    target, schedule, steps, config = _setup(d=3, K=K, eta=1e-9, gamma=0.9)
    theta0 = np.array([1.6e4, -1.6e4, 1.55e4])
    v0 = np.array([-1.6e4, 1.5e4, 0.0])
    assert theta0 @ theta0 > 2**28 and v0 @ v0 > 2**28
    _assert_matches_oracle(target, schedule, steps, config, 77, theta0, v0)


class _SpikedTarget:
    """``target`` with its gradient at one bridge point beta replaced by ``value``."""

    def __init__(self, target, beta, value):
        self._target, self._beta, self._value = target, beta, value

    def grad_log_f(self, beta, theta):
        grad = self._target.grad_log_f(beta, theta)
        return np.full_like(grad, self._value) if beta == self._beta else grad

    def __getattr__(self, name):
        return getattr(self._target, name)


def _refresh_overflow_setup(monkeypatch):
    """A chain whose refresh increment alone leaves the range inside its second block.

    Unit-mass normal draws cannot reach 2^14, so the draw for the seed of step
    BLOCK_STEPS + 40 is replaced, in the chain and in the oracle, by one that does.
    """
    K = 2 * BLOCK_STEPS + 3
    target, schedule, steps, _ = _setup(d=2, K=K, eta=0.1)
    config = TransitionConfig(gamma=2.0**-8)
    _, _, gamma_eff = quantize_gamma(config.gamma)
    scale = np.sqrt(1.0 - gamma_eff**2)
    s0, s_bad = 9, 9
    for _ in range(BLOCK_STEPS + 40):
        s_bad = forward_seed(s_bad)

    def oversize(draw):
        def patched(*args):  # (s, dim), or (chain, s, dim) for the method
            eps = draw(*args)
            if args[-2] == s_bad:
                eps[-1] = 2.0**15
            return eps
        return patched

    monkeypatch.setitem(globals(), "seed_noise", oversize(seed_noise))
    monkeypatch.setattr(_FixedPointChain, "seed_noise", oversize(_FixedPointChain.seed_noise))
    s = s0
    for k_bad in range(1, K + 1):
        s = forward_seed(s)
        if np.abs(scale * seed_noise(s, 2)).max() >= 2**14:
            break
    assert BLOCK_STEPS + 1 < k_bad < 2 * BLOCK_STEPS
    return target, schedule, steps, config, s0, k_bad


def test_refresh_overflow_raises_at_its_step_and_earlier_failures_win(monkeypatch):
    target, schedule, steps, config, s0, k_bad = _refresh_overflow_setup(monkeypatch)
    theta0, v0 = np.zeros(2), np.zeros(2)
    for tgt in (target, _SpikedTarget(target, schedule.betas[k_bad - 5], 1e30)):
        with pytest.raises(NumericalFailure) as oracle:
            _oracle_forward(tgt, schedule, steps, config, s0, theta0, v0)
        with pytest.raises(NumericalFailure, match="fixed-point overflow or non-finite value at step") as info:
            reversible_forward(tgt, schedule, steps, config, s0, theta0=theta0, v0=v0)
        assert info.value.step == oracle.value.step
    # the plain chain fails on the increment itself; the spiked kick fails first
    assert str(oracle.value) == "increment overflow"
    assert info.value.step == k_bad - 5
    # the block holds only the rows before the bad one, so no bad row is ever cast
    chain = _FixedPointChain(target, schedule, steps, config)
    seeds = [s0]
    for _ in range(2 * BLOCK_STEPS):
        seeds.append(forward_seed(seeds[-1]))
    assert len(chain.noise_block(seeds[BLOCK_STEPS + 1:])) == k_bad - BLOCK_STEPS - 1


@pytest.mark.parametrize("theta", [16383.99, 16372.0])
def test_state_leaving_the_range_raises_at_its_step(theta):
    # the first (16383.99) or the second (16372) drift of step 1 carries theta
    # past 2^14 with small increments, so only a state check can catch it
    target, schedule, steps, config = _setup(d=2, K=20, eta=1e-3)
    with pytest.raises(NumericalFailure, match="fixed-point overflow or non-finite value at step") as info:
        reversible_forward(target, schedule, steps, config, 1,
                           theta0=np.array([theta, 0.0]), v0=np.array([16000.0, 0.0]))
    assert info.value.step == 1


@pytest.mark.parametrize("eta", [0.1, 0.0])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_gradient_reports_step_and_midpoint(eta, value):
    k = BLOCK_STEPS + 7
    target, schedule, steps, config = _setup(d=3, K=BLOCK_STEPS + 20, eta=eta)
    spiked = _SpikedTarget(target, schedule.betas[k], value)
    g = generator(5)
    theta0, v0 = target.sample_p0(g), g.standard_normal(3)
    with pytest.raises(NumericalFailure) as oracle:
        _oracle_forward(spiked, schedule, steps, config, 3, theta0, v0)
    with pytest.raises(NumericalFailure, match="non-finite gradient") as info:
        reversible_forward(spiked, schedule, steps, config, 3, theta0=theta0, v0=v0)
    assert info.value.step == oracle.value.step == k
    assert np.array_equal(info.value.midpoint, oracle.value.midpoint)


def test_forward_overflow_raises_with_step():
    # |theta| near 2^14 and a step that pushes it past: no silent int64 wraparound
    target, schedule, steps, config = _setup(d=2, K=20, eta=3.0)
    with pytest.raises(NumericalFailure, match="fixed-point overflow or non-finite value at step") as info:
        reversible_forward(target, schedule, steps, config, 1,
                           theta0=np.array([1.6e4, -1.6e4]), v0=np.array([500.0, -500.0]))
    assert info.value.step == 1  # the first drift already leaves the range


def test_backward_rejects_out_of_range_integer_state():
    target, schedule, steps, config = _setup(d=3, K=10)
    fwd = reversible_forward(target, schedule, steps, config, 5)
    for bad in (2**62, -2**62, 2**70):
        theta = [int(x) for x in fwd.fixed.theta]
        theta[1] = bad
        with pytest.raises(ValueError, match="fixed-point range"):
            reversible_backward(target, schedule, steps, config, np.array(theta, dtype=object),
                                fwd.fixed.v, fwd.seed, fwd.buffer)
    assert fwd.buffer.depth == 10


def test_backward_undamp_overflow_raises():
    # an in-range momentum that undamping at gamma = 2^-16 would scale past 2^62
    target, schedule, steps, _ = _setup(d=2, K=3)
    config = TransitionConfig(gamma=2.0**-16)
    fwd = reversible_forward(target, schedule, steps, config, 9)
    with pytest.raises(NumericalFailure, match="undoing the damping") as info:
        reversible_backward(target, schedule, steps, config, fwd.fixed.theta,
                            np.array([2**61, 0]), fwd.seed, fwd.buffer)
    assert info.value.step == 3


def test_cli_overflow_is_one_line_exit_3(capsys):
    assert cli_main(["check-reversible", "--eta", "50", "--K", "200"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("numerical failure: fixed-point overflow or non-finite value at step ")


def test_backward_rejects_float_state():
    target, schedule, steps, config = _setup(d=3, K=10)
    fwd = reversible_forward(target, schedule, steps, config, 5)
    with pytest.raises(ValueError, match="integer state"):
        reversible_backward(target, schedule, steps, config, fwd.theta, fwd.v, fwd.seed, fwd.buffer)
    with pytest.raises(ValueError, match="integer state"):
        reversible_backward(target, schedule, steps, config, fwd.fixed.theta[:2], fwd.fixed.v,
                            fwd.seed, fwd.buffer)
    # object arrays must hold integers too
    with pytest.raises(ValueError, match="integer state"):
        reversible_backward(target, schedule, steps, config, fwd.theta.astype(object),
                            fwd.fixed.v, fwd.seed, fwd.buffer)
    # so must steps for another chain length
    with pytest.raises(ValueError, match="step scheme has K=11, schedule has K=10"):
        reversible_backward(target, schedule, constant_steps(0.12, 11), config, fwd.fixed, None,
                            fwd.seed, fwd.buffer)
    # rejected before anything was popped: the buffer still reverses the chain
    th, _, s = reversible_backward(target, schedule, steps, config, fwd.fixed.theta.astype(np.int64),
                                   fwd.fixed.v, fwd.seed, fwd.buffer)
    assert s == 5
    assert fwd.buffer.is_empty()


# -------------------------------------------------------------------- buffer

def test_buffer_rows_object_and_int64_agree():
    # push/pop accept object and int64 rows alike; exchange is push then pop
    num, den, _ = quantize_gamma(0.9)
    rows = np.random.default_rng(4).integers(0, den, size=(50, 6))
    a, b, c = InfoBuffer(6), InfoBuffer(6), InfoBuffer(6)
    popped = []
    for row in rows:
        a.push(row.astype(object), den)
        popped_a = a.pop(num)
        b.push(row, den)
        popped_b = b.pop(num)
        popped.append(c.exchange(row, den, num))
        assert popped[-1].dtype == np.int64
        assert [int(x) for x in popped_a] == [int(x) for x in popped_b] == popped[-1].tolist()
    assert a.to_bytes() == b.to_bytes() == c.to_bytes()
    # the exchange with the moduli swapped undoes it, row by row
    restored = InfoBuffer.from_bytes(c.to_bytes())
    for row, p in zip(rows[::-1], popped[::-1]):
        assert restored.exchange(p, num, den).tolist() == row.tolist()
    assert restored.to_bytes() == InfoBuffer(6).to_bytes()


def test_buffer_bit_accounting_window():
    d, K, gamma = 10, 1000, 0.9
    target, schedule, steps, config = _setup(d=d, n=100, K=K, eta=0.1, gamma=gamma)
    fwd = reversible_forward(target, schedule, steps, config, 3)
    bits = fwd.buffer.bit_size()
    low = np.log2(1 / gamma) * d * K
    assert low <= bits <= (np.log2(1 / gamma) + 1) * d * K


def test_buffer_serialization_round_trip():
    target, schedule, steps, config = _setup(d=3, K=20)
    fwd = reversible_forward(target, schedule, steps, config, 17)
    blob = fwd.buffer.to_bytes()
    assert blob.startswith(b"DAISREV1")
    restored = InfoBuffer.from_bytes(blob)
    th1, v1, s1 = reversible_backward(
        target, schedule, steps, config, fwd.fixed, None, fwd.seed, restored
    )
    g = keyed_generator(17)
    theta0 = target.sample_p0(g)
    assert all(int(a) == int(b) for a, b in zip(th1, float_to_fixed(theta0)))
    assert restored.is_empty()


def _blob(depth, pages):
    """DAISREV1 layout: magic, page count, op depth, length-prefixed pages."""
    out = b"DAISREV1" + struct.pack("<I", len(pages)) + struct.pack("<q", depth)
    return out + b"".join(struct.pack("<I", len(p)) + p for p in pages)


def test_buffer_serialization_bad_magic():
    sentinel_page = (256).to_bytes(2, "little")
    valid = _blob(0, [sentinel_page, sentinel_page])
    assert valid == InfoBuffer(2).to_bytes()
    assert InfoBuffer.from_bytes(valid).is_empty()
    malformed = [
        b"NOTMAGIC" + b"\x00" * 20,
        b"DAISREV1" + b"\x02\x00\x00\x00" + b"\x00" * 8 + b"\xff\x00\x00\x00",  # truncated payload
        b"DAISREV1",  # no header
        valid[:19],  # header one byte short
        _blob(-1, [sentinel_page]),  # negative op depth
        valid + b"\x00",  # trailing byte
        _blob(0, [sentinel_page, (255).to_bytes(1, "little")]),  # below the sentinel
        _blob(0, [b""]),  # zero-length page
    ]
    for blob in malformed:
        with pytest.raises(BufferCorruption):
            InfoBuffer.from_bytes(blob)


def test_buffer_underflow_detected():
    target, schedule, steps, config = _setup(d=2, K=5)
    fwd = reversible_forward(target, schedule, steps, config, 23)
    reversible_backward(target, schedule, steps, config, fwd.fixed, None, fwd.seed,
                        fwd.buffer)
    # draining a second time pops past the recorded depth
    with pytest.raises(BufferCorruption):
        reversible_backward(target, schedule, steps, config, fwd.fixed, None, fwd.seed,
                            fwd.buffer)


def test_fixedpoint_gamma_zero_rejected():
    target, schedule, steps, _ = _setup()
    config = TransitionConfig(gamma=0.0)
    with pytest.raises(ValueError):
        reversible_forward(target, schedule, steps, config, 1)


def test_seed_masking():
    target, schedule, steps, config = _setup(d=2, K=3)
    big = (1 << 70) + 5
    fwd = reversible_forward(target, schedule, steps, config, big)
    assert fwd.seed <= MASK64
    _, _, s_back = reversible_backward(target, schedule, steps, config, fwd.fixed, None,
                                       fwd.seed, fwd.buffer)
    assert s_back == big & MASK64
