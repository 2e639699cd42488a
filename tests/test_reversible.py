import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dais import (
    BufferCorruption,
    BufferOverflow,
    InfoBuffer,
    TransitionConfig,
    backward_seed,
    blr_target,
    constant_steps,
    dais_chain,
    fixed_to_float,
    float_to_fixed,
    forward_seed,
    gen_blr_data,
    keyed_generator,
    make_linear_schedule,
    memory_report,
    quantize_gamma,
    reversible_backward,
    reversible_forward,
    seed_noise,
)
from dais.reversible import MASK64


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
    a = seed_noise(987654321, 6)
    b = seed_noise(987654321, 6)
    assert np.array_equal(a, b)
    c = seed_noise(987654322, 6)
    assert not np.array_equal(a, c)


# -------------------------------------------------------------- fixed point

@given(st.lists(st.floats(min_value=-30.0, max_value=30.0), min_size=1, max_size=8))
def test_fixed_point_conversion_round_trip(values):
    fixed = float_to_fixed(np.array(values))
    back = fixed_to_float(fixed)
    assert np.all(np.abs(back - np.array(values)) <= 2.0**-48)


def test_fixed_point_overflow_guard():
    with pytest.raises(Exception):
        float_to_fixed(np.array([1e20]))


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
    mass=st.none() | st.lists(st.floats(0.25, 4.0), min_size=4, max_size=4),
    s0=st.integers(0, 2**64 - 1),
)
def test_round_trip_property(d, K, gamma, eta, mass, s0):
    # forward, serialize the buffer, backward: the start state comes back bit for bit
    target = blr_target(gen_blr_data(20, d, 0))
    schedule, steps = make_linear_schedule(K), constant_steps(eta, K)
    config = TransitionConfig(gamma=gamma, mass=None if mass is None else np.array(mass[:d]))
    g = keyed_generator(s0)
    theta0 = target.sample_p0(g)
    v0 = np.sqrt(config.mass_diag(d)) * g.standard_normal(d)
    fwd = reversible_forward(target, schedule, steps, config, s0, theta0=theta0, v0=v0)
    restored = InfoBuffer.from_bytes(fwd.buffer.to_bytes())
    th, vv, s_back = reversible_backward(target, schedule, steps, config, fwd.fixed, None,
                                         fwd.seed, restored)
    assert [int(x) for x in th] == [int(x) for x in float_to_fixed(theta0)]
    assert [int(x) for x in vv] == [int(x) for x in float_to_fixed(v0)]
    assert s_back == s0
    assert restored.is_empty()


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


def test_round_trip_with_mass_and_varying_k():
    target, schedule, steps, _ = _setup(d=2, K=25, eta=0.1)
    config = TransitionConfig(gamma=0.75, mass=np.array([0.5, 2.0]))
    fwd = reversible_forward(target, schedule, steps, config, 99)
    th, vv, s_back = reversible_backward(
        target, schedule, steps, config, fwd.fixed, None, fwd.seed, fwd.buffer
    )
    g = keyed_generator(99)
    theta0 = target.sample_p0(g)
    v0 = np.sqrt(config.mass_diag(2)) * g.standard_normal(2)
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
    state, plain_L = dais_chain(target, schedule, steps, TransitionConfig(gamma=fwd.gamma_eff),
                                theta0=theta0, v0=v0, refresh_noise=eps)
    assert abs(fwd.bound - plain_L) <= 1e-8
    assert np.max(np.abs(fwd.theta - state.theta)) <= 1e-8
    assert np.max(np.abs(fwd.v - state.v)) <= 1e-8
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
    _, float_L = dais_chain(target, schedule, steps, config,
                            theta0=theta0, v0=v0, refresh_noise=eps)
    assert f_fixed.bound == pytest.approx(float_L, rel=1e-3, abs=1e-3)


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
    # rejected before anything was popped: the buffer still reverses the chain
    th, _, s = reversible_backward(target, schedule, steps, config, fwd.fixed.theta.astype(np.int64),
                                   fwd.fixed.v, fwd.seed, fwd.buffer)
    assert s == 5
    assert fwd.buffer.is_empty()


# -------------------------------------------------------------------- buffer

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


def test_buffer_capacity_enforced():
    target, schedule, steps, config = _setup(d=8, K=200, gamma=0.5)
    with pytest.raises(BufferOverflow):
        reversible_forward(target, schedule, steps, config, 3, buffer_cap_bytes=64)


# ------------------------------------------------------------- memory report

def test_memory_report_reference_ratio():
    rep = memory_report(10, 1000, 0.9, precision_bits=32)
    assert rep.ratio == pytest.approx(np.log2(1 / 0.9) / 32, rel=1e-6)
    assert rep.naive_bits == 32 * 10 * 1000


def test_memory_report_edge_gammas():
    assert memory_report(4, 10, 1.0).reversible_bits == 0.0
    assert memory_report(4, 10, 0.5).reversible_bits == pytest.approx(40.0)
    for gamma in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            memory_report(4, 10, gamma)


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
