"""Memory-efficient, exactly reversible chains.

A forward chain keeps only O(d) state plus one block of ``BLOCK_STEPS``
pre-drawn refresh increments: the refresh noise of step k is regenerated
from a 64-bit seed s_k evolved by an invertible linear congruential map, so
the backward pass can rebuild every epsilon_k and undo the dynamics step by
step instead of storing the trajectory.

Exact reversal needs exact arithmetic, so the state lives in int64 fixed
point with ``FRAC_BITS`` = 48 fraction bits.  Every state entry and increment
must stay below 2^62, i.e. |theta|, |v| < 2^14 = 16384, so that no sum wraps;
leaving that range raises ``NumericalFailure`` with the step index.  Each
range check is screened by a squared norm, one dot product that can only pass
in-range values; the exact check runs only when the screen fails.  Each
leapfrog sub-step adds a rounded increment that depends only on the other
variable, so running the same step with the step size negated undoes it bit for bit.
The only contracting operation, the momentum damping v = gamma * v_hat, is
performed as an exactly invertible rational multiply: gamma is quantized to
n / 2^q, the remainder bits destroyed by the division are pushed onto a
per-coordinate bit stack, and previously stored bits are packed back into
the result.  The stack grows by log2(1/gamma) bits per coordinate per step
on average, against the 32-64 bits per value of naive trajectory storage.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .rng import MASK64, keyed_generator
from .sampler import NumericalFailure, TransitionConfig
from .schedules import AnnealingSchedule, StepSizeScheme, check_same_K
from .targets import AnnealedTarget

# odd multiplier => bijection on 64-bit states
SEED_MULT = 6364136223846793005
SEED_INC = 1442695040888963407
SEED_MULT_INV = pow(SEED_MULT, -1, 1 << 64)

FRAC_BITS = 48
_SCALE = float(1 << FRAC_BITS)
_LIMIT = 1 << 62  # |fixed-point value| bound; sums of two in-range values fit int64
# Norm screens in front of the exact range checks: a squared norm below the
# screen bounds every entry, because each square is at most the sum, float
# rounding is monotone and NaN or inf fail the comparison.  x @ x < 2^124
# gives |x_i| < 2^62 for a float increment x; view @ view < 2^28 gives
# |state_i| < 2^62 for the float view state / 2^48 of an int64 state.
_INC_SCREEN = 2.0**124
_VIEW_SCREEN = 2.0**28
BLOCK_STEPS = 256  # refresh increments are drawn, scaled and checked per block of steps
GAMMA_DENOM_BITS = 16
BUFFER_MAGIC = b"DAISREV1"
# a Philox state with an empty output buffer and no cached 32-bit word
_PHILOX_FRESH = {"bit_generator": "Philox", "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def forward_seed(s: int) -> int:
    """Advance the 64-bit seed state; bijective."""
    return (SEED_MULT * s + SEED_INC) & MASK64


def backward_seed(s: int) -> int:
    """Exact inverse of `forward_seed`."""
    return (SEED_MULT_INV * (s - SEED_INC)) & MASK64


def seed_noise(s: int, dim: int) -> np.ndarray:
    """Standard normal vector fully determined by the seed state."""
    return keyed_generator(s).standard_normal(dim)


class BufferCorruption(RuntimeError):
    """Buffer drained past its push depth or failed deserialization."""


SLOT_SENTINEL = 1 << 8


class InfoBuffer:
    """Append-only bit stacks, one per coordinate, holding damping remainders.

    push/pop amounts need not be whole bits: pushing a value modulo m costs
    log2(m) bits exactly, so the amortized growth per damping is
    log2(denominator/numerator) = log2(1/gamma) bits per coordinate.  Pop
    order must be the exact reverse of push order.  Every slot starts from a
    one-byte sentinel: draining past it (underflow) is detectable, an empty
    buffer is all-sentinel, and the sentinel keeps the slot's leading
    constant positive so the physical size never undershoots the amortized
    log2(1/gamma) cost (the raw remainder stream carries a small negative
    transient).
    """

    def __init__(self, n_slots: int):
        self._store = [SLOT_SENTINEL] * n_slots  # one Python int per slot
        self.depth = 0  # completed damping ops not yet undone

    @property
    def n_slots(self) -> int:
        return len(self._store)

    def push(self, values, modulus: int):
        self._store = [s * modulus + v for s, v in zip(self._store, np.asarray(values).tolist())]

    def pop(self, modulus: int) -> np.ndarray:
        return self.exchange(np.zeros(self.n_slots, dtype=np.int64), 1, modulus).astype(object)

    def exchange(self, values: np.ndarray, push_mod: int, pop_mod: int) -> np.ndarray:
        """``push`` then ``pop`` of int64 rows in one pass over the slots."""
        out = values.tolist()
        store = self._store
        for i, v in enumerate(out):
            store[i], out[i] = divmod(store[i] * push_mod + v, pop_mod)
        return np.array(out, dtype=np.int64)

    def bit_size(self) -> int:
        """Physical bits held, sentinel included: 9 bits per slot when empty."""
        return int(sum(int(v).bit_length() for v in self._store))

    def is_empty(self) -> bool:
        return all(int(v) == SLOT_SENTINEL for v in self._store) and self.depth == 0

    def to_bytes(self) -> bytes:
        """Magic, page count, op depth, then one length-prefixed page per slot."""
        parts = [BUFFER_MAGIC, struct.pack("<I", self.n_slots), struct.pack("<q", self.depth)]
        for v in self._store:
            raw = int(v).to_bytes((int(v).bit_length() + 7) // 8, "little")
            parts.append(struct.pack("<I", len(raw)))
            parts.append(raw)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "InfoBuffer":
        if blob[: len(BUFFER_MAGIC)] != BUFFER_MAGIC:
            raise BufferCorruption("bad magic bytes")
        off = len(BUFFER_MAGIC)
        if off + 12 > len(blob):
            raise BufferCorruption("truncated buffer header")
        (n_slots,) = struct.unpack_from("<I", blob, off)
        off += 4
        (depth,) = struct.unpack_from("<q", blob, off)
        off += 8
        if depth < 0:
            raise BufferCorruption(f"negative op depth {depth}")
        buf = cls(n_slots)
        vals = []
        for _ in range(n_slots):
            if off + 4 > len(blob):
                raise BufferCorruption("truncated page header")
            (length,) = struct.unpack_from("<I", blob, off)
            off += 4
            if off + length > len(blob):
                raise BufferCorruption("truncated page payload")
            value = int.from_bytes(blob[off : off + length], "little")
            if value < SLOT_SENTINEL:
                raise BufferCorruption("page value below the slot sentinel")
            vals.append(value)
            off += length
        if off != len(blob):
            raise BufferCorruption(f"{len(blob) - off} trailing bytes after the last page")
        buf._store = vals
        buf.depth = depth
        return buf


def _overflow(step=None) -> NumericalFailure:
    where = "" if step is None else f" at step {step}"
    return NumericalFailure(f"fixed-point overflow or non-finite value{where}", step=step)


def _in_range(x: np.ndarray, step=None) -> np.ndarray:
    """``x`` itself once every entry is finite and below 2^62 in magnitude."""
    if not np.abs(x).max(initial=0) < _LIMIT:  # one reduction; NaN fails it too
        raise _overflow(step)
    return x


def _to_fixed(scaled, step=None) -> np.ndarray:
    """Round an already 2^FRAC_BITS-scaled float array to int64, half to even."""
    return _in_range(np.rint(scaled), step).astype(np.int64)


def _increment(x: np.ndarray, step):
    """``_to_fixed(x, step)`` and the screen's x @ x.

    The exact check runs only if the screen fails.
    """
    norm = x @ x
    return (np.rint(x).astype(np.int64) if norm < _INC_SCREEN else _to_fixed(x, step)), norm


def _check_state(state: np.ndarray, view: np.ndarray, step) -> float:
    """Raise unless every |state| < 2^62; ``view`` is its float view state / 2^48.

    Returns the screen's view @ view; the exact check runs only if the screen fails.
    """
    norm = view @ view
    if not norm < _VIEW_SCREEN:
        _in_range(state, step)
    return norm


def float_to_fixed(x) -> np.ndarray:
    """Round-to-nearest-even conversion to int64 fixed point."""
    return _to_fixed(np.asarray(x, dtype=float) * _SCALE)


def fixed_to_float(i) -> np.ndarray:
    return np.atleast_1d(i).astype(float) / _SCALE


@dataclass
class FixedPointState:
    """Chain state as signed fixed-point int64 arrays, |entry| < 2^62 (exact)."""

    theta: np.ndarray
    v: np.ndarray

    def to_floats(self):
        return fixed_to_float(self.theta), fixed_to_float(self.v)


def quantize_gamma(gamma: float, denom_bits: int = GAMMA_DENOM_BITS):
    """Largest rational n / 2^denom_bits not exceeding gamma.

    Rounding down keeps the per-step buffer cost at or above log2(1/gamma),
    so measured bits land in the documented [log2(1/gamma), log2(1/gamma)+1]
    window.  Returns (numerator, denominator, effective gamma).
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0, 1] for rational damping, got {gamma}")
    den = 1 << denom_bits
    num = int(np.floor(gamma * den))
    if num == 0:
        raise ValueError("gamma too small to quantize; use naive storage instead")
    if gamma == 1.0:
        num = den
    return num, den, num / den


class _FixedPointChain:
    """Step arithmetic of one fixed-point chain, shared by forward and backward.

    The forward step k is ``leapfrog(+1)`` then ``refresh`` (damp, add the
    increment of seed s_k); the backward pass runs ``unrefresh`` then
    ``leapfrog(-1)``.  Refresh increments come in blocks of steps from
    `noise_block`.
    """

    def __init__(self, target: AnnealedTarget, schedule: AnnealingSchedule,
                 steps: StepSizeScheme, config: TransitionConfig):
        check_same_K(schedule, steps)
        self.target = target
        self.dim = target.dim
        self.betas = schedule.betas
        self.eta = steps.eta * _SCALE  # exact: folds the fixed-point scale in
        self.num, self.den, self.gamma_eff = quantize_gamma(config.gamma)
        self.noise_scale = np.sqrt(1.0 - self.gamma_eff * self.gamma_eff)
        # |vv| <= num 2^61 / den keeps q = vv // num in [-2^62 / den, 2^62 / den),
        # so undamping's q * den cannot wrap; this is that bound on the float view
        self._undamp_screen = (self.num * 2.0 ** (61 - FRAC_BITS) / self.den) ** 2
        self._gen = np.random.Generator(np.random.Philox())  # re-keyed per draw, not rebuilt

    def leapfrog(self, th, vv, v_before, k: int, sign: int):
        """Leapfrog step k for sign +1, its exact inverse for sign -1.

        Drift, kick, drift: each sub-step adds a rounded increment computed
        from the variable it leaves alone.  Negating the step size negates
        every increment exactly (float negation and round-half-even are
        symmetric), and the sub-step order is a palindrome, so the sign -1
        step subtracts the same three increments in reverse order.
        ``v_before`` is the float view vv / 2^48.  Returns the new (th, vv)
        and the float view of vv after the kick.
        """
        h = sign * self.eta
        half = 0.5 * h
        inc, _ = _increment(half * v_before, k)
        th = th + inc
        midpoint = th / _SCALE
        th_norm = _check_state(th, midpoint, k)
        grad = self.target.grad_log_f(self.betas[k], midpoint)
        # a zero step still rejects a non-finite gradient, without computing 0 * inf
        kick = h * grad if h else np.where(np.isfinite(grad), 0.0, np.nan)
        if kick @ kick < _INC_SCREEN:  # the screen also passes only finite gradients
            kick = np.rint(kick).astype(np.int64)
        elif not np.isfinite(grad).all():
            raise NumericalFailure("non-finite gradient", step=k, midpoint=midpoint)
        else:
            kick = _to_fixed(kick, k)
        vv = vv + kick
        v_after = vv / _SCALE
        _check_state(vv, v_after, k)
        inc, inc_norm = _increment(half * v_after, k)
        th = th + inc
        # |th| <= 2^61 before this drift and |inc| <= 2^60 keep |th| below 2^62
        if not (th_norm < _VIEW_SCREEN / 4 and inc_norm < _INC_SCREEN / 16):
            _in_range(th, k)
        return th, vv, v_after

    def seed_noise(self, s: int, dim: int) -> np.ndarray:
        """``seed_noise(s, dim)`` drawn by re-keying this chain's generator."""
        key = {"counter": [0] * 4, "key": [s & MASK64, 0]}
        self._gen.bit_generator.state = {**_PHILOX_FRESH, "state": key}
        return self._gen.standard_normal(dim)

    def noise_block(self, seeds) -> np.ndarray:
        """Refresh increments sqrt(1 - gamma^2) eps(s) in fixed point, one row per seed.

        Stops before the first row that leaves the 2^62 range: the step
        that would add that row raises when it gets there.
        """
        eps = np.empty((len(seeds), self.dim))
        for i, s in enumerate(seeds):
            eps[i] = self.seed_noise(s, self.dim)
        inc = np.rint(self.noise_scale * _SCALE * eps)
        ok = np.abs(inc).max(axis=1, initial=0) < _LIMIT  # exact per-row check; NaN fails it
        return inc[: len(seeds) if ok.all() else int(ok.argmin())].astype(np.int64)

    def refresh(self, vv, noise, i: int, buffer: InfoBuffer, k: int):
        """vv <- about gamma_eff vv (exactly invertible through the buffer) plus noise[i].

        Returns vv and its float view.
        """
        if self.gamma_eff != 1.0:
            q, r = np.divmod(vv, self.den)
            vv = q * self.num + buffer.exchange(r, self.den, self.num)
            buffer.depth += 1
        if i >= len(noise):
            raise _overflow(k)
        vv = vv + noise[i]
        view = vv / _SCALE
        _check_state(vv, view, k)
        return vv, view

    def unrefresh(self, vv, noise, i: int, buffer: InfoBuffer, k: int):
        """Exact inverse of `refresh`."""
        if i >= len(noise):
            raise _overflow(k)
        vv = vv - noise[i]
        view = vv / _SCALE
        norm = _check_state(vv, view, k)
        if self.gamma_eff == 1.0:
            return vv, view
        if buffer.depth <= 0:
            raise BufferCorruption("buffer drained past its push depth")
        q, r = np.divmod(vv, self.num)
        if not (norm < self._undamp_screen
                or -_LIMIT // self.den <= q.min() <= q.max() < _LIMIT // self.den):  # else q * den wraps
            raise NumericalFailure(f"fixed-point overflow at step {k} undoing the damping", step=k)
        buffer.depth -= 1
        vv = q * self.den + buffer.exchange(r, self.num, self.den)
        return vv, vv / _SCALE


@dataclass
class ForwardResult:
    """Output of `reversible_forward`: float views plus the exact state."""

    theta: np.ndarray
    v: np.ndarray
    seed: int
    buffer: InfoBuffer
    bound: float
    fixed: FixedPointState
    gamma_eff: float


def reversible_forward(
    target: AnnealedTarget,
    schedule: AnnealingSchedule,
    steps: StepSizeScheme,
    config: TransitionConfig,
    s0: int,
    theta0=None,
    v0=None,
) -> ForwardResult:
    """Forward chain keeping O(d) fixed-point state plus the lost-bits buffer.

    The per-step refresh noise is drawn from the evolved seed, never stored
    beyond the current block of ``BLOCK_STEPS`` steps.  The chain is the
    plain sampler's chain at ``gamma_eff`` (config.gamma quantized down to
    n / 2^16) up to fixed-point rounding.  A ``theta0`` or ``v0`` left out is
    drawn from a generator keyed by ``s0``, theta0 first.
    """
    chain = _FixedPointChain(target, schedule, steps, config)
    if theta0 is None or v0 is None:
        g = keyed_generator(s0)
        if theta0 is None:
            theta0 = target.sample_p0(g)
        if v0 is None:
            v0 = g.standard_normal(chain.dim)
    s = int(s0) & MASK64
    buffer = InfoBuffer(chain.dim)
    th = float_to_fixed(theta0)
    vv = float_to_fixed(v0)
    L = float(-target.log_p0(fixed_to_float(th)))
    v = vv / _SCALE
    views = np.empty((2, BLOCK_STEPS, chain.dim))  # float momenta before and after each kick
    with np.errstate(over="ignore"):  # a screen that overflows to inf fails; the exact check decides
        for k0 in range(1, schedule.K + 1, BLOCK_STEPS):
            seeds = []
            for _ in range(min(BLOCK_STEPS, schedule.K + 1 - k0)):
                s = forward_seed(s)
                seeds.append(s)
            noise = chain.noise_block(seeds)
            before, after = views[:, : len(seeds)]
            for i in range(len(seeds)):
                before[i] = v
                th, vv, after[i] = chain.leapfrog(th, vv, v, k0 + i, +1)
                vv, v = chain.refresh(vv, noise, i, buffer, k0 + i)
            for q_before, q_after in zip((before * before).sum(axis=-1).tolist(),
                                         (after * after).sum(axis=-1).tolist()):
                L += 0.5 * (q_before - q_after)
    L = float(L + target.log_f(1.0, fixed_to_float(th)))
    fixed = FixedPointState(th, vv)
    tf, vf = fixed.to_floats()
    return ForwardResult(tf, vf, s, buffer, L, fixed, chain.gamma_eff)


def _as_fixed(x, dim: int) -> np.ndarray:
    """Copy an integer state vector into int64, checking the fixed-point range."""
    arr = np.asarray(x)
    if arr.shape != (dim,) or not all(isinstance(e, (int, np.integer)) for e in arr):
        raise ValueError(f"reversal needs the integer state of shape ({dim},), got {arr.dtype} "
                         f"of shape {arr.shape}; pass ForwardResult.fixed")
    if not all(-_LIMIT < int(e) < _LIMIT for e in arr):
        raise ValueError("integer state out of the fixed-point range: |entry| must stay below 2^62")
    return np.array([int(e) for e in arr], dtype=np.int64)


def reversible_backward(
    target: AnnealedTarget,
    schedule: AnnealingSchedule,
    steps: StepSizeScheme,
    config: TransitionConfig,
    theta,
    v,
    seed: int,
    buffer: InfoBuffer,
):
    """Invert a forward chain bit for bit, returning (theta_0, v_0, s_0).

    ``theta`` is ``ForwardResult.fixed`` (then ``v`` is ignored) or the
    integer arrays ``fixed.theta`` and ``fixed.v``; float arrays raise
    ValueError.  Regenerates epsilon_k from the seed, undoes the
    refreshment through the buffer and the leapfrog step by running it
    backwards.  The returned theta_0 / v_0 are int64 fixed-point arrays.
    """
    chain = _FixedPointChain(target, schedule, steps, config)
    if isinstance(theta, FixedPointState):
        theta, v = theta.theta, theta.v
    th = _as_fixed(theta, chain.dim)
    vv = _as_fixed(v, chain.dim)
    s = int(seed) & MASK64
    with np.errstate(over="ignore"):  # a screen that overflows to inf fails; the exact check decides
        for k0 in range(schedule.K, 0, -BLOCK_STEPS):
            seeds = []
            for _ in range(min(BLOCK_STEPS, k0)):
                seeds.append(s)
                s = backward_seed(s)
            noise = chain.noise_block(seeds)
            for i in range(len(seeds)):
                vv, v = chain.unrefresh(vv, noise, i, buffer, k0 - i)
                th, vv, _ = chain.leapfrog(th, vv, v, k0 - i, -1)
    return th, vv, s
