"""Memory-efficient, exactly reversible chains.

A forward chain keeps only O(d) state: the refresh noise of step k is
regenerated from a 64-bit seed s_k evolved by an invertible linear
congruential map, so the backward pass can rebuild every epsilon_k and undo
the dynamics step by step instead of storing the trajectory.

Exact reversal needs exact arithmetic, so the state lives in signed
fixed-point integers with ``FRAC_BITS`` fraction bits.  Each leapfrog
sub-step adds a rounded increment that depends only on the other variable,
so running the same step with the step size negated undoes it bit for bit.
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
from .sampler import NumericalFailure, TransitionConfig, _quad
from .schedules import AnnealingSchedule, StepSizeScheme
from .targets import AnnealedTarget

# odd multiplier => bijection on 64-bit states
SEED_MULT = 6364136223846793005
SEED_INC = 1442695040888963407
SEED_MULT_INV = pow(SEED_MULT, -1, 1 << 64)

FRAC_BITS = 48
GAMMA_DENOM_BITS = 16
BUFFER_MAGIC = b"DAISREV1"


def forward_seed(s: int) -> int:
    """Advance the 64-bit seed state; bijective."""
    return (SEED_MULT * s + SEED_INC) & MASK64


def backward_seed(s: int) -> int:
    """Exact inverse of `forward_seed`."""
    return (SEED_MULT_INV * (s - SEED_INC)) & MASK64


def seed_noise(s: int, dim: int) -> np.ndarray:
    """Standard normal vector fully determined by the seed state."""
    return keyed_generator(s).standard_normal(dim)


class BufferOverflow(RuntimeError):
    """Information buffer exceeded its configured capacity."""


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

    def __init__(self, n_slots: int, cap_bytes: int | None = None):
        self._store = np.array([SLOT_SENTINEL] * n_slots, dtype=object)
        self._cap_bytes = cap_bytes
        self.depth = 0  # completed damping ops not yet undone

    @property
    def n_slots(self) -> int:
        return self._store.size

    def push(self, values, modulus: int):
        self._store = self._store * modulus + values
        if self._cap_bytes is not None and self.nbytes() > self._cap_bytes:
            raise BufferOverflow(f"info buffer exceeded {self._cap_bytes} bytes")

    def pop(self, modulus: int):
        out = self._store % modulus
        self._store //= modulus
        return out

    def bit_size(self) -> int:
        """Physical bits held, sentinel included; d bits when empty."""
        return int(sum(int(v).bit_length() for v in self._store))

    def nbytes(self) -> int:
        """Serialized size: header plus length-prefixed pages."""
        payload = sum((int(v).bit_length() + 7) // 8 for v in self._store)
        return len(BUFFER_MAGIC) + 4 + 8 + 4 * self.n_slots + payload

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
    def from_bytes(cls, blob: bytes, cap_bytes: int | None = None) -> "InfoBuffer":
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
        buf = cls(n_slots, cap_bytes)
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
        buf._store = np.array(vals, dtype=object)
        buf.depth = depth
        return buf


def float_to_fixed(x) -> np.ndarray:
    """Round-to-nearest-even conversion to arbitrary-precision integers."""
    scaled = np.rint(np.asarray(x, dtype=float) * (1 << FRAC_BITS))
    if not np.all(np.isfinite(scaled)):
        raise NumericalFailure("non-finite value in fixed-point conversion")
    if np.any(np.abs(scaled) >= 2**62):
        raise NumericalFailure("fixed-point overflow; state magnitude too large")
    return scaled.astype(np.int64).astype(object)


def fixed_to_float(i) -> np.ndarray:
    return np.array([int(v) for v in np.atleast_1d(i)], dtype=float) / (1 << FRAC_BITS)


@dataclass
class FixedPointState:
    """Chain state as signed fixed-point integers (object dtype, exact)."""

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

    The forward step k is ``leapfrog(+1)``, ``damp``, then adding
    ``noise(s_k)``; the backward pass undoes the same calls in reverse order.
    """

    def __init__(self, target: AnnealedTarget, schedule: AnnealingSchedule,
                 steps: StepSizeScheme, config: TransitionConfig):
        if steps.K != schedule.K:
            raise ValueError(f"step scheme has K={steps.K}, schedule has K={schedule.K}")
        self.target = target
        self.dim = target.dim
        self.betas = schedule.betas
        self.etas = steps.per_step
        mass = config.mass_diag(self.dim)
        self.inv_mass = 1.0 / mass
        self.sqrt_mass = np.sqrt(mass)
        self.num, self.den, self.gamma_eff = quantize_gamma(config.gamma)
        self.noise_scale = np.sqrt(1.0 - self.gamma_eff * self.gamma_eff)

    def leapfrog(self, th, vv, k: int, sign: int):
        """Leapfrog step k for sign +1, its exact inverse for sign -1.

        Drift, kick, drift: each sub-step adds a rounded increment computed
        from the variable it leaves alone.  Negating the step size negates
        every increment exactly (float negation and round-half-even are
        symmetric), and the sub-step order is a palindrome, so the sign -1
        step subtracts the same three increments in reverse order.  Returns
        the new (th, vv) and the float momentum before and after the kick.
        """
        h = sign * self.etas[k - 1]
        v_before = fixed_to_float(vv)
        th = th + float_to_fixed(0.5 * h * self.inv_mass * v_before)
        midpoint = fixed_to_float(th)
        grad = self.target.grad_log_f(self.betas[k], midpoint)
        if not np.isfinite(grad).all():
            raise NumericalFailure("non-finite gradient", step=k, midpoint=midpoint)
        vv = vv + float_to_fixed(h * grad)
        v_after = fixed_to_float(vv)
        th = th + float_to_fixed(0.5 * h * self.inv_mass * v_after)
        return th, vv, v_before, v_after

    def noise(self, s: int) -> np.ndarray:
        """Refresh-noise increment sqrt(1 - gamma^2) sqrt(M) eps(s), in fixed point."""
        return float_to_fixed(self.noise_scale * (self.sqrt_mass * seed_noise(s, self.dim)))

    def damp(self, vv, buffer: InfoBuffer):
        """vv <- approximately vv * gamma_eff, exactly invertible through the buffer."""
        if self.gamma_eff == 1.0:
            return vv
        buffer.push(vv % self.den, self.den)
        vv = (vv // self.den) * self.num + buffer.pop(self.num)
        buffer.depth += 1
        return vv

    def undamp(self, vv, buffer: InfoBuffer):
        """Exact inverse of `damp`."""
        if self.gamma_eff == 1.0:
            return vv
        if buffer.depth <= 0:
            raise BufferCorruption("buffer drained past its push depth")
        buffer.depth -= 1
        buffer.push(vv % self.num, self.num)
        return (vv // self.num) * self.den + buffer.pop(self.den)


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
    buffer_cap_bytes: int | None = None,
) -> ForwardResult:
    """Forward chain keeping O(d) fixed-point state plus the lost-bits buffer.

    The per-step refresh noise is drawn from the evolved seed, never stored.
    The chain is the plain sampler's chain at ``gamma_eff`` (config.gamma
    quantized down to n / 2^16) up to fixed-point rounding.  When
    ``theta0``/``v0`` are omitted they are drawn from a generator keyed by
    ``s0``.
    """
    chain = _FixedPointChain(target, schedule, steps, config)
    if theta0 is None or v0 is None:
        g = keyed_generator(s0)
        theta0 = target.sample_p0(g)
        v0 = chain.sqrt_mass * g.standard_normal(chain.dim)
    s = int(s0) & MASK64
    buffer = InfoBuffer(chain.dim, buffer_cap_bytes)
    th = float_to_fixed(theta0)
    vv = float_to_fixed(v0)
    L = float(-target.log_p0(fixed_to_float(th)))
    for k in range(1, schedule.K + 1):
        th, vv, v_prev, v_hat = chain.leapfrog(th, vv, k, +1)
        L += 0.5 * (_quad(v_prev, chain.inv_mass) - _quad(v_hat, chain.inv_mass))
        s = forward_seed(s)
        vv = chain.damp(vv, buffer) + chain.noise(s)
    L = float(L + target.log_f(1.0, fixed_to_float(th)))
    fixed = FixedPointState(th, vv)
    tf, vf = fixed.to_floats()
    return ForwardResult(tf, vf, s, buffer, L, fixed, chain.gamma_eff)


def _as_fixed(x, dim: int) -> np.ndarray:
    """Copy an integer state vector into exact Python integers."""
    arr = np.asarray(x)
    if arr.shape != (dim,) or not all(isinstance(e, (int, np.integer)) for e in arr):
        raise ValueError(f"reversal needs the integer state of shape ({dim},), got {arr.dtype} "
                         f"of shape {arr.shape}; pass ForwardResult.fixed")
    return np.array([int(e) for e in arr], dtype=object)


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
    backwards.  The returned theta_0 / v_0 are fixed-point integer arrays.
    """
    chain = _FixedPointChain(target, schedule, steps, config)
    if isinstance(theta, FixedPointState):
        theta, v = theta.theta, theta.v
    th = _as_fixed(theta, chain.dim)
    vv = _as_fixed(v, chain.dim)
    s = int(seed) & MASK64
    for k in range(schedule.K, 0, -1):
        vv = chain.undamp(vv - chain.noise(s), buffer)
        s = backward_seed(s)
        th, vv, _, _ = chain.leapfrog(th, vv, k, -1)
    return th, vv, s


@dataclass(frozen=True)
class MemoryReport:
    """Storage accounting for a K-step chain over d parameters."""

    naive_bits: float
    reversible_bits: float
    time_complexity: str = "O(K)"

    @property
    def ratio(self) -> float:
        return self.reversible_bits / self.naive_bits


def memory_report(d: int, K: int, gamma: float, precision_bits: int = 32) -> MemoryReport:
    """Naive trajectory storage vs the lost-bits buffer.

    Naive storage costs ``precision_bits`` per parameter per step; the
    reversible buffer costs log2(1/gamma).  gamma = 0 is unsupported: full
    refreshment destroys the pre-refresh momentum entirely, so there is
    nothing to invert; store the trajectory instead.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0, 1] (gamma = 0 leaves nothing to invert), got {gamma}")
    reversible = float(np.log2(1.0 / gamma) * K * d)
    return MemoryReport(naive_bits=float(precision_bits * K * d), reversible_bits=reversible)
