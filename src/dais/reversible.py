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
range check is screened by a squared norm, one ``ndarray.dot`` per value that
only in-range values pass; the exact check runs only when the screen fails.
A step size of at most 1/2 bounds every drift increment outright, so the
drifts then skip their screens.  Each leapfrog sub-step adds a rounded
increment that depends only on the other variable, so running the same step
with the step size negated undoes it bit for bit.
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

from .rng import MASK64
from .sampler import NumericalFailure, TransitionConfig
from .schedules import AnnealingSchedule, StepSizeScheme, check_same_K, count, is_integer
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
# rounding is monotone and NaN or inf fail the comparison.  x.dot(x) < 2^124
# gives |x_i| < 2^62 for a float increment x; view.dot(view) < 2^28 gives
# |state_i| < 2^62 for the float view state / 2^48 of an int64 state.
_INC_SCREEN = 2.0**124
_VIEW_SCREEN = 2.0**28
BLOCK_STEPS = 256  # refresh increments are drawn, scaled and checked per block of steps
GAMMA_DENOM_BITS = 16
_DENOM = 1 << GAMMA_DENOM_BITS
BUFFER_MAGIC = b"DAISREV1"
# a Philox state with an empty output buffer and no cached 32-bit word
_PHILOX_FRESH = {"bit_generator": "Philox", "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def forward_seed(s: int) -> int:
    """Advance the 64-bit seed state; bijective."""
    return (SEED_MULT * s + SEED_INC) & MASK64


def backward_seed(s: int) -> int:
    """Exact inverse of `forward_seed`."""
    return (SEED_MULT_INV * (s - SEED_INC)) & MASK64


class BufferCorruption(RuntimeError):
    """Buffer drained past its push depth, failed deserialization, or not the chain's own."""


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
    transient).  Every pushed or exchanged row is a 1-d sequence with one
    value per slot.
    """

    def __init__(self, n_slots: int):
        self._store = [SLOT_SENTINEL] * count("n_slots", n_slots, low=0)  # one Python int per slot
        self.depth = 0  # completed damping ops not yet undone

    @property
    def n_slots(self) -> int:
        return len(self._store)

    def push(self, values, modulus: int):
        """Push one residue per slot: ValueError, with nothing pushed, unless each is an integer in [0, modulus)."""
        modulus = count("modulus", modulus)
        values = np.asarray(values, dtype=object)
        rows = values.ravel().tolist()
        bad = next((v for v in rows if not is_integer(v)), None)
        if bad is not None:
            raise ValueError(f"pushed values must be integers, got {bad!r}")
        if not all(0 <= v < modulus for v in rows):
            raise ValueError(f"pushed values must lie in [0, {modulus})")
        if values.shape != (len(self._store),):  # zip would silently drop slots or values
            raise ValueError(f"a buffer row needs shape ({len(self._store)},), got {values.shape}")
        self._store = [s * modulus + int(r) for s, r in zip(self._store, rows)]

    def pop(self, modulus: int) -> np.ndarray:
        """Pop one residue per slot: BufferCorruption, with nothing popped, if a slot would drop below its sentinel."""
        floor = SLOT_SENTINEL * count("modulus", modulus)
        if min(self._store, default=floor) < floor:
            raise BufferCorruption("buffer drained past its slot sentinel")
        return self.exchange(np.zeros(self.n_slots, dtype=np.int64), 1, modulus)

    def exchange(self, values, push_mod: int, pop_mod: int) -> np.ndarray:
        """Push ``values`` modulo ``push_mod``, then pop an int64 row modulo ``pop_mod``, in one pass.

        Unchecked, as the chain calls it on every step: ``values`` must be residues
        modulo ``push_mod``, as the damping's are, and no slot's sentinel is guarded.  A
        2^GAMMA_DENOM_BITS side is a shift and a mask, as on both sides of
        the chain's damping; ``divmod`` is left for the other moduli.
        """
        values = np.asarray(values)
        if values.shape != (len(self._store),):  # zip would silently drop slots or values
            raise ValueError(f"a buffer row needs shape ({len(self._store)},), got {values.shape}")
        rows = values.tolist()
        if push_mod == _DENOM:
            pairs = [divmod((s << GAMMA_DENOM_BITS) + r, pop_mod) for s, r in zip(self._store, rows)]
        elif pop_mod == _DENOM:
            pairs = [((t := s * push_mod + r) >> GAMMA_DENOM_BITS, t & (_DENOM - 1))
                     for s, r in zip(self._store, rows)]
        else:
            pairs = [divmod(s * push_mod + r, pop_mod) for s, r in zip(self._store, rows)]
        store, out = zip(*pairs) if pairs else ((), ())
        self._store = list(store)
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
        if n_slots > (len(blob) - off) // 4:  # each page needs a 4-byte length: reject before allocating
            raise BufferCorruption(f"{n_slots} pages claimed by a {len(blob)}-byte buffer")
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


def _in_range(x: np.ndarray, step=None) -> np.ndarray:
    """``x`` itself once every entry is finite and below 2^62 in magnitude."""
    if not np.abs(x).max(initial=0) < _LIMIT:  # one reduction; NaN fails it too
        where = "" if step is None else f" at step {step}"
        raise NumericalFailure(f"fixed-point overflow or non-finite value{where}", step=step)
    return x


def _to_fixed(scaled, step=None) -> np.ndarray:
    """Round an already 2^FRAC_BITS-scaled float array to int64, half to even."""
    return _in_range(np.rint(scaled), step).astype(np.int64)


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


def quantize_gamma(gamma: float):
    """Largest rational n / 2^GAMMA_DENOM_BITS not exceeding gamma.

    Rounding down keeps the per-step buffer cost at or above log2(1/gamma),
    so measured bits land in the documented [log2(1/gamma), log2(1/gamma)+1]
    window.  Returns (numerator, denominator, effective gamma).
    """
    if not 1.0 / _DENOM <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [2^-{GAMMA_DENOM_BITS}, 1] for rational damping, got {gamma}")
    num = int(np.floor(gamma * _DENOM))
    return num, _DENOM, num / _DENOM


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
        self.grad_log_f = target.grad_log_f
        self.dim = d = target.dim
        self.betas = schedule.betas
        with np.errstate(over="ignore"):  # an eta past the range fails step 1's range check
            self.eta = steps.eta * _SCALE  # exact: folds the fixed-point scale in
        self.num, _, self.gamma_eff = quantize_gamma(config.gamma)
        self.noise_scale = np.sqrt(1.0 - self.gamma_eff * self.gamma_eff)
        # |vv| <= num 2^61 / 2^16 keeps q = vv // num in [-2^46, 2^46),
        # so undamping's q << 16 cannot wrap; this is that bound on the float view
        self._undamp_screen = (self.num * 2.0 ** (61 - FRAC_BITS) / _DENOM) ** 2
        # every scalar operand as a row of d copies: a ufunc on two arrays skips
        # numpy's per-call scalar conversion and rounds exactly as the scalar form
        self._kick_h = {sign: np.full(d, sign * self.eta) for sign in (1, -1)}
        self._drift_h = {sign: np.full(d, 0.5 * sign * self.eta) for sign in (1, -1)}
        # a drift reads the view of a state in [-2^62, 2^62], so |v| <= 2^14 and its
        # fixed-point increment is at most |steps.eta| 2^61: within 2^60 for
        # |steps.eta| <= 1/2, with no screen
        self._short_drift = abs(0.5 * self.eta) * 2.0**14 <= 2.0**60
        self._unscale = np.full(d, 1.0 / _SCALE)  # x * 2^-48 == x / 2^48 exactly
        self._num_row = np.full(d, self.num, dtype=np.int64)
        self._shift_row = np.full(d, GAMMA_DENOM_BITS, dtype=np.int64)
        self._mask_row = np.full(d, _DENOM - 1, dtype=np.int64)
        self._gen = np.random.Generator(np.random.Philox())  # re-keyed per draw, not rebuilt
        self._philox_state = {**_PHILOX_FRESH, "state": {"counter": [0] * 4, "key": [0, 0]}}

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
        drift_h = self._drift_h[sign]
        x = v_before * drift_h
        th = th + (np.rint(x).astype(np.int64) if self._short_drift or x.dot(x) < _INC_SCREEN
                   else _to_fixed(x, k))
        midpoint = th * self._unscale
        th_norm = midpoint.dot(midpoint)
        if not th_norm < _VIEW_SCREEN:
            _in_range(th, k)
        grad = self.grad_log_f(self.betas[k], midpoint)
        # a zero step makes 0 * inf a NaN kick, so a non-finite gradient still fails the screen
        kick = grad * self._kick_h[sign]
        if kick.dot(kick) < _INC_SCREEN:  # the screen also passes only finite gradients
            kick = np.rint(kick).astype(np.int64)
        elif not np.isfinite(grad).all():
            raise NumericalFailure("non-finite gradient", step=k)
        else:
            kick = _to_fixed(kick, k)
        vv = vv + kick
        v_after = vv * self._unscale
        if not v_after.dot(v_after) < _VIEW_SCREEN:
            _in_range(vv, k)
        x = v_after * drift_h
        inc_small = self._short_drift or x.dot(x) < _INC_SCREEN / 16  # |inc| <= 2^60
        th = th + (np.rint(x).astype(np.int64) if inc_small or x.dot(x) < _INC_SCREEN else _to_fixed(x, k))
        # |th| < 2^61 before this drift and |inc| <= 2^60 keep |th| below 2^62
        if not (inc_small and th_norm < _VIEW_SCREEN / 4):
            _in_range(th, k)
        return th, vv, v_after

    def seed_noise(self, s: int, dim: int) -> np.ndarray:
        """``keyed_generator(s).standard_normal(dim)``, drawn by re-keying this chain's generator."""
        self._philox_state["state"]["key"][0] = s & MASK64
        self._gen.bit_generator.state = self._philox_state
        return self._gen.standard_normal(dim)

    def noise_block(self, seeds) -> np.ndarray:
        """Refresh increments sqrt(1 - gamma^2) eps(s) in fixed point, one row per seed, range-checked as a block."""
        eps = np.empty((len(seeds), self.dim))
        for i, s in enumerate(seeds):
            eps[i] = self.seed_noise(s, self.dim)
        return _to_fixed(self.noise_scale * _SCALE * eps)

    def refresh(self, vv, inc, buffer: InfoBuffer, k: int):
        """vv <- about gamma_eff vv (exactly invertible through the buffer) plus the row ``inc``.

        Returns vv and its float view.
        """
        if self.gamma_eff != 1.0:
            # q, r = divmod(vv, 2^16) as an arithmetic shift and a mask
            r = buffer.exchange(vv & self._mask_row, _DENOM, self.num)
            vv = (vv >> self._shift_row) * self._num_row + r
            buffer.depth += 1
        vv = vv + inc
        view = vv * self._unscale
        if not view.dot(view) < _VIEW_SCREEN:
            _in_range(vv, k)
        return vv, view

    def unrefresh(self, vv, inc, buffer: InfoBuffer, k: int):
        """Exact inverse of `refresh`."""
        vv = vv - inc
        view = vv * self._unscale
        norm = view.dot(view)
        if not norm < _VIEW_SCREEN:
            _in_range(vv, k)
        if self.gamma_eff == 1.0:
            return vv, view
        q, r = np.divmod(vv, self._num_row)
        if not (norm < self._undamp_screen
                or -_LIMIT // _DENOM <= q.min() <= q.max() < _LIMIT // _DENOM):  # else q << 16 wraps
            raise NumericalFailure(f"fixed-point overflow at step {k} undoing the damping", step=k)
        buffer.depth -= 1
        vv = (q << self._shift_row) + buffer.exchange(r, self.num, _DENOM)
        return vv, vv * self._unscale


@dataclass
class ForwardResult:
    """Output of `reversible_forward`; `fixed_to_float` of ``fixed.theta`` or ``fixed.v`` gives the float state."""

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
    theta0,
    v0,
) -> ForwardResult:
    """Forward chain keeping O(d) fixed-point state plus the lost-bits buffer.

    The per-step refresh noise is drawn from the evolved seed, never stored
    beyond the current block of ``BLOCK_STEPS`` steps.  The chain is the
    plain sampler's chain at ``gamma_eff`` (config.gamma quantized down to
    n / 2^16) up to fixed-point rounding.  The start ``theta0``, ``v0``
    must have shape ``(dim,)``.
    """
    chain = _FixedPointChain(target, schedule, steps, config)
    for name, x in (("theta0", theta0), ("v0", v0)):
        if np.shape(x) != (chain.dim,):
            raise ValueError(f"{name} must have shape ({chain.dim},), got {np.shape(x)}")
    s = count("s0", s0, low=0) & MASK64
    buffer = InfoBuffer(chain.dim)
    th = float_to_fixed(theta0)
    vv = float_to_fixed(v0)
    L = float(-target.log_p0(fixed_to_float(th)))
    v = vv / _SCALE
    views = np.empty((2, BLOCK_STEPS, chain.dim))  # float momenta before and after each kick
    # a screen that overflows, or a zero step's 0 * inf kick, fails its comparison; the exact check decides
    with np.errstate(over="ignore", invalid="ignore"):
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
                vv, v = chain.refresh(vv, noise[i], buffer, k0 + i)
            for q_before, q_after in zip((before * before).sum(axis=-1).tolist(),
                                         (after * after).sum(axis=-1).tolist()):
                L += 0.5 * (q_before - q_after)
    L = float(L + target.log_f(1.0, fixed_to_float(th)))
    return ForwardResult(s, buffer, L, FixedPointState(th, vv), chain.gamma_eff)


def _as_fixed(x, dim: int) -> np.ndarray:
    """Copy an integer state vector into int64, checking the fixed-point range."""
    arr = np.asarray(x)
    if arr.shape != (dim,) or not all(is_integer(e) for e in arr):
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
    A ``buffer`` of another chain's length or dimension raises
    ``BufferCorruption`` before anything is popped.
    """
    chain = _FixedPointChain(target, schedule, steps, config)
    if isinstance(theta, FixedPointState):
        theta, v = theta.theta, theta.v
    th = _as_fixed(theta, chain.dim)
    vv = _as_fixed(v, chain.dim)
    depth = schedule.K if chain.gamma_eff != 1.0 else 0  # one damping per forward step
    if buffer.n_slots != chain.dim or buffer.depth != depth:
        raise BufferCorruption(f"buffer holds {buffer.n_slots} slots at depth {buffer.depth}; a chain of "
                               f"K={schedule.K} steps in d={chain.dim} needs {chain.dim} slots at depth {depth}")
    s = count("seed", seed, low=0) & MASK64
    # a screen that overflows, or a zero step's 0 * inf kick, fails its comparison; the exact check decides
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(schedule.K, 0, -BLOCK_STEPS):
            seeds = []
            for _ in range(min(BLOCK_STEPS, k0)):
                seeds.append(s)
                s = backward_seed(s)
            noise = chain.noise_block(seeds)
            for i in range(len(seeds)):
                vv, v = chain.unrefresh(vv, noise[i], buffer, k0 - i)
                th, vv, _ = chain.leapfrog(th, vv, v, k0 - i, -1)
    return th, vv, s
