"""Linear-congruential hash family for the MinHash trials.

The paper draws ``T`` hash functions of the form

    h_t(x) = (A_t * x + B_t) mod P_t

with per-trial random constants generated a priori (Section III-B,
implementation notes).  ``P_t`` are random primes below 2^31, found with a
deterministic Miller–Rabin test, so that ``A_t * (x mod P_t)`` never
overflows ``uint64``.

The constants are drawn from :class:`_Stream`, a pure-Python copy of what
``numpy.random.default_rng(seed).integers(low, high, dtype=np.int64)``
returns for the ranges used here.  Importing ``numpy.random`` would cost
every process about 6 MB (its extension modules, and OpenSSL's libcrypto
through ``secrets``) for 90 integers; and numpy does not promise its
streams stay the same across versions, while a saved index stores only
``(trials, seed)``.  ``tests/sketch/test_hashing.py`` pins the stream to
numpy's and the default family to literal constants.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from ..errors import SketchError

__all__ = ["HashFamily", "is_prime_u64"]

# Deterministic Miller-Rabin witness set: correct for all n < 3.3e24,
# comfortably covering the 64-bit range we use.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime_u64(n: int) -> bool:
    """Deterministic Miller–Rabin primality test for 64-bit integers."""
    n = int(n)
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1


def _seed_words(seed: int) -> tuple[int, int, int, int]:
    """``numpy.random.SeedSequence(seed).generate_state(4, np.uint64)``:
    the seed's 32-bit words hashed into a pool of four, then drawn out."""
    words = [seed & _M32]
    while seed > _M32:
        seed >>= 32
        words.append(seed & _M32)
    const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = 0x8B51F9DD
    state = []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & _M32
        value = value * const & _M32
        state.append(value ^ value >> 16)
    return tuple(state[2 * i] | state[2 * i + 1] << 32 for i in range(4))


class _Stream:
    """numpy's ``default_rng(seed)``: a PCG64 (XSL-RR 128/64) generator
    seeded through ``SeedSequence``, whose :meth:`integers` is
    ``Generator.integers(low, high, dtype=np.int64)`` for ``high - low``
    below 2^32 — numpy's 32-bit Lemire rejection on the bit generator's
    buffered 32-bit halves — draw for draw."""

    _MULT = 0x2360ED051FC65DA44385DF649FCCF645

    def __init__(self, seed: int) -> None:
        s_hi, s_lo, i_hi, i_lo = _seed_words(seed)
        self._inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        self._state = (self._inc + (s_hi << 64 | s_lo)) * self._MULT + self._inc & _M128
        self._half: int | None = None  # the unused high half of the last 64-bit draw

    def _next32(self) -> int:
        if self._half is not None:
            value, self._half = self._half, None
            return value
        self._state = self._state * self._MULT + self._inc & _M128
        state = self._state
        x, rot = (state >> 64 ^ state) & _M64, state >> 122
        value = (x >> rot | x << (64 - rot)) & _M64
        self._half = value >> 32
        return value & _M32

    def integers(self, low: int, high: int) -> int:
        """One draw from ``[low, high)``."""
        span = high - low  # Lemire's range: numpy's ``rng + 1``
        if not 0 < span <= _M32:
            raise SketchError(f"draw range [{low}, {high}) must hold 1 to 2^32 - 1 values")
        if span == 1:
            return low
        m = self._next32() * span
        if m & _M32 < span:
            threshold = (_M32 + 1 - span) % span
            while m & _M32 < threshold:
                m = self._next32() * span
        return low + (m >> 32)


def _random_prime(stream: _Stream) -> int:
    """A uniform-ish random prime in ``[2^30, 2^31)`` via rejection sampling."""
    for _ in range(100_000):
        candidate = stream.integers(1 << 30, (1 << 31) - 1) | 1
        if is_prime_u64(candidate):
            return candidate
    raise SketchError("failed to find a prime (rng exhausted)")  # pragma: no cover


@dataclass(frozen=True)
class HashFamily:
    """A family of ``T`` LCG hash functions with fixed random constants.

    Attributes are ``uint64`` arrays of length ``T``; every constant satisfies
    ``0 < a < p``, ``0 <= b < p`` and ``2^30 <= p < 2^31``.  ``m`` is derived:
    each trial's Barrett constant ``floor(2^64 / p)``, the row the compiled
    kernels reduce with (computed here once, not per kernel call).
    """

    a: np.ndarray
    b: np.ndarray
    p: np.ndarray
    m: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("a", "b", "p"):
            arr = getattr(self, name)
            object.__setattr__(self, name, np.ascontiguousarray(arr, dtype=np.uint64))
        if not (self.a.shape == self.b.shape == self.p.shape) or self.a.ndim != 1:
            raise SketchError("hash constant arrays must be 1-d and equal-shaped")
        if self.size == 0:
            raise SketchError("hash family must contain at least one function")
        if (self.a == 0).any() or (self.a >= self.p).any() or (self.b >= self.p).any():
            raise SketchError("hash constants must satisfy 0 < a < p, 0 <= b < p")
        m = [(1 << 64) // p_t for p_t in self.p.tolist()]
        object.__setattr__(self, "m", np.array(m, dtype=np.uint64))

    @property
    def size(self) -> int:
        """Number of trials T."""
        return int(self.a.size)

    @classmethod
    def generate(cls, trials: int, seed: int) -> "HashFamily":
        """Draw ``trials`` hash functions from a seeded generator (reproducible):
        ``trials`` primes, then every ``a``, then every ``b``."""
        if trials < 1:
            raise SketchError(f"trials must be >= 1, got {trials}")
        seed = operator.index(seed)
        if seed < 0:
            raise SketchError(f"seed must be >= 0, got {seed}")
        stream = _Stream(seed)
        p = [_random_prime(stream) for _ in range(trials)]
        a = [stream.integers(1, (1 << 31) - 1) % p_t or 1 for p_t in p]
        b = [stream.integers(0, (1 << 31) - 1) % p_t for p_t in p]
        return cls(a=np.array(a), b=np.array(b), p=np.array(p))

    def apply(self, t: int, x: np.ndarray) -> np.ndarray:
        """Apply hash ``t`` to packed k-mer values ``x`` (vectorised).

        ``x`` is reduced modulo ``p_t`` first so the multiply stays within
        uint64 for any packed k-mer up to k = 31.
        """
        if not 0 <= t < self.size:
            raise SketchError(f"trial index {t} out of range [0, {self.size})")
        x = np.asarray(x, dtype=np.uint64)
        return (self.a[t] * (x % self.p[t]) + self.b[t]) % self.p[t]

    def apply_all(self, x: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
        """Apply every hash function to ``x`` in one broadcasted pass.

        Returns a ``(T, n)`` ``uint64`` matrix whose row ``t`` equals
        ``apply(t, x)`` bit for bit: the same reduce-multiply-add-mod
        sequence runs over a 2-d broadcast, so one numpy dispatch per
        operation covers all T trials.  Every output value is ``< p_t
        < 2^31``, which downstream packed-key kernels rely on.

        The whole pipeline runs in place on one ``(T, n)`` buffer — pass
        ``out`` (typically a scratch view) to make the hot path entirely
        allocation-free; at batch sizes the four intermediate ``(T, n)``
        temporaries of the naive expression cost as much as the modulos.
        """
        x = np.asarray(x, dtype=np.uint64)
        shape = (self.size, x.size)
        if out is None:
            out = np.empty(shape, dtype=np.uint64)
        elif out.shape != shape or out.dtype != np.uint64:
            raise SketchError("apply_all out buffer must be (T, n) uint64")
        p = self.p[:, None]
        np.remainder(x[None, :], p, out=out)
        np.multiply(out, self.a[:, None], out=out)
        np.add(out, self.b[:, None], out=out)
        np.remainder(out, p, out=out)
        return out

    def apply_scalar(self, t: int, x: int) -> int:
        """Scalar version of :meth:`apply` (reference/tests)."""
        return int((int(self.a[t]) * (int(x) % int(self.p[t])) + int(self.b[t])) % int(self.p[t]))

    def trial_slice(self, start: int, stop: int) -> "HashFamily":
        """Functions ``[start, stop)`` as a new family.

        Used by the kernels to process trials in memory-bounded chunks and
        by the service's shed ladder to keep the first trials; trial
        ``start + t`` of this family is trial ``t`` of the slice, so chunked
        and unchunked runs are bit-identical.
        """
        if not 0 <= start < stop <= self.size:
            raise SketchError(f"bad trial slice [{start}, {stop}) of {self.size}")
        return HashFamily(a=self.a[start:stop], b=self.b[start:stop], p=self.p[start:stop])
