"""Linear-congruential hash family for the MinHash trials.

The paper draws ``T`` hash functions of the form

    h_t(x) = (A_t * x + B_t) mod P_t

with per-trial random constants generated a priori (Section III-B,
implementation notes).  ``P_t`` are random primes below 2^31, found with a
deterministic Miller–Rabin test, so that ``A_t * (x mod P_t)`` never
overflows ``uint64``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SketchError

__all__ = ["HashFamily", "is_prime_u64", "random_prime_below_2_31"]

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


def random_prime_below_2_31(rng: np.random.Generator, *, low: int = 1 << 30) -> int:
    """A uniform-ish random prime in ``[low, 2^31)`` via rejection sampling."""
    high = (1 << 31) - 1
    for _ in range(100_000):
        candidate = int(rng.integers(low, high, dtype=np.int64)) | 1
        if is_prime_u64(candidate):
            return candidate
    raise SketchError("failed to find a prime (rng exhausted)")  # pragma: no cover


@dataclass(frozen=True)
class HashFamily:
    """A family of ``T`` LCG hash functions with fixed random constants.

    Attributes are ``uint64`` arrays of length ``T``; every constant satisfies
    ``0 < a < p``, ``0 <= b < p`` and ``2^30 <= p < 2^31``.
    """

    a: np.ndarray
    b: np.ndarray
    p: np.ndarray

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

    @property
    def size(self) -> int:
        """Number of trials T."""
        return int(self.a.size)

    @classmethod
    def generate(cls, trials: int, seed: int) -> "HashFamily":
        """Draw ``trials`` hash functions from a seeded generator (reproducible)."""
        if trials < 1:
            raise SketchError(f"trials must be >= 1, got {trials}")
        rng = np.random.default_rng(seed)
        p = np.array([random_prime_below_2_31(rng) for _ in range(trials)], dtype=np.uint64)
        a = (rng.integers(1, (1 << 31) - 1, size=trials, dtype=np.int64).astype(np.uint64)) % p
        a = np.where(a == 0, np.uint64(1), a)
        b = rng.integers(0, (1 << 31) - 1, size=trials, dtype=np.int64).astype(np.uint64) % p
        return cls(a=a, b=b, p=p)

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
