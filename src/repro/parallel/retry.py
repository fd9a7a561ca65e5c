"""Bounded retry with exponential backoff + deterministic jitter.

The recovery machinery retries failed work units a bounded number of
times.  Delays follow the usual ``base * backoff**attempt`` curve, capped
at ``max_delay``, with jitter drawn from a *seeded* generator so a given
``(policy, seed)`` pair always produces the same schedule — a requirement
for the fault-matrix tests, whose invariant is that recovery is
deterministic end to end.

Two execution styles share the schedule:

* :func:`retry_call` — really sleep between attempts (the scatter lanes of
  :mod:`repro.netserve.router`, where recovery cost is wall time);
* :meth:`RetryPolicy.delays` — just enumerate the delays (the worker-process
  backend, which waits on them between dispatch rounds).
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from typing import TypeVar

import numpy as np

from ..errors import FaultError, ReproError

__all__ = ["RetryPolicy", "retry_call"]

T = TypeVar("T")


class RetryPolicy:
    """How often and how patiently a failed work unit is re-attempted.

    Attributes
    ----------
    max_attempts:
        Total attempts per work unit (first try included); must be >= 1.
    base_delay:
        Delay before the first retry, in seconds.
    backoff:
        Multiplier applied to the delay after every failed attempt.
    max_delay:
        Upper bound on any single delay.
    jitter:
        Fraction of the delay added as seeded uniform noise in
        ``[0, jitter * delay)`` — decorrelates retry storms without
        sacrificing determinism.
    seed:
        Seed for the jitter stream.
    rng:
        Alternative to ``seed``: an explicit ``numpy`` Generator the
        policy draws its jitter seed from at construction time.  Two
        policies built from same-seed generators produce identical
        schedules; there is no module-level RNG anywhere in the retry
        path.  Mutually exclusive with a non-default ``seed``.
    """

    def __init__(
        self,
        max_attempts: int = 3,
        base_delay: float = 0.01,
        backoff: float = 2.0,
        max_delay: float = 1.0,
        jitter: float = 0.1,
        seed: int = 0,
        rng: np.random.Generator | None = None,
    ) -> None:
        if max_attempts < 1:
            raise ReproError(f"max_attempts must be >= 1, got {max_attempts}")
        if base_delay < 0 or max_delay < 0 or jitter < 0 or backoff < 1.0:
            raise ReproError("retry delays must be >= 0 and backoff >= 1")
        if rng is not None:
            if seed != 0:
                raise ReproError("pass either seed= or rng=, not both")
            # one draw fixes every stream: per-stream generators spawn from
            # (base seed, stream), so streams stay decorrelated
            seed = int(rng.integers(np.iinfo(np.int64).max))
        self.max_attempts = int(max_attempts)
        self.base_delay = float(base_delay)
        self.backoff = float(backoff)
        self.max_delay = float(max_delay)
        self.jitter = float(jitter)
        self.seed = int(seed)

    def delays(self, *, stream: int = 0) -> Iterator[float]:
        """The (deterministic) backoff delay before each retry.

        Yields ``max_attempts - 1`` values; ``stream`` decorrelates the
        jitter of independent work units under the same policy.
        """
        rng = np.random.default_rng((self.seed, stream))
        for attempt in range(self.max_attempts - 1):
            delay = min(self.base_delay * self.backoff**attempt, self.max_delay)
            if self.jitter > 0:
                delay += float(rng.uniform(0.0, self.jitter * delay))
            yield delay


def retry_call(
    fn: Callable[[int], T],
    *,
    policy: RetryPolicy,
    retryable: tuple[type[BaseException], ...] = (FaultError,),
    stream: int = 0,
    sleep: Callable[[float], None] = time.sleep,
) -> tuple[T, int, float]:
    """Call ``fn(attempt)`` under the retry policy; really sleeps on backoff.

    Returns ``(result, attempts_used, recovery_seconds)`` where recovery
    counts the time lost to failed attempts plus backoff sleeps.  When the
    budget is exhausted the last exception is re-raised wrapped in a
    :class:`FaultError` (``raise ... from``), so the root cause survives.
    """
    delays = policy.delays(stream=stream)
    recovery = 0.0
    last: BaseException | None = None
    for attempt in range(policy.max_attempts):
        t0 = time.perf_counter()
        try:
            return fn(attempt), attempt + 1, recovery
        except retryable as exc:  # noqa: PERF203 - retry loop by design
            recovery += time.perf_counter() - t0
            last = exc
            delay = next(delays, None)
            if delay is not None:
                sleep(delay)
                recovery += delay
    raise FaultError(
        f"work unit failed after {policy.max_attempts} attempts: {last!r}"
    ) from last
