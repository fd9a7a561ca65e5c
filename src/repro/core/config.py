"""Configuration for JEM-mapper.

Defaults are the paper's: k = 16, w = 100, ℓ = 1000, T = 30
(Section IV-A, "Software configuration").
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache

from ..errors import ConfigError
from ..sketch.hashing import HashFamily

__all__ = ["JEMConfig"]


@cache
def _hash_family(trials: int, seed: int) -> HashFamily:
    family = HashFamily.generate(trials, seed)
    for arr in (family.a, family.b, family.p):
        arr.flags.writeable = False
    return family


@dataclass(frozen=True)
class JEMConfig:
    """All tunables of the JEM-mapper pipeline.

    Attributes
    ----------
    k:
        k-mer size (paper: 16; must be <= 16 for packed minimizers).
    w:
        Minimizer window: one k-mer is selected out of ``w`` consecutive
        k-mers (paper: 100).
    ell:
        End-segment length ℓ, also the subject interval length (paper: 1000).
    trials:
        Number of MinHash trials T (paper: 30).
    seed:
        Seed for the hash-constant generator, in ``[0, 2**63)`` (an index
        stores it as ``int64``); fixing it makes every run of the mapper
        bit-reproducible.
    min_hits:
        Minimum number of trial collisions required to report a mapping
        (1 = report any best hit, the paper's behaviour).
    """

    k: int = 16
    w: int = 100
    ell: int = 1000
    trials: int = 30
    seed: int = 20230157  # IPDPSW 2023, paper page 157
    min_hits: int = 1

    def __post_init__(self) -> None:
        if not 1 <= self.k <= 16:
            raise ConfigError(f"k must be in [1, 16], got {self.k}")
        if self.w < 1:
            raise ConfigError(f"w must be >= 1, got {self.w}")
        if self.ell < self.k:
            raise ConfigError(f"ell ({self.ell}) must be >= k ({self.k})")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed < 1 << 63:
            raise ConfigError(f"seed must be in [0, 2**63), got {self.seed}")
        if self.min_hits < 1:
            raise ConfigError(f"min_hits must be >= 1, got {self.min_hits}")

    def hash_family(self) -> HashFamily:
        """The T-function hash family determined by (trials, seed).

        Drawn once per ``(trials, seed)`` in a process (the prime search
        costs milliseconds) and shared: its arrays are read-only.
        """
        return _hash_family(self.trials, self.seed)

    def with_trials(self, trials: int) -> "JEMConfig":
        """Copy with a different T (used by the Fig. 6 sweep)."""
        return replace(self, trials=trials)
