import numpy as np
import pytest

from repro.core import JEMConfig
from repro.errors import ConfigError


def test_defaults_match_paper():
    cfg = JEMConfig()
    assert cfg.k == 16
    assert cfg.w == 100
    assert cfg.ell == 1000
    assert cfg.trials == 30


def test_hash_family_size_and_determinism():
    cfg = JEMConfig(trials=7, seed=42)
    f1, f2 = cfg.hash_family(), cfg.hash_family()
    assert f1.size == 7
    assert (f1.a == f2.a).all()


def test_hash_family_is_drawn_once_per_trials_and_seed():
    from repro.sketch.hashing import HashFamily

    family = JEMConfig(trials=9, seed=5).hash_family()
    # an equal config elsewhere gets the same object: the primes are not redrawn
    assert JEMConfig(trials=9, seed=5, k=12).hash_family() is family
    assert JEMConfig(trials=9, seed=6).hash_family() is not family
    fresh = HashFamily.generate(9, 5)
    for name in "abp":
        arr = getattr(family, name)
        assert not arr.flags.writeable
        assert arr.dtype == getattr(fresh, name).dtype
        assert np.array_equal(arr, getattr(fresh, name))
        with pytest.raises(ValueError):
            arr[0] = 1


def test_with_trials():
    cfg = JEMConfig(trials=30)
    cfg10 = cfg.with_trials(10)
    assert cfg10.trials == 10
    assert cfg10.k == cfg.k and cfg10.seed == cfg.seed


@pytest.mark.parametrize(
    "kwargs",
    [
        {"k": 0},
        {"k": 17},
        {"w": 0},
        {"ell": 4, "k": 16},
        {"trials": 0},
        {"seed": -1},
        {"seed": 1 << 63},
        {"min_hits": 0},
    ],
)
def test_invalid_configs(kwargs):
    with pytest.raises(ConfigError):
        JEMConfig(**kwargs)


def test_frozen():
    cfg = JEMConfig()
    with pytest.raises(Exception):
        cfg.k = 5  # type: ignore[misc]
