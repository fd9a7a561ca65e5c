import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import JEMConfig
from repro.errors import SketchError
from repro.sketch import HashFamily, is_prime_u64
from repro.sketch.hashing import _Stream


def numpy_family(trials: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The oracle: ``HashFamily.generate`` as drawn through ``numpy.random``
    (p, then a, then b), which the package itself never imports."""
    rng = np.random.default_rng(seed)
    p = []
    while len(p) < trials:
        candidate = int(rng.integers(1 << 30, (1 << 31) - 1, dtype=np.int64)) | 1
        if is_prime_u64(candidate):
            p.append(candidate)
    p = np.array(p, dtype=np.uint64)
    a = rng.integers(1, (1 << 31) - 1, size=trials, dtype=np.int64).astype(np.uint64) % p
    b = rng.integers(0, (1 << 31) - 1, size=trials, dtype=np.int64).astype(np.uint64) % p
    return np.where(a == 0, np.uint64(1), a), b, p


#: ``JEMConfig().hash_family()`` (T = 30, seed 20230157), written out: an
#: anchor that shares no code with numpy and fails if either side drifts.
DEFAULT_A = [
    1218036637, 1671703269, 1723375284, 346335458, 12686991, 534107783, 790952559,
    685698398, 549091765, 790461850, 638710510, 938085924, 594742285, 897836245,
    1056958153, 295462799, 1083872030, 716929646, 950436047, 175689036, 588467619,
    55527689, 1577669911, 1690193339, 708571841, 746449394, 336531626, 470066022,
    619719595, 1403315668,
]
DEFAULT_B = [
    481173578, 130071857, 236244117, 544234606, 118436031, 849945020, 1669157058,
    910705959, 982229711, 58381524, 774234421, 257225544, 67830894, 524352740,
    201220184, 346148479, 1175393456, 1427365031, 233628404, 894001457, 1193131746,
    765116686, 1529396645, 1146754947, 1013482180, 950790410, 147687361, 213750416,
    873865742, 1008285131,
]
DEFAULT_P = [
    2055210679, 1745797673, 2002877749, 1536970717, 1352160983, 1100529379, 1951610449,
    2004161381, 2077444793, 1362734927, 1321624877, 2072337461, 1913059987, 1923489317,
    1928400931, 1486771241, 1631547277, 2069146069, 1162871683, 1341521123, 1426010693,
    1759876553, 1775820107, 1942659713, 1205879039, 1244497637, 1262243069, 1330775587,
    1203201173, 1737902267,
]


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 97, 2147483647]
    composites = [0, 1, 4, 9, 100, 2147483645]
    assert all(is_prime_u64(p) for p in primes)
    assert not any(is_prime_u64(c) for c in composites)


def test_is_prime_carmichael():
    # Carmichael numbers fool Fermat but not Miller-Rabin.
    for n in (561, 1105, 1729, 2465, 2821, 6601):
        assert not is_prime_u64(n)


def test_the_default_family_is_pinned():
    family = JEMConfig().hash_family()
    assert (family.size, JEMConfig().seed) == (30, 20230157)
    assert family.a.tolist() == DEFAULT_A
    assert family.b.tolist() == DEFAULT_B
    assert family.p.tolist() == DEFAULT_P


@pytest.mark.parametrize(
    "seeds",
    [range(201), [20230157, (1 << 63) - 1, (1 << 64) + 3, (1 << 130) + 7]],
    ids=["0-200", "large"],
)
def test_generate_draws_what_numpy_random_draws(seeds):
    """Seeds 0..200 cycle through T = 1..64; the large ones go past the
    64 bits a config holds, and through every 32-bit word of the pool."""
    for seed in seeds:
        trials = seed % 64 + 1
        family = HashFamily.generate(trials, seed)
        a, b, p = numpy_family(trials, seed)
        assert family.p.tolist() == p.tolist(), seed
        assert family.a.tolist() == a.tolist(), seed
        assert family.b.tolist() == b.tolist(), seed


@pytest.mark.parametrize("low,high", [(0, 1), (5, 6), (0, 7), (1, (1 << 31) - 1), (0, 3_000_000_000)])
def test_the_stream_matches_numpy_draw_for_draw(low, high):
    """Scalar and sized draws interleaved: the buffered 32-bit half left by
    one call is what the next call takes first, in both generators."""
    for seed in (0, 1, 2, 99, 20230157, (1 << 64) + 5):
        rng, stream = np.random.default_rng(seed), _Stream(seed)
        for size in (None, 1, 3, None, 30, None):
            want = rng.integers(low, high, size=size, dtype=np.int64)
            got = [stream.integers(low, high) for _ in range(size or 1)]
            assert np.atleast_1d(want).tolist() == got, (seed, size)


def test_generate_rejects_a_negative_seed():
    with pytest.raises(SketchError, match="seed"):
        HashFamily.generate(3, -1)


def test_generate_deterministic():
    f1 = HashFamily.generate(10, seed=7)
    f2 = HashFamily.generate(10, seed=7)
    assert np.array_equal(f1.a, f2.a)
    assert np.array_equal(f1.b, f2.b)
    assert np.array_equal(f1.p, f2.p)


def test_generate_seed_sensitivity():
    f1 = HashFamily.generate(10, seed=7)
    f2 = HashFamily.generate(10, seed=8)
    assert not np.array_equal(f1.p, f2.p)


def test_generated_constants_valid():
    f = HashFamily.generate(30, seed=0)
    assert f.size == 30
    assert all(is_prime_u64(int(p)) for p in f.p)
    assert (f.a > 0).all() and (f.a < f.p).all()
    assert (f.b < f.p).all()
    assert (f.p >= (1 << 30)).all() and (f.p < (1 << 31)).all()


def test_apply_matches_scalar():
    f = HashFamily.generate(5, seed=3)
    xs = np.array([0, 1, 12345, (1 << 32) - 1, (1 << 62)], dtype=np.uint64)
    for t in range(f.size):
        vec = f.apply(t, xs)
        for x, h in zip(xs, vec):
            assert int(h) == f.apply_scalar(t, int(x))


def test_apply_range():
    f = HashFamily.generate(3, seed=1)
    xs = np.arange(1000, dtype=np.uint64)
    for t in range(3):
        h = f.apply(t, xs)
        assert (h < f.p[t]).all()


def test_apply_bad_trial():
    f = HashFamily.generate(2, seed=1)
    with pytest.raises(SketchError):
        f.apply(2, np.array([1], dtype=np.uint64))


def test_truncated_prefix_property():
    f = HashFamily.generate(10, seed=5)
    g = f.trial_slice(0, 4)
    assert g.size == 4
    assert np.array_equal(g.a, f.a[:4])
    with pytest.raises(SketchError):
        f.trial_slice(0, 11)


def test_invalid_constants_rejected():
    with pytest.raises(SketchError):
        HashFamily(
            a=np.array([0], dtype=np.uint64),
            b=np.array([0], dtype=np.uint64),
            p=np.array([101], dtype=np.uint64),
        )


@given(st.integers(min_value=0, max_value=(1 << 62)))
def test_hash_is_deterministic_function(x):
    f = HashFamily.generate(2, seed=9)
    a = f.apply(0, np.array([x], dtype=np.uint64))[0]
    b = f.apply(0, np.array([x], dtype=np.uint64))[0]
    assert a == b
