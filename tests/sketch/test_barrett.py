"""The kernels' one-reduction LCG hash at the edges of its bound.

``lcg_hash`` in ``repro/sketch/jem_kernels.c`` computes ``(a * x + b) mod p``
in one Barrett reduction, which is exact only while ``a * x + b`` fits 64
bits: ``a, b < p < 2^31`` and ``x < 2^32``.  This builds the shipped source
with a one-line exported wrapper and holds it to
:meth:`~repro.sketch.hashing.HashFamily.apply_scalar` where the product is
largest: ``x`` at 0 and 2^32 - 1, ``a = b = p - 1``, and the smallest and
largest ``p`` a family can draw.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import subprocess

import numpy as np
import pytest

from repro import _native_build
from repro.sketch.hashing import HashFamily, is_prime_u64

_WRAPPER = r"""
#include "kernels.c"

uint64_t jem_test_lcg_hash(uint64_t x, uint64_t a, uint64_t b, uint64_t p) {
    return lcg_hash(x, a, b, p, (uint64_t)((((u128)1) << 64) / p));
}
"""

#: the family draws p from the primes of [2^30, 2^31): these are the ends
SMALLEST_P = next(q for q in range(1 << 30, 1 << 31) if is_prime_u64(q))
LARGEST_P = next(q for q in range((1 << 31) - 1, 1 << 30, -1) if is_prime_u64(q))
TOP = (1 << 32) - 1


@pytest.fixture(scope="module")
def lcg_hash(tmp_path_factory):
    cc = os.environ.get("CC", "cc")
    if shutil.which(cc) is None:
        pytest.skip("no C compiler available")
    work = tmp_path_factory.mktemp("barrett")
    shutil.copyfile(_native_build.SOURCE_PATH, work / "kernels.c")
    (work / "wrapper.c").write_text(_WRAPPER)
    lib = work / "wrapper.so"
    subprocess.run(
        [cc, "-O3", "-shared", "-fPIC", "-o", str(lib), str(work / "wrapper.c")], check=True
    )
    fn = ctypes.CDLL(str(lib)).jem_test_lcg_hash
    fn.argtypes = [ctypes.c_uint64] * 4
    fn.restype = ctypes.c_uint64
    return fn


def test_the_ends_are_the_familys():
    assert SMALLEST_P == 1073741827 and LARGEST_P == (1 << 31) - 1
    family = HashFamily.generate(200, seed=7)
    assert ((family.p >= SMALLEST_P) & (family.p <= LARGEST_P)).all()


@pytest.mark.parametrize("p", [SMALLEST_P, LARGEST_P], ids=["smallest-p", "largest-p"])
def test_one_reduction_is_exact_at_the_bound(lcg_hash, p):
    family = HashFamily(a=np.array([p - 1, 1]), b=np.array([p - 1, 0]), p=np.array([p, p]))
    xs = [0, 1, p - 1, p, p + 1, 2 * p - 1, TOP - 1, TOP]
    for t in range(family.size):
        a, b = int(family.a[t]), int(family.b[t])
        assert (a * TOP + b) < 1 << 64  # the bound lcg_hash states
        for x in xs:
            assert lcg_hash(x, a, b, p) == family.apply_scalar(t, x), (a, b, p, x)


def test_one_reduction_matches_on_random_draws(lcg_hash):
    family = HashFamily.generate(30, seed=3)
    xs = np.random.default_rng(3).integers(0, 1 << 32, size=200, dtype=np.uint64).tolist()
    for t in range(family.size):
        a, b, p = int(family.a[t]), int(family.b[t]), int(family.p[t])
        assert [lcg_hash(x, a, b, p) for x in xs] == [family.apply_scalar(t, x) for x in xs]
