"""Exact O(n) sliding-window minimum (van Herk–Gil–Werman block algorithm).

Computes the minimum of every length-``w`` window of a 1-d array using two
block scans (a per-block prefix min and a per-block suffix min) — no Python
loop over windows, dtype-preserving (works on ``uint64`` keys, which
``scipy.ndimage`` would silently cast to float and corrupt above 2^53).
"""

from __future__ import annotations

import numpy as np

from ..errors import SketchError

__all__ = ["sliding_window_min"]


def sliding_window_min(values: np.ndarray, w: int) -> np.ndarray:
    """Minimum of every window ``values[i : i + w]``.

    Returns an array of length ``len(values) - w + 1``.  Raises when the
    input is shorter than the window.
    """
    values = np.asarray(values)
    n = values.size
    if w < 1:
        raise SketchError(f"window size must be >= 1, got {w}")
    if n < w:
        raise SketchError(f"input of length {n} shorter than window {w}")
    if w == 1:
        return values.copy()

    if np.issubdtype(values.dtype, np.integer):
        sentinel = np.iinfo(values.dtype).max
    else:
        sentinel = np.inf

    m = n - w + 1
    nblocks = -(-n // w)
    padded = np.full(nblocks * w, sentinel, dtype=values.dtype)
    padded[:n] = values
    blocks = padded.reshape(nblocks, w)

    # prefix[i] = min(block_start .. i), suffix[i] = min(i .. block_end)
    prefix = np.minimum.accumulate(blocks, axis=1).reshape(-1)
    suffix = np.minimum.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].reshape(-1)

    # window [i, i+w-1]: suffix[i] covers i..end-of-i's-block, prefix[i+w-1]
    # covers start-of-that-block..i+w-1; the two spans tile the window.
    return np.minimum(suffix[:m], prefix[w - 1 : w - 1 + m])
