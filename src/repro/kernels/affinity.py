"""Bulk tag dot products and Hamming distances over packed tags.

These are the vector forms of :func:`repro.blocks.tags.dot` and
:func:`repro.blocks.tags.hamming`: popcounts of AND/XOR over the
``uint64`` lane matrices produced by :mod:`repro.kernels.lanes`.  All
results are exact integers, so the scalar and vectorized paths agree
bit for bit.

This module imports NumPy at module level; import it only after
:func:`repro.kernels.resolve_backend` picked the numpy backend.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.kernels.lanes import popcount


#: Above this many tags, pairwise products go through the bit-matrix
#: matmul instead of the (G, G, L) popcount broadcast, which turns
#: memory-bound at scale.
_MATMUL_MIN_TAGS = 64


def _bit_matrix(packed: "np.ndarray") -> "np.ndarray":
    """Tags as a 0/1 ``float32`` matrix, one column per (permuted) bit.

    Dot products are invariant under any fixed bit permutation, so the
    byte-order of the expansion does not matter.  Float32 is exact here:
    every partial sum is an integer bounded by the lane budget's 16384
    bits, far below 2^24.
    """
    bits = np.unpackbits(np.ascontiguousarray(packed, dtype="<u8").view(np.uint8), axis=1)
    return bits.astype(np.float32)


def dot_matrix(packed: "np.ndarray") -> "np.ndarray":
    """Pairwise tag dot products: ``(G, G)`` ``int64`` from ``(G, L)``.

    ``result[i, j]`` is the number of data blocks shared by tags i and j
    — the clustering affinity measure of Figure 6.
    """
    if packed.shape[0] >= _MATMUL_MIN_TAGS:
        bits = _bit_matrix(packed)
        return (bits @ bits.T).astype(np.int64)
    return popcount(packed[:, None, :] & packed[None, :, :]).sum(axis=-1)


def dot_many(row: "np.ndarray", packed: "np.ndarray") -> "np.ndarray":
    """Dot product of one packed tag against each row of ``packed``."""
    return popcount(packed & row[None, :]).sum(axis=-1)


def dot_select(
    row: "np.ndarray", rows: Sequence["np.ndarray | None"], indices: Sequence[int]
) -> list[int]:
    """Dot products of one packed tag against ``rows[idx]`` for each index.

    ``rows`` may contain ``None`` entries (dead clusters); only the
    selected indices are touched.
    """
    if not indices:
        return []
    return dot_many(row, np.stack([rows[idx] for idx in indices])).tolist()


def hamming_matrix(packed: "np.ndarray") -> "np.ndarray":
    """Pairwise Hamming distances: ``(G, G)`` ``int64`` from ``(G, L)``."""
    if packed.shape[0] >= _MATMUL_MIN_TAGS:
        # hamming(a, b) = ones(a) + ones(b) - 2 * dot(a, b), all exact ints.
        counts = popcount(packed).sum(axis=1)
        return counts[:, None] + counts[None, :] - 2 * dot_matrix(packed)
    return popcount(packed[:, None, :] ^ packed[None, :, :]).sum(axis=-1)


def hamming_many(row: "np.ndarray", packed: "np.ndarray") -> "np.ndarray":
    """Hamming distance of one packed tag against each row of ``packed``."""
    return popcount(packed ^ row[None, :]).sum(axis=-1)
