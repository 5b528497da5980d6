"""Bitset helpers for iteration-group tags.

A *tag* in the paper is a bit vector d0 d1 ... d(n-1) recording which data
blocks an iteration group touches.  We represent tags as plain Python
integers: bit ``j`` set means block ``j`` is accessed.  Python integers are
arbitrary precision, so the number of data blocks is unbounded, and the tag
operations the algorithms need (dot product, bitwise sum, Hamming distance)
are single machine operations.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator


def from_indices(indices: Iterable[int]) -> int:
    """Build a bitset with the given bit positions set.

    >>> bin(from_indices([0, 3]))
    '0b1001'
    """
    acc = 0
    for index in indices:
        if index < 0:
            raise ValueError(f"bit index must be non-negative, got {index}")
        acc |= 1 << index
    return acc


def bits_of(bitset: int) -> Iterator[int]:
    """Yield the set bit positions of ``bitset`` in increasing order."""
    if bitset < 0:
        raise ValueError("bitsets are non-negative integers")
    if bitset.bit_count() <= 8:
        # Sparse: peel off the lowest set bit, one pass over the words each.
        while bitset:
            low = bitset & -bitset
            yield low.bit_length() - 1
            bitset ^= low
        return
    # Dense: one C-level render, then a find per set bit.  Both paths are
    # linear in the width, where shifting bit by bit would be quadratic.
    digits = bin(bitset)[:1:-1]
    position = digits.find("1")
    while position >= 0:
        yield position
        position = digits.find("1", position + 1)


def bit_count(bitset: int) -> int:
    """Number of set bits (popcount)."""
    if bitset < 0:
        raise ValueError("bitsets are non-negative integers")
    return bitset.bit_count()


def dot_product(a: int, b: int) -> int:
    """Tag dot product: the number of data blocks shared by two tags.

    The paper uses this as the qualitative measure of affinity between
    iteration groups / clusters (Figure 6).
    """
    return bit_count(a & b)


def hamming_distance(a: int, b: int) -> int:
    """Number of bit positions at which two tags differ."""
    return bit_count(a ^ b)


def to_bitstring(bitset: int, width: int) -> str:
    """Render a tag the way the paper writes it: d0 first.

    >>> to_bitstring(from_indices([0, 1]), 4)
    '1100'
    """
    if width < bitset.bit_length():
        raise ValueError(f"width {width} too small for bitset with {bitset.bit_length()} bits")
    return "".join("1" if bitset >> j & 1 else "0" for j in range(width))
