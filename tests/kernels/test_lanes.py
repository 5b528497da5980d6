"""Unit tests for tag lane packing and the bulk affinity primitives."""

import random

import pytest

np = pytest.importorskip("numpy", exc_type=ImportError)

from repro.errors import KernelError
from repro.blocks.tags import dot, hamming, ones
from repro.kernels.affinity import (
    dot_many,
    dot_matrix,
    dot_select,
    hamming_many,
    hamming_matrix,
)
from repro.kernels.lanes import (
    LANE_BITS,
    lanes_for_bits,
    pack_tag,
    pack_tags,
    popcount,
    unpack_tag,
)


def random_tags(rng, count, num_bits):
    return [rng.getrandbits(num_bits) for _ in range(count)]


class TestLanesForBits:
    def test_zero_width_still_one_lane(self):
        assert lanes_for_bits(0) == 1

    def test_exact_lane_boundaries(self):
        assert lanes_for_bits(1) == 1
        assert lanes_for_bits(LANE_BITS) == 1
        assert lanes_for_bits(LANE_BITS + 1) == 2
        assert lanes_for_bits(3 * LANE_BITS) == 3

    def test_negative_width_rejected(self):
        with pytest.raises(KernelError):
            lanes_for_bits(-1)


class TestPacking:
    def test_roundtrip_random_widths(self):
        rng = random.Random(7)
        for num_bits in (1, 63, 64, 65, 128, 200, 1000):
            lanes = lanes_for_bits(num_bits)
            tags = random_tags(rng, 20, num_bits)
            packed = pack_tags(tags, lanes)
            assert packed.shape == (20, lanes)
            assert packed.dtype == np.uint64
            for tag, row in zip(tags, packed):
                assert unpack_tag(row) == tag

    def test_lane_zero_holds_low_bits(self):
        row = pack_tag((1 << 64) | 0b101, 2)
        assert int(row[0]) == 0b101
        assert int(row[1]) == 1

    def test_negative_tag_rejected(self):
        with pytest.raises(KernelError):
            pack_tag(-1, 1)

    def test_oversized_tag_rejected(self):
        with pytest.raises(KernelError):
            pack_tag(1 << 64, 1)

    def test_nonpositive_lane_count_rejected(self):
        with pytest.raises(KernelError):
            pack_tags([1], 0)


class TestPopcount:
    def test_matches_int_bit_count(self):
        rng = random.Random(11)
        values = [rng.getrandbits(64) for _ in range(256)]
        arr = np.array(values, dtype=np.uint64)
        expected = [v.bit_count() for v in values]
        assert popcount(arr).tolist() == expected

    def test_extremes(self):
        arr = np.array([0, 2**64 - 1, 1, 1 << 63], dtype=np.uint64)
        assert popcount(arr).tolist() == [0, 64, 1, 1]

    def test_keeps_shape(self):
        arr = np.arange(12, dtype=np.uint64).reshape(3, 4)
        assert popcount(arr).shape == (3, 4)


class TestAffinityKernels:
    def setup_method(self):
        rng = random.Random(3)
        self.tags = random_tags(rng, 12, 150)
        self.packed = pack_tags(self.tags, lanes_for_bits(150))

    def test_dot_matrix_matches_scalar(self):
        mat = dot_matrix(self.packed)
        for i, a in enumerate(self.tags):
            for j, b in enumerate(self.tags):
                assert mat[i, j] == dot(a, b)
        diag = [ones(t) for t in self.tags]
        assert np.diag(mat).tolist() == diag

    def test_hamming_matrix_matches_scalar(self):
        mat = hamming_matrix(self.packed)
        for i, a in enumerate(self.tags):
            for j, b in enumerate(self.tags):
                assert mat[i, j] == hamming(a, b)

    def test_dot_many_matches_scalar(self):
        row = self.packed[5]
        assert dot_many(row, self.packed).tolist() == [
            dot(self.tags[5], t) for t in self.tags
        ]

    def test_hamming_many_matches_scalar(self):
        row = self.packed[0]
        assert hamming_many(row, self.packed).tolist() == [
            hamming(self.tags[0], t) for t in self.tags
        ]

    def test_dot_select_skips_dead_rows(self):
        rows = list(self.packed)
        rows[2] = None
        rows[4] = None
        indices = [0, 1, 3, 5]
        got = dot_select(self.packed[7], rows, indices)
        assert got == [dot(self.tags[7], self.tags[i]) for i in indices]

    def test_dot_select_empty(self):
        assert dot_select(self.packed[0], list(self.packed), []) == []
