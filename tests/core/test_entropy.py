"""Tests for repro.core.entropy: Formula (1) and k-gram counting."""

import math

import numpy as np
import pytest

from repro.core.entropy import (
    PACKED_MAX_K,
    _as_byte_array,
    byte_entropy,
    entropy_from_counts,
    kgram_count_values,
    kgram_counts,
    kgram_entropy,
    max_normalized_entropy,
    packed_kgram_keys,
)


class TestKgramCounts:
    def test_single_byte_counts(self):
        grams, counts = kgram_counts(b"aabac", 1)
        assert grams == [b"a", b"b", b"c"]
        assert counts.tolist() == [3, 1, 1]

    def test_two_byte_counts_overlapping(self):
        # <a,b,c,d> -> ab, bc, cd (paper's Section 3.1 example).
        grams, counts = kgram_counts(b"abcd", 2)
        assert grams == [b"ab", b"bc", b"cd"]
        assert counts.tolist() == [1, 1, 1]

    def test_repeated_kgram_counted(self):
        grams, counts = kgram_counts(b"ababab", 2)
        assert dict(zip(grams, counts.tolist())) == {b"ab": 3, b"ba": 2}

    def test_total_count_is_window_count(self):
        data = bytes(range(256)) * 3
        for k in (1, 2, 3, 5, 9):
            counts = kgram_count_values(data, k)
            assert counts.sum() == len(data) - k + 1

    def test_count_values_match_counts(self):
        data = b"the quick brown fox jumps over the lazy dog" * 4
        for k in (1, 2, 4, 10):
            _, full = kgram_counts(data, k)
            values = kgram_count_values(data, k)
            assert sorted(full.tolist()) == sorted(values.tolist())

    def test_too_short_raises(self):
        with pytest.raises(ValueError, match="at least k=4"):
            kgram_counts(b"abc", 4)

    def test_invalid_k_raises(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            kgram_count_values(b"abc", 0)

    def test_numpy_input_accepted(self):
        arr = np.frombuffer(b"hello world", dtype=np.uint8)
        grams, counts = kgram_counts(arr, 2)
        assert b"lo" in grams
        assert counts.sum() == len(arr) - 1

    def test_numpy_wrong_dtype_rejected(self):
        with pytest.raises(TypeError, match="uint8"):
            kgram_count_values(np.zeros(8, dtype=np.int32), 1)


class TestAsByteArray:
    def test_contiguous_memoryview_is_zero_copy(self):
        # Regression: memoryviews used to be round-tripped through
        # ``bytes(data)``, copying the flow buffer on every extraction.
        backing = bytearray(b"\x00" * 32)
        arr = _as_byte_array(memoryview(backing))
        backing[0] = 0xFF
        assert arr[0] == 0xFF  # same memory, no copy

    def test_non_contiguous_memoryview_copied_correctly(self):
        backing = bytes(range(64))
        strided = memoryview(backing)[::2]
        arr = _as_byte_array(strided)
        np.testing.assert_array_equal(
            arr, np.frombuffer(bytes(strided), dtype=np.uint8)
        )

    def test_entropy_same_through_memoryview(self):
        data = b"the quick brown fox" * 5
        assert kgram_entropy(memoryview(data), 3) == kgram_entropy(data, 3)


class TestPackedKgramCounts:
    def test_packed_keys_known_value(self):
        # Big-endian polynomial packing: "ab" -> 0x6162.
        keys = packed_kgram_keys(np.frombuffer(b"abc", dtype=np.uint8), 2)
        assert keys.tolist() == [0x6162, 0x6263]

    def test_packed_keys_preserve_lexicographic_order(self, rng):
        data = rng.integers(0, 256, 200, dtype=np.int64).astype(np.uint8)
        keys = packed_kgram_keys(data, 5)
        grams = [bytes(data[i : i + 5]) for i in range(data.size - 4)]
        order_by_key = np.argsort(keys, kind="stable")
        order_by_gram = sorted(range(len(grams)), key=lambda i: grams[i])
        assert [grams[i] for i in order_by_key] == [
            grams[i] for i in order_by_gram
        ]

    def test_invalid_k_rejected(self):
        arr = np.frombuffer(b"abcdefghij", dtype=np.uint8)
        for k in (0, PACKED_MAX_K + 1):
            with pytest.raises(ValueError, match="k must be in"):
                packed_kgram_keys(arr, k)


class TestKgramEntropy:
    def test_constant_sequence_has_zero_entropy(self):
        for k in (1, 2, 3):
            assert kgram_entropy(b"\x42" * 100, k) == 0.0

    def test_uniform_bytes_have_max_h1(self):
        # All 256 values equally often: h1 is exactly 1.
        data = bytes(range(256)) * 4
        assert kgram_entropy(data, 1) == pytest.approx(1.0)

    def test_all_distinct_kgrams_hit_upper_bound(self):
        data = bytes(range(200))  # all 2-grams distinct
        expected = math.log(199) / (16 * math.log(2))
        assert kgram_entropy(data, 2) == pytest.approx(expected)
        assert kgram_entropy(data, 2) == pytest.approx(
            max_normalized_entropy(200, 2)
        )

    def test_matches_direct_formula(self):
        data = b"abracadabra" * 10
        for k in (1, 2, 3):
            grams, counts = kgram_counts(data, k)
            n = counts.sum()
            probs = counts / n
            direct = -(probs * np.log(probs)).sum() / (8 * k * math.log(2))
            assert kgram_entropy(data, k) == pytest.approx(direct)

    def test_within_unit_interval(self, rng):
        data = rng.integers(0, 256, 500, dtype=np.int64).astype(np.uint8).tobytes()
        for k in range(1, 11):
            assert 0.0 <= kgram_entropy(data, k) <= 1.0

    def test_byte_entropy_alias(self):
        data = b"some text with letters"
        assert byte_entropy(data) == kgram_entropy(data, 1)

    def test_text_below_random_below_one(self, rng, sample_files):
        random_h1 = kgram_entropy(sample_files["encrypted"], 1)
        text_h1 = kgram_entropy(sample_files["text"], 1)
        assert text_h1 < random_h1 <= 1.0


class TestEntropyFromCounts:
    def test_equivalent_to_kgram_entropy(self):
        data = b"hello entropy world" * 7
        counts = kgram_count_values(data, 3)
        assert entropy_from_counts(counts, 3) == kgram_entropy(data, 3)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one positive"):
            entropy_from_counts([], 1)

    def test_ignores_zero_counts(self):
        assert entropy_from_counts([5, 0, 5], 1) == entropy_from_counts([5, 5], 1)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            entropy_from_counts([1, 2], 0)


class TestMaxNormalizedEntropy:
    def test_single_window_is_zero(self):
        assert max_normalized_entropy(5, 5) == 0.0

    def test_caps_at_one(self):
        assert max_normalized_entropy(10**9, 1) == 1.0

    def test_monotone_in_buffer_size(self):
        values = [max_normalized_entropy(m, 3) for m in (8, 32, 128, 1024)]
        assert values == sorted(values)

    def test_m_smaller_than_k_raises(self):
        with pytest.raises(ValueError, match="need m >= k"):
            max_normalized_entropy(2, 3)
