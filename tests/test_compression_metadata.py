"""Tests for the metadata-bit accounting the cost models share."""

import pytest

from repro.compression.metadata import offset_bits
from repro.errors import CompressionError


class TestOffsetBits:
    def test_power_of_two(self):
        assert offset_bits(4) == 2
        assert offset_bits(16) == 4

    def test_non_power_of_two_rounds_up(self):
        assert offset_bits(3) == 2
        assert offset_bits(5) == 3

    def test_minimum_one_bit(self):
        assert offset_bits(1) == 1
        assert offset_bits(2) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(CompressionError):
            offset_bits(0)
