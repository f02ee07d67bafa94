"""Tests for signatures and simulation results."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import (
    SimulationResult,
    canonical_signature,
    signature_to_bits,
    signature_to_string,
)


class TestSignatureHelpers:
    def test_bits_roundtrip(self):
        assert signature_to_bits(0b1011, 4) == [1, 1, 0, 1]
        assert signature_to_string(0b1011, 4) == "1101"

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**20 - 1))
    def test_roundtrip_property(self, signature):
        bits = signature_to_bits(signature, 20)
        assert sum(bit << position for position, bit in enumerate(bits)) == signature

    def test_canonical_signature(self):
        # Signature with bit 0 set gets complemented.
        canonical, inverted = canonical_signature(0b1011, 4)
        assert inverted is True
        assert canonical == 0b0100
        canonical, inverted = canonical_signature(0b0100, 4)
        assert inverted is False
        assert canonical == 0b0100

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**16 - 1))
    def test_canonical_signature_identifies_complements(self, signature):
        mask = (1 << 16) - 1
        a, _ = canonical_signature(signature, 16)
        b, _ = canonical_signature(signature ^ mask, 16)
        assert a == b


class TestSimulationResult:
    def _result(self):
        return SimulationResult(4, [0b0000, 0b1010, 0b0101, 0b1111, 0b0000])

    def test_accessors(self):
        result = self._result()
        assert result.signature(1) == 0b1010
        assert result.value(1, 1) is True
        assert result.value(1, 0) is False
        assert result.bits(2) == [1, 0, 1, 0]
        assert result.bit_string(2) == "1010"
        assert len(result) == 5
        assert result.mask == 0b1111

    def test_constant_detection(self):
        result = self._result()
        assert result.is_constant(3) is True
        assert result.is_constant(4) is False
        assert result.is_constant(1) is None

    def test_canonical_identifies_complements(self):
        result = self._result()
        # 0b1010 and 0b0101 are complements: one canonical signature.
        assert result.canonical(1) == (0b1010, False)
        assert result.canonical(2) == (0b1010, True)
