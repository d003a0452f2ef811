"""Fast-path == reference-path equivalence (exact, no statistical tolerance).

Every table-driven / vectorized baseband fast path must be byte-identical
to the retained bit-serial implementation in ``tests/properties/reference.py``
(`np.array_equal`, integer equality for registers and counters).  The
end-to-end encoder is additionally pinned against pre-refactor oracle
digests captured on the bit-serial codebase, so a matched pair of bugs in
a fast path and its reference cannot slip through unnoticed.
"""

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baseband.access_code import BCH_DEGREE, BCH_POLY, sync_word
from repro.baseband.bits import bits_from_int, int_from_bits
from repro.baseband.codec import decode_packet, encode_packet
from repro.baseband.crc import CRC_DEGREE, CRC_POLY
from repro.baseband.fec import (
    FEC23_DEGREE,
    FEC23_POLY,
    fec13_decode,
    fec13_encode,
    fec23_decode,
    fec23_encode,
)
from repro.baseband.hec import HEC_DEGREE, HEC_POLY
from repro.baseband.hop import HopRegistry, HopSelector, channel_distribution
from repro.baseband.lfsr import Lfsr, remainder_bits, shift_divide
from repro.baseband.whitening import whitening_sequence, whitening_slice
from repro.baseband.address import BdAddr, GIAC_LAP
from repro.baseband.fhs import FhsPayload
from repro.baseband.packets import Packet, PacketType
from tests.properties import reference as ref

bit_arrays = st.lists(st.integers(0, 1), min_size=0, max_size=200).map(
    lambda bits: np.array(bits, dtype=np.uint8))

#: The generator polynomials actually deployed: CRC-16, HEC, BCH sync word,
#: FEC 2/3 parity — degrees both below and above the byte-table threshold.
POLYS = [(CRC_POLY, CRC_DEGREE), (HEC_POLY, HEC_DEGREE),
         (BCH_POLY, BCH_DEGREE), (FEC23_POLY, FEC23_DEGREE)]


class TestWhiteningEquivalence:
    @settings(max_examples=150)
    @given(st.integers(0, (1 << 28) - 1), st.integers(0, 400))
    def test_sequence_matches_reference(self, clk, length):
        assert np.array_equal(whitening_sequence(clk, length),
                              ref.whitening_sequence_reference(clk, length))

    @settings(max_examples=100)
    @given(st.integers(0, (1 << 28) - 1), st.integers(0, 300), st.integers(0, 300))
    def test_slice_matches_reference_offset(self, clk, start, length):
        full = ref.whitening_sequence_reference(clk, start + length)
        assert np.array_equal(whitening_slice(clk, start, length), full[start:])

    def test_returned_arrays_are_writable(self):
        seq = whitening_sequence(0x2A, 200)
        seq[:] ^= 1  # must not raise, must not corrupt the table
        assert np.array_equal(whitening_sequence(0x2A, 200),
                              ref.whitening_sequence_reference(0x2A, 200))


class TestDivisionEquivalence:
    @settings(max_examples=200)
    @given(bit_arrays, st.sampled_from(POLYS), st.integers(0, (1 << 34) - 1))
    def test_shift_divide_matches_reference(self, bits, poly_degree, init):
        poly, degree = poly_degree
        assert shift_divide(bits, poly, degree, init=init) == \
            ref.shift_divide_reference(bits, poly, degree, init=init)

    @settings(max_examples=100)
    @given(bit_arrays, st.sampled_from(POLYS), st.integers(0, 255))
    def test_remainder_bits_matches_reference(self, bits, poly_degree, init):
        poly, degree = poly_degree
        assert np.array_equal(
            remainder_bits(bits, poly, degree, init=init),
            ref.remainder_bits_reference(bits, poly, degree, init=init))


@st.composite
def lfsr_params(draw):
    degree = draw(st.integers(2, 12))
    low_taps = draw(st.integers(1, (1 << degree) - 1))
    poly = (1 << degree) | low_taps
    state = draw(st.integers(0, (1 << degree) - 1))
    return poly, degree, state


class TestLfsrEquivalence:
    @settings(max_examples=120)
    @given(lfsr_params(), st.integers(0, 300))
    def test_sequence_matches_reference(self, params, length):
        poly, degree, state = params
        fast = Lfsr(poly, degree, state)
        got = fast.sequence(length)
        want, end_state = ref.lfsr_sequence_reference(poly, degree, state, length)
        assert np.array_equal(got, want)
        assert fast.state == end_state  # table stepping must land mid-cycle too

    @settings(max_examples=60)
    @given(lfsr_params(), st.integers(0, 100), st.integers(0, 100))
    def test_split_sequences_concatenate(self, params, first, second):
        poly, degree, state = params
        fast = Lfsr(poly, degree, state)
        got = np.concatenate([fast.sequence(first), fast.sequence(second)])
        want, _ = ref.lfsr_sequence_reference(poly, degree, state, first + second)
        assert np.array_equal(got, want)

    def test_wide_register_falls_back_to_bit_serial(self):
        poly, degree, state = (1 << 20) | 0b101, 20, 0xABCDE
        got = Lfsr(poly, degree, state).sequence(64)
        want, _ = ref.lfsr_sequence_reference(poly, degree, state, 64)
        assert np.array_equal(got, want)


class TestBitsEquivalence:
    @settings(max_examples=150)
    @given(st.integers(0, 80).flatmap(
        lambda w: st.tuples(st.integers(0, (1 << w) - 1), st.just(w))))
    def test_bits_from_int_matches_reference(self, value_width):
        value, width = value_width
        assert np.array_equal(bits_from_int(value, width),
                              ref.bits_from_int_reference(value, width))

    @settings(max_examples=100)
    @given(bit_arrays)
    def test_int_from_bits_matches_reference(self, bits):
        assert int_from_bits(bits) == ref.int_from_bits_reference(bits)


class TestFecEquivalence:
    @settings(max_examples=100)
    @given(bit_arrays)
    def test_fec13_encode_matches_reference(self, bits):
        assert np.array_equal(fec13_encode(bits), ref.fec13_encode_reference(bits))

    @settings(max_examples=100)
    @given(st.lists(st.integers(0, 1), min_size=0, max_size=201).map(
        lambda b: np.array(b[: 3 * (len(b) // 3)], dtype=np.uint8)))
    def test_fec13_decode_matches_reference(self, coded):
        got = fec13_decode(coded)
        want_bits, want_corrected = ref.fec13_decode_reference(coded)
        assert np.array_equal(got.bits, want_bits)
        assert got.corrected == want_corrected

    @settings(max_examples=100)
    @given(bit_arrays)
    def test_fec23_encode_matches_reference(self, bits):
        assert np.array_equal(fec23_encode(bits), ref.fec23_encode_reference(bits))

    @settings(max_examples=150)
    @given(st.integers(0, 12), st.data())
    def test_fec23_decode_matches_reference_under_arbitrary_errors(
            self, n_blocks, data):
        clean = fec23_encode(np.array(
            data.draw(st.lists(st.integers(0, 1), min_size=10 * n_blocks,
                               max_size=10 * n_blocks)), dtype=np.uint8))
        corrupted = clean.copy()
        if len(clean):
            n_errors = data.draw(st.integers(0, len(clean)))
            positions = data.draw(st.lists(
                st.integers(0, len(clean) - 1), min_size=n_errors,
                max_size=n_errors, unique=True))
            corrupted[positions] ^= 1
        got = fec23_decode(corrupted)
        want_bits, want_corrected, want_failed = ref.fec23_decode_reference(corrupted)
        assert np.array_equal(got.bits, want_bits)
        assert (got.corrected, got.failed) == (want_corrected, want_failed)


class TestSyncWordEquivalence:
    @settings(max_examples=80)
    @given(st.integers(0, (1 << 24) - 1))
    def test_sync_word_matches_reference(self, lap):
        assert np.array_equal(sync_word(lap), ref.sync_word_reference(lap))

    def test_returned_word_is_a_writable_copy(self):
        word = sync_word(0x13579B)
        word[5] ^= 1  # must not poison the cache
        assert np.array_equal(sync_word(0x13579B),
                              ref.sync_word_reference(0x13579B))


#: Optional AFH used-channel sets (None = no adaptive hop set installed).
afh_used_sets = st.one_of(
    st.none(), st.sets(st.integers(0, 78), min_size=20, max_size=79))


def _selector(address: int, used) -> HopSelector:
    """A selector on a fresh registry (empty memo), with the AFH map of
    ``used`` installed when given."""
    selector = HopSelector(address, HopRegistry())
    if used is not None:
        mask = np.zeros(79, dtype=bool)
        mask[sorted(used)] = True
        selector.set_afh_map(mask)
    return selector


class TestHopEquivalence:
    """The vectorized connection kernel — ``connection_many``, the
    windowed memo fill behind ``connection`` and ``channel_distribution``
    — against the scalar kernel oracle, with and without AFH remap."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, (1 << 28) - 1), st.lists(
        st.integers(0, (1 << 28) - 1), min_size=1, max_size=50),
        afh_used_sets)
    def test_connection_many_matches_scalar(self, address, clks, used):
        selector = _selector(address, used)
        expected = [ref.connection_reference(selector, clk) for clk in clks]
        got = selector.connection_many(np.array(clks, dtype=np.int64))
        assert got.tolist() == expected
        assert [selector.connection(clk) for clk in clks] == expected

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, (1 << 28) - 1), st.integers(0, (1 << 28) - 1),
           st.integers(0, 200), afh_used_sets)
    def test_channel_distribution_matches_scalar(self, address, clk_start,
                                                 samples, used):
        selector = _selector(address, used)
        counts = np.zeros(79, dtype=np.int64)
        for k in range(samples):
            counts[ref.connection_reference(selector, clk_start + 4 * k)] += 1
        assert np.array_equal(
            channel_distribution(selector, clk_start, samples), counts)


# ---------------------------------------------------------------------------
# End-to-end pre-refactor oracle
# ---------------------------------------------------------------------------

def _digest(bits: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(bits, dtype=np.uint8).tobytes()).hexdigest()[:16]


#: sha256 prefixes of encode_packet() outputs captured on the pre-refactor
#: (bit-serial) codebase — commit b683d58, 2026-07-30.
GOLDEN_ENCODINGS = {
    "id": "7f0d97727bb04f07",
    "null": "51ce2614936c762d",
    "poll": "0229e53f416b3765",
    "fhs": "0047b97b1c3541bf",
    "dm1": "a7245ec822b83365",
    "dh1": "d03994d887f13b1e",
    "dm3": "3abc2a9b44de2079",
    "dh3": "37aebc6ab02a5fc0",
    "dm5": "25dd7b6522a7be2d",
    "dh5": "1a4636fca7fed211",
}

GOLDEN_PRIMITIVES = {
    "sync_giac": "57ad8e0054afab57",
    "sync_0": "307c849ec6f43143",
    "sync_ffffff": "c3c0d82b391bc15f",
    "whiten_0x2a_300": "d42ae61d8a7c6712",
    "whiten_0_1000": "d52b1e81e7c1faf7",
}


def _oracle_packets():
    return {
        "id": (Packet(ptype=PacketType.ID, lap=GIAC_LAP), 0x47, 0x155),
        "null": (Packet(ptype=PacketType.NULL, lap=0x123456, am_addr=3,
                        arqn=1, seqn=1), 0x47, 0x155),
        "poll": (Packet(ptype=PacketType.POLL, lap=0x654321, am_addr=7,
                        flow=0), 0x12, 0x2AAB),
        "fhs": (Packet(ptype=PacketType.FHS, lap=GIAC_LAP,
                       fhs=FhsPayload(addr=BdAddr(lap=0xABCDE, uap=7, nap=0x1234),
                                      clk27_2=0x2345678, am_addr=5)), 0, 0),
        "dm1": (Packet(ptype=PacketType.DM1, lap=0xBEEF01, am_addr=1,
                       payload=bytes(range(17)), seqn=1), 0x47, 0x155),
        "dh1": (Packet(ptype=PacketType.DH1, lap=0xBEEF01, am_addr=2,
                       payload=b"hello world", llid=3), 0x99, 0x7F3),
        "dm3": (Packet(ptype=PacketType.DM3, lap=0x0F0F0F,
                       payload=bytes(range(121)), arqn=1), 0x33, 0x1000001),
        "dh3": (Packet(ptype=PacketType.DH3, lap=0x5050AA,
                       payload=bytes(183)), 0xFF, 0x3F),
        "dm5": (Packet(ptype=PacketType.DM5, lap=0x101010, payload=bytes(224),
                       flow=0), 0x01, 0xFFFFFFF),
        "dh5": (Packet(ptype=PacketType.DH5, lap=0xFFFFFF,
                       payload=bytes([0xA5] * 339)), 0x47, 0x2),
    }


class TestPreRefactorOracle:
    def test_encoder_matches_golden_digests(self):
        for name, (packet, uap, clk) in _oracle_packets().items():
            assert _digest(encode_packet(packet, uap=uap, clk=clk)) == \
                GOLDEN_ENCODINGS[name], name

    def test_primitives_match_golden_digests(self):
        assert _digest(sync_word(GIAC_LAP)) == GOLDEN_PRIMITIVES["sync_giac"]
        assert _digest(sync_word(0)) == GOLDEN_PRIMITIVES["sync_0"]
        assert _digest(sync_word(0xFFFFFF)) == GOLDEN_PRIMITIVES["sync_ffffff"]
        assert _digest(whitening_sequence(0x2A, 300)) == \
            GOLDEN_PRIMITIVES["whiten_0x2a_300"]
        assert _digest(whitening_sequence(0, 1000)) == \
            GOLDEN_PRIMITIVES["whiten_0_1000"]

    def test_oracle_packets_roundtrip(self):
        for name, (packet, uap, clk) in _oracle_packets().items():
            bits = encode_packet(packet, uap=uap, clk=clk)
            result = decode_packet(bits, packet.lap, uap, clk)
            assert result.complete, name

    def test_noisy_decode_matches_pre_refactor_outcomes(self):
        """Staged decode outcomes of corrupted DM5 frames, pinned against
        the pre-refactor codec (same rng stream, same frames)."""
        packet = Packet(ptype=PacketType.DM5, lap=0x123456, am_addr=5, seqn=1,
                        payload=bytes(range(224)))
        bits = encode_packet(packet, 0x47, 0x155)
        rng = np.random.default_rng(12345)
        expected = [
            (27, True, True, False, "payload", 0, 25),
            (0, True, True, True, "payload", 0, 0),
            (5, True, True, True, "payload", 0, 5),
            (37, True, True, False, "payload", 0, 31),
            (7, True, True, True, "payload", 0, 7),
            (9, True, True, True, "payload", 0, 9),
            (35, True, True, False, "payload", 0, 30),
            (13, True, True, True, "payload", 0, 11),
            (10, True, True, True, "payload", 1, 8),
            (24, True, True, False, "payload", 0, 19),
            (35, True, True, False, "payload", 1, 31),
            (8, True, True, True, "payload", 0, 8),
        ]
        for want in expected:
            n_errors = int(rng.integers(0, 40))
            positions = (rng.choice(len(bits), size=n_errors, replace=False)
                         if n_errors else np.array([], dtype=int))
            noisy = bits.copy()
            noisy[positions] ^= 1
            result = decode_packet(noisy, 0x123456, 0x47, 0x155)
            got = (n_errors, result.synced, result.header_ok, result.payload_ok,
                   result.stage, result.corrected_header_bits,
                   result.corrected_codewords)
            assert got == want
