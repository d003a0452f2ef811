"""Retained bit-serial reference implementations of the baseband codec
and the scalar connection-state hop kernel.

The ``repro.baseband`` modules on the hot path (``whitening``, ``lfsr``,
``crc``, ``hec``, ``fec``, ``bits``, ``access_code``, ``hop``) serve
table-driven / numpy-vectorized fast paths.  This module keeps the
original bit-serial and per-clock implementations, verbatim, as the
executable specification: the property suites in
``tests/properties/test_fastpath_equivalence.py`` assert exact
(``np.array_equal``) agreement between each fast path and its reference
across random inputs.  The module lives beside those suites, its only
users; the package itself never imports it.

The module deliberately imports nothing from the fast modules except
shared constants, so a bug in a fast path cannot leak into its own
oracle.  The hop oracle takes the selector under test and reads only
its scalar selection box and address fields, never the vectorized
kernel.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

#: Constants duplicated from the fast modules on purpose (see module
#: docstring): whitening g(D) = D^7 + D^4 + 1, BCH(64,30) generator,
#: PN scrambling word and Barker extensions of the sync word.
WHITEN_POLY = 0b10010001
BCH_POLY = 0o260534236651
BCH_DEGREE = 34
PN_SEQUENCE = 0x83848D96BBCC54FC
BARKER_MSB0 = 0b001101
BARKER_MSB1 = 0b110010
FEC23_POLY = 0b110101
FEC23_DEGREE = 5
FEC23_DATA = 10
FEC23_LEN = 15

_PN_BITS = np.array([(PN_SEQUENCE >> (63 - i)) & 1 for i in range(64)], dtype=np.uint8)


def whitening_sequence_reference(clk: int, length: int) -> np.ndarray:
    """Bit-serial LFSR generation of the whitening stream (seed CLK6..1)."""
    state = 0b1000000 | ((clk >> 1) & 0x3F)
    out = np.empty(length, dtype=np.uint8)
    for i in range(length):
        msb = (state >> 6) & 1
        out[i] = msb
        feedback = msb ^ ((state >> 3) & 1)
        state = ((state << 1) & 0x7F) | feedback
    return out


def shift_divide_reference(bits: Iterable[int], poly: int, degree: int,
                           init: int = 0) -> int:
    """Bit-at-a-time GF(2) division; returns rem(bits * x^degree)."""
    mask = (1 << degree) - 1
    low_poly = poly & mask
    reg = init & mask
    top = degree - 1
    for bit in bits:
        feedback = ((reg >> top) & 1) ^ (int(bit) & 1)
        reg = (reg << 1) & mask
        if feedback:
            reg ^= low_poly
    return reg


def remainder_bits_reference(bits: np.ndarray, poly: int, degree: int,
                             init: int = 0) -> np.ndarray:
    """Remainder of :func:`shift_divide_reference` as MSB-first bits."""
    reg = shift_divide_reference(bits, poly, degree, init)
    out = np.empty(degree, dtype=np.uint8)
    for i in range(degree):
        out[i] = (reg >> (degree - 1 - i)) & 1
    return out


def lfsr_sequence_reference(poly: int, degree: int, state: int,
                            length: int) -> tuple[np.ndarray, int]:
    """Step a Fibonacci LFSR bit by bit; returns (output bits, end state)."""
    mask = (1 << degree) - 1
    state &= mask
    taps = [i for i in range(degree) if (poly >> i) & 1]
    out = np.empty(length, dtype=np.uint8)
    for i in range(length):
        bit = (state >> (degree - 1)) & 1
        feedback = 0
        for tap in taps:
            if tap == 0:
                feedback ^= bit
            else:
                feedback ^= (state >> (tap - 1)) & 1
        state = ((state << 1) | feedback) & mask
        out[i] = bit
    return out, state


def bits_from_int_reference(value: int, width: int) -> np.ndarray:
    """Per-bit LSB-first serialisation of ``value``."""
    out = np.empty(width, dtype=np.uint8)
    for i in range(width):
        out[i] = (value >> i) & 1
    return out


def int_from_bits_reference(bits: np.ndarray) -> int:
    """Per-bit LSB-first accumulation."""
    value = 0
    for i, bit in enumerate(bits):
        if bit:
            value |= 1 << i
    return value


def alternating_reference(start: int, length: int) -> np.ndarray:
    """Per-bit alternating 0101/1010 run (preamble/trailer)."""
    out = np.empty(length, dtype=np.uint8)
    for i in range(length):
        out[i] = (start + i) & 1
    return out


def fec13_encode_reference(bits: np.ndarray) -> np.ndarray:
    """Per-bit triple repetition."""
    out = np.empty(3 * len(bits), dtype=np.uint8)
    for i, bit in enumerate(bits):
        out[3 * i] = out[3 * i + 1] = out[3 * i + 2] = bit
    return out


def fec13_decode_reference(coded: np.ndarray) -> tuple[np.ndarray, int]:
    """Per-triplet majority vote; returns (bits, corrected count)."""
    if len(coded) % 3 != 0:
        raise ValueError(f"FEC 1/3 stream length {len(coded)} not divisible by 3")
    n = len(coded) // 3
    out = np.empty(n, dtype=np.uint8)
    corrected = 0
    for i in range(n):
        total = int(coded[3 * i]) + int(coded[3 * i + 1]) + int(coded[3 * i + 2])
        out[i] = 1 if total >= 2 else 0
        if total in (1, 2):
            corrected += 1
    return out, corrected


def _fec23_syndrome_table() -> dict[int, int]:
    table: dict[int, int] = {}
    for position in range(FEC23_LEN):
        error = np.zeros(FEC23_LEN, dtype=np.uint8)
        error[position] = 1
        table[shift_divide_reference(error, FEC23_POLY, FEC23_DEGREE)] = position
    return table


_SYNDROME_TABLE_REF = _fec23_syndrome_table()


def fec23_encode_block_reference(data10: np.ndarray) -> np.ndarray:
    """Bit-serial systematic (15,10) encoding of one block."""
    parity = shift_divide_reference(data10, FEC23_POLY, FEC23_DEGREE)
    codeword = np.empty(FEC23_LEN, dtype=np.uint8)
    codeword[:FEC23_DATA] = data10
    for i in range(FEC23_DEGREE):
        codeword[FEC23_DATA + i] = (parity >> (FEC23_DEGREE - 1 - i)) & 1
    return codeword


def fec23_encode_reference(bits: np.ndarray) -> np.ndarray:
    """Block-by-block (15,10) encoding with zero tail padding."""
    remainder = len(bits) % FEC23_DATA
    if remainder:
        bits = np.concatenate(
            [bits, np.zeros(FEC23_DATA - remainder, dtype=np.uint8)]
        )
    blocks = bits.reshape(-1, FEC23_DATA)
    if not len(blocks):
        return np.zeros(0, np.uint8)
    return np.concatenate([fec23_encode_block_reference(b) for b in blocks])


def fec23_decode_reference(coded: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Per-block syndrome decoding; returns (bits, corrected, failed)."""
    if len(coded) % FEC23_LEN != 0:
        raise ValueError(f"FEC 2/3 stream length {len(coded)} not divisible by 15")
    corrected = 0
    failed = 0
    out_blocks = []
    for block in coded.reshape(-1, FEC23_LEN):
        syndrome = shift_divide_reference(block, FEC23_POLY, FEC23_DEGREE)
        block = block.copy()
        if syndrome != 0:
            position = _SYNDROME_TABLE_REF.get(syndrome)
            if position is None:
                failed += 1
            else:
                block[position] ^= 1
                corrected += 1
        out_blocks.append(block[:FEC23_DATA])
    bits = np.concatenate(out_blocks) if out_blocks else np.zeros(0, np.uint8)
    return bits, corrected, failed


def sync_word_reference(lap: int) -> np.ndarray:
    """Bit-serial BCH(64,30) sync-word construction."""
    if not 0 <= lap < (1 << 24):
        raise ValueError(f"LAP out of range: {lap:#x}")
    msb = (lap >> 23) & 1
    barker = BARKER_MSB1 if msb else BARKER_MSB0
    info = (lap << 6) | barker
    info_bits = np.array([(info >> (29 - i)) & 1 for i in range(30)], dtype=np.uint8)
    scrambled_info = info_bits ^ _PN_BITS[:30]
    parity = remainder_bits_reference(scrambled_info, BCH_POLY, BCH_DEGREE)
    codeword = np.concatenate([scrambled_info, parity])
    return (codeword ^ _PN_BITS).astype(np.uint8)


#: Basic channel register (even channels ascending, then odd), duplicated
#: from ``repro.baseband.hop`` on purpose (see module docstring).
CHANNEL_REGISTER = tuple(range(0, 79, 2)) + tuple(range(1, 79, 2))


def connection_reference(selector, clk: int) -> int:
    """Scalar connection-state hop kernel at piconet clock ``clk``.

    One clock at a time through the selector's scalar selection box
    (``_select_index``: scalar PERM5, no arrays), then the AFH remap of
    the adaptive hop set installed for the selector's address: a channel
    outside the used set is replaced by entry ``index mod N`` of the used
    channels in register order.  This is the per-call fill the vectorized
    ``connection_many`` / windowed memo fill replaced.
    """
    x = (clk >> 2) & 0x1F
    y1 = (clk >> 1) & 1
    a = selector._a ^ ((clk >> 21) & 0x1F)
    c = selector._c ^ ((clk >> 16) & 0x1F)
    d = selector._d ^ ((clk >> 7) & 0x1FF)
    f = (16 * ((clk >> 7) & 0x1FFFFF)) % 79
    index = selector._select_index(x=x, y1=y1, y2=32 * y1, a=a,
                                   b=selector._b, c=c, d=d, f=f)
    freq = CHANNEL_REGISTER[index]
    afh = selector.afh_map
    if afh is not None and not afh.used_mask[freq]:
        used = [channel for channel in CHANNEL_REGISTER
                if afh.used_mask[channel]]
        freq = used[index % len(used)]
    return freq
