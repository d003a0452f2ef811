"""Forward error correction: FEC 1/3 (bit repetition) and FEC 2/3
(shortened Hamming (15,10)).

* FEC 1/3 triples every bit; the decoder majority-votes each triplet.
  Used for the packet header (and the DV voice field, not modelled).
* FEC 2/3 encodes 10 data bits into a 15-bit codeword with generator
  ``g(x) = x^5 + x^4 + x^2 + 1`` (octal 65); it corrects any single bit error
  per codeword and flags heavier damage via the syndrome. Used for FHS and
  DM packet payloads.

Fast paths (bit-serial per-block originals retained in
``tests/properties/reference.py``): the encoder serves whole codewords from a
1024-entry LUT (10 data bits -> 15-bit codeword row), and the decoder
computes every codeword's syndrome in one GF(2) matrix product over the
reshaped ``(-1, 15)`` stream, applying single-error corrections with fancy
indexing instead of a per-block Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baseband.lfsr import shift_divide

# ---------------------------------------------------------------------------
# FEC 1/3
# ---------------------------------------------------------------------------


def fec13_encode(bits: np.ndarray) -> np.ndarray:
    """Repeat every bit three times."""
    return np.repeat(bits.astype(np.uint8), 3)


@dataclass(frozen=True)
class Fec13Result:
    """Decoded FEC 1/3 block.

    Attributes:
        bits: majority-voted data bits.
        corrected: number of triplets where a minority bit was outvoted.
    """

    bits: np.ndarray
    corrected: int


def fec13_decode(coded: np.ndarray) -> Fec13Result:
    """Majority-vote decoder; ``len(coded)`` must be a multiple of 3."""
    if len(coded) % 3 != 0:
        raise ValueError(f"FEC 1/3 stream length {len(coded)} not divisible by 3")
    triplets = coded.reshape(-1, 3)
    sums = triplets.sum(axis=1)
    bits = (sums >= 2).astype(np.uint8)
    corrected = int(np.count_nonzero((sums == 1) | (sums == 2)))
    return Fec13Result(bits=bits, corrected=corrected)


# ---------------------------------------------------------------------------
# FEC 2/3 — shortened Hamming (15,10)
# ---------------------------------------------------------------------------

#: Generator polynomial g(x) = x^5 + x^4 + x^2 + 1  (octal 65).
FEC23_POLY = 0b110101
FEC23_DEGREE = 5
FEC23_DATA = 10
FEC23_LEN = 15


def _single_error_syndromes() -> dict[int, int]:
    """Map syndrome -> error position for all 15 single-bit errors."""
    table: dict[int, int] = {}
    for position in range(FEC23_LEN):
        error = np.zeros(FEC23_LEN, dtype=np.uint8)
        error[position] = 1
        syndrome = shift_divide(error, FEC23_POLY, FEC23_DEGREE)
        if syndrome in table:  # pragma: no cover - guards the code choice
            raise AssertionError("generator polynomial is not single-error capable")
        table[syndrome] = position
    return table


_SYNDROME_TABLE = _single_error_syndromes()


def _build_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Encode LUT, parity-check matrix and syndrome->position lookup.

    * encode LUT: row ``v`` is the systematic codeword of the 10-bit data
      value ``v`` (bit 9 of ``v`` = first transmitted bit);
    * H: (15, 5) GF(2) matrix whose row ``i`` is the syndrome of a single
      error at stream position ``i`` (MSB-first bits), so that
      ``codeword @ H % 2`` is the codeword's syndrome;
    * position lookup: syndrome value -> error position, -1 when the
      syndrome is not single-error correctable.
    """
    values = np.arange(1 << FEC23_DATA)
    data_bits = ((values[:, None] >> np.arange(FEC23_DATA - 1, -1, -1)) & 1)
    # parity is GF(2)-linear in the data: combine the 10 basis parities
    basis = np.array(
        [shift_divide(np.eye(FEC23_DATA, dtype=np.uint8)[j], FEC23_POLY, FEC23_DEGREE)
         for j in range(FEC23_DATA)]
    )
    parity = np.zeros(1 << FEC23_DATA, dtype=np.int64)
    for j in range(FEC23_DATA):
        parity[data_bits[:, j] == 1] ^= basis[j]
    encode = np.empty((1 << FEC23_DATA, FEC23_LEN), dtype=np.uint8)
    encode[:, :FEC23_DATA] = data_bits
    encode[:, FEC23_DATA:] = (
        (parity[:, None] >> np.arange(FEC23_DEGREE - 1, -1, -1)) & 1
    )
    h = np.zeros((FEC23_LEN, FEC23_DEGREE), dtype=np.int64)
    positions = np.full(1 << FEC23_DEGREE, -1, dtype=np.int64)
    for syndrome, position in _SYNDROME_TABLE.items():
        h[position] = (syndrome >> np.arange(FEC23_DEGREE - 1, -1, -1)) & 1
        positions[syndrome] = position
    positions[0] = -1  # syndrome 0 is "no error", handled separately
    return encode, h, positions


_ENCODE_LUT, _H, _SYNDROME_POSITIONS = _build_tables()
_DATA_WEIGHTS = 1 << np.arange(FEC23_DATA - 1, -1, -1)
_SYN_WEIGHTS = 1 << np.arange(FEC23_DEGREE - 1, -1, -1)


def fec23_encode_block(data10: np.ndarray) -> np.ndarray:
    """Encode exactly 10 data bits into a systematic 15-bit codeword."""
    if len(data10) != FEC23_DATA:
        raise ValueError(f"FEC 2/3 block must be 10 bits, got {len(data10)}")
    value = int(np.asarray(data10, dtype=np.int64) @ _DATA_WEIGHTS)
    return _ENCODE_LUT[value].copy()


@dataclass(frozen=True)
class Fec23Result:
    """Decoded FEC 2/3 stream.

    Attributes:
        bits: recovered data bits (padding still included).
        corrected: number of codewords where one error was fixed.
        failed: number of codewords whose syndrome was not correctable
            (the payload must be discarded; CRC would fail anyway).
    """

    bits: np.ndarray
    corrected: int
    failed: int

    @property
    def ok(self) -> bool:
        """True when every codeword decoded cleanly or was corrected."""
        return self.failed == 0


def fec23_encode(bits: np.ndarray) -> np.ndarray:
    """Encode a bit stream; zero-pads the tail block to 10 bits (spec §7.5)."""
    remainder = len(bits) % FEC23_DATA
    if remainder:
        bits = np.concatenate(
            [bits, np.zeros(FEC23_DATA - remainder, dtype=np.uint8)]
        )
    if not len(bits):
        return np.zeros(0, np.uint8)
    values = bits.reshape(-1, FEC23_DATA).astype(np.int64) @ _DATA_WEIGHTS
    return _ENCODE_LUT[values].reshape(-1)


def fec23_decode(coded: np.ndarray) -> Fec23Result:
    """Decode a stream of 15-bit codewords, correcting single errors."""
    if len(coded) % FEC23_LEN != 0:
        raise ValueError(f"FEC 2/3 stream length {len(coded)} not divisible by 15")
    if not len(coded):
        return Fec23Result(bits=np.zeros(0, np.uint8), corrected=0, failed=0)
    blocks = coded.reshape(-1, FEC23_LEN)
    syndromes = (blocks.astype(np.int64) @ _H % 2) @ _SYN_WEIGHTS
    damaged = syndromes != 0
    position = _SYNDROME_POSITIONS[syndromes]
    correctable = damaged & (position >= 0)
    corrected = int(np.count_nonzero(correctable))
    failed = int(np.count_nonzero(damaged & (position < 0)))
    data = blocks[:, :FEC23_DATA].astype(np.uint8)
    if corrected:
        rows = np.nonzero(correctable)[0]
        cols = position[rows]
        in_data = cols < FEC23_DATA
        data[rows[in_data], cols[in_data]] ^= 1
    return Fec23Result(bits=data.reshape(-1), corrected=corrected, failed=failed)
