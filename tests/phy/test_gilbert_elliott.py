"""Vectorized Gilbert-Elliott sampler vs the per-bit reference chain.

The vectorized ``error_positions`` samples geometric good/bad sojourns
instead of stepping the two-state chain bit by bit, so its RNG stream is
not draw-for-draw comparable with the reference loop
(``tests/phy/reference.py::error_positions_reference``).  Equivalence is
therefore statistical: the mean BER and the burst structure (run-length
mix) of both samplers must agree within confidence bounds.  A seeded
golden test pins the vectorized draw itself so the sampling algorithm
cannot drift silently.
"""

import numpy as np
import pytest

from repro.phy.noise import GilbertElliottNoise
from tests.phy.reference import error_positions_reference

#: Frames drawn per statistical comparison.
FRAMES = 400
FRAME_BITS = 2000


def _burst_stats(sampler, noise: GilbertElliottNoise):
    """Total errors, adjacent-gap counts and per-frame error counts of
    ``sampler(noise, n)`` over :data:`FRAMES` frames."""
    total = 0
    small_gaps = 0
    gaps = 0
    per_frame = []
    for _ in range(FRAMES):
        positions = np.sort(sampler(noise, FRAME_BITS))
        per_frame.append(len(positions))
        total += len(positions)
        if len(positions) > 1:
            diffs = np.diff(positions)
            gaps += len(diffs)
            small_gaps += int(np.count_nonzero(diffs <= 3))
    return total, small_gaps, gaps, np.asarray(per_frame, dtype=float)


class TestStatisticalEquivalence:
    @pytest.mark.parametrize("ber,burst_len", [(0.02, 8.0), (0.05, 20.0),
                                               (0.01, 2.0)])
    def test_mean_ber_matches_reference_within_ci(self, ber, burst_len):
        vec = GilbertElliottNoise(ber, burst_len, np.random.default_rng(101))
        ref = GilbertElliottNoise(ber, burst_len, np.random.default_rng(202))
        n_bits = FRAMES * FRAME_BITS
        total_vec, _, _, frames_vec = _burst_stats(
            GilbertElliottNoise.error_positions, vec)
        total_ref, _, _, frames_ref = _burst_stats(
            error_positions_reference, ref)
        # both must sit within a generous CI of the configured BER; burst
        # correlation inflates the variance well beyond Bernoulli, so the
        # bound uses the empirical per-frame spread of each sampler
        for total, frames in ((total_vec, frames_vec),
                              (total_ref, frames_ref)):
            rate = total / n_bits
            stderr = frames.std() / np.sqrt(FRAMES) / FRAME_BITS
            assert abs(rate - ber) < 5 * stderr + 0.1 * ber
        # and within CI bounds of each other
        diff_stderr = np.sqrt(frames_vec.var() / FRAMES
                              + frames_ref.var() / FRAMES) / FRAME_BITS
        assert abs(total_vec - total_ref) / n_bits < 5 * diff_stderr

    def test_burst_length_distribution_matches_reference(self):
        vec = GilbertElliottNoise(0.02, 16.0, np.random.default_rng(303))
        ref = GilbertElliottNoise(0.02, 16.0, np.random.default_rng(404))
        _, small_vec, gaps_vec, _ = _burst_stats(
            GilbertElliottNoise.error_positions, vec)
        _, small_ref, gaps_ref, _ = _burst_stats(
            error_positions_reference, ref)
        frac_vec = small_vec / gaps_vec
        frac_ref = small_ref / gaps_ref
        # the clustered-gap fraction is the burst fingerprint: both
        # samplers must agree (and be far from the independent-noise value)
        assert abs(frac_vec - frac_ref) < 0.05
        assert frac_vec > 0.5  # independent 2% noise would sit near 0.06

    def test_zero_ber_and_empty_frames(self):
        noise = GilbertElliottNoise(0.1, 8.0, np.random.default_rng(1))
        assert len(GilbertElliottNoise(
            0.0, 8.0, np.random.default_rng(1)).error_positions(100)) == 0
        assert len(noise.error_positions(0)) == 0
        assert noise.error_count(0) == 0

    def test_positions_sorted_unique_in_range(self):
        noise = GilbertElliottNoise(0.3, 4.0, np.random.default_rng(5))
        for _ in range(50):
            positions = noise.error_positions(257)
            as_list = positions.tolist()
            assert as_list == sorted(set(as_list))
            assert all(0 <= p < 257 for p in as_list)

    def test_state_carries_across_tiny_frames(self):
        # frames far smaller than the burst length exercise the
        # batch-exhaustion path of the run sampler; the long-run rate must
        # still converge on the configured BER
        noise = GilbertElliottNoise(0.3, 50.0, np.random.default_rng(10))
        total = sum(len(noise.error_positions(3)) for _ in range(20000))
        assert total / 60000 == pytest.approx(0.3, rel=0.15)


class TestErrorCountCheapPath:
    def test_rate_matches_positions_path(self):
        by_count = GilbertElliottNoise(0.02, 8.0, np.random.default_rng(9))
        by_pos = GilbertElliottNoise(0.02, 8.0, np.random.default_rng(9))
        total_count = sum(by_count.error_count(FRAME_BITS)
                          for _ in range(FRAMES))
        total_pos = sum(len(by_pos.error_positions(FRAME_BITS))
                        for _ in range(FRAMES))
        n_bits = FRAMES * FRAME_BITS
        assert total_count / n_bits == pytest.approx(0.02, rel=0.2)
        assert total_count / n_bits == pytest.approx(total_pos / n_bits,
                                                     rel=0.25)

    def test_zero_noise(self):
        noise = GilbertElliottNoise(0.0, 8.0, np.random.default_rng(2))
        assert noise.error_count(1000) == 0


class TestSeededGolden:
    """Pins the vectorized sampler's exact draw for one seed.

    If the sampling algorithm changes (draw order, batch sizing, state
    carry), this fails and the change must be a deliberate, documented
    re-seeding of the model — exactly like the codec golden digests.
    """

    GOLDEN_FIRST = [109, 113, 115, 117, 118, 120, 175, 177, 179, 180, 182,
                    186, 187, 188, 189, 190, 193, 194, 197, 198, 201, 205,
                    208, 209, 212, 213, 344, 345, 346, 347, 348, 351, 352,
                    354, 356, 358, 359, 360, 362, 363, 423, 424, 497, 500,
                    501]
    GOLDEN_SECOND = [126, 128, 130, 131, 132, 185, 186, 189, 193, 196, 197,
                     199, 200, 203, 252, 253, 432, 433, 436, 439, 440, 441]

    def test_golden_positions(self):
        noise = GilbertElliottNoise(0.05, burst_len=8,
                                    rng=np.random.default_rng(1234))
        assert noise.error_positions(512).tolist() == self.GOLDEN_FIRST
        # the second frame also pins the carried good/bad state
        assert noise.error_positions(512).tolist() == self.GOLDEN_SECOND

    def test_golden_error_count(self):
        noise = GilbertElliottNoise(0.05, burst_len=8,
                                    rng=np.random.default_rng(1234))
        assert noise.error_count(512) == 37
        assert noise.error_count(512) == 31
