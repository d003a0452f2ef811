"""Byte-identity of the batched statistical stage draws.

``StageErrorModel.sample_stages_batch`` / ``sample_sync_batch`` must
consume the channel's stage RNG stream exactly like the scalar
``sample_stages`` / ``sample_sync`` loop they replace inside the batch
sync event — same outcomes *and* same final generator state, so every
event after the batch draws identical variates.  The scalar samplers stay
the reference path (``Channel._full_decode``, which a one-listener sync
batch takes).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baseband.errormodel import StageErrorModel
from repro.baseband.packets import PacketType

FRAMED_TYPES = [PacketType.NULL, PacketType.POLL, PacketType.DM1,
                PacketType.DH1, PacketType.DM3, PacketType.DH5]

bers = st.one_of(st.just(0.0), st.just(1e-4),
                 st.floats(min_value=1e-3, max_value=0.45))


def _models(ber: float, seed: int) -> tuple[StageErrorModel, StageErrorModel]:
    return (StageErrorModel(ber, np.random.default_rng(seed)),
            StageErrorModel(ber, np.random.default_rng(seed)))


def _state(model: StageErrorModel) -> dict:
    return model._rng.bit_generator.state["state"]


class TestSampleStagesBatch:
    @settings(max_examples=120, deadline=None)
    @given(ber=bers,
           ptype=st.sampled_from(FRAMED_TYPES),
           payload_len=st.integers(min_value=0, max_value=27),
           threshold=st.integers(min_value=0, max_value=10),
           count=st.integers(min_value=1, max_value=12),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_byte_identical_to_scalar_chain(self, ber, ptype, payload_len,
                                            threshold, count, seed):
        payload_len = min(payload_len, ptype.info.max_payload)
        batch_model, scalar_model = _models(ber, seed)
        batched = batch_model.sample_stages_batch(ptype, payload_len,
                                                  threshold, count)
        scalar = [scalar_model.sample_stages(ptype, payload_len, threshold)
                  for _ in range(count)]
        assert batched == scalar
        # identical stream consumption: the generators end in the same
        # state and keep producing identical draws
        assert _state(batch_model) == _state(scalar_model)
        assert batch_model._rng.random() == scalar_model._rng.random()

    def test_empty_batch_draws_nothing(self):
        model, untouched = _models(0.1, 3)
        assert model.sample_stages_batch(PacketType.DM1, 17, 7, 0) == []
        assert _state(model) == _state(untouched)

    def test_zero_ber_fast_path_draws_nothing(self):
        model, untouched = _models(0.0, 4)
        result = model.sample_stages_batch(PacketType.DH5, 200, 7, 8)
        assert result == [(True, True, True)] * 8
        assert _state(model) == _state(untouched)

    def test_high_ber_many_divergences(self):
        """Every speculation round diverging (frequent sync failures) still
        re-aligns the stream draw for draw."""
        batch_model, scalar_model = _models(0.45, 11)
        for _ in range(5):
            batched = batch_model.sample_stages_batch(PacketType.DM1, 17, 2, 9)
            scalar = [scalar_model.sample_stages(PacketType.DM1, 17, 2)
                      for _ in range(9)]
            assert batched == scalar
        assert _state(batch_model) == _state(scalar_model)


class TestSampleSyncBatch:
    @settings(max_examples=60, deadline=None)
    @given(ber=bers,
           threshold=st.integers(min_value=0, max_value=10),
           count=st.integers(min_value=1, max_value=12),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_byte_identical_to_scalar_loop(self, ber, threshold, count, seed):
        batch_model, scalar_model = _models(ber, seed)
        batched = batch_model.sample_sync_batch(threshold, count)
        scalar = [scalar_model.sample_sync(threshold) for _ in range(count)]
        assert batched == scalar
        assert _state(batch_model) == _state(scalar_model)

    def test_interleaves_with_other_draws(self):
        """Batch and scalar paths stay aligned across a mixed draw script,
        as they would inside a run of channel events."""
        batch_model, scalar_model = _models(0.02, 29)
        for count in (1, 3, 5):
            assert batch_model.sample_sync_batch(7, count) == \
                [scalar_model.sample_sync(7) for _ in range(count)]
            assert batch_model.sample_stages_batch(PacketType.DM3, 100, 7,
                                                   count) == \
                [scalar_model.sample_stages(PacketType.DM3, 100, 7)
                 for _ in range(count)]
            assert batch_model.sample_header() == scalar_model.sample_header()
        assert _state(batch_model) == _state(scalar_model)
