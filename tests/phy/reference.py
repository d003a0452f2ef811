"""Tests-side reference implementations for the channel and noise suites.

Each function here is an earlier, simpler implementation of a path the
package now serves differently; the suites compare the package against
them.  The package itself never imports this module.

* :func:`resolve_binary` — the binary overlap resolver the SIR capture
  model replaced.  The capture suite patches it onto ``Channel._resolve``
  and asserts the degenerate capture profile is byte-identical to it.
* :func:`per_listener_sync` — one sync resolution per receiver instead of
  one per transmission.  The golden-digest suite runs its scalar arm
  through it.
* :func:`error_positions_reference` — the per-bit Gilbert-Elliott chain
  the geometric-sojourn sampler replaced, compared statistically.
"""

from __future__ import annotations

import numpy as np


def resolve_binary(channel, tx, now: int) -> None:
    """Binary overlap resolution for flat worlds: any live overlap on the
    same frequency corrupts both transmissions unconditionally; adjacent
    channels, powers and static interferers are invisible.

    Signature-compatible with ``Channel._resolve`` so a test can patch it
    in with ``monkeypatch.setattr(Channel, "_resolve", resolve_binary)``.
    """
    cap = channel.capture
    live = channel._active_by_freq.setdefault(tx.freq, {})
    for other in live.values():
        if other.end_ns <= now:  # expiry event not yet fired
            continue
        if cap is not None:
            if not other.corrupted:
                cap.capture_loss(now, other)
            if not tx.corrupted:
                cap.capture_loss(now, tx)
        other.corrupted = True
        tx.corrupted = True
        channel.collisions += 1
    live[id(tx)] = tx


def per_listener_sync(sync_batch):
    """Wrap ``Channel._sync_batch`` so each receiver of a transmission is
    admitted, decoded and delivered on its own, in listener order —
    the draw sequence of one sync event per listener.

    Patch the result onto ``Channel._sync_batch``.  The SoA engine
    classifies the wrapper as its sync-batch event and runs absorbed
    windows through its own batch loop; the wrapper takes effect on the
    object kernel and in windows the engine declines.
    """

    def sync(channel, tx, receivers):
        for listener in receivers:
            sync_batch(channel, tx, [listener])

    return sync


def error_positions_reference(noise, n: int) -> np.ndarray:
    """The two-uniforms-per-bit Gilbert-Elliott chain step over a frame
    of ``n`` bits, drawing from and updating ``noise``'s generator and
    carried good/bad state."""
    if noise.ber <= 0.0 or n == 0:
        return np.zeros(0, dtype=np.int64)
    positions = []
    bad = noise._bad
    enter, leave = noise._p_enter_bad, noise._p_leave_bad
    uniforms = noise._rng.random(2 * n)
    for i in range(n):
        if bad:
            if uniforms[2 * i] < noise.bad_ber:
                positions.append(i)
            if uniforms[2 * i + 1] < leave:
                bad = False
        elif uniforms[2 * i + 1] < enter:
            bad = True
    noise._bad = bad
    return np.array(positions, dtype=np.int64)
