"""Distributed sweep fabric tests: protocol, leasing, recovery, identity.

The bar is the same one every execution backend in this repository pins:
whatever the fabric weather — worker deaths, dropped connections,
heartbeat blackholes, duplicated or delayed deliveries, stolen leases — a
campaign that completes returns exactly the sequential reference bytes,
and a campaign that dies leaves a journal a fresh run finishes from with
zero recompute of journalled work.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time

import pytest

from repro.stats.chaos import ChaosConfig
from repro.stats.fabric import (
    FABRIC_ENV_VAR,
    FABRIC_KEY_ENV_VAR,
    FabricAuthError,
    FabricCoordinator,
    FabricError,
    FabricExecutor,
    FabricProtocolError,
    FabricWorker,
    WorkerRefusedError,
    parse_address,
    recv_message,
    send_message,
)
from repro.stats.store import ResultStore, campaign_digest

SPEC_DIGEST = campaign_digest({"campaign": "fabric-tests"})

#: The shared fabric key of the tests that put external workers (or raw
#: sockets) on a coordinator; locally forked workers need none.
KEY = b"fabric-tests-key"

#: The keyed task grid (sweep, point, trial, seed) — mirrors the
#: resilient-executor suite so the two backends face identical work.
TASKS = [(0, index // 8, index % 8, 0x7000 + index) for index in range(32)]

REFERENCE = [seed * seed for _, _, _, seed in TASKS]


def _square(task):
    """Module-level (hence picklable) trial body: a pure seed function."""
    return task[3] * task[3]


def _slow_square(task):
    time.sleep(0.05)
    return _square(task)


class _CountingTrial:
    """Picklable wrapper counting executions via an O_APPEND side file —
    fork-safe, so fabric-worker executions are visible to the test."""

    def __init__(self, path):
        self.path = path

    def __call__(self, task):
        with open(self.path, "a", encoding="utf-8") as stream:
            stream.write(f"{task[3]:#x}\n")
        return _square(task)


def _executions(path):
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as stream:
        return stream.read().split()


def _chaos_seed_with(kind: str, rate: float, count: int = None,
                     seeds=None, net: bool = False) -> int:
    """A chaos seed whose (net) schedule over the task seeds has faults
    of only ``kind`` (optionally exactly ``count``) — deterministic scan."""
    seeds = [task[3] for task in TASKS] if seeds is None else seeds
    for chaos_seed in range(20000):
        config = ChaosConfig(seed=chaos_seed, **{kind: rate})
        plan = config.net_schedule(seeds) if net else config.schedule(seeds)
        if plan and (count is None or len(plan) == count):
            return chaos_seed
    raise AssertionError("no suitable chaos seed found")


def _journal_lines(path):
    with open(path, encoding="utf-8") as stream:
        return [json.loads(line) for line in stream.read().splitlines()
                if line]


# -- protocol ---------------------------------------------------------------

def _tagged_frame(body: bytes, key: bytes = KEY) -> bytes:
    """A raw frame: length prefix, HMAC-SHA256 tag, body."""
    import hashlib
    import hmac
    import struct

    data = hmac.new(key, body, hashlib.sha256).digest() + body
    return struct.pack(">I", len(data)) + data


class TestProtocol:
    def _pair(self):
        left, right = socket.socketpair()
        return left, right

    def test_roundtrip(self):
        left, right = self._pair()
        try:
            send_message(left, {"type": "hello", "worker": "w", "n": 3}, KEY)
            assert recv_message(right, KEY) == {"type": "hello",
                                                "worker": "w", "n": 3}
            # frames queue back-to-back without losing boundaries
            send_message(right, {"type": "a"}, KEY)
            send_message(right, {"type": "b"}, KEY)
            assert recv_message(left, KEY) == {"type": "a"}
            assert recv_message(left, KEY) == {"type": "b"}
        finally:
            left.close()
            right.close()

    def test_clean_close_reads_none(self):
        left, right = self._pair()
        left.close()
        try:
            assert recv_message(right, KEY) is None
        finally:
            right.close()

    def test_malformed_frame_refused(self):
        left, right = self._pair()
        try:
            left.sendall(_tagged_frame(b"[]"))  # JSON but not an object
            with pytest.raises(FabricProtocolError, match="malformed"):
                recv_message(right, KEY)
        finally:
            left.close()
            right.close()

    def test_oversized_frame_refused(self):
        left, right = self._pair()
        try:
            left.sendall(b"\xff\xff\xff\xff")  # 4 GiB length prefix
            with pytest.raises(FabricProtocolError, match="cap"):
                recv_message(right, KEY)
        finally:
            left.close()
            right.close()

    def test_wrong_key_frame_refused_before_decoding(self):
        left, right = self._pair()
        try:
            send_message(left, {"type": "hello"}, b"another-key")
            with pytest.raises(FabricAuthError, match="authentication"):
                recv_message(right, KEY)
            # an untagged frame (no key at all) fails the same check
            left.sendall(b"\x00\x00\x00\x02{}")
            with pytest.raises(FabricAuthError):
                recv_message(right, KEY)
        finally:
            left.close()
            right.close()

    def test_tampered_frame_refused(self):
        """One flipped byte anywhere in the body fails the tag check, so
        an altered lease or result never reaches ``pickle.loads``."""
        left, right = self._pair()
        try:
            frame = bytearray(_tagged_frame(
                b'{"type":"result","lease":0,"payload":"gAU="}'))
            frame[-5] ^= 0x01
            left.sendall(bytes(frame))
            with pytest.raises(FabricAuthError):
                recv_message(right, KEY)
        finally:
            left.close()
            right.close()

    def test_parse_address(self):
        assert parse_address("10.0.0.5:7919") == ("10.0.0.5", 7919)
        assert parse_address(":7919") == ("127.0.0.1", 7919)
        with pytest.raises(ValueError, match="host:port"):
            parse_address("7919")


class TestFromSpec:
    def test_defaults(self):
        for spec in (None, "", "fabric", "on"):
            executor = FabricExecutor.from_spec(spec)
            assert executor.workers == 2
            assert executor.bind == ("127.0.0.1", 0)

    def test_parses_all_keys(self, monkeypatch):
        monkeypatch.setenv(FABRIC_KEY_ENV_VAR, "lab-secret")
        executor = FabricExecutor.from_spec(
            "bind=0.0.0.0:7919,workers=4,chunk=8,heartbeat_s=0.5,"
            "timeout_s=3,steal_s=5,steals=1,retries=3,respawns=0,"
            "digest=abc123")
        assert executor.bind == ("0.0.0.0", 7919)
        assert executor.workers == 4
        assert executor.chunk_size == 8
        assert executor.heartbeat_interval_s == 0.5
        assert executor.heartbeat_timeout_s == 3.0
        assert executor.steal_after_s == 5.0
        assert executor.max_steals == 1
        assert executor.max_retries == 3
        assert executor.max_worker_respawns == 0
        assert executor.spec_digest == "abc123"
        assert executor.key == b"lab-secret"

    def test_serving_external_workers_without_a_key_refused(
            self, monkeypatch):
        """A non-loopback bind (or an external-workers-only fabric)
        without a key would accept pickles from anyone who can connect."""
        monkeypatch.delenv(FABRIC_KEY_ENV_VAR, raising=False)
        with pytest.raises(FabricError, match=FABRIC_KEY_ENV_VAR):
            FabricExecutor.from_spec("bind=0.0.0.0:7919,workers=2")
        with pytest.raises(FabricError, match="without a key"):
            FabricExecutor(workers=0)
        # loopback with forked workers only: a per-run key, never shared
        assert FabricExecutor(workers=2).key is None
        assert FabricExecutor(workers=0, key=KEY).key == KEY

    def test_unknown_key_rejected_loudly(self):
        with pytest.raises(ValueError, match="unknown"):
            FabricExecutor.from_spec("wrokers=2")

    def test_malformed_entry_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            FabricExecutor.from_spec("workers")

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv(FABRIC_ENV_VAR, "workers=3,chunk=2")
        executor = FabricExecutor.from_env()
        assert executor.workers == 3
        assert executor.chunk_size == 2


# -- determinism ------------------------------------------------------------

class TestDeterminism:
    def test_matches_sequential_reference(self):
        executor = FabricExecutor(workers=2, chaos=None)
        assert executor.map_keyed(_square, TASKS, TASKS) == REFERENCE

    def test_plain_map_uses_synthetic_keys(self):
        executor = FabricExecutor(workers=2, chaos=None)
        assert executor.map(_square, TASKS) == REFERENCE

    def test_mismatched_keys_rejected(self):
        executor = FabricExecutor(workers=2, chaos=None)
        with pytest.raises(ValueError, match="items but"):
            executor.map_keyed(_square, TASKS, TASKS[:-1])

    def test_unpicklable_fn_falls_back_to_sequential(self):
        executor = FabricExecutor(workers=2, chaos=None)
        reference = REFERENCE
        with pytest.warns(RuntimeWarning, match="not picklable"):
            results = executor.map_keyed(lambda task: task[3] * task[3],
                                         TASKS, TASKS)
        assert results == reference

    def test_unpicklable_fallback_keeps_chaos_and_retry(self, tmp_path):
        """The in-process fallback runs under the executor's fault story:
        every task's injected exception is retried, the same count the
        resilient backend's in-process path reports."""
        from repro.stats.resilient import ResilientExecutor

        tasks = TASKS[:20]
        retries = []
        for name in ("fabric", "resilient"):
            chaos = ChaosConfig(seed=3, exc=1.0,
                                state_dir=str(tmp_path / name))
            if name == "fabric":
                executor = FabricExecutor(2, chaos=chaos,
                                          backoff_base_s=0.001)
                with pytest.warns(RuntimeWarning, match="not picklable"):
                    results = executor.map_keyed(
                        lambda task: task[3] * task[3], tasks, tasks)
            else:  # the in-process executor never pickles
                executor = ResilientExecutor(chaos=chaos,
                                             backoff_base_s=0.001)
                results = executor.map_keyed(lambda task: task[3] * task[3],
                                             tasks, tasks)
            assert results == REFERENCE[:20]
            retries.append(executor.last_progress["retries"])
            executor.close()
        assert retries == [len(tasks), len(tasks)]

    def test_journal_cache_skips_recompute(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with ResultStore(path, SPEC_DIGEST) as journal:
            executor = FabricExecutor(workers=2, chaos=None, journal=journal)
            assert executor.map_keyed(_square, TASKS, TASKS) == REFERENCE
        with ResultStore(path, SPEC_DIGEST) as journal:
            executor = FabricExecutor(workers=2, chaos=None, journal=journal)

            def _boom(task):
                raise AssertionError("journalled task recomputed")

            assert executor.map_keyed(_boom, TASKS, TASKS) == REFERENCE
            assert executor.last_progress["cached"] == len(TASKS)


# -- handshake --------------------------------------------------------------

class TestHandshake:
    def test_mismatched_worker_refused(self):
        """A worker launched for another campaign spec must be refused at
        registration — the fabric's SpecMismatchError."""
        # a slow trial body keeps the campaign alive long enough for the
        # foreign worker to reach the handshake
        executor = FabricExecutor(workers=1, chaos=None, chunk_size=2,
                                  spec_digest="campaign-a", key=KEY)
        results = []
        runner = threading.Thread(
            target=lambda: results.append(
                executor.map_keyed(_slow_square, TASKS, TASKS)),
            daemon=True)
        runner.start()
        deadline = time.monotonic() + 5.0
        while executor.last_address is None \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        assert executor.last_address is not None

        foreign = FabricWorker(executor.last_address, key=KEY,
                               digest="campaign-b", chaos=None,
                               max_reconnects=0)
        with pytest.raises(WorkerRefusedError, match="campaign-b"):
            foreign.run()
        runner.join(timeout=30.0)
        assert results == [REFERENCE]  # the legitimate worker finished
        assert executor.counters["workers_refused"] >= 1

    def test_matching_external_worker_serves(self):
        """An external FabricWorker with the right digest (or none) joins
        a running campaign and completes leases."""
        executor = FabricExecutor(workers=0, chaos=None,
                                  spec_digest="campaign-a",
                                  chunk_size=4, key=KEY)
        results = []
        runner = threading.Thread(
            target=lambda: results.append(
                executor.map_keyed(_square, TASKS, TASKS)),
            daemon=True)
        runner.start()
        deadline = time.monotonic() + 5.0
        while executor.last_address is None \
                and time.monotonic() < deadline:
            time.sleep(0.01)

        worker = FabricWorker(executor.last_address, key=KEY,
                              digest="campaign-a", chaos=None)
        completed = worker.run()  # returns after the shutdown message
        runner.join(timeout=30.0)
        assert results == [REFERENCE]
        assert completed >= 1


def _wait_for(predicate, timeout_s: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


class _ServedLease:
    """A bare coordinator serving one lease of ``TASKS[0]`` from a side
    thread, recording every completion it reports."""

    def __init__(self):
        from repro.stats.lease import ChunkLease

        self.coordinator = FabricCoordinator(key=KEY)
        self.address = self.coordinator.start()
        self.completions = []
        lease = ChunkLease([0], [TASKS[0]], [TASKS[0]], lease_id=0)
        self.thread = threading.Thread(
            target=self.coordinator.run, args=(_square, [lease]),
            kwargs={"on_complete": lambda lease, payload:
                    self.completions.append(payload)},
            daemon=True)
        self.thread.start()

    def close(self):
        self.coordinator.close()


class TestAuthentication:
    def test_result_from_unregistered_connection_dropped(self):
        """A peer holding the key but skipping the handshake cannot
        complete a lease: its ``result`` frame is counted and dropped
        before anything is unpickled or journalled."""
        from repro.stats.fabric import _pack

        served = _ServedLease()
        try:
            forger = socket.create_connection(served.address)
            send_message(forger, {"type": "result", "lease": 0,
                                  "worker": "forger",
                                  "payload": _pack(["forged"])}, KEY)
            assert _wait_for(lambda: served.coordinator.counters.get(
                "frames_rejected", 0) >= 1 or served.completions)
            assert served.completions == []
            assert served.coordinator.counters["workers_seen"] == 0
            # the lease is still open: a registered worker completes it
            worker = threading.Thread(
                target=FabricWorker(served.address, key=KEY,
                                    chaos=None).run, daemon=True)
            worker.start()
            served.thread.join(timeout=10.0)
            assert served.completions == [[REFERENCE[0]]]
            forger.close()
        finally:
            served.close()  # the shutdown frame releases the worker
        worker.join(timeout=10.0)
        assert not worker.is_alive()

    def test_impostor_without_key_never_registers(self):
        """A peer speaking the untagged frames of protocol 1 and
        presenting the (public) spec digest gets no welcome — so no
        pickled callable — and its result is never delivered."""
        import struct

        served = _ServedLease()
        try:
            impostor = socket.create_connection(served.address)
            for message in ({"type": "hello", "worker": "impostor",
                             "digest": None, "protocol": 1},
                            {"type": "result", "lease": 0,
                             "worker": "impostor", "payload": "gAVdlC4="}):
                body = json.dumps(message).encode("utf-8")
                impostor.sendall(struct.pack(">I", len(body)) + body)
            assert _wait_for(lambda: served.coordinator.counters.get(
                "workers_refused", 0) >= 1 or served.completions)
            counters = served.coordinator.counters
            assert served.completions == []
            assert counters["workers_seen"] == 0
            assert counters["frames_rejected"] >= 1
            # the refusal it gets back is tagged with a key it lacks
            impostor.settimeout(5.0)
            with pytest.raises(FabricAuthError):
                recv_message(impostor, b"")
            impostor.close()
        finally:
            served.close()

    def test_wrong_key_worker_refused_without_reconnecting(self):
        """A worker holding another key is refused at its first frame and
        stops (no reconnect loop); the campaign finishes on the legitimate
        local worker."""
        from repro.stats.fabric import worker_main

        executor = FabricExecutor(workers=1, chaos=None, chunk_size=2,
                                  key=KEY)
        results = []
        runner = threading.Thread(
            target=lambda: results.append(
                executor.map_keyed(_slow_square, TASKS, TASKS)),
            daemon=True)
        runner.start()
        assert _wait_for(lambda: executor.last_address is not None)
        host, port = executor.last_address
        started = time.monotonic()
        assert worker_main(f"{host}:{port}", key="not-the-key",
                           max_reconnects=8) == 3
        assert time.monotonic() - started < 5.0
        runner.join(timeout=30.0)
        assert results == [REFERENCE]
        assert executor.counters["workers_refused"] >= 1
        assert executor.counters["workers_seen"] == 1

    def test_worker_without_a_key_exits_with_usage_error(self, monkeypatch):
        from repro.stats.fabric import worker_main

        monkeypatch.delenv(FABRIC_KEY_ENV_VAR, raising=False)
        assert worker_main("127.0.0.1:9", max_reconnects=0) == 2


def test_coordinator_stall_does_not_expire_live_workers():
    """Silence is only evidence while the coordinator's own loop runs: a
    loop stalled past a heartbeat interval (GC pause, host steal, a slow
    journal flush) restarts every worker's clock instead of expiring
    workers whose heartbeats sit unread in their sockets — the cause of
    spurious re-leases (and recomputed chunks) under load."""
    from repro.stats.fabric import _WorkerConn

    coordinator = FabricCoordinator(key=KEY, heartbeat_interval_s=0.05)
    left, right = socket.socketpair()
    try:
        conn = _WorkerConn(left, "peer")
        conn.registered = True
        coordinator._conns.add(conn)
        coordinator.counters["workers"] = 1
        now = time.monotonic()
        conn.last_heartbeat = now - 1.0      # nothing heard for 1 s ...
        coordinator._last_sweep = now - 1.0  # ... while the loop was stalled
        coordinator._expire_silent_workers()
        assert coordinator.counters["heartbeats_missed"] == 0
        assert not conn.closed
        # an attentive loop still expires a worker that stays silent
        conn.last_heartbeat = time.monotonic() - 1.0
        coordinator._expire_silent_workers()
        assert coordinator.counters["heartbeats_missed"] == 1
        assert conn.closed
    finally:
        left.close()
        right.close()


def _square_item(item):
    return item * item


def test_local_workers_exit_cleanly_after_short_maps(monkeypatch):
    """Campaigns shorter than a worker's start-up: every local worker is
    told to stop or finds the coordinator gone, and exits 0 on its own —
    none outlives its campaign into the join timeout and a SIGTERM."""
    exit_codes = []
    stop_workers = FabricExecutor._stop_workers

    def _recording(self, procs):
        stop_workers(self, procs)
        exit_codes.extend(proc.exitcode for proc in procs
                          if proc is not None)

    monkeypatch.setattr(FabricExecutor, "_stop_workers", _recording)
    items = list(range(64))
    for _ in range(8):
        executor = FabricExecutor(workers=2, chaos=None)
        assert executor.map(_square_item, items) == [i * i for i in items]
    assert exit_codes == [0] * 16


# -- recovery ---------------------------------------------------------------

class TestRecovery:
    def test_chaos_killed_worker_recovers_by_releasing(self, tmp_path):
        """A worker chaos-crashed mid-campaign, with the respawn budget at
        zero: recovery must come purely from re-leasing the dead worker's
        chunks to the surviving one."""
        chaos_seed = _chaos_seed_with("crash", 0.08, count=1)
        chaos = ChaosConfig(seed=chaos_seed, crash=0.08,
                            state_dir=str(tmp_path / "ledger"))
        executor = FabricExecutor(workers=2, chaos=chaos, chunk_size=2,
                                  max_worker_respawns=0,
                                  heartbeat_interval_s=0.05)
        assert executor.map_keyed(_square, TASKS, TASKS) == REFERENCE
        assert executor.counters["workers_lost"] >= 1
        assert executor.counters["redispatches"] >= 1

    def test_all_workers_dead_budget_exhausted_raises(self, tmp_path):
        """Every worker dead and no respawns left: the journal is
        checkpointed and FabricError says to rerun."""
        chaos = ChaosConfig(seed=_chaos_seed_with("crash", 1.0), crash=1.0,
                            state_dir=str(tmp_path / "ledger"))
        path = str(tmp_path / "j.jsonl")
        with ResultStore(path, SPEC_DIGEST) as journal:
            executor = FabricExecutor(workers=1, chaos=chaos, chunk_size=4,
                                      journal=journal,
                                      max_worker_respawns=0,
                                      heartbeat_interval_s=0.05)
            with pytest.raises(FabricError, match="rerun to resume"):
                executor.map_keyed(_square, TASKS, TASKS)

    def test_connection_drop_is_survived(self, tmp_path):
        """A chaos-scheduled connection drop loses the in-flight result;
        the worker reconnects and the chunk is re-leased."""
        chaos_seed = _chaos_seed_with("drop", 0.08, count=1, net=True)
        chaos = ChaosConfig(seed=chaos_seed, drop=0.08,
                            state_dir=str(tmp_path / "ledger"))
        executor = FabricExecutor(workers=2, chaos=chaos, chunk_size=2,
                                  heartbeat_interval_s=0.05)
        assert executor.map_keyed(_square, TASKS, TASKS) == REFERENCE
        assert executor.counters["workers_lost"] >= 1

    def test_heartbeat_blackhole_expires_and_releases(self, tmp_path):
        """A blackholed worker (no heartbeats, result withheld) must be
        expired via missed heartbeats and its lease re-leased; its late
        delivery dies with the closed socket."""
        chaos_seed = _chaos_seed_with("blackhole", 0.06, count=1, net=True)
        chaos = ChaosConfig(seed=chaos_seed, blackhole=0.06,
                            blackhole_s=1.2,
                            state_dir=str(tmp_path / "ledger"))
        executor = FabricExecutor(workers=2, chaos=chaos, chunk_size=2,
                                  heartbeat_interval_s=0.05,
                                  heartbeat_timeout_s=0.3)
        assert executor.map_keyed(_slow_square, TASKS, TASKS) == REFERENCE
        assert executor.counters["heartbeats_missed"] >= 1

    def test_duplicate_delivery_dropped_before_journal(self, tmp_path):
        """A chaos-duplicated result delivery reaches the coordinator
        twice but the journal exactly once."""
        chaos_seed = _chaos_seed_with("dup", 0.10, net=True)
        chaos = ChaosConfig(seed=chaos_seed, dup=0.10,
                            state_dir=str(tmp_path / "ledger"))
        path = str(tmp_path / "j.jsonl")
        with ResultStore(path, SPEC_DIGEST) as journal:
            executor = FabricExecutor(workers=2, chaos=chaos, chunk_size=2,
                                      journal=journal,
                                      heartbeat_interval_s=0.05)
            assert executor.map_keyed(_square, TASKS, TASKS) == REFERENCE
            assert executor.counters["duplicates_dropped"] >= 1
        lines = _journal_lines(path)
        assert len(lines) == len(TASKS) + 1  # header + one line per task
        assert {tuple(line["k"]) for line in lines[1:]} == set(TASKS)

    def test_delayed_delivery_is_harmless(self, tmp_path):
        chaos_seed = _chaos_seed_with("delay", 0.10, net=True)
        chaos = ChaosConfig(seed=chaos_seed, delay=0.10, delay_s=0.2,
                            state_dir=str(tmp_path / "ledger"))
        executor = FabricExecutor(workers=2, chaos=chaos, chunk_size=2,
                                  heartbeat_interval_s=0.05)
        assert executor.map_keyed(_square, TASKS, TASKS) == REFERENCE

    def test_straggler_lease_stolen_first_completion_wins(self, tmp_path):
        """A hang-chaosed worker holds its lease past steal_after_s while
        an idle worker exists: the lease is stolen, the thief's result
        wins, and the straggler's late duplicate is dropped."""
        chaos_seed = _chaos_seed_with("hang", 0.05, count=1)
        chaos = ChaosConfig(seed=chaos_seed, hang=0.05, hang_s=1.5,
                            state_dir=str(tmp_path / "ledger"))
        executor = FabricExecutor(workers=2, chaos=chaos, chunk_size=4,
                                  heartbeat_interval_s=0.05,
                                  heartbeat_timeout_s=5.0,
                                  steal_after_s=0.2)
        assert executor.map_keyed(_square, TASKS, TASKS) == REFERENCE
        assert executor.counters["leases_stolen"] >= 1

    def test_interrupted_coordinator_resumes_with_zero_recompute(
            self, tmp_path):
        """Coordinator death (simulated Ctrl-C out of on_progress): the
        journal holds every completed chunk, and the rerun executes only
        the tasks the journal is missing."""
        path = str(tmp_path / "j.jsonl")
        log = str(tmp_path / "exec.log")

        def interrupt(progress):
            if progress["completed"] - progress["cached"] >= 2:
                raise KeyboardInterrupt

        with ResultStore(path, SPEC_DIGEST) as journal:
            executor = FabricExecutor(workers=2, chaos=None, chunk_size=2,
                                      journal=journal,
                                      heartbeat_interval_s=0.05,
                                      on_progress=interrupt)
            with pytest.raises(KeyboardInterrupt):
                executor.map_keyed(_CountingTrial(log), TASKS, TASKS)

        with ResultStore(path, SPEC_DIGEST) as journal:
            done = set(journal.keys())
        assert done and done < set(TASKS)  # durable, partial checkpoint
        executed_before = _executions(log)

        with ResultStore(path, SPEC_DIGEST) as journal:
            executor = FabricExecutor(workers=2, chaos=None, chunk_size=2,
                                      journal=journal,
                                      heartbeat_interval_s=0.05)
            assert executor.map_keyed(_CountingTrial(log), TASKS,
                                      TASKS) == REFERENCE
            assert executor.last_progress["cached"] == len(done)
        executed = _executions(log)
        # zero recompute of journalled work: the rerun executed exactly
        # the tasks the journal was missing
        assert len(executed) - len(executed_before) == len(TASKS) - len(done)


# -- acceptance (ISSUE): an ext_interference campaign on the fabric ---------

SWEEP_SEED = 313
SWEEP_TRIALS = 4


class _CountingCampaignTrial:
    """Picklable ``ext_interference.run_trial`` wrapper logging every
    execution's seed to an O_APPEND side file (fork-safe)."""

    def __init__(self, path):
        self.path = path

    def __call__(self, x, seed):
        from repro.experiments import ext_interference

        with open(self.path, "a", encoding="utf-8") as stream:
            stream.write(f"{seed:#x}\n")
        return ext_interference.run_trial(x, seed)


def test_issue_acceptance_worker_killed_mid_campaign(
        tiny_experiments, monkeypatch, tmp_path):
    """The ISSUE bar: a 2-worker localhost fabric run of the
    ``ext_interference`` campaign with one worker chaos-killed mid-run
    (respawn budget zero, so recovery is pure re-leasing) completes
    byte-identical to the sequential reference, journals each task
    exactly once, and a rerun recomputes nothing."""
    import pickle

    from repro.experiments import ext_interference
    from repro.experiments.common import run_sweep
    from repro.stats.chaos import CHAOS_ENV_VAR
    from repro.stats.sweep import Sweep, flat_tasks

    monkeypatch.delenv(CHAOS_ENV_VAR, raising=False)
    monkeypatch.delenv(FABRIC_ENV_VAR, raising=False)
    resume_dir = str(tmp_path / "journals")
    xs = [(float(count), str(count))
          for count in ext_interference.PICONET_COUNTS]
    sweep = Sweep(master_seed=SWEEP_SEED, trials_per_point=SWEEP_TRIALS)
    tasks, _ = flat_tasks([(sweep, xs, ext_interference.run_trial)])

    reference = run_sweep(SWEEP_SEED, SWEEP_TRIALS, xs,
                          ext_interference.run_trial, jobs=1)
    reference_bytes = pickle.dumps(reference)

    seeds = [task[3] for task in tasks]
    chaos_seed = _chaos_seed_with("crash", 0.1, count=1, seeds=seeds)
    chaos = ChaosConfig(seed=chaos_seed, crash=0.1,
                        state_dir=str(tmp_path / "ledger"))

    log = str(tmp_path / "campaign.log")
    campaign_fn = _CountingCampaignTrial(log)
    executor = FabricExecutor(workers=2, chaos=chaos, chunk_size=2,
                              max_worker_respawns=0,
                              heartbeat_interval_s=0.05)
    result = run_sweep(SWEEP_SEED, SWEEP_TRIALS, xs, campaign_fn,
                       executor=executor, resume=resume_dir,
                       store_name="fabric")
    assert pickle.dumps(result) == reference_bytes
    assert executor.counters["workers_lost"] >= 1  # the kill happened

    journal_path = os.path.join(resume_dir, "fabric.jsonl")
    lines = _journal_lines(journal_path)
    assert len(lines) == len(tasks) + 1  # header + exactly one per task
    assert {tuple(line["k"]) for line in lines[1:]} == set(tasks)

    # lost work is bounded by the crashed chunk: only its trials rerun
    executed = _executions(log)
    assert len(tasks) <= len(executed) <= len(tasks) + executor.chunk_size, \
        executor.counters

    # zero recompute of journalled work: a fresh fabric run against the
    # complete journal executes nothing
    rerun = run_sweep(SWEEP_SEED, SWEEP_TRIALS, xs, campaign_fn,
                      executor=FabricExecutor(workers=2, chaos=None),
                      resume=resume_dir, store_name="fabric")
    assert pickle.dumps(rerun) == reference_bytes
    assert _executions(log) == executed


def test_string_executor_runs_on_fabric_from_env(
        tiny_experiments, monkeypatch):
    """``executor="fabric"`` + ``REPRO_FABRIC`` spec: the campaign runs
    on an owned fabric executor and still hits the sequential bytes."""
    import pickle

    from repro.experiments import ext_interference
    from repro.experiments.common import run_sweep
    from repro.stats.chaos import CHAOS_ENV_VAR

    monkeypatch.delenv(CHAOS_ENV_VAR, raising=False)
    xs = [(float(count), str(count))
          for count in ext_interference.PICONET_COUNTS]
    reference_bytes = pickle.dumps(
        run_sweep(SWEEP_SEED, SWEEP_TRIALS, xs,
                  ext_interference.run_trial, jobs=1))
    monkeypatch.setenv(FABRIC_ENV_VAR, "workers=2,chunk=2")
    result = run_sweep(SWEEP_SEED, SWEEP_TRIALS, xs,
                       ext_interference.run_trial, executor="fabric")
    assert pickle.dumps(result) == reference_bytes
