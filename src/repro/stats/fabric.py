"""Distributed sweep fabric: lease-based multi-process campaign execution.

This is the one multi-process backend of the fault-tolerant execution
stack: a TCP **coordinator** (:class:`FabricCoordinator`) that leases the
same seed-addressed ``(sweep, point, trial, seed)`` task chunks the
result journal uses to **workers** (:class:`FabricWorker`) — forked
loopback workers for ``--jobs N``, and/or ``fabric-worker`` processes on
other hosts — behind the ordinary
:class:`~repro.stats.executor.Executor` interface
(:class:`FabricExecutor`).  Because every trial is a pure function of its
derived seed, fanning a campaign across processes or hosts changes
nothing about its outcome: a fabric run pickles byte-identical to the
sequential reference, which is exactly what the acceptance suite asserts.

Protocol
--------
Length-prefixed, authenticated JSON frames over a plain TCP socket: a
4-byte big-endian length, a 32-byte HMAC-SHA256 tag of the body under
the shared fabric key, then the UTF-8 JSON object.  The tag is checked
with :func:`hmac.compare_digest` before the body is decoded, so nothing
from a peer without the key is ever JSON-decoded or unpickled.  Binary
payloads (the trial callable, chunk items, trial outcomes) ride as
base64 pickles, like the journal's records.  The flow:

* ``hello`` (worker → coordinator): name + the campaign-spec digest the
  worker was launched for (or null for "any").  A mismatched digest is
  **refused** — the fabric analogue of
  :class:`~repro.stats.store.SpecMismatchError`, so a stale worker can
  never feed results into the wrong campaign.
* ``welcome`` (coordinator → worker): the coordinator's digest, the
  pickled trial callable, and the heartbeat interval.
* ``lease`` (coordinator → worker): one chunk — journal keys + items.
* ``result`` / ``error`` (worker → coordinator): the chunk's outcome
  list, or the wrapped :class:`~repro.stats.montecarlo.TrialExecutionError`.
  Accepted only from a connection that completed the handshake.
* ``heartbeat`` (worker → coordinator): sent every interval from a
  side thread, so a long trial never looks like a dead worker.
* ``shutdown`` (coordinator → worker): campaign complete.

Journal resume, completion-order checkpoints, ordered progress, the
in-process fallback and the retry rule are the keyed-run core of
:mod:`repro.stats.lease`, shared with the in-process
:class:`~repro.stats.resilient.ResilientExecutor`; this module adds the
one lease-and-recover loop (:meth:`FabricCoordinator.run`).  Failure
semantics (all journal-backed):

* **worker death / connection drop** — the worker's leases lose their
  owner and are re-leased to the next idle worker; locally forked
  workers are respawned up to ``max_worker_respawns`` times, and past
  the budget, with no worker left, the campaign dies checkpointed.
* **missed heartbeats** — a worker silent past ``heartbeat_timeout_s``
  is expired and its leases re-leased; its late results arrive as
  duplicates and are dropped before the journal.
* **stragglers** — with ``steal_after_s`` set, an idle worker *steals* a
  duplicate assignment of the oldest in-flight lease; first completion
  wins, the loser is discarded pre-journal.
* **coordinator death** (Ctrl-C included) — every completed chunk was
  journalled and fsynced on arrival, so rerunning the campaign resumes
  from the checkpoint exactly like any other killed run.

Network chaos (connection drop, heartbeat blackhole, duplicated and
delayed delivery) is scheduled by :mod:`repro.stats.chaos` as a pure
function of the chaos and trial seeds, so all of the above is exercised
deterministically in CI over localhost (``REPRO_CHAOS`` with
``drop=``/``blackhole=``/``dup=``/``delay=`` bands).

Activation: ``--jobs N`` (forked loopback workers), or ``REPRO_FABRIC``
/ ``--fabric`` / ``executor="fabric"`` on the sweep entry points with a
spec, e.g. ``REPRO_FABRIC="workers=4"``, or
``REPRO_FABRIC="bind=0.0.0.0:7919,workers=0"`` plus ``python -m repro
fabric-worker HOST:7919`` on other hosts — both sides holding the same
``REPRO_FABRIC_KEY``.

Trust model: frames carry pickles, so only peers holding the fabric key
may speak.  Locally forked workers share a fresh per-run
:mod:`secrets` key that they inherit through fork and that never
crosses the wire; remote workers and coordinators take the key from
``REPRO_FABRIC_KEY`` (or ``fabric-worker --key``), and a coordinator
that serves external workers without a key is refused.  The tag
authenticates each frame, not the session: replaying a captured frame
is out of scope (a replayed result is a duplicate the lease table drops;
a replayed lease recomputes a pure trial), and frames are not
encrypted — trial inputs and outcomes travel in the clear.
"""

from __future__ import annotations

import base64
import hashlib
import hmac
import json
import os
import pickle
import secrets
import socket
import struct
import threading
import time
from queue import Empty, Queue
from typing import Any, Callable, Optional, Sequence

from repro.stats.chaos import (
    FAULT_KINDS,
    NET_FAULT_KINDS,
    ChaosConfig,
    ChaosError,
    maybe_net_fault,
)
from repro.stats.lease import (
    ChunkLease,
    KeyedExecutor,
    KeyedRun,
    retry_or_give_up,
    run_chunk,
)
from repro.stats.montecarlo import TrialExecutionError
from repro.stats.store import ResultStore

#: Environment knob: run campaigns on the distributed fabric, e.g.
#: ``REPRO_FABRIC="workers=2"`` (see :meth:`FabricExecutor.from_spec`).
FABRIC_ENV_VAR = "REPRO_FABRIC"

#: Environment credential: the shared key that authenticates every
#: fabric frame between a coordinator and its remote workers.
FABRIC_KEY_ENV_VAR = "REPRO_FABRIC_KEY"

#: Wire protocol version, checked at handshake (2: HMAC-tagged frames).
PROTOCOL_VERSION = 2

#: Frame size guard: a single message may not exceed this many bytes.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Digest placeholder for journal-less runs (any worker is accepted).
UNBOUND_DIGEST = "unbound"

_LEN = struct.Struct(">I")

#: Length of the HMAC-SHA256 tag leading every frame body.
_TAG_BYTES = hashlib.sha256().digest_size


class FabricError(RuntimeError):
    """Base class of fabric failures."""


class FabricProtocolError(FabricError):
    """A malformed or oversized frame arrived on a fabric connection."""


class FabricAuthError(FabricProtocolError):
    """A frame failed its HMAC check: a peer without the fabric key (or
    with another key), or a frame altered in transit."""


class WorkerRefusedError(FabricError):
    """The handshake was refused: the worker and coordinator belong to
    different campaign specs (the fabric's ``SpecMismatchError``)."""


class _InjectedDrop(ConnectionError):
    """A chaos-scheduled connection drop (worker side, fire-once)."""


# -- framing ---------------------------------------------------------------

def _tag(key: bytes, body: bytes) -> bytes:
    return hmac.new(key, body, hashlib.sha256).digest()


def send_message(sock: socket.socket, message: dict, key: bytes) -> None:
    """Send one length-prefixed, ``key``-tagged JSON frame."""
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    data = _tag(key, body) + body
    if len(data) > MAX_FRAME_BYTES:
        raise FabricProtocolError(
            f"refusing to send a {len(data)}-byte frame "
            f"(cap {MAX_FRAME_BYTES})")
    sock.sendall(_LEN.pack(len(data)) + data)


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None
        buf += chunk
    return bytes(buf)


def recv_message(sock: socket.socket, key: bytes) -> Optional[dict]:
    """Receive one frame; None on a clean (or mid-frame) connection end.

    The body's tag is checked against ``key`` before anything is
    decoded; a mismatch raises :class:`FabricAuthError`.
    """
    header = _recv_exact(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FabricProtocolError(
            f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES} cap")
    data = _recv_exact(sock, length)
    if data is None:
        return None
    tag, body = data[:_TAG_BYTES], data[_TAG_BYTES:]
    if not hmac.compare_digest(tag, _tag(key, body)):
        raise FabricAuthError(
            "frame failed authentication (wrong fabric key or altered "
            "in transit)")
    try:
        message = json.loads(body)
        if not isinstance(message, dict):
            raise ValueError("frames are JSON objects")
    except ValueError as error:
        raise FabricProtocolError(f"malformed frame ({error})") from error
    return message


def _pack(obj: Any) -> str:
    """Base64 pickle, the binary-payload encoding of the protocol."""
    return base64.b64encode(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)).decode("ascii")


def _unpack(payload: str) -> Any:
    return pickle.loads(base64.b64decode(payload))


def parse_address(value: str) -> tuple[str, int]:
    """``host:port`` → ``(host, port)``; a bare ``:port`` binds loopback."""
    host, sep, port = value.rpartition(":")
    if not sep or not port:
        raise ValueError(f"expected host:port, got {value!r}")
    return (host or "127.0.0.1", int(port))


def fabric_key(value: Optional[str] = None) -> Optional[bytes]:
    """The fabric key from ``value``, else ``REPRO_FABRIC_KEY``; None when
    neither is set (blank counts as unset)."""
    if value is None:
        value = os.environ.get(FABRIC_KEY_ENV_VAR)
    value = (value or "").strip()
    return value.encode("utf-8") if value else None


def _is_loopback(host: str) -> bool:
    return host in ("localhost", "::1") or host.startswith("127.")


def _shut(sock: socket.socket) -> None:
    """Shut ``sock`` down, then close it.  Forked workers inherit copies
    of the coordinator's descriptors, so closing ours alone does not close
    the socket: a listener would keep queueing connections nobody
    accepts, and a peer would never see a FIN.  shutdown() acts on the
    socket itself — a listener stops listening (resetting its queue), a
    connection sends its FIN — whoever else holds a descriptor."""
    for end in (lambda: sock.shutdown(socket.SHUT_RDWR), sock.close):
        try:
            end()
        except OSError:
            pass


# -- worker side -----------------------------------------------------------

class FabricWorker:
    """One fabric worker: connect, register, compute leases, heartbeat.

    ``key`` is the shared fabric key every frame is tagged and checked
    with; a coordinator whose frames fail the check raises
    :class:`FabricAuthError` (no retry: a wrong key stays wrong).
    ``digest`` is the campaign-spec digest this worker was launched for
    (None accepts any campaign); a mismatch either way raises
    :class:`WorkerRefusedError` instead of computing for the wrong
    campaign.  Connection loss — injected or real — re-enters the
    connect loop with exponential backoff (``reconnect_base_s`` doubling
    up to ``reconnect_cap_s``, giving up after ``max_reconnects``
    consecutive failed attempts).  ``chaos`` drives both the process
    faults of :func:`~repro.stats.chaos.maybe_inject` and the
    delivery-side network faults (drop / blackhole / dup / delay).
    """

    def __init__(self, address: tuple[str, int], *, key: bytes,
                 name: Optional[str] = None,
                 digest: Optional[str] = None,
                 chaos: Optional[ChaosConfig] = None,
                 reconnect_base_s: float = 0.05,
                 reconnect_cap_s: float = 2.0,
                 max_reconnects: int = 8,
                 connect_timeout_s: float = 5.0):
        self.address = address
        self.key = key
        self.name = name or f"{socket.gethostname()}-pid{os.getpid()}"
        self.digest = digest
        self.chaos = chaos if chaos is not None else ChaosConfig.from_env()
        self.reconnect_base_s = reconnect_base_s
        self.reconnect_cap_s = reconnect_cap_s
        self.max_reconnects = max_reconnects
        self.connect_timeout_s = connect_timeout_s
        #: leases completed (result delivered) by this worker.
        self.completed = 0
        self._sock: Optional[socket.socket] = None
        self._send_lock = threading.Lock()
        self._suppress_heartbeats_until = 0.0
        self._shutdown = False

    # -- plumbing ---------------------------------------------------------

    def _send(self, message: dict) -> None:
        with self._send_lock:
            send_message(self._sock, message, self.key)

    def _heartbeat_loop(self, interval_s: float,
                        stop: threading.Event) -> None:
        while not stop.wait(interval_s):
            if time.monotonic() < self._suppress_heartbeats_until:
                continue  # chaos blackhole: the coordinator hears nothing
            try:
                self._send({"type": "heartbeat", "worker": self.name})
            except OSError:
                return

    # -- the work loop ----------------------------------------------------

    def run(self) -> int:
        """Serve one campaign; returns the number of leases completed.

        Exits on the coordinator's ``shutdown`` (campaign complete) or
        once ``max_reconnects`` consecutive connection attempts fail
        (coordinator gone).  :class:`WorkerRefusedError` and
        :class:`FabricAuthError` propagate — a refused worker should be
        noisy, not retry forever.
        """
        failed_attempts = 0
        while not self._shutdown:
            try:
                sock = socket.create_connection(
                    self.address, timeout=self.connect_timeout_s)
            except OSError:
                failed_attempts += 1
                if failed_attempts > self.max_reconnects:
                    return self.completed
                time.sleep(min(self.reconnect_cap_s,
                               self.reconnect_base_s
                               * (2 ** (failed_attempts - 1))))
                continue
            failed_attempts = 0
            sock.settimeout(None)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            stop_heartbeat = threading.Event()
            self._sock = sock
            try:
                self._serve(sock, stop_heartbeat)
            except FabricAuthError:
                raise
            except (ConnectionError, OSError, FabricProtocolError):
                # drop (injected or real): back to the connect loop
                time.sleep(self.reconnect_base_s)
            finally:
                stop_heartbeat.set()
                self._sock = None
                try:
                    sock.close()
                except OSError:
                    pass
        return self.completed

    def _serve(self, sock: socket.socket, stop_heartbeat: threading.Event
               ) -> None:
        self._send({"type": "hello", "worker": self.name,
                    "digest": self.digest, "protocol": PROTOCOL_VERSION})
        reply = recv_message(sock, self.key)
        if reply is None:
            raise ConnectionError("coordinator closed during handshake")
        if reply.get("type") == "refuse":
            raise WorkerRefusedError(
                reply.get("reason", "worker refused by coordinator"))
        if reply.get("type") != "welcome":
            raise FabricProtocolError(
                f"expected welcome, got {reply.get('type')!r}")
        if self.digest is not None \
                and reply.get("digest") not in (None, UNBOUND_DIGEST,
                                                self.digest):
            raise WorkerRefusedError(
                f"coordinator serves campaign {reply.get('digest')!r}, "
                f"this worker was launched for {self.digest!r}")
        fn = _unpack(reply["fn"])
        threading.Thread(
            target=self._heartbeat_loop,
            args=(float(reply.get("heartbeat_s", 0.2)), stop_heartbeat),
            daemon=True).start()
        while True:
            message = recv_message(sock, self.key)
            if message is None:
                raise ConnectionError("coordinator closed the connection")
            mtype = message.get("type")
            if mtype == "lease":
                self._handle_lease(fn, message)
            elif mtype == "shutdown":
                self._shutdown = True
                return
            # unknown message types are ignored (forward compatibility)

    def _handle_lease(self, fn: Callable, message: dict) -> None:
        lease_id = message["lease"]
        keys = [tuple(key) for key in message["keys"]]
        items = _unpack(message["items"])
        try:
            payload = run_chunk(fn, items, keys, self.chaos)
        except (ChaosError, TrialExecutionError) as error:
            self._send({"type": "error", "lease": lease_id,
                        "error": _pack(error)})
            return
        # delivery-side network chaos: claim at most one fault per task,
        # apply the strongest scheduled behaviour to this delivery
        plan = {maybe_net_fault(self.chaos, key[3]) for key in keys}
        plan.discard(None)
        if "drop" in plan:
            raise _InjectedDrop(
                "chaos: connection dropped before result delivery")
        if "blackhole" in plan:
            # total radio silence: no heartbeats, no result, for the
            # blackhole window — the coordinator expires the lease
            self._suppress_heartbeats_until = \
                time.monotonic() + self.chaos.blackhole_s
            time.sleep(self.chaos.blackhole_s)
        elif "delay" in plan:
            time.sleep(self.chaos.delay_s)
        result = {"type": "result", "lease": lease_id,
                  "worker": self.name, "payload": _pack(payload)}
        self._send(result)
        if "dup" in plan:
            self._send(result)
        self.completed += 1


def worker_main(address: str, *, key: Optional[str] = None,
                digest: Optional[str] = None,
                name: Optional[str] = None,
                max_reconnects: int = 8) -> int:
    """CLI entry point (``python -m repro fabric-worker HOST:PORT``).

    ``key`` (else ``REPRO_FABRIC_KEY``) is the coordinator's fabric key.
    Returns a process exit status: 0 after a clean campaign shutdown or
    a coordinator that went away, 2 without a key, 3 when the
    coordinator refused the worker (digest mismatch) or the two sides
    hold different keys.
    """
    secret = fabric_key(key)
    if secret is None:
        print(f"fabric-worker: no fabric key (pass --key or set "
              f"{FABRIC_KEY_ENV_VAR})", flush=True)
        return 2
    worker = FabricWorker(parse_address(address), key=secret, digest=digest,
                          name=name, max_reconnects=max_reconnects)
    try:
        completed = worker.run()
    except (WorkerRefusedError, FabricAuthError) as error:
        print(f"fabric-worker refused: {error}", flush=True)
        return 3
    print(f"fabric-worker {worker.name}: {completed} leases completed",
          flush=True)
    return 0


# -- coordinator side ------------------------------------------------------

class _WorkerConn:
    """Coordinator-side state of one worker connection."""

    __slots__ = ("sock", "peer", "name", "registered", "last_heartbeat",
                 "lease", "closed")

    def __init__(self, sock: socket.socket, peer):
        self.sock = sock
        self.peer = peer
        self.name = "?"
        self.registered = False
        self.last_heartbeat = time.monotonic()
        self.lease: Optional[ChunkLease] = None
        self.closed = False


def new_counters() -> dict:
    """A fresh fabric counter dict (also the progress-dict key set)."""
    return {"workers": 0, "workers_seen": 0, "workers_lost": 0,
            "workers_refused": 0, "frames_rejected": 0, "leases_stolen": 0,
            "heartbeats_missed": 0, "duplicates_dropped": 0,
            "retries": 0, "redispatches": 0, "respawns": 0}


class FabricCoordinator:
    """The leasing server: worker registry, lease table, recovery loop.

    Owns the listening socket and one reader thread per worker
    connection; all sends happen from the :meth:`run` loop thread, so no
    per-socket write locking is needed.  Every frame is tagged and
    checked with ``key``; a connection whose frame fails the check is
    refused (before the handshake) or dropped (after it), and ``result``
    / ``error`` frames count only from connections that completed the
    handshake (``frames_rejected`` counts the rest).  ``counters`` (see
    :func:`new_counters`) is shared with the caller for progress
    reporting.
    """

    def __init__(self, bind: tuple[str, int] = ("127.0.0.1", 0), *,
                 key: bytes,
                 digest: str = UNBOUND_DIGEST,
                 heartbeat_interval_s: float = 0.2,
                 heartbeat_timeout_s: Optional[float] = None,
                 steal_after_s: Optional[float] = None,
                 max_steals: int = 2,
                 max_retries: int = 2,
                 backoff_base_s: float = 0.25,
                 counters: Optional[dict] = None):
        self.bind = bind
        self.key = key
        self.digest = digest
        self.heartbeat_interval_s = heartbeat_interval_s
        self.heartbeat_timeout_s = (heartbeat_timeout_s
                                    if heartbeat_timeout_s is not None
                                    else 5.0 * heartbeat_interval_s)
        self.steal_after_s = steal_after_s
        self.max_steals = max_steals
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.counters = counters if counters is not None else new_counters()
        self.address: Optional[tuple[str, int]] = None
        self._sock: Optional[socket.socket] = None
        self._events: Queue = Queue()
        self._conns: set = set()
        self._stop = threading.Event()

    # -- lifecycle --------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Bind, listen and start accepting; returns the bound address
        (resolving an ephemeral port request)."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(self.bind)
        sock.listen(64)
        sock.settimeout(0.2)
        self._sock = sock
        self.address = sock.getsockname()[:2]
        threading.Thread(target=self._accept_loop, daemon=True).start()
        return self.address

    def close(self) -> None:
        """Stop accepting, shut workers down, close every socket."""
        self._stop.set()
        if self._sock is not None:
            _shut(self._sock)
            self._sock = None
        for conn in list(self._conns):
            if conn.registered and not conn.closed:
                self._send(conn, {"type": "shutdown"})
            self._close_conn(conn)

    def __enter__(self) -> "FabricCoordinator":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- connection plumbing (reader threads) -----------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                client, peer = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            client.settimeout(None)
            client.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _WorkerConn(client, peer)
            self._conns.add(conn)
            if self._stop.is_set():
                # accepted while close() ran: it may have missed this one
                self._close_conn(conn)
                return
            threading.Thread(target=self._reader_loop, args=(conn,),
                             daemon=True).start()

    def _send(self, conn: _WorkerConn, message: dict) -> bool:
        try:
            send_message(conn.sock, message, self.key)
        except OSError:
            return False
        return True

    def _reader_loop(self, conn: _WorkerConn) -> None:
        while True:
            try:
                message = recv_message(conn.sock, self.key)
            except FabricAuthError as error:
                self._events.put(("forged", conn, repr(error)))
                return
            except (OSError, FabricProtocolError) as error:
                self._events.put(("dead", conn, repr(error)))
                return
            if message is None:
                self._events.put(("dead", conn, "connection closed"))
                return
            conn.last_heartbeat = time.monotonic()
            mtype = message.get("type")
            if mtype == "heartbeat":
                continue  # the timestamp update above is the whole point
            if mtype in ("hello", "result", "error"):
                self._events.put((mtype, conn, message))
            # anything else: ignored for forward compatibility

    def _close_conn(self, conn: _WorkerConn) -> None:
        if conn.closed:
            return
        conn.closed = True
        self._conns.discard(conn)
        if conn.registered:
            self.counters["workers"] -= 1
        _shut(conn.sock)

    # -- the recovery loop ------------------------------------------------

    def run(self, fn: Callable, leases: Sequence[ChunkLease], *,
            on_complete: Callable[[ChunkLease, list], None],
            on_tick: Optional[Callable[[], None]] = None) -> None:
        """Serve ``leases`` until every one is completed.

        ``on_complete(lease, payload)`` fires exactly once per lease, in
        completion order, from this thread.  ``on_tick`` fires every loop
        iteration (the executor uses it for local-worker respawn).
        Raises the underlying error once a lease exhausts
        ``max_retries`` failed attempts.
        """
        fn_payload = _pack(fn)
        self._last_sweep = time.monotonic()
        by_id = {lease.lease_id: lease for lease in leases}
        remaining = sum(1 for lease in leases if not lease.done)
        while remaining:
            event = self._next_event()
            while event is not None:
                kind, conn, detail = event
                if kind == "hello":
                    self._handle_hello(conn, detail, fn_payload)
                elif kind == "dead":
                    self._handle_dead(conn)
                elif kind == "result":
                    remaining -= self._handle_result(conn, detail, by_id,
                                                     on_complete)
                elif kind == "error":
                    self._handle_error(conn, detail, by_id)
                elif kind == "forged":
                    self._handle_forged(conn, detail)
                event = self._next_event(block=False)
            self._expire_silent_workers()
            self._assign_leases(leases)
            if on_tick is not None:
                on_tick()

    def _next_event(self, block: bool = True):
        try:
            return self._events.get(timeout=0.02 if block else 0)
        except Empty:
            return None

    def _handle_hello(self, conn: _WorkerConn, message: dict,
                      fn_payload: str) -> None:
        worker_digest = message.get("digest")
        conn.name = str(message.get("worker", conn.peer))
        if message.get("protocol") != PROTOCOL_VERSION:
            reason = (f"protocol {message.get('protocol')!r} != "
                      f"{PROTOCOL_VERSION}")
        elif worker_digest is not None and worker_digest != self.digest:
            reason = (f"worker {conn.name} belongs to campaign spec "
                      f"{worker_digest!r}, this coordinator serves "
                      f"{self.digest!r} — refusing registration")
        else:
            reason = None
        if reason is not None:
            self._refuse(conn, reason)
            return
        if not self._send(conn, {"type": "welcome", "digest": self.digest,
                                 "fn": fn_payload,
                                 "heartbeat_s": self.heartbeat_interval_s}):
            self._close_conn(conn)
            return
        conn.registered = True
        conn.last_heartbeat = time.monotonic()
        self.counters["workers"] += 1
        self.counters["workers_seen"] += 1

    def _refuse(self, conn: _WorkerConn, reason: str) -> None:
        self.counters["workers_refused"] += 1
        self._send(conn, {"type": "refuse", "reason": reason})
        self._close_conn(conn)

    def _handle_forged(self, conn: _WorkerConn, detail: str) -> None:
        """A frame failed authentication: an impostor before the
        handshake is refused (the refusal, tagged with our key, fails
        *its* check, so it stops instead of reconnecting); a registered
        connection carrying one is treated as lost."""
        self.counters["frames_rejected"] += 1
        if conn.registered:
            self._handle_dead(conn)
        elif not conn.closed:
            self._refuse(conn, detail)

    def _handle_dead(self, conn: _WorkerConn) -> None:
        if conn.closed:
            return  # already expired by the heartbeat check
        registered = conn.registered
        self._release_lease_of(conn)
        self._close_conn(conn)
        if registered:
            self.counters["workers_lost"] += 1

    def _release_lease_of(self, conn: _WorkerConn) -> None:
        lease = conn.lease
        conn.lease = None
        if lease is None:
            return
        lease.owners.discard(conn)
        if not lease.done and not lease.owners:
            # back to the unassigned pool; the assignment loop re-leases
            self.counters["redispatches"] += 1

    def _handle_result(self, conn: _WorkerConn, message: dict, by_id: dict,
                       on_complete: Callable) -> int:
        if not conn.registered:
            self.counters["frames_rejected"] += 1
            return 0
        lease = by_id.get(message.get("lease"))
        if conn.lease is lease:
            conn.lease = None
        if lease is None or lease.done:
            self.counters["duplicates_dropped"] += 1
            return 0
        lease.done = True
        lease.owners.discard(conn)
        # stolen duplicates still in flight finish and report later;
        # they land in the duplicates_dropped branch above
        on_complete(lease, _unpack(message["payload"]))
        return 1

    def _handle_error(self, conn: _WorkerConn, message: dict,
                      by_id: dict) -> None:
        if not conn.registered:
            self.counters["frames_rejected"] += 1
            return
        lease = by_id.get(message.get("lease"))
        if conn.lease is lease:
            conn.lease = None
        if lease is None or lease.done:
            return
        lease.owners.discard(conn)
        retry_or_give_up(lease, _unpack(message["error"]), self.max_retries,
                         self.backoff_base_s, self.counters)

    def _expire_silent_workers(self) -> None:
        now = time.monotonic()
        stalled = now - self._last_sweep > self.heartbeat_interval_s
        self._last_sweep = now
        for conn in list(self._conns):
            if not conn.registered or conn.closed:
                continue
            if stalled:
                # this loop was not running (GC pause, host steal, a slow
                # journal flush): silence measured across its own stall
                # says nothing about a worker whose heartbeats may sit
                # unread in the socket, so every clock restarts
                conn.last_heartbeat = now
            elif now - conn.last_heartbeat > self.heartbeat_timeout_s:
                self.counters["heartbeats_missed"] += 1
                self._handle_dead(conn)

    def _assign_leases(self, leases: Sequence[ChunkLease]) -> None:
        now = time.monotonic()
        idle = [conn for conn in self._conns
                if conn.registered and not conn.closed and conn.lease is None]
        if not idle:
            return
        unassigned = [lease for lease in leases
                      if not lease.done and not lease.owners
                      and (lease.retry_at is None or now >= lease.retry_at)]
        for conn in idle:
            if unassigned:
                lease = unassigned.pop(0)
            else:
                lease = self._steal_candidate(leases, conn, now)
                if lease is None:
                    continue
                lease.steals += 1
                self.counters["leases_stolen"] += 1
            self._send_lease(conn, lease, now)

    def _steal_candidate(self, leases: Sequence[ChunkLease],
                         conn: _WorkerConn, now: float
                         ) -> Optional[ChunkLease]:
        """The oldest in-flight lease worth duplicating onto an idle
        worker — none unless stealing is enabled and the lease has been
        out past ``steal_after_s`` with steals left in its budget."""
        if self.steal_after_s is None:
            return None
        candidates = [
            lease for lease in leases
            if not lease.done and lease.owners and conn not in lease.owners
            and lease.steals < self.max_steals
            and lease.assigned_at is not None
            and now - lease.assigned_at >= self.steal_after_s
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda lease: lease.assigned_at)

    def _send_lease(self, conn: _WorkerConn, lease: ChunkLease,
                    now: float) -> None:
        if not self._send(conn, {"type": "lease", "lease": lease.lease_id,
                                 "keys": [list(key) for key in lease.keys],
                                 "items": _pack(lease.items)}):
            self._events.put(("dead", conn, "send failed"))
            return
        conn.lease = lease
        lease.owners.add(conn)
        lease.assigned_at = now
        lease.retry_at = None

    @property
    def registered_workers(self) -> int:
        return sum(1 for conn in self._conns
                   if conn.registered and not conn.closed)


# -- the executor ----------------------------------------------------------

def _local_worker_main(address, key, digest, chaos, name):
    """Entry point of a locally forked fabric worker process.

    No reconnect backoff: the coordinator listens before any local worker
    is forked, so a refused connection means the campaign already ended
    and the worker exits at once (status 0) instead of outliving it.
    """
    worker = FabricWorker(address, key=key, digest=digest, chaos=chaos,
                          name=name, max_reconnects=0)
    try:
        worker.run()
    except (WorkerRefusedError, FabricAuthError):
        os._exit(3)


class FabricExecutor(KeyedExecutor):
    """Campaign execution on the distributed fabric, behind the ordinary
    :class:`~repro.stats.executor.Executor` interface.

    Each ``map``/``map_keyed`` call starts a fresh coordinator on
    ``bind`` (ephemeral port by default), optionally forks ``workers``
    local worker processes pointed at it, and serves the task queue until
    complete — external workers started with ``python -m repro
    fabric-worker`` and the same ``key`` join the same campaign.
    ``key`` defaults to ``REPRO_FABRIC_KEY``; without one, each run draws
    a fresh :mod:`secrets` key that only its forked workers inherit, and
    a bind that serves external workers (non-loopback, or ``workers=0``)
    is refused.  Journalling, resume, retry, chaos and progress come from
    the keyed-run core shared with
    :class:`~repro.stats.resilient.ResilientExecutor`: journalled keys
    are never recomputed, fresh completions are recorded and fsynced in
    completion order, an unpicklable trial function runs in-process under
    the same chaos and retry budget, and ``on_progress`` receives the
    journal-backed dict extended with the fabric counters (``workers``,
    ``leases_stolen``, ``heartbeats_missed``, ...).

    Locally forked workers that die (chaos crash, OOM) are respawned up
    to ``max_worker_respawns`` times; once the budget is exhausted *and*
    no workers remain connected, the journal is checkpointed and
    :class:`FabricError` propagates — rerun to resume.
    """

    _PROGRESS_COUNTERS = ("retries", "redispatches", "workers",
                          "leases_stolen", "heartbeats_missed", "respawns")
    # every worker the campaign touches (respawned ones included) shares
    # the durable fire-once ledger, network faults too
    _LEDGER_KINDS = FAULT_KINDS + NET_FAULT_KINDS

    def __init__(self, workers: int = 2, *,
                 bind: tuple[str, int] = ("127.0.0.1", 0),
                 chunk_size: Optional[int] = None,
                 heartbeat_interval_s: float = 0.2,
                 heartbeat_timeout_s: Optional[float] = None,
                 steal_after_s: Optional[float] = None,
                 max_steals: int = 2,
                 max_retries: int = 2,
                 backoff_base_s: float = 0.25,
                 max_worker_respawns: int = 4,
                 journal: Optional[ResultStore] = None,
                 chaos: Optional[ChaosConfig] = None,
                 spec_digest: Optional[str] = None,
                 key: Optional[bytes] = None,
                 on_progress: Optional[Callable[[dict], None]] = None):
        if workers < 0:
            raise ValueError("workers must be >= 0 (0 = external only)")
        key = key if key is not None else fabric_key()
        if key is None and (workers == 0 or not _is_loopback(bind[0])):
            raise FabricError(
                f"refusing to serve external fabric workers on "
                f"{bind[0]}:{bind[1]} without a key; set "
                f"{FABRIC_KEY_ENV_VAR} on the coordinator and its workers")
        super().__init__(journal=journal, chaos=chaos,
                         max_retries=max_retries,
                         backoff_base_s=backoff_base_s,
                         on_progress=on_progress)
        self.workers = workers
        self.jobs = max(1, workers)
        self.bind = bind
        self.chunk_size = chunk_size
        self.heartbeat_interval_s = heartbeat_interval_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.steal_after_s = steal_after_s
        self.max_steals = max_steals
        self.max_worker_respawns = max_worker_respawns
        self.spec_digest = spec_digest
        self.key = key
        #: the active (or most recent) coordinator address — what external
        #: ``fabric-worker`` processes connect to; None before a map runs.
        self.last_address: Optional[tuple[str, int]] = None

    _new_counters = staticmethod(new_counters)

    # -- spec parsing -----------------------------------------------------

    _SPEC_KEYS = {
        "workers": ("workers", int),
        "chunk": ("chunk_size", int),
        "heartbeat_s": ("heartbeat_interval_s", float),
        "timeout_s": ("heartbeat_timeout_s", float),
        "steal_s": ("steal_after_s", float),
        "steals": ("max_steals", int),
        "retries": ("max_retries", int),
        "respawns": ("max_worker_respawns", int),
        "digest": ("spec_digest", str),
    }

    @classmethod
    def from_spec(cls, spec: Optional[str] = None,
                  **overrides) -> "FabricExecutor":
        """Build an executor from a ``REPRO_FABRIC``-style spec string.

        Comma-separated ``key=value`` pairs: ``bind=host:port`` (default
        loopback, ephemeral port), ``workers=N`` (local fork workers; 0 =
        external workers only), ``chunk``, ``heartbeat_s``, ``timeout_s``,
        ``steal_s``, ``steals``, ``retries``, ``respawns``, ``digest``.
        Blank, ``"fabric"`` or ``"on"`` select the defaults.  Unknown
        keys are rejected loudly.
        """
        raw = (spec or "").strip()
        fields: dict = {}
        if raw not in ("", "fabric", "on", "1"):
            for pair in raw.split(","):
                pair = pair.strip()
                if not pair:
                    continue
                key, sep, value = pair.partition("=")
                key, value = key.strip(), value.strip()
                if not sep or not value:
                    raise ValueError(
                        f"malformed {FABRIC_ENV_VAR} entry {pair!r}")
                if key == "bind":
                    fields["bind"] = parse_address(value)
                elif key in cls._SPEC_KEYS:
                    name, cast = cls._SPEC_KEYS[key]
                    fields[name] = cast(value)
                else:
                    raise ValueError(
                        f"unknown {FABRIC_ENV_VAR} key {key!r}")
        fields.update(overrides)
        return cls(**fields)

    @classmethod
    def from_env(cls, **overrides) -> "FabricExecutor":
        """An executor configured from ``REPRO_FABRIC`` (defaults when
        unset/blank)."""
        return cls.from_spec(os.environ.get(FABRIC_ENV_VAR), **overrides)

    # -- the dispatch loop -------------------------------------------------

    def _dispatches(self, n_pending: int) -> bool:
        return True

    def _dispatch(self, fn, run: KeyedRun) -> None:
        leases = run.leases(self.jobs, self.chunk_size)
        digest = (run.journal.spec_digest if run.journal is not None
                  else self.spec_digest) or UNBOUND_DIGEST
        counters = run.counters
        key = self.key or secrets.token_bytes(32)
        coordinator = FabricCoordinator(
            self.bind, key=key, digest=digest,
            heartbeat_interval_s=self.heartbeat_interval_s,
            heartbeat_timeout_s=self.heartbeat_timeout_s,
            steal_after_s=self.steal_after_s, max_steals=self.max_steals,
            max_retries=self.max_retries,
            backoff_base_s=self.backoff_base_s, counters=counters)
        address = coordinator.start()
        self.last_address = address
        procs: list = [None] * self.workers
        respawns_left = self.max_worker_respawns

        def _tick() -> None:
            nonlocal respawns_left
            if not self.workers:
                return
            for slot, proc in enumerate(procs):
                if proc is None or proc.is_alive():
                    continue
                procs[slot] = None
                if respawns_left > 0:
                    respawns_left -= 1
                    counters["respawns"] += 1
                    procs[slot] = self._spawn_worker(address, key, digest,
                                                     slot)
            if all(proc is None for proc in procs) \
                    and coordinator.registered_workers == 0:
                raise FabricError(
                    f"every local fabric worker died and the respawn "
                    f"budget ({self.max_worker_respawns}) is exhausted; "
                    "journal checkpointed — rerun to resume from it")

        try:
            for slot in range(self.workers):
                procs[slot] = self._spawn_worker(address, key, digest, slot)
            coordinator.run(fn, leases, on_complete=run.complete,
                            on_tick=_tick)
        finally:
            coordinator.close()
            self._stop_workers(procs)

    # -- local worker processes -------------------------------------------

    def _spawn_worker(self, address, key: bytes, digest: str, slot: int):
        """Fork one local worker process pointed at ``address`` — fork
        (not spawn), so runtime-patched experiment state reaches workers
        exactly as the sequential path sees it, and ``key`` is inherited
        in memory rather than sent anywhere."""
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            raise FabricError(
                "local fabric workers need the fork start method; use "
                "workers=0 and start them via `python -m repro "
                "fabric-worker` instead")
        context = multiprocessing.get_context("fork")
        proc = context.Process(
            target=_local_worker_main,
            args=(address, key, digest, self.chaos, f"local-{slot}"),
            daemon=True)
        proc.start()
        return proc

    def _stop_workers(self, procs: list) -> None:
        for proc in procs:
            if proc is None:
                continue
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
