"""Deterministic fault injection for the fault-tolerant execution layer.

The recovery machinery of :mod:`repro.stats.fabric` and
:mod:`repro.stats.lease` (worker respawns, chunk re-leasing, retry,
resume-from-journal) is only trustworthy if it
is itself tested under the repository's determinism contract.  This module
supplies that test harness: a **seed-scheduled chaos schedule** that maps
every trial seed to at most one injected fault — a worker-process crash, a
hang, or a transient exception — through the same :func:`derive_seed`
diffusion the trials themselves use.  Same chaos seed ⇒ same schedule,
byte-for-byte, on any host.  A second, independent stream schedules the
**network faults** of the distributed fabric (connection drop, heartbeat
blackhole, duplicated and delayed result delivery — see
:data:`NET_FAULT_KINDS`), so multi-host recovery is exercised under the
same determinism contract.

Faults fire **once**: each (kind, trial seed) pair is claimed in a ledger
before injection, so a retried or re-dispatched trial runs clean the
second time and a chaos-ridden campaign still terminates.  The ledger is a
directory of ``O_CREAT | O_EXCL`` marker files when ``state_dir`` is set
(required for crash faults — the claiming process dies, so the claim must
survive it) and a per-process set otherwise.

Activation: pass a :class:`ChaosConfig` to
:class:`~repro.stats.fabric.FabricExecutor` or
:class:`~repro.stats.resilient.ResilientExecutor`, or set the
``REPRO_CHAOS`` environment variable, e.g.::

    REPRO_CHAOS="seed=7,crash=0.05,exc=0.1,hang=0.02,hang_s=2"

Injection happens in the worker-side chunk runner, before the trial
function is entered, so the trial outcomes themselves are never perturbed
— a chaos-ridden campaign that *completes* is byte-identical to a clean
one, which is exactly the acceptance bar the resilience suite asserts.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.stats.montecarlo import derive_seed

#: Environment knob: inject deterministic faults into parallel campaigns.
CHAOS_ENV_VAR = "REPRO_CHAOS"

#: Stream tag namespacing the chaos schedule away from trial seeds.
CHAOS_STREAM = 0x43414F53  # "CAOS"

#: Stream tag of the *network* fault schedule — independent of the
#: process-fault bands above, so e.g. a drop and a crash can never
#: occupy the same uniform draw.
NET_CHAOS_STREAM = 0x4E455443  # "NETC"

#: Exit status of a chaos-crashed worker process (a recognisable corpse).
CHAOS_EXIT_CODE = 86

#: Fault kinds in threshold order (crash band first, then hang, then exc).
FAULT_KINDS = ("crash", "hang", "exc")

#: Network fault kinds in threshold order, injected around fabric result
#: delivery (see :mod:`repro.stats.fabric`): abrupt connection drop,
#: heartbeat blackhole, duplicated result delivery, delayed delivery.
NET_FAULT_KINDS = ("drop", "blackhole", "dup", "delay")

#: Fire-once ledger claims older than this are stale campaign residue and
#: are expired by :meth:`ChaosConfig.begin_run` — old enough that a
#: crash-killed campaign re-run minutes later still resumes with its
#: claims intact (no re-crash loop), young enough that yesterday's ledger
#: never silently disarms today's schedule.
LEDGER_TTL_S = 3600.0

_TWO64 = float(1 << 64)

#: Fire-once ledger for configs without a ``state_dir``.
_process_fired: set = set()


class ChaosError(RuntimeError):
    """An injected transient trial fault (retryable by construction)."""


@dataclass(frozen=True)
class ChaosConfig:
    """A deterministic fault schedule over trial seeds.

    ``crash``/``hang``/``exc`` are per-trial *process* fault probabilities
    (the bands are disjoint, so their sum must stay <= 1).  ``hang_s`` is
    the injected stall length.  ``state_dir`` hosts the fire-once ledger;
    leave it ``None`` only for hang/exc faults or let the executor
    allocate one (crash claims must outlive the crashing process).

    ``drop``/``blackhole``/``dup``/``delay`` are the *network* fault
    bands of the distributed fabric (:mod:`repro.stats.fabric`), drawn
    from an independent stream so they compose freely with the process
    bands: a worker abruptly closing its coordinator connection, a
    heartbeat blackhole of ``blackhole_s`` seconds (the lease expires and
    is re-leased elsewhere), a duplicated result delivery (dropped
    pre-journal), and a delivery delayed by ``delay_s`` (a steal target).
    All remain pure functions of ``(seed, trial_seed)`` — a fabric
    campaign's network weather is as replayable as its trials.
    """

    seed: int = 0
    crash: float = 0.0
    hang: float = 0.0
    exc: float = 0.0
    hang_s: float = 2.0
    drop: float = 0.0
    blackhole: float = 0.0
    dup: float = 0.0
    delay: float = 0.0
    blackhole_s: float = 2.0
    delay_s: float = 0.5
    state_dir: Optional[str] = None

    def __post_init__(self):
        total = self.crash + self.hang + self.exc
        if not 0.0 <= total <= 1.0 or min(self.crash, self.hang, self.exc) < 0:
            raise ValueError(
                f"fault probabilities must be >= 0 and sum to <= 1, got "
                f"crash={self.crash} hang={self.hang} exc={self.exc}")
        net_total = self.drop + self.blackhole + self.dup + self.delay
        if not 0.0 <= net_total <= 1.0 \
                or min(self.drop, self.blackhole, self.dup, self.delay) < 0:
            raise ValueError(
                f"network fault probabilities must be >= 0 and sum to <= 1, "
                f"got drop={self.drop} blackhole={self.blackhole} "
                f"dup={self.dup} delay={self.delay}")

    @classmethod
    def from_env(cls, value: Optional[str] = None) -> Optional["ChaosConfig"]:
        """Parse ``REPRO_CHAOS`` (or ``value``); None when unset/blank.

        Format: comma-separated ``key=value`` pairs with keys ``seed``,
        ``crash``, ``hang``, ``exc``, ``hang_s``, the network-fault keys
        ``drop``, ``blackhole``, ``dup``, ``delay``, ``blackhole_s``,
        ``delay_s``, and ``state`` (the ledger directory).  Unknown keys
        are rejected loudly — a typo silently disabling chaos would
        defeat the harness.
        """
        raw = os.environ.get(CHAOS_ENV_VAR, "") if value is None else value
        raw = raw.strip()
        if not raw:
            return None
        fields: dict = {}
        for pair in raw.split(","):
            pair = pair.strip()
            if not pair:
                continue
            key, sep, val = pair.partition("=")
            key, val = key.strip(), val.strip()
            if not sep or not val:
                raise ValueError(f"malformed {CHAOS_ENV_VAR} entry {pair!r}")
            if key == "seed":
                fields["seed"] = int(val, 0)
            elif key in ("crash", "hang", "exc", "hang_s", "drop",
                         "blackhole", "dup", "delay", "blackhole_s",
                         "delay_s"):
                fields[key] = float(val)
            elif key == "state":
                fields["state_dir"] = val
            else:
                raise ValueError(f"unknown {CHAOS_ENV_VAR} key {key!r}")
        return cls(**fields)

    def with_state_dir(self, state_dir: str) -> "ChaosConfig":
        """A copy of this schedule with its ledger at ``state_dir``."""
        return dataclasses.replace(self, state_dir=state_dir)

    # -- the deterministic schedule --------------------------------------

    def fault_for(self, trial_seed: int) -> Optional[str]:
        """The fault scheduled for ``trial_seed``, or None.

        A pure function of ``(self.seed, trial_seed)`` — the determinism
        the chaos suite pins: same chaos seed, same faults, every run.
        """
        uniform = derive_seed(self.seed, trial_seed,
                              stream=CHAOS_STREAM) / _TWO64
        if uniform < self.crash:
            return "crash"
        if uniform < self.crash + self.hang:
            return "hang"
        if uniform < self.crash + self.hang + self.exc:
            return "exc"
        return None

    def schedule(self, trial_seeds: Iterable[int]) -> dict:
        """``{trial_seed: fault_kind}`` over ``trial_seeds`` (omits clean
        trials); what a test asserts against for schedule determinism."""
        plan = {}
        for seed in trial_seeds:
            kind = self.fault_for(seed)
            if kind is not None:
                plan[seed] = kind
        return plan

    def net_fault_for(self, trial_seed: int) -> Optional[str]:
        """The network fault scheduled for ``trial_seed``'s delivery, or
        None — a pure function of ``(self.seed, trial_seed)`` on its own
        stream, independent of :meth:`fault_for`'s process bands."""
        uniform = derive_seed(self.seed, trial_seed,
                              stream=NET_CHAOS_STREAM) / _TWO64
        threshold = 0.0
        for kind in NET_FAULT_KINDS:
            threshold += getattr(self, kind)
            if uniform < threshold:
                return kind
        return None

    def net_schedule(self, trial_seeds: Iterable[int]) -> dict:
        """``{trial_seed: net_fault_kind}`` over ``trial_seeds`` (omits
        clean deliveries)."""
        plan = {}
        for seed in trial_seeds:
            kind = self.net_fault_for(seed)
            if kind is not None:
                plan[seed] = kind
        return plan

    # -- ledger lifecycle --------------------------------------------------

    def begin_run(self, ttl_s: float = LEDGER_TTL_S) -> int:
        """Expire stale fire-once claims at the start of a campaign run.

        A reused ``state_dir`` (an exported ``REPRO_CHAOS`` with
        ``state=``) accumulates claim files across runs, and a claim left
        by *yesterday's* campaign would silently disarm today's schedule
        — every fault would look already-fired.  Called once per executor
        construction: claim files older than ``ttl_s`` seconds are
        removed (returning how many), so a fresh campaign starts with a
        live schedule while a kill-and-resume minutes later still honours
        the claims of its own run (no re-crash loop on resume).  Also
        bounds ledger growth: the directory never holds more than one
        TTL window of claims.
        """
        if self.state_dir is None or not os.path.isdir(self.state_dir):
            return 0
        expired = 0
        now = time.time()
        for name in os.listdir(self.state_dir):
            path = os.path.join(self.state_dir, name)
            try:
                if now - os.path.getmtime(path) > ttl_s:
                    os.unlink(path)
                    expired += 1
            except OSError:
                continue  # claimed/removed concurrently — either is fine
        return expired


def _claim_fault(config: ChaosConfig, kind: str, trial_seed: int) -> bool:
    """Atomically claim the (kind, seed) fault; False when already fired.

    With a ``state_dir`` the claim is an ``O_CREAT | O_EXCL`` marker file
    — race-safe across worker processes and durable across the crash the
    claimer is about to perform.
    """
    token = f"{kind}-{trial_seed:016x}"
    if config.state_dir is not None:
        os.makedirs(config.state_dir, exist_ok=True)
        try:
            fd = os.open(os.path.join(config.state_dir, token),
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        os.close(fd)
        return True
    if token in _process_fired:
        return False
    _process_fired.add(token)
    return True


def maybe_inject(config: Optional[ChaosConfig], trial_seed: int) -> None:
    """Worker-side injection point, called before a trial executes.

    Crash faults take the whole worker process down with
    :data:`CHAOS_EXIT_CODE` (the coordinator sees a lost worker and
    re-leases its chunk); hang faults stall ``hang_s`` seconds (a
    straggler for lease stealing); exc faults
    raise :class:`ChaosError` (retryable).  Each fault fires at most once
    per ledger, so recovery always makes forward progress.
    """
    if config is None:
        return
    kind = config.fault_for(trial_seed)
    if kind is None or not _claim_fault(config, kind, trial_seed):
        return
    if kind == "crash":
        os._exit(CHAOS_EXIT_CODE)
    if kind == "hang":
        time.sleep(config.hang_s)
        return
    raise ChaosError(
        f"injected transient fault at trial seed {trial_seed:#018x}")


def maybe_net_fault(config: Optional[ChaosConfig],
                    trial_seed: int) -> Optional[str]:
    """Fabric-worker injection point: the claimed network fault scheduled
    for ``trial_seed``'s result delivery, or None.

    Unlike :func:`maybe_inject` this does not *perform* the fault — the
    four network faults are socket-level behaviours only the fabric
    worker's delivery loop can enact (see
    :class:`repro.stats.fabric.FabricWorker`) — it just claims it in the
    fire-once ledger (token-prefixed ``net-`` so process and network
    claims never collide) and reports what to do.
    """
    if config is None:
        return None
    kind = config.net_fault_for(trial_seed)
    if kind is None or not _claim_fault(config, f"net-{kind}", trial_seed):
        return None
    return kind
