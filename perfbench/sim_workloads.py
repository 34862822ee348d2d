"""The two simulator workloads, driven through ``ConsensusSystem``.

``sim-quorum``: basic HotStuff (n=61) and Damysus (n=41) at f=20 with the
paper's Fig 6 blocks (400 tx x 256 B, synthesized open-loop), EU region
RTT matrix with 5% jitter and the charged crypto cost model; each
repetition runs both protocols for a fixed number of views.

``sim-rejoin``: Damysus f=1 (n=3), 1-tx blocks, zero cost model, a
checkpoint every 50 blocks.  One replica is crashed while the others
commit ``missed_views`` views, recovered, and must rejoin by certified
checkpoint transfer.

Both run repetitions until the window closes, each on its own seed drawn
from the run seed, and end with a repeat of the first seed whose digest
(committed chain, messages, bytes, virtual latency) must match: the
simulator is deterministic, so any difference is a defect.

A repetition's wall time covers only the library running (and, in
sim-rejoin's rejoin phase, the check between events of whether the victim
is back in step): its systems are built before the clock starts
(repetition 0's during set-up), the checks run after it stops, and the
speed probe's samples are subtracted.
"""

from __future__ import annotations

import gc
import hashlib
import time
from dataclasses import dataclass, field
from typing import Any

from common import BenchError, SpeedProbe, median, peak_rss_mb, percentile

QUORUM_F = 20
QUORUM_PROTOCOLS = ("hotstuff", "damysus")

REJOIN_TIMEOUT_MS = 500.0
REJOIN_CHECKPOINT_INTERVAL = 50
REJOIN_WARMUP_VIEWS = 5
REJOIN_SETTLE_VIEWS = 60
#: Committed views between speed-probe samples.
QUORUM_STEP_VIEWS = 4
REJOIN_STEP_VIEWS = 50


def rep_seed(seed: int, index: int) -> int:
    """Seed of repetition ``index`` of a run with seed ``seed``."""
    return seed * 1000 + index


@dataclass
class Rep:
    """One repetition's outcome."""

    seed: int
    wall_s: float
    views: int
    digest: str
    latencies_ms: list[float]
    outage_ms: float
    views_entered: int
    timeouts: int
    #: Timed-out views whose leader was not the crashed replica.
    failed: int
    extra: dict[str, float] = field(default_factory=dict)
    #: sim-rejoin: virtual ms from recovery until the victim is in step.
    rejoin_ms: float = 0.0
    #: Host speed over the reference, probed during this repetition.
    speed: float = 1.0


def _digest(system: Any, extra: tuple[Any, ...] = ()) -> str:
    h = hashlib.sha256()
    for block_hash in system.oracle.canonical_chain():
        h.update(block_hash)
    monitor = system.monitor
    fields = (monitor.messages_sent, monitor.bytes_sent, repr(monitor.mean_latency_ms()), *extra)
    h.update(repr(fields).encode())
    return h.hexdigest()


def run_in_steps(system: Any, views: int, step: int, probe: SpeedProbe) -> tuple[Any, float]:
    """``run_until_views(views)`` in increments, sampling the host speed in
    between; returns the result and the wall seconds it took without the
    samples.  ``run_until_views`` advances in fixed virtual-time chunks and
    stops at the first chunk boundary past its target, so the increments
    end in exactly the state one call would."""
    started = time.perf_counter()
    probed = probe.busy_s
    done = len(system.monitor.committed_views())
    for target in range(done + step, views, step):
        system.run_until_views(target, max_time_ms=1e12)
        probe.sample()
    result = system.run_until_views(views, max_time_ms=1e12)
    return result, time.perf_counter() - started - (probe.busy_s - probed)


def count_live_leader_timeouts(replica: Any, crashed_pid: int, box: list[int]) -> None:
    """Add to ``box[0]`` each timeout at ``replica`` of a view whose leader
    is not ``crashed_pid``: views led by the crashed replica time out by
    design, any other timeout is a failed view."""
    pacemaker = replica.pacemaker
    inner = pacemaker.on_timeout

    def on_timeout(view: int) -> None:
        if replica.leader_of(view) != crashed_pid:
            box[0] += 1
        inner(view)

    pacemaker.on_timeout = on_timeout


def _longest_gap(executions: list[Any], pids: set[int]) -> float:
    """Longest commit-free virtual interval at any replica in ``pids``."""
    times: dict[int, list[float]] = {pid: [] for pid in pids}
    for record in executions:
        if record.replica in times:
            times[record.replica].append(record.executed_at)
    longest = 0.0
    for series in times.values():
        if not series:
            raise BenchError("a replica never committed")
        series.sort()
        for a, b in zip(series, series[1:]):
            longest = max(longest, b - a)
    return longest


# -- sim-quorum -------------------------------------------------------------


class QuorumWorkload:
    name = "sim-quorum"

    def __init__(self, spec: dict[str, Any], seed: int, probe: SpeedProbe) -> None:
        self.views = int(spec["views_per_protocol"])
        self.seed = seed
        self.probe = probe
        self.tracer: Any = None
        self.peak_rss_mb = 0.0
        # Set-up: the library and both deployments, built once.
        from repro.config import SystemConfig
        from repro.runtime.sim import ConsensusSystem

        self._config = SystemConfig
        self._system = ConsensusSystem
        self._prebuilt = {p: self._build(p, rep_seed(seed, 0)) for p in QUORUM_PROTOCOLS}

    def _build(self, protocol: str, seed: int) -> Any:
        return self._system(self._config(protocol=protocol, f=QUORUM_F, seed=seed))

    def tee_calls(self) -> float:
        """TEE calls seen so far by an installed tracer (0 when untraced)."""
        if self.tracer is None:
            return 0.0
        return float(sum(n for name, n in self.tracer.calls.items() if name.startswith("tee.")))

    def rep(self, index: int) -> Rep:
        seed = rep_seed(self.seed, index)
        systems = [
            (self._prebuilt.pop(protocol, None) if index == 0 else None)
            or self._build(protocol, seed)
            for protocol in QUORUM_PROTOCOLS
        ]
        wall = 0.0
        views = 0
        latencies: list[float] = []
        digests = []
        outage = 0.0
        entered = timeouts = 0
        extra = {"messages": 0.0, "bytes": 0.0, "blocks": 0.0, "hotstuff_tee_calls": 0.0}
        for protocol, system in zip(QUORUM_PROTOCOLS, systems):
            tee_before = self.tee_calls()
            result, seconds = run_in_steps(system, self.views, QUORUM_STEP_VIEWS, self.probe)
            wall += seconds
            if protocol == "hotstuff":
                extra["hotstuff_tee_calls"] += self.tee_calls() - tee_before
            extra["messages"] += result.messages_sent
            extra["bytes"] += result.bytes_sent
            extra["blocks"] += result.committed_blocks
            if not result.safe:
                raise BenchError(f"{protocol} seed {seed}: safety oracle flagged a violation")
            views += result.committed_views
            latencies.extend(rec.latency_ms for rec in system.monitor.executions)
            outage = max(
                outage, _longest_gap(system.monitor.executions, {r.pid for r in system.replicas})
            )
            entered += sum(r.view for r in system.replicas)
            timeouts += sum(r.pacemaker.timeouts_fired for r in system.replicas)
            digests.append(_digest(system))
        return Rep(
            seed, wall, views, "/".join(digests), latencies, outage, entered, timeouts,
            timeouts, extra,
        )


# -- sim-rejoin -------------------------------------------------------------


class RejoinWorkload:
    name = "sim-rejoin"

    def __init__(self, spec: dict[str, Any], seed: int, probe: SpeedProbe) -> None:
        self.missed = int(spec["missed_views"])
        self.seed = seed
        self.probe = probe
        self.tracer: Any = None
        self.peak_rss_mb = 0.0
        from repro.config import SystemConfig
        from repro.core.executor import fold_state_root
        from repro.costs import CostModel
        from repro.runtime.sim import ConsensusSystem

        self._config = SystemConfig
        self._system = ConsensusSystem
        self._zero = CostModel.zero()
        self._fold = fold_state_root
        self._prebuilt = self._build(rep_seed(seed, 0))

    def _build(self, seed: int) -> Any:
        config = self._config(
            protocol="damysus",
            f=1,
            payload_bytes=0,
            block_size=1,
            seed=seed,
            timeout_ms=REJOIN_TIMEOUT_MS,
            costs=self._zero,
            checkpoint_interval=REJOIN_CHECKPOINT_INTERVAL,
        )
        return self._system(config)

    def _canonical_root(self, system: Any, height: int) -> bytes:
        canonical = system.oracle.canonical_chain()
        if height > len(canonical):
            raise BenchError("victim ahead of the canonical chain")
        root = system.replicas[0].store.genesis.hash
        for block_hash in canonical[:height]:
            root = self._fold(root, block_hash)
        return root

    def rep(self, index: int) -> Rep:
        seed = rep_seed(self.seed, index)
        system = self._prebuilt if index == 0 and self._prebuilt is not None else self._build(seed)
        self._prebuilt = None
        config = system.config
        victim = system.replicas[-1]
        honest = [r for r in system.replicas if r.pid != victim.pid]
        failed = [0]
        for replica in honest:
            count_live_leader_timeouts(replica, victim.pid, failed)
        started = time.perf_counter()
        probed = self.probe.busy_s
        system.start()
        system.run_until_views(REJOIN_WARMUP_VIEWS)
        system.crash_replicas([victim.pid])
        crashed_at = system.sim.now
        base = len(system.monitor.committed_views())
        run_in_steps(system, base + self.missed, REJOIN_STEP_VIEWS, self.probe)
        system.recover_replicas([victim.pid])
        recovered_at = system.sim.now
        # Step event by event so the rejoin time is exact, not chunk-rounded.
        while True:
            if (
                victim.caught_up_via_checkpoint
                and not victim.catchup.active
                and victim.view_lag() <= config.catchup_view_gap
            ):
                break
            if not system.sim.step():
                raise BenchError(f"seed {seed}: victim never rejoined")
        rejoin_ms = system.sim.now - recovered_at
        committed = len(system.monitor.committed_views())
        system.run_until_views(committed + REJOIN_SETTLE_VIEWS, max_time_ms=1e12)
        result = system.result()
        wall = time.perf_counter() - started - (self.probe.busy_s - probed)
        if not result.safe:
            raise BenchError(f"seed {seed}: safety oracle flagged a violation")
        if not victim.caught_up_via_checkpoint:
            raise BenchError(f"seed {seed}: victim did not rejoin via a checkpoint")
        height = victim.ledger.height()
        if victim.ledger.state_root != self._canonical_root(system, height):
            raise BenchError(f"seed {seed}: victim state root differs from the canonical fold")
        executions = [rec for rec in system.monitor.executions if rec.replica != victim.pid]
        outage = _longest_gap(executions, {r.pid for r in honest})
        return Rep(
            seed=seed,
            wall_s=wall,
            views=result.committed_views,
            digest=_digest(system, (repr(rejoin_ms), height)),
            latencies_ms=[rec.latency_ms for rec in executions],
            outage_ms=outage,
            views_entered=sum(r.view for r in honest),
            timeouts=sum(r.pacemaker.timeouts_fired for r in honest),
            failed=failed[0],
            extra={
                "crash_virtual_ms": recovered_at - crashed_at,
                "catchups_completed": float(victim.catchup.completed),
                "messages": float(result.messages_sent),
                "bytes": float(result.bytes_sent),
                "blocks": float(result.committed_blocks),
            },
            rejoin_ms=rejoin_ms,
        )


WORKLOADS = {QuorumWorkload.name: QuorumWorkload, RejoinWorkload.name: RejoinWorkload}


def measure(workload: Any, seconds: float) -> list[Rep]:
    """Repetitions until ``seconds`` pass (at least two), each scaled by the
    host speed probed during it, then a repeat of the first seed whose
    digest must match."""
    reps: list[Rep] = []
    end = time.perf_counter() + seconds
    while len(reps) < 2 or time.perf_counter() < end:
        # The previous repetition's system is garbage now: collect it
        # outside the timed repetition.
        gc.collect()
        started = time.monotonic()
        rep = workload.rep(len(reps))
        rep.speed = workload.probe.factor(started, time.monotonic())
        if not reps:
            # Peak RSS after one repetition: later ones add allocator
            # fragmentation that grows with how many fit in the window.
            workload.peak_rss_mb = peak_rss_mb()
        reps.append(rep)
    repeat = workload.rep(0)
    if repeat.digest != reps[0].digest:
        raise BenchError(f"seed {repeat.seed}: repeat digest differs (non-deterministic run)")
    return reps


def end_to_end(reps: list[Rep]) -> dict[str, float]:
    """Workload-level figures from the repetitions (medians over reps)."""
    latencies = [lat for rep in reps for lat in rep.latencies_ms]
    entered = sum(rep.views_entered for rep in reps)
    failed = sum(rep.timeouts for rep in reps)
    views = sum(rep.views for rep in reps)
    return {
        # Whole-window rate in reference-host seconds: each repetition's
        # wall time is scaled by the host speed probed around it.
        "work_per_s": views / sum(rep.wall_s * rep.speed for rep in reps),
        "raw_work_per_s": views / sum(rep.wall_s for rep in reps),
        "commit_p50_ms": percentile(latencies, 0.50),
        "commit_p90_ms": percentile(latencies, 0.90),
        "commit_p99_ms": percentile(latencies, 0.99),
        "outage_ms": median(rep.outage_ms for rep in reps),
        "rejoin_virtual_ms": median(rep.rejoin_ms for rep in reps),
        "rejoin_virtual_ms_mean": sum(rep.rejoin_ms for rep in reps) / len(reps),
        "ok_share": 1.0 - failed / entered,
        "views_entered": float(entered),
        "view_timeouts": float(failed),
        "failed_views": float(sum(rep.failed for rep in reps)),
    }
