"""The two localhost-TCP workloads: one Damysus n=3 cluster on one event loop.

``tcp-saturate``: replicas synthesize paper-sized blocks (400 x 256 B)
and propose the next one as soon as the previous view ends; no clients,
no injected delay, inline signature verification.  Latency is CPU and
queueing only.

``tcp-open-loop``: the same cluster with the admission pipeline on
(closed-loop replicas that propose from their mempools), driven by the
benchmark's own generator process (:mod:`gen`) at three frozen rates.

The cluster is built with the public ``build_machine`` and hosted on
``AsyncioRuntime``; the only benchmark-side addition is a runtime subclass
that timestamps each ``Commit`` effect, so commit latency is measured at
the same boundary the runtime already observes.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import sys
import time
from typing import Any, AsyncIterator

from common import BENCH_DIR, BenchError, SpeedProbe, mean, peak_rss_mb, percentile

N = 3
PROTOCOL = "damysus"
RATE_NAMES = ("low", "mid", "high")
PAYLOAD_BYTES = 256
BLOCK_SIZE = 400
#: Slice length for the stall figure (mean of each slice's longest gap).
SLICE_S = 1.0
#: Fresh clusters per ``tcp-saturate`` window.
SEGMENTS = 4
#: Lag-probe period of the traced runs' event-loop timer.
LAG_PROBE_S = 0.005
#: Period of the in-loop speed probe (one ~1.4 ms sample each).
PROBE_PERIOD_S = 0.1
#: ``tcp-saturate`` reads its peak RSS after this many commits: every
#: replica keeps every block, so a whole-window peak would grow with
#: throughput and a faster build would read as a memory regression.
RSS_AT_BLOCKS = 250


def _runtime_class() -> type:
    from repro.runtime.asyncio_net import AsyncioRuntime
    from repro.runtime.effects import Commit

    class RecordingRuntime(AsyncioRuntime):
        """``AsyncioRuntime`` that logs (clock ms, block) for each commit."""

        def __init__(self, machine: Any, log: list[tuple[int, float, Any]], **kwargs: Any) -> None:
            super().__init__(machine, **kwargs)
            self.commit_log = log

        def execute(self, effects: list[Any]) -> None:
            super().execute(effects)
            for effect in effects:
                if type(effect) is Commit:
                    self.commit_log.append((self.machine.pid, self.machine.now, effect.block))

    return RecordingRuntime


class Cluster:
    """``N`` replicas on this process's event loop; with ``open_loop_senders``
    they run the admission pipeline and reply to the generator's pid."""

    def __init__(self, seed: int, open_loop_senders: int = 0) -> None:
        from repro.runtime.asyncio_net import WallClock, build_machine

        self.clock = WallClock()
        self.log: list[tuple[int, float, Any]] = []
        overrides: dict[str, object] = {}
        client_pids: dict[int, int] = {}
        if open_loop_senders:
            from gen import GEN_PID

            overrides = {"open_loop": False, "num_clients": open_loop_senders}
            client_pids = {cid: GEN_PID for cid in range(open_loop_senders)}
        runtime_class = _runtime_class()
        self.machines = [
            build_machine(
                PROTOCOL, pid, N, self.clock, seed=seed, payload_bytes=PAYLOAD_BYTES,
                block_size=BLOCK_SIZE, client_pids=client_pids, config_overrides=overrides,
            )
            for pid in range(N)
        ]
        self.runtimes = [runtime_class(m, self.log) for m in self.machines]
        self.addresses: dict[int, tuple[str, int]] = {}

    async def bind(self) -> None:
        for runtime in self.runtimes:
            self.addresses[runtime.machine.pid] = await runtime.start_server()

    async def start(self, extra_peers: dict[int, tuple[str, int]] | None = None) -> None:
        peers = {**self.addresses, **(extra_peers or {})}
        for runtime in self.runtimes:
            runtime.set_peers(peers)
        started_ms = self.clock.now
        for runtime in self.runtimes:
            runtime.start_machine()
        while min(rt.committed_blocks for rt in self.runtimes) == 0:
            if self.clock.now - started_ms > 30_000.0:
                raise BenchError("cluster did not commit within 30 s")
            await asyncio.sleep(0.001)

    async def close(self) -> None:
        for runtime in self.runtimes:
            await runtime.close()

    def snapshot(self) -> dict[str, Any]:
        return {
            "t": time.monotonic(),
            "txs": [rt.committed_txs for rt in self.runtimes],
            "blocks": [rt.committed_blocks for rt in self.runtimes],
            "msgs": sum(rt.sent_messages for rt in self.runtimes),
            "bytes": sum(rt.sent_bytes for rt in self.runtimes),
            "views": sum(m.view for m in self.machines),
            "timeouts": sum(m.pacemaker.timeouts_fired for m in self.machines),
            "log": len(self.log),
            "clock_ms": self.clock.now,
        }

    def check(self) -> None:
        """Executed chains are prefixes of one another; roots agree at the common height."""
        chains = [[b.hash for b in m.ledger.executed] for m in self.machines]
        for a in chains:
            for b in chains:
                short, long_ = (a, b) if len(a) <= len(b) else (b, a)
                if long_[: len(short)] != short:
                    raise BenchError("replica chains diverge")
        common = min(m.ledger.height() for m in self.machines)
        roots = {m.ledger.state_root_at(common) for m in self.machines}
        if len(roots) != 1 or None in roots:
            raise BenchError(f"state roots disagree at height {common}")
        if any(rt.dropped_messages for rt in self.runtimes):
            raise BenchError("outbound queues overflowed")


def segment_stats(
    cluster: Cluster, snaps: list[dict[str, Any]], speed: float, probe_s: float
) -> dict[str, Any]:
    """Sums of one measured stretch between its first and last snapshot;
    ``speed`` (host speed over the reference) scales its wall-clock parts
    and ``probe_s``, the time the speed probe ran on the loop, is taken
    out of its duration."""
    first, last = snaps[0], snaps[-1]
    latencies = [t - block.created_at for _pid, t, block in cluster.log[first["log"] : last["log"]]]
    stats = {
        "seconds": last["t"] - first["t"] - probe_s,
        "speed": speed,
        "txs": min(y - x for x, y in zip(first["txs"], last["txs"])),
        "blocks": min(y - x for x, y in zip(first["blocks"], last["blocks"])),
        "raw_latencies": latencies,
        "outages": [
            speed * _longest_gap(cluster.log[a["log"] : b["log"]], a["clock_ms"], b["clock_ms"])
            for a, b in zip(snaps, snaps[1:])
        ],
        "entered": last["views"] - first["views"],
        "timeouts": last["timeouts"] - first["timeouts"],
        "msgs": last["msgs"] - first["msgs"],
        "bytes": last["bytes"] - first["bytes"],
    }
    if stats["blocks"] <= 0:
        raise BenchError("nothing committed during the window")
    return stats


def window_figures(segments: list[dict[str, Any]]) -> dict[str, float]:
    """Whole-window throughput, pooled latencies, mean per-slice stall and
    ok share, in reference-host units (``raw_*``: as measured)."""
    def total(key: str) -> float:
        return float(sum(seg[key] for seg in segments))

    raw = [lat for seg in segments for lat in seg["raw_latencies"]]
    scaled = [lat * seg["speed"] for seg in segments for lat in seg["raw_latencies"]]
    blocks = total("blocks")
    return {
        "work_per_s": total("txs") / sum(seg["seconds"] * seg["speed"] for seg in segments),
        "raw_work_per_s": total("txs") / total("seconds"),
        "commit_p50_ms": percentile(scaled, 0.50),
        "commit_p90_ms": percentile(scaled, 0.90),
        "raw_commit_p50_ms": percentile(raw, 0.50),
        "raw_commit_p99_ms": percentile(raw, 0.99),
        "outage_ms": mean(o for seg in segments for o in seg["outages"]),
        "ok_share": 1.0 - total("timeouts") / total("entered"),
        "msgs_per_commit": total("msgs") / blocks,
        "bytes_per_commit": total("bytes") / blocks,
        "views_entered": total("entered"),
        "view_timeouts": total("timeouts"),
        "blocks": blocks,
    }


def _longest_gap(entries: list[tuple[int, float, Any]], start: float, end: float) -> float:
    """Longest commit-free interval of the slowest replica within [start, end]."""
    per_pid: dict[int, list[float]] = {pid: [start] for pid in range(N)}
    for pid, t, _block in entries:
        per_pid[pid].append(t)
    return max(
        max(b - a for a, b in zip(ts, [*ts[1:], end])) for ts in per_pid.values()
    )


async def _probe_loop(probe: SpeedProbe) -> None:
    """Sample the host speed from inside the cluster's event loop."""
    while True:
        await asyncio.sleep(PROBE_PERIOD_S)
        probe.sample()


async def _rss_at(cluster: Cluster, blocks: int, box: dict[str, float]) -> None:
    while min(rt.committed_blocks for rt in cluster.runtimes) < blocks:
        await asyncio.sleep(0.01)
    box["peak_rss_mb"] = peak_rss_mb()


async def _lag_probe(samples: list[float]) -> None:
    while True:
        before = time.monotonic()
        await asyncio.sleep(LAG_PROBE_S)
        samples.append((time.monotonic() - before - LAG_PROBE_S) * 1000.0)


# -- tcp-saturate -------------------------------------------------------------


async def saturate(
    seed: int, seconds: float, setup_only: bool, spawned_at: float, tracer: Any,
    probe: SpeedProbe,
) -> dict[str, Any]:
    cluster = Cluster(seed)
    await cluster.bind()
    await cluster.start()
    out: dict[str, Any] = {"setup_s": time.monotonic() - spawned_at}
    if setup_only:
        await cluster.close()
        cluster.check()
        return out
    # The window is split over fresh clusters: a cluster settles into a
    # fast or a slow pipelining pattern for seconds at a time, and
    # independent segments average those patterns.
    traced_from = SEGMENTS if tracer is None else SEGMENTS // 2
    segments: list[dict[str, Any]] = []
    rss: dict[str, float] = {}
    lag: list[float] = []
    for index in range(SEGMENTS):
        if index > 0:
            # The previous segment's cluster is garbage now; collect it
            # here rather than inside the next segment's window.
            gc.collect()
            cluster = Cluster(seed)
            await cluster.bind()
            await cluster.start()
        if index == traced_from:
            tracer.install()
        try:
            segments.append(
                await _segment(cluster, seconds / SEGMENTS, probe,
                               lag if index >= traced_from else None, rss if index == 0 else None)
            )
        finally:
            await cluster.close()
        cluster.check()
    if tracer is not None:
        tracer.uninstall()
        untraced = window_figures(segments[:traced_from])
        out.update(window_figures(segments[traced_from:]))
        out["overhead_share"] = 1.0 - out["work_per_s"] / untraced["work_per_s"]
        out["loop_lag_ms_p99"] = percentile(lag, 0.99) if lag else 0.0
    else:
        out.update(window_figures(segments))
    out["peak_rss_mb"] = rss.get("peak_rss_mb", peak_rss_mb())
    return out


async def _segment(
    cluster: Cluster, seconds: float, probe: SpeedProbe, lag: list[float] | None,
    rss: dict[str, float] | None,
) -> dict[str, Any]:
    """Measure one running cluster for ``seconds`` in 1 s slices."""
    tasks = [asyncio.ensure_future(_probe_loop(probe))]
    if rss is not None:
        target = min(rt.committed_blocks for rt in cluster.runtimes) + RSS_AT_BLOCKS
        tasks.append(asyncio.ensure_future(_rss_at(cluster, target, rss)))
    if lag is not None:
        tasks.append(asyncio.ensure_future(_lag_probe(lag)))
    slices = max(1, round(seconds / SLICE_S))
    probed = probe.busy_s
    snaps = [cluster.snapshot()]
    try:
        for _ in range(slices):
            await asyncio.sleep(seconds / slices)
            snaps.append(cluster.snapshot())
    finally:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
    speed = probe.factor(snaps[0]["t"], snaps[-1]["t"])
    return segment_stats(cluster, snaps, speed, probe.busy_s - probed)


# -- tcp-open-loop ------------------------------------------------------------


async def _read_json(stream: asyncio.StreamReader, what: str) -> dict[str, Any]:
    line = await asyncio.wait_for(stream.readline(), timeout=60.0)
    if not line:
        raise BenchError(f"generator exited before sending {what}")
    return json.loads(line)


async def open_loop(
    seed: int, seconds: float, setup_only: bool, spawned_at: float, tracer: Any,
    spec: dict[str, Any], probe: SpeedProbe,
) -> dict[str, Any]:
    """One fresh cluster and generator per rate phase: every replica keeps
    every block, so a phase run on the previous phases' heap would pay
    their garbage-collection pauses in its tail latency."""
    rates = [float(spec["rates_per_s"][name]) for name in RATE_NAMES]
    drain_s = float(spec["drain_s"])
    if tracer is not None:
        # Untraced then traced at the mid rate: tracing slows the cluster
        # enough to push the high rate past the knee.
        rates = [rates[1], rates[1]]
    phase_s = seconds / len(rates) - drain_s
    if phase_s < 1.0:
        raise BenchError(f"--seconds {seconds:g} leaves under 1 s per rate phase")
    out: dict[str, Any] = {}
    phases: list[dict[str, Any]] = []
    segments: list[dict[str, Any]] = []
    lag: list[float] = []
    for index, rate in enumerate(rates):
        if index > 0:
            gc.collect()  # the previous phase's cluster, outside any window
        traced = tracer is not None and index == 1
        async with _phase(seed, rate, phase_s, drain_s, spec, traced) as (cluster, proc):
            if index == 0:
                out["setup_s"] = time.monotonic() - spawned_at
                if setup_only:
                    return out
            if traced:
                tracer.install()
            try:
                gen, segment = await _run_phase(cluster, proc, probe, lag if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
        phases.extend(gen["phases"])
        segments.append(segment)
        for key in ("late_ms_p50", "late_ms_p99"):
            out[key] = max(out.get(key, 0.0), gen[key])
        for key in ("sent", "unknown_accepted"):
            out[key] = out.get(key, 0) + gen[key]
    out["phases"] = phases
    out["window"] = window_figures(segments)
    out["loop_lag_ms_p99"] = percentile(lag, 0.99) if lag else 0.0
    return out


@contextlib.asynccontextmanager
async def _phase(
    seed: int, rate: float, phase_s: float, drain_s: float, spec: dict[str, Any], traced: bool
) -> AsyncIterator[tuple[Cluster, Any]]:
    """A booted cluster with a connected generator; both stopped on exit."""
    from gen import GEN_PID

    cluster = Cluster(seed, open_loop_senders=int(spec["senders"]))
    await cluster.bind()
    proc = await asyncio.create_subprocess_exec(
        sys.executable, str(BENCH_DIR / "gen.py"),
        "--seed", str(seed), "--rate", repr(rate),
        "--phase-s", repr(phase_s), "--drain-s", repr(drain_s),
        "--senders", str(spec["senders"]), "--payload", str(PAYLOAD_BYTES),
        "--trace", "1" if traced else "0",
        stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
    )
    if proc.stdin is None or proc.stdout is None:
        raise BenchError("generator pipes missing")
    try:
        port = (await _read_json(proc.stdout, "its port"))["port"]
        await cluster.start({GEN_PID: ("127.0.0.1", int(port))})
        replicas = [list(cluster.addresses[pid]) for pid in range(N)]
        proc.stdin.write((json.dumps({"replicas": replicas}) + "\n").encode())
        await proc.stdin.drain()
        await _read_json(proc.stdout, "its connections")
        yield cluster, proc
    finally:
        if proc.returncode is None:
            proc.stdin.close()
            try:
                await asyncio.wait_for(proc.wait(), timeout=10.0)
            except asyncio.TimeoutError:
                proc.kill()
                await proc.wait()
        await cluster.close()
    if proc.returncode != 0:
        raise BenchError(f"generator exited with code {proc.returncode}")
    cluster.check()


async def _run_phase(
    cluster: Cluster, proc: Any, probe: SpeedProbe, lag: list[float] | None
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Start the generator's schedule and wait for its report; the phase's
    latencies are scaled by the host speed probed while it ran."""
    tasks = [asyncio.ensure_future(_probe_loop(probe))]
    if lag is not None:
        tasks.append(asyncio.ensure_future(_lag_probe(lag)))
    t0 = time.monotonic() + 0.05
    proc.stdin.write((json.dumps({"go": t0}) + "\n").encode())
    await proc.stdin.drain()
    probed = probe.busy_s
    snaps = [cluster.snapshot()]
    report = asyncio.ensure_future(_read_json(proc.stdout, "its result"))
    tasks.append(report)
    try:
        while not report.done():
            await asyncio.wait({report}, timeout=SLICE_S)
            snaps.append(cluster.snapshot())
        gen = report.result()
    finally:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
    speed = probe.factor(snaps[0]["t"], snaps[-1]["t"])
    for phase in gen["phases"]:
        phase["speed"] = speed
    return gen, segment_stats(cluster, snaps, speed, probe.busy_s - probed)


def open_loop_figures(spec: dict[str, Any], gen: dict[str, Any], traced: bool) -> dict[str, Any]:
    """End-to-end figures and validity checks from the generator's report.

    ``commit_p50_ms`` and ``commit_p90_ms`` come from the low rate
    (latency without queueing), scaled by the host speed during that phase;
    load enters through the SLO rate, which every phase's p99 decides.
    """
    if gen["late_ms_p99"] > float(spec["max_generator_late_ms"]):
        raise BenchError(
            f"invalid run: generator p99 lateness {gen['late_ms_p99']:.2f} ms "
            f"exceeds {spec['max_generator_late_ms']} ms"
        )
    if gen["unknown_accepted"]:
        raise BenchError(f"{gen['unknown_accepted']} ACCEPTED replies name unsent txs")
    phases = gen["phases"]
    attempted = sum(p["sent"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    if traced:
        untraced, traced_phase = phases
        return {
            "overhead_share": (traced_phase["p50_ms"] * traced_phase["speed"])
            / (untraced["p50_ms"] * untraced["speed"]) - 1.0,
            "attempted": attempted,
            "failed": failed,
        }
    limit = float(spec["p99_limit_ms"])
    meeting = [p["rate"] for p in phases if p["p99_ms"] <= limit and not p["backlog_growing"]]
    low = phases[0]
    return {
        "work_per_s": max(meeting) if meeting else 0.0,
        "commit_p50_ms": low["p50_ms"] * low["speed"],
        "commit_p90_ms": low["p90_ms"] * low["speed"],
        "ok_share": 1.0 - failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "per_rate": dict(zip(RATE_NAMES, phases)),
    }
