"""Perf measurement and the ``repro perf`` baseline/check gate.

Two measurements feed ``BENCH_baseline.json``:

* **hotpath** - one simulation cell, reporting the simulator's
  events/sec counters.
* **grid** - a small Fig 6-style grid timed sequentially and in
  parallel (``repro.bench.parallel``); the parallel run must reproduce
  the sequential results exactly, and ``parallel_speedup`` is its win.

Three crypto-pipeline cells ride along: **batch_verify** (per-signature
vs joint Schnorr verification of a quorum certificate, gated at
``MIN_BATCH_SPEEDUP``), **codec** (encode/decode round-trips of a
realistic proposal, drift-gated), and **parallel_verify** (the sharded
``VerifyPool`` vs in-process verification; skipped - not failed - on
single-core machines).

``check_bench`` reuses :mod:`repro.analysis.regression`'s drift
machinery (:class:`Drift` / :class:`RegressionReport`) to diff a fresh
measurement against the committed baseline.  Wall-clock numbers on
shared CI are noisy, so the gate only fails on *pathological* slowdowns
(default 3x) or on losing the speedups outright.  The parallel speedup
is only demanded where the grid actually ran on two or more workers.
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import Any

from repro.analysis.regression import Drift, RegressionReport
from repro.bench.experiments import ALL_PROTOCOLS
from repro.bench.parallel import resolve_jobs, run_cells
from repro.bench.runner import ExperimentRunner
from repro.config import SystemConfig
from repro.runtime.sim import ConsensusSystem

#: Default baseline location (repo root, next to full_results.json's dir).
BASELINE_DEFAULT = "BENCH_baseline.json"

#: Default measurement parameters, recorded in the baseline's ``meta`` so
#: a later ``--check`` re-measures the *same* workload.
DEFAULT_HOTPATH = {"protocol": "hotstuff", "f": 20, "views": 6, "payload": 256, "seed": 1}
#: Grid thresholds lean toward the paper's larger f values, where quorum
#: verification (quadratic in f) dominates each cell.
DEFAULT_GRID = {"thresholds": [2, 10, 20], "views": 6, "repetitions": 2, "payload": 256}

#: Catch-up cell: one crash/miss/rejoin cycle on the simulator (see
#: ``measure_catchup``), sized to finish in a couple of seconds.
DEFAULT_CATCHUP = {"missed": 150, "interval": 25, "seed": 11}

#: Batch-verification cell: per-signature vs joint Schnorr verification
#: of a 2f+1-signature quorum certificate at the paper's f values.
DEFAULT_BATCH_VERIFY = {"thresholds": [2, 10, 20], "seed": 5}

#: Codec cell: encode/decode round-trips of a realistic proposal
#: (block of transactions plus a full quorum certificate).
DEFAULT_CODEC = {"rounds": 400, "block_size": 32, "payload": 128, "f": 2}

DEFAULT_MEMPOOL = {"txs": 20_000, "block_size": 400, "payload": 256, "senders": 64}

#: Parallel-verification cell: the sharded :class:`VerifyPool` against
#: in-process verification of the same pairs (skipped below 2 cores).
DEFAULT_PARALLEL_VERIFY = {"pairs": 24, "seed": 9}

#: The algebraic batch equation must keep paying at quorum size: joint
#: verification of a 2f+1-signature certificate at the largest measured
#: f has to be at least this much faster than per-signature checking.
MIN_BATCH_SPEEDUP = 2.0

#: Slowdown factor treated as a regression (generous: CI machines vary).
DEFAULT_THRESHOLD = 3.0

#: Required grid ``parallel_speedup`` once two or more workers ran it:
#: a 2x end-to-end grid win over unmemoized sequential code, divided by
#: the 1.248x the memos gave the committed grid.
MIN_PARALLEL_SPEEDUP = 1.6


def measure_hotpath(params: dict[str, Any] | None = None) -> dict[str, Any]:
    """Time one simulation cell; report wall time and events/sec."""
    p = dict(DEFAULT_HOTPATH)
    p.update(params or {})
    config = SystemConfig(
        protocol=p["protocol"], f=p["f"], payload_bytes=p["payload"], seed=p["seed"]
    )
    system = ConsensusSystem(config)
    system.sim.attach_wall_clock(time.perf_counter)
    system.run_until_views(p["views"])
    wall = system.sim.wall_seconds
    events = system.sim.events_processed
    return {
        "params": p,
        "cached": {
            "wall_seconds": round(wall, 4),
            "events": events,
            "events_per_sec": round(events / wall, 1) if wall > 0 else 0.0,
        },
    }


def measure_grid(
    params: dict[str, Any] | None = None, jobs: int = 0
) -> dict[str, Any]:
    """Time a small Fig 6-style grid sequentially and in parallel."""
    p = dict(DEFAULT_GRID)
    p.update(params or {})
    runner = ExperimentRunner(
        payload_bytes=p["payload"],
        views_per_run=p["views"],
        repetitions=p["repetitions"],
    )
    cells = [(protocol, f) for protocol in ALL_PROTOCOLS for f in p["thresholds"]]
    start = time.perf_counter()
    sequential = run_cells(runner, cells, jobs=1)
    seq_s = time.perf_counter() - start

    effective_jobs = min(resolve_jobs(jobs), 4)
    par_s = seq_s
    if effective_jobs > 1:
        start = time.perf_counter()
        parallel = run_cells(runner, cells, jobs=effective_jobs)
        par_s = time.perf_counter() - start
        if parallel != sequential:
            raise AssertionError("parallel grid diverged from sequential grid")
    return {
        "params": p,
        "cells": len(cells),
        "jobs": effective_jobs,
        "sequential_cached_s": round(seq_s, 3),
        "parallel_cached_s": round(par_s, 3),
        "parallel_speedup": round(seq_s / par_s, 3) if par_s > 0 else 0.0,
    }


def measure_catchup(params: dict[str, Any] | None = None) -> dict[str, Any]:
    """Time a crash/miss/rejoin-by-checkpoint cycle on the simulator.

    The robustness counterpart to the throughput cells: a replica sits
    out ``missed`` views, the survivors certify checkpoints and compact,
    and the rejoiner must come back inside ``catchup_view_gap`` of the
    frontier via state transfer.  Records the wall time of the whole
    cycle plus the simulated rejoin latency.
    """
    from repro.costs import CostModel

    p = dict(DEFAULT_CATCHUP)
    p.update(params or {})
    config = SystemConfig(
        protocol="damysus",
        f=1,
        payload_bytes=0,
        block_size=1,
        seed=p["seed"],
        timeout_ms=500.0,
        costs=CostModel.zero(),
        checkpoint_interval=p["interval"],
    )
    t0 = time.perf_counter()
    system = ConsensusSystem(config)
    system.start()
    system.run_until_views(5, max_time_ms=600_000)
    victim = system.replicas[-1].pid
    system.crash_replicas([victim])
    base_views = len(system.monitor.committed_views())
    system.run_until_views(base_views + p["missed"], max_time_ms=p["missed"] * 10_000.0)
    system.recover_replicas([victim])
    recovered = system.replicas[victim]
    rejoin_t0 = system.sim.now
    deadline = rejoin_t0 + p["missed"] * 200.0
    while system.sim.now < deadline:
        system.sim.run(until=system.sim.now + 500.0)
        if recovered.view_lag() <= config.catchup_view_gap:
            break
    wall = time.perf_counter() - t0
    if recovered.view_lag() > config.catchup_view_gap or not system.oracle.safe:
        raise AssertionError("catchup bench scenario failed to rejoin safely")
    return {
        "params": p,
        "wall_seconds": round(wall, 4),
        "rejoin_sim_ms": round(system.sim.now - rejoin_t0, 1),
        "replayed_blocks": len(recovered.ledger.executed),
        "via_checkpoint": recovered.caught_up_via_checkpoint,
    }


def measure_batch_verify(params: dict[str, Any] | None = None) -> dict[str, Any]:
    """Per-signature vs batch Schnorr verification of quorum certificates.

    The quorum-certificate shape: 2f+1 distinct signers over one
    message.  ``verify_many`` checks the whole set with one random-
    linear-combination equation (one shared multi-exponentiation)
    instead of 2f+1 independent verifications; this cell records the
    measured speedup per f and asserts the outcomes are identical.
    """
    from repro.crypto.schnorr import GROUP_2048, SchnorrScheme

    p = dict(DEFAULT_BATCH_VERIFY)
    p.update(params or {})
    message = f"batch-verify-cell-{p['seed']}".encode()
    cells: list[dict[str, Any]] = []
    max_speedup = 0.0
    for f in p["thresholds"]:
        k = 2 * f + 1
        scheme = SchnorrScheme(GROUP_2048)
        for signer in range(k):
            scheme.keygen(signer)
        pairs = [(message, scheme.sign(signer, message)) for signer in range(k)]
        start = time.perf_counter()
        per_sig = [scheme.verify(m, sig) for m, sig in pairs]
        per_sig_s = time.perf_counter() - start
        start = time.perf_counter()
        batched = scheme.verify_many(pairs)
        batch_s = time.perf_counter() - start
        if per_sig != batched or not all(batched):
            raise AssertionError(f"batch verification diverged at f={f}")
        speedup = round(per_sig_s / batch_s, 3) if batch_s > 0 else 0.0
        max_speedup = max(max_speedup, speedup)
        cells.append(
            {
                "f": f,
                "sigs": k,
                "per_sig_s": round(per_sig_s, 4),
                "batch_s": round(batch_s, 4),
                "speedup": speedup,
            }
        )
    return {"params": p, "cells": cells, "max_speedup": round(max_speedup, 3)}


def measure_codec(params: dict[str, Any] | None = None) -> dict[str, Any]:
    """Encode/decode throughput for a realistic proposal message."""
    from repro.core.block import create_leaf, genesis_block
    from repro.core.certificate import QuorumCert, vote_payload
    from repro.core.codec import decode_message, encode_message
    from repro.core.mempool import Transaction
    from repro.core.messages import ProposalMsg
    from repro.core.phases import Phase
    from repro.crypto.hmac_scheme import HmacScheme

    p = dict(DEFAULT_CODEC)
    p.update(params or {})
    quorum = 2 * p["f"] + 1
    scheme = HmacScheme(secret=b"codec-cell")
    for signer in range(quorum):
        scheme.keygen(signer)
    txs = tuple(
        Transaction(client_id=0, tx_id=i, payload_bytes=p["payload"])
        for i in range(p["block_size"])
    )
    block = create_leaf(genesis_block().hash, 1, txs)
    payload = vote_payload(1, Phase.PREPARE, block.hash)
    qc = QuorumCert(
        1,
        block.hash,
        Phase.PREPARE,
        tuple(scheme.sign(signer, payload) for signer in range(quorum)),
    )
    msg = ProposalMsg(1, block, qc)
    rounds = p["rounds"]
    start = time.perf_counter()
    for _ in range(rounds):
        wire = encode_message(msg)
    encode_s = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(rounds):
        decoded = decode_message(wire)
    decode_s = time.perf_counter() - start
    if decoded != msg:
        raise AssertionError("codec round-trip diverged")
    return {
        "params": p,
        "wire_bytes": len(wire),
        "encode_per_sec": round(rounds / encode_s, 1) if encode_s > 0 else 0.0,
        "decode_per_sec": round(rounds / decode_s, 1) if decode_s > 0 else 0.0,
        "wall_seconds": round(encode_s + decode_s, 4),
    }


def measure_mempool(params: dict[str, Any] | None = None) -> dict[str, Any]:
    """Admission + drain throughput of the bounded priority mempool.

    Enqueues ``txs`` distinct transactions through the full admission
    pipeline (replay check, token bucket, watermark, caps) across
    ``senders`` sender ids with varied fees, then drains everything in
    ``block_size`` proposals - the two halves of the leader's ingest
    hot path.
    """
    from repro.core.mempool import AdmissionVerdict, Transaction
    from repro.mempool.pool import PriorityMempool

    p = dict(DEFAULT_MEMPOOL)
    p.update(params or {})
    txs = p["txs"]
    pool = PriorityMempool(
        p["payload"],
        p["block_size"],
        open_loop=False,
        # Sized to hold the full batch with the watermark never engaging:
        # the cell measures admission/drain churn, not rejection paths.
        max_txs=txs,
        high_watermark=1.0,
        low_watermark=1.0,
    )
    batch = [
        Transaction(
            client_id=i % p["senders"],
            tx_id=i,
            payload_bytes=p["payload"],
            fee=i % 7,
        )
        for i in range(txs)
    ]
    start = time.perf_counter()
    for tx in batch:
        if pool.admit(tx, 0.0) is not AdmissionVerdict.ACCEPTED:
            raise AssertionError("admission rejected a distinct transaction")
    enqueue_s = time.perf_counter() - start
    drained = 0
    start = time.perf_counter()
    while pool.pending():
        drained += len(pool.take_block(0.0))
    drain_s = time.perf_counter() - start
    if drained != txs:
        raise AssertionError(f"drained {drained} of {txs} transactions")
    return {
        "params": p,
        "enqueue_per_sec": round(txs / enqueue_s, 1) if enqueue_s > 0 else 0.0,
        "drain_per_sec": round(txs / drain_s, 1) if drain_s > 0 else 0.0,
        "wall_seconds": round(enqueue_s + drain_s, 4),
    }


def measure_parallel_verify(
    params: dict[str, Any] | None = None, jobs: int = 0
) -> dict[str, Any]:
    """Sharded :class:`VerifyPool` vs in-process verification.

    Returns ``{"skipped": reason}`` on machines with fewer than two
    cores - a single worker can only add IPC overhead, so the gate
    treats the cell as not-applicable rather than failed there.
    Outcomes must be bit-identical to sequential verification.
    """
    from repro.crypto.pool import VerifyPool, available_cpus, resolve_verify_jobs
    from repro.crypto.schnorr import GROUP_2048, SchnorrScheme

    p = dict(DEFAULT_PARALLEL_VERIFY)
    p.update(params or {})
    cpus = available_cpus()
    if cpus < 2:
        return {"params": p, "skipped": f"only {cpus} cpu(s) available"}
    effective = min(resolve_verify_jobs(jobs), 4)
    scheme = SchnorrScheme(GROUP_2048)
    signers = max(4, min(p["pairs"], 8))
    for signer in range(signers):
        scheme.keygen(signer)
    pairs = []
    for i in range(p["pairs"]):
        message = f"parallel-cell-{p['seed']}-{i}".encode()
        pairs.append((message, scheme.sign(i % signers, message)))
    start = time.perf_counter()
    sequential = scheme.verify_many(pairs)
    sequential_s = time.perf_counter() - start
    with VerifyPool(scheme, jobs=effective, chunk=4) as pool:
        pool.verify_many(pairs[:2])  # absorb worker start-up cost
        start = time.perf_counter()
        sharded = pool.verify_many(pairs)
        sharded_s = time.perf_counter() - start
    if sharded != sequential:
        raise AssertionError("sharded verification diverged from sequential")
    return {
        "params": p,
        "jobs": effective,
        "sequential_s": round(sequential_s, 4),
        "sharded_s": round(sharded_s, 4),
        "speedup": round(sequential_s / sharded_s, 3) if sharded_s > 0 else 0.0,
    }


def collect_bench(jobs: int = 0, quick: bool = False) -> dict[str, Any]:
    """Full measurement blob for the baseline file."""
    from repro.crypto.pool import available_cpus

    hot_params = dict(DEFAULT_HOTPATH)
    grid_params = dict(DEFAULT_GRID)
    catch_params = dict(DEFAULT_CATCHUP)
    batch_params = dict(DEFAULT_BATCH_VERIFY)
    codec_params = dict(DEFAULT_CODEC)
    mempool_params = dict(DEFAULT_MEMPOOL)
    if quick:
        # Keep f=10 in the quick grid and batch cell: quorum work (and
        # the batch-verification win) grows with f, and an all-small-f
        # run would be dominated by fixed costs.
        hot_params.update(f=10, views=4)
        grid_params.update(thresholds=[2, 10], views=4, repetitions=1)
        catch_params.update(missed=60)
        batch_params.update(thresholds=[2, 10])
        codec_params.update(rounds=150)
        mempool_params.update(txs=5_000)
    return {
        "meta": {
            # Honest core count: sched_getaffinity when available (a CI
            # container may be pinned to fewer cores than the host has).
            "cpus": available_cpus(),
            "quick": quick,
            "schema": 1,
        },
        "hotpath": measure_hotpath(hot_params),
        "grid": measure_grid(grid_params, jobs=jobs),
        "catchup": measure_catchup(catch_params),
        "batch_verify": measure_batch_verify(batch_params),
        "codec": measure_codec(codec_params),
        "mempool": measure_mempool(mempool_params),
        "parallel_verify": measure_parallel_verify(jobs=jobs),
    }


def write_baseline(path: str | pathlib.Path, bench: dict[str, Any]) -> None:
    pathlib.Path(path).write_text(json.dumps(bench, indent=2) + "\n")


def load_baseline(path: str | pathlib.Path) -> dict[str, Any]:
    return json.loads(pathlib.Path(path).read_text())


def check_bench(
    baseline: dict[str, Any],
    current: dict[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
) -> tuple[bool, RegressionReport, list[str]]:
    """Diff a fresh measurement against the baseline.

    Returns ``(ok, report, messages)``.  Failure conditions:

    * hot-path events/sec dropped by more than ``threshold``x;
    * grid wall-clock grew by more than ``threshold``x;
    * grid ``parallel_speedup`` below ``MIN_PARALLEL_SPEEDUP`` when two
      or more workers ran it;
    * batch verification below ``MIN_BATCH_SPEEDUP`` at quorum size;
    * codec throughput or sharded verification ``threshold``x slower
      (the parallel cell is skipped, not failed, below 2 cores).
    """
    report = RegressionReport()
    messages: list[str] = []
    ok = True

    base_eps = baseline["hotpath"]["cached"]["events_per_sec"]
    cur_eps = current["hotpath"]["cached"]["events_per_sec"]
    report.drifts.append(Drift("hotpath", "cached", "events_per_sec", base_eps, cur_eps))
    if base_eps > 0 and cur_eps < base_eps / threshold:
        ok = False
        messages.append(
            f"FAIL hotpath: {cur_eps:.0f} events/s vs baseline {base_eps:.0f} "
            f"(more than {threshold:g}x slower)"
        )

    for metric in ("sequential_cached_s", "parallel_cached_s"):
        base_s = baseline["grid"][metric]
        cur_s = current["grid"][metric]
        report.drifts.append(Drift("grid", "fig6-small", metric, base_s, cur_s))
        if base_s > 0 and cur_s > base_s * threshold:
            ok = False
            messages.append(
                f"FAIL grid {metric}: {cur_s:.2f}s vs baseline {base_s:.2f}s "
                f"(more than {threshold:g}x slower)"
            )

    # Catch-up cell: only compared when both sides recorded it, so a
    # baseline written before the cell existed still checks clean.
    base_catch = baseline.get("catchup")
    cur_catch = current.get("catchup")
    if base_catch is not None and cur_catch is not None:
        base_s = base_catch["wall_seconds"]
        cur_s = cur_catch["wall_seconds"]
        report.drifts.append(Drift("catchup", "rejoin", "wall_seconds", base_s, cur_s))
        if base_s > 0 and cur_s > base_s * threshold:
            ok = False
            messages.append(
                f"FAIL catchup: {cur_s:.2f}s vs baseline {base_s:.2f}s "
                f"(more than {threshold:g}x slower)"
            )
        if not cur_catch.get("via_checkpoint", False):
            ok = False
            messages.append(
                "FAIL catchup: rejoin happened by full replay, not by "
                "certified checkpoint transfer"
            )

    # Crypto-pipeline cells: like catchup, compared only when both sides
    # recorded them, so a pre-pipeline baseline still checks clean.
    base_batch = baseline.get("batch_verify")
    cur_batch = current.get("batch_verify")
    if cur_batch is not None:
        max_speedup = cur_batch["max_speedup"]
        if base_batch is not None:
            report.drifts.append(
                Drift(
                    "batch_verify",
                    "schnorr-qc",
                    "max_speedup",
                    base_batch["max_speedup"],
                    max_speedup,
                )
            )
        if max_speedup < MIN_BATCH_SPEEDUP:
            ok = False
            messages.append(
                f"FAIL batch_verify: speedup {max_speedup:.2f}x < "
                f"{MIN_BATCH_SPEEDUP:g}x at quorum size - the joint "
                "verification equation stopped paying"
            )

    base_codec = baseline.get("codec")
    cur_codec = current.get("codec")
    if base_codec is not None and cur_codec is not None:
        for metric in ("encode_per_sec", "decode_per_sec"):
            base_rate = base_codec[metric]
            cur_rate = cur_codec[metric]
            report.drifts.append(Drift("codec", "proposal", metric, base_rate, cur_rate))
            if base_rate > 0 and cur_rate < base_rate / threshold:
                ok = False
                messages.append(
                    f"FAIL codec {metric}: {cur_rate:.0f}/s vs baseline "
                    f"{base_rate:.0f}/s (more than {threshold:g}x slower)"
                )

    # Guarded like the codec cell: baselines written before the mempool
    # cell existed still check clean.
    base_pool = baseline.get("mempool")
    cur_pool = current.get("mempool")
    if base_pool is not None and cur_pool is not None:
        for metric in ("enqueue_per_sec", "drain_per_sec"):
            base_rate = base_pool[metric]
            cur_rate = cur_pool[metric]
            report.drifts.append(Drift("mempool", "ingest", metric, base_rate, cur_rate))
            if base_rate > 0 and cur_rate < base_rate / threshold:
                ok = False
                messages.append(
                    f"FAIL mempool {metric}: {cur_rate:.0f}/s vs baseline "
                    f"{base_rate:.0f}/s (more than {threshold:g}x slower)"
                )

    # Parallel verification needs a second core to demonstrate anything;
    # a skipped cell is not-applicable, never a failure.
    cur_par = current.get("parallel_verify")
    if cur_par is not None:
        if "skipped" in cur_par:
            messages.append(f"skip parallel_verify: {cur_par['skipped']}")
        else:
            base_par = baseline.get("parallel_verify")
            if base_par is not None and "skipped" not in base_par:
                report.drifts.append(
                    Drift(
                        "parallel_verify",
                        "pool",
                        "sharded_s",
                        base_par["sharded_s"],
                        cur_par["sharded_s"],
                    )
                )
                if (
                    base_par["sharded_s"] > 0
                    and cur_par["sharded_s"] > base_par["sharded_s"] * threshold
                ):
                    ok = False
                    messages.append(
                        f"FAIL parallel_verify: {cur_par['sharded_s']:.2f}s vs "
                        f"baseline {base_par['sharded_s']:.2f}s "
                        f"(more than {threshold:g}x slower)"
                    )

    jobs = current["grid"]["jobs"]
    speedup = current["grid"]["parallel_speedup"]
    if jobs < 2:
        messages.append(f"ok: grid ran on one worker (jobs={jobs}); no parallel gate")
    elif speedup < MIN_PARALLEL_SPEEDUP:
        ok = False
        messages.append(
            f"FAIL grid parallel_speedup {speedup:.2f}x < required "
            f"{MIN_PARALLEL_SPEEDUP:g}x (jobs={jobs})"
        )
    else:
        messages.append(
            f"ok: grid parallel_speedup {speedup:.2f}x (required "
            f"{MIN_PARALLEL_SPEEDUP:g}x at jobs={jobs})"
        )
    return ok, report, messages
