"""Traced runs: per-layer counts, busy time and spans, recorded from outside.

The library carries no tracing of its own, so a traced run wraps the
public functions of each layer with a timing-and-counting shim while the
workload runs.  Many callers bind names at import time
(``from repro.crypto.hashing import hash_fields``), so a wrapper placed
only on the defining module would record nothing: module-level functions
are patched at *every* ``repro.*`` module attribute that holds them, and
methods on the class that defines them.  ``install`` reports how many
lookup sites each wrapper took, and :func:`check_expectations` asserts
that each wrapper fired on the workloads where its layer works and stayed
silent where the workload bypasses it.

Every wrapped call is a span (name, start, end, parent span, optional
transaction id) kept in memory up to a cap and written out at the end of
the run.  A span's self time is its duration minus the time covered by
its child spans.  Nested calls of the same group (``hash_fields`` calling
``sha256``, ``verify_all`` calling ``verify_many_cached``) fold into the
outermost call, so counts are calls *into* a layer.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable

from common import BENCHMARK_JSON, OUT_DIR, percentile

#: Spans kept in memory per run; counts and times cover every call.
SPAN_CAP = 50_000

TEE_APIS = (
    "tee_sign",
    "tee_prepare",
    "tee_store",
    "tee_start",
    "tee_accum",
    "tee_finalize",
    "tee_checkpoint",
)

#: Every per-layer metric, with its unit, in report order (``per_layer``
#: of ``BENCHMARK.json``).
LAYER_METRICS: dict[str, str] = {
    m["name"]: m["unit"] for m in json.loads(BENCHMARK_JSON.read_text())["per_layer"]
}


class Tracer:
    """Span stack, per-name aggregates and the monkeypatch bookkeeping."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counters: Counter[str] = Counter()
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self.spans: list[tuple[int, str, float, float, int, Any]] = []
        self.span_total = 0
        self.sites: dict[str, int] = {}
        self._stack: list[list[Any]] = []  # [name, start, child_s, span_id]
        self._depth: Counter[str] = Counter()
        self._next_id = 1
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------

    def call(
        self,
        name: str,
        fn: Callable[..., Any],
        args: tuple[Any, ...],
        kwargs: dict[str, Any],
        tag: Any = None,
    ) -> Any:
        """Run ``fn`` as a span named ``name`` (nested same-name calls fold)."""
        if self._depth[name]:
            return fn(*args, **kwargs)
        stack = self._stack
        span_id = self._next_id
        self._next_id += 1
        parent = stack[-1][3] if stack else 0
        frame = [name, time.perf_counter(), 0.0, span_id]
        stack.append(frame)
        self._depth[name] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self._depth[name] -= 1
            duration = end - frame[1]
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += duration - frame[2]
            if stack:
                stack[-1][2] += duration
            self.span_total += 1
            if len(self.spans) < SPAN_CAP:
                self.spans.append((span_id, name, frame[1], end, parent, tag))

    def mark(self, name: str, tag: Any) -> None:
        """Record a zero-length span (an event on a transaction's path)."""
        now = time.perf_counter()
        parent = self._stack[-1][3] if self._stack else 0
        span_id = self._next_id
        self._next_id += 1
        self.span_total += 1
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, name, now, now, parent, tag))

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` as a span named ``name``."""
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            return tracer.call(name, fn, args, kwargs)

        return traced

    # -- patching ----------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(
        self, module: str, attr: str, make: Callable[[Callable[..., Any]], Callable[..., Any]],
        key: str, exclude: tuple[str, ...] = (),
    ) -> None:
        """Replace ``module.attr`` at every ``repro.*`` module that holds it."""
        original = getattr(sys.modules[module], attr)
        wrapper = make(original)
        sites = 0
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod_name in exclude or mod is None:
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapper)
                    sites += 1
        self.sites[key] = self.sites.get(key, 0) + sites

    def patch_method(
        self, cls: type, attr: str, make: Callable[[Callable[..., Any]], Callable[..., Any]],
        key: str,
    ) -> None:
        """Wrap ``attr`` on ``cls`` and on every subclass that redefines it."""
        sites = 0
        todo = [cls]
        seen: set[type] = set()
        while todo:
            klass = todo.pop()
            if klass in seen:
                continue
            seen.add(klass)
            todo.extend(klass.__subclasses__())
            if attr in klass.__dict__:
                self._set(klass, attr, make(klass.__dict__[attr]))
                sites += 1
        self.sites[key] = self.sites.get(key, 0) + sites

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self) -> None:
        """Wrap every listed public function of every layer."""
        # Imports happen here so that an untraced run never pays for them.
        from repro.core.executor import Ledger
        from repro.crypto.scheme import SignatureScheme
        from repro.errors import TEERefusal
        from repro.mempool.pool import PriorityMempool
        from repro.protocols.replica import BaseReplica
        from repro.protocols.sync import SyncBlocks
        from repro.runtime.asyncio_net import AsyncioRuntime
        from repro.runtime.effects import Send
        from repro.runtime.framing import FrameDecoder
        from repro.runtime.machine import Machine
        from repro.runtime.sim import MachineProcess
        from repro.sim.events import Simulator
        from repro.sim.monitor import Monitor
        from repro.sim.network import Network
        from repro.tee.accumulator import AccumulatorService
        from repro.tee.checker import Checker

        tracer = self
        span = self.wrap

        # -- sim ------------------------------------------------------------
        # ``step`` (one event, as sim-rejoin drives its rejoin phase) counts
        # into the same span and counter as ``run``.
        def make_run(fn: Callable[..., Any]) -> Callable[..., Any]:
            def run(sim: Any, *args: Any, **kwargs: Any) -> Any:
                before = sim.events_processed
                try:
                    return tracer.call("sim.run", fn, (sim, *args), kwargs)
                finally:
                    tracer.counters["sim.events"] += sim.events_processed - before
            return run

        for attr in ("run", "step"):
            self.patch_method(Simulator, attr, make_run, "sim.run")
        self.patch_method(Network, "send", lambda fn: span("sim.network_send", fn), "sim.network_send")
        for attr in ("committed_views", "record_send", "record_execution"):
            self.patch_method(Monitor, attr, lambda fn: span("sim.monitor", fn), "sim.monitor")

        # -- crypto -----------------------------------------------------------
        for attr in ("sha256", "encode_fields", "hash_fields", "hash_block_fields"):
            self.patch_function(
                "repro.crypto.hashing", attr, lambda fn: span("crypto.hash", fn), "crypto.hash"
            )
        self.patch_method(SignatureScheme, "sign", lambda fn: span("crypto.sign", fn), "crypto.sign")
        counts = {
            "verify": lambda a: 1,
            "verify_many": lambda a: len(a[0]),
            "verify_batch": lambda a: len(a[1]),
            "verify_cached": lambda a: 1,
            "verify_many_cached": lambda a: len(a[0]),
            "verify_all": lambda a: len(a[1]),
        }
        depth = {"cached": 0, "raw": 0}

        def make_verify(attr: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
            cached = attr in ("verify_cached", "verify_many_cached", "verify_all")
            pairs_of = counts[attr]

            def make(fn: Callable[..., Any]) -> Callable[..., Any]:
                def verify(obj: Any, *args: Any, **kwargs: Any) -> Any:
                    kind = "cached" if cached else "raw"
                    if cached and depth["cached"] == 0:
                        tracer.counters["crypto.verify_memo_requests"] += pairs_of(args)
                    if not cached and depth["raw"] == 0 and depth["cached"] > 0:
                        tracer.counters["crypto.verify_memo_misses"] += pairs_of(args)
                    depth[kind] += 1
                    try:
                        return tracer.call("crypto.verify", fn, (obj, *args), kwargs)
                    finally:
                        depth[kind] -= 1
                return verify
            return make

        for attr in counts:
            self.patch_method(SignatureScheme, attr, make_verify(attr), "crypto.verify")

        # -- core -------------------------------------------------------------
        # Only lookup sites outside the codec count: the codec's own
        # internals (and ``wire_size_of``, the simulator's size model)
        # are not wire traffic.
        def make_encode(fn: Callable[..., Any]) -> Callable[..., Any]:
            def encode_message(msg: Any) -> bytes:
                data = tracer.call("core.encode", fn, (msg,), {})
                tracer.counters["core.encoded_bytes"] += len(data)
                return data
            return encode_message

        self.patch_function(
            "repro.core.codec", "encode_message", make_encode, "core.encode",
            exclude=("repro.core.codec",),
        )
        self.patch_function(
            "repro.core.codec", "decode_message", lambda fn: span("core.decode", fn),
            "core.decode", exclude=("repro.core.codec",),
        )

        def count_wire_size(fn: Callable[..., Any]) -> Callable[..., Any]:
            def wire_size_of(payload: Any) -> Any:
                tracer.counters["core.wire_size_calls"] += 1
                return fn(payload)
            return wire_size_of

        self.patch_function("repro.core.codec", "wire_size_of", count_wire_size, "core.wire_size")
        for attr in ("execute", "apply_synced"):
            self.patch_method(Ledger, attr, lambda fn: span("core.ledger_execute", fn), "core.ledger")

        # -- tee --------------------------------------------------------------
        def make_tee(api: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
            def make(fn: Callable[..., Any]) -> Callable[..., Any]:
                def tee_call(*args: Any, **kwargs: Any) -> Any:
                    try:
                        return tracer.call(f"tee.{api}", fn, args, kwargs)
                    except TEERefusal:
                        tracer.counters["tee.refusals"] += 1
                        raise
                return tee_call
            return make

        for api in ("tee_sign", "tee_prepare", "tee_store", "tee_checkpoint", "tee_install_checkpoint"):
            self.patch_method(Checker, api, make_tee(api), "tee.checker")
        for api in ("tee_start", "tee_accum", "tee_finalize"):
            self.patch_method(AccumulatorService, api, make_tee(api), "tee.accumulator")

        # -- protocols --------------------------------------------------------
        self.patch_method(BaseReplica, "on_message", lambda fn: span("protocols.handler", fn), "protocols.on_message")
        self.patch_method(Machine, "on_timer", lambda fn: span("protocols.handler", fn), "protocols.on_timer")

        def count_sync(fn: Callable[..., Any]) -> Callable[..., Any]:
            def execute(runtime: Any, effects: list[Any]) -> Any:
                for effect in effects:
                    if type(effect) is Send and isinstance(effect.payload, SyncBlocks):
                        tracer.counters["protocols.sync_blocks_served"] += len(effect.payload.blocks)
                return fn(runtime, effects)
            return execute

        self._set(MachineProcess, "execute", count_sync(MachineProcess.__dict__["execute"]))
        self._set(AsyncioRuntime, "execute", count_sync(AsyncioRuntime.__dict__["execute"]))

        # -- mempool ----------------------------------------------------------
        def make_admit(fn: Callable[..., Any]) -> Callable[..., Any]:
            def admit(pool: Any, tx: Any, now: float) -> Any:
                verdict = tracer.call(
                    "mempool.admit", fn, (pool, tx, now), {}, tag=(tx.client_id, tx.tx_id)
                )
                if verdict.value == "accepted":
                    tracer.counters["mempool.accepted"] += 1
                return verdict
            return admit

        def make_take(fn: Callable[..., Any]) -> Callable[..., Any]:
            def take_block(pool: Any, now: float) -> Any:
                batch = tracer.call("mempool.take_block", fn, (pool, now), {})
                if pool.open_loop:
                    return batch
                wall_ms = time.monotonic() * 1000.0
                for tx in batch:
                    # Generator transactions carry their due time (monotonic
                    # ms) in ``submitted_at``: due -> included in a proposal.
                    tracer.samples["mempool.queue_wait_ms"].append(wall_ms - tx.submitted_at)
                    tracer.mark("mempool.included", (tx.client_id, tx.tx_id))
                return batch
            return take_block

        self.patch_method(PriorityMempool, "admit", make_admit, "mempool.admit")
        self.patch_method(PriorityMempool, "take_block", make_take, "mempool.take_block")

        # -- runtime ----------------------------------------------------------
        def make_feed(fn: Callable[..., Any]) -> Callable[..., Any]:
            def feed(decoder: Any, data: bytes) -> Any:
                frames = tracer.call("runtime.frame_feed", fn, (decoder, data), {})
                tracer.counters["runtime.frames_in"] += len(frames)
                return frames
            return feed

        self.patch_method(FrameDecoder, "feed", make_feed, "runtime.feed")

    # -- results -----------------------------------------------------------

    def metrics(self, extra: dict[str, float]) -> dict[str, float]:
        """All per-layer metrics: wrapper aggregates plus workload-side ``extra``."""
        c, t, s = self.calls, self.total_s, self.self_s
        wait = self.samples.get("mempool.queue_wait_ms", [])
        requests = self.counters["crypto.verify_memo_requests"]
        admits = c["mempool.admit"]
        values: dict[str, float] = {
            "sim.events": self.counters["sim.events"],
            "sim.self_s": s["sim.run"],
            "sim.network_sends": c["sim.network_send"],
            "sim.network_send_s": t["sim.network_send"],
            "sim.monitor_s": t["sim.monitor"],
            "crypto.hash_calls": c["crypto.hash"],
            "crypto.hash_s": t["crypto.hash"],
            "crypto.sign_calls": c["crypto.sign"],
            "crypto.sign_s": t["crypto.sign"],
            "crypto.verify_calls": c["crypto.verify"],
            "crypto.verify_s": t["crypto.verify"],
            "crypto.verify_memo_hit_ratio": (
                1.0 - self.counters["crypto.verify_memo_misses"] / requests if requests else 0.0
            ),
            "core.encode_calls": c["core.encode"],
            "core.encode_s": t["core.encode"],
            "core.decode_calls": c["core.decode"],
            "core.decode_s": t["core.decode"],
            "core.wire_size_calls": self.counters["core.wire_size_calls"],
            "core.ledger_execute_s": t["core.ledger_execute"],
            **{f"tee.calls.{api}": c[f"tee.{api}"] for api in TEE_APIS},
            "tee.self_s": sum(v for k, v in s.items() if k.startswith("tee.")),
            "tee.refusals": self.counters["tee.refusals"],
            "protocols.handler_calls": c["protocols.handler"],
            "protocols.handler_self_s": s["protocols.handler"],
            "protocols.sync_blocks_served": self.counters["protocols.sync_blocks_served"],
            "mempool.admit_calls": admits,
            "mempool.admit_s": t["mempool.admit"],
            "mempool.take_block_s": t["mempool.take_block"],
            "mempool.accept_ratio": self.counters["mempool.accepted"] / admits if admits else 0.0,
            "mempool.queue_wait_ms_p50": percentile(wait, 0.50) if wait else 0.0,
            "mempool.queue_wait_ms_p99": percentile(wait, 0.99) if wait else 0.0,
            "runtime.frames_in": self.counters["runtime.frames_in"],
            "runtime.frame_feed_s": t["runtime.frame_feed"],
            "trace.spans": self.span_total,
        }
        values.update(extra)
        missing = [name for name in LAYER_METRICS if name not in values]
        for name in missing:
            values[name] = 0.0
        return {name: float(values[name]) for name in LAYER_METRICS}

    def write_spans(self, label: str) -> Path:
        """Write the recorded spans as JSON lines under ``.perfbench_out/``."""
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{label}.jsonl"
        with path.open("w") as out:
            for span_id, name, start, end, parent, tag in self.spans:
                record = {"id": span_id, "name": name, "start": start, "end": end, "parent": parent}
                if tag is not None:
                    record["tx"] = list(tag)
                out.write(json.dumps(record) + "\n")
        return path


#: Layers each workload must exercise (> 0) or bypass (== 0) in a traced run.
EXPECTATIONS: dict[str, dict[str, tuple[str, ...]]] = {
    "sim-quorum": {
        "works": (
            "sim.events", "sim.network_sends", "crypto.hash_calls", "crypto.sign_calls",
            "crypto.verify_calls", "core.wire_size_calls", "tee.calls.tee_accum",
            "tee.calls.tee_prepare", "protocols.handler_calls",
        ),
        "bypassed": (
            "core.encode_calls", "core.decode_calls", "mempool.admit_calls",
            "runtime.frames_in", "protocols.sync_blocks_served",
            "protocols.catchups_completed", "tee.calls.tee_checkpoint",
        ),
    },
    "sim-rejoin": {
        "works": (
            "sim.events", "sim.network_sends", "crypto.hash_calls", "core.wire_size_calls",
            "tee.calls.tee_checkpoint", "tee.calls.tee_sign", "protocols.handler_calls",
            "protocols.view_timeouts", "protocols.catchups_completed",
        ),
        "bypassed": (
            "core.encode_calls", "core.decode_calls", "mempool.admit_calls", "runtime.frames_in",
        ),
    },
    "tcp-saturate": {
        "works": (
            "core.encode_calls", "core.decode_calls", "runtime.frames_in", "crypto.hash_calls",
            "crypto.verify_calls", "tee.calls.tee_accum", "protocols.handler_calls",
        ),
        "bypassed": (
            "sim.events", "sim.network_sends", "mempool.admit_calls",
            "protocols.sync_blocks_served", "protocols.catchups_completed",
        ),
    },
    "tcp-open-loop": {
        "works": (
            "core.encode_calls", "core.decode_calls", "runtime.frames_in", "crypto.hash_calls",
            "mempool.admit_calls", "protocols.handler_calls", "gen.sent",
        ),
        "bypassed": (
            "sim.events", "sim.network_sends", "protocols.sync_blocks_served",
            "protocols.catchups_completed",
        ),
    },
}


def check_expectations(workload: str, metrics: dict[str, float], sites: dict[str, int]) -> list[str]:
    """Failures of the wrapper-fired and layer-bypassed assertions."""
    failures = [f"wrapper {key} patched no lookup site" for key, n in sites.items() if n == 0]
    rules = EXPECTATIONS[workload]
    failures += [f"{name} is 0 but {workload} exercises it" for name in rules["works"] if metrics[name] <= 0]
    failures += [f"{name} is {metrics[name]:g} but {workload} bypasses it" for name in rules["bypassed"] if metrics[name] != 0]
    return failures
