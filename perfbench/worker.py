"""One workload process: set up, optionally measure, print one JSON result.

Started by ``run.py`` with the monotonic time it spawned this process, so
``setup_s`` covers interpreter start, imports and system construction
(and, on TCP, binds, peer connections and the first commit).  With
``--setup-only`` the process exits as soon as the timed window would
open; ``run.py`` takes several such samples and reports their median.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import time
from typing import Any

from common import BenchError, SpeedProbe, emit, load_spec, peak_rss_mb, use_library

#: Probe samples a set-up-only process takes before it exits.
SETUP_PROBE_SAMPLES = 20


def run_sim(args: argparse.Namespace, spec: dict[str, Any], probe: SpeedProbe) -> dict[str, Any]:
    import sim_workloads as sw

    workload = sw.WORKLOADS[args.workload](spec, args.seed, probe)
    out: dict[str, Any] = {"setup_s": time.monotonic() - args.spawned_at}
    if args.setup_only:
        return out
    if not args.trace:
        reps = sw.measure(workload, args.seconds)
        out.update(sw.end_to_end(reps))
        out["attempted"] = out["views_entered"]
        out["failed"] = out["failed_views"]
        out["peak_rss_mb"] = workload.peak_rss_mb
        return out
    from tracing import Tracer

    half = args.seconds / 2
    untraced = sw.measure(workload, half)
    tracer = Tracer()
    tracer.install()
    workload.tracer = tracer
    try:
        traced = sw.measure(workload, half)
    finally:
        tracer.uninstall()
    before = sw.end_to_end(untraced)
    fig = sw.end_to_end(traced)
    blocks = sum(r.extra["blocks"] for r in traced)
    extra = {
        "protocols.msgs_per_commit": sum(r.extra["messages"] for r in traced) / blocks,
        "protocols.bytes_per_commit": sum(r.extra["bytes"] for r in traced) / blocks,
        "protocols.view_timeouts": fig["view_timeouts"],
        "protocols.catchups_completed": sum(r.extra.get("catchups_completed", 0.0) for r in traced),
        "trace.overhead_share": 1.0 - fig["work_per_s"] / before["work_per_s"],
    }
    out["tracer"] = tracer
    out["layer_extra"] = extra
    out["attempted"] = before["views_entered"] + fig["views_entered"]
    out["failed"] = before["failed_views"] + fig["failed_views"]
    if args.workload == "sim-quorum":
        out["hotstuff_tee_calls"] = sum(r.extra["hotstuff_tee_calls"] for r in traced)
    return out


def run_tcp(args: argparse.Namespace, spec: dict[str, Any], probe: SpeedProbe) -> dict[str, Any]:
    import tcp_workloads as tw

    tracer = None
    if args.trace and not args.setup_only:
        from tracing import Tracer

        tracer = Tracer()
    if args.workload == "tcp-saturate":
        out = asyncio.run(
            tw.saturate(args.seed, args.seconds, args.setup_only, args.spawned_at, tracer, probe)
        )
        if args.setup_only:
            return out
        out["attempted"] = out["views_entered"]
        out["failed"] = out["view_timeouts"]
        if tracer is not None:
            out["tracer"] = tracer
            out["layer_extra"] = {
                "protocols.msgs_per_commit": out["msgs_per_commit"],
                "protocols.bytes_per_commit": out["bytes_per_commit"],
                "protocols.view_timeouts": out["view_timeouts"],
                "runtime.loop_lag_ms_p99": out["loop_lag_ms_p99"],
                "trace.overhead_share": out["overhead_share"],
            }
        return out
    out = asyncio.run(
        tw.open_loop(args.seed, args.seconds, args.setup_only, args.spawned_at, tracer, spec, probe)
    )
    if args.setup_only:
        return out
    window = out.pop("window")
    figures = tw.open_loop_figures(spec, out, tracer is not None)
    out.update(figures)
    out["outage_ms"] = window["outage_ms"]
    out["blocks"] = window["blocks"]
    if tracer is not None:
        out["tracer"] = tracer
        out["layer_extra"] = {
            "protocols.msgs_per_commit": window["msgs_per_commit"],
            "protocols.bytes_per_commit": window["bytes_per_commit"],
            "protocols.view_timeouts": window["view_timeouts"],
            "runtime.loop_lag_ms_p99": out["loop_lag_ms_p99"],
            "gen.sent": out["sent"],
            "gen.late_ms_p50": out["late_ms_p50"],
            "gen.late_ms_p99": out["late_ms_p99"],
            "trace.overhead_share": figures["overhead_share"],
        }
    return out


def finish_trace(args: argparse.Namespace, out: dict[str, Any]) -> None:
    """Turn the tracer into per-layer metrics, check bypasses, write spans."""
    from tracing import check_expectations

    tracer = out.pop("tracer")
    extra = out.pop("layer_extra")
    encoded = tracer.counters["core.encoded_bytes"]
    commits = out.get("blocks") or 0.0
    if encoded and commits:
        extra["core.wire_bytes_per_commit"] = encoded / commits
    metrics = tracer.metrics(extra)
    failures = check_expectations(args.workload, metrics, tracer.sites)
    if args.workload == "sim-quorum" and out.pop("hotstuff_tee_calls"):
        failures.append("TEE calls seen during the HotStuff half of sim-quorum")
    out["layer_metrics"] = metrics
    out["trace_failures"] = failures
    out["spans_file"] = str(tracer.write_spans(f"{args.workload}-{args.seed}"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()
    try:
        use_library()
        spec = load_spec()["workloads"][args.workload]
        probe = SpeedProbe()
        if args.workload.startswith("sim-"):
            out = run_sim(args, spec, probe)
        else:
            out = run_tcp(args, spec, probe)
        if "tracer" in out:
            finish_trace(args, out)
        if args.setup_only:
            probe.sample(SETUP_PROBE_SAMPLES)
        # Set-up time is scaled by the host speed probed over the process.
        factor = probe.factor()
        out["speed"] = factor
        out["raw_setup_s"] = out["setup_s"]
        out["setup_s"] *= factor
    except BenchError as exc:
        print(f"worker: {exc}", file=sys.stderr)
        return 1
    out.setdefault("peak_rss_mb", peak_rss_mb())
    emit(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
