"""Repository benchmark: four workloads, end-to-end metrics, a traced run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sim-quorum --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (plus the tracing overhead).  The last stdout
line is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it name the workload-specific figures with their units.

Each run starts fresh worker processes (``worker.py``): a few that only
set up, for the median ``setup_s``, then one that sets up and measures.
Wall-clock figures are reported in reference-host units: the workers time
a fixed probe throughout (``common.SpeedProbe``) and scale by it, because
the host's speed drifts by up to 1.8x between runs; the printed lines
give the raw values and the probed host speed.  A failed correctness
check prints ``"correct": false`` and exits 1; a checkout without the
library source exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from typing import Any

from common import (
    BENCH_DIR,
    BENCHMARK_JSON,
    ROOT,
    SRC,
    WORKLOADS,
    BenchError,
    emit,
    last_json_line,
    median,
)

#: Setup-only worker processes per run (the measuring one adds a sample).
SETUP_SAMPLES = 3
#: Budget for all worker processes of one run, inside its 180 s limit.
RUN_BUDGET_S = 170.0


def spawn(
    workload: str, seed: int, seconds: float, trace: int, setup_only: bool, deadline: float
) -> dict[str, Any]:
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    # A session of its own, so a timeout also stops the worker's generator.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} run exceeded its {RUN_BUDGET_S:.0f} s budget") from exc
    if proc.returncode != 0:
        tail = stderr.strip().splitlines()[-5:]
        raise BenchError(f"{workload} worker failed: " + " | ".join(tail))
    return last_json_line(stdout)


def named_lines(workload: str, r: dict[str, Any]) -> list[tuple[str, float, str]]:
    """The workload-specific figures, under their workload-specific names."""
    lines = [
        ("host_speed", r["speed"], "x reference"),
        ("setup_s", r["setup_s"], "s (reference host)"),
        ("peak_rss_mb", r["peak_rss_mb"], "MiB"),
        ("failed_share", 1.0 - r["ok_share"], "share"),
    ]
    if workload.startswith("sim-"):
        lines.append(("sim_views_per_s", r["raw_work_per_s"], "1/s"))
        lines.append(("commit_p99_virtual_ms", r["commit_p99_ms"], "ms"))
        lines.append(("outage_virtual_ms", r["outage_ms"], "ms"))
    if workload == "sim-rejoin":
        lines.append(("rejoin_virtual_ms", r["rejoin_virtual_ms"], "ms (median over seeds)"))
        lines.append(("rejoin_virtual_ms.mean", r["rejoin_virtual_ms_mean"], "ms (mean over seeds)"))
    if workload.startswith("tcp-"):
        lines.append(("stall_ms", r["outage_ms"], "ms (reference host)"))
    if workload == "tcp-saturate":
        lines.append(("tcp_tx_per_s", r["raw_work_per_s"], "1/s"))
        lines.append(("commit_p50_ms", r["raw_commit_p50_ms"], "ms"))
        lines.append(("commit_p99_ms", r["raw_commit_p99_ms"], "ms"))
    if workload == "tcp-open-loop":
        for level, phase in r["per_rate"].items():
            lines.append((f"host_speed.{level}", phase["speed"], "x reference"))
            for q in ("p50", "p90", "p99"):
                lines.append((f"commit_{q}_ms.{level}", phase[f"{q}_ms"], f"ms n={phase['sent']}"))
        lines.append(("slo_rate_per_s", r["work_per_s"], "1/s"))
        lines.append(("gen.late_ms_p99", r["late_ms_p99"], "ms"))
    return lines


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict[str, Any]:
    """One run: returns the result object (without printing it)."""
    deadline = time.monotonic() + RUN_BUDGET_S
    if trace:
        r = spawn(workload, seed, seconds, 1, setup_only=False, deadline=deadline)
        for name, value in r["layer_metrics"].items():
            print(f"{workload} {name} {value:.6g}")
        for failure in r["trace_failures"]:
            print(f"{workload} TRACE CHECK FAILED: {failure}")
        print(f"{workload} spans written to {r['spans_file']}")
        from tracing import LAYER_METRICS

        return {
            "correct": not r["trace_failures"],
            "attempted": int(r["attempted"]),
            "failed": int(r["failed"]),
            "metrics": {
                name: {"value": value, "unit": LAYER_METRICS[name]}
                for name, value in r["layer_metrics"].items()
            },
        }
    setups = [
        spawn(workload, seed, seconds, 0, setup_only=True, deadline=deadline)
        for _ in range(SETUP_SAMPLES)
    ]
    r = spawn(workload, seed, seconds, 0, setup_only=False, deadline=deadline)
    samples = [*setups, r]
    r["setup_s"] = median(s["setup_s"] for s in samples)
    for name, value, unit in named_lines(workload, r):
        print(f"{workload} {name} {value:.6g} {unit}")
    return {
        "correct": True,
        "attempted": int(r["attempted"]),
        "failed": int(r["failed"]),
        "metrics": {
            m["name"]: {"value": float(r[m["name"]]), "unit": m["unit"]}
            for m in json.loads(BENCHMARK_JSON.read_text())["end_to_end"]
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload (or all).")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: library source not found under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        emit({"correct": False, "attempted": 1, "failed": 1, "metrics": {}})
        return 1
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    emit(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
