"""Helpers shared by ``run.py``, its worker processes and the generator.

Everything here is benchmark-side: paths into the checkout, the
nearest-rank percentile every latency figure uses, peak-RSS probing and
the one-JSON-object-per-line protocol between processes.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Iterable, Sequence

#: Root of the checkout (the directory holding ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = ROOT / "perfbench"
SPEC_PATH = BENCH_DIR / "spec.json"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
#: Where traced runs write their spans (gitignored).
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("sim-quorum", "sim-rejoin", "tcp-saturate", "tcp-open-loop")


class BenchError(Exception):
    """A run that cannot produce a valid result (missing source, invalid run)."""


def use_library() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/`` tree."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"library source not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_spec() -> dict[str, Any]:
    """The frozen workload set-up (rates, limits, sizes) from ``spec.json``."""
    return json.loads(SPEC_PATH.read_text())


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile; ``values`` need not be sorted."""
    if not values:
        raise BenchError("percentile of an empty sample")
    ordered = sorted(values)
    rank = -(-len(ordered) * fraction // 1)  # ceil
    index = min(max(int(rank), 1), len(ordered)) - 1
    return float(ordered[index])


def mean(values: Iterable[float]) -> float:
    items = list(values)
    if not items:
        raise BenchError("mean of an empty sample")
    return sum(items) / len(items)


def median(values: Iterable[float]) -> float:
    items = list(values)
    if not items:
        raise BenchError("median of an empty sample")
    return float(statistics.median(items))


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: Any) -> None:
        self.key = key
        self.value = value


def _compute_kernel() -> None:
    """Interpreter-bound work shaped like the library's: small objects,
    tuple-keyed dict updates, short SHA-256 digests."""
    table: dict[tuple[int, int], _Cell] = {}
    digest = b"probe"
    for i in range(PROBE_COMPUTE_STEPS):
        cell = _Cell(i, digest)
        table[(i & 255, cell.key & 7)] = cell
        if i & 7 == 0:
            digest = hashlib.sha256(digest).digest()


def _memory_kernel(records: list[_Cell]) -> None:
    """Pointer-chasing work shaped like the monitor's polling: a set built
    from an attribute of every record in a long list."""
    {record.value for record in records}  # noqa: B018 - the work is the point


#: Inner steps of the interpreter-bound half of a sample.
PROBE_COMPUTE_STEPS = 2000
#: Records scanned by the memory-bound half of a sample.
PROBE_MEMORY_RECORDS = 6000
#: Probe speed (geometric mean of the two halves' samples per second) on
#: the reference host: the unit of every host-speed-normalized metric.
#: This 2-CPU host runs the same code up to 1.8x faster or slower for
#: seconds to tens of seconds at a time, and interpreter-bound code swings
#: more than memory-bound code; timing both kinds of fixed work through
#: the run and scaling by them cancels most of that drift.
REF_PROBE_PER_S = 1600.0


class SpeedProbe:
    """Times fixed kernels in short bursts to measure the host's speed."""

    def __init__(self) -> None:
        #: (monotonic seconds at the end of the sample, probe speed)
        self.samples: list[tuple[float, float]] = []
        #: Wall seconds spent sampling so far; timed windows subtract it.
        self.busy_s = 0.0
        self._records = [_Cell(i, i // 3) for i in range(5 * PROBE_MEMORY_RECORDS)]

    def sample(self, count: int = 1) -> None:
        # The collector is off while sampling, so the size of the program's
        # heap cannot slow the probe down; collections it would have made
        # run in the program's time after the sample.
        entered = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                # A different slice each time, so the scan is not served from cache.
                offset = (len(self.samples) % 5) * PROBE_MEMORY_RECORDS
                records = self._records[offset : offset + PROBE_MEMORY_RECORDS]
                start = time.perf_counter()
                _compute_kernel()
                middle = time.perf_counter()
                _memory_kernel(records)
                end = time.perf_counter()
                speed = 1.0 / ((middle - start) * (end - middle)) ** 0.5
                self.samples.append((time.monotonic(), speed))
        finally:
            if collecting:
                gc.enable()
            self.busy_s += time.perf_counter() - entered

    def factor(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Host speed over the reference during [start, end] (trimmed mean
        of the samples): multiply a duration, divide a rate, to get
        reference-host units."""
        ordered = sorted(speed for t, speed in self.samples if start <= t <= end)
        if not ordered:
            raise BenchError("speed probe took no samples in the interval")
        cut = len(ordered) // 10
        kept = ordered[cut : len(ordered) - cut]
        return sum(kept) / len(kept) / REF_PROBE_PER_S


def emit(obj: dict[str, Any]) -> None:
    """Write one JSON object as one stdout line (the inter-process protocol)."""
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")
    sys.stdout.flush()


def last_json_line(text: str) -> dict[str, Any]:
    """The last line of ``text`` that parses as a JSON object."""
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            try:
                return json.loads(line)
            except json.JSONDecodeError:
                continue
    raise BenchError("worker printed no JSON result")
