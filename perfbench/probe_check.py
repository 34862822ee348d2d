"""Does the host-speed probe stay put when only the program changes?

The benchmark divides its wall-clock figures by a probe timed in the
program's own process.  That is only sound if a slower program does not
also read as a slower host.  This script runs sim-quorum repetitions in
turn on the unchanged library and on two deliberately slowed versions of
it, patched from outside for the length of one repetition:

* ``cpu``: every simulated send also re-hashes its arguments' repr
  a few times (pure interpreter and hashing work);
* ``memory``: every simulated send also keeps the message and 1 KiB of
  fresh bytes alive until the repetition ends, so the heap, the
  collector's work and the cache footprint all grow.

Each round runs the three variants on the same repetition seed, in an
order that rotates from round to round, so the host's drift and any
order effect fall on every variant alike.

It prints, per variant, the median over rounds of its ratio to the
round's unchanged repetition: of the probe factor, of the raw views per
second and of the scaled views per second.  A sound probe reads a factor ratio near 1
while the raw and scaled rates drop together.

Usage (from the root of a checkout)::

    python3 perfbench/probe_check.py --seconds 90 --seed 1
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import statistics
import time
from typing import Any, Callable

from common import SpeedProbe, load_spec, use_library

VARIANTS = ("unchanged", "cpu", "memory")
#: SHA-256 rounds the ``cpu`` variant adds to each simulated send.
CPU_ROUNDS = 40


def slow_down(variant: str, tracer: Any, kept: list[Any]) -> None:
    """Patch the library (through ``tracer``'s bookkeeping) for ``variant``."""
    from repro.sim.network import Network

    if variant == "cpu":
        def burn(fn: Callable[..., Any]) -> Callable[..., Any]:
            def send(network: Any, *args: Any, **kwargs: Any) -> Any:
                digest = repr(args[:2]).encode()
                for _ in range(CPU_ROUNDS):
                    digest = hashlib.sha256(digest).digest()
                return fn(network, *args, **kwargs)
            return send

        tracer.patch_method(Network, "send", burn, "cpu")
    elif variant == "memory":
        def keep(fn: Callable[..., Any]) -> Callable[..., Any]:
            def send(network: Any, *args: Any, **kwargs: Any) -> Any:
                kept.append((args, bytearray(1024)))
                return fn(network, *args, **kwargs)
            return send

        tracer.patch_method(Network, "send", keep, "memory")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=90.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    use_library()
    import sim_workloads as sw
    from tracing import Tracer

    probe = SpeedProbe()
    workload = sw.QuorumWorkload(load_spec()["workloads"]["sim-quorum"], args.seed, probe)
    rows: list[dict[str, tuple[float, float]]] = []
    end = time.monotonic() + args.seconds
    index = 0
    while time.monotonic() < end or not rows:
        row = {}
        shift = len(rows) % len(VARIANTS)
        for variant in VARIANTS[shift:] + VARIANTS[:shift]:
            tracer = Tracer()
            kept: list[Any] = []
            slow_down(variant, tracer, kept)
            gc.collect()
            started = time.monotonic()
            try:
                rep = workload.rep(index)
            finally:
                tracer.uninstall()
            factor = probe.factor(started, time.monotonic())
            row[variant] = (factor, rep.views / rep.wall_s)
            del kept
        rows.append(row)
        index += 1
    print(f"{len(rows)} rounds of {' / '.join(VARIANTS)} repetitions, seed {args.seed}")
    for variant in VARIANTS[1:]:
        factor = statistics.median(r[variant][0] / r["unchanged"][0] for r in rows)
        raw = statistics.median(r[variant][1] / r["unchanged"][1] for r in rows)
        scaled = statistics.median(
            (r[variant][1] / r[variant][0]) / (r["unchanged"][1] / r["unchanged"][0]) for r in rows
        )
        print(
            f"{variant:8s} probe factor x{factor:.3f}  raw views/s x{raw:.3f}  "
            f"scaled views/s x{scaled:.3f}"
        )


if __name__ == "__main__":
    main()
