"""The committed ``results/full_results.json`` still reproduces.

``scripts/run_full_experiments.py`` is deterministic, so its output must
match the committed file byte for byte.  Regenerating everything takes
minutes; this recomputes one Fig 9 cell the way the script does, so a
change that shifts the results cannot leave the file stale silently.
"""

import json
import pathlib

from repro.bench.experiments import fig9

RESULTS = pathlib.Path(__file__).resolve().parents[2] / "results" / "full_results.json"


def test_fig9_damysus_cell_matches_committed_results():
    committed = json.loads(RESULTS.read_text())["fig9"]["damysus|1.0"]
    report = fig9(
        intervals_ms=[1.0], num_clients=6, duration_ms=1_200.0, protocols=["damysus"]
    )
    cell = report.data[("damysus", 1.0)]
    assert {
        "achieved_kops": round(cell["achieved_kops"], 2),
        "latency_ms": round(cell["latency_ms"], 1),
    } == committed
