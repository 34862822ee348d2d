"""Tests for the perf measurement + baseline gate (repro perf)."""

import json

import pytest

from repro.bench import perfbench


def tiny_hotpath():
    return perfbench.measure_hotpath({"protocol": "hotstuff", "f": 1, "views": 3})


def test_measure_hotpath_shape():
    out = tiny_hotpath()
    assert out["cached"]["events"] > 0
    assert out["cached"]["wall_seconds"] >= 0.0
    assert out["cached"]["events_per_sec"] > 0.0


def test_measure_grid_identity_and_shape():
    out = perfbench.measure_grid(
        {"thresholds": [1], "views": 3, "repetitions": 1, "payload": 0}, jobs=1
    )
    assert out["cells"] == 6  # every protocol at f=1
    assert out["sequential_cached_s"] > 0.0
    assert out["parallel_speedup"] == 1.0  # one worker: nothing to compare


def test_baseline_roundtrip(tmp_path):
    bench = {"meta": {"cpus": 4, "quick": True, "schema": 1}, "hotpath": {}, "grid": {}}
    path = tmp_path / "BENCH_baseline.json"
    perfbench.write_baseline(path, bench)
    assert perfbench.load_baseline(path) == bench
    assert json.loads(path.read_text())["meta"]["cpus"] == 4


def fake_bench(eps=100_000.0, grid_s=2.0, parallel_speedup=1.0, jobs=1):
    return {
        "meta": {"cpus": jobs, "quick": False, "schema": 1},
        "hotpath": {
            "cached": {"events_per_sec": eps, "wall_seconds": 0.1, "events": 10_000},
        },
        "grid": {
            "cells": 18,
            "jobs": jobs,
            "sequential_cached_s": grid_s,
            "parallel_cached_s": grid_s / parallel_speedup,
            "parallel_speedup": parallel_speedup,
        },
    }


def test_check_bench_passes_on_self():
    ok, report, messages = perfbench.check_bench(fake_bench(), fake_bench())
    assert ok, messages
    assert report.drifts  # Drift machinery engaged
    assert any("ok:" in m for m in messages)


def test_check_bench_flags_hotpath_slowdown():
    ok, _, messages = perfbench.check_bench(
        fake_bench(eps=100_000.0), fake_bench(eps=20_000.0), threshold=3.0
    )
    assert not ok
    assert any("hotpath" in m and "slower" in m for m in messages)


def test_check_bench_flags_grid_slowdown():
    ok, _, messages = perfbench.check_bench(
        fake_bench(grid_s=1.0), fake_bench(grid_s=10.0), threshold=3.0
    )
    assert not ok
    assert any("grid" in m and "slower" in m for m in messages)


def test_check_bench_requires_multicore_speedup():
    below = perfbench.MIN_PARALLEL_SPEEDUP - 0.1
    ok, _, messages = perfbench.check_bench(
        fake_bench(parallel_speedup=2.0, jobs=4), fake_bench(parallel_speedup=below, jobs=4)
    )
    assert not ok
    assert any("parallel_speedup" in m for m in messages)
    ok, _, messages = perfbench.check_bench(
        fake_bench(parallel_speedup=2.0, jobs=4),
        fake_bench(parallel_speedup=perfbench.MIN_PARALLEL_SPEEDUP, jobs=4),
    )
    assert ok, messages


def test_check_bench_skips_parallel_gate_on_one_worker():
    ok, _, messages = perfbench.check_bench(fake_bench(), fake_bench(parallel_speedup=1.0))
    assert ok, messages
    assert any("one worker" in m for m in messages)


def test_measure_batch_verify_shape():
    out = perfbench.measure_batch_verify({"thresholds": [1]})
    assert len(out["cells"]) == 1
    cell = out["cells"][0]
    assert cell["f"] == 1
    assert cell["sigs"] == 3
    assert cell["per_sig_s"] > 0.0
    assert cell["batch_s"] > 0.0
    assert out["max_speedup"] == cell["speedup"]


def test_measure_codec_shape():
    out = perfbench.measure_codec({"rounds": 20})
    assert out["wire_bytes"] > 0
    assert out["encode_per_sec"] > 0.0
    assert out["decode_per_sec"] > 0.0


def test_measure_parallel_verify_skips_below_two_cores(monkeypatch):
    import repro.crypto.pool as pool_mod

    monkeypatch.setattr(pool_mod, "available_cpus", lambda: 1)
    out = perfbench.measure_parallel_verify({"pairs": 4})
    assert out["skipped"] == "only 1 cpu(s) available"


def crypto_cells(batch_speedup=3.0, codec_rate=50_000.0, parallel=None):
    cells = {
        "batch_verify": {
            "params": {},
            "cells": [{"f": 2, "sigs": 5, "per_sig_s": 0.1, "batch_s": 0.04,
                       "speedup": batch_speedup}],
            "max_speedup": batch_speedup,
        },
        "codec": {
            "params": {},
            "wire_bytes": 5000,
            "encode_per_sec": codec_rate,
            "decode_per_sec": codec_rate / 8,
            "wall_seconds": 0.1,
        },
    }
    if parallel is not None:
        cells["parallel_verify"] = parallel
    return cells


def test_check_bench_tolerates_old_baseline_without_crypto_cells():
    current = fake_bench()
    current.update(crypto_cells())
    ok, _, messages = perfbench.check_bench(fake_bench(), current)
    assert ok, messages


def test_check_bench_flags_lost_batch_speedup():
    baseline = fake_bench()
    baseline.update(crypto_cells())
    current = fake_bench()
    current.update(crypto_cells(batch_speedup=perfbench.MIN_BATCH_SPEEDUP - 0.5))
    ok, _, messages = perfbench.check_bench(baseline, current)
    assert not ok
    assert any("batch_verify" in m for m in messages)


def test_check_bench_flags_codec_slowdown():
    baseline = fake_bench()
    baseline.update(crypto_cells(codec_rate=100_000.0))
    current = fake_bench()
    current.update(crypto_cells(codec_rate=10_000.0))
    ok, _, messages = perfbench.check_bench(baseline, current, threshold=3.0)
    assert not ok
    assert any("codec" in m and "slower" in m for m in messages)


def test_check_bench_skipped_parallel_cell_is_not_a_failure():
    skipped = {"params": {}, "skipped": "only 1 cpu(s) available"}
    baseline = fake_bench()
    baseline.update(crypto_cells(parallel=skipped))
    current = fake_bench()
    current.update(crypto_cells(parallel=skipped))
    ok, _, messages = perfbench.check_bench(baseline, current)
    assert ok, messages
    assert any(m.startswith("skip parallel_verify") for m in messages)


def test_check_bench_flags_sharded_slowdown():
    fast = {"params": {}, "jobs": 2, "sequential_s": 0.4, "sharded_s": 0.2, "speedup": 2.0}
    slow = {"params": {}, "jobs": 2, "sequential_s": 0.4, "sharded_s": 2.0, "speedup": 0.2}
    baseline = fake_bench()
    baseline.update(crypto_cells(parallel=fast))
    current = fake_bench()
    current.update(crypto_cells(parallel=slow))
    ok, _, messages = perfbench.check_bench(baseline, current, threshold=3.0)
    assert not ok
    assert any("parallel_verify" in m for m in messages)


def test_committed_baseline_is_valid():
    """The repo's committed BENCH_baseline.json parses and shows the wins."""
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[2] / "BENCH_baseline.json"
    if not path.exists():
        pytest.skip("BENCH_baseline.json not generated")
    baseline = perfbench.load_baseline(path)
    assert baseline["hotpath"]["cached"]["events_per_sec"] > 0.0
    if baseline["grid"]["jobs"] >= 2:
        assert baseline["grid"]["parallel_speedup"] >= perfbench.MIN_PARALLEL_SPEEDUP
    assert baseline["batch_verify"]["max_speedup"] >= perfbench.MIN_BATCH_SPEEDUP