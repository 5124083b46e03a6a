"""Span bookkeeping: self times, tail percentiles, and a traced CLI run end to end."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parents[1]


def _span(i, parent, name, start, end):
    return {"id": i, "parent": parent, "name": name, "start": start, "end": end, "thread": 0,
            "attrs": {}}


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span(1, None, "a", 0.0, 10.0),
        _span(2, 1, "b", 1.0, 4.0),
        _span(3, 1, "c", 3.0, 6.0),  # overlaps b: the union 1..6 counts once
        _span(4, 2, "d", 1.5, 2.0),
    ]
    selfs = spans.self_times(tree)
    assert selfs == {1: 5.0, 2: 2.5, 3: 3.0, 4: 0.5}


def test_tail_needs_forty_calls_and_leaves_ten_beyond():
    assert spans._timing([0.001] * 39)[1] == 0.0
    p50, tail = spans._timing([i / 1000 for i in range(1, 101)])
    assert p50 == 50.5 and 90.0 < tail < 91.0


def test_recorder_keeps_every_span_under_thread_contention():
    rec = spans.Recorder()

    def inner():
        return rec.call("leaf", lambda: 1, (), {})

    def outer():
        return sum(rec.call("mid", inner, (), {}) for _ in range(50))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=rec.call, args=("root", outer, (), {})) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    by_id = {s["id"]: s for s in rec.spans}
    assert len(rec.spans) == len(by_id) == 8 * (1 + 50 + 50)
    for s in rec.spans:
        if s["name"] == "leaf":
            assert by_id[s["parent"]]["name"] == "mid"
            assert by_id[s["parent"]]["thread"] == s["thread"]


def test_traced_run_matches_untraced_and_accounts_for_replica_time(tmp_path):
    config = {
        "spec": {"entry_dist": {"kind": "uniform", "w": 1.0}, "convention": "general_diagonal",
                 "w2": 1.0},
        "phi": {"kind": "gaussian_damped_polynomial", "coefficients": [0, 1], "envelope_width": 1.0},
        "n_list": [32, 64], "replicas": 100, "root_seed": 2,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))
    args = ["simulate", "--config", str(cfg), "--threads", "2", "--raw"]
    subprocess.run([sys.executable, "-m", "wignerlab.cli", *args, "--out", str(tmp_path / "plain")],
                   env=env, check=True, capture_output=True, timeout=120)
    spans_path = tmp_path / "spans.json"
    subprocess.run([sys.executable, str(BENCH / "traced_cli.py"), str(spans_path), "--", *args,
                    "--out", str(tmp_path / "traced")], env=env, check=True, capture_output=True,
                   timeout=120)
    for name in ("result.json", "replicas.csv"):
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "traced" / name).read_bytes()
    record = json.loads(spans_path.read_text())
    metrics = spans.layer_metrics(record["spans"])
    assert metrics["ensembles.sample_matrix.calls"] == 200
    assert metrics["spectral.eigh.calls"] == 200
    assert metrics["ensembles.dense.bytes_computed"] == 100 * 8 * (32**2 + 64**2)
    assert 0 < metrics["harness.replicas.parallel_efficiency"] <= 1.0
    assert spans.replica_accounting_defect(record["spans"]) < 1e-9
    assert record["import_s"] > 0

