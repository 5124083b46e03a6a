"""The benchmark's span tracer (perfbench/spans.py) wraps library functions by
attribute name; installing it fails with AttributeError once a wrapped name is
renamed or removed, so this guards those names in the ordinary test run.  The
benchmark also requires some spans to be recorded on its traced runs
(perfbench/workloads.expected_layers) and counts one dense unpack per sampled
matrix (perfbench/tests/test_spans.py); small traced simulate and volterra runs
guard both."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def perfbench_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_span_tracer_installs():
    proc = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install(spans.Recorder())"],
        cwd=PERFBENCH, env=perfbench_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


# the spans each workload's traced checks read, beside its small config
NAMED_SPANS = {
    "sim-uniform-smooth": {"spectral.eigh", "spectral.matrix_function_entry"},
    "sim-rademacher-poly": {"ensembles.dense"},
}
TRACED_CONFIGS = {
    "sim-uniform-smooth": {
        "spec": {"entry_dist": {"kind": "uniform", "w": 1.0}, "convention": "general_diagonal",
                 "w2": 1.0},
        "phi": {"kind": "gaussian_damped_polynomial", "coefficients": [0, 1, 0, 0.5]},
        "phi2": {"kind": "gaussian_damped_polynomial", "coefficients": [1, 0, 1],
                 "envelope_width": 1.2},
        "j_policy": "middle",
    },
    "sim-rademacher-poly": {
        "spec": {"entry_dist": {"kind": "rademacher", "w": 1.0}},
        "phi": {"kind": "polynomial", "coefficients": [0, 0, 0, 1]},
        "phi2": {"kind": "polynomial", "coefficients": [0, 0, 0, 0, 1]},
    },
}


def required_spans(workload: str, prefixes: tuple[str, ...]) -> set[str]:
    """Names of the spans behind the workload's expected layers that start with a prefix."""
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import json, workloads; print(json.dumps(workloads.expected_layers({workload!r})))"],
        cwd=PERFBENCH, env=perfbench_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    return {metric.rsplit(".", 1)[0] for metric in json.loads(proc.stdout)
            if metric.startswith(prefixes)}


def traced_spans(tmp_path, cli_args: list[str]) -> list[dict]:
    """The spans of one CLI run under perfbench/traced_cli.py."""
    spans_path = tmp_path / "spans.json"
    subprocess.run(
        [sys.executable, str(PERFBENCH / "traced_cli.py"), str(spans_path), "--", *cli_args,
         "--out", str(tmp_path / "out")],
        env=perfbench_env(), capture_output=True, timeout=300, check=True,
    )
    return json.loads(spans_path.read_text())["spans"]


def busy_times(spans: list[dict]) -> dict[str, float]:
    busy: dict[str, float] = {}
    for span in spans:
        busy[span["name"]] = busy.get(span["name"], 0.0) + span["end"] - span["start"]
    return busy


@pytest.mark.parametrize("workload", sorted(TRACED_CONFIGS))
def test_traced_simulate_records_required_spans(tmp_path, workload):
    """spectral.* and ensembles.* layers the benchmark requires are recorded as spans."""
    required = required_spans(workload, ("spectral.", "ensembles."))
    config = dict(TRACED_CONFIGS[workload], n_list=[64], replicas=100, root_seed=5)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    spans = traced_spans(tmp_path, ["simulate", "--config", str(config_path), "--threads", "2"])
    busy = busy_times(spans)
    # sizes of the matrices SymmetricMatrix.dense unpacked
    unpacked = [span["attrs"]["n"] for span in spans if span["name"] == "ensembles.dense"]
    assert NAMED_SPANS[workload] <= required
    assert sorted(name for name in required if busy.get(name, 0.0) <= 0.0) == []
    # ensembles.dense.bytes_computed counts 8 n^2 per call: one unpack per sampled matrix
    assert unpacked == [64] * 100


def test_traced_volterra_records_required_spans(tmp_path):
    """Every volterra.* and semicircle.* layer of volterra-residuals is recorded as a span."""
    required = required_spans("volterra-residuals", ("volterra.", "semicircle."))
    busy = busy_times(traced_spans(tmp_path, ["volterra", "--h", "0.08,0.04", "--t-max", "1.2"]))
    assert {"volterra.coveq_residual", "volterra.phi_kernel_grid",
            "semicircle.sc_convolutions"} <= required
    assert sorted(name for name in required if busy.get(name, 0.0) <= 0.0) == []
