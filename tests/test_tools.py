import json
import math
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import bench_snapshot  # noqa: E402
import design_counts  # noqa: E402
import same_outputs  # noqa: E402


def run_dir(path: Path, output: bytes, **manifest) -> Path:
    path.mkdir()
    (path / "result.json").write_bytes(output)
    base = {"config_hash": "ab", "root_seed": 1, "threads": 2, "outputs": ["result.json"],
            "wall_time_s": 1.0, "cpu_user_s": 1.0, "cpu_sys_s": 0.1, "minor_faults": 10}
    (path / "manifest.json").write_text(json.dumps({**base, **manifest}))
    return path


def test_same_outputs_fails_on_outputs_and_inputs_and_notes_other_metadata(tmp_path):
    ours = run_dir(tmp_path / "ours", b"{}", blas_threads=1)
    # run measurements always differ, and a metadata field only one side writes is a note
    theirs = run_dir(tmp_path / "theirs", b"{}", wall_time_s=2.0, cpu_user_s=3.0, minor_faults=99)
    assert same_outputs.differences(ours, theirs, ["result.json"]) == (
        [], ["manifest.json fields ['blas_threads']"])
    other_seed = run_dir(tmp_path / "seed", b"{}", root_seed=2, blas_threads=1)
    assert same_outputs.differences(ours, other_seed, ["result.json"]) == (
        ["manifest.json fields ['root_seed']"], [])
    other_bytes = run_dir(tmp_path / "bytes", b"{ }", blas_threads=1)
    assert same_outputs.differences(ours, other_bytes, ["result.json"]) == (["result.json"], [])


def test_same_outputs_leaves_no_bytecode_in_the_checkout(tmp_path, monkeypatch):
    """Bytecode left in a checkout makes later benchmark runs of it skip compiling and read faster."""
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    checkout = tmp_path / "checkout"
    shutil.copytree(Path(__file__).resolve().parents[1] / "src", checkout / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    args = ["volterra", "--h", "0.5", "--t-max", "1.0"]
    assert same_outputs.run_cli(checkout, args, tmp_path / "out") is None
    assert (tmp_path / "out" / "volterra_residuals.csv").exists()
    assert not list(checkout.rglob("__pycache__"))


def test_same_outputs_runs_volterra_at_its_defaults(tmp_path):
    from wignerlab import cli, volterra

    runs = {label: (args, outputs) for label, args, outputs in same_outputs.runs(tmp_path)}
    assert runs["volterra defaults"] == (["volterra"], ["volterra_residuals.csv"])
    defaults = cli._build_parser().parse_args(["volterra"])
    points = round(defaults.t_max / max(float(h) for h in defaults.h.split(","))) + 1
    assert points <= volterra._COLUMN_BLOCK + 1  # the coveq residual takes its coarsest grid in one block


def test_same_outputs_runs_volterra_on_the_top_kernel_rule(tmp_path):
    """The defaults' coveq kernels take 32 nodes: a second volterra run takes the 128-node rule,
    on grids of several column blocks."""
    from wignerlab import cli, volterra

    runs = {label: (args, outputs) for label, args, outputs in same_outputs.runs(tmp_path)}
    args, outputs = runs["volterra top rung"]
    assert outputs == ["volterra_residuals.csv"]
    parsed, defaults = (cli._build_parser().parse_args(a) for a in (args, ["volterra"]))
    assert volterra.kernel_nodes(defaults.w * defaults.t_max) == 32
    assert volterra.kernel_nodes(parsed.w * parsed.t_max) == 128
    points = round(parsed.t_max / min(float(h) for h in parsed.h.split(","))) + 1
    assert points > 2 * volterra._COLUMN_BLOCK + 1


def test_same_outputs_runs_a_tabulated_phi_on_the_eigh_route(tmp_path):
    from wignerlab import cli, harness, limits

    runs = {label: (args, outputs) for label, args, outputs in same_outputs.runs(tmp_path)}
    args, outputs = runs["simulate tabulated"]
    assert outputs == ["result.json", "replicas.csv"]
    assert args[0] == "simulate" and "--raw" in args
    cfg = cli.parse_config(args[args.index("--config") + 1])
    assert harness.phi_route(cfg.phis()) == "eigh"
    assert (cfg.spec.entry_dist.kind, cfg.n_list, cfg.replicas) == ("uniform", (64, 128), 200)
    # every limit term of the mixed-parity config is nonzero, so each of its integrals is byte-checked
    args, outputs = runs["simulate mixed parity"]
    assert outputs == ["result.json", "replicas.csv"]
    assert args[0] == "simulate" and "--raw" in args
    cfg = cli.parse_config(args[args.index("--config") + 1])
    assert (cfg.spec.entry_dist.kind, cfg.spec.w, cfg.spec.convention, cfg.spec.w2) == (
        "uniform", 1.1, "general_diagonal", 1.5)
    assert (cfg.n_list, cfg.replicas, cfg.j_policy) == ((64, 128), 500, "middle")
    pred, _ = harness.predict(cfg)
    assert 0.0 not in (pred.v_goe, pred.kappa4_term, pred.diag_term, pred.xstar_slope)
    cross_terms, _ = limits._cov_terms(cfg.phi, cfg.phi2, cfg.spec)
    assert 0.0 not in cross_terms.values()


def test_same_outputs_predicts_the_mixed_parity_phis_under_every_entry_kind(tmp_path):
    """Each kind's cumulants enter the limit law: one predict run per kind in ensembles.KINDS, on
    the mixed-parity phis, with Gaussian entries under convention goe and every term of the
    others nonzero."""
    from wignerlab import cli, ensembles, harness, limits

    runs = {label: (args, outputs) for label, args, outputs in same_outputs.runs(tmp_path)}
    mixed = cli.parse_config(runs["simulate mixed parity"][0][2])
    kinds = []
    for kind in ensembles.KINDS:
        args, outputs = runs[f"predict mixed parity {kind}"]
        assert args[:2] == ["predict", "--config"] and outputs == ["prediction.json"]
        cfg = cli.parse_config(args[2])
        assert (cfg.phi.descriptor(), cfg.phi2.descriptor()) == (mixed.phi.descriptor(), mixed.phi2.descriptor())
        assert (cfg.n_list, cfg.x_grid) == (mixed.n_list, mixed.x_grid)
        kinds.append(cfg.spec.entry_dist.kind)
        pred, _ = harness.predict(cfg)
        cross_terms, _ = limits._cov_terms(cfg.phi, cfg.phi2, cfg.spec)
        if kind == "gaussian":
            assert cfg.spec.convention == "goe" and pred.kappa4_term == pred.diag_term == 0.0
        else:
            assert (cfg.spec.convention, cfg.spec.w2) == ("general_diagonal", 1.5)
            assert 0.0 not in (pred.v_goe, pred.kappa4_term, pred.diag_term, *cross_terms.values())
    assert kinds == list(ensembles.KINDS)


def test_same_outputs_predicts_the_offset_phis_under_every_entry_kind(tmp_path):
    """The centring of phi's coefficients is compared under every entry law: one predict run per
    kind on OFFSET_CONFIG's phis, with the spec of that kind's mixed-parity run."""
    from wignerlab import cli, ensembles

    runs = {label: (args, outputs) for label, args, outputs in same_outputs.runs(tmp_path)}
    offset = cli.parse_config(runs["simulate offset"][0][2])
    for kind in ensembles.KINDS:
        args, outputs = runs[f"predict offset {kind}"]
        assert args[:2] == ["predict", "--config"] and outputs == ["prediction.json"]
        cfg, mixed = cli.parse_config(args[2]), cli.parse_config(runs[f"predict mixed parity {kind}"][0][2])
        assert (cfg.phi.descriptor(), cfg.phi2.descriptor()) == (offset.phi.descriptor(), offset.phi2.descriptor())
        assert cfg.spec.descriptor() == mixed.spec.descriptor() and cfg.spec.entry_dist.kind == kind


def test_same_outputs_runs_sparse_entries_on_the_lanczos_route(tmp_path):
    """SPARSE_CONFIG's walks run past K0, the first rule size the stop rule may stop at, so the
    comparison covers the rules the stop rule reads as well as the one it stops at."""
    from wignerlab import cli, harness

    runs = {label: (args, outputs) for label, args, outputs in same_outputs.runs(tmp_path)}
    args, outputs = runs["simulate sparse"]
    assert outputs == ["result.json", "replicas.csv"]
    assert args[0] == "simulate" and "--raw" in args
    cfg = cli.parse_config(args[args.index("--config") + 1])
    assert (cfg.spec.entry_dist.kind, cfg.n_list, harness.phi_route(cfg.phis())) == (
        "discrete_custom", (32, 64, 256), "lanczos")
    n = cfg.n_list[0]
    _, steps = harness.matrix_element_samples(cfg.spec, n, harness.resolve_j(cfg.j_policy, n), cfg.phis(),
                                              cfg.root_seed, cfg.replicas)
    assert steps > harness.lanczos_first_read(cfg.phis(), cfg.spec.w) + 2


def test_same_outputs_runs_the_ks_test(tmp_path):
    """simulate runs gaussian_limit_test only at 500 replicas or more: some run must reach it."""
    from wignerlab import cli

    replicas = [cli.parse_config(args[args.index("--config") + 1]).replicas
                for _, args, _ in same_outputs.runs(tmp_path) if args[0] == "simulate"]
    assert max(replicas) >= 500


def test_same_outputs_runs_the_mixed_parity_config_with_a_large_constant(tmp_path):
    """OFFSET_CONFIG is MIXED_PARITY_CONFIG with 1e6 added to the constant of its polynomial phi,
    run by simulate at 500 replicas, so its covariance and its KS test are both compared."""
    from wignerlab import cli

    runs = {label: (args, outputs) for label, args, outputs in same_outputs.runs(tmp_path)}
    args, outputs = runs["simulate offset"]
    assert outputs == ["result.json", "replicas.csv"]
    assert args[0] == "simulate" and "--raw" in args
    offset = json.loads(Path(args[args.index("--config") + 1]).read_text())
    mixed = same_outputs.MIXED_PARITY_CONFIG
    assert offset == same_outputs.OFFSET_CONFIG
    assert {**offset, "phi": None} == {**mixed, "phi": None}
    constant, *rest = offset["phi"]["coefficients"]
    assert offset["phi"]["kind"] == mixed["phi"]["kind"] == "polynomial"
    assert (constant, rest) == (mixed["phi"]["coefficients"][0] + 1e6, mixed["phi"]["coefficients"][1:])
    cfg = cli.parse_config(args[args.index("--config") + 1])
    assert cfg.phi2 is not None and cfg.replicas >= 500


RESULT = {"per_n": [{"n": 64, "variance": 9.87, "k_stats": {"k3": [0.25, 0.5]}, "ks": {"ks_stat": None},
                     "samples_hash": "aa"},
                    {"n": 128, "variance": 10.01, "k_stats": {"k3": [-0.125, 0.375]}, "ks": {"ks_stat": None},
                     "samples_hash": "bb"}],
          "note": "text"}
CSV = "n,replica,y_value\n64,0,3.5\n64,1,-0.001\n"


def test_same_outputs_tolerance_mode_reports_zero_on_identical_outputs(tmp_path):
    ours = run_dir(tmp_path / "ours", json.dumps(RESULT).encode())
    theirs = run_dir(tmp_path / "theirs", json.dumps(RESULT).encode())
    relative, other = same_outputs.field_differences("result.json", *(
        (d / "result.json").read_bytes() for d in (ours, theirs)))
    assert other == []
    assert relative == {"per_n[].n": 0.0, "per_n[].variance": 0.0, "per_n[].k_stats.k3[0]": 0.0,
                        "per_n[].k_stats.k3[1]": 0.0}
    assert same_outputs.field_differences("replicas.csv", CSV.encode(), CSV.encode()) == (
        {"n": 0.0, "replica": 0.0, "y_value": 0.0}, [])
    assert same_outputs.differences(ours, theirs, ["result.json"], rel_tol=0.0) == ([], [])


def test_same_outputs_tolerance_mode_reports_a_planted_change(tmp_path):
    """A 1e-13 relative change in one field is reported at its size and held to the tolerance;
    a changed samples_hash is a note, any other non-numeric change a difference."""
    planted = json.loads(json.dumps(RESULT))
    planted["per_n"][1]["variance"] *= 1.0 + 1e-13
    planted["per_n"][0]["samples_hash"] = "cc"
    ours = run_dir(tmp_path / "ours", json.dumps(RESULT).encode())
    theirs = run_dir(tmp_path / "theirs", json.dumps(planted).encode())
    relative, other = same_outputs.field_differences("result.json", json.dumps(RESULT).encode(),
                                                     json.dumps(planted).encode())
    assert 0.9e-13 <= relative.pop("per_n[].variance") <= 1.1e-13
    assert set(relative.values()) == {0.0}
    assert other == ["per_n[].samples_hash"]
    found, notes = same_outputs.differences(ours, theirs, ["result.json"], rel_tol=1e-12)
    assert found == []
    assert notes[0] == "result.json largest relative difference per numeric field: per_n[].variance 1e-13, 3 more at 0"
    assert notes[1] == "result.json per_n[].samples_hash differs (a digest of the compared values)"
    found, _ = same_outputs.differences(ours, theirs, ["result.json"], rel_tol=1e-14)
    assert found == ["result.json per_n[].variance values, by 1e-13 relative,"]
    assert same_outputs.differences(ours, theirs, ["result.json"])[0] == ["result.json"]  # bytes by default
    # in a CSV column the difference is relative to the column's largest magnitude
    moved = CSV.replace("-0.001", repr(-0.001 + 3.5e-13))
    relative, other = same_outputs.field_differences("replicas.csv", CSV.encode(), moved.encode())
    assert other == [] and 0.9e-13 <= relative["y_value"] <= 1.1e-13
    for bad in ("nan", "inf"):
        relative, _ = same_outputs.field_differences("replicas.csv", CSV.encode(),
                                                     CSV.replace("-0.001", bad).encode())
        assert relative["y_value"] == math.inf
    planted["note"] = "other text"
    assert same_outputs.field_differences("result.json", json.dumps(RESULT).encode(),
                                          json.dumps(planted).encode())[1] == ["note", "per_n[].samples_hash"]


COUNTED_MODULE = """\
import dataclasses
from dataclasses import dataclass


def f(a, b=1, /, c=2, *args, d, **kwargs):
    return lambda x, y=3: x + y


class Plain:
    e: int

    def method(self, g):
        return g

    @classmethod
    def build(cls, h):
        return cls()


@dataclass(frozen=True)
class Frozen:
    i: int
    j: float = 0.0
    k = 4


@dataclasses.dataclass
class Bare:
    m: int
"""


def test_design_counts_on_a_synthetic_tree(tmp_path, capsys):
    """Lambda parameters, *args and **kwargs count, self and cls do not, and so do the
    annotated fields of a dataclass (plain or dotted decorator, called or not), not a plain
    class's annotations or a dataclass's unannotated attribute.  Files are found at any
    depth, and a directory with no Python file exits 2."""
    (tmp_path / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "pkg" / "a.py").write_text(COUNTED_MODULE)
    (tmp_path / "pkg" / "sub" / "b.py").write_text("def g():\n    pass\n")
    (tmp_path / "pkg" / "notes.txt").write_text("def ignored(z):\n")
    assert design_counts.main([str(tmp_path / "pkg")]) == 0
    lines = len(COUNTED_MODULE.splitlines()) + 2
    # f: a b c args d kwargs; the lambda: x y; method: g; build: h
    assert capsys.readouterr().out.splitlines() == [
        f"src lines: {lines}", "settable values: 10 parameters + 3 dataclass fields = 13"]
    (tmp_path / "empty").mkdir()
    assert design_counts.main([str(tmp_path / "empty")]) == 2
    assert capsys.readouterr().err.startswith("error: no Python files under")


STUB_RUNNER = """\
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
if args["--workload"] == "volterra-residuals":
    sys.exit("error: stubbed failure")
seed = int(args["--seed"])
if args["--trace"] == "1":
    metrics = {"cli.self_s": {"value": 0.5, "unit": "s"}}
else:
    metrics = {"wall_s": {"value": seed - 300.0, "unit": "s"}, "peak_rss_mib": {"value": 90.0, "unit": "MiB"}}
print("machine: " + json.dumps({"nproc": 2, "seconds": float(args["--seconds"])}))
print(json.dumps({"correct": True, "attempted": 2, "failed": 0, "metrics": metrics}))
"""

STUB_TIER1 = """\
print("....")
print("============================= slowest 3 durations ==============================")
print("91.50s call     tests/test_cli.py::test_lemma_fixture")
print("45.25s call     tests/test_acceptance.py::test_batch[1024]")
print("20.00s setup    tests/test_cli.py::test_threads")
print("730 passed, 2 skipped in 300.12s (0:05:00)")
"""


def test_bench_snapshot_on_a_stubbed_runner(tmp_path, monkeypatch):
    """Every workload of BENCHMARK.json gets the seeds' end-to-end spread and the traced
    run's per-layer figures; a runner that exits non-zero marks its workload incorrect,
    and the tool then exits 1 after writing the file."""
    (tmp_path / "run.py").write_text(STUB_RUNNER)
    (tmp_path / "tier1.py").write_text(STUB_TIER1)
    monkeypatch.setattr(bench_snapshot, "RUNNER", tmp_path / "run.py")
    monkeypatch.setattr(bench_snapshot, "TIER1_COMMAND", [sys.executable, str(tmp_path / "tier1.py")])
    monkeypatch.setattr(bench_snapshot, "OUT_DIR", tmp_path)
    monkeypatch.setattr(bench_snapshot, "REFERENCE_ORDER", 16)
    monkeypatch.setattr(bench_snapshot, "short_sha", lambda: "abc1234")
    assert bench_snapshot.main() == 1
    snap = json.loads((tmp_path / "BENCH_abc1234.json").read_text())
    assert set(snap) == {"commit", "taken_utc", "run_seconds", "machine", "reference", "workloads", "tier1"}
    assert snap["commit"] == "abc1234"
    benchmark = json.loads((bench_snapshot.ROOT / "BENCHMARK.json").read_text())
    assert snap["machine"] == {"nproc": 2, "seconds": benchmark["run_seconds"]}
    assert snap["reference"]["seconds"] > 0
    assert sorted(snap["workloads"]) == sorted(w["name"] for w in benchmark["workloads"])
    for name, entry in snap["workloads"].items():
        assert set(entry) == {"seeds", "correct", "attempted", "failed", "end_to_end", "per_layer", "errors"}
        assert entry["seeds"] == list(bench_snapshot.SEEDS)
        if name == "volterra-residuals":
            assert (entry["correct"], entry["end_to_end"], entry["per_layer"]) == (False, {}, {})
            assert entry["errors"] == ["exit 1: error: stubbed failure"] * (len(bench_snapshot.SEEDS) + 1)
            continue
        assert (entry["correct"], entry["failed"], entry["errors"]) == (True, 0, [])
        assert entry["attempted"] == 2 * (len(bench_snapshot.SEEDS) + 1)
        assert entry["end_to_end"]["wall_s"] == {"unit": "s", "median": 3.0, "q1": 2.0, "q3": 4.0,
                                                 "values": [1.0, 2.0, 3.0, 4.0, 5.0]}
        assert entry["end_to_end"]["peak_rss_mib"]["median"] == 90.0
        assert entry["per_layer"] == {"cli.self_s": {"value": 0.5, "unit": "s"}}
    tier1 = snap["tier1"]
    assert (tier1["exit_code"], tier1["counts"]) == (0, {"passed": 730, "skipped": 2})
    assert [(t["seconds"], t["phase"], t["test"]) for t in tier1["slowest"]] == [
        (91.5, "call", "tests/test_cli.py::test_lemma_fixture"),
        (45.25, "call", "tests/test_acceptance.py::test_batch[1024]"),
        (20.0, "setup", "tests/test_cli.py::test_threads")]
    assert tier1["wall_s"] > 0
