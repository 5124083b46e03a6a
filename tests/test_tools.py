import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

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


def test_same_outputs_runs_volterra_at_its_defaults(tmp_path):
    from wignerlab import cli, volterra

    runs = {label: (args, outputs) for label, args, outputs in same_outputs.runs(tmp_path)}
    assert runs["volterra defaults"] == (["volterra"], ["volterra_residuals.csv"])
    defaults = cli._build_parser().parse_args(["volterra"])
    points = round(defaults.t_max / max(float(h) for h in defaults.h.split(","))) + 1
    assert points <= volterra._COLUMN_BLOCK + 1  # the coveq residual takes its coarsest grid in one block


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
    config = args[args.index("--config") + 1]
    assert runs["predict mixed parity"] == (["predict", "--config", config], ["prediction.json"])
    cfg = cli.parse_config(config)
    assert (cfg.spec.entry_dist.kind, cfg.spec.w, cfg.spec.convention, cfg.spec.w2) == (
        "uniform", 1.1, "general_diagonal", 1.5)
    assert (cfg.n_list, cfg.replicas, cfg.j_policy) == ((64, 128), 200, "middle")
    pred, _ = harness.predict(cfg)
    assert 0.0 not in (pred.v_goe, pred.kappa4_term, pred.diag_term, pred.xstar_slope)
    cross_terms, _ = limits._cov_terms(cfg.phi, cfg.phi2, cfg.spec)
    assert 0.0 not in cross_terms
