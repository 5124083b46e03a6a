import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

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
