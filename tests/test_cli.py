import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from wignerlab import blas, cli, harness
from wignerlab import ensembles as en
from wignerlab.errors import ConfigError
from wignerlab.semicircle import gaussian_damped


def minimal_config(**overrides):
    base = {
        "spec": {"entry_dist": {"kind": "gaussian", "w": 1.0}, "convention": "goe"},
        "phi": {"kind": "polynomial", "coefficients": [0, 0, 1]},
        "n_list": [256],
        "replicas": 200,
        "root_seed": 1,
    }
    base.update(overrides)
    return base


def package_env() -> dict:
    """This environment with the package's source directory first on PYTHONPATH, for child processes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(cli.__file__).resolve().parents[1]), env.get("PYTHONPATH")]))
    return env


def write_config(tmp_path: Path, obj) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    return path


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_minimal_config_parses(tmp_path):
    cfg = cli.parse_config(write_config(tmp_path, minimal_config()))
    assert cfg.n_list == (256,)
    assert cfg.replicas == 200
    assert cfg.spec.convention == "goe"


def test_negative_w_names_field(tmp_path):
    bad = minimal_config()
    bad["spec"]["entry_dist"]["w"] = -1.0
    with pytest.raises(ConfigError) as err:
        cli.parse_config(write_config(tmp_path, bad))
    assert err.value.field == "config.spec.entry_dist.w"


def test_unknown_keys_rejected(tmp_path):
    bad = minimal_config(extra_knob=3)
    with pytest.raises(ConfigError):
        cli.parse_config(write_config(tmp_path, bad))
    bad = minimal_config()
    bad["spec"]["entry_dist"]["scale"] = 2
    with pytest.raises(ConfigError):
        cli.parse_config(write_config(tmp_path, bad))


def test_complex_phi_rejected(tmp_path, capsys):
    # a complex coefficient, written as an object or as a nested list, is not a real number
    for value in ({"re": 0.0, "im": 1.0}, [0.0, 1.0]):
        bad = minimal_config(phi={"kind": "polynomial", "coefficients": [0, value]})
        with pytest.raises(ConfigError) as err:
            cli.parse_config(write_config(tmp_path, bad))
        assert err.value.field == "config.phi.coefficients[1]"
        assert "expected a real number" in str(err.value)
        code = cli.run_cli(["simulate", "--config", str(write_config(tmp_path, bad)),
                            "--out", str(tmp_path / "x")])
        assert code == 2
        assert error_payload(capsys)["field"] == "config.phi.coefficients[1]"


def test_bad_json_and_missing_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        cli.parse_config(path)
    with pytest.raises(ConfigError):
        cli.parse_config(tmp_path / "absent.json")


def test_invalid_discrete_distribution_field(tmp_path):
    bad = minimal_config()
    bad["spec"] = {
        "entry_dist": {
            "kind": "two_point",
            "w": 1.0,
            "params": {"atoms": [-1.0, 2.0], "probs": [0.8, 0.2]},
        }
    }
    with pytest.raises(ConfigError):
        cli.parse_config(write_config(tmp_path, bad))


def test_config_hash_is_stable():
    h1 = cli.config_hash(minimal_config())
    h2 = cli.config_hash(json.loads(json.dumps(minimal_config())))
    assert h1 == h2
    assert len(h1) == 16


# ---------------------------------------------------------------------------
# subcommands end to end
# ---------------------------------------------------------------------------


def test_predict_end_to_end(tmp_path):
    cfg = minimal_config()
    cfg["phi"] = {"kind": "polynomial", "coefficients": [0, 0, 0, 0, 1]}
    cfg["spec"] = {"entry_dist": {"kind": "rademacher", "w": 1.0}}
    code = cli.run_cli(
        ["predict", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "p")]
    )
    assert code == 0
    out = json.loads((tmp_path / "p" / "prediction.json").read_text())
    assert out["v_w"] == pytest.approx(2.0, abs=1e-9)
    assert out["v_goe"] == pytest.approx(20.0, abs=1e-9)
    assert out["kappa4_term"] == pytest.approx(-18.0, abs=1e-9)
    manifest = json.loads((tmp_path / "p" / "manifest.json").read_text())
    assert manifest["outputs"] == ["prediction.json"]


@pytest.mark.parametrize("command,files", [
    (["simulate", "--raw"], ["result.json", "replicas.csv"]),
    (["lemma"], ["lemma_decay.csv"]),
    (["volterra", "--h", "0.5,0.25", "--t-max", "1"], ["volterra_residuals.csv"]),
], ids=["simulate", "lemma", "volterra"])
def test_manifest_lists_exactly_the_files_written(tmp_path, capsys, command, files):
    if command[0] != "volterra":
        cfg = minimal_config(n_list=[16, 32, 64, 128] if command[0] == "lemma" else [64], replicas=100)
        command = command + ["--config", str(write_config(tmp_path, cfg))]
    out = tmp_path / "o"
    assert cli.run_cli(command + ["--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == files
    assert sorted(p.name for p in out.iterdir()) == sorted(files + ["manifest.json"])
    assert capsys.readouterr().out.splitlines() == [f"wrote {out / name}" for name in files]
    # the process's own usage, read when the manifest is written
    assert manifest["cpu_user_s"] > 0 and manifest["cpu_sys_s"] >= 0 and manifest["minor_faults"] > 0


def test_manifest_usage_without_resource_module(monkeypatch):
    monkeypatch.setitem(sys.modules, "resource", None)  # as on a platform without it
    assert cli._process_usage() == {"cpu_user_s": None, "cpu_sys_s": None, "minor_faults": None}


def test_simulate_deterministic_across_threads(tmp_path):
    cfg_path = write_config(tmp_path, minimal_config(n_list=[64], replicas=150))
    for threads, out in ((1, "a"), (4, "b")):
        code = cli.run_cli(
            ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / out),
             "--threads", str(threads), "--raw"]
        )
        assert code == 0
    a = (tmp_path / "a" / "result.json").read_bytes()
    b = (tmp_path / "b" / "result.json").read_bytes()
    assert a == b
    assert (tmp_path / "a" / "replicas.csv").read_bytes() == (tmp_path / "b" / "replicas.csv").read_bytes()


def run_across_threads(tmp_path: Path, command: list[str], cfg: dict, label: str) -> dict:
    """Output directories of one fresh CLI run per (OPENBLAS_NUM_THREADS, --threads) in {1, 2}^2."""
    cfg_path = write_config(tmp_path, cfg)
    outs = {}
    for blas_threads in (1, 2):
        for threads in (1, 2):
            env = package_env()
            env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
            out = tmp_path / f"{label}-blas{blas_threads}-threads{threads}"
            subprocess.run(
                [sys.executable, "-m", "wignerlab.cli", *command, "--config", str(cfg_path),
                 "--threads", str(threads), "--out", str(out)],
                env=env, check=True, timeout=600, stdout=subprocess.DEVNULL,
            )
            outs[(blas_threads, threads)] = out
    return outs


def test_simulate_identical_across_replica_and_blas_threads(tmp_path):
    """The Lanczos (smooth, then polynomial phi) and eigh (tabulated phi) routes at
    n=512, where LAPACK's and BLAS's bits depend on the BLAS thread count."""
    smooth = {"kind": "gaussian_damped_polynomial", "coefficients": [0, 1, 0, 0.5]}
    cubic = {"kind": "polynomial", "coefficients": [0.5, 0, 0, 1]}
    table = {"kind": "tabulated", "grid": [-3.0, -1.0, 0.0, 1.0, 3.0],
             "values": [1.0, 0.5, 0.0, 0.5, 1.0]}
    for phi, route in ((smooth, "lanczos"), (cubic, "power"), (table, "eigh")):
        outs = run_across_threads(tmp_path, ["simulate", "--raw"],
                                  minimal_config(n_list=[512], replicas=100, phi=phi), phi["kind"])
        assert {json.loads((out / "manifest.json").read_text())["phi_route"]
                for out in outs.values()} == {route}
        outputs = {key: tuple((out / name).read_bytes() for name in ("result.json", "replicas.csv"))
                   for key, out in outs.items()}
        assert [key for key, value in outputs.items() if value != outputs[(1, 1)]] == [], phi


def test_lemma_identical_across_replica_and_blas_threads(tmp_path):
    """lemma up to n=512, where OpenBLAS's GEMM bits depend on the width of its right side."""
    cfg = minimal_config(n_list=[64, 128, 256, 512], replicas=100, t_grid=[1.0, 3.0])
    outputs = {key: (out / "lemma_decay.csv").read_bytes()
               for key, out in run_across_threads(tmp_path, ["lemma"], cfg, "lemma").items()}
    assert [key for key, value in outputs.items() if value != outputs[(1, 1)]] == []


@pytest.mark.parametrize("phi_kind,route,steps", [
    ("smooth", "lanczos", True), ("tabulated", "eigh", False), ("polynomial", "power", False),
])
def test_simulate_manifest_records_phi_route(tmp_path, phi_kind, route, steps):
    """steps: True when a smooth phi walks Lanczos, which records its largest Jacobi matrix
    and K0, the first rule size its stop rule may stop at; x^3 and x^4 read power vectors,
    so they record neither, like a tabulated phi's eigh."""
    phi = {"kind": "gaussian_damped_polynomial", "coefficients": [1, 0, 1]}
    extra = {}
    if phi_kind == "polynomial":
        phi = {"kind": "polynomial", "coefficients": [0, 0, 0, 1]}
        extra["phi2"] = {"kind": "polynomial", "coefficients": [0, 0, 0, 0, 1]}
    elif phi_kind == "tabulated":
        phi = {"kind": "tabulated", "grid": [-3.0, 0.0, 3.0], "values": [1.0, 0.0, 1.0]}
    cfg_path = write_config(tmp_path, minimal_config(n_list=[32, 64], replicas=100, phi=phi, **extra))
    assert cli.run_cli(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "s")]) == 0
    manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
    assert manifest["phi_route"] == route
    if steps:
        assert 1 <= manifest["lanczos_steps_max"] <= 64
        assert manifest["lanczos_first_read"] == harness.lanczos_first_read([gaussian_damped([1, 0, 1])], 1.0) == 14
    else:
        assert manifest["lanczos_steps_max"] is manifest["lanczos_first_read"] is None
    result = json.loads((tmp_path / "s" / "result.json").read_text())
    assert "phi_route" not in json.dumps(result)  # metadata stays out of the primary output


def test_simulate_seed_override_changes_output(tmp_path):
    cfg_path = write_config(tmp_path, minimal_config(n_list=[64], replicas=150))
    cli.run_cli(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "s1")])
    cli.run_cli(["simulate", "--config", str(cfg_path), "--seed", "99", "--out", str(tmp_path / "s2")])
    r1 = json.loads((tmp_path / "s1" / "result.json").read_text())
    r2 = json.loads((tmp_path / "s2" / "result.json").read_text())
    assert r1["per_n"][0]["samples_hash"] != r2["per_n"][0]["samples_hash"]
    assert r2["config"]["root_seed"] == 99


def test_replicas_csv_round_trips_floats(tmp_path):
    cfg_path = write_config(tmp_path, minimal_config(n_list=[64], replicas=120))
    cli.run_cli(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "r"), "--raw"])
    result = json.loads((tmp_path / "r" / "result.json").read_text())
    with (tmp_path / "r" / "replicas.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 120
    assert rows[0]["n"] == "64"
    values = [float(row["y_value"]) for row in rows]  # repr round-trip is exact
    import numpy as np
    import hashlib

    assert hashlib.blake2b(np.array(values).tobytes(), digest_size=8).hexdigest() == \
        result["per_n"][0]["samples_hash"]


def test_result_json_round_trip(tmp_path):
    cfg_path = write_config(tmp_path, minimal_config(n_list=[64], replicas=150))
    cli.run_cli(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "j")])
    text = (tmp_path / "j" / "result.json").read_text()
    obj = json.loads(text)
    assert json.dumps(obj, sort_keys=True, indent=1) + "\n" == text


@pytest.mark.parametrize("overrides", [
    # phi2 set: result.json carries covariance and cov_prediction
    dict(phi2={"kind": "polynomial", "coefficients": [0, 0, 0, 1]}, n_list=[32, 48], replicas=150),
    # Rademacher x^2 is degenerate: the kurtosis and the KS statistic are None
    dict(spec={"entry_dist": {"kind": "rademacher", "w": 1.0}}, n_list=[32], replicas=500),
], ids=["phi2", "degenerate"])
def test_simulate_writes_exactly_its_record(tmp_path, overrides):
    cfg_path = write_config(tmp_path, minimal_config(**overrides))
    assert cli.run_cli(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "s"),
                        "--raw", "--threads", "1"]) == 0
    result = harness.run_entry_experiment(cli.parse_config(cfg_path), threads=1)
    written = json.loads((tmp_path / "s" / "result.json").read_text())
    assert written == json.loads(json.dumps(result.record))
    per_n = written["per_n"]
    if "phi2" in overrides:
        assert all("covariance" in p for p in per_n) and "cov_prediction" in written
    else:
        assert per_n[0]["excess_kurtosis"][0] is None and per_n[0]["ks"]["ks_stat"] is None
    with (tmp_path / "s" / "replicas.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [(int(r["n"]), int(r["j"]), int(r["replica"])) for r in rows] == [
        (p["n"], p["j"], i) for p, y in zip(per_n, result.samples) for i in range(y.size)]
    import numpy as np

    column = np.array([float(r["y_value"]) for r in rows])
    assert column.tobytes() == np.concatenate(result.samples).tobytes()


def test_volterra_subcommand(tmp_path):
    code = cli.run_cli(["volterra", "--out", str(tmp_path / "v"), "--h", "0.08,0.04", "--t-max", "1.2"])
    assert code == 0
    with (tmp_path / "v" / "volterra_residuals.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert {row["case"] for row in rows} >= {"coveq", "scalar_v_equation"}
    finite_orders = [float(r["order_estimate"]) for r in rows if r["order_estimate"] != "nan"]
    assert all(1.5 <= o <= 2.5 for o in finite_orders)


@pytest.mark.parametrize("args,nodes", [([], 32), (["--w", "40", "--t-max", "2"], 128)])
def test_volterra_manifest_records_the_kernel_rule(tmp_path, args, nodes):
    """manifest.json records the node count of the coveq kernels' rule: 32 at the defaults
    (w t_max = 2), 128 at w t_max = 80."""
    out = tmp_path / "v"
    assert cli.run_cli(["volterra", "--h", "0.5,0.25", *args, "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["kernel_nodes"] == nodes


def test_volterra_config_hash_covers_t_max(tmp_path):
    """Two volterra runs that differ only in --t-max have different inputs, so different hashes."""
    hashes = []
    for t_max in ("1", "2"):
        out = tmp_path / t_max
        assert cli.run_cli(["volterra", "--h", "0.5", "--t-max", t_max, "--out", str(out)]) == 0
        hashes.append(json.loads((out / "manifest.json").read_text())["config_hash"])
    assert hashes[0] != hashes[1]


def test_volterra_identical_across_blas_threads(tmp_path):
    """The column-blocked coveq residual and its table run on one BLAS thread, whatever the default."""
    src = str(Path(cli.__file__).resolve().parents[1])
    outs = {}
    for blas_threads in (1, 2):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / f"blas{blas_threads}"
        subprocess.run([sys.executable, "-m", "wignerlab.cli", "volterra", "--h", "0.02,0.01",
                        "--w", "1.07", "--kappa4", "-0.9", "--out", str(out)],
                       env=env, check=True, timeout=600, stdout=subprocess.DEVNULL)
        outs[blas_threads] = out
    assert (outs[1] / "volterra_residuals.csv").read_bytes() == (outs[2] / "volterra_residuals.csv").read_bytes()
    assert {json.loads((out / "manifest.json").read_text())["blas_threads"]
            for out in outs.values()} == {blas.replica_blas_threads()}


def test_predict_identical_across_blas_threads(tmp_path):
    """predict runs no BLAS phase: its coefficients are one FFT, whatever OPENBLAS_NUM_THREADS."""
    cfg = minimal_config(spec={"entry_dist": {"kind": "uniform", "w": 1.1}, "convention": "general_diagonal",
                               "w2": 1.5},
                         phi={"kind": "gaussian_damped_polynomial", "coefficients": [0.3, 1.0, 0.5, 1.0],
                              "envelope_width": 1.3})
    cfg_path = write_config(tmp_path, cfg)
    outs = []
    for blas_threads in (1, 2):
        env = dict(package_env(), OPENBLAS_NUM_THREADS=str(blas_threads))
        out = tmp_path / f"blas{blas_threads}"
        subprocess.run([sys.executable, "-m", "wignerlab.cli", "predict", "--config", str(cfg_path),
                        "--out", str(out)], env=env, check=True, timeout=120, stdout=subprocess.DEVNULL)
        outs.append(out)
    assert (outs[0] / "prediction.json").read_bytes() == (outs[1] / "prediction.json").read_bytes()
    assert [json.loads((out / "manifest.json").read_text())["blas_threads"] for out in outs] == [None, None]


def test_volterra_zero_residual_has_no_order(tmp_path):
    # at this scale the scalar v-equation residual is exactly 0 at h = 0.5
    code = cli.run_cli(["volterra", "--w", "1e-5", "--h", "0.5,0.25", "--t-max", "1",
                        "--out", str(tmp_path / "v")])
    assert code == 0
    with (tmp_path / "v" / "volterra_residuals.csv").open() as fh:
        rows = [r for r in csv.DictReader(fh) if r["case"] == "scalar_v_equation"]
    assert [r["h"] for r in rows] == ["0.5", "0.25"]
    assert float(rows[0]["residual"]) == 0.0
    assert [r["order_estimate"] for r in rows] == ["nan", "nan"]


def test_volterra_small_scale_keeps_second_order(tmp_path):
    # vvv cancels to O((w t)^2) in its quadrature form; the series form keeps coveq at O(h^2)
    code = cli.run_cli(["volterra", "--w", "1e-5", "--h", "0.5,0.25", "--t-max", "1",
                        "--out", str(tmp_path / "v")])
    assert code == 0
    with (tmp_path / "v" / "volterra_residuals.csv").open() as fh:
        rows = [r for r in csv.DictReader(fh) if r["case"] == "coveq"]
    assert 1.8 <= float(rows[-1]["order_estimate"]) <= 2.2


def test_lemma_subcommand(tmp_path):
    cfg = minimal_config(n_list=[16, 32, 64, 128], replicas=120, t_grid=[1.0])
    code = cli.run_cli(
        ["lemma", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "l")]
    )
    assert code == 0
    with (tmp_path / "l" / "lemma_decay.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 20  # 5 statistics x 4 sizes
    assert {row["statistic"] for row in rows} == {"U_jj", "v_n", "v_n_pair", "v_n1", "v_n2"}


def test_lemma_var_slope_fits_its_own_variance_column(tmp_path):
    import numpy as np

    cfg = minimal_config(n_list=[16, 32, 64, 128], replicas=100, t_grid=[1.0, 3.0])
    code = cli.run_cli(["lemma", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "l")])
    assert code == 0
    with (tmp_path / "l" / "lemma_decay.csv").open() as fh:
        groups: dict = {}
        for row in csv.DictReader(fh):
            groups.setdefault((row["statistic"], row["t"]), []).append(row)
    assert len(groups) == 10  # 5 statistics x 2 times
    for rows in groups.values():
        assert [int(r["n"]) for r in rows] == [16, 32, 64, 128]
        assert len({r["var_slope"] for r in rows}) == 1
        fit = np.polyfit(np.log([16, 32, 64, 128]), np.log([float(r["variance"]) for r in rows]), 1)[0]
        assert float(rows[0]["var_slope"]) == pytest.approx(fit, rel=1e-12)


def test_lemma_zero_variance_slope_is_an_empty_cell(tmp_path):
    """U(0) = I makes every t = 0 statistic exact, so its variances are 0 and have no
    log-log slope: the cell is empty, not nan, and the t = 1 slopes stay finite."""
    cfg = minimal_config(n_list=[16, 32, 64, 128], replicas=100, t_grid=[0.0, 1.0])
    code = cli.run_cli(["lemma", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "l")])
    assert code == 0
    text = (tmp_path / "l" / "lemma_decay.csv").read_text()
    assert "nan" not in text
    rows = list(csv.DictReader(text.splitlines()))
    assert {r["var_slope"] for r in rows if float(r["t"]) == 0.0} == {""}
    slopes = [float(r["var_slope"]) for r in rows if float(r["t"]) == 1.0]
    assert len(slopes) == 20 and all(math.isfinite(v) for v in slopes)


def test_lemma_explicit_j(tmp_path):
    def lemma(name, **overrides):
        cfg = minimal_config(n_list=[16, 32, 64, 128], replicas=100, t_grid=[1.0], **overrides)
        code = cli.run_cli(["lemma", "--config", str(write_config(tmp_path, cfg)),
                            "--out", str(tmp_path / name)])
        return code, tmp_path / name / "lemma_decay.csv"

    code, explicit0 = lemma("e0", j_policy="explicit", j_explicit=0)
    assert code == 0
    _, first = lemma("first", j_policy="first")
    code, explicit5 = lemma("e5", j_policy="explicit", j_explicit=5)
    assert code == 0
    assert explicit0.read_bytes() == first.read_bytes()
    assert explicit5.read_bytes() != first.read_bytes()
    manifest = json.loads((tmp_path / "e5" / "manifest.json").read_text())
    assert manifest["blas_threads"] == blas.replica_blas_threads()
    code, _ = lemma("e20", j_policy="explicit", j_explicit=20)  # out of range at n=16
    assert code == 2


def test_lemma_reads_no_phi(tmp_path, capsys):
    """lemma may leave phi out, and still accepts phi, phi2 and x_grid; predict and simulate need phi."""
    cfg = minimal_config(n_list=[16, 32, 64, 128], replicas=100, t_grid=[1.0, 3.0])
    bare = {k: v for k, v in cfg.items() if k != "phi"}
    full = dict(cfg, phi2={"kind": "polynomial", "coefficients": [0, 1]}, x_grid=[0.5])
    tables = {}
    for name, obj in (("bare", bare), ("full", full)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        assert cli.run_cli(["lemma", "--config", str(path), "--out", str(tmp_path / name)]) == 0
        tables[name] = (tmp_path / name / "lemma_decay.csv").read_bytes()
    assert tables["bare"] == tables["full"]
    capsys.readouterr()
    for command in ("predict", "simulate"):
        code = cli.run_cli([command, "--config", str(tmp_path / "bare.json"), "--out", str(tmp_path / "x")])
        assert code == 2
        payload = error_payload(capsys)
        assert payload["field"] == "config" and "'phi'" in payload["message"]
        assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command,n_list", [("lemma", [16, 16, 16, 128]), ("simulate", [32, 32])])
def test_repeated_sizes_are_rejected(tmp_path, capsys, command, n_list):
    """lemma's four sizes span 8x with only two distinct, so its decay fit would run through
    two points; simulate would sample the same replicas twice."""
    cfg = minimal_config(n_list=n_list, replicas=100, t_grid=[1.0])
    out = tmp_path / "x"
    code = cli.run_cli([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
    assert code == 2
    payload = error_payload(capsys)
    assert payload["error"] == "ConfigError" and "distinct" in payload["message"]
    assert payload["field"] == "config.n_list"
    assert not out.exists()


@pytest.mark.parametrize("command", ["predict", "simulate", "lemma"])
def test_repeated_times_are_rejected(tmp_path, capsys, command):
    """lemma would write every (statistic, t, n) row of a repeated time twice."""
    cfg = minimal_config(n_list=[16, 32, 64, 128], replicas=100, t_grid=[1.0, 1.0])
    out = tmp_path / "x"
    code = cli.run_cli([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
    assert code == 2
    payload = error_payload(capsys)
    assert (payload["error"], payload["field"]) == ("ConfigError", "config.t_grid")
    assert "values must be distinct" in payload["message"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["predict", "simulate", "lemma"])
def test_repeated_cf_points_are_rejected(tmp_path, capsys, command):
    """simulate would write the CF row of a repeated point twice."""
    cfg = minimal_config(n_list=[16, 32, 64, 128], replicas=100, x_grid=[0.5, 0.5])
    out = tmp_path / "x"
    code = cli.run_cli([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
    assert code == 2
    payload = error_payload(capsys)
    assert (payload["error"], payload["field"]) == ("ConfigError", "config.x_grid")
    assert payload["message"] == "config.x_grid: values must be distinct, got [0.5, 0.5]"
    assert not out.exists()


@pytest.mark.parametrize("command,overrides,field", [
    ("simulate", {"replicas": 50}, "config.replicas"),
    ("predict", {"n_list": [8]}, "config.n_list"),
    ("lemma", {"n_list": [16, 32, 64, 100], "replicas": 100}, "config.n_list"),  # spans less than 8x
])
def test_rejected_config_values_name_their_field(tmp_path, capsys, command, overrides, field):
    out = tmp_path / "x"
    code = cli.run_cli([command, "--config", str(write_config(tmp_path, minimal_config(**overrides))),
                        "--out", str(out)])
    assert code == 2
    payload = error_payload(capsys)
    assert (payload["error"], payload["field"]) == ("ConfigError", field)
    assert not out.exists()


@pytest.mark.parametrize("scale", [1.0, 1e8, 1e12, 1e14])
def test_predict_scaled_degenerate_variance_is_zero(tmp_path, scale):
    """Rademacher x^2 has limiting variance 0 at any scale; its terms cancel only to rounding.
    (M^2)_jj is the same in every sample, so simulate measures 0 and z_variance is 0, not inf."""
    cfg = minimal_config(spec={"entry_dist": {"kind": "rademacher", "w": 1.0}},
                         phi={"kind": "polynomial", "coefficients": [0, 0, scale]}, n_list=[64], replicas=100)
    path = str(write_config(tmp_path, cfg))
    assert cli.run_cli(["predict", "--config", path, "--out", str(tmp_path / "p")]) == 0
    assert json.loads((tmp_path / "p" / "prediction.json").read_text())["v_w"] == 0.0
    assert cli.run_cli(["simulate", "--config", path, "--out", str(tmp_path / "s")]) == 0
    row = json.loads((tmp_path / "s" / "result.json").read_text())["comparison"]["per_n"][0]
    assert row["z_variance"] == 0.0 and row["variance_ok"] is True


def test_simulate_writes_null_z_for_an_all_equal_sample_against_a_nonzero_limit(tmp_path, capsys):
    """At n = 32 every y of this config is 0, so its variance, k-statistics and their CIs are 0
    against a nonzero limit: each z-score with a nonzero gap is null (not Infinity), the
    variance is not ok, and report prints "-" for its z."""
    cfg = minimal_config(
        spec={"entry_dist": {"kind": "discrete_custom", "w": 2.0,
                             "params": {"atoms": [-20.0, 0.0, 20.0], "probs": [0.005, 0.99, 0.005]}}},
        phi={"kind": "polynomial", "coefficients": [0.5, 1.0, 1e-200]}, n_list=[16, 32], replicas=100,
        root_seed=15)
    out = tmp_path / "s"
    assert cli.run_cli(["simulate", "--config", str(write_config(tmp_path, cfg)), "--out", str(out),
                        "--threads", "1"]) == 0
    text = (out / "result.json").read_text()
    assert "Infinity" not in text and "NaN" not in text
    result = json.loads(text)
    record, row = result["per_n"][1], result["comparison"]["per_n"][1]
    assert record["n"] == 32 and record["variance"] == 0.0 and result["prediction"]["v_w"] > 0.0
    assert (row["z_variance"], row["z_k4"], row["variance_ok"]) == (None, None, False)
    capsys.readouterr()
    assert cli.run_cli(["report", str(out / "result.json")]) == 0
    line = capsys.readouterr().out.splitlines()[-1].split()
    assert (line[0], line[3]) == ("32", "-")


def test_report_subcommand(tmp_path, capsys):
    cfg_path = write_config(tmp_path, minimal_config(n_list=[64], replicas=150))
    cli.run_cli(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "rep")])
    code = cli.run_cli(["report", str(tmp_path / "rep" / "result.json")])
    assert code == 0
    out = capsys.readouterr().out
    assert "prediction" in out
    assert "variance" in out


def test_report_prints_a_prediction(tmp_path, capsys):
    cfg_path = write_config(tmp_path, minimal_config())
    assert cli.run_cli(["predict", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    written = json.loads((tmp_path / "prediction.json").read_text())
    capsys.readouterr()
    assert cli.run_cli(["report", str(tmp_path / "prediction.json")]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"== {tmp_path / 'prediction.json'} ==\n")
    assert json.loads(out.split("\n", 1)[1]) == written


# ---------------------------------------------------------------------------
# exit codes and error channel
# ---------------------------------------------------------------------------


def test_exit_code_validation_error(tmp_path, capsys):
    bad = minimal_config()
    bad["spec"]["entry_dist"]["w"] = -2.0
    code = cli.run_cli(
        ["predict", "--config", str(write_config(tmp_path, bad)), "--out", str(tmp_path)]
    )
    assert code == 2
    err = capsys.readouterr().err.strip()
    payload = json.loads(err)  # single-line JSON on stderr
    assert payload["error"] == "ConfigError"
    assert payload["field"] == "config.spec.entry_dist.w"
    assert "\n" not in err


@pytest.mark.parametrize("command", ["predict", "simulate"])
def test_exit_code_unknown_phi_eval(tmp_path, capsys, command):
    """phi_eval, the evaluator knob the phis now replace, is an unknown key like any other."""
    cfg_path = write_config(tmp_path, minimal_config(phi_eval="auto"))
    code = cli.run_cli([command, "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert code == 2
    payload = error_payload(capsys)
    assert (payload["error"], payload["field"]) == ("ConfigError", "config")
    assert "unknown key(s) ['phi_eval']" in payload["message"]
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["predict", "simulate", "lemma"])
def test_exit_code_config_not_utf8(tmp_path, capsys, command):
    """A config that is not UTF-8 text is bad input, as an unreadable file or invalid JSON is."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_bytes(b"\xff\xfe\x00\x7b")
    code = cli.run_cli([command, "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert code == 2
    payload = error_payload(capsys)
    assert payload["error"] == "ConfigError" and str(cfg_path) in payload["message"]
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["predict", "volterra"])
@pytest.mark.parametrize("under", [False, True], ids=["a_file", "under_a_file"])
def test_exit_code_out_is_not_a_directory(tmp_path, capsys, command, under):
    """An --out that is a file, or lies under one, exits 2 naming --out, and writes nothing."""
    blocker = tmp_path / "blocker"
    blocker.write_text("keep")
    out = blocker / "sub" if under else blocker
    if command == "predict":
        args = ["predict", "--config", str(write_config(tmp_path, minimal_config()))]
    else:
        args = ["volterra", "--h", "0.04,0.02"]
    code = cli.run_cli([*args, "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no `wrote` line
    assert "\n" not in captured.err.strip()
    payload = json.loads(captured.err)
    assert (payload["error"], payload["field"]) == ("ConfigError", "--out")
    assert payload["message"].startswith("--out")
    assert blocker.read_text() == "keep"


def non_finite_config(where: str, value: float) -> dict:
    """minimal_config with value at `where`, one of NON_FINITE_FIELDS."""
    cfg = minimal_config(n_list=[16, 32, 64, 128], replicas=100)
    if where == "w2":
        cfg["spec"] = {"entry_dist": {"kind": "gaussian", "w": 1.0},
                       "convention": "general_diagonal", "w2": value}
    elif where == "w":
        cfg["spec"]["entry_dist"]["w"] = value
    elif where == "coefficients":
        cfg["phi"]["coefficients"] = [0, value, 1]
    elif where in ("grid", "values"):
        cfg["phi"] = {"kind": "tabulated", "grid": [-3.0, 0.0, 3.0], "values": [1.0, 0.0, 1.0]}
        cfg["phi"][where][1] = value
    else:
        cfg[where] = [0.5, value]
    return cfg


NON_FINITE_FIELDS = {
    "w2": "config.spec.w2",
    "w": "config.spec.entry_dist.w",
    "coefficients": "config.phi.coefficients[1]",
    "grid": "config.phi.grid[1]",
    "values": "config.phi.values[1]",
    "x_grid": "config.x_grid[1]",
}


@pytest.mark.parametrize("command", ["predict", "simulate", "lemma"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", sorted(NON_FINITE_FIELDS))
@pytest.mark.filterwarnings("error")  # no numpy RuntimeWarning may precede the JSON error
def test_exit_code_non_finite_config_number(tmp_path, capsys, command, value, where):
    """json.loads reads NaN and Infinity; every config number must be finite."""
    cfg_path = write_config(tmp_path, non_finite_config(where, value))
    code = cli.run_cli([command, "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert code == 2
    payload = error_payload(capsys)
    assert (payload["error"], payload["field"]) == ("ConfigError", NON_FINITE_FIELDS[where])
    assert not (tmp_path / "x").exists()


def test_readme_config_schema_parses():
    """The README's config-schema block is a config the parser accepts, key for key."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Config schema", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    documented = json.loads(block)
    descriptor = cli.config_from_dict(documented).descriptor()
    assert set(documented) - {"phi2"} == set(descriptor)


def error_payload(capsys) -> dict:
    err = capsys.readouterr().err.strip()
    assert "\n" not in err  # single-line JSON on stderr
    return json.loads(err)


@pytest.mark.parametrize("command", ["simulate", "lemma"])
@pytest.mark.parametrize("flag,value", [
    ("--threads", "0"), ("--threads", "-3"), ("--seed", "-5"), ("--seed", str(2**64)),
])
def test_exit_code_bad_threads_and_seed_arguments(tmp_path, capsys, command, flag, value):
    cfg_path = write_config(tmp_path, minimal_config(n_list=[16, 32, 64, 128], replicas=100))
    out = tmp_path / "x"
    code = cli.run_cli([command, "--config", str(cfg_path), flag, value, "--out", str(out)])
    assert code == 2
    payload = error_payload(capsys)
    assert payload["error"] == "ConfigError"
    assert payload["field"] == flag
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "lemma"])
def test_threads_above_the_bound_exit_2(tmp_path, capsys, command):
    """--threads above 64 exits 2 naming --threads before any replica runs, and 64 is accepted.
    The 100 replicas bound the threads a run that ignored the bound would start."""
    cfg_path = write_config(tmp_path, minimal_config(n_list=[16, 32, 64, 128], replicas=100))
    out = tmp_path / "x"
    assert cli.run_cli([command, "--config", str(cfg_path), "--threads", "65", "--out", str(out)]) == 2
    payload = error_payload(capsys)
    assert (payload["error"], payload["field"]) == ("ConfigError", "--threads")
    assert "1..64" in payload["message"]
    assert not out.exists()
    assert cli._replica_threads(cli._build_parser().parse_args([command, "--config", "c", "--threads", "64"])) == 64


@pytest.mark.parametrize("command", ["predict", "simulate", "lemma"])
@pytest.mark.parametrize("phi2", [
    {"kind": "gaussian_damped_polynomial", "coefficients": [1, 0, 1], "envelope_width": 0},
    {"kind": "tabulated", "grid": [-1.0, 1.0, 0.0], "values": [0.0, 1.0, 2.0]},
], ids=["zero_envelope_width", "unordered_grid"])
def test_bad_test_function_names_its_field(tmp_path, capsys, command, phi2):
    """A phi the constructor rejects exits 2 naming which phi is bad."""
    cfg = minimal_config(n_list=[16, 32, 64, 128], replicas=100, phi2=phi2)
    out = tmp_path / "x"
    code = cli.run_cli([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
    assert code == 2
    payload = error_payload(capsys)
    assert (payload["error"], payload["field"]) == ("ConfigError", "config.phi2")
    assert payload["message"].startswith("config.phi2: ")
    assert not out.exists()


def test_root_seed_range(tmp_path):
    assert cli.parse_config(write_config(tmp_path, minimal_config(root_seed=2**64 - 1))).root_seed == 2**64 - 1
    with pytest.raises(ConfigError) as err:
        cli.parse_config(write_config(tmp_path, minimal_config(root_seed=2**64)))
    assert err.value.field == "config.root_seed"


@pytest.mark.parametrize("args,error", [
    (["--h", "abc"], "ConfigError"),
    (["--h", ",0.04"], "ConfigError"),
    (["--t-max", "nan"], "ConfigError"),
    (["--t-max", "inf"], "ConfigError"),
    (["--h", "0.03", "--t-max", "2"], "ConfigError"),  # 2 / 0.03 is not a whole step count
    (["--w", "nan"], "ConfigError"),
    (["--w", "inf"], "ConfigError"),
    (["--kappa4", "nan"], "ConfigError"),
    (["--kappa4", "inf"], "ConfigError"),
    (["--w", "1e200"], "ConfigError"),  # w^4 overflows
    (["--w", "1e-200"], "ConfigError"),  # w^2 underflows to 0, so v*v = 0/0
])
@pytest.mark.filterwarnings("error")  # no numpy RuntimeWarning may precede the JSON error
def test_exit_code_bad_volterra_arguments(tmp_path, capsys, args, error):
    code = cli.run_cli(["volterra", *args, "--out", str(tmp_path / "v")])
    assert code == 2
    assert error_payload(capsys)["error"] == error
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize("args,field", [
    (["--t-max", "1e308"], "--t-max"),  # t_max / h overflows
    (["--t-max", "1e20"], "--t-max"),  # floats near 1e20 are farther apart than 0.04
    (["--h", "1e-7"], "--h"),  # 2e7 grid points
    (["--h", "0.01,0.01"], "--h"),  # a repeated step has no convergence order
    (["--t-max", "nan"], "--t-max"),
    (["--t-max", "inf"], "--t-max"),
    (["--h", "nan"], "--h"),
    (["--h", "-1"], "--h"),
    (["--h", "0.03", "--t-max", "2"], "--h"),  # 2 / 0.03 is not a whole step count
    (["--w", "1e200"], "--w"),  # w * t_max is past the 128-node rule
    (["--w", "1e-200"], "--w"),  # w^2 underflows to 0, so v*v = 0/0
    # kappa4 times the vvv defect, which grows as t_max^2 at small w t, overflows
    (["--w", "1e-5", "--t-max", "8e6", "--h", "8e6,4e6", "--kappa4", "1e308"], "--kappa4"),
    (["--w", "0"], "--w"),
    (["--w", "-1"], "--w"),
    (["--w", "nan"], "--w"),
    (["--kappa4", "inf"], "--kappa4"),
])
@pytest.mark.filterwarnings("error")
def test_volterra_grid_errors_name_the_flag(tmp_path, capsys, args, field):
    code = cli.run_cli(["volterra", *args, "--out", str(tmp_path / "v")])
    assert code == 2
    payload = error_payload(capsys)
    assert (payload["error"], payload["field"]) == ("ConfigError", field)
    assert payload["message"].startswith(field)
    assert not (tmp_path / "v").exists()


def volterra_coveq(tmp_path, *args) -> list[float]:
    out = tmp_path / "-".join(args)
    assert cli.run_cli(["volterra", "--h", "0.5,0.25", "--t-max", "1", *args, "--out", str(out)]) == 0
    with (out / "volterra_residuals.csv").open() as fh:
        return [float(r["residual"]) for r in csv.DictReader(fh) if r["case"] == "coveq"]


@pytest.mark.filterwarnings("error")
def test_volterra_huge_kappa4_scales_the_coveq_residual(tmp_path):
    """kappa4 multiplies only the O(h^2) defect of vvv in the covariance equation, so even the
    largest decades of kappa4 give a finite coveq residual, linear in kappa4."""
    huge, tenth = volterra_coveq(tmp_path, "--kappa4", "1e308"), volterra_coveq(tmp_path, "--kappa4", "1e307")
    assert all(math.isfinite(r) and r > 0 for r in huge)
    assert huge == pytest.approx([10.0 * r for r in tenth], rel=1e-12)


@pytest.mark.parametrize("flags", [["--w=0.5"], ["--w=1", "--t-max=8", "--h=4,2"]])
def test_volterra_largest_kappa4_runs_where_vvv_or_its_defect_passes_one(tmp_path, flags):
    """kappa4 = 1.7e308 times a vvv above 1 (small w) or times a defect above 1 (a coarse grid)
    leaves the float range, but the kernel's kappa4 term does not: the run exits 0."""
    out = tmp_path / "v"
    assert cli.run_cli(["volterra", "--kappa4=1.7e308", *flags, "--out", str(out)]) == 0
    with (out / "volterra_residuals.csv").open() as fh:
        assert all(math.isfinite(float(r["residual"])) for r in csv.DictReader(fh))


@pytest.mark.parametrize("w,t_max,code", [
    ("45", "2", 0), ("90", "1", 0),  # w t_max = 90: the bound
    ("45.5", "2", 2), ("90.01", "1", 2), ("300", "1", 2), ("1e30", "2", 2),
])
@pytest.mark.filterwarnings("error")
def test_volterra_w_t_max_bound(tmp_path, capsys, w, t_max, code):
    """A w * t_max past what the 128-node semicircle rule resolves exits 2 naming --w."""
    h = f"{float(t_max) / 2!r},{float(t_max) / 4!r}"
    out = tmp_path / "v"
    assert cli.run_cli(["volterra", "--w", w, "--t-max", t_max, "--h", h, "--out", str(out)]) == code
    if code:
        payload = error_payload(capsys)
        assert (payload["error"], payload["field"]) == ("ConfigError", "--w")
        assert not out.exists()
    else:
        with (out / "volterra_residuals.csv").open() as fh:
            assert all(math.isfinite(float(r["residual"])) for r in csv.DictReader(fh))


def mostly(working):
    """Three draws in four from the working range, the rest from any float at all."""
    return st.one_of(working, working, working, st.floats())


@st.composite
def volterra_flags(draw) -> list[str]:
    """--h, --w, --kappa4 and --t-max, each mostly in its working range."""
    t_max = draw(mostly(st.floats(1e-3, 1e3)))
    step = mostly(st.integers(1, 48).map(lambda k: t_max / k))
    steps = draw(st.lists(step, min_size=1, max_size=3, unique=True))
    # a finer grid only costs time: the point cap has its own test
    assume(all(not (math.isfinite(t_max / h) and 200 < t_max / h < 2**17) for h in steps if h > 0))
    w = draw(mostly(st.floats(1e-3, 50.0)))
    kappa4 = draw(mostly(st.floats(-10.0, 10.0)))
    return [f"--h={','.join(repr(h) for h in steps)}", f"--w={w!r}", f"--kappa4={kappa4!r}",
            f"--t-max={t_max!r}"]


@settings(derandomize=True, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(volterra_flags())
def test_volterra_flags_fuzz(flags):
    """Any --h, --w, --kappa4 and --t-max: exit 0 with finite residuals and quiet stderr, or
    exit 2 or 3 with one JSON line naming the field; only order_estimate may read nan."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("always")  # a warning prints to the captured stderr
        code = cli.run_cli(["volterra", *flags, "--out", tmp])
        if code == 0:
            with (Path(tmp) / "volterra_residuals.csv").open() as fh:
                rows = list(csv.DictReader(fh))
            manifest = (Path(tmp) / "manifest.json").read_text()
    assert code in (0, 2, 3)
    if code == 0:
        assert err.getvalue() == ""
        assert all(math.isfinite(float(r["residual"])) for r in rows)
        assert all(not math.isinf(float(r["order_estimate"])) for r in rows)
        assert "NaN" not in manifest and "Infinity" not in manifest
    else:
        line, = err.getvalue().splitlines()
        assert json.loads(line)["field"]


def log_uniform(low: float, high: float):
    """Floats whose decimal exponent is uniform on [low, high]."""
    return st.floats(low, high).map(lambda e: 10.0**e)


def coefficient():
    """0, or a magnitude from 1e-300 to 1e300 of either sign."""
    return st.one_of(st.just(0.0), st.builds(lambda sign, m: sign * m, st.sampled_from([-1.0, 1.0]),
                                             log_uniform(-300.0, 300.0)))


@st.composite
def predict_configs(draw) -> dict:
    """A predict config of any entry kind and convention (goe with Gaussian entries, which it
    requires), w from 1e-30 to 1e30, and any kind of phi with coefficients (or table values)
    from 0 to 1e300 in magnitude, of either sign."""
    kind = draw(st.sampled_from(en.KINDS))
    w = draw(st.one_of(st.just(1.0), log_uniform(-30.0, 30.0)))
    law = {"kind": kind, "w": w}
    if kind == "two_point":
        law["params"] = {"atoms": [-0.5 * w, 2.0 * w], "probs": [0.8, 0.2]}
    elif kind == "discrete_custom":
        law["params"] = {"atoms": [-1.5 * w, 0.0, 1.5 * w], "probs": [2 / 9, 5 / 9, 2 / 9]}
    convention = draw(st.sampled_from(en.CONVENTIONS if kind == "gaussian" else ("paper_symmetric",
                                                                              "general_diagonal")))
    spec = {"entry_dist": law, "convention": convention}
    if convention == "general_diagonal":
        spec["w2"] = draw(st.one_of(st.just(1.0), log_uniform(-3.0, 3.0)))
    phi_kind = draw(st.sampled_from(["polynomial", "gaussian_damped_polynomial", "tabulated"]))
    if phi_kind == "tabulated":
        points = draw(st.integers(2, 9))
        half_width = 2.0 * w * draw(st.sampled_from([1.0, 1.5, 4.0]))
        phi = {"kind": phi_kind, "grid": [half_width * (2.0 * i / (points - 1) - 1.0) for i in range(points)],
               "values": draw(st.lists(coefficient(), min_size=points, max_size=points))}
    else:
        phi = {"kind": phi_kind, "coefficients": draw(st.lists(coefficient(), min_size=1, max_size=6))}
        if phi_kind == "gaussian_damped_polynomial":
            phi["envelope_width"] = w * draw(st.one_of(st.just(1.0), log_uniform(-3.0, 3.0)))
    return minimal_config(spec=spec, phi=phi, replicas=100, n_list=[16])


LIMIT_TERMS = ("v_goe", "kappa4_term", "diag_term", "gaussian_variance", "v_w", "xstar_slope")


@settings(derandomize=True, max_examples=600, deadline=None)
@given(predict_configs())
def test_predict_config_fuzz(cfg):
    """Any predict config: exit 0 with quiet stderr and finite limit terms, none of them -0.0,
    or exit 2 with one JSON line naming the field."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("always")  # a warning prints to the captured stderr
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(cfg))
        code = cli.run_cli(["predict", "--config", str(config), "--out", str(Path(tmp) / "out")])
        text = (Path(tmp) / "out" / "prediction.json").read_text() if code == 0 else None
    assert code in (0, 2)
    if code == 0:
        assert err.getvalue() == ""
        assert "NaN" not in text and "Infinity" not in text
        pred = json.loads(text)
        terms = {k: pred[k] for k in LIMIT_TERMS}
        assert all(math.isfinite(v) and not (v == 0.0 and math.copysign(1.0, v) < 0) for v in terms.values()), terms
    else:
        line, = err.getvalue().splitlines()
        assert json.loads(line)["field"]


@pytest.mark.parametrize("command", ["predict", "simulate", "lemma"])
@pytest.mark.parametrize("kind,w", [
    pytest.param(kind, w, id=kind if w > 1 else f"{kind}-w1e-200")
    for w in (1e200, 1e-200) for kind in ("rademacher", "gaussian", "uniform")
])
@pytest.mark.filterwarnings("error")  # no numpy RuntimeWarning may precede the JSON error
def test_exit_code_entry_moments_overflow(tmp_path, capsys, command, kind, w):
    """A finite scale whose eighth moment overflows, or whose w^8 underflows (the limit
    laws divide by it), is a bad spec, not a crash."""
    cfg = minimal_config(spec={"entry_dist": {"kind": kind, "w": w}}, n_list=[16, 32, 64, 128],
                         replicas=100)
    code = cli.run_cli([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "x")])
    assert code == 2
    payload = error_payload(capsys)
    assert (payload["error"], payload["field"]) == ("ConfigError", "config.spec")
    assert ("overflow" if w > 1 else "underflow") in payload["message"]
    assert not (tmp_path / "x").exists()


@pytest.mark.filterwarnings("error")  # an underflowing k2^2 must not warn
def test_simulate_tiny_scale_keeps_kurtosis_finite(tmp_path, capsys):
    cfg = minimal_config(spec={"entry_dist": {"kind": "rademacher", "w": 1e-30}},
                         phi={"kind": "polynomial", "coefficients": [0, 0, 0, 1]},
                         n_list=[64], replicas=100)
    code = cli.run_cli(["simulate", "--config", str(write_config(tmp_path, cfg)),
                        "--out", str(tmp_path / "s")])
    assert code == 0
    assert capsys.readouterr().err == ""
    per_n = json.loads((tmp_path / "s" / "result.json").read_text())["per_n"]
    assert all(math.isfinite(v) for v in per_n[0]["excess_kurtosis"])


@pytest.mark.parametrize("c", [1e-45, 1e-100, 1e60])
@pytest.mark.filterwarnings("error")
def test_simulate_scaled_phi_writes_finite_statistics(tmp_path, capsys, c):
    # the k-statistics and their jackknife se are formed in one power-of-two scale,
    # so neither an underflowing se (an infinite z-score) nor an overflowing square stops the run
    cfg = minimal_config(spec={"entry_dist": {"kind": "rademacher", "w": 1.0}},
                         phi={"kind": "polynomial", "coefficients": [0, 0, 0, c]},
                         n_list=[64], replicas=500, root_seed=7)
    code = cli.run_cli(["simulate", "--config", str(write_config(tmp_path, cfg)),
                        "--out", str(tmp_path / "s")])
    assert code == 0
    assert capsys.readouterr().err == ""
    text = (tmp_path / "s" / "result.json").read_text()
    assert "Infinity" not in text and "NaN" not in text
    z = json.loads(text)["comparison"]["per_n"][0]
    assert abs(z["z_variance"]) < 3.0


def test_simulate_covariance_ignores_a_constant_term(tmp_path):
    """c + x^3 against c + x^4: the covariance is formed on the centred power-of-two units of
    the two samples, so c moves it by rounding alone.  The raw sums read [82.13, 2724.6] at
    c = 1e8, with z_covariance 0.030, against [-0.18946, 0.44083] and -0.430 at c = 0."""
    def covariance(c: float) -> tuple[list[float], float]:
        cfg = minimal_config(spec={"entry_dist": {"kind": "rademacher", "w": 1.0}},
                             phi={"kind": "polynomial", "coefficients": [c, 0, 0, 1]},
                             phi2={"kind": "polynomial", "coefficients": [c, 0, 0, 0, 1]},
                             n_list=[64], replicas=400, root_seed=5)
        out = tmp_path / f"c{c:g}"
        assert cli.run_cli(["simulate", "--config", str(write_config(tmp_path, cfg)), "--out", str(out),
                            "--threads", "1"]) == 0
        result = json.loads((out / "result.json").read_text())
        return result["per_n"][0]["covariance"], result["comparison"]["per_n"][0]["z_covariance"]

    (cov, ci), z = covariance(0.0)
    assert cov == pytest.approx(-0.18946, abs=1e-5) and ci == pytest.approx(0.44083, abs=1e-5)
    for c in (1e4, 1e8):
        (cov_c, _), z_c = covariance(c)
        assert abs(cov_c - cov) <= 1e-6 * ci and abs(z_c - z) <= 1e-6, c


def assert_finite_or_config_error(tmp_path, capsys, command, cfg, field):
    """Exit 0 with finite primary output and empty stderr, or exit 2 with a single-line
    ConfigError naming field and no output directory."""
    out = tmp_path / "x"
    code = cli.run_cli([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
    if code == 2:
        payload = error_payload(capsys)
        assert (payload["error"], payload["field"]) == ("ConfigError", field)
        assert not out.exists()
        return
    assert code == 0
    assert capsys.readouterr().err == ""

    def reject(token):
        raise AssertionError(f"{token} in the {command} output")

    target = "prediction.json" if command == "predict" else "result.json"
    json.loads((out / target).read_text(), parse_constant=reject)


@pytest.mark.parametrize("command", ["predict", "simulate"])
@pytest.mark.parametrize("x", [1e200, 1.7e308])
def test_huge_x_grid_value_is_finite_or_config_error(tmp_path, capsys, command, x):
    """x^2 and x* = s x overflow here; the CF must not come out as NaN with warnings on stderr."""
    cfg = minimal_config(spec={"entry_dist": {"kind": "rademacher", "w": 1.0}},
                         phi={"kind": "polynomial", "coefficients": [0, 0, 0, 1]},
                         n_list=[64], replicas=100, x_grid=[0.5, x])
    assert_finite_or_config_error(tmp_path, capsys, command, cfg, "config.x_grid")


def test_overflowing_x_grid_is_rejected_before_sampling(tmp_path, capsys, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("a matrix was drawn before the x_grid check")

    monkeypatch.setattr(harness, "sample_matrix", no_draw)
    cfg = minimal_config(spec={"entry_dist": {"kind": "rademacher", "w": 1.0}},
                         phi={"kind": "polynomial", "coefficients": [0, 0, 0, 1]},
                         n_list=[64], replicas=100, x_grid=[0.5, 1e200])
    out = tmp_path / "x"
    code = cli.run_cli(["simulate", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
    assert code == 2
    payload = error_payload(capsys)
    assert (payload["error"], payload["field"]) == ("ConfigError", "config.x_grid")
    assert not out.exists()


@pytest.mark.parametrize("t,expected", [(1e300, 0), (1.7e308, 2)])
@pytest.mark.filterwarnings("error")  # no numpy RuntimeWarning may reach stderr
def test_lemma_huge_t_is_finite_or_config_error(tmp_path, capsys, monkeypatch, t, expected):
    """v(t) at t = 1e300 is finite.  At 1.7e308, 2 w t overflows; the limits are evaluated
    before the first replica, so no matrix is drawn and no output directory is made."""
    if expected == 2:
        def no_draw(*args, **kwargs):
            raise AssertionError("a matrix was drawn before the t_grid check")

        monkeypatch.setattr(harness, "sample_matrix", no_draw)
    cfg = minimal_config(n_list=[16, 32, 64, 128], replicas=100, t_grid=[t])
    out = tmp_path / "x"
    code = cli.run_cli(["lemma", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
    assert code == expected
    if expected == 2:
        payload = error_payload(capsys)
        assert (payload["error"], payload["field"]) == ("ConfigError", "config.t_grid")
        assert not out.exists()
        return
    assert capsys.readouterr().err == ""
    with (out / "lemma_decay.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert all(math.isfinite(float(v)) for r in rows for k, v in r.items() if k != "statistic")


def test_lemma_limits_past_the_hankel_seam_hold_j1(tmp_path):
    """t_grid [1, 200] at w = 1 puts t = 200 past w t = 90, on v_of_t's Hankel branch: the limit
    columns (v, v, v^2, 0 and v^3 for U_jj, v_n, v_n_pair, v_n1 and v_n2) hold scipy's J1 to 1e-14."""
    from scipy.special import j1

    cfg = minimal_config(n_list=[16, 32, 64, 128], replicas=100, t_grid=[1.0, 200.0])
    out = tmp_path / "l"
    assert cli.run_cli(["lemma", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
    with (out / "lemma_decay.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    powers = {"U_jj": 1, "v_n": 1, "v_n_pair": 2, "v_n1": None, "v_n2": 3}
    assert {float(r["t"]) for r in rows} == {1.0, 200.0} and {r["statistic"] for r in rows} == set(powers)
    for r in rows:
        t, power = float(r["t"]), powers[r["statistic"]]
        limit = 0.0 if power is None else (j1(2.0 * t) / t) ** power
        assert abs(float(r["limit_re"]) - limit) <= 1e-14 and float(r["limit_im"]) == 0.0


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.filterwarnings("error")  # no numpy RuntimeWarning may reach stderr
def test_lemma_overflowing_replica_statistics_are_config_error(tmp_path, capsys, threads):
    """At t = 8.8e307 the limits are finite, but lambda t overflows once an eigenvalue
    exceeds 2.  Replica threads keep their own errstate, so both thread counts are run."""
    cfg = minimal_config(n_list=[16, 32, 64, 128], replicas=100, t_grid=[8.8e307])
    out = tmp_path / "x"
    code = cli.run_cli(["lemma", "--config", str(write_config(tmp_path, cfg)), "--out", str(out),
                        "--threads", str(threads)])
    assert code == 2
    payload = error_payload(capsys)
    assert (payload["error"], payload["field"]) == ("ConfigError", "config.t_grid")
    assert not out.exists()


@pytest.mark.parametrize("command", ["predict", "simulate"])
@pytest.mark.parametrize("where", ["phi", "phi2"])
@pytest.mark.parametrize("magnitude", [1e100, 1e200, 1e300])
def test_huge_phi_coefficient_is_finite_or_config_error(tmp_path, capsys, command, where, magnitude):
    """The limit variance, the sample k-statistics or the jackknife squares overflow here."""
    cfg = minimal_config(spec={"entry_dist": {"kind": "rademacher", "w": 1.0}},
                         phi={"kind": "polynomial", "coefficients": [0, 0, 0, 1]},
                         n_list=[64], replicas=100)
    cfg[where] = {"kind": "polynomial", "coefficients": [0, magnitude]}
    assert_finite_or_config_error(tmp_path, capsys, command, cfg, f"config.{where}")


@pytest.mark.parametrize("command,where", [("predict", "phi"), ("simulate", "phi"), ("simulate", "phi2")])
@pytest.mark.filterwarnings("error")  # no numpy RuntimeWarning may precede the JSON error
def test_overflowing_limit_term_is_config_error(tmp_path, capsys, command, where):
    """At w2 = 1e300 the diagonal term (w2 - 2) w^-2 I1(phi1) I1(phi2) is a Python float
    product that overflows to inf without raising: of the variance of a tabulated phi with
    I1 = 5e4, or of the cross covariance of x with phi2 = 1e9 x.  Either way the config is
    rejected on the phi whose limit law left the float range, before any replica."""
    cfg = minimal_config(spec={"entry_dist": {"kind": "uniform", "w": 1.0}, "convention": "general_diagonal",
                               "w2": 1e300},
                         n_list=[16], replicas=100, x_grid=[0.25])
    if where == "phi":
        cfg["phi"] = {"kind": "tabulated", "grid": [-1e300, -2.0, 2.0, 1e300],
                      "values": [-63245.6, -63245.6, 63245.6, 63245.6]}
    else:
        cfg.update(phi={"kind": "polynomial", "coefficients": [0, 1]},
                   phi2={"kind": "polynomial", "coefficients": [0, 1e9]})
    out = tmp_path / "x"
    code = cli.run_cli([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
    assert code == 2
    payload = error_payload(capsys)
    assert (payload["error"], payload["field"]) == ("ConfigError", f"config.{where}")
    assert not out.exists()


BELOW_RESOLUTION = [  # (entry law, phi) whose node values are all equal though phi is not constant
    ({"kind": "uniform", "w": 0.5}, {"kind": "polynomial", "coefficients": [-1e100, -1.0]}),
    ({"kind": "uniform", "w": 1e-30}, {"kind": "polynomial", "coefficients": [1e154, -1e100, 0, 0, -0.5]}),
    ({"kind": "rademacher", "w": 1.0}, {"kind": "gaussian_damped_polynomial", "coefficients": [1.0],
                                        "envelope_width": 1e100}),
    # a hat of half-width 0.01 about 0, between the two nodes nearest 0 (+-2 sin(pi / 258))
    ({"kind": "rademacher", "w": 1.0}, {"kind": "tabulated", "grid": [-3.0, -0.01, 0.0, 0.01, 3.0],
                                        "values": [0.0, 0.0, 1.0, 0.0, 0.0]}),
]


@pytest.mark.parametrize("command,where", [("predict", "phi"), ("simulate", "phi"), ("simulate", "phi2")])
@pytest.mark.parametrize("law,phi", BELOW_RESOLUTION, ids=["offset", "tiny-w", "flat-envelope", "hat"])
@pytest.mark.filterwarnings("error")
def test_phi_below_the_float_resolution_is_config_error(tmp_path, capsys, command, where, law, phi):
    """A phi whose values at the semicircle rule's nodes are all equal, though its data are not
    constant on [-2w, 2w], exits 2 naming it: its limit law would read v_w = 0.0 (or, before the
    sine transform, the rounding of its constant, 4.0e167 for -1e100 - x)."""
    cfg = minimal_config(spec={"entry_dist": law}, n_list=[16], replicas=100)
    cfg.update({where: phi} if where == "phi" else {"phi": {"kind": "polynomial", "coefficients": [0, 1]},
                                                    "phi2": phi})
    out = tmp_path / "x"
    assert cli.run_cli([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
    payload = error_payload(capsys)
    assert (payload["error"], payload["field"]) == ("ConfigError", f"config.{where}")
    assert "below the float resolution of its values" in payload["message"]
    assert not out.exists()


@pytest.mark.parametrize("phi", [
    {"kind": "polynomial", "coefficients": [1e307]},
    {"kind": "polynomial", "coefficients": [-1e307, 0.0, 0.0]},
    {"kind": "gaussian_damped_polynomial", "coefficients": [0.0], "envelope_width": 1e-3},
    {"kind": "tabulated", "grid": [-3.0, 3.0], "values": [1e307, 1e307]},
])
def test_constant_phi_predicts_zero_variance(tmp_path, phi):
    """A constant phi, however large, has v_w = 0.0 and a CF of 1: its node values are all equal
    and so are its data, and the constant enters a_0 alone."""
    cfg = minimal_config(spec={"entry_dist": {"kind": "rademacher", "w": 1.0}}, phi=phi)
    out = tmp_path / "p"
    assert cli.run_cli(["predict", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
    pred = json.loads((out / "prediction.json").read_text())
    assert [pred[k] for k in LIMIT_TERMS] == [0.0] * len(LIMIT_TERMS)
    assert all(row[1:] == [1.0, 0.0] for row in pred["cf"])


@pytest.mark.parametrize("threads", [1, 2])
def test_simulate_replica_overflow_prints_one_json_line(tmp_path, threads):
    """Each simulate replica evaluates phi under the config.phi float-range guard, set in the
    replica's own thread: here x^4 overflows on the sampled spectrum (diagonal entries near
    1e100), and stderr holds the one JSON error line, with no numpy RuntimeWarning before it."""
    atoms = [-math.sqrt(2.0), 0.0, math.sqrt(2.0)]
    cfg = minimal_config(spec={"entry_dist": {"kind": "discrete_custom", "w": 1.0,
                                              "params": {"atoms": atoms, "probs": [0.25, 0.5, 0.25]}},
                               "convention": "general_diagonal", "w2": 1e200},
                         phi={"kind": "gaussian_damped_polynomial", "coefficients": [0, 1, 0, 0, 1],
                              "envelope_width": 1.0},
                         n_list=[16, 32], replicas=100, root_seed=3)
    env = package_env()
    out = tmp_path / "x"
    proc = subprocess.run([sys.executable, "-m", "wignerlab.cli", "simulate", "--config",
                           str(write_config(tmp_path, cfg)), "--threads", str(threads), "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    payload = json.loads(lines[0])
    assert (payload["error"], payload["field"]) == ("ConfigError", "config.phi")
    assert not out.exists()


@pytest.mark.parametrize("command", ["predict", "simulate"])
@pytest.mark.parametrize("width", [1e-160, 1e-300])
@pytest.mark.filterwarnings("error")  # no numpy RuntimeWarning may precede the JSON error
def test_tiny_envelope_width_is_config_error(tmp_path, capsys, command, width):
    """The envelope exp(-x^2 / (2 width^2)) overflows at 1e-160; at 1e-300 width^2 is 0
    and it divides by zero.  Either way the config is rejected on its phi."""
    cfg = minimal_config(spec={"entry_dist": {"kind": "rademacher", "w": 1.0}},
                         phi={"kind": "gaussian_damped_polynomial", "coefficients": [0, 1],
                              "envelope_width": width},
                         n_list=[64], replicas=100)
    out = tmp_path / "x"
    code = cli.run_cli([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
    assert code == 2
    payload = error_payload(capsys)
    assert (payload["error"], payload["field"]) == ("ConfigError", "config.phi")
    assert not out.exists()


@pytest.mark.parametrize("command", ["predict", "simulate", "lemma"])
@pytest.mark.parametrize("j_explicit", [None, 16])
def test_exit_code_explicit_j_policy_without_valid_index(tmp_path, capsys, command, j_explicit):
    """j_policy explicit needs a j_explicit in range at every n, under every subcommand."""
    cfg = minimal_config(n_list=[16, 32, 64, 128], replicas=100, j_policy="explicit", j_explicit=j_explicit)
    code = cli.run_cli([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "x")])
    assert code == 2
    payload = error_payload(capsys)
    assert payload["error"] == "ConfigError" and "j_explicit" in payload["message"]
    assert payload["field"] == "config.j_explicit"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["predict", "simulate", "lemma"])
def test_exit_code_j_explicit_without_explicit_policy(tmp_path, capsys, command):
    """j_explicit is read only under j_policy explicit: beside another policy it exits 2,
    and a null j_explicit is no setting at all."""
    cfg = minimal_config(n_list=[16, 32, 64, 128], replicas=100, j_policy="first", j_explicit=9)
    code = cli.run_cli([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "x")])
    assert code == 2
    payload = error_payload(capsys)
    assert (payload["error"], payload["field"]) == ("ConfigError", "config.j_explicit")
    assert "j_policy 'first'" in payload["message"]
    assert not (tmp_path / "x").exists()
    cfg["j_explicit"] = None
    assert cli.config_from_dict(cfg).j_explicit is None


@pytest.mark.parametrize("command", ["predict", "simulate", "lemma"])
@pytest.mark.parametrize("kind", ["gaussian", "rademacher", "uniform"])
def test_exit_code_params_on_a_kind_that_reads_none(tmp_path, capsys, command, kind):
    """Only the discrete kinds read entry_dist.params; any other kind given atoms exits 2."""
    cfg = minimal_config(spec={"entry_dist": {"kind": kind, "w": 1.0,
                                              "params": {"atoms": [-5.0, 5.0], "probs": [0.5, 0.5]}}},
                         n_list=[16, 32, 64, 128], replicas=100)
    code = cli.run_cli([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "x")])
    assert code == 2
    payload = error_payload(capsys)
    assert (payload["error"], payload["field"]) == ("ConfigError", "config.spec")
    assert f"{kind} takes no params" in payload["message"]
    assert not (tmp_path / "x").exists()


def test_cli_import_leaves_scipy_integrate_out():
    """The quadrature oracles stay with the tests: the shipped package never loads scipy.integrate."""
    env = package_env()
    probe = "import sys, wignerlab.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True, capture_output=True,
                         text=True, timeout=120).stdout
    assert out.strip() == "[]"


SCIPY_PROBE = """
import json, os, sys
import wignerlab.cli as cli
code = cli.run_cli(sys.argv[1:]) if len(sys.argv) > 1 else 0
maps = open("/proc/self/maps").read().splitlines() if os.path.exists("/proc/self/maps") else None
libs = None if maps is None else sorted({line.split()[-1] for line in maps if "scipy.libs" in line})
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("scipy")), libs]))
"""


@pytest.mark.parametrize("command", [None, "predict", "simulate", "simulate-500", "lemma", "volterra"])
def test_cli_start_up_loads_no_scipy(tmp_path, command):
    """No subcommand loads a scipy module: not importing wignerlab.cli, predict, simulate below
    and at 500 replicas (the KS test), lemma (v(t)) or volterra (v(t) and the FFT convolutions).
    Nor does one map scipy's bundled OpenBLAS (checked where /proc/self/maps exists): the BLAS
    pin reads numpy's copy only."""
    env = package_env()
    out_dir = str(tmp_path / "o")
    argv = {None: [], "volterra": ["volterra", "--h", "0.02,0.01", "--out", out_dir]}.get(command)
    if argv is None:
        name, _, replicas = command.partition("-")
        # lemma needs four sizes over an 8x range
        cfg = minimal_config(n_list=[16, 32, 64, 128] if name == "lemma" else [64],
                             replicas=int(replicas or 100))
        argv = [name, "--config", str(write_config(tmp_path, cfg)), "--out", out_dir]
    out = subprocess.run([sys.executable, "-c", SCIPY_PROBE, *argv], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    code, modules, libs = json.loads(out.splitlines()[-1])
    assert [code, modules] == [0, []]
    if libs is None:
        pytest.skip("no /proc/self/maps to read the mapped libraries from")
    assert libs == []


@pytest.mark.parametrize("command", ["predict", "simulate", "lemma"])
def test_exit_code_tabulated_phi_short_of_support(tmp_path, capsys, command):
    """A table short of the semicircle support is a bad config value, named before any output."""
    # the grid stops at +-1, inside the semicircle support [-2, 2] at w = 1
    short = {"kind": "tabulated", "grid": [-1.0, 0.0, 1.0], "values": [1.0, 0.0, 1.0]}
    for field, overrides in (("config.phi", {"phi": short}), ("config.phi2", {"phi2": short})):
        cfg_path = write_config(tmp_path, minimal_config(n_list=[64], replicas=100, **overrides))
        out = tmp_path / field
        code = cli.run_cli([command, "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        payload = error_payload(capsys)
        assert (payload["error"], payload["field"]) == ("ConfigError", field)
        assert payload["message"].startswith(f"{field}: tabulated grid [-1.0, 1.0] does not cover")
        assert not out.exists()


def test_exit_code_unknown_subcommand(capsys):
    assert cli.run_cli(["frobnicate"]) == 2
    assert cli.run_cli([]) == 2


def test_exit_code_unreadable_result(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert cli.run_cli(["report", str(missing)]) == 2
    payload = error_payload(capsys)
    assert payload["error"] == "ConfigError" and str(missing) in payload["message"]


@pytest.mark.parametrize("content", [None, "{not json", "\xff", '{"per_n": []}', "3",
                                     '{"per_n": [{"n": 64}], "prediction": {"v_w": 1, "v_goe": 1, '
                                     '"kappa4_term": 0, "diag_term": 0, "xstar_slope": 0}}',
                                     '{"a": 1}', "[1, 2]", '"v_w"'])
def test_exit_code_bad_report_input(tmp_path, capsys, content):
    """A directory, non-JSON text, or JSON that is not a result: exit 2 naming the path."""
    path = tmp_path / "result.json"
    if content is None:
        path.mkdir()
    else:
        path.write_text(content, encoding="latin-1")
    assert cli.run_cli(["report", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # nothing printed before the error
    assert "\n" not in captured.err.strip()
    payload = json.loads(captured.err)
    assert payload["error"] == "ConfigError" and str(path) in payload["message"]


def test_exit_code_numeric_failure(tmp_path, capsys, monkeypatch):
    from wignerlab.errors import NumericFailureError

    def explode(cfg, threads=None):
        raise NumericFailureError("root seed 1, replica 3, order 64: eigendecomposition did not converge")

    monkeypatch.setattr(cli, "run_entry_experiment", explode)
    cfg_path = write_config(tmp_path, minimal_config())
    code = cli.run_cli(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert code == 3
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "NumericFailureError"
    assert payload["message"] == "root seed 1, replica 3, order 64: eigendecomposition did not converge"


def test_simulate_eigh_failure_exits_3_naming_its_sample(tmp_path, capsys, monkeypatch):
    """A LAPACK failure on the eigh route reaches the payload with the root seed and the replica."""
    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    grid = [-3.0, 0.0, 3.0]
    cfg = minimal_config(phi={"kind": "tabulated", "grid": grid, "values": [1.0, 0.0, 1.0]},
                         n_list=[64], replicas=100, root_seed=4242)
    code = cli.run_cli(["simulate", "--config", str(write_config(tmp_path, cfg)), "--threads", "1",
                        "--out", str(tmp_path / "x")])
    assert code == 3
    payload = error_payload(capsys)
    assert payload["error"] == "NumericFailureError" and "field" not in payload
    assert "root seed 4242, replica 0, order 64" in payload["message"]
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command,phi,order", [
    ("lemma", {"kind": "polynomial", "coefficients": [0, 1]}, 16),  # each replica's full eigh, at the first n
    # the Jacobi matrix T_3: so wide an envelope gives K0 = 5, and the walk reads from T_(K0 - 2)
    ("simulate", {"kind": "gaussian_damped_polynomial", "coefficients": [1.0], "envelope_width": 20.0}, 3),
])
def test_eigh_failure_exits_3_naming_its_sample_on_every_route(tmp_path, capsys, monkeypatch, command, phi,
                                                               order):
    """eigh names the order of the array it failed on, and the replica phase of simulate and
    lemma adds the root seed and the replica."""
    original = np.linalg.eigh

    def fails_at_order(a):
        if len(a) == order:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return original(a)

    monkeypatch.setattr(np.linalg, "eigh", fails_at_order)
    cfg = minimal_config(phi=phi, n_list=[16, 32, 64, 128], replicas=100, root_seed=4242)
    code = cli.run_cli([command, "--config", str(write_config(tmp_path, cfg)), "--threads", "1",
                        "--out", str(tmp_path / "x")])
    assert code == 3
    payload = error_payload(capsys)
    assert payload["error"] == "NumericFailureError" and "field" not in payload
    assert f"root seed 4242, replica 0, order {order}" in payload["message"]
    assert not (tmp_path / "x").exists()

