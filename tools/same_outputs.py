"""Check that another checkout of wignerlab writes the same outputs as this one.

    python3 tools/same_outputs.py OTHER_CHECKOUT

Builds the benchmark's four workloads at seed 301 through
perfbench/workloads.make (read only), and runs each one, plus `predict` on the
two simulate configs, `volterra` at its defaults, `simulate --raw` with a
tabulated phi (TABULATED_CONFIG), and `simulate --raw` and `predict` with every
limit term nonzero (MIXED_PARITY_CONFIG), once under this checkout's src/ and
once under OTHER_CHECKOUT/src.  Every primary output must match byte for byte,
and so must the manifest.json fields that identify the inputs (IDENTITY_FIELDS).
The manifest is run metadata: any other field that differs is printed as a
note, except the run's own measurements (MEASUREMENTS), which differ on every
run.  Prints the notes, then `identical` and exits 0, or prints each
difference and exits 1.  Takes about a minute on two cores, most of it in the
lemma workload.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 301
THREADS = 2
IDENTITY_FIELDS = ("config_hash", "root_seed", "threads", "outputs")
MEASUREMENTS = ("wall_time_s", "cpu_user_s", "cpu_sys_s", "minor_faults")
# a tabulated phi takes the eigh route of harness.phi_entries, which no benchmark workload runs
TABULATED_CONFIG = {
    "spec": {"entry_dist": {"kind": "uniform", "w": 1.0}},
    "phi": {"kind": "tabulated", "grid": [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0],
            "values": [0.9, -0.3, 0.4, 0.0, 0.6, 0.1, -0.8]},
    "n_list": [64, 128],
    "replicas": 200,
    "root_seed": SEED,
    "j_policy": "middle",
}
# phi and phi2 are neither odd nor even, and w2 != 2: no term of the variance or of the
# cross covariance is a parity zero, so every semicircle integral of the limit laws is taken
MIXED_PARITY_CONFIG = {
    "spec": {"entry_dist": {"kind": "uniform", "w": 1.1}, "convention": "general_diagonal", "w2": 1.5},
    "phi": {"kind": "polynomial", "coefficients": [0.0, 1.0, 0.0, 0.0, 1.0]},
    "phi2": {"kind": "gaussian_damped_polynomial", "coefficients": [0.0, 0.0, 1.0, 1.0],
             "envelope_width": 1.3},
    "n_list": [64, 128],
    "replicas": 200,
    "root_seed": SEED,
    "j_policy": "middle",
}


def runs(work: Path) -> list[tuple[str, list[str], list[str]]]:
    """(label, CLI arguments without --out, primary outputs) of every run to compare."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    out = []
    for name in workloads.NAMES:
        wl = workloads.make(name, SEED, work, THREADS)
        out.append((name, wl.cli, wl.outputs))
        if wl.cli[0] == "simulate":
            out.append((f"{name} predict", ["predict", *wl.cli[1:3]], ["prediction.json"]))
    # the benchmark's steps make grids of several column blocks; the defaults' coarsest is one block
    out.append(("volterra defaults", ["volterra"], ["volterra_residuals.csv"]))
    tabulated, mixed = work / "simulate-tabulated.json", work / "mixed-parity.json"
    tabulated.write_text(json.dumps(TABULATED_CONFIG))
    mixed.write_text(json.dumps(MIXED_PARITY_CONFIG))
    raw = ["--raw", "--threads", str(THREADS)]
    out.append(("simulate tabulated", ["simulate", "--config", str(tabulated), *raw], ["result.json", "replicas.csv"]))
    out.append(("simulate mixed parity", ["simulate", "--config", str(mixed), *raw], ["result.json", "replicas.csv"]))
    out.append(("predict mixed parity", ["predict", "--config", str(mixed)], ["prediction.json"]))
    return out


def run_cli(checkout: Path, args: list[str], out_dir: Path) -> str | None:
    """Run the CLI of one checkout; the error text when it fails."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, "-m", "wignerlab.cli", *args, "--out", str(out_dir)],
                          env=env, capture_output=True, text=True)
    return None if proc.returncode == 0 else f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"


def differences(ours: Path, theirs: Path, outputs: list[str]) -> tuple[list[str], list[str]]:
    """(differences, notes): differing primary outputs and identity fields, and other manifest fields."""
    found = [name for name in outputs if (ours / name).read_bytes() != (theirs / name).read_bytes()]
    manifests = [json.loads((d / "manifest.json").read_text()) for d in (ours, theirs)]
    keys = sorted(k for k in manifests[0].keys() | manifests[1].keys()
                  if k not in MEASUREMENTS and manifests[0].get(k) != manifests[1].get(k))
    identity = [k for k in keys if k in IDENTITY_FIELDS]
    other = [k for k in keys if k not in IDENTITY_FIELDS]
    if identity:
        found.append(f"manifest.json fields {identity}")
    return found, [f"manifest.json fields {other}"] if other else []


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "wignerlab").is_dir():
        print("usage: python3 tools/same_outputs.py OTHER_CHECKOUT (a directory holding src/wignerlab)",
              file=sys.stderr)
        return 2
    other = Path(argv[0]).resolve()
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for i, (label, args, outputs) in enumerate(runs(work)):
            dirs = [work / f"run{i}-ours", work / f"run{i}-theirs"]
            errors = [run_cli(checkout, args, d) for checkout, d in zip((ROOT, other), dirs)]
            if any(errors):
                failures.append(f"{label}: {errors}")
                continue
            found, notes = differences(*dirs, outputs)
            failures += [f"{label}: {what} differ" for what in found]
            for what in notes:
                print(f"note: {label}: {what} differ (metadata)")
    print("\n".join(failures) if failures else "identical")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
