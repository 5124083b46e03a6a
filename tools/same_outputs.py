"""Check that another checkout of wignerlab writes the same outputs as this one.

    python3 tools/same_outputs.py OTHER_CHECKOUT [--rel-tol X]

Builds the benchmark's four workloads at seed 301 through
perfbench/workloads.make (read only), and runs each one, plus `predict` on the
two simulate configs, `volterra` at its defaults, `simulate --raw` with a
tabulated phi (TABULATED_CONFIG), `simulate --raw` with every limit term
nonzero (MIXED_PARITY_CONFIG) and with a large constant term in its phi
(OFFSET_CONFIG), and `predict` on the phis of both configs under one entry
law of every kind (ENTRY_LAWS), once under this checkout's src/ and
once under OTHER_CHECKOUT/src.  Every primary output must match byte for byte,
and so must the manifest.json fields that identify the inputs (IDENTITY_FIELDS).
The manifest is run metadata: any other field that differs is printed as a
note, except the run's own measurements (MEASUREMENTS), which differ on every
run.  Prints the notes, then `identical` and exits 0, or prints each
difference and exits 1.  Takes about a minute on two cores, most of it in the
lemma workload.

With --rel-tol X, a primary output whose bytes differ is parsed as JSON or
CSV instead.  Each numeric field (a JSON key path, with the positions in a
list of records or rows dropped, or a CSV column) is reported with its largest
difference relative to the field's largest magnitude, and passes when that is
<= X.  Every other value must be equal, except samples_hash, a digest of the
compared y values, whose change is a note.  The run then prints `within X`.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
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
DIGESTS = ("samples_hash",)  # digests of compared values: with --rel-tol their change is a note
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
# cross covariance is a parity zero, so every semicircle integral of the limit laws is taken.
# Its 500 replicas are the fewest at which simulate runs the KS test (gaussian_limit_test).
MIXED_PARITY_CONFIG = {
    "spec": {"entry_dist": {"kind": "uniform", "w": 1.1}, "convention": "general_diagonal", "w2": 1.5},
    "phi": {"kind": "polynomial", "coefficients": [0.0, 1.0, 0.0, 0.0, 1.0]},
    "phi2": {"kind": "gaussian_damped_polynomial", "coefficients": [0.0, 0.0, 1.0, 1.0],
             "envelope_width": 1.3},
    "n_list": [64, 128],
    "replicas": 500,
    "root_seed": SEED,
    "j_policy": "middle",
}
# MIXED_PARITY_CONFIG with 1e6 added to the constant coefficient of its polynomial phi: the
# sample covariance and the KS test must read the spread of phi(M)_jj, not cancel the constant
OFFSET_CONFIG = {**MIXED_PARITY_CONFIG, "phi": {
    "kind": "polynomial",
    "coefficients": [MIXED_PARITY_CONFIG["phi"]["coefficients"][0] + 1e6,
                     *MIXED_PARITY_CONFIG["phi"]["coefficients"][1:]]}}

# one entry law of each kind in ensembles.KINDS at MIXED_PARITY_CONFIG's w; Gaussian entries take
# convention goe, the others MIXED_PARITY_CONFIG's general_diagonal w2 = 1.5.  Each kind's
# cumulants enter the limit law, so predict on the mixed-parity phis compares all of them, and
# predict on OFFSET_CONFIG's phis compares them where a large <phi> is centred out of a_k.
ENTRY_LAWS = (
    {"kind": "gaussian", "w": 1.1},
    {"kind": "rademacher", "w": 1.1},
    {"kind": "two_point", "w": 1.1, "params": {"atoms": [-0.55, 2.2], "probs": [0.8, 0.2]}},
    {"kind": "uniform", "w": 1.1},
    {"kind": "discrete_custom", "w": 1.1,
     "params": {"atoms": [-1.65, 0.0, 1.65], "probs": [2 / 9, 5 / 9, 2 / 9]}},
)


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
    offset = work / "offset.json"
    offset.write_text(json.dumps(OFFSET_CONFIG))
    raw = ["--raw", "--threads", str(THREADS)]
    out.append(("simulate tabulated", ["simulate", "--config", str(tabulated), *raw], ["result.json", "replicas.csv"]))
    out.append(("simulate mixed parity", ["simulate", "--config", str(mixed), *raw], ["result.json", "replicas.csv"]))
    out.append(("simulate offset", ["simulate", "--config", str(offset), *raw], ["result.json", "replicas.csv"]))
    for law in ENTRY_LAWS:
        spec = {"entry_dist": law, "convention": "goe"} if law["kind"] == "gaussian" else {
            **MIXED_PARITY_CONFIG["spec"], "entry_dist": law}
        for name, base in (("mixed parity", MIXED_PARITY_CONFIG), ("offset", OFFSET_CONFIG)):
            config = work / f"{name.replace(' ', '-')}-{law['kind']}.json"
            config.write_text(json.dumps({**base, "spec": spec}))
            out.append((f"predict {name} {law['kind']}", ["predict", "--config", str(config)], ["prediction.json"]))
    return out


def run_cli(checkout: Path, args: list[str], out_dir: Path) -> str | None:
    """Run the CLI of one checkout; the error text when it fails.  It writes no bytecode, which
    would let later runs of that checkout skip compiling and so read faster."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "wignerlab.cli", *args, "--out", str(out_dir)],
                          env=env, capture_output=True, text=True)
    return None if proc.returncode == 0 else f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"


def fields(name: str, data: bytes) -> dict[str, list]:
    """The leaf values of a JSON or CSV output, in order, grouped by field.

    A JSON field is the key path to a leaf; positions in a list of records or
    rows are dropped (per_n[].variance), positions in a list of numbers kept
    (k_stats.k3[0]).  A CSV field is a column, its cells read as floats where
    they parse.
    """
    out: dict[str, list] = {}
    if name.endswith(".csv"):
        for row in csv.DictReader(io.StringIO(data.decode())):
            for key, cell in row.items():
                try:
                    value = float(cell)
                except ValueError:
                    value = cell
                out.setdefault(key, []).append(value)
        return out

    def walk(value, path: str) -> None:
        if isinstance(value, dict):
            for key, item in value.items():
                walk(item, f"{path}.{key}" if path else key)
        elif isinstance(value, list) and any(isinstance(item, (dict, list)) for item in value):
            for item in value:
                walk(item, f"{path}[]")
        elif isinstance(value, list):
            for i, item in enumerate(value):
                walk(item, f"{path}[{i}]")
        else:
            out.setdefault(path, []).append(value)

    walk(json.loads(data), "")
    return out


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def field_differences(name: str, ours: bytes, theirs: bytes) -> tuple[dict[str, float], list[str]]:
    """({numeric field: largest relative difference}, [fields that differ otherwise]).

    A field's relative difference is max |a - b| over its values divided by
    its largest magnitude on either side (0 when every pair is equal; NaN
    equals NaN, and a NaN or infinity against another value is an infinite
    difference).  A field that is missing on one side, has another length, or
    differs in a non-numeric value is listed instead.
    """
    a, b = fields(name, ours), fields(name, theirs)
    relative: dict[str, float] = {}
    other = sorted(a.keys() ^ b.keys())
    for key in sorted(a.keys() & b.keys()):
        if len(a[key]) != len(b[key]):
            other.append(key)
            continue
        diff = scale = 0.0
        for x, y in zip(a[key], b[key]):
            if _number(x) and _number(y):
                if x != y and not (math.isnan(x) and math.isnan(y)):  # NaN or inf against a number: inf
                    diff = max(diff, abs(x - y) if math.isfinite(x - y) else math.inf)
                if math.isfinite(x) and math.isfinite(y):
                    scale = max(scale, abs(x), abs(y))
            elif x != y:
                other.append(key)
                break
        else:
            if any(_number(x) for x in a[key]):
                relative[key] = 0.0 if not diff else diff / scale if scale else math.inf
    return relative, other


def differences(ours: Path, theirs: Path, outputs: list[str],
                rel_tol: float | None = None) -> tuple[list[str], list[str]]:
    """(differences, notes): differing primary outputs and identity fields, and other manifest
    fields; with rel_tol, an output whose bytes differ is held to it field by field, and its
    per-field report is a note."""
    found, notes = [], []
    for name in outputs:
        mine, other = (ours / name).read_bytes(), (theirs / name).read_bytes()
        if mine == other:
            continue
        if rel_tol is None:
            found.append(name)
            continue
        relative, mismatched = field_differences(name, mine, other)
        found += [f"{name} {key} values" for key in mismatched if key.rsplit(".", 1)[-1] not in DIGESTS]
        found += [f"{name} {key} values, by {rel:.2g} relative,"
                  for key, rel in relative.items() if rel > rel_tol]
        moved = sorted(((rel, key) for key, rel in relative.items() if rel), reverse=True)
        notes.append(f"{name} largest relative difference per numeric field: "
                     + "".join(f"{key} {rel:.2g}, " for rel, key in moved)
                     + f"{len(relative) - len(moved)} more at 0")
        notes += [f"{name} {key} differs (a digest of the compared values)"
                  for key in mismatched if key.rsplit(".", 1)[-1] in DIGESTS]
    manifests = [json.loads((d / "manifest.json").read_text()) for d in (ours, theirs)]
    keys = sorted(k for k in manifests[0].keys() | manifests[1].keys()
                  if k not in MEASUREMENTS and manifests[0].get(k) != manifests[1].get(k))
    identity = [k for k in keys if k in IDENTITY_FIELDS]
    other_keys = [k for k in keys if k not in IDENTITY_FIELDS]
    if identity:
        found.append(f"manifest.json fields {identity}")
    if other_keys:
        notes.append(f"manifest.json fields {other_keys}")
    return found, notes


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Compare the outputs of two wignerlab checkouts.")
    parser.add_argument("other", type=Path, help="a directory holding src/wignerlab")
    parser.add_argument("--rel-tol", type=float, default=None,
                        help="compare differing outputs field by field to this relative tolerance")
    args = parser.parse_args(argv)
    if not (args.other / "src" / "wignerlab").is_dir():
        parser.error(f"{args.other} holds no src/wignerlab")
    other = args.other.resolve()
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for i, (label, cli_args, outputs) in enumerate(runs(work)):
            dirs = [work / f"run{i}-ours", work / f"run{i}-theirs"]
            errors = [run_cli(checkout, cli_args, d) for checkout, d in zip((ROOT, other), dirs)]
            if any(errors):
                failures.append(f"{label}: {errors}")
                continue
            found, notes = differences(*dirs, outputs, args.rel_tol)
            failures += [f"{label}: {what} differ" for what in found]
            for what in notes:
                print(f"note: {label}: {what}")  # a manifest note is metadata, not an output
    if failures:
        print("\n".join(failures))
    else:
        print("identical" if args.rel_tol is None else f"within {args.rel_tol:g}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
