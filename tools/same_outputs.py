"""Check that another checkout of wignerlab writes the same outputs as this one.

    python3 tools/same_outputs.py OTHER_CHECKOUT

Builds the benchmark's four workloads at seed 301 through
perfbench/workloads.make (read only), and runs each one, plus `predict` on the
two simulate configs, once under this checkout's src/ and once under
OTHER_CHECKOUT/src.  Every primary output must match byte for byte, and every
manifest.json field but wall_time_s must be equal.  Prints `identical` and
exits 0, or prints each difference and exits 1.  Takes about a minute on two
cores, most of it in the lemma workload.
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
    return out


def run_cli(checkout: Path, args: list[str], out_dir: Path) -> str | None:
    """Run the CLI of one checkout; the error text when it fails."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, "-m", "wignerlab.cli", *args, "--out", str(out_dir)],
                          env=env, capture_output=True, text=True)
    return None if proc.returncode == 0 else f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"


def differences(ours: Path, theirs: Path, outputs: list[str]) -> list[str]:
    found = [name for name in outputs if (ours / name).read_bytes() != (theirs / name).read_bytes()]
    manifests = [json.loads((d / "manifest.json").read_text()) for d in (ours, theirs)]
    for manifest in manifests:
        manifest.pop("wall_time_s")
    if manifests[0] != manifests[1]:
        keys = sorted(k for k in manifests[0].keys() | manifests[1].keys()
                      if manifests[0].get(k) != manifests[1].get(k))
        found.append(f"manifest.json fields {keys}")
    return found


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
            failures += [f"{label}: {what} differ" for what in differences(*dirs, outputs)]
    print("\n".join(failures) if failures else "identical")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
