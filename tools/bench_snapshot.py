"""Take a performance snapshot of this checkout: BENCH_<short sha>.json at its root.

    python3 tools/bench_snapshot.py

Runs the unchanged perfbench/run.py on every workload that BENCHMARK.json
lists, once per seed of SEEDS, each run for the benchmark's run_seconds, plus
one --trace 1 run per workload at the first seed.  Then it times the tier-1
suite, and a reference operation that later snapshots can divide by, since the
host's speed drifts between them: the median of REFERENCE_CALLS
np.linalg.eigh calls on one BLAS thread, on a fixed seeded symmetric matrix of
order REFERENCE_ORDER.  Takes about fifteen minutes on two cores.

The file holds, per workload, the median and quartiles over the seeds of each
end-to-end metric (each run's own figure is already a median over its
operations), the traced per-layer figures, and whether every run was correct;
the machine facts that run.py prints; the tier-1 wall time, counts and three
slowest tests; and the reference time.  Exits 0 when every workload was
correct, else 1 (the file is written either way).
"""

from __future__ import annotations

import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT
RUNNER = ROOT / "perfbench" / "run.py"
SEEDS = (301, 302, 303, 304, 305)
TIER1_COMMAND = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=3"]
REFERENCE_CALLS = 20
REFERENCE_ORDER = 1024
REFERENCE_SEED = 20240


def short_sha() -> str:
    return subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def run_bench(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict | None, dict]:
    """One perfbench/run.py run: its machine facts and its result line (correct false,
    with the error's last line, when the runner exits non-zero)."""
    proc = subprocess.run([sys.executable, str(RUNNER), "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("machine: "):
        tail = (proc.stderr.strip().splitlines() or ["(no stderr)"])[-1]
        return None, {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                      "error": f"exit {proc.returncode}: {tail}"}
    return json.loads(lines[-2][len("machine: "):]), json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def workload_entry(workload: str, seconds: float) -> tuple[dict | None, dict]:
    """The machine facts and the snapshot entry of one workload."""
    runs = [run_bench(workload, seed, seconds, 0) for seed in SEEDS]
    traced_machine, traced = run_bench(workload, SEEDS[0], seconds, 1)
    untraced = [result for _, result in runs]
    results = untraced + [traced]
    units = {name: metric["unit"] for result in untraced for name, metric in result["metrics"].items()}
    end_to_end = {name: {"unit": unit, **spread([result["metrics"][name]["value"] for result in untraced
                                                 if name in result["metrics"]])}
                  for name, unit in units.items()}
    entry = {
        "seeds": list(SEEDS),
        "correct": all(result["correct"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "end_to_end": end_to_end,
        "per_layer": traced["metrics"],
        "errors": [result["error"] for result in results if "error" in result],
    }
    machines = [machine for machine, _ in runs if machine is not None] + [traced_machine]
    return machines[0], entry


DURATION_LINE = re.compile(r"^(\d+(?:\.\d+)?)s\s+(call|setup|teardown)\s+(\S+)")
COUNT = re.compile(r"(\d+) (passed|failed|errors?|skipped|xfailed|xpassed)\b")


def tier1() -> dict:
    """Wall time, outcome counts and the three slowest test phases of the tier-1 suite."""
    started = time.perf_counter()
    proc = subprocess.run(TIER1_COMMAND, cwd=ROOT, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    wall = time.perf_counter() - started
    lines = proc.stdout.splitlines()
    slowest = [{"seconds": float(m[1]), "phase": m[2], "test": m[3]}
               for m in map(DURATION_LINE.match, lines) if m][:3]
    counts = {kind: int(n) for n, kind in COUNT.findall(lines[-1] if lines else "")}
    return {"command": "PYTHONPATH=src " + " ".join(["python"] + TIER1_COMMAND[1:]),
            "exit_code": proc.returncode, "wall_s": wall, "counts": counts, "slowest": slowest}


def reference_seconds() -> float:
    """Median wall time of one np.linalg.eigh call on one BLAS thread."""
    import numpy as np

    sys.path.insert(0, str(ROOT / "src"))
    from wignerlab.blas import single_blas_thread

    a = np.random.default_rng(REFERENCE_SEED).standard_normal((REFERENCE_ORDER, REFERENCE_ORDER))
    a = (a + a.T) / 2.0
    times = []
    with single_blas_thread():
        for _ in range(REFERENCE_CALLS):
            started = time.perf_counter()
            np.linalg.eigh(a)
            times.append(time.perf_counter() - started)
    return statistics.median(times)


def snapshot() -> dict:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    machine, workloads = None, {}
    for spec in benchmark["workloads"]:
        found, workloads[spec["name"]] = workload_entry(spec["name"], seconds)
        machine = machine or found
    return {
        "commit": short_sha(),
        "taken_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "run_seconds": seconds,
        "machine": machine,
        "reference": {"operation": f"np.linalg.eigh, order {REFERENCE_ORDER}, one BLAS thread, "
                                   f"median of {REFERENCE_CALLS} calls",
                      "seconds": reference_seconds()},
        "workloads": workloads,
        "tier1": tier1(),
    }


def main() -> int:
    data = snapshot()
    path = OUT_DIR / f"BENCH_{data['commit']}.json"
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0 if all(entry["correct"] for entry in data["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
