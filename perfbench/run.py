"""wignerlab benchmark: one workload, timed as fresh CLI processes, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is taken from the
checkout's src/ (never from an installed copy).  Inputs are made from --seed.
Operations (one `wignerlab` subcommand process plus its output checks) repeat
until --seconds have passed.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the run adds one traced operation and
reports the per-layer ones.  Machine facts are printed on the line before.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_PROBES = 3
# Unset in the children so the defaults as shipped are measured.
THREAD_ENV = ("WIGNERLAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "SCIPY_OPENBLAS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}


def per_layer_units() -> dict[str, str]:
    import spans

    names = list(spans.layer_metrics([])) + ["cli.output_bytes", "setup.import_s", "trace.overhead_s"]
    suffix_units = {"calls": "count", "p50_ms": "ms", "tail_ms": "ms", "bytes_computed": "bytes",
                    "output_bytes": "bytes", "parallel_efficiency": "ratio"}
    return {name: suffix_units.get(name.rsplit(".", 1)[-1], "s") for name in names}


def run_child(argv: list[str], env: dict, log: Path) -> dict:
    """Run one process to completion; its wall time, exit code and own rusage."""
    with log.open("wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mib": usage.ru_maxrss / 1024.0}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_ENV}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def primary_bytes(out_dir: Path, names: list[str]) -> dict[str, bytes]:
    return {name: (out_dir / name).read_bytes() for name in names}


def tail_of(path: Path) -> str:
    text = path.read_text(errors="replace").strip().splitlines()
    return text[-1] if text else "(no stderr)"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replica-threads", type=int, default=len(os.sched_getaffinity(0)),
                        help="--threads passed to simulate/lemma (default: the usable cores); "
                             "1 gives the single-threaded baseline quoted in README.md")
    args = parser.parse_args(argv)

    if not (SRC / "wignerlab" / "cli.py").is_file():
        print(f"error: no wignerlab sources under {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.NAMES}",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.replica_threads < 1:
        print("error: --seed must be nonnegative and --replica-threads positive", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    # SIGTERM unwinds like an exception, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()


def run(args, work: Path) -> int:
    import machine
    import workloads

    threads = args.replica_threads
    wl = workloads.make(args.workload, args.seed, work, threads)
    env = child_env()
    py = sys.executable

    setup = []
    for i in range(SETUP_PROBES):
        res = run_child([py, str(HERE / "setup_probe.py"), *wl.probe], env, work / f"probe{i}.err")
        if res["code"] != 0:
            print(f"error: set-up probe failed: {tail_of(work / f'probe{i}.err')}", file=sys.stderr)
            return 1
        setup.append(res["wall_s"])

    ops, failed, failures = [], 0, []
    reference = None
    started = time.perf_counter()
    while not ops or time.perf_counter() - started < args.seconds:
        out_dir = work / f"op{len(ops)}"
        res = run_child([py, "-m", "wignerlab.cli", *wl.cli, "--out", str(out_dir)], env,
                        work / f"op{len(ops)}.err")
        ops.append(res)
        print(f"op {len(ops) - 1}: wall {res['wall_s']:.3f} s, cpu {res['cpu_s']:.3f} s, "
              f"peak rss {res['peak_rss_mib']:.1f} MiB", file=sys.stderr)
        if res["code"] != 0:
            failed += 1
            print(f"op {len(ops) - 1} exited {res['code']}: {tail_of(work / f'op{len(ops) - 1}.err')}",
                  file=sys.stderr)
            continue
        if reference is None:
            reference = out_dir
        elif primary_bytes(out_dir, wl.outputs) != primary_bytes(reference, wl.outputs):
            failures.append(f"op {len(ops) - 1}: outputs differ from op 0 for the same inputs")
        else:
            shutil.rmtree(out_dir)
    if reference is None:
        print("error: every operation failed", file=sys.stderr)
        return 1
    try:
        failures += wl.check(reference)
    except Exception as exc:  # noqa: BLE001 - malformed output is a failed check, not a crash
        failures.append(f"checking the outputs raised {exc!r}")
    good = [op for op in ops if op["code"] == 0]
    metrics = {
        "wall_s": statistics.median(op["wall_s"] for op in good),
        "cpu_s": statistics.median(op["cpu_s"] for op in good),
        "peak_rss_mib": max(op["peak_rss_mib"] for op in good),
        "setup_s": statistics.median(setup),
    }
    attempted = len(ops)
    units = END_TO_END_UNITS

    if args.trace:
        import spans

        traced_dir = work / "traced"
        spans_path = work / "spans.json"
        res = run_child([py, str(HERE / "traced_cli.py"), str(spans_path), "--", *wl.cli,
                         "--out", str(traced_dir)], env, work / "traced.err")
        attempted += 1
        if res["code"] != 0:
            print(f"traced op exited {res['code']}: {tail_of(work / 'traced.err')}", file=sys.stderr)
            return 1
        if primary_bytes(traced_dir, wl.outputs) != primary_bytes(reference, wl.outputs):
            failures.append("traced outputs differ from the untraced ones")
        record = json.loads(spans_path.read_text())
        metrics = spans.layer_metrics(record["spans"])
        metrics["cli.output_bytes"] = float(sum(p.stat().st_size for p in traced_dir.iterdir()))
        metrics["setup.import_s"] = record["import_s"]
        metrics["trace.overhead_s"] = res["wall_s"] - statistics.median(op["wall_s"] for op in good)
        defect = spans.replica_accounting_defect(record["spans"])
        if defect > 1e-9:
            failures.append(f"self times leave {defect:.2e} of replica busy time unaccounted")
        for name in workloads.expected_layers(args.workload):
            if not metrics[name] > 0:
                failures.append(f"traced run recorded nothing for {name}")
        units = per_layer_units()

    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    print("machine: " + json.dumps(machine.facts(threads), sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
