"""Command-line entry point, JSON config parsing, and result persistence.

Subcommands: predict, simulate, volterra, lemma, report.  Exit codes: 0 on
success, 2 on validation/usage errors, 3 on numeric failure, 1 otherwise.
Errors are written to stderr as single-line JSON.

Each subcommand computes its records and hands them to _write_outputs, the one
output stage, which writes every primary output and then the run manifest.

Primary outputs (result/prediction JSON, CSV tables) are byte-identical for a
fixed config and seed regardless of --threads and of the BLAS thread default;
the run manifest records wall time, the process's CPU time and page faults and
the thread counts, and is metadata, not a primary output.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import semicircle
from .blas import replica_blas_threads
from .ensembles import CONVENTIONS, KINDS, EnsembleSpec, make_entry_distribution
from .errors import ConfigError, ContractError, NumericFailureError, WignerLabError
from .harness import (
    ExperimentConfig,
    default_threads,
    float_range,
    lanczos_first_read,
    lemma_decay_experiment,
    phi_route,
    predict,
    run_entry_experiment,
)
from .volterra import kernel_nodes, residual_table, uniform_grid

__all__ = ["main", "run_cli", "parse_config", "config_hash"]


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------


def _check_keys(obj: dict, allowed: set[str], required: set[str], path: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object", field=path)
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}", field=path)
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"{path}: missing required key(s) {sorted(missing)}", field=path)


def _real_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a real number, got {value!r}", field=path)
    if not abs(value) <= sys.float_info.max:  # json.loads yields NaN, Infinity and huge ints
        raise ConfigError(f"{path}: expected a finite number, got {value!r}", field=path)
    return float(value)


def _positive_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ConfigError(f"{path}: expected a nonnegative integer, got {value!r}", field=path)
    return value


def _seed(value, path: str) -> int:
    """A root seed: an integer in 0..2^64 - 1 (derive_seed would fold larger ones)."""
    seed = _positive_int(value, path)
    if seed >= 2**64:
        raise ConfigError(f"{path}: expected an integer below 2^64, got {value!r}", field=path)
    return seed


def _real_list(values, path: str) -> list[float]:
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{path}: expected a nonempty list", field=path)
    return [_real_number(v, f"{path}[{i}]") for i, v in enumerate(values)]


def _parse_phi(obj, path: str):
    _check_keys(obj, {"kind", "coefficients", "envelope_width", "grid", "values"}, {"kind"}, path)
    kind = obj["kind"]
    if kind == "polynomial":
        _check_keys(obj, {"kind", "coefficients"}, {"kind", "coefficients"}, path)
        make, args = semicircle.polynomial, (_real_list(obj["coefficients"], f"{path}.coefficients"),)
    elif kind == "gaussian_damped_polynomial":
        _check_keys(obj, {"kind", "coefficients", "envelope_width"}, {"kind", "coefficients"}, path)
        width = _real_number(obj.get("envelope_width", 1.0), f"{path}.envelope_width")
        coefficients = _real_list(obj["coefficients"], f"{path}.coefficients")
        make, args = semicircle.gaussian_damped, (coefficients, width)
    elif kind == "tabulated":
        _check_keys(obj, {"kind", "grid", "values"}, {"kind", "grid", "values"}, path)
        make, args = semicircle.tabulated, (_real_list(obj["grid"], f"{path}.grid"),
                                            _real_list(obj["values"], f"{path}.values"))
    else:
        raise ConfigError(f"{path}.kind: unknown test-function kind {kind!r}", field=f"{path}.kind")
    try:
        return make(*args)
    except WignerLabError as exc:
        raise ConfigError(f"{path}: {exc}", field=path) from exc


def _parse_spec(obj, path: str) -> EnsembleSpec:
    _check_keys(obj, {"entry_dist", "convention", "w2"}, {"entry_dist"}, path)
    dist_obj = obj["entry_dist"]
    _check_keys(dist_obj, {"kind", "w", "params"}, {"kind", "w"}, f"{path}.entry_dist")
    kind = dist_obj["kind"]
    if kind not in KINDS:
        raise ConfigError(
            f"{path}.entry_dist.kind: unknown kind {kind!r}", field=f"{path}.entry_dist.kind"
        )
    w = _real_number(dist_obj["w"], f"{path}.entry_dist.w")
    if w <= 0:
        raise ConfigError(f"{path}.entry_dist.w: must be positive, got {w}", field=f"{path}.entry_dist.w")
    params = dist_obj.get("params")
    if params is not None:
        _check_keys(params, {"atoms", "probs"}, set(), f"{path}.entry_dist.params")
        params = {
            "atoms": _real_list(params.get("atoms", []), f"{path}.entry_dist.params.atoms"),
            "probs": _real_list(params.get("probs", []), f"{path}.entry_dist.params.probs"),
        }
    convention = obj.get("convention", "paper_symmetric")
    if convention not in CONVENTIONS:
        raise ConfigError(
            f"{path}.convention: unknown convention {convention!r}", field=f"{path}.convention"
        )
    w2 = _real_number(obj.get("w2", 2.0), f"{path}.w2")
    try:
        dist = make_entry_distribution(kind, w, params)
        return EnsembleSpec(entry_dist=dist, convention=convention, w2=w2)
    except WignerLabError as exc:
        raise ConfigError(f"{path}: {exc}", field=path) from exc


_TOP_KEYS = {f.name for f in dataclasses.fields(ExperimentConfig)}


def parse_config(path: str | Path, require_phi: bool = True) -> ExperimentConfig:
    """Load and validate an experiment config; unknown keys are rejected."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(obj, require_phi)


def config_from_dict(obj: dict, require_phi: bool = True) -> ExperimentConfig:
    """The ExperimentConfig of a parsed config; lemma reads no phi, so it passes require_phi=False."""
    required = {"spec", "n_list", "replicas", "root_seed"} | ({"phi"} if require_phi else set())
    _check_keys(obj, _TOP_KEYS, required, "config")
    spec = _parse_spec(obj["spec"], "config.spec")
    phi = _parse_phi(obj["phi"], "config.phi") if "phi" in obj else None
    phi2 = _parse_phi(obj["phi2"], "config.phi2") if obj.get("phi2") is not None else None
    if not isinstance(obj["n_list"], list) or not obj["n_list"]:
        raise ConfigError("config.n_list: expected a nonempty list", field="config.n_list")
    n_list = tuple(_positive_int(n, f"config.n_list[{i}]") for i, n in enumerate(obj["n_list"]))
    kwargs = dict(
        spec=spec,
        phi=phi,
        phi2=phi2,
        n_list=n_list,
        replicas=_positive_int(obj["replicas"], "config.replicas"),
        root_seed=_seed(obj["root_seed"], "config.root_seed"),
        j_policy=obj.get("j_policy", "first"),
    )
    if obj.get("j_explicit") is not None:
        kwargs["j_explicit"] = _positive_int(obj["j_explicit"], "config.j_explicit")
    if obj.get("x_grid") is not None:
        kwargs["x_grid"] = tuple(_real_list(obj["x_grid"], "config.x_grid"))
    if obj.get("t_grid") is not None:
        kwargs["t_grid"] = tuple(_real_list(obj["t_grid"], "config.t_grid"))
    return ExperimentConfig(**kwargs)


def config_hash(config_descriptor: dict) -> str:
    """64-bit hash of the canonicalized config (sorted keys, repr floats)."""
    canonical = json.dumps(config_descriptor, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canonical.encode(), digest_size=8).hexdigest()


# ---------------------------------------------------------------------------
# output stage
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    """A CSV cell: floats by repr, None (an undefined value) as an empty cell."""
    if isinstance(value, float):
        return repr(value)
    return "" if value is None else str(value)


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n")


def _process_usage() -> dict:
    """CPU seconds in user and kernel mode and minor page faults of this process so far;
    None each where the platform has no resource module."""
    try:
        import resource
    except ImportError:
        return {"cpu_user_s": None, "cpu_sys_s": None, "minor_faults": None}
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {"cpu_user_s": usage.ru_utime, "cpu_sys_s": usage.ru_stime, "minor_faults": usage.ru_minflt}


def _write_outputs(out: str, started: float, files: dict[str, dict | list[dict]], cfg_hash: str,
                   root_seed: int, threads: int, blas_threads: int | None = None, **extra) -> int:
    """Write every primary output into out, then manifest.json, then one `wrote` line per file.

    files maps a file name to its records: a dict is written as sorted JSON, a
    list of dicts as CSV whose header is the first record's keys (None is an
    empty cell).  The manifest is run metadata: blas_threads is the replica
    phases' BLAS thread count (None: no phase, or no bundled OpenBLAS found),
    the process's CPU time and minor faults come from _process_usage, and
    extra adds subcommand-specific fields.  An out that cannot be made or written
    to (a file, or a path under one) is a ConfigError on --out.
    """
    out_dir = Path(out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, records in files.items():
            if isinstance(records, dict):
                _write_json(out_dir / name, records)
                continue
            with (out_dir / name).open("w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(records[0])
                writer.writerows([_fmt(v) for v in record.values()] for record in records)
        _write_json(out_dir / "manifest.json", {
            "config_hash": cfg_hash,
            "tool_version": __version__,
            "root_seed": root_seed,
            "threads": threads,
            "blas_threads": blas_threads,
            "wall_time_s": time.monotonic() - started,
            **_process_usage(),
            "outputs": list(files),
            **extra,
        })
    except OSError as exc:
        raise ConfigError(f"--out: cannot write the outputs to {out}: {exc}", field="--out") from exc
    for name in files:
        print(f"wrote {out_dir / name}")
    return 0


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_predict(args) -> int:
    cfg = _load_config(args)
    started = time.monotonic()
    pred, cf = predict(cfg)
    out = pred.to_dict()
    out["cf"] = [[float(x), float(z.real), float(z.imag)] for x, z in zip(cfg.x_grid, cf)]
    return _write_outputs(args.out, started, {"prediction.json": out},
                          config_hash(cfg.descriptor()), cfg.root_seed, 1)


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    threads = _replica_threads(args)
    started = time.monotonic()
    result = run_entry_experiment(cfg, threads=threads)
    files = {"result.json": result.record}
    if args.raw:
        files["replicas.csv"] = [{"n": p["n"], "replica": r, "j": p["j"], "y_value": float(y)}
                                 for p, ys in zip(result.record["per_n"], result.samples)
                                 for r, y in enumerate(ys)]
    return _write_outputs(args.out, started, files, config_hash(cfg.descriptor()), cfg.root_seed,
                          threads, replica_blas_threads(), phi_route=phi_route(cfg.phis()),
                          lanczos_first_read=lanczos_first_read(cfg.phis(), cfg.spec.w),
                          lanczos_steps_max=result.lanczos_steps_max)


# Each grid of the volterra table holds O(points * (block + nodes)) complex values and takes
# O(points^2 nodes) time.  One 20001-point grid took 271 MiB peak RSS and 31 s on a
# 2-core x86 host; this cap extrapolates to about 0.8 GiB and five minutes there.
_VOLTERRA_MAX_POINTS = 2**16 + 1
_VOLTERRA_MAX_WT = 90  # 128 semicircle nodes give v, v*v, v*v*v to round-off up to w t = 97


def _volterra_steps(text: str, t_max: float) -> list[float]:
    """The --h step sizes, checked against --t-max before any grid is built.

    Each error names the flag at fault: a non-finite or non-positive value, a
    step finer than the floats near t_max (--t-max), too many points or a step
    that does not divide t_max (--h).
    """
    try:
        h_values = [float(h) for h in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--h: expected comma-separated step sizes, got {text!r}", field="--h") from exc
    if len(set(h_values)) != len(h_values):
        # a repeated step would read as a convergence order of log2(1) = 0
        raise ConfigError(f"--h: step sizes must be distinct, got {text!r}", field="--h")
    if not (math.isfinite(t_max) and t_max > 0):
        raise ConfigError(f"--t-max: expected a positive finite number, got {t_max!r}", field="--t-max")
    for h in h_values:
        if not (math.isfinite(h) and h > 0):
            raise ConfigError(f"--h: expected positive finite step sizes, got {h!r}", field="--h")
        if h <= math.ulp(t_max):
            raise ConfigError(f"--t-max: floats near {t_max!r} are {math.ulp(t_max)!r} apart, "
                              f"more than the step {h!r}", field="--t-max")
        if t_max / h + 1 > _VOLTERRA_MAX_POINTS:
            raise ConfigError(f"--h: a step of {h!r} on [0, {t_max!r}] makes {t_max / h + 1:.6g} grid points, "
                              f"more than {_VOLTERRA_MAX_POINTS}", field="--h")
        try:
            uniform_grid(t_max, h)
        except ContractError as exc:  # both are finite and positive here: h does not divide t_max
            raise ConfigError(f"--h: {exc}", field="--h") from exc
    return h_values


def _cmd_volterra(args) -> int:
    started = time.monotonic()
    h_values = _volterra_steps(args.h, args.t_max)
    if not (args.w > 0 and args.w * args.t_max <= _VOLTERRA_MAX_WT):  # also rejects nan and inf
        raise ConfigError(f"--w: expected 0 < w <= {_VOLTERRA_MAX_WT} / t_max, got {args.w!r}", field="--w")
    if not math.isfinite(args.kappa4):
        raise ConfigError(f"--kappa4: expected a finite number, got {args.kappa4!r}", field="--kappa4")
    # as numpy scalars, so that w * w overflowing raises instead of turning inf
    w, kappa4 = np.float64(args.w), np.float64(args.kappa4)
    size = kernel_nodes(w * args.t_max)  # the table's rule, and the one its manifest records
    try:
        with float_range("--kappa4"):
            rows = residual_table(h_values, w, kappa4, args.t_max, size)
    except ConfigError:
        # kappa4 only scales the vvv defect: when the table leaves the float range without it, --w is at fault
        with float_range("--w"):
            residual_table(h_values, w, np.float64(0.0), args.t_max, size)
        raise
    cfg_hash = config_hash({"h": h_values, "w": args.w, "kappa4": args.kappa4, "t_max": args.t_max})
    return _write_outputs(args.out, started, {"volterra_residuals.csv": rows}, cfg_hash, 0, 1,
                          replica_blas_threads(), kernel_nodes=size)


def _cmd_lemma(args) -> int:
    cfg = _load_config(args)
    threads = _replica_threads(args)
    started = time.monotonic()
    rows = lemma_decay_experiment(cfg, threads)
    return _write_outputs(args.out, started, {"lemma_decay.csv": rows}, config_hash(cfg.descriptor()),
                          cfg.root_seed, threads, replica_blas_threads())


def _cmd_report(args) -> int:
    for path in args.results:
        lines = _report_lines(path)
        print(f"== {path} ==")
        print("\n".join(lines))
    return 0


def _report_lines(path: str) -> list[str]:
    """The summary of one result.json or prediction.json; ConfigError naming the path otherwise."""
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read a JSON result: {exc}") from exc
    try:
        if "per_n" in obj:
            pred = obj.get("prediction", {})
            lines = [
                f"prediction: v_w={pred.get('v_w'):.6g} "
                f"(goe={pred.get('v_goe'):.6g}, kappa4={pred.get('kappa4_term'):.6g}, "
                f"diag={pred.get('diag_term'):.6g}), xstar_slope={pred.get('xstar_slope'):.6g}",
                f"{'n':>6} {'variance':>12} {'ci':>10} {'z':>8} {'k4':>12} {'ks':>8}",
            ]
            comparisons = {c["n"]: c for c in obj.get("comparison", {}).get("per_n", [])}
            for p in obj["per_n"]:
                comp = comparisons.get(p["n"], {})
                ks = p["ks"].get("ks_stat")
                ks_txt = f"{ks:.4f}" if isinstance(ks, float) and not np.isnan(ks) else "-"
                z = comp.get("z_variance", float("nan"))
                z_txt = "-" if z is None else f"{z:.2f}"  # null: a zero CI against a nonzero gap
                lines.append(f"{p['n']:>6} {p['variance']:>12.6g} {p['variance_ci']:>10.3g} {z_txt:>8} "
                             f"{p['k_stats']['k4'][0]:>12.6g} {ks_txt:>8}")
            return lines
        if isinstance(obj, dict) and "v_w" in obj:
            return [json.dumps(obj, sort_keys=True, indent=1)]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: not a wignerlab result: {exc!r}") from exc
    raise ConfigError(f"{path}: not a wignerlab result: neither a result.json nor a prediction.json")


def _load_config(args) -> ExperimentConfig:
    """The --config file, with --seed (when given) in place of its root seed."""
    cfg = parse_config(args.config, require_phi=args.command != "lemma")
    if args.seed is None:
        return cfg
    return dataclasses.replace(cfg, root_seed=_seed(args.seed, "--seed"))


_MAX_THREADS = 64  # eight times default_threads' cap: every replica thread is an OS thread


def _replica_threads(args) -> int:
    if args.threads is None:
        return default_threads()
    if not 1 <= args.threads <= _MAX_THREADS:
        raise ConfigError(f"--threads: expected an integer in 1..{_MAX_THREADS}, got {args.threads}",
                          field="--threads")
    return args.threads


# ---------------------------------------------------------------------------
# argument parsing / dispatch
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wignerlab")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="experiment config JSON")
            p.add_argument("--seed", type=int, default=None, help="override root seed")
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("predict", help="closed-form limit prediction")
    common(p)
    p = sub.add_parser("simulate", help="Monte Carlo entry-element experiment")
    common(p)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--raw", action="store_true", help="also write per-replica CSV")
    p = sub.add_parser("volterra", help="residual table for the integral-equation suite")
    common(p, config=False)
    p.add_argument("--h", default="0.04,0.02,0.01", help="comma-separated step sizes")
    p.add_argument("--w", type=float, default=1.0)
    p.add_argument("--kappa4", type=float, default=-2.0)
    p.add_argument("--t-max", type=float, default=2.0)
    p = sub.add_parser("lemma", help="propagator decay experiment")
    common(p)
    p.add_argument("--threads", type=int, default=None)
    p = sub.add_parser("report", help="summarize prior JSON outputs")
    p.add_argument("results", nargs="+")
    return parser


_DISPATCH = {
    "predict": _cmd_predict,
    "simulate": _cmd_simulate,
    "volterra": _cmd_volterra,
    "lemma": _cmd_lemma,
    "report": _cmd_report,
}


def _error_json(exc: Exception) -> str:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    field = getattr(exc, "field", None)
    if field:
        payload["field"] = field
    return json.dumps(payload, sort_keys=True)


def run_cli(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _DISPATCH[args.command](args)
    except NumericFailureError as exc:
        print(_error_json(exc), file=sys.stderr)
        return 3
    except WignerLabError as exc:
        print(_error_json(exc), file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary maps everything to exit codes
        print(_error_json(exc), file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
