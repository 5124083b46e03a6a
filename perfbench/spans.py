"""In-memory span recording around wignerlab's module boundaries.

A span is (id, parent id, name, start, end, thread, attrs).  Wrappers are
installed on the names the *calling* module looks up: harness binds
sample_matrix, eigh, matrix_function_entry and lemma_statistics at import
time, so those are replaced in ``wignerlab.harness``, not in ``ensembles`` or
``spectral``.  Nothing under ``src/`` is edited; the patching happens in the
traced process only.

Spans are appended under a lock (replica threads record concurrently) and
written out once, when the traced process ends.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time

import numpy as np


class Recorder:
    """Collects finished spans; safe to use from several threads."""

    def __init__(self):
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, attrs=None, parent: int | None = None):
        """Run fn(*args, **kwargs) inside a span; parent defaults to this thread's open span."""
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            record = {"id": span_id, "parent": parent, "name": name, "start": start, "end": end,
                      "thread": threading.get_ident(), "attrs": attrs or {}}
            with self._lock:
                self.spans.append(record)

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None


def _wrap(recorder: Recorder, module, attr: str, name: str, attrs_of=None) -> None:
    original = getattr(module, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        attrs = attrs_of(*args, **kwargs) if attrs_of is not None else None
        return recorder.call(name, original, args, kwargs, attrs)

    setattr(module, attr, wrapper)


def _wrap_parallel_map(recorder: Recorder, harness) -> None:
    """One 'harness.replicas' phase span per call, one 'harness.replica' span per replica."""
    original = harness._parallel_map

    def parallel_map(fn, count, threads):
        def phase(fn, count, threads):
            phase_id = recorder.current()

            def replica(i):
                return recorder.call("harness.replica", fn, (i,), {}, parent=phase_id)

            return original(replica, count, threads)

        return recorder.call("harness.replicas", phase, (fn, count, threads), {},
                             {"threads": max(1, int(threads)), "count": int(count)})

    harness._parallel_map = parallel_map


def install(recorder: Recorder) -> None:
    """Patch every traced boundary; call after importing wignerlab.cli, before run_cli."""
    from wignerlab import cli, ensembles, harness, volterra

    # the subcommands' entry points: their spans keep library time out of cli.self_s
    _wrap(recorder, cli, "run_entry_experiment", "harness.run_entry_experiment")
    _wrap(recorder, cli, "lemma_decay_experiment", "harness.lemma_decay_experiment")
    _wrap(recorder, cli, "residual_table", "volterra.residual_table")

    _wrap_parallel_map(recorder, harness)
    _wrap(recorder, harness, "sample_matrix", "ensembles.sample_matrix")
    _wrap(recorder, harness, "eigh", "spectral.eigh")
    _wrap(recorder, harness, "matrix_function_entry", "spectral.matrix_function_entry")
    _wrap(recorder, harness, "lemma_statistics", "spectral.lemma_statistics")
    _wrap(recorder, ensembles.SymmetricMatrix, "dense", "ensembles.dense",
          attrs_of=lambda self: {"n": self.n})
    for attr in ("empirical_cf", "gaussian_limit_test", "_jackknife_cov",
                 "_excess_kurtosis_jackknife", "compare_with_prediction_rows"):
        _wrap(recorder, harness, attr, "harness.estimators")
    _wrap(recorder, harness, "sample_cumulants", "cumulants.sample_cumulants")
    for attr in ("var_limit", "limit_cf", "limit_cumulants", "cov_limit_wigner"):
        _wrap(recorder, harness, attr, "limits")

    for attr in ("coveq_residual", "cov_kernel_grid", "phi_kernel_grid", "volterra_solve"):
        _wrap(recorder, volterra, attr, f"volterra.{attr}")
    _wrap(recorder, volterra, "sc_convolutions", "semicircle.sc_convolutions")


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the union of the intervals its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for lo, hi in sorted(children.get(s["id"], [])):
            lo, hi = max(lo, cursor), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def _timing(durations: list[float]) -> tuple[float, float]:
    """(p50_ms, tail_ms); the tail is the 100 (1 - 10/calls) percentile, the highest
    with ten calls beyond it.  With fewer than forty calls there is no tail: it reads 0.
    """
    if not durations:
        return 0.0, 0.0
    ms = np.asarray(durations) * 1e3
    p50 = float(np.median(ms))
    if ms.size < 40:
        return p50, 0.0
    return p50, float(np.percentile(ms, 100.0 * (1.0 - 10.0 / ms.size)))


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer figures (busy = summed durations over calls and threads)."""
    selfs = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    def busy(name):
        return float(sum(dur(s) for s in by_name.get(name, [])))

    def self_sum(name):
        return float(sum(selfs[s["id"]] for s in by_name.get(name, [])))

    def calls(name):
        return float(len(by_name.get(name, [])))

    out: dict[str, float] = {}
    sm = by_name.get("ensembles.sample_matrix", [])
    p50, tail = _timing([dur(s) for s in sm])
    out.update({
        "ensembles.sample_matrix.busy_s": busy("ensembles.sample_matrix"),
        "ensembles.sample_matrix.calls": calls("ensembles.sample_matrix"),
        "ensembles.sample_matrix.p50_ms": p50,
        "ensembles.sample_matrix.tail_ms": tail,
        "ensembles.dense.busy_s": busy("ensembles.dense"),
        "ensembles.dense.calls": calls("ensembles.dense"),
        "ensembles.dense.bytes_computed": float(
            sum(8 * s["attrs"]["n"] ** 2 for s in by_name.get("ensembles.dense", []))),
    })
    eig = by_name.get("spectral.eigh", [])
    p50, tail = _timing([selfs[s["id"]] for s in eig])
    out.update({
        "spectral.eigh.self_s": self_sum("spectral.eigh"),
        "spectral.eigh.calls": calls("spectral.eigh"),
        "spectral.eigh.p50_ms": p50,
        "spectral.eigh.tail_ms": tail,
        "spectral.matrix_function_entry.busy_s": busy("spectral.matrix_function_entry"),
        "spectral.lemma_statistics.busy_s": busy("spectral.lemma_statistics"),
    })
    phases = by_name.get("harness.replicas", [])
    capacity = sum(dur(s) * s["attrs"]["threads"] for s in phases)
    out.update({
        "harness.replicas.wall_s": busy("harness.replicas"),
        "harness.replicas.self_s": self_sum("harness.replica"),
        "harness.replicas.parallel_efficiency": busy("harness.replica") / capacity if capacity else 0.0,
        "harness.estimators.self_s": self_sum("harness.estimators"),
        "cumulants.sample_cumulants.busy_s": busy("cumulants.sample_cumulants"),
        "limits.busy_s": busy("limits"),
        "volterra.residual_table.wall_s": busy("volterra.residual_table"),
        "volterra.coveq_residual.self_s": self_sum("volterra.coveq_residual"),
        "volterra.cov_kernel_grid.busy_s": busy("volterra.cov_kernel_grid"),
        "volterra.phi_kernel_grid.busy_s": busy("volterra.phi_kernel_grid"),
        "volterra.volterra_solve.busy_s": busy("volterra.volterra_solve"),
        "semicircle.sc_convolutions.busy_s": busy("semicircle.sc_convolutions"),
        "cli.self_s": self_sum("cli"),
    })
    return out


def replica_accounting_defect(spans: list[dict]) -> float:
    """Largest relative gap, over replica phases, between summed replica busy time
    and the self times of every span inside those replicas (zero when they account)."""
    selfs = self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def replica_of(span_id):
        while span_id is not None and by_id[span_id]["name"] != "harness.replica":
            span_id = by_id[span_id]["parent"]
        return span_id

    busy: dict[int, float] = {}
    accounted: dict[int, float] = {}
    for s in spans:
        if s["name"] == "harness.replica":
            busy[s["parent"]] = busy.get(s["parent"], 0.0) + s["end"] - s["start"]
        rep = replica_of(s["id"])
        if rep is not None:
            phase = by_id[rep]["parent"]
            accounted[phase] = accounted.get(phase, 0.0) + selfs[s["id"]]
    worst = 0.0
    for phase, total in busy.items():
        worst = max(worst, abs(total - accounted.get(phase, 0.0)) / total if total else 0.0)
    return worst
