"""Span tracer for traced benchmark runs, and the per-layer metrics it yields.

``Tracer.installed()`` wraps every public function of the eight layer
modules under each name a caller looks it up by (the defining module, every
``gatecert`` module that imported it, and the package), plus
``ProbabilityTable.signed_sum`` and ``ProbabilityTable.array`` on the
class, and restores all of them on exit.  Inside ``Tracer.job(i)`` every
wrapped call records a span (name, start, end, parent span, job) in flat
arrays; outside a job the wrappers only pass the call through, so set-up,
oracles and checks leave no spans.  ``primitives`` only builds inputs and is
not wrapped.

A span's self time is its duration minus the time its direct children
cover; a layer's self time is the sum over its spans.  The root span of
each job is named ``job`` and its self time is the benchmark's own code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("tensor", "network", "decomp", "bell", "extract", "certify", "adversary", "cli")

# (metric, unit, span or counter it reads, kind): "incl" sums the inclusive
# time of the outermost spans of that name, "calls" counts spans of that
# name, "count" reads a counter the wrappers keep.  Every value is per job.
METRICS = (
    ("network.born_table_s", "s", "network.born_table", "incl"),
    ("tensor.apply_raw_batch_s", "s", "tensor.apply_raw_batch", "incl"),
    ("tensor.batch_flops", "flop", "tensor.batch_flops", "count"),
    ("network.settings_rows", "count", "network.settings_rows", "count"),
    ("network.probabilities", "count", "network.probabilities", "count"),
    ("network.rows_read", "count", "network.rows_read", "count"),
    ("network.save_table_s", "s", "network.save_table", "incl"),
    ("network.load_table_s", "s", "network.load_table", "incl"),
    ("network.table_bytes", "B", "network.table_bytes", "count"),
    ("network.expectation_calls", "count", "network.expectation", "calls"),
    ("network.expectation_s", "s", "network.expectation", "incl"),
    ("network.signed_sum_calls", "count", "network.signed_sum", "calls"),
    ("bell.evaluate_calls", "count", "bell.evaluate", "calls"),
    ("bell.evaluate_s", "s", "bell.evaluate", "incl"),
    ("decomp.delta_set_calls", "count", "decomp.delta_set", "calls"),
    ("decomp.f_coeffs_s", "s", "decomp.f_coeffs", "incl"),
    ("certify.stats_s", "s", "certify.certify:stats", "incl"),
    ("certify.check_rows", "count", "certify.check_rows", "count"),
    ("certify.failed_rows", "count", "certify.failed_rows", "count"),
    ("certify.full_s", "s", "certify.certify:full", "incl"),
    ("extract.extract_all_calls", "count", "extract.extract_all", "calls"),
    ("extract.extract_all_s", "s", "extract.extract_all", "incl"),
    ("extract.branch_of_calls", "count", "extract.branch_of", "calls"),
    ("extract.effective_s", "s", "extract.verify_effective_measurements", "incl"),
    ("extract.unitary_s", "s", "extract.verify_unitary_certificate", "incl"),
    ("network.validate_calls", "count", "network.validate_realization", "calls"),
    ("bell.seesaw_s", "s", "bell.seesaw_max", "incl"),
    ("bell.seesaw_iters", "count", "bell.seesaw_iters", "count"),
    ("bell.classical_bound_s", "s", "bell.classical_bound", "incl"),
    ("adversary.apply_s", "s", "adversary.apply_adversary", "incl"),
    ("cli.simulate_s", "s", "cli.cmd_simulate", "incl"),
    ("cli.certify_s", "s", "cli.cmd_certify", "incl"),
)
# Derived and self-time metrics, listed here so that every name is declared once.
RATIO_METRIC = ("network.rows_read_ratio", "ratio")
SELF_METRICS = tuple((f"{layer}.self_s", "s") for layer in LAYERS + ("bench",))
TRACED_RATE = ("bench.traced_jobs_per_s", "1/s")


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    return [(m, u) for m, u, _, _ in METRICS] + [RATIO_METRIC, *SELF_METRICS, TRACED_RATE]


def exact_metrics() -> list[str]:
    """Metrics that are counts and must repeat exactly between traced runs."""
    return [m for m, _, _, kind in METRICS if kind != "incl"]


# Share of a job's time predicted for each workload when the benchmark was
# defined, from measurements of the initial code; a sum of metrics is
# written with "+".
PREDICTED_SHARE = {
    "network.born_table_s": {"kernel": 0.98, "roundtrip": 0.03, "verify": 0.10, "bounds": 0.0},
    "network.save_table_s+network.load_table_s": {"kernel": 0.0, "roundtrip": 0.95, "verify": 0.0, "bounds": 0.0},
    "certify.stats_s+certify.full_s": {"kernel": 0.02, "roundtrip": 0.015, "verify": 0.90, "bounds": 0.0},
    "bell.seesaw_s": {"kernel": 0.0, "roundtrip": 0.0, "verify": 0.0, "bounds": 0.93},
    "bell.classical_bound_s": {"kernel": 0.0, "roundtrip": 0.0, "verify": 0.0, "bounds": 0.07},
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.job_id = array("l")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._depth: list[int] = []
        self._job = -1
        self._in_certify = 0
        self._rows_read: set = set()
        self._restore: list = []

    # --- recording ---------------------------------------------------------

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def _open(self, idx: int) -> int:
        sid = len(self.start)
        self.name_id.append(idx)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job_id.append(self._job)
        self.outer.append(self._depth[idx] == 0)
        self._depth[idx] += 1
        self._stack.append(sid)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return sid

    def _close(self, sid: int, idx: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()
        self._depth[idx] -= 1

    @contextmanager
    def job(self, job_id: int):
        """Root span of one job; wrapped calls inside it are recorded."""
        self._job = job_id
        idx = self._name("job")
        sid = self._open(idx)
        try:
            yield
        finally:
            self._close(sid, idx)
            self._job = -1
            self.counts["network.rows_read"] += len(self._rows_read)
            self._rows_read.clear()

    def _wrap(self, fn, name, after=None):
        idx = self._name(name)
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._job < 0:
                return fn(*args, **kwargs)
            sid = tracer._open(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(sid, idx)
            if after is not None:
                after(tracer, out, signature.bind(*args, **kwargs).arguments)
            return out

        return wrapper

    def _wrap_certify(self, fn):
        """``certify`` records a stats or a full span, depending on whether a
        realization is passed, and marks the region whose table reads count
        as rows read."""
        stats, full = self._name("certify.certify:stats"), self._name("certify.certify:full")
        tracer = self

        @functools.wraps(fn)
        def wrapper(table, u, *args, **kwargs):
            if tracer._job < 0:
                return fn(table, u, *args, **kwargs)
            real = kwargs["realization"] if "realization" in kwargs else (args[1] if len(args) > 1 else None)
            idx = stats if real is None else full
            sid = tracer._open(idx)
            tracer._in_certify += 1
            try:
                report = fn(table, u, *args, **kwargs)
            finally:
                tracer._in_certify -= 1
                tracer._close(sid, idx)
            tracer.counts["certify.check_rows"] += len(report.checks)
            tracer.counts["certify.failed_rows"] += len(report.failed())
            return report

        return wrapper

    # --- installing --------------------------------------------------------

    def _patch(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    @contextmanager
    def installed(self):
        modules = {layer: importlib.import_module(f"gatecert.{layer}") for layer in LAYERS}
        namespaces = [m for name, m in sorted(sys.modules.items()) if name == "gatecert" or name.startswith("gatecert.")]
        try:
            for layer, mod in modules.items():
                for name, fn in list(vars(mod).items()):
                    if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                        continue
                    if (layer, name) == ("certify", "certify"):
                        wrapped = self._wrap_certify(fn)
                    else:
                        wrapped = self._wrap(fn, f"{layer}.{name}", _AFTER.get(f"{layer}.{name}"))
                    for ns in namespaces:
                        for key in [k for k, v in vars(ns).items() if v is fn]:
                            self._patch(ns, key, wrapped)
            table_cls = modules["network"].ProbabilityTable
            self._patch(table_cls, "signed_sum", self._wrap(table_cls.signed_sum, "network.signed_sum"))
            self._patch(table_cls, "array", self._wrap(table_cls.array, "network.array", _after_array))
            yield self
        finally:
            while self._restore:
                setattr(*self._restore.pop())

    # --- analysis ----------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.array(self.parent, dtype=np.int64)
        dur = end - start
        covered = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        return {
            "name_id": np.array(self.name_id),
            "parent": parent,
            "job_id": np.array(self.job_id),
            "outer": np.array(self.outer, dtype=bool),
            "start": start.copy(),
            "end": end.copy(),
            "self": dur - covered,
        }

    def save(self, path: str) -> None:
        """Write every span and the name table, compressed."""
        np.savez_compressed(path, names=np.array(self.names), **self.spans())

    def metrics(self, attempted: int) -> tuple[dict[str, float], dict[str, float], dict[str, str]]:
        """Per-job per-layer metrics, each metric's share of job time, and
        the reason for every metric that does not apply to this run."""
        sp = self.spans()
        dur = sp["end"] - sp["start"]
        by_name = {name: sp["name_id"] == idx for name, idx in self._ids.items()}
        none = np.zeros(len(dur), dtype=bool)
        job_time = float(dur[by_name.get("job", none)].sum())
        out: dict[str, float] = {}
        for metric, _, source, kind in METRICS:
            mask = by_name.get(source, none)
            if kind == "incl":
                total = float(dur[mask & sp["outer"]].sum())
            elif kind == "calls":
                total = float(mask.sum())
            else:
                total = float(self.counts[source])
            out[metric] = total / attempted
        absent = {}
        if out["network.settings_rows"]:
            out[RATIO_METRIC[0]] = out["network.rows_read"] / out["network.settings_rows"]
        else:
            out[RATIO_METRIC[0]] = 0.0
            absent[RATIO_METRIC[0]] = "no table is simulated on this workload"
        layer_of = np.array(["bench" if n == "job" else n.split(".")[0] for n in self.names])
        span_layer = layer_of[sp["name_id"]]
        for metric, _ in SELF_METRICS:
            layer = metric.split(".")[0]
            out[metric] = float(sp["self"][span_layer == layer].sum()) / attempted
        shares = {}
        for key in PREDICTED_SHARE:
            shares[key] = sum(out[m] for m in key.split("+")) * attempted / job_time if job_time else 0.0
        for metric, _ in SELF_METRICS:
            shares[metric] = out[metric] * attempted / job_time if job_time else 0.0
        return out, shares, absent


def _after_born_table(tracer: Tracer, table, arguments) -> None:
    tracer.counts["network.settings_rows"] += len(table.entries)
    tracer.counts["network.probabilities"] += sum(arr.size for arr in table.entries.values())


def _after_apply_raw_batch(tracer: Tracer, out, arguments) -> None:
    """Computed, not measured: 8 real flops per complex multiply-add of the
    batched contraction, (stacked operators) x (rows) x (state dim) x (d)."""
    block, dims, mats = arguments["block"], arguments["dims"], arguments["mats"]
    d = int(np.prod([dims[s] for s in arguments["sites"]]))
    tracer.counts["tensor.batch_flops"] += 8 * len(mats) * block.shape[0] * block.shape[1] * d


def _after_save_table(tracer: Tracer, out, arguments) -> None:
    tracer.counts["network.table_bytes"] += os.path.getsize(arguments["path"])


def _after_seesaw(tracer: Tracer, result, arguments) -> None:
    tracer.counts["bell.seesaw_iters"] += result.iterations


def _after_array(tracer: Tracer, out, arguments) -> None:
    if tracer._in_certify:
        table = arguments["self"]
        tracer._rows_read.add((id(table), table._norm_key(arguments["key"])))


_AFTER = {
    "network.born_table": _after_born_table,
    "tensor.apply_raw_batch": _after_apply_raw_batch,
    "network.save_table": _after_save_table,
    "bell.seesaw_max": _after_seesaw,
}
