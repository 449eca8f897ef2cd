"""The traced run (``--trace 1``): per-layer metrics, measured from outside.

Separate from the timed runs.  One client, sequentially, sends every
probe (the workload's probe set plus one read of every op type and
registry metric, then a fixed block of writes) through the four entry
points of :mod:`perfbench.layers`.  Each layer's self time is the
difference between adjacent entry points, per op class (median over the
class's probes).  Per-stage cascade times come from the service's
existing ``explain: true`` payload, counts from
``engine.last_query_stats``, kernel costs from the public
``repro.distances`` batch kernels on member stacks of the workload's
base.  Tracing overhead is the traced pass against an untraced replay of
the same probes.  Every layer's answer must match the library's.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from perfbench import checks
from perfbench.deploy import ServeProcess
from perfbench.layers import (
    LAYERS,
    Spans,
    library_call,
    library_comparable,
    served_comparable,
    service_call,
    wire,
)
from perfbench.load import p50, run_closed_loop
from perfbench.timed import OPS_PER_CLIENT, set_up
from perfbench.workloads import (
    CLASSES,
    OPS,
    REGISTRY_METRICS,
    RequestFactory,
    client_ops,
    coverage_reads,
    probe_set,
)
from repro.core.config import QueryConfig
from repro.core.engine import OnexEngine
from repro.distances import dtw_distance_batch, keogh_envelope, lb_keogh_batch
from repro.durability import DurabilityManager
from repro.obs.trace import new_request_id
from repro.server.service import OnexService

#: Ops that carry the query processor's cascade counters.
_CASCADE_OPS = ("k_best", "best_match", "query_batch", "matches_within")

#: Appends in the traced write block.
TRACE_APPENDS = 5

#: Cascade stages read from the explain span tree.
STAGES = ("cascade.rep_bounds", "cascade.rep_dtw", "cascade.refine")


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    names: list[tuple[str, str]] = []
    for c in CLASSES:
        names += [(f"http.self_ms.{c}", "ms"), (f"http.response_kb.{c}", "kB"),
                  (f"service.self_ms.{c}", "ms"), (f"pool.dispatch_ms.{c}", "ms")]
    names += [("gate.shed", "count")]
    names += [(f"concurrency.inflation.{c}", "ratio") for c in ("search", "scan")]
    names += [("pool.publish_ms", "ms"), ("pool.publishes", "count"),
              ("pool.snapshot_mb", "MB"), ("pool.restarts", "count"),
              ("pool.failovers", "count")]
    names += [(f"engine.ms.{op}", "ms") for op in OPS]
    names += [("cascade.rep_bounds_ms", "ms"), ("cascade.rep_dtw_ms", "ms"),
              ("cascade.refine_ms", "ms"), ("query.rep_dtw_calls", "count"),
              ("query.rep_lb_prune_ratio", "ratio"), ("query.members_scanned", "count"),
              ("query.member_lb_prune_ratio", "ratio"),
              ("query.member_dtw_calls", "count"),
              ("query.fast_distance_ratio", "ratio")]
    for metric in REGISTRY_METRICS:
        names += [(f"registry.scan_ms.{metric}", "ms"),
                  (f"query.member_dtw_calls.{metric}", "count")]
    names += [("kernel.dtw_batch_us_per_pair", "us"),
              ("kernel.lb_keogh_us_per_row", "us"),
              ("analytics.seasonal_ms", "ms"), ("analytics.sensitivity_ms", "ms"),
              ("analytics.matches_within_ms", "ms"),
              ("build.base_s", "s"), ("build.groups", "count"),
              ("build.subsequences", "count"),
              ("stream.append_ms", "ms"), ("stream.monitor_events", "count"),
              ("wal.append_ms", "ms"), ("wal.bytes_per_point", "B"),
              ("checkpoint.count", "count"), ("recovery.s", "s"),
              ("trace.overhead_pct", "%")]
    return names


def warmups(probes: list[dict]) -> list[dict]:
    """One probe per (op, metric) kind."""
    seen, out = set(), []
    for op in probes:
        kind = (op["op"], op["params"].get("metric"))
        if kind not in seen:
            seen.add(kind)
            out.append(op)
    return out


def _median(values) -> float | None:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _stage_ms(node: dict, name: str) -> float:
    """Summed duration of every span called *name* in an explain tree."""
    own = node.get("duration_ms", 0.0) if node["name"] == name else 0.0
    return own + sum(_stage_ms(child, name) for child in node.get("children", ()))


class _Layers:
    """The four entry points over one workload, and per-call records."""

    def __init__(self, engine, name, service, http, pool, spans: Spans) -> None:
        self.engine, self.name, self.service = engine, name, service
        self.clients = {"http": http.client(), "pool": pool.client()}
        self.spans = spans
        self.rows: list[dict] = []
        self.problems: list[str] = []

    def call(self, layer: str, op: dict, request_id: str):
        """One call into *layer*'s entry point; returns its raw answer."""
        if layer == "library":
            return library_call(self.engine, self.name, op["op"], op["params"])
        if layer == "service":
            return service_call(self.service, op["op"], op["params"], request_id)
        return self.clients[layer].call(op["op"], op["params"])

    def probe(self, op: dict) -> dict:
        """Send *op* through every layer under one root span.

        Only the entry-point call is inside each layer's span; answers
        are projected for comparison after the span closes.
        """
        row = {"op": op, "ms": {}, "answers": {}}
        request_id = f"perfbench-{len(self.rows)}"
        raw = {}
        with self.spans.span(f"probe.{op['op']}", request_id=request_id) as root:
            for layer in LAYERS:
                with self.spans.span(layer, parent=root["id"], request_id=request_id) as sp:
                    raw[layer] = self.call(layer, op, request_id)
                row["ms"][layer] = self.spans.duration_ms(sp)
                if layer == "library" and op["op"] in _CASCADE_OPS:
                    row["stats"] = self.engine.last_query_stats(self.name)
        name, kind, params = self.name, op["op"], op["params"]
        row["answers"]["library"] = library_comparable(
            self.engine, name, kind, params, raw["library"])
        result, row["bytes"] = wire(raw["service"])
        row["answers"]["service"] = served_comparable(kind, result)
        for layer in ("http", "pool"):
            row["answers"][layer] = served_comparable(kind, raw[layer])
        self._compare(row)
        self.rows.append(row)
        return row

    def replay(self, op: dict) -> None:
        for layer in LAYERS:
            self.call(layer, op, "perfbench-replay")

    def _compare(self, row: dict) -> None:
        op = row["op"]
        want = checks.canonical(row["answers"]["library"], op["op"])
        for layer in LAYERS[1:]:
            if checks.canonical(row["answers"][layer], op["op"]) != want:
                self.problems.append(
                    f"{op['op']} {op['params'].get('metric', 'dtw')}: {layer} "
                    "answer differs from the library's"
                )


def kernel_costs(base, rng, repeats: int = 7) -> tuple[float, float]:
    """Microseconds per DTW pair and per LB_Keogh row on a member stack."""
    lengths = base.lengths
    bucket = base.bucket(lengths[len(lengths) // 2])
    rows = bucket.stacked_member_matrix(base.dataset)[:2048]
    query = rows[int(rng.integers(len(rows)))]
    lower, upper = keogh_envelope(query, bucket.length - 1)

    def best(fn) -> float:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    dtw_us = best(lambda: dtw_distance_batch(query, rows)) / len(rows) * 1e6
    lb_us = best(lambda: lb_keogh_batch(rows, lower, upper)) / len(rows) * 1e6
    return dtw_us, lb_us


def traced_run(workload, seed: int, seconds: float, root: Path, workdir: Path,
               spans_path: Path) -> dict:
    rng = np.random.default_rng(seed)
    data = workload.data
    load_params = data.load_params(workdir)
    metrics: dict = {}

    # Library: build timed from outside.
    engine = OnexEngine(QueryConfig(mode=workload.mode))
    dataset = data.dataset(workdir)
    t0 = time.perf_counter()
    stats = engine.load_dataset(dataset, **data.load_options())
    metrics["build.base_s"] = time.perf_counter() - t0
    metrics["build.groups"] = stats.groups
    metrics["build.subsequences"] = stats.subsequences
    name = dataset.name
    metrics["kernel.dtw_batch_us_per_pair"], metrics["kernel.lb_keogh_us_per_row"] = (
        kernel_costs(engine.base(name), rng))

    # Every request is drawn before any layer mutates its copy.
    factory = RequestFactory(engine.base(name).raw_dataset, data, rng)
    probes = probe_set(workload, factory)
    reads = probes[: workload.trace_probes] + coverage_reads(factory)
    writes = ([factory.monitor_op("trace")]
              + [factory.append_op(0) for _ in range(TRACE_APPENDS)]
              + [factory.poll_op()])
    op_lists = client_ops(workload, probes, factory, OPS_PER_CLIENT)
    wal_appends = [factory.append_op(0) for _ in range(TRACE_APPENDS)]

    durability = DurabilityManager(workdir / "service-data",
                                   checkpoint_every=workload.checkpoint_every)
    service = OnexService(QueryConfig(mode=workload.mode), durability=durability)
    checks.load_into(service, load_params)
    # Both HTTP deployments are durable, like the in-process service, so
    # adjacent layers differ only by the layer itself.
    single = ServeProcess(root, workdir, "trace-single", replace(
        workload, workers=0).serve_args(workdir / "data-single"))
    pooled = ServeProcess(root, workdir, "trace-pool", replace(
        workload, workers=2).serve_args(workdir / "data-pool"))
    spans = Spans()
    problems: list[str] = []
    attempted = failed = 0
    try:
        warm = warmups(reads)
        for server in (single, pooled):
            set_up(server, load_params, [], warm, 2)
        layers = _Layers(engine, name, service, single, pooled, spans)
        for op in warm:  # the in-process layers get the same warm-up
            library_call(engine, name, op["op"], op["params"])
            service_call(service, op["op"], op["params"], "perfbench-warm")

        # (a) reads through all four layers, traced; then untraced replay.
        read_rows = [layers.probe(op) for op in reads]
        traced_s = sum(
            s["end"] - s["start"] for s in spans.records if s["parent"] is None)
        t0 = time.perf_counter()
        for op in reads:
            layers.replay(op)
        replay_s = time.perf_counter() - t0
        metrics["trace.overhead_pct"] = (traced_s / replay_s - 1.0) * 100.0
        for row in read_rows:
            row["explain"] = _explain(service, row["op"])

        # (b) the write block through all four layers.
        write_rows = [layers.probe(op) for op in writes]
        rows = read_rows + write_rows
        attempted += 2 * len(LAYERS) * len(reads) + len(LAYERS) * len(writes)
        problems += layers.problems
        _layer_metrics(metrics, rows)
        _cascade_metrics(metrics, read_rows)
        metrics["query.fast_distance_ratio"] = _distance_ratio(
            read_rows, workload.mode, data, workdir)
        _engine_metrics(metrics, rows, name, engine)

        # (c) the workload's closed loop on its own deployment.
        target = pooled if workload.workers else single
        seq_layer = "pool" if workload.workers else "http"
        before = target.health()
        load = run_closed_loop([target.client(), target.client()], op_lists, seconds)
        after = target.health()
        attempted += load.attempted
        failed += load.failed
        problems += checks.account_failures(load, before, after)
        metrics["gate.shed"] = after["shed"] - before["shed"]
        for c in ("search", "scan"):
            seq = p50([r["ms"][seq_layer] for r in read_rows if r["op"]["cls"] == c])
            timed = p50(load.latencies(c))
            metrics[f"concurrency.inflation.{c}"] = (
                timed / seq if timed is not None and seq else None)

        # (d) pool publication, then kill -9 and recovery.
        _pool_metrics(metrics, pooled, name, factory, workdir)
        client = pooled.client()
        live = {s: checks.series_values(client, name, s) for s in factory.live}
        metrics["recovery.s"], lost = checks.durability_check(pooled, name, live)
        problems += lost

        # (e) WAL cost: durable service append against a plain one.
        _wal_metrics(metrics, workload.mode, service, durability, load_params,
                     writes, wal_appends)
    finally:
        single.stop()
        pooled.stop()
        durability.close()
        spans.dump(spans_path)

    names = per_layer_names()
    for key, _unit in names:
        if metrics.get(key) is None:
            problems.append(f"{key} could not be measured")
    return {
        "metrics": {key: (metrics.get(key), unit) for key, unit in names},
        "info": {},
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "details": {"spans": str(spans_path), "probes": len(reads) + len(writes)},
    }


def _explain(service, op: dict) -> dict | None:
    if op["op"] not in _CASCADE_OPS:
        return None
    response = service_call(service, op["op"], {**op["params"], "explain": True},
                            "perfbench-explain")
    return wire(response)[0]["explain"]


def _layer_metrics(metrics: dict, rows: list[dict]) -> None:
    for c in CLASSES:
        mine = [r for r in rows if r["op"]["cls"] == c]
        diff = lambda a, b: _median(r["ms"][a] - r["ms"][b] for r in mine)  # noqa: E731
        metrics[f"service.self_ms.{c}"] = diff("service", "library")
        metrics[f"http.self_ms.{c}"] = diff("http", "service")
        metrics[f"pool.dispatch_ms.{c}"] = diff("pool", "http")
        metrics[f"http.response_kb.{c}"] = _median(r["bytes"] / 1024 for r in mine)


def _dtw_search(row: dict) -> bool:
    op = row["op"]
    return op["cls"] == "search" and op["params"].get("metric", "dtw") == "dtw"


def _cascade_metrics(metrics: dict, rows: list[dict]) -> None:
    searches = [r for r in rows if _dtw_search(r)]
    for stage in STAGES:
        key = stage + "_ms"
        metrics[key] = _median(_stage_ms(r["explain"]["spans"], stage) for r in searches)
    stats = [r["stats"] for r in searches]
    if stats:
        total = {k: sum(s[k] for s in stats) for k in stats[0]}
        n = len(stats)
        metrics["query.rep_dtw_calls"] = total["rep_dtw_calls"] / n
        metrics["query.members_scanned"] = total["members_scanned"] / n
        metrics["query.member_dtw_calls"] = total["member_dtw_calls"] / n
        metrics["query.rep_lb_prune_ratio"] = (
            total["rep_lb_prunes"] / total["representatives_total"]
            if total["representatives_total"] else 0.0)
        metrics["query.member_lb_prune_ratio"] = (
            total["member_lb_prunes"] / total["members_scanned"]
            if total["members_scanned"] else 0.0)
    for metric in REGISTRY_METRICS:
        mine = [r for r in rows if r["op"]["params"].get("metric") == metric]
        metrics[f"registry.scan_ms.{metric}"] = _median(
            _stage_ms(r["explain"]["spans"], "cascade.metric_scan") for r in mine)
        metrics[f"query.member_dtw_calls.{metric}"] = _median(
            r["stats"]["member_dtw_calls"] for r in mine)


def _distance_ratio(rows: list[dict], mode: str, data, workdir: Path) -> float | None:
    """Geometric mean of served ÷ exact k-th match distance.

    Over the DTW searches, served by the pool; the exact distance comes
    from the library in ``mode="exact"`` (the library layer's own answer
    when the workload already runs exact, so the ratio is 1.0 by
    construction).  The geometric mean, because a fast-mode miss can be
    orders of magnitude off on a single probe.
    """
    exact = None
    if mode != "exact":
        exact = OnexEngine(QueryConfig(mode="exact"))
        exact.load_dataset(data.dataset(workdir), **data.load_options())
    logs = []
    for row in rows:
        if not _dtw_search(row):
            continue
        op, want = row["op"], row["answers"]["library"]
        if exact is not None:
            name = exact.dataset_names[0]
            want = library_comparable(exact, name, op["op"], op["params"], library_call(
                exact, name, op["op"], op["params"]))
        served, truth = row["answers"]["pool"][-1][3], want[-1][3]
        if truth > 0:
            logs.append(math.log(served / truth))
    return math.exp(sum(logs) / len(logs)) if logs else None


def _engine_metrics(metrics, rows, name, engine) -> None:
    for op in OPS:
        metrics[f"engine.ms.{op}"] = _median(
            r["ms"]["library"] for r in rows if r["op"]["op"] == op)
    metrics["analytics.seasonal_ms"] = metrics["engine.ms.seasonal"]
    metrics["analytics.sensitivity_ms"] = metrics["engine.ms.sensitivity"]
    metrics["analytics.matches_within_ms"] = metrics["engine.ms.matches_within"]
    metrics["stream.append_ms"] = metrics["engine.ms.append_points"]
    metrics["stream.monitor_events"] = len(engine.poll_events(name))


def _pool_metrics(metrics, pooled: ServeProcess, name, factory, workdir: Path) -> None:
    """Publication cost (first read after a write − repeat read) and counts."""
    client = pooled.client()
    preview = {"dataset": name, "series": factory.live[0], "start": 0, "length": 2}
    deltas = []
    for _ in range(3):
        append = factory.append_op(0)
        client.call(append["op"], append["params"])
        t0 = time.perf_counter()
        client.call("query_preview", preview)
        t1 = time.perf_counter()
        client.call("query_preview", preview)
        t2 = time.perf_counter()
        deltas.append(((t1 - t0) - (t2 - t1)) * 1e3)
    metrics["pool.publish_ms"] = statistics.median(deltas)
    scraped = pooled.scrape()
    metrics["pool.publishes"] = scraped.get("onex_pool_snapshot_publish_total", 0.0)
    metrics["checkpoint.count"] = scraped.get("onex_checkpoints_total", 0.0)
    pool = pooled.health()["pool"]
    # A slot's counter includes its first spawn; only later ones are restarts.
    metrics["pool.restarts"] = sum(max(0, w["restarts"] - 1) for w in pool["workers"])
    metrics["pool.failovers"] = pool["failovers"]
    epochs = [p for p in (workdir / "snapshots-trace-pool").glob("*/epoch-*") if p.is_dir()]
    newest = max(epochs, key=lambda p: int(p.name.split("-")[1]))
    metrics["pool.snapshot_mb"] = sum(
        f.stat().st_size for f in newest.rglob("*") if f.is_file()) / 2**20


def _wal_metrics(metrics, mode, service, durability, load_params, writes,
                 appends) -> None:
    """Durable append − plain append (median), and WAL bytes per point.

    The plain service first replays the traced *writes*, so both carry
    the same monitor and series state when the *appends* are timed.
    """
    plain = OnexService(QueryConfig(mode=mode))
    name = checks.load_into(plain, load_params)["dataset"]
    for op in writes:
        service_call(plain, op["op"], op["params"], new_request_id())
    durable_ms, plain_ms, per_point = [], [], []
    for op in appends:
        size0 = durability.status()[name]["wal_bytes"]
        t0 = time.perf_counter()
        service_call(service, op["op"], op["params"], new_request_id())
        t1 = time.perf_counter()
        service_call(plain, op["op"], op["params"], new_request_id())
        t2 = time.perf_counter()
        durable_ms.append((t1 - t0) * 1e3)
        plain_ms.append((t2 - t1) * 1e3)
        grown = durability.status()[name]["wal_bytes"] - size0
        if grown > 0:  # a checkpoint compacts the log instead
            per_point.append(grown / len(op["params"]["values"]))
    metrics["wal.append_ms"] = statistics.median(durable_ms) - statistics.median(plain_ms)
    metrics["wal.bytes_per_point"] = _median(per_point)
