"""The timed run (``--trace 0``): end-to-end metrics of one workload.

1. Build the library oracle(s) and draw the probe set and client op
   lists from the seed.
2. Set up the deployment :data:`SETUPS` times — spawn ``serve``, wait
   for ``/ready``, ``load_dataset``, answer one warm-up per op type and
   metric, drawn from a fixed seed — and report the median as
   ``setup_s``.  Only the last deployment is kept.
3. Identity gate over the probe set, then the closed-loop timed phase
   (tracing off), failure accounting against ``/health``, peak RSS.
4. ``ingest`` only: SIGKILL, restart on the same data directory and
   check the recovered state (``recovery.s``).
"""

from __future__ import annotations

import statistics
import threading
import time
from pathlib import Path

import numpy as np

from perfbench import checks
from perfbench.deploy import ServeProcess
from perfbench.load import p50, run_closed_loop, tail
from perfbench.workloads import CLASSES, RequestFactory, client_ops, probe_set

#: Deployments set up per run; ``setup_s`` is their median.
SETUPS = 5

#: Ops in each client's fixed list (replayed cyclically if exhausted).
OPS_PER_CLIENT = 4000


def set_up(
    server: ServeProcess,
    load_params: dict,
    setup_ops: list[dict],
    warm: list[dict],
    clients: int,
) -> float:
    """Spawn, become ready, load, run *setup_ops* and warm up.

    Returns the seconds taken.  With a worker pool each warm-up list is
    sent from one thread per worker at once, so every worker builds its
    lazy per-metric state.
    """
    started = time.perf_counter()
    server.spawn()
    server.wait_ready()
    client = server.client()
    client.call("load_dataset", load_params)
    for op in setup_ops:
        client.call(op["op"], op["params"])
    errors: list[BaseException] = []

    def send() -> None:
        client = server.client()
        try:
            for op in warm:
                client.call(op["op"], op["params"])
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=send) for _ in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return time.perf_counter() - started


def timed_run(workload, seed: int, seconds: float, root: Path, workdir: Path) -> dict:
    phases = {"start": time.perf_counter()}
    rng = np.random.default_rng(seed)
    load_params = workload.data.load_params(workdir)
    oracle = checks.Oracle(workload.mode, load_params)
    name = oracle.name
    factory = RequestFactory(oracle.raw_dataset, workload.data, rng)
    probes = probe_set(workload, factory)
    op_lists = client_ops(workload, probes, factory, OPS_PER_CLIENT)
    # The ingest deployment carries one standing monitor on a live series.
    setup_ops = [factory.monitor_op(), factory.poll_op()] if workload.writer else []
    # Warm-ups come from a fixed seed: set-up does the same work whatever
    # the workload seed, so setup_s moves only with the deployment.
    fixed = RequestFactory(oracle.raw_dataset, workload.data, np.random.default_rng(0))
    warm = [fixed.read_op(kind) for kind, _ in workload.mix]
    problems: list[str] = []
    phases["oracle"] = time.perf_counter()

    setups: list[float] = []
    server = None
    try:
        for i in range(SETUPS):
            if server is not None:
                server.stop()
            data_dir = workdir / f"data-{i}" if workload.writer else None
            server = ServeProcess(root, workdir, f"{workload.name}-{i}",
                                  workload.serve_args(data_dir))
            setups.append(set_up(server, load_params, setup_ops, warm,
                                 max(1, workload.workers)))
        phases["setups"] = time.perf_counter()
        client = server.client()
        answers, gate_problems = checks.identity_gate(client, oracle, probes)
        problems += gate_problems
        expected = {
            p["probe"]: checks.canonical(a, p["op"]) for p, a in zip(probes, answers)
        }
        live = {s: list(map(float, oracle.raw_dataset[s].values)) for s in factory.live}

        phases["gate"] = time.perf_counter()
        before = server.health()
        clients = [server.client(), server.client()]
        load = run_closed_loop(clients, op_lists, seconds)
        after = server.health()
        phases["timed"] = time.perf_counter()
        problems += checks.account_failures(load, before, after)
        problems += check_answers(workload, load.answers, expected, live)
        rss_mb = server.peak_rss_mb()
        recovery_s = None
        if workload.writer:
            recovery_s, lost = checks.durability_check(server, name, live)
            problems += lost
    finally:
        if server is not None:
            server.stop()
    phases["checks"] = time.perf_counter()

    by_class = {c: load.latencies(c) for c in CLASSES}
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_ops_s": (load.throughput, "ops/s"),
        "search_p50_ms": (p50(by_class["search"]), "ms"),
        "server_rss_mb": (rss_mb, "MB"),
    }
    info = {
        "error_rate": (load.failed / load.attempted if load.attempted else None, "ratio"),
        "recovery.s": (recovery_s, "s"),
        "shed": (after["shed"] - before["shed"], "count"),
    }
    for c in CLASSES:
        if by_class[c]:
            info[f"{c}_p50_ms"] = (p50(by_class[c]), "ms")
            info[f"{c}_p95_ms"] = (tail(by_class[c]), "ms")
            info[f"{c}_samples"] = (len(by_class[c]), "count")
    for key, (value, _unit) in metrics.items():
        if value is None:
            problems.append(f"{key} could not be measured")
    return {
        "metrics": metrics,
        "info": info,
        "attempted": load.attempted,
        "failed": load.failed,
        "problems": problems,
        "details": {
            "setups_s": setups,
            "phase_s": {
                b: round(phases[b] - phases[a], 3)
                for a, b in zip(list(phases), list(phases)[1:])
            },
            "probes": len(probes),
            "wall_s": load.wall_s,
            "dataset": oracle.load_result,
            "failures": sorted({s.error for s in load.samples if s.error})[:10],
        },
    }


def check_answers(workload, answers, expected: dict, live: dict) -> list[str]:
    """Check every timed answer; on ``ingest`` also collect acked appends.

    Read-only workloads never change the base, so each answer must equal
    the gate's verified answer for that probe byte for byte.  On
    ``ingest`` reads race appends, so they are checked for shape, and
    each acknowledged append extends *live* (the expected series values
    the durability check compares against).
    """
    problems = []
    for op, result in answers:
        if op["op"] == "append_points":
            live[op["params"]["series"]].extend(op["params"]["values"])
        elif workload.writer:
            if not _well_formed(op, result):
                problems.append(f"malformed {op['op']} answer under ingest")
        elif checks.canonical(result, op["op"]) != expected[op["probe"]]:
            problems.append(
                f"timed answer to probe {op['probe']} ({op['op']}) differs "
                "from the verified answer"
            )
    return problems[:20]


def _well_formed(op: dict, result) -> bool:
    if op["op"] == "k_best":
        distances = [m["distance"] for m in result["matches"]]
        return 0 < len(distances) <= op["params"]["k"] and distances == sorted(distances)
    if op["op"] == "seasonal":
        return result.get("view") == "seasonal"
    if op["op"] == "poll_events":
        return isinstance(result.get("events"), list)
    return True
