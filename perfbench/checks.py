"""Correctness checks: the identity gate, answer quality and durability.

- **Identity gate.**  Every probe's served result JSON must be
  byte-identical (canonical JSON) to the in-process library answer
  under the same :class:`~repro.core.config.QueryConfig`.  The oracle is
  an in-process :class:`~repro.server.service.OnexService` built with the
  mode ``serve`` passes to both its own service and its pool workers.
- **Durability.**  SIGKILL the deployment, restart it on the same data
  directory, and require the recovered structure fingerprint to equal
  the pre-kill one with every acknowledged append present.
- **Failure accounting.**  Client-side failures are cross-checked
  against the server's ``/health`` shed and handled counters.
"""

from __future__ import annotations

import json
import threading
import time

from repro.core.config import QueryConfig
from repro.server.protocol import Request
from repro.server.service import OnexService


def canonical(result, op: str | None = None) -> str:
    """The byte form results are compared in.

    ``describe`` reports how long the build took (``build_seconds`` and a
    per-length ``seconds``); those wall-clock readings are dropped, every
    other field is compared.
    """
    if op == "describe" and isinstance(result, dict):
        result = dict(result)
        result.pop("build_seconds", None)
        result["per_length"] = [
            {k: v for k, v in row.items() if k != "seconds"}
            for row in result.get("per_length", ())
        ]
    return json.dumps(result, sort_keys=True, separators=(",", ":"))


def load_into(service: OnexService, load_params: dict) -> dict:
    """Send ``load_dataset`` to an in-process service; returns its result."""
    loaded = service.handle(Request("load_dataset", dict(load_params)))
    if not loaded.ok:
        raise RuntimeError(f"load_dataset failed: {loaded.error_message}")
    return loaded.result


class Oracle:
    """In-process service over the library engine, loaded like the server."""

    def __init__(self, mode: str, load_params: dict) -> None:
        self.service = OnexService(QueryConfig(mode=mode))
        self.load_result = load_into(self.service, load_params)
        self.name = self.load_result["dataset"]

    @property
    def raw_dataset(self):
        return self.service.engine.base(self.name).raw_dataset

    def answer(self, op: dict):
        response = self.service.handle(Request(op["op"], op["params"]))
        if not response.ok:
            raise RuntimeError(
                f"oracle {op['op']} failed: {response.error_type}: "
                f"{response.error_message}"
            )
        # Round-trip through the wire format so numpy scalars and tuples
        # compare as the client sees them.
        return json.loads(response.to_json())["result"]


def served_answers(client, probes: list[dict]) -> tuple[list, list[str]]:
    """Send every probe once, sequentially; returns (results, errors)."""
    results, errors = [], []
    for op in probes:
        try:
            results.append(client.call(op["op"], op["params"]))
        except Exception as exc:
            results.append(None)
            errors.append(f"probe {op['probe']} {op['op']}: {type(exc).__name__}: {exc}")
    return results, errors


def identity_gate(client, oracle: Oracle, probes: list[dict]):
    """Serve *probes* while the oracle answers them in this thread.

    Returns ``(oracle answers, mismatches)``.
    """
    box: dict = {}

    def serve() -> None:
        box["served"] = served_answers(client, probes)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    answers = [oracle.answer(op) for op in probes]
    thread.join()
    served, problems = box["served"]
    for op, got, want in zip(probes, served, answers):
        if got is not None and canonical(got, op["op"]) != canonical(want, op["op"]):
            problems.append(
                f"probe {op['probe']} {op['op']} "
                f"{op['params'].get('metric', 'dtw')}: served answer differs "
                "from the library's"
            )
    return answers, problems


def account_failures(load, before: dict, after: dict) -> list[str]:
    """Cross-check client-side failure counts against ``/health``.

    Every request the server recorded as handled or shed was attempted
    by a client, every shed is a client failure, and a request the
    server never recorded must have failed on the client side.
    """
    handled = after["handled"] - before["handled"]
    shed = after["shed"] - before["shed"]
    problems = []
    if handled + shed > load.attempted:
        problems.append(
            f"server saw {handled} handled + {shed} shed > "
            f"{load.attempted} attempted"
        )
    if shed > load.failed:
        problems.append(f"{shed} shed but only {load.failed} client failures")
    unseen = load.attempted - handled - shed
    if unseen > load.failed:
        problems.append(
            f"{unseen} requests never reached the server but only "
            f"{load.failed} client failures"
        )
    return problems


def series_values(client, dataset: str, series: str) -> list[float]:
    preview = client.call(
        "query_preview",
        {"dataset": dataset, "series": series, "start": 0, "length": 2},
    )
    return preview["values"]


def durability_check(server, dataset: str, expected: dict[str, list[float]]):
    """SIGKILL *server*, restart it on its data directory, compare.

    *expected* maps each live series to its values with every
    acknowledged append applied.  Returns ``(recovery_s, problems)``.
    """
    client = server.client()
    problems = []
    before = client.call("describe", {"dataset": dataset})["structure_fingerprint"]
    for series, values in expected.items():
        if series_values(client, dataset, series) != values:
            problems.append(f"{series}: acknowledged appends missing before the kill")
    server.stop()
    started = time.perf_counter()
    server.spawn()
    server.wait_ready()
    recovery_s = time.perf_counter() - started
    client = server.client()
    after = client.call("describe", {"dataset": dataset})["structure_fingerprint"]
    if after != before:
        problems.append("recovered structure fingerprint differs from the pre-kill one")
    for series, values in expected.items():
        if series_values(client, dataset, series) != values:
            problems.append(f"{series}: acknowledged appends lost by recovery")
    return recovery_s, problems
