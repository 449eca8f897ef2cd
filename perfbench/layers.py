"""Entry points of each layer, called from outside, and the spans around them.

The traced run sends every probe through four entry points in turn:

1. ``library`` — :class:`~repro.core.engine.OnexEngine` methods;
2. ``service`` — :meth:`OnexService.handle` in-process;
3. ``http`` — :class:`OnexClient` against ``serve`` (single process);
4. ``pool`` — :class:`OnexClient` against ``serve --workers 2``.

A layer's self time is the difference between adjacent entry points.
:class:`Spans` records one span per call (name, start, end, parent and
request id) in memory; nothing is added inside ``src/``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from repro.server.protocol import Request
from repro.viz.payloads import (
    overview_payload,
    query_preview_payload,
    seasonal_view_payload,
)

LAYERS = ("library", "service", "http", "pool")


class Spans:
    """In-memory span recorder, written out once the run ends."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    @contextmanager
    def span(self, name: str, parent: int | None = None, request_id: str | None = None):
        record = {
            "id": len(self.records),
            "name": name,
            "parent": parent,
            "request_id": request_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.records.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()

    def duration_ms(self, record: dict) -> float:
        return (record["end"] - record["start"]) * 1e3

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.records, fh)


def _query(engine, name: str, query):
    if isinstance(query, dict):
        return engine.query_from_series(
            name, query["series"], int(query.get("start", 0)), query.get("length")
        )
    return query


def _match_key(m) -> list:
    """The identity-relevant fields of a library match."""
    return [m.series_name, m.start, m.length, float(m.distance),
            list(m.group), [list(p) for p in m.path]]


def _served_key(payload: dict) -> list:
    return [payload["match_series"], payload["match_start"], len(payload["match"]),
            payload["distance"], payload["group"], payload["connectors"]]


def library_call(engine, name: str, op: str, params: dict):
    """Run *op* through the library; returns the engine's raw answer."""
    metric = params.get("metric")
    if op == "best_match":
        return engine.best_match(
            name, _query(engine, name, params["query"]), metric=metric)
    if op == "k_best":
        return engine.k_best_matches(
            name, _query(engine, name, params["query"]), int(params["k"]),
            metric=metric)
    if op == "query_batch":
        queries = [_query(engine, name, q) for q in params["queries"]]
        return engine.batch_best_matches(
            name, queries, int(params.get("k", 1)), metric=metric)
    if op == "matches_within":
        return engine.matches_within(
            name, _query(engine, name, params["query"]),
            float(params["threshold"]), metric=metric)
    if op == "sensitivity":
        return engine.similarity_profile(
            name, _query(engine, name, params["query"]),
            [float(t) for t in params["thresholds"]])
    if op == "seasonal":
        return engine.seasonal_patterns(name, params["series"], int(params["length"]))
    if op == "overview":
        return engine.overview(
            name, length=params.get("length"), limit=int(params.get("limit", 50)))
    if op == "query_preview":
        return engine.base(name).raw_dataset[params["series"]]
    if op == "describe":
        return engine.base(name).structure_fingerprint()
    if op == "append_points":
        return engine.append_points(name, params["series"], params["values"])
    if op == "register_monitor":
        return engine.register_monitor(
            name, _query(engine, name, params["pattern"]),
            series=params.get("series"), name=params.get("monitor"))
    if op == "poll_events":
        return engine.poll_events(
            name, since=int(params.get("since", 0)), limit=params.get("limit"))
    raise ValueError(f"no library entry point for {op!r}")


def library_comparable(engine, name: str, op: str, params: dict, raw):
    """Project a library answer onto what :func:`served_comparable` returns.

    View payloads are rendered with the public :mod:`repro.viz.payloads`
    helpers; matches are compared field by field.
    """
    if op == "best_match":
        value = [_match_key(raw)]
    elif op in ("k_best", "matches_within"):
        value = [_match_key(m) for m in raw]
    elif op == "query_batch":
        value = [[_match_key(m) for m in ms] for ms in raw]
    elif op == "sensitivity":
        value = raw.as_dict()
    elif op == "seasonal":
        value = seasonal_view_payload(
            engine.base(name).raw_dataset[params["series"]], raw)
    elif op == "overview":
        value = overview_payload(raw)
    elif op == "query_preview":
        value = query_preview_payload(raw, int(params["start"]), int(params["length"]))
    elif op == "poll_events":
        value = [e.as_dict() for e in raw]
    else:
        value = raw
    return json.loads(json.dumps(value, default=float))


def served_comparable(op: str, result):
    """Project a served result onto what :func:`library_call` returns."""
    if op == "best_match":
        return [_served_key(result)]
    if op in ("k_best", "matches_within"):
        return [_served_key(m) for m in result["matches"]]
    if op == "query_batch":
        return [[_served_key(m) for m in r["matches"]] for r in result["results"]]
    if op == "describe":
        return result["structure_fingerprint"]
    if op == "poll_events":
        return result["events"]
    return result


def service_call(service, op: str, params: dict, request_id: str):
    """``OnexService.handle`` in-process; raises on an error envelope."""
    response = service.handle(Request(op, params, request_id=request_id))
    if not response.ok:
        raise RuntimeError(
            f"service {op} failed: {response.error_type}: {response.error_message}"
        )
    return response


def wire(response) -> tuple[object, int]:
    """A service response's result as the client decodes it, and its size."""
    body = response.to_json()
    return json.loads(body)["result"], len(body.encode())
