"""Closed-loop load generation and latency statistics.

Two client threads, one connection each, each replaying its own fixed
op list: a client sends its next request only after the previous
answer arrived (an analyst's UI waits for one answer before the next
brush).  Latency is client-side send to receive.  Clients never retry,
so every shed (503), error envelope, timeout and transport error is a
counted failure.
"""

from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass

from repro.server.client import OnexClient

#: Percentile reported as a tail, and the samples it needs beyond it.
TAIL = 0.95
TAIL_MIN_BEYOND = 10


@dataclass
class Sample:
    op: str
    cls: str
    ms: float
    ok: bool
    error: str | None = None


@dataclass
class LoadResult:
    samples: list[Sample]
    wall_s: float
    #: ``(op, result)`` of every answered request, in each client's order.
    answers: list[tuple[dict, object]]

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if not s.ok)

    @property
    def throughput(self) -> float:
        done = self.attempted - self.failed
        return done / self.wall_s if self.wall_s > 0 else 0.0

    def latencies(self, cls: str) -> list[float]:
        return [s.ms for s in self.samples if s.ok and s.cls == cls]


def run_closed_loop(
    clients: list[OnexClient], op_lists: list[list[dict]], seconds: float
) -> LoadResult:
    """Replay each client's op list until *seconds* have elapsed.

    An op started before the deadline runs to completion; wall time runs
    until the last one returns.  Answers are kept, not checked, so that
    checking costs no client time inside the loop.
    """
    samples: list[list[Sample]] = [[] for _ in clients]
    answers: list[list[tuple[dict, object]]] = [[] for _ in clients]
    start_gate = threading.Barrier(len(clients) + 1)
    deadline = [0.0]

    def worker(index: int) -> None:
        client, ops = clients[index], op_lists[index]
        start_gate.wait()
        i = 0
        while time.perf_counter() < deadline[0]:
            op = ops[i % len(ops)]
            i += 1
            t0 = time.perf_counter()
            try:
                result = client.call(op["op"], op["params"])
            except Exception as exc:  # every failure kind is counted
                samples[index].append(Sample(
                    op["op"], op["cls"], (time.perf_counter() - t0) * 1e3,
                    False, f"{type(exc).__name__}: {exc}"))
                continue
            ms = (time.perf_counter() - t0) * 1e3
            samples[index].append(Sample(op["op"], op["cls"], ms, True))
            answers[index].append((op, result))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(clients))]
    for t in threads:
        t.start()
    start = time.perf_counter()
    deadline[0] = start + seconds
    start_gate.wait()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    return LoadResult(
        [s for per in samples for s in per],
        wall,
        [a for per in answers for a in per],
    )


def p50(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def tail(values: list[float]) -> float | None:
    """The p95, or ``None`` when fewer than 10 samples lie beyond it."""
    if len(values) * (1.0 - TAIL) < TAIL_MIN_BEYOND:
        return None
    return statistics.quantiles(values, n=100, method="inclusive")[94]
