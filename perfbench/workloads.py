"""The benchmark's canonical workloads: data, deployment and seeded op lists.

A workload fixes three things:

- the dataset the server loads (built deterministically from fixed data
  seeds, so every benchmark seed sees the same base);
- the ``serve`` deployment (query mode, worker pool, durability);
- the traffic: a *probe set* of distinct requests drawn from the
  workload seed, and one closed-loop op list per client drawn from it.

Queries are warped, noisy copies of windows cut from stored series
(:func:`repro.data.synthetic.warped_copy`) plus some brushed
``{"series", "start", "length"}`` descriptors.  The server only ever
sees the generated requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.data import synthetic
from repro.data.dataset import TimeSeriesDataset
from repro.data.electricity import build_electricity_collection
from repro.data.matters import build_matters_collection
from repro.data.timeseries import TimeSeries
from repro.data.ucr_format import load_ucr_file, save_ucr_file

#: Op classes, each timed as one latency population.
CLASSES = ("search", "scan", "view", "write")

OP_CLASS = {
    "best_match": "search",
    "k_best": "search",
    "matches_within": "scan",
    "sensitivity": "scan",
    "seasonal": "scan",
    "query_batch": "scan",
    "overview": "view",
    "query_preview": "view",
    "describe": "view",
    "append_points": "write",
    "register_monitor": "write",
    "poll_events": "write",
}

#: Every op type; the traced run covers each one on every workload.
OPS = tuple(OP_CLASS)

#: Non-default metrics the traced run scans through the registry.
REGISTRY_METRICS = ("derivative_dtw", "euclidean")

#: Points per ``append_points`` chunk (one week of daily load).
APPEND_CHUNK = 7

#: Name of the standing monitor registered on a live series.
MONITOR_NAME = "perfbench"

_GOLDEN = (5 ** 0.5 - 1) / 2
_ROOT2 = 2 ** 0.5 - 1


@dataclass(frozen=True)
class DataSpec:
    """One dataset: how the server loads it and how the library builds it."""

    source: str  # "matters" | "electricity" | "panel"
    build_kwargs: dict  # the dataset constructor's arguments
    similarity_threshold: float
    min_length: int
    max_length: int

    def dataset(self, workdir: Path) -> TimeSeriesDataset:
        """The dataset exactly as ``serve`` builds it from :meth:`load_params`."""
        kw = self.build_kwargs
        if self.source == "panel":
            return load_ucr_file(self._panel_file(workdir))
        if self.source == "matters":
            return build_matters_collection(
                seed=kw["seed"],
                years=kw["years"],
                min_years=kw["min_years"],
                indicators=tuple(kw["indicators"]),
            )
        return build_electricity_collection(
            seed=kw["seed"], households=kw["households"]
        )

    def _panel_file(self, workdir: Path) -> Path:
        kw = self.build_kwargs
        path = workdir / "panel-sim.txt"
        if not path.exists():
            save_ucr_file(build_panel(kw["series"], kw["points"], kw["seed"]), path)
        return path

    def load_params(self, workdir: Path) -> dict:
        """The ``load_dataset`` request parameters for this dataset.

        The panel is written as a UCR file under *workdir* (once) and
        loaded through ``ucr:<path>``.
        """
        if self.source == "panel":
            params: dict = {"source": f"ucr:{self._panel_file(workdir)}"}
        else:
            params = {"source": self.source, **self.build_kwargs}
        params.update(
            similarity_threshold=self.similarity_threshold,
            min_length=self.min_length,
            max_length=self.max_length,
        )
        return params

    def load_options(self) -> dict:
        """Build options for :meth:`OnexEngine.load_dataset`."""
        return {
            "similarity_threshold": self.similarity_threshold,
            "min_length": self.min_length,
            "max_length": self.max_length,
        }


def build_panel(series: int, points: int, seed: int) -> TimeSeriesDataset:
    """Synthetic panel: random walks, seasonal loads and noisy sines."""
    rng = np.random.default_rng(seed)
    dataset = TimeSeriesDataset(name="panel-sim")
    for i in range(series):
        kind = i % 3
        if kind == 0:
            values = synthetic.random_walk(points, step_scale=0.15, seed=rng)
            values = values - values.mean()
        elif kind == 1:
            period = float(rng.integers(12, 40))
            values = synthetic.seasonal_series(
                points, components=((period, 4.0),), noise=0.1, seed=rng
            )
        else:
            period = float(rng.integers(10, 50))
            values = synthetic.noisy_sine(
                points, period=period, amplitude=4.0, noise=0.1, seed=rng
            )
        dataset.add(TimeSeries(f"s{i}", values))
    return dataset


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    data: DataSpec
    mode: str
    workers: int
    #: WAL appends between checkpoints in durable deployments.
    checkpoint_every: int
    #: (op-kind, weight) pairs of the timed read mix; see :meth:`RequestFactory.read_op`.
    mix: tuple
    probes: int
    #: Probes of the set the traced run sends through all four layers.
    trace_probes: int
    #: Client A writes (appends, polls every 10th op); the deployment is
    #: then durable (``--data-dir``) and its recovery is checked.
    writer: bool = False

    def serve_args(self, data_dir: Path | None = None) -> list[str]:
        """``serve`` flags for this deployment; durable with *data_dir*."""
        args = ["--mode", self.mode]
        if self.workers:
            args += ["--workers", str(self.workers)]
        if data_dir is not None:
            args += ["--data-dir", str(data_dir),
                     "--checkpoint-every", str(self.checkpoint_every)]
        return args


_WHY = {
    "explore": (
        "the paper's interactive session: cheap fast-mode ops, so HTTP, "
        "service, payloads and thread contention dominate; pool, WAL bypassed"
    ),
    "panel-exact": (
        "exact cascade refine, DTW kernels and the bound-less registry scan "
        "dominate on a 5x larger base served by a 2-worker pool"
    ),
    "ingest": (
        "appends beside reads: write lock, pool republication, stream "
        "ingest, WAL and checkpoints, plus kill -9 recovery"
    ),
}


def workloads(smoke: bool = False) -> dict[str, Workload]:
    """The canonical workloads; *smoke* shrinks every dataset to toy size."""
    if smoke:
        matters = DataSpec(
            "matters",
            {"indicators": ["GrowthRate"], "min_years": 8, "seed": 2013, "years": 16},
            0.2, 4, 8,
        )
        panel = DataSpec(
            "panel", {"series": 8, "points": 40, "seed": 11}, 0.1, 6, 10
        )
        electricity = DataSpec(
            "electricity", {"households": 2, "seed": 417}, 0.15, 24, 26
        )
    else:
        matters = DataSpec(
            "matters",
            {"indicators": ["GrowthRate"], "min_years": 8, "seed": 2013, "years": 40},
            0.2, 5, 24,
        )
        panel = DataSpec(
            "panel", {"series": 40, "points": 120, "seed": 11}, 0.1, 8, 20
        )
        electricity = DataSpec(
            "electricity", {"households": 8, "seed": 417}, 0.15, 24, 32
        )
    return {
        "explore": Workload(
            "explore", _WHY["explore"], matters, "fast", 0, 256,
            mix=(("k_best", 40), ("best_match", 20),
                 ("overview", 7), ("query_preview", 7), ("describe", 6),
                 ("matches_within", 5), ("sensitivity", 5), ("seasonal", 5),
                 ("query_batch", 5)),
            probes=12 if smoke else 240,
            trace_probes=12 if smoke else 48,
        ),
        "panel-exact": Workload(
            "panel-exact", _WHY["panel-exact"], panel, "exact", 2, 256,
            mix=(("k_best:dtw", 60), ("k_best:derivative_dtw", 20),
                 ("k_best:euclidean", 10), ("query_batch", 10)),
            probes=10 if smoke else 36,
            trace_probes=10 if smoke else 12,
        ),
        "ingest": Workload(
            "ingest", _WHY["ingest"], electricity, "fast", 2, 8,
            mix=(("k_best", 90), ("seasonal", 10)),
            probes=10 if smoke else 40,
            trace_probes=10 if smoke else 20,
            writer=True,
        ),
    }


# ----------------------------------------------------------------------
# Request generation
# ----------------------------------------------------------------------


class RequestFactory:
    """Seeded request generator over one dataset's raw values."""

    def __init__(self, dataset: TimeSeriesDataset, spec: DataSpec, rng) -> None:
        self.dataset = dataset
        self.name = dataset.name
        self.spec = spec
        self.rng = rng
        self.names = dataset.names
        self._sizes = {n: len(dataset[n]) for n in self.names}
        self._offsets: dict[tuple, float] = {}
        self._drawn: dict[tuple, int] = {}
        #: Live series receiving appends (and the standing monitor).
        self.live = self.names[: min(2, len(self.names))]

    def _spread(self, key: tuple, step: float) -> tuple[int, float]:
        """The next draw of the low-discrepancy sequence *key*: ``(k, u)``.

        The k-th draw is ``u = frac(offset + k * step)`` with a seeded
        offset per key, so any run of consecutive draws covers ``[0, 1)``
        evenly instead of clustering the way independent draws do.
        """
        if key not in self._offsets:
            self._offsets[key] = float(self.rng.random())
        k = self._drawn.get(key, 0)
        self._drawn[key] = k + 1
        return k, (self._offsets[key] + k * step) % 1.0

    def _length(self, kind: str) -> int:
        """The next window length for *kind*.

        Query cost grows with length, so the lengths of a kind are spread
        evenly over the indexed range (golden-ratio sequence).
        """
        _, u = self._spread((kind, "length"), _GOLDEN)
        span = self.spec.max_length - self.spec.min_length + 1
        return self.spec.min_length + int(u * span)

    def _window(self, kind: str, length: int) -> tuple[str, int]:
        """The next stored window of *length* for *kind*: ``(series, start)``.

        Query cost also depends on the series and on where in it the
        window lies, so windows are stratified too: the k-th window of a
        kind walks the series that fit in order from a seeded offset, and
        its start is spread over the series by a second low-discrepancy
        sequence, so no seed piles its queries onto a few series.  The
        seed still moves every window, warp and noise.
        """
        fits = [n for n in self.names if self._sizes[n] >= length]
        k, u = self._spread((kind, "series"), 0.0)
        name = fits[(int(u * len(fits)) + k) % len(fits)]
        _, v = self._spread((kind, "start"), _ROOT2)
        return name, int(v * (self._sizes[name] - length + 1))

    def query(self, kind: str):
        """A warped noisy copy of a stored window; every 4th query of a
        kind is a brushed ``{"series", "start", "length"}`` descriptor."""
        length = self._length(kind)
        name, start = self._window(kind, length)
        if self._drawn[(kind, "length")] % 4 == 0:
            return {"series": name, "start": start, "length": length}
        window = self.dataset[name].values[start : start + length]
        noise = 0.05 * float(np.std(window))
        copy = synthetic.warped_copy(window, noise=noise, seed=self.rng)
        return [float(v) for v in copy]

    def read_op(self, kind: str) -> dict:
        """One read request of *kind* (``op`` or ``op:metric``)."""
        op, _, metric = kind.partition(":")
        params: dict = {"dataset": self.name}
        if op in ("k_best", "best_match", "matches_within", "sensitivity"):
            params["query"] = self.query(kind)
        if op == "k_best":
            params["k"] = 3
        elif op == "matches_within":
            params["threshold"] = 0.02
        elif op == "sensitivity":
            params["thresholds"] = [0.01, 0.02, 0.05]
        elif op == "query_batch":
            params["queries"] = [self.query(kind) for _ in range(4)]
            params["k"] = 1
        elif op == "seasonal":
            length = (self.spec.min_length + self.spec.max_length) // 2
            params["series"] = self._window(kind, length)[0]
            params["length"] = length
        elif op == "overview":
            params["length"] = self._length(kind)
            params["limit"] = 20
        elif op == "query_preview":
            length = self._length(kind)
            name, start = self._window(kind, length)
            params.update(series=name, start=start, length=length)
        if metric:
            params["metric"] = metric
        return {"op": op, "params": params, "cls": OP_CLASS[op]}

    def append_op(self, index: int) -> dict:
        """The *index*-th append: a 7-point chunk cut from the live
        series' own history, scaled by 2% noise."""
        series = self.live[index % len(self.live)]
        values = self.dataset[series].values
        start = int(self.rng.integers(0, len(values) - APPEND_CHUNK + 1))
        chunk = values[start : start + APPEND_CHUNK]
        chunk = chunk * (1.0 + 0.02 * self.rng.standard_normal(APPEND_CHUNK))
        return {
            "op": "append_points",
            "params": {
                "dataset": self.name,
                "series": series,
                "values": [float(v) for v in chunk],
            },
            "cls": "write",
        }

    def poll_op(self) -> dict:
        return {
            "op": "poll_events",
            "params": {"dataset": self.name, "since": 0, "limit": 50},
            "cls": "write",
        }

    def monitor_op(self, name: str = MONITOR_NAME) -> dict:
        series = self.live[0]
        length = min(self.spec.max_length, len(self.dataset[series]))
        return {
            "op": "register_monitor",
            "params": {
                "dataset": self.name,
                "pattern": {"series": series, "start": 0, "length": length},
                "series": series,
                "monitor": name,
            },
            "cls": "write",
        }


def probe_set(workload: Workload, factory: RequestFactory) -> list[dict]:
    """The workload's distinct read requests, stratified by mix weight."""
    total = sum(w for _, w in workload.mix)
    probes: list[dict] = []
    for kind, weight in workload.mix:
        count = max(1, round(workload.probes * weight / total))
        for _ in range(count):
            probes.append({**factory.read_op(kind), "kind": kind})
    for index, probe in enumerate(probes):
        probe["probe"] = index
    return probes


def coverage_reads(factory: RequestFactory) -> list[dict]:
    """One read of every op type and registry metric (traced run only)."""
    kinds = [op for op in OPS if OP_CLASS[op] != "write"]
    kinds += [f"k_best:{metric}" for metric in REGISTRY_METRICS]
    return [factory.read_op(kind) for kind in kinds]


def _smooth_round_robin(weights: list[int], n: int) -> list[int]:
    """*n* indices into *weights*, interleaved so that every stretch of the
    sequence holds each index in proportion to its weight, to within one."""
    current = [0] * len(weights)
    total = sum(weights)
    out = []
    for _ in range(n):
        for i, weight in enumerate(weights):
            current[i] += weight
        best = max(range(len(weights)), key=current.__getitem__)
        current[best] -= total
        out.append(best)
    return out


def client_ops(
    workload: Workload, probes: list[dict], factory: RequestFactory, n: int
) -> list[list[dict]]:
    """One fixed op list per client (2 clients).

    Op costs differ by orders of magnitude between kinds, so a reader's
    kinds follow the mix by smooth weighted round robin: however far a
    run gets before its deadline, it has sent the mix's proportions, and
    throughput does not hinge on which kinds fell inside the window.
    Each reader starts at its own seeded offset in that sequence and
    cycles through each kind's probes in seeded shuffled passes.  On
    ``ingest`` client A is the writer: 7-point appends to the live series
    with ``poll_events`` on every 10th op.
    """
    rng = factory.rng
    kinds = [kind for kind, _ in workload.mix]
    weights = [weight for _, weight in workload.mix]
    sequence = _smooth_round_robin(weights, n + sum(weights))
    by_kind = {k: [p for p in probes if p["kind"] == k] for k in kinds}
    readers = []
    for _ in range(2):
        offset = int(rng.integers(sum(weights)))
        passes: dict[str, list[dict]] = {k: [] for k in kinds}
        order = []
        for index in sequence[offset : offset + n]:
            kind = kinds[index]
            if not passes[kind]:
                passes[kind] = [by_kind[kind][int(j)]
                                for j in rng.permutation(len(by_kind[kind]))]
            order.append(passes[kind].pop())
        readers.append(order)
    if not workload.writer:
        return readers
    writes = [
        factory.poll_op() if (i + 1) % 10 == 0 else factory.append_op(i)
        for i in range(n)
    ]
    return [writes, readers[1]]
