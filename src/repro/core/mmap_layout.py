"""Raw, mmap-able on-disk layout of a built ONEX base.

The ``.npz`` archive (:meth:`OnexBase.save`) is compact but *copies* on
load: every array is decompressed into fresh private pages per process.
The worker pool needs the opposite trade — N processes serving the same
base should share one page-cache copy of the big stacks — and it
republishes the base after every write, so both ends of a publication
must be cheap.  This module persists a base as **one raw data file plus
one ``meta.json``** (snapshot format 2):

- the writer streams each array into ``arrays.bin`` at the next 64-byte
  boundary, one array at a time, so the whole gathered base is never
  held in memory at once;
- a worker attaches the file with a single ``np.memmap``; every array
  of the base is a slice of that map (no per-array open, no copy), and
  the kernel's page cache shares the pages across processes;
- the mapping is write-protected, so an accidental in-place mutation in
  a worker raises instead of corrupting sibling processes.

Layout of one snapshot directory::

    meta.json     config, stats, dataset names/metadata, fingerprint,
                  per-length envelope radii, and the segment index
                  ``{name: [offset, dtype, shape]}`` into arrays.bin
    arrays.bin    the segments, each starting on a 64-byte boundary:
                  raw_<i>                raw series values, per series
                  norm_<i>               normalised values (only when the
                                         base normalises; else raw_<i>
                                         is shared)
                  len<L>_centroids       stacked group representatives
                  len<L>_ed_radii        per-group ED_n radii
                  len<L>_cheb_radii      per-group Chebyshev radii
                  len<L>_members         (M, 2) int64 member handles
                  len<L>_offsets         (G+1,) int64 group row offsets
                  len<L>_member_matrix   member values, group-contiguous
                  len<L>_rep_env_lo      persisted representative
                  len<L>_rep_env_hi      summaries
                  len<L>_rep_endpoints
                  len<L>_rep_minmax

Attaching does per-group work only: each group holds a slice of its
bucket's ``len<L>_members`` segment and builds its ``SubsequenceRef``
tuple the first time a query reads ``members``
(:class:`~repro.core.grouping.SimilarityGroup`).

Snapshots are written to a ``<dir>.tmp`` sibling and ``os.replace``\\ d
into place, so a crash mid-write never publishes a half-written
directory; :func:`clean_stale_snapshots` sweeps leftover ``*.tmp``
debris (and superseded epochs) at supervisor start.  A snapshot only
lives for the supervisor run that wrote it — the next run publishes
afresh — so no other snapshot format is readable: one is refused.

Loading with ``mmap_mode="r"`` produces a **read-only** base: the
mutation paths (:meth:`OnexBase.add_series`, streaming ingestion) raise
:class:`~repro.exceptions.ReadOnlyBaseError`.  The attach path copies
nothing — buckets and summaries adopt the mapped slices via
``LengthBucket.attached`` / ``RepresentativeSummary.attached``, and the
dataset wraps them through ``TimeSeries._wrap``.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path
from typing import BinaryIO

import numpy as np

from repro.core import persist
from repro.core.base import (
    BaseStats,
    LengthBucket,
    LengthBuildStats,
    OnexBase,
    RepresentativeSummary,
    _handle_groups,
)
from repro.core.config import BuildConfig
from repro.data.dataset import TimeSeriesDataset
from repro.data.timeseries import TimeSeries
from repro.exceptions import PersistenceError
from repro.obs.logs import get_logger, log_event

__all__ = [
    "SNAPSHOT_FORMAT",
    "clean_stale_snapshots",
    "load_base_snapshot",
    "save_base_snapshot",
]

_LOG = get_logger("mmap")

#: Version tag written into ``meta.json`` and checked on load.
SNAPSHOT_FORMAT = 2

#: The one data file of a snapshot directory.
DATA_FILE = "arrays.bin"

#: Segment alignment in ``arrays.bin`` (a cache line; any dtype's).
_ALIGN = 64


class _SegmentWriter:
    """Streams arrays into one data file and records the segment index."""

    def __init__(self, fh: BinaryIO) -> None:
        self._fh = fh
        #: Bytes written so far.
        self.size = 0
        self.index: dict[str, list] = {}

    def add(self, name: str, array: np.ndarray) -> None:
        array = np.ascontiguousarray(array)
        pad = -self.size % _ALIGN
        if pad:
            self._fh.write(bytes(pad))
            self.size += pad
        self.index[name] = [self.size, array.dtype.str, list(array.shape)]
        self._fh.write(array.data)
        self.size += array.nbytes


def save_base_snapshot(base: OnexBase, directory: str | Path) -> Path:
    """Persist *base* (and its dataset) as an mmap-able snapshot directory.

    Written atomically: everything lands in ``<directory>.tmp`` first and
    is renamed into place, so *directory* either does not exist or holds
    a complete snapshot.  *directory* must not already exist (publishers
    use a fresh epoch directory per publication).  Returns the final
    path.
    """
    final = Path(directory)
    if final.exists():
        raise PersistenceError(f"snapshot directory {final} already exists")
    base._require_built()
    tmp = final.with_name(final.name + ".tmp")
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)
    try:
        raw = base.raw_dataset
        norm = base.dataset
        normalized_stored = norm is not raw
        rep_radius: dict[str, int] = {}
        with open(tmp / DATA_FILE, "wb") as fh:
            out = _SegmentWriter(fh)
            for i, series in enumerate(raw):
                out.add(f"raw_{i}", series.values)
            if normalized_stored:
                for i, series in enumerate(norm):
                    out.add(f"norm_{i}", series.values)
            for length in base.lengths:
                bucket = base.bucket(length)
                prefix = f"len{length}"
                out.add(f"{prefix}_centroids", bucket.centroids)
                out.add(f"{prefix}_ed_radii", bucket.ed_radii)
                out.add(f"{prefix}_cheb_radii", bucket.cheb_radii)
                out.add(f"{prefix}_members", bucket.member_handles)
                out.add(f"{prefix}_offsets", bucket.member_offsets)
                out.add(
                    f"{prefix}_member_matrix", bucket.stacked_member_matrix(norm)
                )
                summary = bucket.rep_summary
                out.add(f"{prefix}_rep_env_lo", summary.env_lo)
                out.add(f"{prefix}_rep_env_hi", summary.env_hi)
                out.add(f"{prefix}_rep_endpoints", summary.endpoints)
                out.add(f"{prefix}_rep_minmax", summary.minmax)
                rep_radius[str(length)] = summary.radius
        stats = base.stats
        meta = {
            "format": SNAPSHOT_FORMAT,
            "config": {
                "similarity_threshold": base.config.similarity_threshold,
                "min_length": base.config.min_length,
                "max_length": base.config.max_length,
                "step": base.config.step,
                "normalize": base.config.normalize,
            },
            "stats": {
                "subsequences": stats.subsequences,
                "groups": stats.groups,
                "lengths": stats.lengths,
                "build_seconds": stats.build_seconds,
                "per_length": [s.as_dict() for s in stats.per_length],
            },
            "dataset": {
                "name": raw.name,
                "series": [
                    {"name": s.name, "metadata": dict(s.metadata)} for s in raw
                ],
            },
            "channels": base.channels,
            "norm_bounds": (
                list(base.normalization_bounds)
                if base.normalization_bounds is not None
                else None
            ),
            "normalized_stored": normalized_stored,
            "lengths": list(base.lengths),
            "rep_radius": rep_radius,
            "structure_fingerprint": base.structure_fingerprint(),
            "data_bytes": out.size,
            "segments": out.index,
        }
        with open(tmp / "meta.json", "w") as fh:
            json.dump(meta, fh, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, final)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    persist.fsync_dir(final.parent)
    return final


def _open_segments(
    directory: Path, meta: dict, mmap_mode: str | None
) -> dict[str, np.ndarray]:
    """Map ``arrays.bin`` once; every segment is a slice of that map.

    With *mmap_mode* ``None`` the file is read into one private writable
    buffer instead (one read, not one per array).
    """
    path = directory / DATA_FILE
    try:
        expected = int(meta["data_bytes"])
        actual = path.stat().st_size
        if actual != expected:
            raise PersistenceError(
                f"snapshot data {path} holds {actual} bytes, "
                f"expected {expected} (truncated?)"
            )
        if mmap_mode is None:
            buffer = np.fromfile(path, dtype=np.uint8)
        else:
            buffer = np.memmap(path, dtype=np.uint8, mode=mmap_mode)
        segments = {}
        for name, (offset, dtype, shape) in meta["segments"].items():
            dtype = np.dtype(dtype)
            count = int(np.prod(shape, dtype=np.int64))
            stop = offset + count * dtype.itemsize
            if offset % _ALIGN or stop > expected:
                raise PersistenceError(
                    f"snapshot segment {name!r} [{offset}, {stop}) "
                    f"is outside {path}"
                )
            segments[name] = buffer[offset:stop].view(dtype).reshape(shape)
        return segments
    except (OSError, ValueError, TypeError, KeyError) as exc:
        raise PersistenceError(
            f"snapshot data {path} is missing or unreadable: {exc}"
        ) from exc


def load_base_snapshot(
    directory: str | Path,
    mmap_mode: str | None = "r",
    *,
    verify: bool = False,
) -> tuple[OnexBase, dict]:
    """Open a snapshot directory; returns ``(base, meta)``.

    With the default ``mmap_mode="r"`` every array is a slice of one
    write-protected memory map and the base is **read-only** (mutations
    raise); pass ``mmap_mode=None`` to materialise a private writable
    copy instead.  *verify* recomputes the structure fingerprint against
    the stored one — it touches every centroid, radius and handle page,
    so it is off by default (cold start stays an mmap) and turned on by
    tests and offline integrity checks.
    """
    directory = Path(directory)
    meta_path = directory / "meta.json"
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
    except (OSError, ValueError) as exc:
        raise PersistenceError(
            f"snapshot meta {meta_path} is missing or unreadable: {exc}"
        ) from exc
    if meta.get("format") != SNAPSHOT_FORMAT:
        raise PersistenceError(
            f"snapshot {directory} has format {meta.get('format')!r}, "
            f"expected {SNAPSHOT_FORMAT}"
        )
    seg = _open_segments(directory, meta, mmap_mode)
    ds_meta = meta["dataset"]
    raw_series = [
        TimeSeries._wrap(
            entry["name"], seg[f"raw_{i}"], entry.get("metadata") or {}
        )
        for i, entry in enumerate(ds_meta["series"])
    ]
    raw_dataset = TimeSeriesDataset(raw_series, name=ds_meta["name"])
    if meta["normalized_stored"]:
        norm_series = [
            TimeSeries._wrap(
                entry["name"], seg[f"norm_{i}"], entry.get("metadata") or {}
            )
            for i, entry in enumerate(ds_meta["series"])
        ]
        norm_dataset = TimeSeriesDataset(norm_series, name=ds_meta["name"])
    else:
        norm_dataset = raw_dataset
    channels = int(meta.get("channels", 1))
    buckets: dict[int, LengthBucket] = {}
    for length in meta["lengths"]:
        length = int(length)
        prefix = f"len{length}"
        centroids = seg[f"{prefix}_centroids"]
        ed_radii = seg[f"{prefix}_ed_radii"]
        cheb_radii = seg[f"{prefix}_cheb_radii"]
        handles = seg[f"{prefix}_members"]
        # Groups slice plain-ndarray views of the map: slicing a memmap
        # subclass costs several times more per group.
        groups = _handle_groups(
            length,
            centroids.view(np.ndarray),
            ed_radii,
            cheb_radii,
            handles.view(np.ndarray),
            seg[f"{prefix}_offsets"],
        )
        bucket = LengthBucket.attached(
            length,
            groups,
            seg[f"{prefix}_member_matrix"],
            centroids,
            ed_radii,
            cheb_radii,
            handles,
            channels=channels,
        )
        bucket.attach_rep_summary(
            RepresentativeSummary.attached(
                length,
                int(meta["rep_radius"][str(length)]),
                seg[f"{prefix}_rep_env_lo"],
                seg[f"{prefix}_rep_env_hi"],
                seg[f"{prefix}_rep_endpoints"],
                seg[f"{prefix}_rep_minmax"],
            )
        )
        buckets[length] = bucket
    stats_meta = meta["stats"]
    stats = BaseStats(
        subsequences=stats_meta["subsequences"],
        groups=stats_meta["groups"],
        lengths=stats_meta["lengths"],
        build_seconds=stats_meta["build_seconds"],
        per_length=tuple(
            LengthBuildStats(**entry)
            for entry in stats_meta.get("per_length", ())
        ),
    )
    norm_bounds = meta.get("norm_bounds")
    base = OnexBase.from_attached(
        raw_dataset,
        norm_dataset,
        BuildConfig(**meta["config"]),
        tuple(norm_bounds) if norm_bounds is not None else None,
        buckets,
        stats,
        read_only=(mmap_mode == "r"),
    )
    if verify:
        actual = base.structure_fingerprint()
        if actual != meta["structure_fingerprint"]:
            raise PersistenceError(
                f"snapshot {directory} failed its structure fingerprint "
                "(truncated or tampered with)"
            )
    return base, meta


def clean_stale_snapshots(root: str | Path, *, keep_latest: int = 1) -> list[str]:
    """Sweep debris under snapshot root *root*; returns removed paths.

    Removes every ``*.tmp`` directory (a publish that crashed mid-write)
    and, per dataset directory, every ``epoch-<n>`` but the newest
    *keep_latest* — the shared-memory leftovers of a previous crashed
    run that nothing will ever map again.  Missing *root* is a no-op.
    """
    root = Path(root)
    removed: list[str] = []
    if not root.is_dir():
        return removed
    for dataset_dir in sorted(root.iterdir()):
        if not dataset_dir.is_dir():
            continue
        if dataset_dir.name.endswith(".tmp"):
            shutil.rmtree(dataset_dir, ignore_errors=True)
            removed.append(str(dataset_dir))
            continue
        epochs = []
        for entry in sorted(dataset_dir.iterdir()):
            if not entry.is_dir():
                continue
            if entry.name.endswith(".tmp"):
                shutil.rmtree(entry, ignore_errors=True)
                removed.append(str(entry))
            elif entry.name.startswith("epoch-"):
                try:
                    epochs.append((int(entry.name[len("epoch-") :]), entry))
                except ValueError:
                    continue
        epochs.sort()
        for _, entry in epochs[: max(0, len(epochs) - keep_latest)]:
            shutil.rmtree(entry, ignore_errors=True)
            removed.append(str(entry))
    if removed:
        log_event(_LOG, "info", "snapshot.cleaned", removed=len(removed))
    return removed
