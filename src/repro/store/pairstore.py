"""The on-disk pair store: memmappable corpus generations behind a
checkpoint and a journal.

A packed corpus — the directory ``repro-mine corpus`` maintains —
lives in one directory::

    store.json            checkpoint (format, scheme, params, version,
                          generation serial, label count, next uid,
                          generations, row map), compact JSON; written
                          only by a build and a compaction
    journal.jsonl         one compact JSON line per commit since the
                          checkpoint: the commit's row-map edit (dropped
                          uids; inserted rows with position, uid,
                          content address and name), the generation it
                          appended, and its version, serial and next uid
    log.jsonl             the delta log, one compact JSON line per
                          version (decoded only when
                          :class:`~repro.engine.delta.VersionedCorpus`
                          lists or diffs it, never by
                          :meth:`PairStore.open`)
    gen-000000/           one *generation* of rows
        labels.json       the sorted label table, in the first (*base*)
                          generation only: written at build and
                          compaction, the only times labels change
        columns.npy       one int64 array holding the generation's
                          eight columns back to back: concatenated
                          per-tree sorted packed keys, their counts
                          and row offsets (``trees + 1`` entries), the
                          distance-free pair projection's keys, counts
                          and offsets (collapsed exactly as
                          :func:`repro.core.fastmine._collapse_pairs`
                          would), and per-tree totals of both; the
                          generation record gives each column's
                          element range

Rows are persisted at the ``minoccur=1`` level — the same raw state
:class:`~repro.engine.delta.VersionedCorpus` maintains — so any
occurrence threshold can be re-derived at load time, and the row map
sends each corpus position to ``(generation, row)`` plus its stable
uid, engine content address and display name.

A commit costs the size of its change.  One whose new trees fit the
label table appends: a generation file for the trees it adds (none
for a pure removal), one delta-log line, then one journal line, which
is the commit point.  ``store.json`` is not touched, so the bytes a
commit writes do not grow with the corpus.  A crash leaves the old
complete store or the new one: a torn journal line is ignored by
:meth:`PairStore.open` and cut off by the next append, as are log lines
past the store's version, and a generation directory no line
references is an orphan the next commit sweeps.

When the dead fraction reaches one half — or new trees grow the label
universe, a monotone re-intern of every surviving key, or a commit
reorders surviving rows — the store *compacts*: every live row goes
into one fresh base generation, a new checkpoint replaces
``store.json`` (the commit point), the journal is reset and the old
directories are dropped.  :meth:`PairStore.open` reads the checkpoint
and replays the journal lines past it; lines a compaction or build
left behind by crashing before the reset — at or below the
checkpoint's version, or below its serial — are skipped.

Reads are lazy: :meth:`PairStore.open` reads only the checkpoint, the
journal and the label table and makes one ``stat`` per generation
(truncation is detected before any memmap is handed out), and
:meth:`PairStore.as_vectors` slices ``np.load(..., mmap_mode="r")``
views per tree into a :class:`~repro.core.distvec.DistanceVectors` —
byte-identical in every query to an in-RAM build over the same trees,
without loading a key column until a join touches it.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from typing import Callable, Mapping, Sequence, TypeVar

import numpy as np

from repro.core.distvec import DistanceVectors, _monotone_remap, _remap_full_keys
from repro.core.fastmine import PackedCounts, _collapse_pairs, _remap_packed
from repro.core.multi_tree import FrequentCousinPair, aggregate_rows
from repro.core.params import MiningParams, validate_minoccur, validate_minsup
from repro.errors import StoreError
from repro.io import atomic_write
from repro.obs.context import get_registry, get_tracer
from repro.store.shards import load_array, write_array
from repro.trees.arena import find_label
from repro.trees.packing import PACKED_KEY_SCHEME

__all__ = [
    "PairStore",
    "COLUMNS_FILE",
    "JOURNAL_FILE",
    "LABELS_FILE",
    "LOG_FILE",
    "STORE_FILE",
    "STORE_FORMAT",
]

STORE_FILE = "store.json"
STORE_FORMAT = 3
JOURNAL_FILE = "journal.jsonl"
LOG_FILE = "log.jsonl"
LABELS_FILE = "labels.json"
COLUMNS_FILE = "columns.npy"
# The file an older release kept a whole corpus in (trees as Newick).
_OLD_CORPUS_FILE = "corpus.json"

_Record = TypeVar("_Record")

# A generation's eight int64 columns, in their order in COLUMNS_FILE.
_GEN_STEMS = (
    "full_keys",
    "full_counts",
    "full_offsets",
    "pair_keys",
    "pair_counts",
    "pair_offsets",
    "full_totals",
    "pair_totals",
)

# A corpus member as the store tracks it: (uid, engine content key).
Member = tuple[int, str]
# One tree's sorted (keys, counts) arrays.
Row = tuple[np.ndarray, np.ndarray]


def _params_to_dict(params: MiningParams) -> dict:
    return {
        "maxdist": params.maxdist,
        "minoccur": params.minoccur,
        "minsup": params.minsup,
        "max_generation_gap": params.max_generation_gap,
        "max_height": params.max_height,
    }


def _params_from_dict(payload: Mapping) -> MiningParams:
    return MiningParams(
        maxdist=float(payload["maxdist"]),
        minoccur=int(payload["minoccur"]),
        minsup=int(payload["minsup"]),
        max_generation_gap=int(payload["max_generation_gap"]),
        max_height=(
            None
            if payload["max_height"] is None
            else int(payload["max_height"])
        ),
    )


def _manifest_failure(path: str, detail: str) -> StoreError:
    """Count one checkpoint-read degradation and build the error."""
    get_registry().counter("store.read_errors").add(1)
    return StoreError(f"corrupt pair store manifest {path!r}: {detail}")


def _log_line(entry: Mapping) -> bytes:
    """One delta-log or journal record as a compact JSON line."""
    return (json.dumps(entry, separators=(",", ":")) + "\n").encode("utf-8")


def _generation_name(serial: int) -> str:
    return f"gen-{serial:06d}"


class _Generation:
    """One immutable generation: a lazy, size-validated memmap file."""

    __slots__ = ("directory", "name", "trees", "files", "ranges", "_views")

    def __init__(self, store_directory: str, record: Mapping) -> None:
        self.name = str(record["name"])
        self.directory = os.path.join(store_directory, self.name)
        self.trees = int(record["trees"])
        self.files = {
            str(filename): int(size)
            for filename, size in record["files"].items()
        }
        self.ranges = {
            stem: (int(start), int(stop))
            for stem, (start, stop) in record["columns"].items()
        }
        missing = [stem for stem in _GEN_STEMS if stem not in self.ranges]
        if missing or COLUMNS_FILE not in self.files:
            raise ValueError(
                f"generation {self.name!r} records no "
                f"{(missing or [COLUMNS_FILE])[0]!r}"
            )
        self._views: dict[str, np.ndarray] = {}

    def validate(self) -> None:
        """Check the columns file exists at its recorded byte size.

        Runs at :meth:`PairStore.open` — a missing or truncated file
        (the mid-write crash signatures) counts one
        ``store.read_errors`` and fails the open before any memmap
        view could fault mid-query.  One ``stat``: no data page is
        read.
        """
        path = os.path.join(self.directory, COLUMNS_FILE)
        try:
            actual = os.stat(path).st_size
        except FileNotFoundError:
            get_registry().counter("store.read_errors").add(1)
            raise StoreError(f"missing store shard {path!r}") from None
        expected = self.files[COLUMNS_FILE]
        if actual != expected:
            get_registry().counter("store.read_errors").add(1)
            raise StoreError(
                f"truncated store shard {path!r}: expected "
                f"{expected} bytes, found {actual}"
            )

    def read_labels(self, count: int) -> tuple[str, ...]:
        """The label table of a base generation, checked like a shard.

        It must exist at its recorded byte size and hold ``count``
        strings; any failure counts one ``store.read_errors`` and
        raises :class:`StoreError`.
        """
        path = os.path.join(self.directory, LABELS_FILE)
        expected = self.files.get(LABELS_FILE)
        if expected is None:
            raise _manifest_failure(
                os.path.join(os.path.dirname(self.directory), STORE_FILE),
                f"generation {self.name!r} records no label table",
            )
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            get_registry().counter("store.read_errors").add(1)
            raise StoreError(f"missing store label table {path!r}") from None
        if len(data) != expected:
            get_registry().counter("store.read_errors").add(1)
            raise StoreError(
                f"truncated store label table {path!r}: expected "
                f"{expected} bytes, found {len(data)}"
            )
        try:
            labels = json.loads(data)
            if not isinstance(labels, list) or len(labels) != count:
                raise ValueError(f"expected a list of {count} labels")
            for label in labels:
                if not isinstance(label, str):
                    raise ValueError(f"non-string label {label!r}")
        except ValueError as error:
            get_registry().counter("store.read_errors").add(1)
            raise StoreError(
                f"corrupt store label table {path!r}: {error}"
            ) from error
        return tuple(labels)

    def view(self, stem: str) -> np.ndarray:
        """One column as a plain-ndarray slice of the memmapped file.

        Slicing ``np.memmap`` pays ``__array_finalize__`` per slice
        (~7x the cost of slicing a plain array); the view shares the
        same mapped buffer, so per-row gathers stay zero-copy but
        cheap enough to open a 10k-tree store well under the
        reopen-to-first-query budget.
        """
        cached = self._views.get(stem)
        if cached is None:
            path = os.path.join(self.directory, COLUMNS_FILE)
            columns = load_array(
                path, expected_bytes=self.files[COLUMNS_FILE]
            ).view(np.ndarray)
            for name, (start, stop) in self.ranges.items():
                if not 0 <= start <= stop <= columns.size or columns.ndim != 1:
                    get_registry().counter("store.read_errors").add(1)
                    raise StoreError(
                        f"cannot read store shard {path!r}: column {name!r} "
                        f"[{start}, {stop}) outside its {columns.size} "
                        "elements"
                    )
                self._views[name] = columns[start:stop]
            cached = self._views[stem]
        return cached

    def row(self, row: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
        """One tree's ``(keys, counts)`` mmap-backed slices for ``kind``."""
        offsets = self.view(kind + "_offsets")
        start = int(offsets[row])
        stop = int(offsets[row + 1])
        return (
            self.view(kind + "_keys")[start:stop],
            self.view(kind + "_counts")[start:stop],
        )

    def total(self, row: int, kind: str) -> int:
        return int(self.view(kind + "_totals")[row])


def _write_generation(
    directory: str,
    name: str,
    rows: Sequence[Row],
    pairs: Sequence[Row],
    labels: Sequence[str] | None = None,
) -> dict:
    """Write one generation's columns file; returns its record.

    ``rows`` holds per-tree ``(full_keys, full_counts)`` arrays already
    re-interned (sorted, ``minoccur=1`` level) and ``pairs`` their pair
    projections, collapsed by the exact :func:`~repro.core.fastmine
    ._collapse_pairs` the in-RAM vectors use, so a reopened store and a
    fresh build disagree on nothing.  A base generation also gets the
    label table (``labels``) as ``labels.json``.
    """
    gen_dir = os.path.join(directory, name)
    os.makedirs(gen_dir, exist_ok=True)
    files: dict[str, int] = {}
    if labels is not None:
        data = json.dumps(list(labels), separators=(",", ":")).encode()
        with atomic_write(os.path.join(gen_dir, LABELS_FILE), "wb") as stream:
            stream.write(data)
        files[LABELS_FILE] = len(data)

    def offsets(parts: Sequence[Row]) -> np.ndarray:
        sizes = np.asarray([keys.size for keys, _ in parts], dtype=np.int64)
        return np.concatenate(([0], np.cumsum(sizes)))

    def totals(parts: Sequence[Row]) -> np.ndarray:
        return np.asarray(
            [int(counts.sum()) for _, counts in parts], dtype=np.int64
        )

    sections = (
        [keys for keys, _ in rows],
        [counts for _, counts in rows],
        [offsets(rows)],
        [keys for keys, _ in pairs],
        [counts for _, counts in pairs],
        [offsets(pairs)],
        [totals(rows)],
        [totals(pairs)],
    )
    columns: dict[str, list[int]] = {}
    start = 0
    for stem, parts in zip(_GEN_STEMS, sections):
        stop = start + sum(part.size for part in parts)
        columns[stem] = [start, stop]
        start = stop
    files[COLUMNS_FILE] = write_array(os.path.join(gen_dir, COLUMNS_FILE), sections)
    return {"name": name, "trees": len(rows), "files": files, "columns": columns}


class PairStore:
    """One packed corpus on disk; open it, query it, keep it in sync.

    Written by :meth:`build` (through
    :meth:`repro.engine.delta.VersionedCorpus.pack_store`) and reloaded
    with :meth:`open`.  Queries —
    :meth:`as_vectors`, :meth:`frequent_pairs` — are byte-identical to
    their in-RAM references over the same tree sequence; mutations
    arrive through :meth:`apply`, which a store-attached
    :class:`~repro.engine.delta.VersionedCorpus` calls on every
    version bump.
    """

    def __init__(
        self,
        directory: str,
        checkpoint: Mapping,
        generations: list[_Generation],
        labels: tuple[str, ...],
    ) -> None:
        self.directory = directory
        self.params = _params_from_dict(checkpoint["params"])
        self.labels = labels
        self.version = int(checkpoint["version"])
        self._serial = int(checkpoint["serial"])
        self._next_uid = int(checkpoint["next_uid"])
        self._generations = generations
        # The row map, patched in place by every journal line.
        self._rows: list[dict] = list(checkpoint["rows"])
        self._by_uid = {int(row["uid"]): row for row in self._rows}
        # Byte length of the journal's complete lines: a torn tail past
        # it is cut off by the next append.
        self._journal_end = 0
        # Byte length of the log's first version + 1 lines, once known;
        # anything past it is a torn tail the next append cuts off.
        self._log_end: int | None = None

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PairStore({self.directory!r}, {len(self)} trees, "
            f"v{self.version}, {len(self._generations)} generation(s))"
        )

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        """Corpus content fingerprint — equals
        :attr:`repro.engine.delta.VersionedCorpus.fingerprint` for the
        same tree sequence, so corpus-level fingerprints interchange."""
        digest = hashlib.sha256()
        for row in self._rows:
            digest.update(row["content_key"].encode("ascii"))
            digest.update(b"|")
        return digest.hexdigest()

    @property
    def names(self) -> list[str]:
        """Display names aligned with corpus positions."""
        return [str(row["name"]) for row in self._rows]

    @property
    def members(self) -> list[Member]:
        """The ``(uid, content_key)`` sequence in corpus order."""
        return [(int(row["uid"]), str(row["content_key"])) for row in self._rows]

    @property
    def next_uid(self) -> int:
        """One past the largest uid the corpus ever issued, so a
        removed tree's uid is never reissued after a reopen."""
        return self._next_uid

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        directory: str,
        members: Sequence[Member],
        labels: Sequence[str],
        rows: Sequence[Row],
        params: MiningParams,
        *,
        version: int,
        names: Sequence[str],
        log: Sequence[Mapping],
        next_uid: int,
    ) -> "PairStore":
        """Write a fresh single-generation store; returns it open.

        ``members`` fixes the corpus order and stable uids (the
        :class:`~repro.engine.delta.VersionedCorpus` form); ``rows``,
        ``names`` and the members align by position, each row a tree's
        sorted ``minoccur=1``-level ``(keys, counts)`` on the sorted
        label table ``labels``.  ``log`` is the delta log through
        ``version``, one record per version; ``next_uid`` is the first
        uid the corpus has not issued.  An existing store in the
        directory is replaced: the checkpoint commits last, then the
        journal is reset and stale generation directories are swept.
        """
        registry = get_registry()
        with get_tracer().span(
            "store.pack", metric="store.pack.seconds", trees=len(members)
        ):
            os.makedirs(directory, exist_ok=True)
            if not len(rows) == len(names) == len(members):
                raise StoreError(
                    f"got {len(rows)} rows and {len(names)} names for "
                    f"{len(members)} trees"
                )
            if len(log) != version + 1:
                raise StoreError(
                    f"got {len(log)} log records for version {version}"
                )
            serial = _fresh_serial(directory)
            labels = tuple(labels)
            record = _write_generation(
                directory,
                _generation_name(serial),
                rows,
                [_collapse_pairs(keys, counts) for keys, counts in rows],
                labels,
            )
            lines = b"".join(_log_line(entry) for entry in log)
            with atomic_write(
                os.path.join(directory, LOG_FILE), "wb"
            ) as stream:
                stream.write(lines)
            checkpoint = {
                "format": STORE_FORMAT,
                "scheme": PACKED_KEY_SCHEME,
                "params": _params_to_dict(params),
                "version": int(version),
                "serial": serial + 1,
                "label_count": len(labels),
                "next_uid": int(next_uid),
                "generations": [record],
                "rows": _base_rows(members, names),
            }
            store = cls(
                directory, checkpoint, [_Generation(directory, record)], labels
            )
            store._write_checkpoint(checkpoint)
            store._log_end = len(lines)
            registry.counter("store.packs").add(1)
            return store

    @classmethod
    def open(cls, directory: str) -> "PairStore":
        """Load the store in ``directory``, validating before serving.

        Only the checkpoint, the journal and the label table are parsed
        and each generation's byte size checked — no key or count page
        is read, which is what keeps a warm reopen fast.  A missing
        checkpoint raises a plain :class:`StoreError`; a corrupt
        checkpoint, journal line or label table, a store of another
        format, a stale generation (missing or truncated file) or a
        foreign packed-key scheme additionally counts one
        ``store.read_errors``.
        """
        registry = get_registry()
        with get_tracer().span("store.open", metric="store.open.seconds"):
            path = os.path.join(directory, STORE_FILE)
            try:
                with open(path, encoding="utf-8") as handle:
                    checkpoint = json.load(handle)
            except FileNotFoundError:
                if os.path.exists(os.path.join(directory, _OLD_CORPUS_FILE)):
                    raise StoreError(
                        f"{directory!r} holds a corpus.json from an older "
                        "release; run 'corpus init' again on its trees"
                    ) from None
                raise StoreError(
                    f"no pair store at {directory!r} "
                    "(run 'corpus init' first)"
                ) from None
            except (OSError, json.JSONDecodeError) as error:
                raise _manifest_failure(path, str(error)) from error
            generations = _validate_checkpoint(directory, path, checkpoint)
            labels = generations[0].read_labels(int(checkpoint["label_count"]))
            store = cls(directory, checkpoint, generations, labels)
            store._replay_journal(int(checkpoint["serial"]))
            for generation in store._generations:
                generation.validate()
            registry.counter("store.opens").add(1)
            return store

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def as_vectors(self, minoccur: int | None = None) -> DistanceVectors:
        """Distance vectors over the store's memmapped rows.

        ``minoccur=None`` (or 1, the packing level) is zero-copy: every
        per-tree key/count array is a slice of a generation's memmap,
        and the totals come from the persisted totals columns — nothing
        forces a data page until a query touches it.  A larger
        ``minoccur`` filters rows at load, copying only the survivors,
        and equals a fresh :meth:`DistanceVectors.from_packed` at that
        threshold.
        """
        minoccur = 1 if minoccur is None else validate_minoccur(minoccur)
        with get_tracer().span(
            "store.vectors", trees=len(self), minoccur=minoccur
        ):
            full_keys = []
            full_counts = []
            pair_keys = []
            pair_counts = []
            full_totals = []
            pair_totals = []
            for row in self._rows:
                generation = self._generations[row["gen"]]
                keys, counts = generation.row(row["row"], "full")
                full_keys.append(keys)
                full_counts.append(counts)
                keys, counts = generation.row(row["row"], "pair")
                pair_keys.append(keys)
                pair_counts.append(counts)
                full_totals.append(generation.total(row["row"], "full"))
                pair_totals.append(generation.total(row["row"], "pair"))
            vectors = DistanceVectors._from_columns(
                self.labels,
                full_keys,
                full_counts,
                pair_keys,
                pair_counts,
                full_totals,
                pair_totals,
            )
            get_registry().counter("store.vectors").add(1)
            return vectors.at_minoccur(minoccur)

    def frequent_pairs(
        self, minsup: int = 2, ignore_distance: bool = False
    ) -> list[FrequentCousinPair]:
        """Frequent cousin pairs, straight off the generation columns.

        Byte-identical to :func:`repro.core.multi_tree.mine_forest`
        over the store's tree sequence with its parameters — same
        records, same ``tree_indexes``, same order: the live rows'
        full key/count columns (memmap slices, ``minoccur=1`` level)
        go through the one aggregation kernel,
        :func:`repro.core.multi_tree.aggregate_rows`, with the store's
        ``minoccur``.
        """
        minsup = validate_minsup(minsup)
        with get_tracer().span(
            "store.frequent_pairs",
            metric="store.frequent_pairs.seconds",
            trees=len(self),
            minsup=minsup,
        ):
            rows = [
                self._generations[row["gen"]].row(row["row"], "full")
                for row in self._rows
            ]
            get_registry().counter("store.frequent_pairs").add(1)
            return aggregate_rows(
                self.labels,
                [keys for keys, _ in rows],
                [counts for _, counts in rows],
                minoccur=self.params.minoccur,
                minsup=minsup,
                ignore_distance=ignore_distance,
            )

    # ------------------------------------------------------------------
    # Delta log (the log.jsonl sidecar; never read by open)
    # ------------------------------------------------------------------
    def read_log(
        self, decode: Callable[[dict], _Record]
    ) -> list[_Record]:
        """The delta log through :attr:`version`, one record per version.

        Each of the first ``version + 1`` lines must be a JSON object
        whose ``version`` is its line number, and must pass ``decode``;
        later lines are the torn tail of an append whose journal line
        never committed, and are ignored.  A shorter log or a bad line
        counts one ``store.read_errors`` and raises :class:`StoreError`.
        """
        path = os.path.join(self.directory, LOG_FILE)
        lines = self._committed_log(path).split(b"\n")[:-1]
        records = []
        try:
            for number, line in enumerate(lines):
                entry = json.loads(line)
                if entry["version"] != number:
                    raise ValueError(
                        f"line {number + 1} records version "
                        f"{entry['version']!r}"
                    )
                records.append(decode(entry))
        except (KeyError, TypeError, ValueError) as error:
            get_registry().counter("store.read_errors").add(1)
            raise StoreError(
                f"corrupt corpus log {path!r}: {error}"
            ) from error
        return records

    def _committed_log(self, path: str) -> bytes:
        """The log's first ``version + 1`` lines, undecoded; records
        their byte length."""
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            data = b""
        end = 0
        for _ in range(self.version + 1):
            end = data.find(b"\n", end) + 1
            if not end:
                get_registry().counter("store.read_errors").add(1)
                records = data.count(b"\n")
                raise StoreError(
                    f"corpus log {path!r} is shorter than the store: "
                    f"{records} record(s) for version {self.version}"
                )
        self._log_end = end
        return data[:end]

    def _append_log(self, entry: Mapping) -> int:
        """Write one record after the committed lines, cutting any torn
        tail; returns the log's length once the caller's commit
        lands."""
        path = os.path.join(self.directory, LOG_FILE)
        if self._log_end is None:
            self._committed_log(path)
        assert self._log_end is not None
        return _append_line(path, self._log_end, entry)

    # ------------------------------------------------------------------
    # Journal (the row map's edits since the checkpoint)
    # ------------------------------------------------------------------
    def _replay_journal(self, serial: int) -> None:
        """Patch the checkpoint's row map with the journal's lines.

        Only complete lines count: bytes past the last newline are a
        torn append, ignored here and cut off by the next one.  Lines
        at or below the checkpoint's version, or below its ``serial``,
        predate it (a compaction or build that crashed before resetting
        the journal) and are skipped.  A line that does not parse or
        does not fit the row map counts one ``store.read_errors`` and
        raises :class:`StoreError`.
        """
        path = os.path.join(self.directory, JOURNAL_FILE)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            data = b""
        self._journal_end = data.rfind(b"\n") + 1
        checkpoint_version = self.version
        for number, line in enumerate(
            data[: self._journal_end].split(b"\n")[:-1], start=1
        ):
            try:
                entry = json.loads(line)
                if (
                    int(entry["version"]) <= checkpoint_version
                    or int(entry["serial"]) < serial
                ):
                    continue
                self._patch(entry)
            except (KeyError, TypeError, ValueError, IndexError) as error:
                get_registry().counter("store.read_errors").add(1)
                raise StoreError(
                    f"corrupt pair store journal {path!r}: line {number}: "
                    f"{error}"
                ) from error

    def _patch(self, entry: Mapping) -> None:
        """Apply one journal line's row-map edit in place.

        Dropped uids leave the row map; inserted rows take their
        recorded final positions in ascending order, each pointing at
        its row of the line's generation.  Raises ``ValueError`` (or a
        lookup error) when the line does not fit the row map.
        """
        version = int(entry["version"])
        if version <= self.version:
            raise ValueError(
                f"version {version} does not follow {self.version}"
            )
        inserts = entry["insert"]
        record = entry["generation"]
        generation = None
        if record is not None:
            generation = _Generation(self.directory, record)
        if len(inserts) > (0 if generation is None else generation.trees):
            raise ValueError(f"inserts {len(inserts)} rows it did not write")
        dropped = {int(uid) for uid in entry["drop"]}
        unknown = dropped - self._by_uid.keys()
        if unknown:
            raise ValueError(f"drops unknown uids {sorted(unknown)!r}")
        rows = self._rows
        if dropped:
            for position in reversed(
                [at for at, row in enumerate(rows) if row["uid"] in dropped]
            ):
                del self._by_uid[rows[position]["uid"]]
                del rows[position]
        if generation is not None:
            self._generations.append(generation)
        gen = len(self._generations) - 1
        for index, (position, uid, content_key, name) in enumerate(inserts):
            if not 0 <= int(position) <= len(rows) or int(uid) in self._by_uid:
                raise ValueError(f"cannot insert uid {uid} at {position}")
            row = {
                "gen": gen,
                "row": index,
                "uid": int(uid),
                "content_key": str(content_key),
                "name": str(name),
            }
            rows.insert(int(position), row)
            self._by_uid[row["uid"]] = row
        self.version = version
        self._serial = int(entry["serial"])
        self._next_uid = int(entry["next_uid"])

    def _write_checkpoint(self, checkpoint: Mapping) -> None:
        """Replace ``store.json`` (the commit point), reset the journal
        and sweep the generations the checkpoint no longer references.

        Compact JSON, so ``json`` runs its C encoder (an ``indent``
        forces the pure-Python one).
        """
        with atomic_write(os.path.join(self.directory, STORE_FILE)) as stream:
            stream.write(json.dumps(checkpoint, separators=(",", ":")) + "\n")
        with atomic_write(os.path.join(self.directory, JOURNAL_FILE), "wb"):
            pass
        self._journal_end = 0
        _sweep_orphans(
            self.directory,
            {str(record["name"]) for record in checkpoint["generations"]},
        )

    # ------------------------------------------------------------------
    # Mutation (journaled append + compaction)
    # ------------------------------------------------------------------
    def apply(
        self,
        members: Sequence[Member],
        packed: Mapping[int, PackedCounts] | None = None,
        *,
        version: int,
        names: Mapping[int, str] | None = None,
        log: Mapping,
        pairs: Mapping[int, Row] | None = None,
    ) -> None:
        """Bring the store to ``members`` at ``version``.

        ``members`` is the new ``(uid, content_key)`` sequence;
        ``packed`` must cover every uid the store has not seen (known
        uids reuse their persisted rows — their arrays are never
        rewritten outside compaction), and ``pairs`` may carry a new
        uid's collapsed pair projection when its counts are on this
        store's label tuple, so the store need not collapse it again.
        New trees whose labels fit the store's table land in one
        appended generation and the row-map edit in one journal line;
        label growth, a dead-row fraction of one half or reordered
        surviving rows trigger compaction into a single fresh
        generation.  ``log`` is the record of ``version``, appended to
        the delta log before the journal line (or checkpoint), which is
        the commit point.
        """
        packed = {} if packed is None else packed
        pairs = {} if pairs is None else pairs
        registry = get_registry()
        with get_tracer().span(
            "store.apply", metric="store.apply.seconds", trees=len(members)
        ):
            current = self._by_uid
            fresh: list[tuple[int, int, str]] = []
            for position, (uid, content_key) in enumerate(members):
                row = current.get(uid)
                if row is None:
                    fresh.append((position, uid, content_key))
                elif row["content_key"] != content_key:
                    raise StoreError(
                        f"uid {uid} changed content under the store "
                        f"({row['content_key'][:12]}.. -> "
                        f"{content_key[:12]}..); re-pack"
                    )
            missing = [uid for _, uid, _ in fresh if uid not in packed]
            if missing:
                raise StoreError(
                    f"no packed counts supplied for new uids {missing!r}"
                )
            uids = {uid for uid, _ in members}
            if len(uids) != len(members):
                raise StoreError("members repeat a uid")
            if (
                not fresh
                and version == self.version
                and self.members == [(uid, key) for uid, key in members]
            ):
                return
            if version <= self.version:
                raise StoreError(
                    f"version {version} does not follow the store's "
                    f"{self.version}"
                )
            # Rows on this store's own label tuple (a corpus commit's)
            # need no lookup: identity, never a tuple comparison.
            unknown = {
                label
                for _, uid, _ in fresh
                if packed[uid].labels is not self.labels
                for label in packed[uid].labels_used()
                if find_label(self.labels, label) < 0
            }
            survivors = [row["uid"] for row in self._rows if row["uid"] in uids]
            reordered = survivors != [uid for uid, _ in members if uid in current]
            stored = sum(g.trees for g in self._generations)
            dead = stored - (len(members) - len(fresh))
            log_end = self._append_log(log)
            if (
                unknown
                or reordered
                or (stored and dead * 2 >= stored + len(fresh))
            ):
                self._compact(members, packed, pairs, version, names, unknown)
            else:
                dropped = [
                    row["uid"] for row in self._rows if row["uid"] not in uids
                ]
                self._append(fresh, dropped, packed, pairs, version, names)
            self._log_end = log_end
            registry.counter("store.applies").add(1)

    def _fresh_rows(
        self,
        uids: Sequence[int],
        packed: Mapping[int, PackedCounts],
        pairs: Mapping[int, Row],
        labels: tuple[str, ...],
    ) -> tuple[list[Row], list[Row]]:
        """New trees' rows on ``labels`` and their pair projections:
        handed over when the counts already sit on ``labels``,
        collapsed here otherwise."""
        rows = []
        projections = []
        for uid in uids:
            counts = packed[uid]
            keys, values = _remap_packed(counts, labels, 1)
            rows.append((keys, values))
            if uid in pairs and counts.labels is labels:
                projections.append(pairs[uid])
            else:
                projections.append(_collapse_pairs(keys, values))
        return rows, projections

    def _append(
        self,
        fresh: Sequence[tuple[int, int, str]],
        dropped: Sequence[int],
        packed: Mapping[int, PackedCounts],
        pairs: Mapping[int, Row],
        version: int,
        names: Mapping[int, str] | None,
    ) -> None:
        """Write new trees as one generation; journal the row-map edit."""
        with get_tracer().span(
            "store.append",
            metric="store.append.seconds",
            trees=len(self._rows) - len(dropped) + len(fresh),
            fresh=len(fresh),
        ):
            serial = self._serial
            record = None
            if fresh:
                rows, projections = self._fresh_rows(
                    [uid for _, uid, _ in fresh], packed, pairs, self.labels
                )
                record = _write_generation(
                    self.directory, _generation_name(serial), rows, projections
                )
                serial += 1
            entry = {
                "version": int(version),
                "serial": serial,
                "next_uid": max(
                    [self._next_uid] + [uid + 1 for _, uid, _ in fresh]
                ),
                "drop": [int(uid) for uid in dropped],
                "insert": [
                    [position, int(uid), str(content_key), _name(names, uid)]
                    for position, uid, content_key in fresh
                ],
                "generation": record,
            }
            self._journal_end = _append_line(
                os.path.join(self.directory, JOURNAL_FILE),
                self._journal_end,
                entry,
            )
            self._patch(entry)
            if record is not None:
                get_registry().counter("store.generations.appended").add(1)
            _sweep_orphans(
                self.directory, {generation.name for generation in self._generations}
            )

    def _compact(
        self,
        members: Sequence[Member],
        packed: Mapping[int, PackedCounts],
        pairs: Mapping[int, Row],
        version: int,
        names: Mapping[int, str] | None,
        unknown: set[str],
    ) -> None:
        """Rewrite every live row into one fresh base generation.

        Existing rows come straight off the current generations (memmap
        slices, re-interned through the monotone remap when the
        ``unknown`` labels grow the universe); new rows come from their
        packed counts; the label table is written beside them.  The
        new checkpoint is the commit point; the old generation
        directories are removed only after it, so a crash at any point
        leaves a consistent store — at worst with an orphaned directory
        the next write sweeps.
        """
        with get_tracer().span(
            "store.compact",
            metric="store.compact.seconds",
            trees=len(members),
        ):
            new_labels = self.labels
            remap = None
            if unknown:
                new_labels = tuple(sorted((*self.labels, *unknown)))
                remap = _monotone_remap(self.labels, new_labels)
                # Adopt the commit's grown tuple when it is this table,
                # so the next commit's rows pass by identity.
                tuples = {id(row.labels): row.labels for row in packed.values()}
                if len(tuples) == 1:
                    (labels,) = tuples.values()
                    if labels == new_labels:
                        new_labels = labels
            current = self._by_uid
            fresh = [uid for uid, _ in members if uid not in current]
            fresh_rows, fresh_pairs = self._fresh_rows(
                fresh, packed, pairs, new_labels
            )
            made = dict(zip(fresh, zip(fresh_rows, fresh_pairs)))
            rows = []
            projections = []
            for uid, _ in members:
                if uid in made:
                    row, projection = made[uid]
                else:
                    old = current[uid]
                    keys, counts = self._generations[old["gen"]].row(
                        old["row"], "full"
                    )
                    keys = np.asarray(keys, dtype=np.int64)
                    if remap is not None:
                        keys = _remap_full_keys(keys, remap)
                    row = (keys, np.asarray(counts, dtype=np.int64))
                    projection = _collapse_pairs(*row)
                rows.append(row)
                projections.append(projection)
            serial = self._serial
            record = _write_generation(
                self.directory,
                _generation_name(serial),
                rows,
                projections,
                new_labels,
            )
            checkpoint = {
                "format": STORE_FORMAT,
                "scheme": PACKED_KEY_SCHEME,
                "params": _params_to_dict(self.params),
                "version": int(version),
                "serial": serial + 1,
                "label_count": len(new_labels),
                "next_uid": max(
                    [self._next_uid] + [uid + 1 for uid, _ in members]
                ),
                "generations": [record],
                "rows": _base_rows(
                    members,
                    [
                        str(current[uid]["name"])
                        if uid in current
                        else _name(names, uid)
                        for uid, _ in members
                    ],
                ),
            }
            self._write_checkpoint(checkpoint)
            self._generations = [_Generation(self.directory, record)]
            self._rows = checkpoint["rows"]
            self._by_uid = {row["uid"]: row for row in self._rows}
            self._serial = serial + 1
            self._next_uid = checkpoint["next_uid"]
            self.labels = new_labels
            self.version = int(version)
            get_registry().counter("store.compactions").add(1)


def _name(names: Mapping[int, str] | None, uid: int) -> str:
    """A new tree's display name: the caller's, or ``t<uid>``."""
    return names[uid] if names is not None and uid in names else f"t{uid}"


def _base_rows(members: Sequence[Member], names: Sequence[str]) -> list[dict]:
    """The row map of a single base generation holding ``members``."""
    return [
        {
            "gen": 0,
            "row": index,
            "uid": int(uid),
            "content_key": str(content_key),
            "name": str(name),
        }
        for index, ((uid, content_key), name) in enumerate(zip(members, names))
    ]


def _append_line(path: str, end: int, entry: Mapping) -> int:
    """Write ``entry`` as one line at byte ``end`` of ``path``, cutting
    whatever followed (a torn tail); returns the new end."""
    line = _log_line(entry)
    descriptor = os.open(path, os.O_WRONLY | os.O_CREAT, 0o644)
    with os.fdopen(descriptor, "wb") as handle:
        handle.seek(end)
        handle.truncate()
        handle.write(line)
    return end + len(line)


def _fresh_serial(directory: str) -> int:
    """First unused generation serial in ``directory``.

    Scanned from the directory names rather than any checkpoint, so a
    build over a half-written store never reuses — and therefore
    never clobbers — generations an existing checkpoint or journal
    still references before the new checkpoint commits.
    """
    serial = 0
    try:
        entries = os.listdir(directory)
    except OSError:
        return 0
    for entry in entries:
        if entry.startswith("gen-"):
            try:
                serial = max(serial, int(entry[4:]) + 1)
            except ValueError:
                continue
    return serial


def _sweep_orphans(directory: str, referenced: set[str]) -> None:
    """Remove the generation directories not named in ``referenced``.

    Runs after every commit; an orphan is the debris of a commit,
    compaction or build that crashed between writing its generation
    and committing — harmless to readers, reclaimed here.
    """
    try:
        entries = os.listdir(directory)
    except OSError:  # pragma: no cover - directory vanished underneath
        return
    for entry in entries:
        if entry.startswith("gen-") and entry not in referenced:
            shutil.rmtree(os.path.join(directory, entry), ignore_errors=True)


def _validate_checkpoint(
    directory: str, path: str, checkpoint: object
) -> list[_Generation]:
    """Structure-check a parsed checkpoint; returns its generations.

    Every failure counts one ``store.read_errors`` and raises
    :class:`StoreError`.
    """
    if not isinstance(checkpoint, dict):
        raise _manifest_failure(path, "not a JSON object")
    if checkpoint.get("format") != STORE_FORMAT:
        raise _manifest_failure(
            path,
            f"unsupported format {checkpoint.get('format')!r} "
            f"(expected {STORE_FORMAT}); run 'corpus init' again on its "
            "trees",
        )
    if checkpoint.get("scheme") != PACKED_KEY_SCHEME:
        raise _manifest_failure(
            path,
            f"foreign packed-key scheme {checkpoint.get('scheme')!r} "
            f"(expected {PACKED_KEY_SCHEME!r})",
        )
    try:
        _params_from_dict(checkpoint["params"])
        int(checkpoint["version"])
        int(checkpoint["serial"])
        int(checkpoint["label_count"])
        int(checkpoint["next_uid"])
        generations = [
            _Generation(directory, record)
            for record in checkpoint["generations"]
        ]
        if not generations:
            raise ValueError("no generations")
        for row in checkpoint["rows"]:
            gen = int(row["gen"])
            position = int(row["row"])
            if not 0 <= gen < len(generations):
                raise ValueError(f"row references generation {gen}")
            if not 0 <= position < generations[gen].trees:
                raise ValueError(
                    f"row {position} outside generation "
                    f"{generations[gen].name!r}"
                )
            int(row["uid"])
            str(row["content_key"])
            str(row["name"])
    except (KeyError, TypeError, ValueError) as error:
        raise _manifest_failure(path, str(error)) from error
    return generations
