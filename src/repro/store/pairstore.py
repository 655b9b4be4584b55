"""The on-disk pair store: memmappable corpus shards behind a manifest.

A packed corpus lives in one directory::

    store.json            manifest (format, scheme, params, version,
                          label table, generations, row map)
    gen-000000/           one *generation* of row shards
        full_keys.npy     concatenated per-tree sorted packed keys
        full_counts.npy   parallel occurrence counts
        full_offsets.npy  row boundaries (``trees + 1`` entries)
        pair_keys.npy     the distance-free pair projection, collapsed
        pair_counts.npy   exactly as :func:`repro.core.distvec
        pair_offsets.npy  ._collapse_pairs` would
        full_totals.npy   per-tree occurrence totals
        pair_totals.npy   per-tree collapsed totals

Rows are persisted at the ``minoccur=1`` level — the same raw state
:class:`~repro.engine.delta.VersionedCorpus` maintains — so any
occurrence threshold can be re-derived at load time, and the manifest
maps each corpus position to ``(generation, row)`` plus its stable
uid, engine content address and display name.  Every file is written
through :func:`repro.io.atomic_write`; the manifest replace is the
commit point, so a crash mid-write leaves either the old complete
store or the new complete store (an orphaned generation directory is
ignored by :meth:`PairStore.open` and swept by the next write).

Mutations append: new trees land in a fresh generation, removals and
replacements only rewrite the manifest's row map.  When the dead
fraction reaches one half — or new trees grow the label universe, a
monotone re-intern of every surviving key — the store *compacts* into
a single fresh generation and drops the old directories.

Reads are lazy: :meth:`PairStore.open` touches only the manifest and
the shard file sizes (truncation is detected before any memmap is
handed out), and :meth:`PairStore.as_vectors` slices
``np.load(..., mmap_mode="r")`` views per tree into a
:class:`~repro.core.distvec.DistanceVectors` — byte-identical in
every query to an in-RAM build over the same trees, without loading a
key column until a join touches it.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.core.distvec import (
    DistanceVectors,
    _collapse_pairs,
    _monotone_remap,
    _remap_full_keys,
    _remap_packed,
)
from repro.core.multi_tree import FrequentCousinPair, aggregate_rows
from repro.core.params import MiningParams, validate_minoccur, validate_minsup
from repro.engine.engine import forest_fingerprint
from repro.errors import StoreError
from repro.io import atomic_write
from repro.obs.context import get_registry, get_tracer
from repro.store.shards import load_array, write_array
from repro.trees.arena import LabelTable
from repro.trees.packing import PACKED_KEY_SCHEME
from repro.trees.tree import Tree

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.fastmine import PackedCounts
    from repro.engine.engine import MiningEngine

__all__ = ["PairStore", "STORE_FILE", "STORE_FORMAT"]

STORE_FILE = "store.json"
STORE_FORMAT = 1

# One store generation is these eight .npy columns, nothing else.
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
    """Count one manifest-read degradation and build the error."""
    get_registry().counter("store.read_errors").add(1)
    return StoreError(f"corrupt pair store manifest {path!r}: {detail}")


def _generation_name(serial: int) -> str:
    return f"gen-{serial:06d}"


class _Generation:
    """One immutable shard set: lazy, size-validated memmap columns."""

    __slots__ = ("directory", "name", "trees", "files", "_arrays", "_views")

    def __init__(self, store_directory: str, record: Mapping) -> None:
        self.name = str(record["name"])
        self.directory = os.path.join(store_directory, self.name)
        self.trees = int(record["trees"])
        self.files = {
            str(filename): int(size)
            for filename, size in record["files"].items()
        }
        self._arrays: dict[str, np.ndarray] = {}
        self._views: dict[str, np.ndarray] = {}

    def validate(self) -> None:
        """Check every column exists at its recorded byte size.

        Runs at :meth:`PairStore.open` — a missing or truncated shard
        (the mid-write crash signatures) counts one
        ``store.read_errors`` and fails the open before any memmap
        view could fault mid-query.  Only ``stat`` calls: no data
        page is read.
        """
        for stem in _GEN_STEMS:
            filename = stem + ".npy"
            expected = self.files.get(filename)
            path = os.path.join(self.directory, filename)
            if expected is None:
                raise _manifest_failure(
                    path, f"generation {self.name!r} records no size for it"
                )
            if not os.path.exists(path):
                get_registry().counter("store.read_errors").add(1)
                raise StoreError(f"missing store shard {path!r}")
            actual = os.path.getsize(path)
            if actual != expected:
                get_registry().counter("store.read_errors").add(1)
                raise StoreError(
                    f"truncated store shard {path!r}: expected "
                    f"{expected} bytes, found {actual}"
                )

    def array(self, stem: str) -> np.ndarray:
        column = self._arrays.get(stem)
        if column is None:
            filename = stem + ".npy"
            column = load_array(
                os.path.join(self.directory, filename),
                expected_bytes=self.files.get(filename),
            )
            self._arrays[stem] = column
        return column

    def view(self, stem: str) -> np.ndarray:
        """A plain-ndarray view of one memmapped column.

        Slicing ``np.memmap`` pays ``__array_finalize__`` per slice
        (~7x the cost of slicing a plain array); the view shares the
        same mapped buffer, so per-row gathers stay zero-copy but
        cheap enough to open a 10k-tree store well under the
        reopen-to-first-query budget.
        """
        cached = self._views.get(stem)
        if cached is None:
            cached = self.array(stem).view(np.ndarray)
            self._views[stem] = cached
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
    rows: Sequence[tuple[np.ndarray, np.ndarray]],
) -> dict:
    """Write one generation's eight columns; returns its manifest record.

    ``rows`` holds per-tree ``(full_keys, full_counts)`` arrays already
    re-interned (sorted, ``minoccur=1`` level); the pair projection is
    derived here with the exact :func:`~repro.core.distvec
    ._collapse_pairs` the in-RAM vectors use, so a reopened store and a
    fresh build disagree on nothing.
    """
    gen_dir = os.path.join(directory, name)
    os.makedirs(gen_dir, exist_ok=True)
    collapsed = [_collapse_pairs(keys, counts) for keys, counts in rows]
    files: dict[str, int] = {}

    def column(stem: str, parts: Sequence[np.ndarray]) -> None:
        flat = (
            np.concatenate(parts)
            if parts
            else np.zeros(0, dtype=np.int64)
        )
        files[stem + ".npy"] = write_array(
            os.path.join(gen_dir, stem + ".npy"), flat.astype(np.int64)
        )

    def offsets(stem: str, parts: Sequence[np.ndarray]) -> None:
        sizes = np.asarray([part.size for part in parts], dtype=np.int64)
        files[stem + ".npy"] = write_array(
            os.path.join(gen_dir, stem + ".npy"),
            np.concatenate(([0], np.cumsum(sizes))).astype(np.int64),
        )

    def totals(stem: str, parts: Sequence[np.ndarray]) -> None:
        files[stem + ".npy"] = write_array(
            os.path.join(gen_dir, stem + ".npy"),
            np.asarray([int(part.sum()) for part in parts], dtype=np.int64),
        )

    column("full_keys", [keys for keys, _ in rows])
    column("full_counts", [counts for _, counts in rows])
    offsets("full_offsets", [keys for keys, _ in rows])
    totals("full_totals", [counts for _, counts in rows])
    column("pair_keys", [keys for keys, _ in collapsed])
    column("pair_counts", [counts for _, counts in collapsed])
    offsets("pair_offsets", [keys for keys, _ in collapsed])
    totals("pair_totals", [counts for _, counts in collapsed])
    return {"name": name, "trees": len(rows), "files": files}


class PairStore:
    """One packed corpus on disk; open it, query it, keep it in sync.

    Build with :meth:`pack` (mines the trees through an engine and
    writes generation zero) and reload with :meth:`open`.  Queries —
    :meth:`as_vectors`, :meth:`frequent_pairs` — are byte-identical to
    their in-RAM references over the same tree sequence; mutations
    arrive through :meth:`apply`, which a store-attached
    :class:`~repro.engine.delta.VersionedCorpus` calls on every
    version bump.
    """

    def __init__(
        self,
        directory: str,
        manifest: dict,
        generations: list[_Generation],
    ) -> None:
        self.directory = directory
        self._manifest = manifest
        self._generations = generations
        self.params = _params_from_dict(manifest["params"])
        self.labels: tuple[str, ...] = tuple(manifest["labels"])
        self.version = int(manifest["version"])

    def __len__(self) -> int:
        return len(self._manifest["rows"])

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
        same tree sequence, so corpus-level cache keys interchange."""
        digest = hashlib.sha256()
        for row in self._manifest["rows"]:
            digest.update(row["content_key"].encode("ascii"))
            digest.update(b"|")
        return digest.hexdigest()

    def vectors_fingerprint(self, minoccur: int) -> str:
        """The engine's distance-vectors digest for this sequence.

        The engine's :func:`~repro.engine.engine.forest_fingerprint`,
        as :meth:`repro.engine.engine.MiningEngine.distance_vectors`
        stamps it, so matrix and sketch memos keyed by a
        store-served vectors object interchange with engine builds.
        """
        return forest_fingerprint(
            [row["content_key"] for row in self._manifest["rows"]], minoccur
        )

    @property
    def names(self) -> list[str]:
        """Display names aligned with corpus positions."""
        return [str(row["name"]) for row in self._manifest["rows"]]

    @property
    def members(self) -> list[Member]:
        """The ``(uid, content_key)`` sequence in corpus order."""
        return [
            (int(row["uid"]), str(row["content_key"]))
            for row in self._manifest["rows"]
        ]

    def check_params(self, params: MiningParams) -> None:
        """Raise :class:`StoreError` unless ``params`` match the store's.

        Packed rows are a function of the mining parameters; serving
        them under different knobs would be silently wrong.
        """
        if _params_to_dict(params) != _params_to_dict(self.params):
            raise StoreError(
                f"mining parameters {_params_to_dict(params)!r} do not "
                f"match the store's {_params_to_dict(self.params)!r}; "
                "re-pack the store to change them"
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def pack(
        cls,
        directory: str,
        trees: Sequence[Tree],
        params: MiningParams | None = None,
        *,
        engine: "MiningEngine | None" = None,
        names: Sequence[str] | None = None,
        version: int = 0,
    ) -> "PairStore":
        """Mine ``trees`` and write them as a fresh store in ``directory``.

        Per-tree mining goes through ``engine`` (a private one when
        omitted) so warm caches are reused; uids are positional.  An
        existing store in the directory is replaced — the new manifest
        commits atomically and stale generation directories are swept.
        """
        from repro.engine.engine import MiningEngine

        if engine is None:
            engine = MiningEngine()
        if params is None:
            params = MiningParams(
                maxdist=1.5,
                minoccur=1,
                minsup=1,
                max_generation_gap=1,
                max_height=None,
            )
        trees = list(trees)
        if names is not None and len(names) != len(trees):
            raise StoreError(
                f"got {len(names)} names for {len(trees)} trees"
            )
        keys, packed = engine.packed_counts(trees, params)
        members = [(index, key) for index, key in enumerate(keys)]
        name_map = {
            index: (
                names[index]
                if names is not None
                else (tree.name or f"t{index}")
            )
            for index, tree in enumerate(trees)
        }
        return cls.build(
            directory,
            members,
            dict(enumerate(packed)),
            params,
            version=version,
            names=name_map,
        )

    @classmethod
    def build(
        cls,
        directory: str,
        members: Sequence[Member],
        packed: Mapping[int, "PackedCounts"],
        params: MiningParams,
        *,
        version: int = 0,
        names: Mapping[int, str] | None = None,
    ) -> "PairStore":
        """Write a fresh single-generation store from mined contributions.

        ``members`` fixes the corpus order and stable uids (the
        :class:`~repro.engine.delta.VersionedCorpus` form); ``packed``
        must cover every uid with its ``minoccur=1``-level
        :class:`~repro.core.fastmine.PackedCounts`.
        """
        registry = get_registry()
        with get_tracer().span(
            "store.pack", metric="store.pack.seconds", trees=len(members)
        ):
            os.makedirs(directory, exist_ok=True)
            missing = [uid for uid, _ in members if uid not in packed]
            if missing:
                raise StoreError(
                    f"no packed counts supplied for uids {missing!r}"
                )
            table = LabelTable(
                label
                for uid, _ in members
                for label in packed[uid].labels
            )
            rows = [
                _remap_packed(packed[uid], table, 1) for uid, _ in members
            ]
            serial = _fresh_serial(directory)
            record = _write_generation(
                directory, _generation_name(serial), rows
            )
            manifest = {
                "format": STORE_FORMAT,
                "scheme": PACKED_KEY_SCHEME,
                "params": _params_to_dict(params),
                "version": int(version),
                "serial": serial + 1,
                "labels": list(table.labels),
                "generations": [record],
                "rows": [
                    {
                        "gen": 0,
                        "row": index,
                        "uid": int(uid),
                        "content_key": str(content_key),
                        "name": (
                            names[uid]
                            if names is not None and uid in names
                            else f"t{uid}"
                        ),
                    }
                    for index, (uid, content_key) in enumerate(members)
                ],
            }
            _write_manifest(directory, manifest)
            _sweep_orphans(directory, manifest)
            registry.counter("store.packs").add(1)
            return cls(
                directory, manifest, [_Generation(directory, record)]
            )

    @classmethod
    def open(cls, directory: str) -> "PairStore":
        """Load the store in ``directory``, validating before serving.

        Only the manifest is parsed and the shard byte sizes checked —
        no key or count page is read, which is what keeps a warm
        reopen fast.  A missing manifest raises a plain
        :class:`StoreError`; a corrupt manifest, a stale generation
        (missing or truncated shard) or a foreign packed-key scheme
        additionally counts one ``store.read_errors``.
        """
        registry = get_registry()
        with get_tracer().span("store.open", metric="store.open.seconds"):
            path = os.path.join(directory, STORE_FILE)
            try:
                with open(path, encoding="utf-8") as handle:
                    manifest = json.load(handle)
            except FileNotFoundError:
                raise StoreError(
                    f"no pair store at {directory!r} "
                    "(run 'corpus pack' first)"
                ) from None
            except (OSError, json.JSONDecodeError) as error:
                raise _manifest_failure(path, str(error)) from error
            generations = _validate_manifest(directory, path, manifest)
            registry.counter("store.opens").add(1)
            return cls(directory, manifest, generations)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def as_vectors(self, minoccur: int | None = None) -> DistanceVectors:
        """Distance vectors over the store's memmapped rows.

        ``minoccur=None`` (or 1, the packing level) is zero-copy: every
        per-tree key/count array is a slice of a shard memmap, and the
        totals come from the persisted totals columns — nothing forces
        a data page until a query touches it.  A larger ``minoccur``
        filters rows at load, copying only the survivors, and equals a
        fresh :meth:`DistanceVectors.from_packed` at that threshold.
        """
        minoccur = 1 if minoccur is None else validate_minoccur(minoccur)
        registry = get_registry()
        with get_tracer().span(
            "store.vectors", trees=len(self), minoccur=minoccur
        ):
            rows = self._manifest["rows"]
            full_keys = []
            full_counts = []
            for row in rows:
                keys, counts = self._generations[row["gen"]].row(
                    row["row"], "full"
                )
                full_keys.append(keys)
                full_counts.append(counts)
            if minoccur == 1:
                pair_keys = []
                pair_counts = []
                full_totals = []
                pair_totals = []
                for row in rows:
                    generation = self._generations[row["gen"]]
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
            else:
                filtered_keys = []
                filtered_counts = []
                for keys, counts in zip(full_keys, full_counts):
                    keep = np.asarray(counts) >= minoccur
                    filtered_keys.append(np.asarray(keys)[keep])
                    filtered_counts.append(np.asarray(counts)[keep])
                vectors = DistanceVectors(
                    self.labels, filtered_keys, filtered_counts
                )
            vectors.fingerprint = self.vectors_fingerprint(minoccur)
            registry.counter("store.vectors").add(1)
            return vectors

    def frequent_pairs(
        self, minsup: int = 2, ignore_distance: bool = False
    ) -> list[FrequentCousinPair]:
        """Frequent cousin pairs, straight off the shard columns.

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
                for row in self._manifest["rows"]
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
    # Mutation (generation append + compaction)
    # ------------------------------------------------------------------
    def apply(
        self,
        members: Sequence[Member],
        packed: Mapping[int, "PackedCounts"] | None = None,
        *,
        version: int,
        names: Mapping[int, str] | None = None,
    ) -> None:
        """Bring the store to ``members`` at ``version``.

        ``members`` is the new ``(uid, content_key)`` sequence;
        ``packed`` must cover every uid the store has not seen (known
        uids reuse their persisted rows — their arrays are never
        rewritten outside compaction).  New trees whose labels fit the
        store's table land in one appended generation; label growth or
        a dead-row fraction of one half triggers compaction into a
        single fresh generation.  The manifest replace is the commit
        point either way.
        """
        packed = {} if packed is None else packed
        registry = get_registry()
        with get_tracer().span(
            "store.apply", metric="store.apply.seconds", trees=len(members)
        ):
            current = {
                int(row["uid"]): row for row in self._manifest["rows"]
            }
            for uid, content_key in members:
                row = current.get(uid)
                if row is not None and row["content_key"] != content_key:
                    raise StoreError(
                        f"uid {uid} changed content under the store "
                        f"({row['content_key'][:12]}.. -> "
                        f"{content_key[:12]}..); re-pack"
                    )
            fresh = [
                (uid, content_key)
                for uid, content_key in members
                if uid not in current
            ]
            missing = [uid for uid, _ in fresh if uid not in packed]
            if missing:
                raise StoreError(
                    f"no packed counts supplied for new uids {missing!r}"
                )
            if (
                not fresh
                and version == self.version
                and [
                    (int(row["uid"]), str(row["content_key"]))
                    for row in self._manifest["rows"]
                ]
                == [(uid, key) for uid, key in members]
            ):
                return
            incoming = {
                label
                for uid, _ in fresh
                for label in packed[uid].labels
            }
            grown = not incoming.issubset(self.labels)
            stored = sum(g.trees for g in self._generations)
            reused = len(members) - len(fresh)
            dead = stored - reused
            if grown or (stored and dead * 2 >= stored + len(fresh)):
                self._compact(members, packed, version, names, incoming)
            else:
                self._append(members, packed, version, names, fresh)
            registry.counter("store.applies").add(1)

    def _append(
        self,
        members: Sequence[Member],
        packed: Mapping[int, "PackedCounts"],
        version: int,
        names: Mapping[int, str] | None,
        fresh: Sequence[Member],
    ) -> None:
        """Append new trees as one generation; rewrite the row map."""
        with get_tracer().span(
            "store.append",
            metric="store.append.seconds",
            trees=len(members),
            fresh=len(fresh),
        ):
            self._append_locked(members, packed, version, names, fresh)

    def _append_locked(
        self,
        members: Sequence[Member],
        packed: Mapping[int, "PackedCounts"],
        version: int,
        names: Mapping[int, str] | None,
        fresh: Sequence[Member],
    ) -> None:
        manifest = self._manifest
        generations = list(self._generations)
        gen_records = list(manifest["generations"])
        serial = int(manifest["serial"])
        placed: dict[int, tuple[int, int]] = {}
        if fresh:
            table = LabelTable(self.labels)
            rows = [
                _remap_packed(packed[uid], table, 1) for uid, _ in fresh
            ]
            record = _write_generation(
                self.directory, _generation_name(serial), rows
            )
            serial += 1
            gen_records.append(record)
            generations.append(_Generation(self.directory, record))
            gen_index = len(gen_records) - 1
            placed = {
                uid: (gen_index, position)
                for position, (uid, _) in enumerate(fresh)
            }
            get_registry().counter("store.generations.appended").add(1)
        current = {int(row["uid"]): row for row in manifest["rows"]}
        new_rows = []
        for uid, content_key in members:
            old = current.get(uid)
            if old is not None:
                # Row records are never mutated after creation, so the
                # new manifest may alias the surviving ones.
                new_rows.append(old)
                continue
            gen_index, position = placed[uid]
            new_rows.append(
                {
                    "gen": gen_index,
                    "row": position,
                    "uid": int(uid),
                    "content_key": str(content_key),
                    "name": (
                        names[uid]
                        if names is not None and uid in names
                        else f"t{uid}"
                    ),
                }
            )
        manifest = dict(manifest)
        manifest["version"] = int(version)
        manifest["serial"] = serial
        manifest["generations"] = gen_records
        manifest["rows"] = new_rows
        _write_manifest(self.directory, manifest)
        _sweep_orphans(self.directory, manifest)
        self._manifest = manifest
        self._generations = generations
        self.version = int(version)

    def _compact(
        self,
        members: Sequence[Member],
        packed: Mapping[int, "PackedCounts"],
        version: int,
        names: Mapping[int, str] | None,
        incoming: set[str],
    ) -> None:
        """Rewrite every live row into one fresh generation.

        Existing rows come straight off the current shards (memmap
        slices, re-interned through the monotone remap when the label
        universe grew); new rows come from their packed counts.  The
        old generation directories are removed only after the new
        manifest has committed, so a crash at any point leaves a
        consistent store — at worst with an orphaned directory the
        next write sweeps.
        """
        with get_tracer().span(
            "store.compact",
            metric="store.compact.seconds",
            trees=len(members),
        ):
            manifest = self._manifest
            new_labels = tuple(sorted(set(self.labels) | incoming))
            remap = (
                _monotone_remap(self.labels, new_labels)
                if new_labels != self.labels
                else None
            )
            table = LabelTable(new_labels)
            current = {int(row["uid"]): row for row in manifest["rows"]}
            rows = []
            for uid, _ in members:
                old = current.get(uid)
                if old is None:
                    rows.append(_remap_packed(packed[uid], table, 1))
                    continue
                keys, counts = self._generations[old["gen"]].row(
                    old["row"], "full"
                )
                keys = np.asarray(keys, dtype=np.int64)
                if remap is not None:
                    keys = _remap_full_keys(keys, remap)
                rows.append((keys, np.asarray(counts, dtype=np.int64)))
            serial = int(manifest["serial"])
            record = _write_generation(
                self.directory, _generation_name(serial), rows
            )
            new_manifest = dict(manifest)
            new_manifest["version"] = int(version)
            new_manifest["serial"] = serial + 1
            new_manifest["labels"] = list(new_labels)
            new_manifest["generations"] = [record]
            new_manifest["rows"] = [
                {
                    "gen": 0,
                    "row": index,
                    "uid": int(uid),
                    "content_key": str(content_key),
                    "name": (
                        str(current[uid]["name"])
                        if uid in current
                        else (
                            names[uid]
                            if names is not None and uid in names
                            else f"t{uid}"
                        )
                    ),
                }
                for index, (uid, content_key) in enumerate(members)
            ]
            _write_manifest(self.directory, new_manifest)
            _sweep_orphans(self.directory, new_manifest)
            self._manifest = new_manifest
            self._generations = [_Generation(self.directory, record)]
            self.labels = new_labels
            self.version = int(version)
            get_registry().counter("store.compactions").add(1)


def _fresh_serial(directory: str) -> int:
    """First unused generation serial in ``directory``.

    Scanned from the directory names rather than any manifest, so a
    rebuild over a half-written store never reuses — and therefore
    never clobbers — shards an existing manifest still references
    before the new manifest commits.
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


def _write_manifest(directory: str, manifest: Mapping) -> None:
    """The manifest commit point: one atomic ``store.json`` replace."""
    with atomic_write(os.path.join(directory, STORE_FILE)) as stream:
        json.dump(manifest, stream, indent=1)
        stream.write("\n")


def _sweep_orphans(directory: str, manifest: Mapping) -> None:
    """Remove generation directories the manifest no longer references.

    Runs after every successful manifest commit; an orphan is the
    debris of a compaction (or rebuild) that crashed between writing
    its shards and committing — harmless to readers, reclaimed here.
    """
    referenced = {
        str(record["name"]) for record in manifest["generations"]
    }
    try:
        entries = os.listdir(directory)
    except OSError:  # pragma: no cover - directory vanished underneath
        return
    for entry in entries:
        if entry.startswith("gen-") and entry not in referenced:
            shutil.rmtree(os.path.join(directory, entry), ignore_errors=True)


def _validate_manifest(
    directory: str, path: str, manifest: object
) -> list[_Generation]:
    """Structure-check a parsed manifest; returns its generations.

    Every failure counts one ``store.read_errors`` and raises
    :class:`StoreError` — the caller's cue to re-pack from the source
    corpus.
    """
    if not isinstance(manifest, dict):
        raise _manifest_failure(path, "not a JSON object")
    if manifest.get("format") != STORE_FORMAT:
        raise _manifest_failure(
            path,
            f"unsupported format {manifest.get('format')!r} "
            f"(expected {STORE_FORMAT})",
        )
    if manifest.get("scheme") != PACKED_KEY_SCHEME:
        raise _manifest_failure(
            path,
            f"foreign packed-key scheme {manifest.get('scheme')!r} "
            f"(expected {PACKED_KEY_SCHEME!r})",
        )
    try:
        _params_from_dict(manifest["params"])
        int(manifest["version"])
        int(manifest["serial"])
        labels = list(manifest["labels"])
        generations = [
            _Generation(directory, record)
            for record in manifest["generations"]
        ]
        rows = manifest["rows"]
        for row in rows:
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
        for label in labels:
            if not isinstance(label, str):
                raise ValueError(f"non-string label {label!r}")
    except (KeyError, TypeError, ValueError) as error:
        raise _manifest_failure(path, str(error)) from error
    for generation in generations:
        generation.validate()
    return generations
