"""Incremental corpus delta-mining: versioned forests, patched results.

The paper's phylogeny workloads (Sections 5–6) are naturally
incremental — a database of phylogenies grows sample by sample — yet
``Multiple_Tree_Mining`` as specified is a batch pass: adding one tree
to a 1,500-tree corpus re-mines every pair set, rebuilds the inverted
pair-key → tree index and recounts every support.  The batch pass is,
however, a *sum of independent per-tree contributions* (the
``O(k * n^2)`` bound is ``k`` unrelated ``O(n^2)`` terms), so all of
its products can be maintained under churn by touching only the
contributions that changed:

- a tree is mined once, when it joins: its
  :class:`~repro.core.fastmine.PackedCounts` come from one engine
  batch together with its content address (an unchanged tree is never
  re-mined);
- the one row state — each tree's sorted packed keys and occurrence
  counts at the ``minoccur=1`` level on one shared label table, held
  as :class:`~repro.core.distvec.DistanceVectors` (the columns
  :class:`repro.store.PairStore` persists) — has rows appended,
  removed or swapped in place (the monotone label remap keeps every
  key array sorted);
- a key census — the sorted distinct keys of all rows and how many
  trees hold each — is patched by a merge of the changed rows' keys,
  which yields the log's gained/lost keys;
- materialised distance matrices are patched one *row* per affected
  tree instead of one triangle per mutation.

:class:`VersionedCorpus` packages this behind a mutable forest with
``add_trees`` / ``remove_trees`` / ``replace_trees``.  Every mutation
bumps a monotone ``version``, appends a structural
:class:`CorpusDelta` to the log, and bumps the engine's ``delta_*``
counters; :meth:`VersionedCorpus.diff` composes any log span into one
net :class:`CorpusDiff`.  Query results are *byte-identical* to a
from-scratch re-mine of the current tree sequence —
:meth:`frequent_pairs` against :func:`repro.core.multi_tree
.mine_forest`, :meth:`distance_matrix` against
:meth:`DistanceVectors.matrix` — enforced at every churn step by the
differential harness in ``tests/delta``.

Frequent pairs are re-derived per query by the one aggregation
kernel (:func:`repro.core.multi_tree.aggregate_rows`) straight from
maintained per-tree rows — no corpus-level result is cached, so no
stale result can be served after a mutation.

A corpus persists as a pair store (:meth:`VersionedCorpus.pack_store`,
:meth:`VersionedCorpus.open`): the rows, members and names in the
store's shards and manifest, the delta log in its ``log.jsonl``
sidecar, and every later commit syncs the store.  Reopening reads the
rows back without parsing or mining a tree.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, Mapping, Sequence

import numpy as np

from repro.core.distvec import DistanceVectors, _remap_full_keys
from repro.core.fastmine import PackedCounts
from repro.core.multi_tree import FrequentCousinPair, aggregate_rows
from repro.core.params import DistanceMode, MiningParams, validate_mode
from repro.engine.engine import MiningEngine
from repro.errors import EngineError
from repro.obs.context import scope as obs_scope
from repro.trees.arena import TreeLike, find_label
from repro.trees.packing import (
    DIST_SHIFT,
    LABEL_BITS,
    LABEL_MASK,
    MAX_HALF_STEPS,
    pack_key,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.topk import TopKResult
    from repro.store import PairStore

__all__ = [
    "TreeRef",
    "CorpusDelta",
    "CorpusDiff",
    "CorpusSnapshot",
    "VersionedCorpus",
]

# A pair item as the delta layer tracks it: (label_a, label_b,
# distance) with sorted labels and a float distance — the same triple
# that keys mine_forest's supporter map.
PairKey = tuple[str, str, float]


class _LoggedKeys(Sequence[PairKey]):
    """Pair keys as a log record holds them, decoded on first read.

    ``len`` needs no decoding, so describing a logged delta (``corpus
    log``) builds none of its ``(label_a, label_b, distance)`` items.
    """

    __slots__ = ("_raw", "_keys")

    def __init__(self, raw: Sequence[Sequence]) -> None:
        self._raw = raw
        self._keys: tuple[PairKey, ...] | None = None

    def _decoded(self) -> tuple[PairKey, ...]:
        if self._keys is None:
            self._keys = tuple(
                (str(la), str(lb), float(d)) for la, lb, d in self._raw
            )
        return self._keys

    def __len__(self) -> int:
        return len(self._raw)

    def __getitem__(self, index: int | slice) -> Any:
        return self._decoded()[index]

    def __iter__(self) -> Iterator[PairKey]:
        return iter(self._decoded())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return self._decoded() == tuple(other)

    def __hash__(self) -> int:
        return hash(self._decoded())


@dataclass(frozen=True)
class TreeRef:
    """A corpus member: stable uid plus its mining content address.

    The ``uid`` is unique across the corpus lifetime (a replaced tree
    gets a fresh uid even at the same position), so log entries stay
    unambiguous under churn; the ``content_key`` is the tree's content
    address (:func:`repro.engine.cache.arena_cache_key`), equal iff
    the trees are isomorphic under the same parameters.
    """

    uid: int
    content_key: str

    def describe(self) -> str:
        return f"#{self.uid}@{self.content_key[:12]}"

    def as_dict(self) -> dict:
        return {"uid": self.uid, "content_key": self.content_key}


@dataclass(frozen=True)
class CorpusDelta:
    """The structural record of one corpus mutation (or the init load).

    ``keys_gained`` / ``keys_lost`` are the pair items whose occurrence
    list went empty → occupied (or back) in this step — existence-level
    changes, independent of any ``minsup``/``minoccur`` threshold —
    and ``supports_changed`` counts the (pair item, tree) occurrence
    entries touched.  A record read back from the log
    (:meth:`from_dict`) decodes its pair items only when they are read.
    """

    version: int
    op: str
    added: tuple[TreeRef, ...]
    removed: tuple[TreeRef, ...]
    trees_after: int
    keys_gained: Sequence[PairKey]
    keys_lost: Sequence[PairKey]
    supports_changed: int

    def describe(self) -> str:
        return (
            f"v{self.version} {self.op}: "
            f"+{len(self.added)}/-{len(self.removed)} tree(s), "
            f"{self.trees_after} after; "
            f"{len(self.keys_gained)} pair key(s) gained, "
            f"{len(self.keys_lost)} lost, "
            f"{self.supports_changed} support entr(ies) touched"
        )

    def as_dict(self) -> dict:
        return {
            "version": self.version,
            "op": self.op,
            "added": [ref.as_dict() for ref in self.added],
            "removed": [ref.as_dict() for ref in self.removed],
            "trees_after": self.trees_after,
            "keys_gained": [list(key) for key in self.keys_gained],
            "keys_lost": [list(key) for key in self.keys_lost],
            "supports_changed": self.supports_changed,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "CorpusDelta":
        return cls(
            version=int(payload["version"]),
            op=str(payload["op"]),
            added=tuple(
                TreeRef(int(ref["uid"]), str(ref["content_key"]))
                for ref in payload["added"]
            ),
            removed=tuple(
                TreeRef(int(ref["uid"]), str(ref["content_key"]))
                for ref in payload["removed"]
            ),
            trees_after=int(payload["trees_after"]),
            keys_gained=_LoggedKeys(payload["keys_gained"]),
            keys_lost=_LoggedKeys(payload["keys_lost"]),
            supports_changed=int(payload["supports_changed"]),
        )


@dataclass(frozen=True)
class CorpusDiff:
    """The net structural change between two corpus versions.

    Composed from the log by :meth:`VersionedCorpus.diff`: a tree
    added then removed inside the span cancels out (by uid), as does a
    pair key gained then lost.  ``updates`` counts the mutations
    spanned; ``supports_changed`` sums their touched entries (gross,
    not netted — it measures work done, not state).
    """

    from_version: int
    to_version: int
    added: tuple[TreeRef, ...]
    removed: tuple[TreeRef, ...]
    keys_gained: tuple[PairKey, ...]
    keys_lost: tuple[PairKey, ...]
    supports_changed: int
    updates: int

    def describe(self) -> str:
        return (
            f"v{self.from_version}..v{self.to_version}: "
            f"+{len(self.added)}/-{len(self.removed)} tree(s), "
            f"{len(self.keys_gained)} pair key(s) gained, "
            f"{len(self.keys_lost)} lost across {self.updates} update(s) "
            f"({self.supports_changed} support entr(ies) touched)"
        )


@dataclass(frozen=True)
class CorpusSnapshot:
    """An immutable view of the corpus membership at one version."""

    version: int
    fingerprint: str
    refs: tuple[TreeRef, ...]

    def __len__(self) -> int:
        return len(self.refs)


class VersionedCorpus:
    """A mutable, versioned forest with incrementally maintained mining.

    Wraps a :class:`~repro.engine.engine.MiningEngine` and keeps one
    row state: per member tree, its sorted packed keys and occurrence
    counts at the ``minoccur=1`` level on one shared label table (a
    :class:`~repro.core.distvec.DistanceVectors`), next to its uid,
    content address and display name, plus the delta log and a census
    of the distinct keys.  Mutations patch exactly the affected rows
    (and the rows/columns of any materialised distance matrix);
    queries re-derive results from the rows and are byte-identical to
    a from-scratch re-mine of the current tree sequence.

    Parameters
    ----------
    trees:
        The initial forest (version 0; logged as the ``init`` delta),
        as pointer trees or arenas.  A tree's display name is its
        ``name``, or ``t<uid>`` when it has none.
    params:
        A full :class:`~repro.core.params.MiningParams`; mutually
        exclusive with the raw knobs.  ``minoccur`` here is the
        corpus's occurrence threshold (``minsup`` is a per-query knob
        of :meth:`frequent_pairs`).
    engine:
        The engine to mine through; a private one when omitted.
    """

    def __init__(
        self,
        trees: Sequence[TreeLike] = (),
        params: MiningParams | None = None,
        *,
        engine: MiningEngine | None = None,
        maxdist: float = 1.5,
        minoccur: int = 1,
        max_generation_gap: int = 1,
        max_height: int | None = None,
    ) -> None:
        if params is None:
            params = MiningParams(
                maxdist=maxdist,
                minoccur=minoccur,
                minsup=1,
                max_generation_gap=max_generation_gap,
                max_height=max_height,
            )
        self.params = params
        self.engine = engine if engine is not None else MiningEngine()
        self.version = 0
        self._refs: list[TreeRef] = []
        self._names: list[str] = []
        self._next_uid = 0
        refs: list[TreeRef] = []
        packed: list[PackedCounts] = []
        if trees:
            refs, self._names, packed = self._mine(trees)
            self._refs = list(refs)
        with obs_scope(self.engine.registry, self.engine.tracer):
            self._rows = DistanceVectors.from_packed(packed)
        # The key census: the sorted distinct keys of all rows, and how
        # many trees hold each.
        self._census_keys = np.zeros(0, dtype=np.int64)
        self._census_trees = np.zeros(0, dtype=np.int64)
        rows = self._rows.full_rows[0]
        gained, _lost = self._count_keys(rows, ())
        self._matrices: dict[DistanceMode, np.ndarray] = {}
        # The rows at minoccur, once a query has asked (_query_vectors).
        self._filtered: DistanceVectors | None = None
        self._store: "PairStore | None" = None
        init = CorpusDelta(
            version=0,
            op="init",
            added=tuple(refs),
            removed=(),
            trees_after=len(refs),
            keys_gained=self._decode(gained),
            keys_lost=(),
            supports_changed=sum(len(keys) for keys in rows),
        )
        # The delta log and its newest record; on a reopened corpus
        # both are None until first needed, the log staying in the
        # store's sidecar until then.
        self._log: list[CorpusDelta] | None = [init]
        self._latest: CorpusDelta | None = init

    @classmethod
    def open(
        cls, directory: str, *, engine: MiningEngine | None = None
    ) -> "VersionedCorpus":
        """Reopen the corpus persisted at ``directory`` (a pair store).

        Rows, members and names come straight off the store
        (:meth:`repro.store.PairStore.as_vectors`) — no tree is parsed
        or mined.  The log is decoded from the store's sidecar only
        when :meth:`log`, :meth:`diff` or (before the first commit)
        :meth:`latest` asks for it.  The store
        stays attached, so every later commit syncs it.  A damaged
        store (or, when it is read, a log shorter than the store's
        version) raises :class:`~repro.errors.StoreError` after
        counting ``store.read_errors``.
        """
        from repro.store import PairStore

        engine = engine if engine is not None else MiningEngine()
        with obs_scope(engine.registry, engine.tracer):
            store = PairStore.open(directory)
            rows = store.as_vectors()
        corpus = cls((), store.params, engine=engine)
        corpus.version = store.version
        corpus._refs = [TreeRef(uid, key) for uid, key in store.members]
        corpus._names = store.names
        corpus._next_uid = store.next_uid
        corpus._rows = rows
        corpus._count_keys(rows.full_rows[0], ())
        corpus._log = None
        corpus._latest = None
        corpus._store = store
        return corpus

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._refs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VersionedCorpus(v{self.version}, {len(self._refs)} trees)"

    @property
    def names(self) -> tuple[str, ...]:
        """Display names, aligned with corpus positions."""
        return tuple(self._names)

    @property
    def fingerprint(self) -> str:
        """Content fingerprint of the current tree sequence.

        A digest over the ordered per-tree content addresses — equal
        iff the corpora hold isomorphic trees in the same order under
        the same parameters.
        """
        digest = hashlib.sha256()
        for ref in self._refs:
            digest.update(ref.content_key.encode("ascii"))
            digest.update(b"|")
        return digest.hexdigest()

    def snapshot(self) -> CorpusSnapshot:
        """The current membership as an immutable record."""
        return CorpusSnapshot(
            version=self.version,
            fingerprint=self.fingerprint,
            refs=tuple(self._refs),
        )

    def log(self) -> tuple[CorpusDelta, ...]:
        """Every delta applied so far, the version-0 init load included."""
        return tuple(self._history())

    def latest(self) -> CorpusDelta:
        """The delta that made the current version (``log()[-1]``).

        After a commit this decodes no log record, so a reopened
        corpus can report the commit it just made without reading its
        whole log.
        """
        if self._latest is None:
            self._latest = self._history()[-1]
        return self._latest

    def diff(self, old: int, new: int) -> CorpusDiff:
        """The net change between two versions (``old <= new``).

        Composes the log entries in ``(old, new]``: a tree added then
        removed inside the span cancels (matched by uid), as does a
        pair key gained then lost.
        """
        if not 0 <= old <= new <= self.version:
            raise EngineError(
                f"diff range ({old}, {new}) outside versions "
                f"0..{self.version}"
            )
        added: dict[int, TreeRef] = {}
        removed: list[TreeRef] = []
        gained: set[PairKey] = set()
        lost: set[PairKey] = set()
        supports = 0
        updates = 0
        for delta in self._history():
            if not old < delta.version <= new:
                continue
            updates += 1
            supports += delta.supports_changed
            for ref in delta.removed:
                if ref.uid in added:
                    del added[ref.uid]
                else:
                    removed.append(ref)
            for ref in delta.added:
                added[ref.uid] = ref
            for key in delta.keys_lost:
                if key in gained:
                    gained.discard(key)
                else:
                    lost.add(key)
            for key in delta.keys_gained:
                if key in lost:
                    lost.discard(key)
                else:
                    gained.add(key)
        return CorpusDiff(
            from_version=old,
            to_version=new,
            added=tuple(added.values()),
            removed=tuple(removed),
            keys_gained=tuple(sorted(gained)),
            keys_lost=tuple(sorted(lost)),
            supports_changed=supports,
            updates=updates,
        )

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def add_trees(self, trees: Sequence[TreeLike]) -> list[int]:
        """Append trees; returns their positions.  One version bump."""
        trees = list(trees)
        if not trees:
            return []
        engine = self.engine
        with obs_scope(engine.registry, engine.tracer), engine.tracer.span(
            "delta.update", op="add", trees=len(trees)
        ):
            refs, names, packed = self._mine(trees)
            self._grow_labels(packed)
            start = len(self._refs)
            self._rows.append_packed(packed)
            self._filtered = None
            self._refs.extend(refs)
            self._names.extend(names)
            positions = list(range(start, len(self._refs)))
            self._commit(
                "add",
                added=refs,
                removed=(),
                arrived=self._rows.full_rows[0][start:],
                departed=(),
                positions=positions,
                rows_patched=self._patch_matrices(positions),
            )
            return positions

    def remove_trees(self, indexes: Sequence[int]) -> None:
        """Remove the trees at ``indexes`` (positions); later trees
        shift down.  One version bump."""
        drop = sorted(set(indexes))
        if not drop:
            return
        self._check_positions(drop)
        engine = self.engine
        with obs_scope(engine.registry, engine.tracer), engine.tracer.span(
            "delta.update", op="remove", trees=len(drop)
        ):
            rows = self._rows.full_rows[0]
            departed = [rows[index] for index in drop]
            removed = [self._refs[index] for index in drop]
            self._rows.remove_rows(drop)
            self._filtered = None
            for index in reversed(drop):
                del self._refs[index]
                del self._names[index]
            self._commit(
                "remove",
                added=(),
                removed=removed,
                arrived=(),
                departed=departed,
                positions=(),
                rows_patched=self._patch_matrices((), dropped=drop),
            )

    def replace_trees(self, replacements: Mapping[int, TreeLike]) -> None:
        """Swap the trees at the given positions in place.

        Positions and the corpus size are unchanged; each replacement
        gets a fresh uid.  One version bump for the whole mapping.
        """
        if not replacements:
            return
        positions = sorted(replacements)
        self._check_positions(positions)
        engine = self.engine
        with obs_scope(engine.registry, engine.tracer), engine.tracer.span(
            "delta.update", op="replace", trees=len(positions)
        ):
            refs, names, packed = self._mine(
                [replacements[index] for index in positions]
            )
            self._grow_labels(packed)
            rows = self._rows.full_rows[0]
            departed = [rows[index] for index in positions]
            removed = [self._refs[index] for index in positions]
            self._rows.replace_rows(dict(zip(positions, packed)))
            self._filtered = None
            for index, ref, name in zip(positions, refs, names):
                self._refs[index] = ref
                self._names[index] = name
            self._commit(
                "replace",
                added=refs,
                removed=removed,
                arrived=[self._rows.full_rows[0][index] for index in positions],
                departed=departed,
                positions=positions,
                rows_patched=self._patch_matrices(positions),
            )

    # ------------------------------------------------------------------
    # Queries (byte-identical to a from-scratch re-mine)
    # ------------------------------------------------------------------
    def frequent_pairs(
        self, minsup: int = 2, ignore_distance: bool = False
    ) -> list[FrequentCousinPair]:
        """Frequent cousin pairs over the current corpus.

        Byte-identical to :func:`repro.core.multi_tree.mine_forest`
        over the current trees with this corpus's parameters — same
        records, same ``tree_indexes``, same order — but counted from
        the maintained rows by the one aggregation kernel,
        :func:`repro.core.multi_tree.aggregate_rows`, never from a
        re-mine.
        """
        with obs_scope(self.engine.registry, self.engine.tracer):
            keys, counts = self._rows.full_rows
            return aggregate_rows(
                self._rows.labels,
                keys,
                counts,
                minoccur=self.params.minoccur,
                minsup=minsup,
                ignore_distance=ignore_distance,
            )

    def support(
        self, label_a: str, label_b: str, distance: float | None = None
    ) -> int:
        """The support of one label pair, per the paper's definition.

        ``distance=None`` ignores distances (occurrences summed across
        distances before the ``minoccur`` test) — equal to
        :func:`repro.core.multi_tree.support` over the current trees
        with this corpus's ``minoccur``.  Scans the rows.
        """
        if label_a > label_b:
            label_a, label_b = label_b, label_a
        labels = self._rows.labels
        ids = [find_label(labels, label_a), find_label(labels, label_b)]
        if min(ids) < 0:
            return 0
        if distance is None:
            mode = DistanceMode.OCCUR
            key = (ids[0] << LABEL_BITS) | ids[1]
        else:
            half_steps = 2 * float(distance)
            if not (half_steps.is_integer() and 0 <= half_steps <= MAX_HALF_STEPS):
                return 0
            mode = DistanceMode.DIST_OCCUR
            key = pack_key(int(half_steps), ids[0], ids[1])
        supporters = 0
        for index in range(len(self._rows)):
            keys, counts, _total = self._rows.view(index, mode)
            at = int(np.searchsorted(keys, key))
            if at < len(keys) and keys[at] == key:
                supporters += int(counts[at] >= self.params.minoccur)
        return supporters

    def distance_vectors(self) -> DistanceVectors:
        """The live, incrementally patched vectors at this corpus's
        ``minoccur`` (treat as read-only)."""
        with obs_scope(self.engine.registry, self.engine.tracer):
            return self._query_vectors()

    def distance_matrix(
        self, mode: DistanceMode | str = DistanceMode.DIST_OCCUR
    ) -> list[list[float]]:
        """The full distance matrix for ``mode`` as nested lists.

        Materialised once per mode (through the engine's tiled build)
        and patched row-by-row under churn; always byte-identical to
        ``DistanceVectors.from_trees(trees, minoccur).matrix(mode)``
        over the current trees.  The returned lists are copies.
        """
        mode = validate_mode(mode)
        with obs_scope(self.engine.registry, self.engine.tracer):
            matrix = self._matrices.get(mode)
            if matrix is None:
                rows = self.engine.distance_matrix(self._query_vectors(), mode)
                matrix = np.asarray(rows, dtype=np.float64).reshape(
                    len(rows), len(rows)
                )
                self._matrices[mode] = matrix
        return matrix.tolist()

    def topk_similar(
        self,
        query: TreeLike,
        k: int,
        mode: DistanceMode | str = DistanceMode.DIST_OCCUR,
    ) -> "TopKResult":
        """The k corpus trees nearest ``query``, exactly, at this version.

        Runs :meth:`repro.engine.MiningEngine.topk_similar` over the
        live incrementally patched vectors with this corpus's mining
        parameters.  Neighbour indexes are corpus positions.  Nothing
        is memoised per query, so a query after churn always sees the
        current corpus.
        """
        mode = validate_mode(mode)
        with obs_scope(self.engine.registry, self.engine.tracer):
            vectors = self._query_vectors()
        return self.engine.topk_similar(vectors, query, k, mode, self.params)

    # ------------------------------------------------------------------
    # On-disk pair store (repro.store)
    # ------------------------------------------------------------------
    @property
    def store(self) -> "PairStore | None":
        """The attached on-disk pair store, if any."""
        return self._store

    def pack_store(self, directory: str) -> "PairStore":
        """Write this corpus as a fresh pair store and attach it.

        The store persists the rows, uids, content addresses, names
        and the delta log, so :meth:`open` (or
        :meth:`repro.engine.engine.MiningEngine.open_store`) serves the
        same byte-identical results without re-mining; every later
        commit syncs it.
        """
        from repro.store import PairStore

        keys, counts = self._rows.full_rows
        engine = self.engine
        with obs_scope(engine.registry, engine.tracer):
            self._store = PairStore.build(
                directory,
                [(ref.uid, ref.content_key) for ref in self._refs],
                self._rows.labels,
                list(zip(keys, counts)),
                self.params,
                version=self.version,
                names=self._names,
                log=[delta.as_dict() for delta in self._history()],
                next_uid=self._next_uid,
            )
        return self._store

    # ------------------------------------------------------------------
    # Maintained-state plumbing
    # ------------------------------------------------------------------
    def _mine(
        self, trees: Sequence[TreeLike]
    ) -> tuple[list[TreeRef], list[str], list[PackedCounts]]:
        """Mine ``trees`` through the engine under fresh uids; returns
        their refs, display names and packed counts in input order."""
        keys, packed = self.engine.packed_counts(trees, self.params)
        refs = []
        names = []
        for tree, content_key in zip(trees, keys):
            uid = self._next_uid
            self._next_uid += 1
            refs.append(TreeRef(uid, content_key))
            names.append(tree.name or f"t{uid}")
        return refs, names, packed

    def _history(self) -> list[CorpusDelta]:
        """The delta log, decoded from the attached store on first use."""
        if self._log is None:
            assert self._store is not None
            with obs_scope(self.engine.registry, self.engine.tracer):
                self._log = self._store.read_log(CorpusDelta.from_dict)
        return self._log

    def _check_positions(self, positions: Sequence[int]) -> None:
        size = len(self._refs)
        for index in positions:
            if not 0 <= index < size:
                raise EngineError(
                    f"tree index {index} out of range for {size} trees"
                )

    def _grow_labels(self, packed: Sequence[PackedCounts]) -> None:
        """Grow the rows' label table; the census follows the remap."""
        remap = self._rows._grow_labels(packed)
        if remap is not None:
            self._census_keys = _remap_full_keys(self._census_keys, remap)

    def _count_keys(
        self, arrived: Sequence[np.ndarray], departed: Sequence[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Patch the key census; returns the keys gained and lost.

        Each row holds a key at most once, so a key's tree count moves
        by one per arriving row holding it and back by one per
        departing row.  The changed keys are merged into the sorted
        census with ``searchsorted``: counts are patched in place,
        emptied keys (lost) dropped and new keys (gained) inserted — a
        key departing and arriving in one commit is neither.
        """
        parts = [*arrived, *departed]
        sizes = [len(keys) for keys in parts]
        if not sum(sizes):
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        signs = np.repeat(
            np.asarray(
                [1] * len(arrived) + [-1] * len(departed), dtype=np.int64
            ),
            sizes,
        )
        changed, inverse = np.unique(
            np.concatenate(parts), return_inverse=True
        )
        change = np.zeros(changed.size, dtype=np.int64)
        np.add.at(change, inverse, signs)
        census = self._census_keys
        trees = self._census_trees
        at = np.searchsorted(census, changed)
        known = at < census.size
        known[known] = census[at[known]] == changed[known]
        hits = at[known]
        trees[hits] += change[known]
        emptied = hits[trees[hits] == 0]
        lost = census[emptied]
        gained = changed[~known]
        if emptied.size:
            keep = np.ones(census.size, dtype=bool)
            keep[emptied] = False
            census = census[keep]
            trees = trees[keep]
        if gained.size:
            slots = np.searchsorted(census, gained)
            census = np.insert(census, slots, gained)
            trees = np.insert(trees, slots, change[~known])
        self._census_keys = census
        self._census_trees = trees
        return gained, lost

    def _decode(self, keys: np.ndarray) -> tuple[PairKey, ...]:
        """Packed keys as sorted ``(label_a, label_b, distance)`` items."""
        labels = self._rows.labels
        firsts = (keys >> LABEL_BITS) & LABEL_MASK
        seconds = keys & LABEL_MASK
        half_steps = keys >> DIST_SHIFT
        # Label ids follow sorted label order, so sorting the ids sorts
        # the items; only the changed keys' labels are looked up.
        order = np.lexsort((half_steps, seconds, firsts))
        return tuple(
            (labels[label_a], labels[label_b], half / 2.0)
            for label_a, label_b, half in zip(
                firsts[order].tolist(),
                seconds[order].tolist(),
                half_steps[order].tolist(),
            )
        )

    def _query_vectors(self) -> DistanceVectors:
        """The rows at this corpus's ``minoccur``.

        Above 1 a filtered copy, kept — with the inverted index a query
        builds on it — until the rows change.
        """
        if self._filtered is None:
            self._filtered = self._rows.at_minoccur(self.params.minoccur)
        return self._filtered

    def _patch_matrices(
        self, written: Sequence[int], dropped: Sequence[int] = ()
    ) -> int:
        """Bring materialised matrices up to the patched rows.

        Drops the rows/columns of ``dropped``, grows to the corpus size
        and recomputes one row/column per ``written`` position against
        the fully patched vectors (when a mutation touches several
        trees their mutual entries are written twice with the same
        bit-identical value).  Returns the matrix rows patched.
        """
        if not self._matrices:
            return 0
        vectors = self._query_vectors()
        size = len(self._refs)
        gone = np.asarray(dropped, dtype=np.int64)
        for mode, matrix in list(self._matrices.items()):
            if gone.size:
                matrix = np.delete(np.delete(matrix, gone, axis=0), gone, axis=1)
            if matrix.shape[0] < size:
                grown = np.zeros((size, size), dtype=np.float64)
                grown[: matrix.shape[0], : matrix.shape[1]] = matrix
                matrix = grown
            for index in written:
                row, _computed, _pruned = vectors.row(index, mode)
                values = np.asarray(row, dtype=np.float64)
                matrix[index, :] = values
                matrix[:, index] = values
            self._matrices[mode] = matrix
        return (len(written) + len(dropped)) * len(self._matrices)

    def _commit(
        self,
        op: str,
        *,
        added: Sequence[TreeRef],
        removed: Sequence[TreeRef],
        arrived: Sequence[np.ndarray],
        departed: Sequence[np.ndarray],
        positions: Sequence[int],
        rows_patched: int,
    ) -> None:
        """Log one mutation whose new trees sit at ``positions`` and
        sync an attached store."""
        gained, lost = self._count_keys(arrived, departed)
        supports = sum(len(keys) for keys in (*arrived, *departed))
        self.version += 1
        delta = CorpusDelta(
            version=self.version,
            op=op,
            added=tuple(added),
            removed=tuple(removed),
            trees_after=len(self._refs),
            keys_gained=self._decode(gained),
            keys_lost=self._decode(lost),
            supports_changed=supports,
        )
        if self._log is not None:
            self._log.append(delta)
        self._latest = delta
        stats = self.engine.stats
        stats.delta_updates += 1
        stats.delta_trees_added += len(added)
        stats.delta_trees_removed += len(removed)
        stats.delta_rows_patched += rows_patched
        stats.delta_supports_patched += supports
        # An attached pair store follows every version bump: new trees
        # land as an appended generation (or a compaction), departures
        # leave the row map, and the log gains this delta.  The new rows
        # go over on the rows' label tuple — the one the store shares —
        # with their pair projections, so the store neither re-interns
        # nor collapses them.  Its journal line commits the sync.
        if self._store is not None:
            keys, counts = self._rows.full_rows
            pair_keys, pair_counts = self._rows.pair_rows
            labels = self._rows.labels
            self._store.apply(
                [(ref.uid, ref.content_key) for ref in self._refs],
                {
                    ref.uid: PackedCounts(labels, keys[index], counts[index])
                    for ref, index in zip(added, positions)
                },
                version=self.version,
                names={
                    ref.uid: self._names[index]
                    for ref, index in zip(added, positions)
                },
                log=delta.as_dict(),
                pairs={
                    ref.uid: (pair_keys[index], pair_counts[index])
                    for ref, index in zip(added, positions)
                },
            )
