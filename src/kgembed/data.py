"""Triple store: vocabularies, splits, CSR adjacency, and sorted triple-key
indices.

Triple files are UTF-8, one fact per line, exactly three tab-separated
fields.  Blank lines and comment lines are rejected rather than skipped so
that malformed exports surface immediately.
"""
from __future__ import annotations

import logging
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from . import binfile

log = logging.getLogger(__name__)

SPLITS = ("train", "valid", "test")

TRIPLES_MAGIC = b"KGTS"
TRIPLES_VERSION = 1


class TripleFormatError(ValueError):
    """Malformed triple or vocabulary data."""


class Query(NamedTuple):
    """A link-prediction query: one side of (h, r, t) is predicted.

    ``target`` is the side being ranked ("head" or "tail"); the stored id on
    that side is the gold entity.
    """

    h: int
    r: int
    t: int
    target: str


@dataclass
class Vocab:
    """Dense label<->id mapping; ids are assigned in first-seen order."""

    labels: list[str] = field(default_factory=list)
    index: dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.labels)

    def add(self, label: str) -> int:
        idx = self.index.get(label)
        if idx is None:
            idx = len(self.labels)
            self.index[label] = idx
            self.labels.append(label)
        return idx

    @classmethod
    def identity(cls, n: int) -> "Vocab":
        labels = [str(i) for i in range(n)]
        return cls(labels, {s: i for i, s in enumerate(labels)})

    def save_tsv(self, path: str | Path) -> None:
        with binfile.atomic_write(path, "w", encoding="utf-8") as f:
            for i, label in enumerate(self.labels):
                f.write(f"{label}\t{i}\n")

    @classmethod
    def load_tsv(cls, path: str | Path) -> "Vocab":
        labels: list[str] = []
        with open(path, "r", encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                parts = line.rstrip("\n").split("\t")
                if len(parts) != 2:
                    raise TripleFormatError(f"{path}: bad vocab line {lineno}")
                label = parts[0]
                try:
                    idx = int(parts[1])
                except ValueError:
                    raise TripleFormatError(
                        f"{path}: non-integer id {parts[1]!r} at line {lineno}"
                    ) from None
                if idx != len(labels):
                    raise TripleFormatError(
                        f"{path}: non-dense id {idx} at line {lineno}"
                    )
                labels.append(label)
        return cls(labels, {s: i for i, s in enumerate(labels)})


@dataclass
class TripleStore:
    """Immutable-after-build container for a knowledge graph.

    Adjacency is CSR over the train split only: ``in_*`` lists, for each
    node v, the (u, r) pairs with (u, r, v) in train; ``out_*`` lists the
    (u, r) pairs with (v, r, u) in train.  Both are sorted per node by
    (neighbor, relation).

    Membership and filter sets come from sorted, deduplicated packed-key
    arrays, each built on first use: "train" holds (h, r, t) keys of the
    train split; "hrt" (h, r, t) and "trh" (t, r, h) keys of every split.
    A key is ``(a * num_relations + r) * num_entities + b``, so the known
    completions of a query are one contiguous ``searchsorted`` range.
    """

    entities: Vocab
    relations: Vocab
    splits: dict[str, np.ndarray]
    duplicates: dict[str, int] = field(default_factory=dict)

    in_ptr: np.ndarray | None = None
    in_nbr: np.ndarray | None = None
    in_rel: np.ndarray | None = None
    out_ptr: np.ndarray | None = None
    out_nbr: np.ndarray | None = None
    out_rel: np.ndarray | None = None

    _keys: dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    @property
    def num_entities(self) -> int:
        return len(self.entities)

    @property
    def num_relations(self) -> int:
        return len(self.relations)

    def num_triples(self, split: str) -> int:
        return len(self.splits[split])

    @property
    def has_adjacency(self) -> bool:
        return self.in_ptr is not None

    def in_neighbors(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """(heads, relations) of train triples pointing at v."""
        lo, hi = self.in_ptr[v], self.in_ptr[v + 1]
        return self.in_nbr[lo:hi], self.in_rel[lo:hi]

    def out_neighbors(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """(tails, relations) of train triples leaving v."""
        lo, hi = self.out_ptr[v], self.out_ptr[v + 1]
        return self.out_nbr[lo:hi], self.out_rel[lo:hi]

    def degrees(self) -> np.ndarray:
        """Per-entity in+out degree over the train split."""
        tr = self.splits["train"]
        deg = np.bincount(tr[:, 0], minlength=self.num_entities)
        deg += np.bincount(tr[:, 2], minlength=self.num_entities)
        return deg

    # -- membership -------------------------------------------------------

    def _pack(self, h, r, t) -> np.ndarray:
        e, rl = self.num_entities, self.num_relations
        if e * rl * e >= 2**62:
            raise OverflowError("graph too large for packed triple keys")
        h = np.asarray(h, dtype=np.int64)
        r = np.asarray(r, dtype=np.int64)
        t = np.asarray(t, dtype=np.int64)
        return (h * rl + r) * e + t

    def _sorted_keys(self, order: str) -> np.ndarray:
        keys = self._keys.get(order)
        if keys is None:
            if order == "train":
                rows = self.splits["train"]
            else:
                rows = np.concatenate([self.splits[s] for s in SPLITS])
            a, b = (2, 0) if order == "trh" else (0, 2)
            keys = _sorted_unique(self._pack(rows[:, a], rows[:, 1], rows[:, b]))
            self._keys[order] = keys
        return keys

    def train_triple_mask(self, h, r, t) -> np.ndarray:
        """Vectorized membership in the train split."""
        train_keys = self._sorted_keys("train")
        keys = self._pack(h, r, t)
        # searched in sorted order: scattered keys (a corrupted head varies
        # the most significant part) would each miss the cache on the way
        order = np.argsort(keys)
        keys = keys[order]
        idx = np.searchsorted(train_keys, keys)
        idx = np.minimum(idx, len(train_keys) - 1)
        mask = np.empty(len(keys), dtype=bool)
        mask[order] = train_keys[idx] == keys
        return mask

    def completions(self, fixed, r, target: str) -> tuple[np.ndarray, np.ndarray]:
        """Known-true completions (any split) of a block of queries.

        Query i asks for the ``target`` side ("tail" or "head") of relation
        ``r[i]`` given entity ``fixed[i]`` on the other side.  Returns
        ``(query, entity)``: one pair per completion, grouped by query and
        sorted by entity within a query.
        """
        if target not in ("tail", "head"):
            raise ValueError(f"bad query target {target!r}")
        keys = self._sorted_keys("hrt" if target == "tail" else "trh")
        lo = self._pack(fixed, r, 0)
        starts = np.searchsorted(keys, lo)
        counts = np.searchsorted(keys, lo + self.num_entities) - starts
        query = np.repeat(np.arange(len(lo)), counts)
        first = np.cumsum(counts) - counts
        pos = np.arange(len(query)) - np.repeat(first - starts, counts)
        return query, keys[pos] - lo[query]

    # -- persistence ------------------------------------------------------

    def save(self, directory: str | Path) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self.entities.save_tsv(directory / "entities.tsv")
        self.relations.save_tsv(directory / "relations.tsv")
        binfile.save(
            directory / "triples.bin", TRIPLES_MAGIC, TRIPLES_VERSION,
            struct.pack("<QQQQQ", self.num_entities, self.num_relations,
                        *(len(self.splits[s]) for s in SPLITS)),
            *(np.asarray(self.splits[s], dtype="<i4") for s in SPLITS),
        )

    @classmethod
    def load(cls, directory: str | Path) -> "TripleStore":
        directory = Path(directory)
        entities = Vocab.load_tsv(directory / "entities.tsv")
        relations = Vocab.load_tsv(directory / "relations.tsv")
        ne, nr = len(entities), len(relations)
        with binfile.load(directory / "triples.bin", TRIPLES_MAGIC,
                          TRIPLES_VERSION, TripleFormatError,
                          "triple store") as rd:
            got_ne, got_nr, *counts = rd.unpack("<QQQQQ", "counts")
            if (got_ne, got_nr) != (ne, nr):
                raise rd.error("counts", f"{got_ne} entities and {got_nr} "
                               f"relations, vocab files have {ne} and {nr}")
            splits = {s: rd.array("<i4", (n, 3), s)
                      for s, n in zip(SPLITS, counts)}
        for s, rows in splits.items():
            for col, (name, bound) in enumerate(
                    (("head", ne), ("relation", nr), ("tail", ne))):
                rd.check_ids(rows[:, col], bound, f"{s} {name}")
            splits[s] = rows.astype(np.int32, copy=False)
        store = cls(entities=entities, relations=relations, splits=splits)
        _count_duplicates(store)
        return build_adjacency(store)


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique`` of int64 keys by a sort and a neighbour comparison.

    numpy 2.4's ``np.unique`` hashes integer input before sorting; for 251k
    packed keys that took 190 ms against 4 ms for this on a 2-core Xeon VM.
    """
    keys = np.sort(keys)
    keep = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def _iter_lines(source) -> Iterable[str]:
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as f:
            yield from f
    elif hasattr(source, "read"):
        data = source.read()
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        yield from data.splitlines(keepends=True)
    else:
        raise TypeError(f"unsupported triple source {type(source)!r}")


def _parse_split(name: str, source, fmt: str, entities: Vocab, relations: Vocab):
    rows: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(_iter_lines(source), start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if line.strip() == "":
            raise TripleFormatError(f"{name}: blank line at line {lineno}")
        parts = line.split("\t")
        if len(parts) != 3 or any(p == "" for p in parts):
            raise TripleFormatError(
                f"{name}: expected 3 tab-separated fields at line {lineno}, "
                f"got {len(parts)}"
            )
        if fmt == "labels":
            h = entities.add(parts[0])
            r = relations.add(parts[1])
            t = entities.add(parts[2])
        elif fmt == "numeric":
            try:
                h, r, t = int(parts[0]), int(parts[1]), int(parts[2])
            except ValueError:
                raise TripleFormatError(
                    f"{name}: non-integer id at line {lineno}"
                ) from None
            if h < 0 or r < 0 or t < 0:
                raise TripleFormatError(f"{name}: negative id at line {lineno}")
        else:
            raise ValueError(f"unknown triple format {fmt!r}")
        rows.append((h, r, t))
    if rows:
        return np.asarray(rows, dtype=np.int32)
    return np.empty((0, 3), dtype=np.int32)


def _count_duplicates(store: TripleStore) -> None:
    for s in SPLITS:
        arr = store.splits[s]
        if len(arr) == 0:
            store.duplicates[s] = 0
            continue
        keys = store._pack(arr[:, 0], arr[:, 1], arr[:, 2])
        dups = len(arr) - len(_sorted_unique(keys))
        store.duplicates[s] = dups
        if dups:
            log.warning("%s split contains %d duplicate triples (kept)", s, dups)


def load_triples(
    sources: dict[str, object],
    fmt: str = "labels",
    num_entities: int | None = None,
    num_relations: int | None = None,
) -> TripleStore:
    """Load train/valid/test triple sources into a TripleStore.

    ``sources`` maps split names to paths or binary/text file objects; the
    train split is required and must be non-empty.  With ``fmt="labels"``
    dense ids are assigned in first-seen order; with ``fmt="numeric"`` the
    fields are integer ids, optionally validated against declared counts.
    """
    unknown = set(sources) - set(SPLITS)
    if unknown:
        raise ValueError(f"unknown split names {sorted(unknown)}")
    entities, relations = Vocab(), Vocab()
    splits: dict[str, np.ndarray] = {}
    for s in SPLITS:
        if s in sources:
            splits[s] = _parse_split(s, sources[s], fmt, entities, relations)
        else:
            splits[s] = np.empty((0, 3), dtype=np.int32)
    if len(splits["train"]) == 0:
        raise TripleFormatError("train split is empty")

    if fmt == "numeric":
        allt = np.concatenate([a for a in splits.values() if len(a)])
        max_e = int(max(allt[:, 0].max(), allt[:, 2].max()))
        max_r = int(allt[:, 1].max())
        ne = num_entities if num_entities is not None else max_e + 1
        nr = num_relations if num_relations is not None else max_r + 1
        if max_e >= ne:
            raise TripleFormatError(
                f"entity id {max_e} out of range (num_entities={ne})"
            )
        if max_r >= nr:
            raise TripleFormatError(
                f"relation id {max_r} out of range (num_relations={nr})"
            )
        entities = Vocab.identity(ne)
        relations = Vocab.identity(nr)

    store = TripleStore(entities=entities, relations=relations, splits=splits)
    _count_duplicates(store)
    for s in SPLITS:
        log.info("loaded %s: %d triples", s, len(splits[s]))
    return store


def build_adjacency(store: TripleStore) -> TripleStore:
    """Populate CSR adjacency from the train split (sorted per node)."""
    tr = store.splits["train"]
    if len(tr) == 0:
        raise TripleFormatError("cannot build adjacency: train split is empty")
    e = store.num_entities
    h, r, t = tr[:, 0], tr[:, 1], tr[:, 2]

    order = _stable_order(t, h, r, e, store.num_relations)
    store.in_nbr = np.ascontiguousarray(h[order])
    store.in_rel = np.ascontiguousarray(r[order])
    store.in_ptr = np.zeros(e + 1, dtype=np.int64)
    store.in_ptr[1:] = np.cumsum(np.bincount(t, minlength=e))

    order = _stable_order(h, t, r, e, store.num_relations)
    store.out_nbr = np.ascontiguousarray(t[order])
    store.out_rel = np.ascontiguousarray(r[order])
    store.out_ptr = np.zeros(e + 1, dtype=np.int64)
    store.out_ptr[1:] = np.cumsum(np.bincount(h, minlength=e))
    return store


def _stable_order(node, nbr, r, num_entities: int, num_relations: int):
    """The order of ``np.lexsort((r, nbr, node))``, by one stable argsort
    of packed ``(node * E + nbr) * R + r`` keys where they fit in int64."""
    if num_entities * num_entities * num_relations >= 2**63:
        return np.lexsort((r, nbr, node))
    key = (node.astype(np.int64) * num_entities + nbr) * num_relations + r
    return np.argsort(key, kind="stable")


def filtered_candidates(store: TripleStore, query: Query) -> np.ndarray:
    """Entity ids to exclude when ranking ``query`` under the filtered protocol.

    Returns every entity that completes the query into a known-true triple
    (any split), minus the query's own gold entity.
    """
    fixed, gold = ((query.h, query.t) if query.target == "tail"
                   else (query.t, query.h))
    known = store.completions([fixed], [query.r], query.target)[1]
    return known[known != gold]
