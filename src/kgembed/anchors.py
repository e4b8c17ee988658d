"""Anchor selection and directed subgraph tokenization.

A global anchor set is picked once (top-degree by default).  Each node is
then described by a fixed-width token set: anchor tokens found in its
one-hop neighborhood first, then two-hop anchors ranked by how many of the
node's non-anchor one-hop neighbors touch them, then padding; plus sampled
in-direction neighbors (one-hop head side), sampled out-direction neighbors
(one-hop tail side), and the center node itself.
"""
from __future__ import annotations

import logging
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import binfile
from .data import TripleStore

log = logging.getLogger(__name__)

CACHE_MAGIC = b"DGPT"
CACHE_VERSION = 1

PAD = -1


class TokenCacheError(ValueError):
    """Bad or mismatched token cache file."""


@dataclass
class AnchorSet:
    anchor_ids: np.ndarray      # entity ids in selection order
    is_anchor: np.ndarray       # bool per entity
    anchor_index: np.ndarray    # entity id -> position in anchor_ids, -1 otherwise
    strategy: str

    def __len__(self) -> int:
        return len(self.anchor_ids)

    @classmethod
    def from_ids(cls, anchor_ids: np.ndarray, num_entities: int,
                 strategy: str) -> "AnchorSet":
        anchor_ids = np.asarray(anchor_ids, dtype=np.int64)
        if len(np.unique(anchor_ids)) != len(anchor_ids):
            raise ValueError("duplicate anchor ids")
        is_anchor = np.zeros(num_entities, dtype=bool)
        is_anchor[anchor_ids] = True
        index = np.full(num_entities, PAD, dtype=np.int64)
        index[anchor_ids] = np.arange(len(anchor_ids))
        return cls(anchor_ids, is_anchor, index, strategy)


@dataclass
class SubgraphTokens:
    """Token set describing one entity.

    ``anchors`` holds anchor-vocabulary indices; ``in_neighbors`` and
    ``out_neighbors`` hold entity ids.  Slot layout for the mask is
    anchors + in + out + center; padded slots carry 0 with mask False.
    """

    center: int
    anchors: np.ndarray
    in_neighbors: np.ndarray
    out_neighbors: np.ndarray
    mask: np.ndarray

    @property
    def num_slots(self) -> int:
        return len(self.mask)


def select_global_anchors(store: TripleStore, count: int,
                          strategy: str = "degree", seed: int = 0) -> AnchorSet:
    """Pick the global anchor entities.

    degree: highest train in+out degree, ties broken by ascending id.
    random: seed-deterministic uniform draw without replacement.
    """
    if count < 1:
        raise ValueError("anchor count must be >= 1")
    e = store.num_entities
    count = min(count, e)
    if strategy == "degree":
        deg = store.degrees()
        order = np.lexsort((np.arange(e), -deg))
        ids = order[:count]
    elif strategy == "random":
        rng = np.random.default_rng(seed)
        ids = np.sort(rng.choice(e, size=count, replace=False))
    else:
        raise ValueError(f"unknown anchor strategy {strategy!r}")
    return AnchorSet.from_ids(ids, e, strategy)


def _one_hop(store: TripleStore, v: int) -> np.ndarray:
    """Sorted unique union of in- and out-direction neighbors of v."""
    return np.union1d(store.in_neighbors(v)[0], store.out_neighbors(v)[0])


def _assign(store: TripleStore, anchors: AnchorSet, node: int,
            k_anc: int) -> tuple[np.ndarray, int]:
    one = _one_hop(store, node)
    step1 = one[anchors.is_anchor[one]] if len(one) else one
    out = np.full(k_anc, PAD, dtype=np.int64)
    n_one_hop = len(step1)
    take = min(k_anc, n_one_hop)
    out[:take] = step1[:take]
    if take < k_anc and len(one):
        chosen = set(int(a) for a in step1)
        counts: dict[int, int] = {}
        for w in one[~anchors.is_anchor[one]].tolist():
            wn = _one_hop(store, w)
            for b in wn[anchors.is_anchor[wn]].tolist():
                if b == node or b in chosen:
                    continue
                counts[b] = counts.get(b, 0) + 1
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        for b, _ in ranked[: k_anc - take]:
            out[take] = b
            take += 1
    return out, n_one_hop


def assign_node_anchors(store: TripleStore, anchors: AnchorSet, node: int,
                        k_anc: int) -> np.ndarray:
    """Entity ids of the node's anchor tokens, PAD-filled to k_anc.

    One-hop anchors come first (ascending id); remaining slots are filled by
    two-hop anchors ranked by the number of the node's non-anchor one-hop
    neighbors adjacent to them (descending, ties ascending id).
    """
    return _assign(store, anchors, node, k_anc)[0]


def sample_direction_neighbors(store: TripleStore, node: int, k_in: int,
                               k_out: int, rng: np.random.Generator):
    """Uniform without-replacement samples of the one-hop head neighborhood
    (in) and one-hop tail neighborhood (out), PAD-filled and id-sorted."""
    def pick(pool: np.ndarray, k: int) -> np.ndarray:
        res = np.full(k, PAD, dtype=np.int64)
        if len(pool) <= k:
            res[: len(pool)] = pool
        else:
            res[:] = np.sort(rng.choice(pool, size=k, replace=False))
        return res

    in_pool = np.unique(store.in_neighbors(node)[0])
    out_pool = np.unique(store.out_neighbors(node)[0])
    return pick(in_pool, k_in), pick(out_pool, k_out)


def _node_rng(seed: int, node: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, node]))


def build_subgraph_tokens(store: TripleStore, anchors: AnchorSet, node: int,
                          k_anc: int, k_in: int, k_out: int,
                          seed: int = 0) -> SubgraphTokens:
    """Compose anchor assignment + neighbor sampling + center for one node."""
    rng = _node_rng(seed, node)
    anchor_ents, _ = _assign(store, anchors, node, k_anc)
    in_ids, out_ids = sample_direction_neighbors(store, node, k_in, k_out, rng)
    anchor_tok = np.where(anchor_ents >= 0, anchors.anchor_index[anchor_ents], PAD)
    mask = np.concatenate(
        [anchor_tok >= 0, in_ids >= 0, out_ids >= 0, [True]]
    )
    return SubgraphTokens(
        center=node,
        anchors=np.where(anchor_tok >= 0, anchor_tok, 0),
        in_neighbors=np.where(in_ids >= 0, in_ids, 0),
        out_neighbors=np.where(out_ids >= 0, out_ids, 0),
        mask=mask,
    )


@dataclass
class TokenizedGraph:
    """Precomputed token sets for every entity (center column is implicit:
    entity e's center token is e itself)."""

    k_anc: int
    k_in: int
    k_out: int
    seed: int
    anchor_ids: np.ndarray    # [A] entity ids
    anchor_tok: np.ndarray    # [E, k_anc] anchor-vocabulary indices (0 where pad)
    in_tok: np.ndarray        # [E, k_in] entity ids (0 where pad)
    out_tok: np.ndarray       # [E, k_out] entity ids (0 where pad)
    mask: np.ndarray          # [E, k_anc + k_in + k_out + 1] bool

    @property
    def num_entities(self) -> int:
        return self.anchor_tok.shape[0]

    @property
    def num_anchors(self) -> int:
        return len(self.anchor_ids)

    @property
    def num_slots(self) -> int:
        return self.k_anc + self.k_in + self.k_out + 1


def tokenize_all(store: TripleStore, anchors: AnchorSet, k_anc: int, k_in: int,
                 k_out: int, seed: int = 0):
    """Tokenize every entity; returns (TokenizedGraph, coverage stats).

    Stats: fraction of nodes whose one-hop neighborhood contains an anchor,
    a histogram of filled anchor slots, and the count of center-only nodes
    (isolated entities with no tokens besides themselves).
    """
    e = store.num_entities
    # a node is one-hop covered when a train triple joins it to an anchor,
    # in either direction: the test of _assign's one-hop anchor count.
    # Taken before the cache arrays exist, so its temporaries do not add
    # to their peak.
    tr = store.splits["train"]
    covered = np.zeros(e, dtype=bool)
    covered[tr[:, 0][anchors.is_anchor[tr[:, 2]]]] = True
    covered[tr[:, 2][anchors.is_anchor[tr[:, 0]]]] = True
    t = k_anc + k_in + k_out + 1
    anchor_tok = np.zeros((e, k_anc), dtype=np.int64)
    in_tok = np.zeros((e, k_in), dtype=np.int64)
    out_tok = np.zeros((e, k_out), dtype=np.int64)
    mask = np.zeros((e, t), dtype=bool)
    for node in range(e):
        tok = build_subgraph_tokens(store, anchors, node, k_anc, k_in, k_out, seed)
        anchor_tok[node] = tok.anchors
        in_tok[node] = tok.in_neighbors
        out_tok[node] = tok.out_neighbors
        mask[node] = tok.mask
    hist = np.bincount(mask[:, :k_anc].sum(axis=1), minlength=k_anc + 1)
    center_only = int((~mask[:, :-1].any(axis=1)).sum())
    tg = TokenizedGraph(k_anc, k_in, k_out, seed, anchors.anchor_ids.copy(),
                        anchor_tok, in_tok, out_tok, mask)
    stats = {
        "nodes": e,
        "one_hop_anchor_fraction": int(covered.sum()) / e,
        "center_only": center_only,
        "anchor_slot_hist": {str(i): int(n) for i, n in enumerate(hist) if n},
    }
    return tg, stats


def save_token_cache(tg: TokenizedGraph, path: str | Path) -> None:
    e = tg.num_entities
    ids = np.concatenate(
        [tg.anchor_tok, tg.in_tok, tg.out_tok,
         np.arange(e, dtype=np.int64)[:, None]],
        axis=1,
    ).astype("<i4")
    packed = np.packbits(tg.mask, axis=1)
    records = np.concatenate([ids.view(np.uint8).reshape(e, -1), packed], axis=1)
    binfile.save(
        path, CACHE_MAGIC, CACHE_VERSION,
        struct.pack("<IIIqQQ", tg.k_anc, tg.k_in, tg.k_out, tg.seed, e,
                    tg.num_anchors),
        np.asarray(tg.anchor_ids, dtype="<i4"), records,
    )


def load_token_cache(path: str | Path) -> TokenizedGraph:
    with binfile.load(path, CACHE_MAGIC, CACHE_VERSION, TokenCacheError,
                      "token cache") as rd:
        k_anc, k_in, k_out, seed, e, a = rd.unpack("<IIIqQQ", "header")
        anchor_ids = rd.array("<i4", (a,), "anchor ids").astype(np.int64)
        t = k_anc + k_in + k_out + 1
        records = rd.array(np.uint8, (e, t * 4 + (t + 7) // 8), "records")
    ids = records[:, : t * 4].copy().view("<i4").astype(np.int64)
    mask = np.unpackbits(records[:, t * 4:], axis=1)[:, :t].astype(bool)
    if not np.array_equal(ids[:, -1], np.arange(e)):
        raise rd.error("records", "center column corrupt")
    rd.check_ids(anchor_ids, e, "anchor ids")
    rd.check_ids(ids[:, :k_anc], a, "anchor tokens")
    rd.check_ids(ids[:, k_anc:-1], e, "neighbor tokens")
    return TokenizedGraph(
        k_anc, k_in, k_out, seed, anchor_ids,
        ids[:, :k_anc], ids[:, k_anc:k_anc + k_in],
        ids[:, k_anc + k_in:k_anc + k_in + k_out], mask,
    )
