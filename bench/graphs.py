"""Seeded synthetic knowledge graphs.

Entity and relation popularity follow Zipf laws over a seeded random
permutation of the ids, so high-degree entities are scattered over the id
range as in real graphs.  Triples are distinct, have no self-loops, and are
split at random into train/valid/test.  The same (spec, seed) always gives
the same arrays.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class GraphSpec:
    entities: int
    relations: int
    train: int
    valid: int
    test: int
    entity_skew: float      # Zipf exponent of entity popularity
    relation_skew: float    # Zipf exponent of relation popularity


@dataclass
class Graph:
    num_entities: int
    num_relations: int
    train: np.ndarray       # [n, 3] int64 (h, r, t)
    valid: np.ndarray
    test: np.ndarray

    def splits(self) -> dict[str, np.ndarray]:
        return {"train": self.train, "valid": self.valid, "test": self.test}

    def all_triples(self) -> np.ndarray:
        return np.concatenate([self.train, self.valid, self.test])


def _zipf_probs(n: int, skew: float, rng: np.random.Generator) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** skew
    return (w / w.sum())[rng.permutation(n)]


def generate(spec: GraphSpec, seed: int) -> Graph:
    """Draw ``train + valid + test`` distinct triples for ``spec``."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6B67]))
    e, nr = spec.entities, spec.relations
    p_ent = _zipf_probs(e, spec.entity_skew, rng)
    p_rel = _zipf_probs(nr, spec.relation_skew, rng)
    want = spec.train + spec.valid + spec.test
    keys = np.empty(0, dtype=np.int64)
    for _ in range(64):
        n = 2 * (want - len(keys)) + 1024
        h = rng.choice(e, size=n, p=p_ent)
        r = rng.choice(nr, size=n, p=p_rel)
        t = rng.choice(e, size=n, p=p_ent)
        ok = h != t
        new = (h[ok] * nr + r[ok]) * e + t[ok]
        keys = np.concatenate([keys, new])
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)]
        if len(keys) >= want:
            break
    else:
        raise ValueError(f"cannot draw {want} distinct triples for {spec}")
    keys = keys[:want]
    rows = np.stack([keys // (nr * e), (keys // e) % nr, keys % e], axis=1)
    rows = rows[rng.permutation(want)]
    a, b = spec.train, spec.train + spec.valid
    return Graph(e, nr, rows[:a], rows[a:b], rows[b:])


def candidate_sets(graph: Graph, split: str, k: int,
                   seed: int) -> dict[str, np.ndarray]:
    """OGB-style fixed candidate lists: ``k`` distinct entities per query,
    drawn uniformly from every entity except the gold one."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6361]))
    rows = graph.splits()[split]
    e = graph.num_entities
    out = {}
    for target, col in (("tail", 2), ("head", 0)):
        gold = rows[:, col]
        # k distinct draws from [0, e-1), shifted past the gold id
        draws = np.stack([rng.choice(e - 1, size=k, replace=False)
                          for _ in range(len(rows))])
        out[target] = draws + (draws >= gold[:, None])
    return out


def write_tsv(rows: np.ndarray, path: Path) -> None:
    np.savetxt(path, rows, fmt="%d", delimiter="\t")
