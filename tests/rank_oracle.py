"""Per-query ranking oracle for the batched evaluation path.

This is how kgembed ranked before evaluation was batched: one query at a
time, scoring every entity through the full kernel (gradients included) and
masking the pool with a boolean vector.  Known completions come from a
Python set of triples, independent of the store's sorted key index.
``sort_rank`` recounts a rank by sorting, and ``save_candidate_sets``
writes the candidate files that ``load_candidate_sets`` reads.
"""
from __future__ import annotations

import numpy as np

from kgembed.evaluation import RankResult, tie_rank


def known_triples(store) -> set[tuple[int, int, int]]:
    return {tuple(t) for split in store.splits.values() for t in split.tolist()}


def completions(known, fixed: int, r: int, target: str) -> list[int]:
    """Sorted known completions of one query, from the triple set."""
    if target == "tail":
        return sorted({t for h, rr, t in known if h == fixed and rr == r})
    return sorted({h for h, rr, t in known if t == fixed and rr == r})


def score_against_all(model, tables, query) -> np.ndarray:
    """Unified scores of (h, r, *) or (*, r, t) against every entity."""
    base, aux = tables
    rel = {part: v[0]
           for part, v in model.relation_vecs(np.array([query.r])).items()}
    if query.target == "tail":
        vecs = {"h": base[query.h], "t": base, **rel}
        if aux is not None:
            vecs.update(h_a=aux[query.h], t_a=aux)
    elif query.target == "head":
        vecs = {"h": base, "t": base[query.t], **rel}
        if aux is not None:
            vecs.update(h_a=aux, t_a=aux[query.t])
    else:
        raise ValueError(f"bad query target {query.target!r}")
    d, _ = model.score(vecs)
    return d


def rank_query(model, known, query, protocol="filtered-full",
               tie_policy="mean", tables=None, candidates=None) -> RankResult:
    """Rank the gold entity against its pool, one query at a time."""
    if tables is None:
        tables = model.encode_all()
    d = score_against_all(model, tables, query)
    gold = query.t if query.target == "tail" else query.h
    gold_d = d[gold]
    if protocol == "filtered-full":
        keep = np.ones(model.num_entities, dtype=bool)
        fixed = query.h if query.target == "tail" else query.t
        keep[completions(known, fixed, query.r, query.target)] = False
        keep[gold] = False
        cand_d = d[keep]
    elif protocol == "candidate-set":
        if candidates is None:
            raise ValueError("candidate-set protocol needs a candidate list")
        cands = np.asarray(candidates, dtype=np.int64)
        cand_d = d[cands[cands != gold]]
    else:
        raise ValueError(f"bad protocol {protocol!r}")
    if len(cand_d) == 0:
        raise ValueError(f"empty candidate list for {query}")
    better = int((cand_d < gold_d).sum())
    ties = int((cand_d == gold_d).sum())
    return RankResult(query, tie_rank(better, ties, tie_policy), len(cand_d) + 1)


def sort_rank(cand_scores: np.ndarray, gold_score: float,
              tie_policy: str) -> float:
    """Sort-based rank recount used as an independent cross-check."""
    s = np.sort(np.asarray(cand_scores, dtype=np.float64))
    lo = int(np.searchsorted(s, gold_score, side="left"))
    hi = int(np.searchsorted(s, gold_score, side="right"))
    return tie_rank(lo, hi - lo, tie_policy)


def save_candidate_sets(arr: np.ndarray, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for row in np.asarray(arr, dtype=np.int64):
            f.write("\t".join(str(int(x)) for x in row) + "\n")
