"""Link-prediction ranking: filtered full ranking, fixed candidate sets,
MRR and Hits@K.

Queries are ranked in blocks against chunks of entities with value-only
scoring, so no [queries, entities] array is ever built.

All ranking happens on the unified "lower is better" scores, so distance
and bilinear kinds share one code path.  Reciprocal ranks accumulate in
double precision regardless of table dtype.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# filtered_candidates is no longer used here but stays importable from this
# module, where callers have found it.
from .data import Query, TripleStore, filtered_candidates  # noqa: F401
from .model import KgeModel

log = logging.getLogger(__name__)

TIE_POLICIES = ("optimistic", "pessimistic", "mean")
PROTOCOLS = ("filtered-full", "candidate-set")
HITS_KS = (1, 3, 10)

# Scalars in one [queries, entities, dim] scoring temporary: ranking memory
# stays bounded whatever the entity count.  2**17 (512 KiB of float32) ranked
# fastest of 2**14..2**20 on a 2-core Xeon VM with 2 MiB of L2 per core,
# where the few temporaries a kernel keeps alive still fit in L2.
ELEMENT_BUDGET = 1 << 17
# Queries ranked together against each entity chunk.
BLOCK_QUERIES = 16


@dataclass
class RankResult:
    query: Query
    rank: float               # fractional under the mean tie policy
    num_candidates: int


@dataclass
class EvalReport:
    mrr: float
    hits: dict[int, float]
    count: int
    protocol: str
    tie_policy: str

    def to_dict(self) -> dict:
        out = {"mrr": self.mrr}
        for k in HITS_KS:
            out[f"hits@{k}"] = self.hits[k]
        out.update(count=self.count, protocol=self.protocol,
                   tie_policy=self.tie_policy)
        return out


def tie_rank(better: int, ties: int, policy: str) -> float:
    """Rank of the gold among candidates: `better` score strictly ahead of
    it, `ties` score equal (gold itself excluded from both counts)."""
    if policy == "optimistic":
        return 1.0 + better
    if policy == "pessimistic":
        return 1.0 + better + ties
    if policy == "mean":
        return 1.0 + better + ties / 2.0
    raise ValueError(f"tie policy must be one of {TIE_POLICIES}, got {policy!r}")


def _rows(table: np.ndarray, ents) -> np.ndarray:
    """Entity rows as [Q, n, d]: a slice or 1-D ids is shared by all Q
    queries, a [Q, n] id array gives each query its own entities."""
    x = table[ents]
    return x if x.ndim == 3 else x[None]


def _scores(model: KgeModel, tables, r: np.ndarray, fixed: np.ndarray,
            target: str, ents) -> np.ndarray:
    """Unified scores [Q, n] of Q queries, value only.

    Query i ranks the ``target`` side of relation ``r[i]`` with entity
    ``fixed[i]`` on the other side, against the entities ``ents`` selects.
    Each score is computed elementwise from the same rows as a single
    [E]-wide query would use, so it is bit-identical to that query's.
    """
    base, aux = tables
    one, many = ("h", "t") if target == "tail" else ("t", "h")
    vecs = {part: v[:, None] for part, v in model.relation_vecs(r).items()}
    vecs[one] = base[fixed][:, None]
    vecs[many] = _rows(base, ents)
    if aux is not None:
        vecs[one + "_a"] = aux[fixed][:, None]
        vecs[many + "_a"] = _rows(aux, ents)
    d, _ = model.score(vecs, grad=False)
    return d


def _chunk(queries: int, dim: int) -> int:
    """Entities per chunk so that one scoring temporary fits the budget."""
    return max(1, ELEMENT_BUDGET // (queries * dim))


def _check_target(target: str) -> None:
    if target not in ("tail", "head"):
        raise ValueError(f"bad query target {target!r}")


def _rank_block(model: KgeModel, tables, store: TripleStore, h, r, t,
                target: str, cands: np.ndarray | None):
    """(better, ties, pool) for a block of queries sharing one target.

    Every query is scored against chunks of entities (all of them, or its
    candidate row under the candidate-set protocol) and the entities
    scoring below and equal to its gold are counted.  The pool excludes the
    gold and, under the filtered protocol, every known completion; their
    scores are recomputed and their counts subtracted.
    """
    fixed, gold = (h, t) if target == "tail" else (t, h)
    q, dim = len(r), tables[0].shape[1]
    gold_d = _scores(model, tables, r, fixed, target, gold[:, None])
    step = _chunk(q, dim)
    if cands is None:
        n = model.num_entities
        cols = [slice(lo, lo + step) for lo in range(0, n, step)]
        qi, ent = store.completions(fixed, r, target)
        # the gold joins the exclusions unless it is a known completion
        known = np.zeros(q, dtype=bool)
        known[qi[ent == gold[qi]]] = True
        extra = np.flatnonzero(~known)
        qi = np.concatenate([qi, extra])
        ent = np.concatenate([ent, gold[extra]])
    else:
        n = cands.shape[1]
        cols = [cands[:, lo:lo + step] for lo in range(0, n, step)]
        qi = np.nonzero(cands == gold[:, None])[0]
        ent = gold[qi]
        for i in np.unique(qi).tolist():
            log.warning("gold entity %d found in its candidate set; dropped",
                        gold[i])
    better = np.zeros(q, dtype=np.int64)
    ties = np.zeros(q, dtype=np.int64)
    for ents in cols:
        d = _scores(model, tables, r, fixed, target, ents)
        better += (d < gold_d).sum(axis=1)
        ties += (d == gold_d).sum(axis=1)
    step = _chunk(1, dim)
    for lo in range(0, len(qi), step):
        i, e = qi[lo:lo + step], ent[lo:lo + step]
        d = _scores(model, tables, r[i], fixed[i], target, e[:, None])[:, 0]
        g = gold_d[i, 0]
        better -= np.bincount(i[d < g], minlength=q)
        ties -= np.bincount(i[d == g], minlength=q)
    pool = n - np.bincount(qi, minlength=q)
    return better, ties, pool


def _ranks(model: KgeModel, tables, store: TripleStore, triples: np.ndarray,
           target: str, tie_policy: str, cands: np.ndarray | None):
    """Ranks and pool sizes of the ``target`` queries of ``triples``,
    ranked in blocks of BLOCK_QUERIES."""
    model.check_store(store)
    ranks = np.empty(len(triples))
    pools = np.empty(len(triples), dtype=np.int64)
    for lo in range(0, len(triples), BLOCK_QUERIES):
        h, r, t = triples[lo:lo + BLOCK_QUERIES].T
        block = None if cands is None else cands[lo:lo + BLOCK_QUERIES]
        better, ties, pool = _rank_block(model, tables, store, h, r, t,
                                         target, block)
        empty = np.flatnonzero(pool == 0)
        if len(empty):
            i = int(empty[0])
            raise ValueError("empty candidate list for "
                             f"{Query(int(h[i]), int(r[i]), int(t[i]), target)}")
        ranks[lo:lo + len(r)] = [
            tie_rank(b, k, tie_policy)
            for b, k in zip(better.tolist(), ties.tolist())
        ]
        pools[lo:lo + len(r)] = pool
    return ranks, pools


def rank_query(model: KgeModel, store: TripleStore, query: Query,
               protocol: str = "filtered-full", tie_policy: str = "mean",
               tables=None, candidates: np.ndarray | None = None) -> RankResult:
    """Rank the gold entity against its candidate pool.

    filtered-full ranks against all entities minus other known-true
    completions; candidate-set ranks against a provided id list (gold
    occurrences are deduplicated with a warning).
    """
    _check_target(query.target)
    cands = _candidate_rows(protocol, candidates)
    if cands is not None:
        cands = cands.reshape(1, -1)
    if tables is None:
        tables = model.encode_all()
    triple = np.array([[query.h, query.r, query.t]], dtype=np.int64)
    ranks, pools = _ranks(model, tables, store, triple, query.target,
                          tie_policy, cands)
    return RankResult(query, float(ranks[0]), int(pools[0]) + 1)


def _candidate_rows(protocol: str, candidates) -> np.ndarray | None:
    """The candidate ids a protocol ranks against; None means all entities."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"protocol must be one of {PROTOCOLS}, got {protocol!r}")
    if protocol == "filtered-full":
        return None
    if candidates is None:
        raise ValueError("candidate-set protocol needs a candidate list")
    return np.asarray(candidates, dtype=np.int64)


def split_queries(triples: np.ndarray, both_directions: bool) -> list[Query]:
    queries = []
    for h, r, t in triples.tolist():
        queries.append(Query(h, r, t, "tail"))
        if both_directions:
            queries.append(Query(h, r, t, "head"))
    return queries


def summarize_ranks(ranks, protocol: str, tie_policy: str) -> EvalReport:
    rr = 0.0
    hit_counts = {k: 0 for k in HITS_KS}
    n = 0
    for rank in ranks:
        rr += 1.0 / rank
        for k in HITS_KS:
            hit_counts[k] += rank <= k
        n += 1
    if n == 0:
        raise ValueError("no ranks to summarize")
    return EvalReport(
        mrr=rr / n,
        hits={k: hit_counts[k] / n for k in HITS_KS},
        count=n, protocol=protocol, tie_policy=tie_policy,
    )


def rank_split(model: KgeModel, store: TripleStore, split: str = "test",
               protocol: str = "filtered-full", tie_policy: str = "mean",
               both_directions: bool = True,
               candidate_sets=None) -> np.ndarray:
    """Ranks of every query of a split, in :func:`split_queries` order.

    candidate_sets: {"tail": [n, k] ids, "head": [n, k]} for the
    candidate-set protocol, one row per split triple.
    """
    triples = store.splits[split]
    if len(triples) == 0:
        raise ValueError(f"split {split!r} is empty")
    candidate_sets = candidate_sets or {}
    if protocol == "candidate-set":
        if not candidate_sets:
            raise ValueError("candidate-set protocol needs candidate_sets")
        for direction, arr in candidate_sets.items():
            if len(arr) != len(triples):
                raise ValueError(
                    f"{direction} candidate sets have {len(arr)} rows "
                    f"for {len(triples)} triples"
                )
    tables = model.encode_all()
    triples = triples.astype(np.int64)
    targets = ("tail", "head") if both_directions else ("tail",)
    ranks = np.empty(len(targets) * len(triples))
    for j, target in enumerate(targets):
        cands = _candidate_rows(protocol, candidate_sets.get(target))
        ranks[j::len(targets)] = _ranks(model, tables, store, triples, target,
                                        tie_policy, cands)[0]
    return ranks


def evaluate_split(model: KgeModel, store: TripleStore, split: str = "test",
                   protocol: str = "filtered-full", tie_policy: str = "mean",
                   both_directions: bool = True,
                   candidate_sets=None) -> EvalReport:
    """Rank every query of a split and aggregate MRR / Hits@{1,3,10}.

    Queries are ranked in blocks against chunks of entities; see
    :func:`rank_split`.
    """
    ranks = rank_split(model, store, split, protocol, tie_policy,
                       both_directions, candidate_sets)
    return summarize_ranks(ranks.tolist(), protocol, tie_policy)


def load_candidate_sets(path: str | Path) -> np.ndarray:
    """Tab-separated candidate ids, one evaluation query per line; every
    line must list the same number of candidates."""
    rows: list[list[int]] = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                row = [int(x) for x in line.split("\t")]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if rows and len(row) != len(rows[0]):
                raise ValueError(
                    f"{path}:{lineno}: {len(row)} candidates, "
                    f"expected {len(rows[0])}"
                )
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no candidate rows")
    return np.asarray(rows, dtype=np.int64)
