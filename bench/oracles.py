"""Independent float64 recomputations that the benchmark checks kgembed
against.

Nothing here calls kgembed: the formulas are written out from their
documented definitions and read only the generated arrays, plain parameter
tables and token-id arrays.  Each ``check_*`` function returns a list of
failure messages; an empty list means the program agreed.
"""
from __future__ import annotations

import numpy as np
from scipy.special import erf

EPS32 = float(np.finfo(np.float32).eps)


# -- ingest -----------------------------------------------------------------

def check_store(store, graph) -> list[str]:
    """Splits equal the generated arrays; CSR degrees equal their bincounts."""
    bad = []
    for name, rows in graph.splits().items():
        if not np.array_equal(np.asarray(store.splits[name], np.int64), rows):
            bad.append(f"ingest: {name} split differs from the generated rows")
    e = graph.num_entities
    if store.num_entities != e or store.num_relations != graph.num_relations:
        bad.append("ingest: entity or relation count differs")
        return bad
    tr = graph.train
    for name, ptr, col in (("in", store.in_ptr, 2), ("out", store.out_ptr, 0)):
        if not np.array_equal(np.diff(ptr), np.bincount(tr[:, col], minlength=e)):
            bad.append(f"ingest: {name}-degrees differ from the bincount")
    if any(store.duplicates.values()):
        bad.append(f"ingest: duplicates reported {store.duplicates}")
    return bad


# -- tokenizer --------------------------------------------------------------

def neighbor_sets(train: np.ndarray, num_entities: int):
    """(in_sets, out_sets): heads pointing at v, tails leaving v."""
    ins = [set() for _ in range(num_entities)]
    outs = [set() for _ in range(num_entities)]
    for h, _, t in train.tolist():
        outs[h].add(t)
        ins[t].add(h)
    return ins, outs


def top_degree_anchors(train: np.ndarray, num_entities: int, count: int):
    deg = (np.bincount(train[:, 0], minlength=num_entities)
           + np.bincount(train[:, 2], minlength=num_entities))
    ranked = sorted(range(num_entities), key=lambda v: (-int(deg[v]), v))
    return ranked[:count]


def expected_anchor_tokens(v: int, ins, outs, anchors: set, k: int) -> list[int]:
    """One-hop anchors ascending, then two-hop anchors by witness count
    descending and id ascending, at most k entity ids."""
    one = ins[v] | outs[v]
    first = sorted(one & anchors)
    if len(first) >= k:
        return first[:k]
    counts: dict[int, int] = {}
    for w in one - anchors:
        for a in (ins[w] | outs[w]) & anchors:
            if a != v and a not in one:
                counts[a] = counts.get(a, 0) + 1
    ranked = sorted(counts, key=lambda a: (-counts[a], a))
    return first + ranked[: k - len(first)]


def check_tokens(tg, nodes, ins, outs, anchor_ids) -> list[str]:
    """Compare the token cache rows of ``nodes`` with set recomputations."""
    bad = []
    if list(tg.anchor_ids) != list(anchor_ids):
        return ["tokenizer: anchor ids differ from top-degree order"]
    anchors = set(anchor_ids)
    ka, ki, ko = tg.k_anc, tg.k_in, tg.k_out
    for v in nodes:
        mask = tg.mask[v]
        want = expected_anchor_tokens(v, ins, outs, anchors, ka)
        n = len(want)
        got = [int(anchor_ids[i]) for i in tg.anchor_tok[v][:n]]
        if (got != want or not mask[:n].all() or mask[n:ka].any()
                or tg.anchor_tok[v][n:].any()):
            bad.append(f"tokenizer: node {v} anchors {got} != {want}")
        for label, pool, toks, m in (
            ("in", ins[v], tg.in_tok[v], mask[ka:ka + ki]),
            ("out", outs[v], tg.out_tok[v], mask[ka + ki:ka + ki + ko]),
        ):
            n = min(len(toks), len(pool))
            real = toks[:n].tolist()
            if (not m[:n].all() or m[n:].any() or toks[n:].any()
                    or real != sorted(set(real)) or not set(real) <= pool):
                bad.append(f"tokenizer: node {v} {label} tokens {real} "
                           f"not a sorted subset of size {n}")
        if not mask[-1]:
            bad.append(f"tokenizer: node {v} center slot masked out")
    return bad


# -- encoder and scoring ----------------------------------------------------

def _layernorm(x, g, b, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * g + b


def encode(params: dict, ids: np.ndarray, seg: np.ndarray, mask: np.ndarray,
           heads: int) -> np.ndarray:
    """Pre-norm transformer block over masked token sets, mean-pooled over
    real tokens, then projected: the documented tokenized encoder."""
    p = {k: np.asarray(v, np.float64) for k, v in params.items()}
    m = mask[..., None]
    x = (p["tok"][ids] + p["type"][seg]) * m
    b, t, d = x.shape
    dh = d // heads
    a = _layernorm(x, p["ln1_g"], p["ln1_b"])
    q, k, v = a @ p["wq"], a @ p["wk"], a @ p["wv"]
    ctx = np.empty_like(x)
    for i in range(heads):
        s = slice(i * dh, (i + 1) * dh)
        logits = q[..., s] @ k[..., s].transpose(0, 2, 1) / np.sqrt(dh)
        logits = np.where(mask[:, None, :], logits, -np.inf)
        w = np.exp(logits - logits.max(axis=-1, keepdims=True))
        ctx[..., s] = (w / w.sum(axis=-1, keepdims=True)) @ v[..., s]
    y = x + ctx @ p["wo"]
    f = _layernorm(y, p["ln2_g"], p["ln2_b"]) @ p["w1"] + p["b1"]
    y = y + (0.5 * f * (1.0 + erf(f / np.sqrt(2.0)))) @ p["w2"] + p["b2"]
    pooled = (y * m).sum(axis=1) / mask.sum(axis=1, keepdims=True)
    return pooled @ p["out_proj"]


def entity_tables(model, ids: np.ndarray):
    """float64 (base, aux) rows for entity ids, recomputed from parameters."""
    if model.tokenized:
        out = encode(model.params, model.tok_ids[ids], model.tok_seg,
                     model.tok_mask[ids], model.enc_cfg.heads)
        return out[:, :model.dim], out[:, model.dim:]
    aux = model.params.get("ent_aux")
    return (np.asarray(model.params["ent"][ids], np.float64),
            None if aux is None else np.asarray(aux[ids], np.float64))


def residual(kind: str, u: float, h, t, h_aux, t_aux, rel) -> np.ndarray:
    """InterHT:  h o (t_a + 1) - t o (h_a + 1) + r
    InterHT+: u (h o t) + h o (u r_h + 1) - t o (u r_t + 1) + r"""
    if kind == "interht":
        return h * (t_aux + 1.0) - t * (h_aux + 1.0) + rel["rel"]
    if kind == "interht_plus":
        return (u * h * t + h * (u * rel["rel_h"] + 1.0)
                - t * (u * rel["rel_t"] + 1.0) + rel["rel"])
    raise ValueError(f"no oracle for model kind {kind!r}")


def distance(res: np.ndarray, p: int) -> np.ndarray:
    if p == 1:
        return np.abs(res).sum(axis=-1)
    return np.sqrt((res * res).sum(axis=-1))


def relation_rows(model, r_ids) -> dict[str, np.ndarray]:
    return {name: np.asarray(model.params[name][r_ids], np.float64)
            for name in ("rel", "rel_h", "rel_t") if name in model.params}


# -- loss -------------------------------------------------------------------

def batch_distances(model, batch, negatives, side):
    """(d_pos [b], d_neg [b, k], residual signs) in float64."""
    b, k = negatives.shape
    ids = np.concatenate([batch[:, 0], batch[:, 2], negatives.ravel()])
    uniq, inv = np.unique(ids, return_inverse=True)
    base, aux = entity_tables(model, uniq)
    if aux is None or not model.kind.uses_aux:
        aux = np.zeros_like(base)
    ih, it, ineg = inv[:b], inv[b:2 * b], inv[2 * b:].reshape(b, k)
    rel = relation_rows(model, batch[:, 1])
    name, u = model.kind.name, model.u
    res_pos = residual(name, u, base[ih], base[it], aux[ih], aux[it], rel)
    rel_n = {n: v[:, None, :] for n, v in rel.items()}
    if side == "tail":
        res_neg = residual(name, u, base[ih][:, None], base[ineg],
                           aux[ih][:, None], aux[ineg], rel_n)
    else:
        res_neg = residual(name, u, base[ineg], base[it][:, None],
                           aux[ineg], aux[it][:, None], rel_n)
    signs = np.concatenate([np.sign(res_pos).ravel(), np.sign(res_neg).ravel()])
    return distance(res_pos, model.p), distance(res_neg, model.p), signs


def adversarial_weights(d_neg: np.ndarray, alpha: float) -> np.ndarray:
    if alpha == 0.0:
        return np.full_like(d_neg, 1.0 / d_neg.shape[-1])
    z = -alpha * d_neg
    w = np.exp(z - z.max(axis=-1, keepdims=True))
    return w / w.sum(axis=-1, keepdims=True)


def self_adversarial_loss(d_pos, d_neg, gamma: float, weights) -> float:
    """mean_i [ -log s(gamma - d_pos_i) - sum_j w_ij log s(d_neg_ij - gamma) ]"""
    pos = np.logaddexp(0.0, d_pos - gamma)
    neg = (weights * np.logaddexp(0.0, gamma - d_neg)).sum(axis=1)
    return float((pos + neg).mean())


def batch_loss(model, batch, negatives, side, gamma, alpha, weights=None):
    """float64 loss; ``weights`` pins the self-adversarial weights, which
    the program treats as constants."""
    d_pos, d_neg, signs = batch_distances(model, batch, negatives, side)
    if weights is None:
        weights = adversarial_weights(d_neg, alpha)
    return self_adversarial_loss(d_pos, d_neg, gamma, weights), weights, signs


def check_gradients(model64, batch, negatives, side, gamma, alpha, grads,
                    rng: np.random.Generator, per_table: int = 1,
                    h: float = 1e-6) -> list[str]:
    """Central differences of the float64 oracle loss against finalized
    program gradients on sampled coordinates of every table.  Coordinates
    whose perturbation flips an L1 residual sign are redrawn: the loss has
    no derivative there."""
    bad = []
    _, w, signs = batch_loss(model64, batch, negatives, side, gamma, alpha)
    for name in sorted(grads):
        entry = grads[name]
        table = model64.params[name]
        if entry[0] == "dense":
            dense = entry[1].reshape(table.shape)
            pool = np.argwhere(dense != 0)
        else:
            ids, rows = entry[1], entry[2].reshape(len(entry[1]), -1)
            pool = np.argwhere(rows != 0)
        if not len(pool):
            continue
        done = tries = 0
        while done < per_table and tries < 8 * per_table:
            tries += 1
            pick = tuple(int(i) for i in pool[rng.integers(len(pool))])
            if entry[0] == "dense":
                coord, ana = pick, float(dense[pick])
            else:
                coord, ana = (int(ids[pick[0]]), pick[1]), float(rows[pick])
            old = table[coord]
            table[coord] = old + h
            up, _, s_up = batch_loss(model64, batch, negatives, side, gamma, alpha, w)
            table[coord] = old - h
            dn, _, s_dn = batch_loss(model64, batch, negatives, side, gamma, alpha, w)
            table[coord] = old
            if model64.p == 1 and not (np.array_equal(s_up, signs)
                                       and np.array_equal(s_dn, signs)):
                continue
            num = (up - dn) / (2 * h)
            done += 1
            if abs(num - ana) > 1e-7 + 1e-4 * max(abs(num), abs(ana)):
                bad.append(f"gradient: {name}{coord} analytic {ana:.6g} vs "
                           f"central difference {num:.6g}")
    return bad


# -- evaluation -------------------------------------------------------------

def known_completions(all_triples: np.ndarray, q_h, q_r, q_t, target: str):
    if target == "tail":
        sel = (all_triples[:, 0] == q_h) & (all_triples[:, 1] == q_r)
        return all_triples[sel, 2]
    sel = (all_triples[:, 2] == q_t) & (all_triples[:, 1] == q_r)
    return all_triples[sel, 0]


def query_distances(model, base, aux, h, r, t, target: str) -> np.ndarray:
    """float64 distances of (h, r, *) or (*, r, t) against every entity."""
    if aux is None:
        aux = np.zeros_like(base)
    rel = {n: v[0] for n, v in relation_rows(model, np.array([r])).items()}
    if target == "tail":
        res = residual(model.kind.name, model.u, base[h], base, aux[h], aux, rel)
    else:
        res = residual(model.kind.name, model.u, base, base[t], aux, aux[t], rel)
    return distance(res, model.p)


def rank_bounds(dist: np.ndarray, gold: int, pool: np.ndarray, dim: int):
    """(lo, hi): the gold's rank among ``pool`` if every entity whose
    distance lies within float32 rounding of the gold's ranked behind it,
    or ahead of it."""
    g = dist[gold]
    tol = 8 * dim * EPS32 * max(1.0, abs(g))
    d = dist[pool]
    return 1 + int((d < g - tol).sum()), 1 + int((d <= g + tol).sum())


def eval_pools(graph, queries, e: int, cand_sets=None):
    """Per query (gold, pool): every entity minus known completions and the
    gold (filtered), or the candidate row minus the gold (candidate-set)."""
    allt = graph.all_triples()
    out = []
    for i, (h, r, t, target) in enumerate(queries):
        gold = t if target == "tail" else h
        if cand_sets is None:
            keep = np.ones(e, dtype=bool)
            keep[known_completions(allt, h, r, t, target)] = False
        else:
            keep = np.zeros(e, dtype=bool)
            keep[cand_sets[target][i // 2]] = True
        keep[gold] = False
        out.append((gold, np.flatnonzero(keep)))
    return out


def check_report(report, bounds, hits_ks=(1, 3, 10)) -> list[str]:
    """The aggregate lies between the all-pessimistic and all-optimistic
    readings of the oracle ranks, and obeys the metric invariants."""
    lo = np.array([b[0] for b in bounds], np.float64)
    hi = np.array([b[1] for b in bounds], np.float64)
    bad = []
    slack = 1e-9
    if report.count != len(bounds):
        bad.append(f"eval: {report.count} queries ranked, {len(bounds)} expected")
    if not (np.mean(1 / hi) - slack <= report.mrr <= np.mean(1 / lo) + slack):
        bad.append(f"eval: mrr {report.mrr} outside oracle range "
                   f"[{np.mean(1 / hi)}, {np.mean(1 / lo)}]")
    if not 0.0 < report.mrr <= 1.0:
        bad.append(f"eval: mrr {report.mrr} outside (0, 1]")
    hits = [report.hits[k] for k in hits_ks]
    if hits != sorted(hits):
        bad.append(f"eval: hits not monotone {hits}")
    for k, v in zip(hits_ks, hits):
        if not np.mean(hi <= k) - slack <= v <= np.mean(lo <= k) + slack:
            bad.append(f"eval: hits@{k} {v} outside oracle range")
    return bad
