"""Per-branch training-step oracle for the one-call step.

This is how kgembed computed a training step before it was batched into
one kernel call: positives and negatives scored in two calls, every
gradient term scattered into the encoded-entity arrays with ``np.add.at``,
float64 self-adversarial weights, and a ``GradBuffer.finalize`` that merges
rows with ``np.unique`` and ``np.add.at``.  The encoder's sparse backward
also builds the segment-type gradient with ``np.add.at`` here, and
``adam_step`` re-indexes the moment tables after writing them.
``sample_negatives`` checks every draw of the batch again in each
filtering round, not only the redrawn ones.
"""
from __future__ import annotations

import numpy as np
from scipy.special import expit

from kgembed import encoder as enc


class GradBuffer:
    def __init__(self):
        self.dense: dict[str, np.ndarray] = {}
        self._row_ids: dict[str, list[np.ndarray]] = {}
        self._row_vals: dict[str, list[np.ndarray]] = {}

    def add_dense(self, name, g):
        if name in self.dense:
            self.dense[name] = self.dense[name] + g
        else:
            self.dense[name] = g

    def add_rows(self, name, ids, rows):
        ids = np.asarray(ids).reshape(-1)
        rows = np.asarray(rows).reshape(len(ids), -1)
        self._row_ids.setdefault(name, []).append(ids)
        self._row_vals.setdefault(name, []).append(rows)

    def finalize(self, frozen_rows=None) -> dict:
        frozen_rows = frozen_rows or {}
        out = {name: ("dense", g) for name, g in self.dense.items()}
        for name, chunks in self._row_ids.items():
            ids = np.concatenate(chunks)
            rows = np.concatenate(self._row_vals[name])
            uniq, inv = np.unique(ids, return_inverse=True)
            summed = np.zeros((len(uniq), rows.shape[1]), dtype=rows.dtype)
            np.add.at(summed, inv, rows)
            keep = summed.any(axis=1)
            if name in frozen_rows:
                keep &= uniq != frozen_rows[name]
            out[name] = ("rows", uniq[keep], summed[keep])
        return out


def self_adversarial_weights(neg_d, alpha):
    k = neg_d.shape[-1]
    if alpha == 0.0:
        return np.full_like(neg_d, 1.0 / k, dtype=np.float64)
    z = -alpha * np.asarray(neg_d, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=-1, keepdims=True)


def encode_entity_backward(params, cfg, cache, d_out):
    mask = cache["mask"]
    dense = {"out_proj": cache["pooled"].T @ d_out}
    d_pool = d_out @ params["out_proj"].T
    dy = mask[..., None] * (d_pool / cache["n_real"][:, None])[:, None, :]
    if cfg.combiner == "transformer":
        dx, wg = enc.transformer_block_backward(params, cfg, cache["block"], dy)
        dense.update(wg)
    else:
        dx = dy
    dx = dx * mask[..., None]
    dt = dx.shape[-1]
    flat = mask.reshape(-1)
    tok_ids = cache["ids"].reshape(-1)[flat]
    tok_rows = dx.reshape(-1, dt)[flat]
    d_type = np.zeros_like(params["type"])
    seg_flat = np.broadcast_to(cache["seg"], cache["ids"].shape).reshape(-1)[flat]
    np.add.at(d_type, seg_flat, tok_rows)
    dense["type"] = d_type
    return tok_ids, tok_rows, dense


def entity_backward(model, cache, d_base, d_aux, buf):
    mode, payload = cache
    if mode == "lookup":
        buf.add_rows("ent", payload, d_base)
        if d_aux is not None:
            buf.add_rows("ent_aux", payload, d_aux)
        return
    if d_aux is None:
        d_aux = np.zeros_like(d_base)
    tok_ids, tok_rows, dense = encode_entity_backward(
        model.params, model.enc_cfg, payload,
        np.concatenate([d_base, d_aux], axis=-1))
    buf.add_rows("tok", tok_ids, tok_rows)
    for name, g in dense.items():
        buf.add_dense(name, g)


def loss_and_grads(model, batch, negatives, side, gamma, alpha):
    b, k = negatives.shape
    h_ids, r_ids, t_ids = batch[:, 0], batch[:, 1], batch[:, 2]
    all_ids = np.concatenate([h_ids, t_ids, negatives.reshape(-1)])
    uniq, inv = np.unique(all_ids, return_inverse=True)
    base_u, aux_u, cache = model.encode_entities(uniq)
    iv_h, iv_t = inv[:b], inv[b:2 * b]
    iv_n = inv[2 * b:].reshape(b, k)

    kind = model.kind
    rel = model.relation_vecs(r_ids)
    pos = {"h": base_u[iv_h], "t": base_u[iv_t], **rel}
    if kind.uses_aux:
        pos["h_a"] = aux_u[iv_h]
        pos["t_a"] = aux_u[iv_t]
    neg = {part: v[:, None, :] for part, v in rel.items()}
    if side == "tail":
        neg["h"] = pos["h"][:, None, :]
        neg["t"] = base_u[iv_n]
        if kind.uses_aux:
            neg["h_a"] = pos["h_a"][:, None, :]
            neg["t_a"] = aux_u[iv_n]
    else:
        neg["h"] = base_u[iv_n]
        neg["t"] = pos["t"][:, None, :]
        if kind.uses_aux:
            neg["h_a"] = aux_u[iv_n]
            neg["t_a"] = pos["t_a"][:, None, :]

    d_pos, g_pos = model.score(pos)
    d_neg, g_neg = model.score(neg)

    w = self_adversarial_weights(d_neg, alpha)
    per_pos = (np.logaddexp(0.0, d_pos - gamma)
               + (w * np.logaddexp(0.0, gamma - d_neg)).sum(axis=1))
    loss = float(per_pos.mean())

    dd_pos = expit(d_pos - gamma) / b
    dd_neg = -(w * expit(gamma - d_neg)) / b

    d_base_u = np.zeros_like(base_u)
    d_aux_u = np.zeros_like(aux_u) if kind.uses_aux else None
    scatter = np.add.at
    scatter(d_base_u, iv_h, g_pos["h"] * dd_pos[:, None])
    scatter(d_base_u, iv_t, g_pos["t"] * dd_pos[:, None])
    if kind.uses_aux:
        scatter(d_aux_u, iv_h, g_pos["h_a"] * dd_pos[:, None])
        scatter(d_aux_u, iv_t, g_pos["t_a"] * dd_pos[:, None])
    gn = dd_neg[..., None]
    if side == "tail":
        scatter(d_base_u, iv_h, (g_neg["h"] * gn).sum(axis=1))
        scatter(d_base_u, iv_n, g_neg["t"] * gn)
        if kind.uses_aux:
            scatter(d_aux_u, iv_h, (g_neg["h_a"] * gn).sum(axis=1))
            scatter(d_aux_u, iv_n, g_neg["t_a"] * gn)
    else:
        scatter(d_base_u, iv_n, g_neg["h"] * gn)
        scatter(d_base_u, iv_t, (g_neg["t"] * gn).sum(axis=1))
        if kind.uses_aux:
            scatter(d_aux_u, iv_n, g_neg["h_a"] * gn)
            scatter(d_aux_u, iv_t, (g_neg["t_a"] * gn).sum(axis=1))

    buf = GradBuffer()
    entity_backward(model, cache, d_base_u, d_aux_u, buf)
    d_parts = {part: g_pos[part] * dd_pos[:, None] + (g_neg[part] * gn).sum(axis=1)
               for part in kind.rel_parts}
    model.relation_backward(r_ids, d_parts, buf)
    return loss, buf


def adam_step(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    for name, g in grads.items():
        p = params[name]
        if g[0] == "dense":
            garr = g[1]
            if p.ndim > 1:
                rows = np.flatnonzero(garr.any(axis=tuple(range(1, p.ndim))))
                if not len(rows):
                    continue
                gval = garr[rows]
            else:
                if not garr.any():
                    continue
                rows = slice(None)
                gval = garr
        else:
            _, rows, gval = g
            if not len(rows):
                continue
            gval = gval.reshape((len(rows),) + p.shape[1:])
        m, v = state.m[name], state.v[name]
        if p.ndim > 1:
            state.counts[name][rows] += 1
            tc = state.counts[name][rows][:, None].astype(np.float64)
        else:
            state.counts[name][0] += 1
            tc = float(state.counts[name][0])
        m[rows] = beta1 * m[rows] + (1.0 - beta1) * gval
        v[rows] = beta2 * v[rows] + (1.0 - beta2) * gval * gval
        mhat = m[rows] / (1.0 - beta1 ** tc)
        vhat = v[rows] / (1.0 - beta2 ** tc)
        params[name][rows] = p[rows] - lr * mhat / (np.sqrt(vhat) + eps)


def sample_negatives(store, batch, k, side, rng, filter_train=False):
    e = store.num_entities
    b = len(batch)
    gold = batch[:, 2] if side == "tail" else batch[:, 0]
    neg = rng.integers(0, e, size=(b, k), dtype=np.int64)
    clash = neg == gold[:, None]
    if clash.any():
        neg[clash] = rng.integers(0, e, size=int(clash.sum()), dtype=np.int64)
    if filter_train:
        h = np.broadcast_to(batch[:, 0:1], (b, k))
        r = np.broadcast_to(batch[:, 1:2], (b, k))
        t = np.broadcast_to(batch[:, 2:3], (b, k))
        for _ in range(64):
            if side == "tail":
                bad = store.train_triple_mask(h.ravel(), r.ravel(), neg.ravel())
            else:
                bad = store.train_triple_mask(neg.ravel(), r.ravel(), t.ravel())
            bad = bad.reshape(b, k)
            if not bad.any():
                break
            neg[bad] = rng.integers(0, e, size=int(bad.sum()), dtype=np.int64)
    return neg, side
