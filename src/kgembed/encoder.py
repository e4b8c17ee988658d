"""Token encoder: embedding lookup, a single transformer block, mean-pooling.

A tokenized entity is a fixed-width set of token slots (anchors, in-direction
neighbors, out-direction neighbors, center) with a boolean mask; there is no
token order, so the block uses no positional encodings.  All backward passes
are written out by hand so the training loop can run without an autograd
framework; caches returned by the forward functions hold exactly the
activations the backward needs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

SEG_ANCHOR, SEG_IN, SEG_OUT, SEG_CENTER = 0, 1, 2, 3
NUM_SEGMENTS = 4

# A Python float, not a numpy scalar: it keeps float32 activations float32.
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class EncoderConfig:
    d_tok: int
    heads: int = 4
    ffn_mult: int = 2
    out_dim: int = 0          # width of the projected entity vector(s)
    combiner: str = "transformer"  # "transformer" | "mean"

    def __post_init__(self):
        if self.combiner not in ("transformer", "mean"):
            raise ValueError(f"unknown combiner {self.combiner!r}")
        for name in ("d_tok", "heads", "ffn_mult", "out_dim"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be positive, got {getattr(self, name)}"
                )
        if self.combiner == "transformer" and self.d_tok % self.heads:
            raise ValueError(
                f"d_tok={self.d_tok} not divisible by heads={self.heads}"
            )


def encoder_shapes(cfg: EncoderConfig,
                   vocab_size: int) -> dict[str, tuple[int, ...]]:
    """Every encoder weight and its shape, in initialization order."""
    dt, f = cfg.d_tok, cfg.ffn_mult * cfg.d_tok
    shapes = {"tok": (vocab_size, dt), "type": (NUM_SEGMENTS, dt),
              "out_proj": (dt, cfg.out_dim)}
    if cfg.combiner == "transformer":
        shapes.update(
            wq=(dt, dt), wk=(dt, dt), wv=(dt, dt), wo=(dt, dt),
            w1=(dt, f), b1=(f,), w2=(f, dt), b2=(dt,),
            ln1_g=(dt,), ln1_b=(dt,), ln2_g=(dt,), ln2_b=(dt,),
        )
    return shapes


def init_encoder_params(cfg: EncoderConfig, vocab_size: int,
                        rng: np.random.Generator, dtype=np.float32,
                        pad_row: int | None = None) -> dict[str, np.ndarray]:
    """Draws the tables of :func:`encoder_shapes`, in its order."""
    emb_scale = 0.5 / np.sqrt(cfg.d_tok)
    params = {}
    for name, shape in encoder_shapes(cfg, vocab_size).items():
        if name in ("tok", "type"):
            params[name] = rng.uniform(-emb_scale, emb_scale, shape)
        elif len(shape) == 2:
            lim = np.sqrt(6.0 / sum(shape))     # Xavier-uniform
            params[name] = rng.uniform(-lim, lim, shape)
        else:
            params[name] = (np.ones if name.endswith("_g") else np.zeros)(shape)
    if pad_row is not None:
        params["tok"][pad_row] = 0.0
    return {k: np.asarray(v, dtype=dtype) for k, v in params.items()}


def _split_heads(a: np.ndarray, heads: int) -> np.ndarray:
    """[b, t, d] -> a [b, heads, t, d/heads] view."""
    b, t, d = a.shape
    return a.reshape(b, t, heads, d // heads).transpose(0, 2, 1, 3)


def _row_mean(a):
    """Mean over the last axis, kept as a length-1 axis, by one BLAS
    matrix-vector product: numpy's own reduction along many rows of a few
    dozen entries took about twice as long."""
    d = a.shape[-1]
    return (a @ np.full(d, 1.0 / d, dtype=a.dtype))[..., None]


def _layernorm_fwd(x, gamma, beta, eps=1e-5):
    xhat = x - _row_mean(x)
    inv = 1.0 / np.sqrt(_row_mean(xhat * xhat) + eps)
    xhat *= inv
    return xhat * gamma + beta, (xhat, inv)


def _layernorm_bwd(dout, cache, gamma):
    xhat, inv = cache
    dgamma = (dout * xhat).reshape(-1, dout.shape[-1]).sum(axis=0)
    dbeta = dout.reshape(-1, dout.shape[-1]).sum(axis=0)
    dxhat = dout * gamma
    dx = dxhat - _row_mean(dxhat)
    dx -= xhat * _row_mean(dxhat * xhat)
    dx *= inv
    return dx, dgamma, dbeta


def embed_tokens(params: dict, ids: np.ndarray, seg: np.ndarray,
                 mask: np.ndarray) -> np.ndarray:
    """Token rows = token embedding + segment-type embedding; pad rows are
    exactly zero.  ids: [B, T]; seg: [T]; mask: [B, T] bool."""
    tok = params["tok"]
    if ids.min(initial=0) < 0 or ids.max(initial=0) >= len(tok):
        raise ValueError(
            f"token id out of range [0, {len(tok)}) in {ids.min()}..{ids.max()}"
        )
    x = tok[ids] + params["type"][seg]
    return x * mask[..., None]


def _matmul_swap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(a @ b).swapaxes(1, 2)`` for ``[b, h, m, k] @ [b, h, k, n]``,
    written by the batched matmul straight into a contiguous
    ``[b, m, h, n]`` array."""
    out = np.empty((a.shape[0], a.shape[2], a.shape[1], b.shape[3]),
                   dtype=np.result_type(a, b))
    np.matmul(a, b, out=out.swapaxes(1, 2))
    return out


def transformer_block(params: dict, cfg: EncoderConfig, x: np.ndarray,
                      mask: np.ndarray):
    """Pre-norm block: x + MHA(LN(x)), then + FFN(LN(.)).

    Pad positions are excluded from attention by -inf logits; at
    least one real token per row is required.  Heads are a batch axis of
    ``[b, h, t, dh]`` views.  The attention scores are stored key-major
    as ``[b, s, h, t]``: the mask is a boolean index over (b, s) and the
    softmax reduces across rows of h*t queries.  The cache keeps the
    normal CDF of the FFN pre-activation, from which the backward rebuilds
    both GELU and its derivative.
    """
    b, t, dt = x.shape
    if not mask.any(axis=1).all():
        raise ValueError("transformer_block: row with all positions padded")
    heads, dh = cfg.heads, dt // cfg.heads

    x1, ln1c = _layernorm_fwd(x, params["ln1_g"], params["ln1_b"])
    q = x1 @ params["wq"]
    q *= 1.0 / math.sqrt(dh)    # the score scale, folded into q
    qh = _split_heads(q, heads)
    kh = _split_heads(x1 @ params["wk"], heads)
    vh = _split_heads(x1 @ params["wv"], heads)
    scores = _matmul_swap(kh, qh.transpose(0, 1, 3, 2))
    scores[~mask] = -np.inf
    scores -= scores.max(axis=1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=1, keepdims=True)
    w = scores.transpose(0, 2, 3, 1)
    ctx = _matmul_swap(w, vh).reshape(b, t, dt)
    y1 = x + ctx @ params["wo"]

    x2, ln2c = _layernorm_fwd(y1, params["ln2_g"], params["ln2_b"])
    pre = x2 @ params["w1"] + params["b1"]
    cdf = ndtr(pre)
    y = y1 + (pre * cdf) @ params["w2"] + params["b2"]

    cache = {
        "x1": x1, "ln1": ln1c, "qh": qh, "kh": kh, "vh": vh, "w": w,
        "ctx": ctx, "x2": x2, "ln2": ln2c, "pre": pre, "cdf": cdf,
        "shape": (b, t, dt),
    }
    return y, cache


def transformer_block_backward(params: dict, cfg: EncoderConfig, cache: dict,
                               dy: np.ndarray):
    """Exact reverse of :func:`transformer_block`: input grads + weight grads."""
    b, t, dt = cache["shape"]
    if dy.shape != (b, t, dt):
        raise ValueError(f"upstream shape {dy.shape} != cached {(b, t, dt)}")
    heads, dh = cfg.heads, dt // cfg.heads
    g: dict[str, np.ndarray] = {}
    dy2 = dy.reshape(-1, dt)

    # FFN branch: GELU(pre) = pre * cdf, GELU'(pre) = cdf + pre * pdf(pre)
    pre, cdf = cache["pre"], cache["cdf"]
    f = pre.shape[-1]
    g["w2"] = (pre * cdf).reshape(-1, f).T @ dy2
    g["b2"] = dy2.sum(axis=0)
    gelu_grad = pre * pre
    gelu_grad *= -0.5
    np.exp(gelu_grad, out=gelu_grad)
    gelu_grad *= _INV_SQRT2PI
    gelu_grad *= pre
    gelu_grad += cdf
    dpre = dy @ params["w2"].T
    dpre *= gelu_grad
    dpre2 = dpre.reshape(-1, f)
    g["w1"] = cache["x2"].reshape(-1, dt).T @ dpre2
    g["b1"] = dpre2.sum(axis=0)
    dln2, g["ln2_g"], g["ln2_b"] = _layernorm_bwd(
        dpre @ params["w1"].T, cache["ln2"], params["ln2_g"]
    )
    dy1 = dy + dln2

    # attention branch; the weights and their gradient are [b, s, h, t].
    # The softmax backward subtracts sum_s w*dw from dw; that sum is
    # ctx . dctx for each query and head, because ctx = sum_s w * v.
    ctx = cache["ctx"]
    g["wo"] = ctx.reshape(-1, dt).T @ dy1.reshape(-1, dt)
    dctx = dy1 @ params["wo"].T
    w = cache["w"].transpose(0, 3, 1, 2)
    dctx_h = _split_heads(dctx, heads)
    dscores = _matmul_swap(cache["vh"], dctx_h.transpose(0, 1, 3, 2))
    dscores -= np.einsum("bthd,bthd->bht", ctx.reshape(b, t, heads, dh),
                         dctx.reshape(b, t, heads, dh))[:, None]
    dscores *= w
    ds = dscores.transpose(0, 2, 1, 3)      # [b, h, s, t]
    dq = _matmul_swap(ds.transpose(0, 1, 3, 2), cache["kh"]).reshape(-1, dt)
    dq *= 1.0 / math.sqrt(dh)
    dk = _matmul_swap(ds, cache["qh"]).reshape(-1, dt)    # qh is scaled
    dv = _matmul_swap(w.transpose(0, 2, 1, 3), dctx_h).reshape(-1, dt)
    x1f = cache["x1"].reshape(-1, dt)
    g["wq"] = x1f.T @ dq
    g["wk"] = x1f.T @ dk
    g["wv"] = x1f.T @ dv
    dx1 = dq @ params["wq"].T
    dx1 += dk @ params["wk"].T
    dx1 += dv @ params["wv"].T
    dln1, g["ln1_g"], g["ln1_b"] = _layernorm_bwd(
        dx1.reshape(b, t, dt), cache["ln1"], params["ln1_g"]
    )
    dx = dy1 + dln1
    return dx, g


def encode_entity(params: dict, cfg: EncoderConfig, ids: np.ndarray,
                  seg: np.ndarray, mask: np.ndarray):
    """Mean-pool the block outputs over real tokens and project.

    Returns the projected [B, out_dim] entity vectors plus the backward
    cache.  With ``combiner="mean"`` the transformer is skipped and the raw
    token rows are pooled directly.
    """
    n_real = mask.sum(axis=1)
    if (n_real == 0).any():
        raise ValueError("encode_entity: entity with no real tokens")
    x = embed_tokens(params, ids, seg, mask)
    n_real = n_real.astype(x.dtype)
    if cfg.combiner == "transformer":
        y, block = transformer_block(params, cfg, x, mask)
    else:
        y, block = x, None
    pooled = (y * mask[..., None]).sum(axis=1) / n_real[:, None]
    out = pooled @ params["out_proj"]
    cache = {
        "ids": ids, "seg": seg, "mask": mask, "n_real": n_real,
        "pooled": pooled, "block": block,
    }
    return out, cache


def encode_entity_backward(params: dict, cfg: EncoderConfig, cache: dict,
                           d_out: np.ndarray):
    """Gradients of a scalar objective given d(objective)/d(out).

    Returns ``(tok_ids, tok_rows, dense)``: flat token ids with their
    per-row gradients (the sparse part) and a dict of dense gradients for
    every other weight the active combiner uses.
    """
    mask = cache["mask"]
    dense: dict[str, np.ndarray] = {"out_proj": cache["pooled"].T @ d_out}
    d_pool = d_out @ params["out_proj"].T
    dy = mask[..., None] * (d_pool / cache["n_real"][:, None])[:, None, :]
    if cfg.combiner == "transformer":
        dx, wg = transformer_block_backward(params, cfg, cache["block"], dy)
        dense.update(wg)
    else:
        dx = dy
    dx = dx * mask[..., None]

    dt = dx.shape[-1]
    flat = mask.reshape(-1)
    tok_ids = cache["ids"].reshape(-1)[flat]
    tok_rows = dx.reshape(-1, dt)[flat]
    # every token column has one segment: sum each column, then the columns
    # of each segment (pad positions of dx are zero)
    in_segment = np.arange(NUM_SEGMENTS)[:, None] == cache["seg"][None, :]
    dense["type"] = in_segment.astype(dx.dtype) @ dx.sum(axis=0)
    return tok_ids, tok_rows, dense
