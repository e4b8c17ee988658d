"""Einsum attention oracle for the batched-matmul transformer block.

This is how kgembed computed the transformer block before its attention
moved to batched ``matmul``: query-major ``[b, h, t, s]`` attention
weights from ``np.einsum``, the mask applied with ``np.where``, the GELU
and its derivative each evaluating ``erf``, and layer norm taking its row
means with ``ndarray.mean``.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

from kgembed.encoder import EncoderConfig

_SQRT2 = math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _layernorm_fwd(x, gamma, beta, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    xhat = xc * inv
    return xhat * gamma + beta, (xhat, inv)


def _layernorm_bwd(dout, cache, gamma):
    xhat, inv = cache
    dgamma = (dout * xhat).reshape(-1, dout.shape[-1]).sum(axis=0)
    dbeta = dout.reshape(-1, dout.shape[-1]).sum(axis=0)
    dxhat = dout * gamma
    dx = inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, dgamma, dbeta


def _gelu(x):
    return 0.5 * x * (1.0 + erf(x / _SQRT2))


def _gelu_grad(x):
    return 0.5 * (1.0 + erf(x / _SQRT2)) + x * np.exp(-0.5 * x * x) * _INV_SQRT2PI


def transformer_block(params: dict, cfg: EncoderConfig, x: np.ndarray,
                      mask: np.ndarray):
    """Pre-norm block: x + MHA(LN(x)), then + FFN(LN(.)).

    Pad positions are excluded from attention by -inf logits; at
    least one real token per row is required.
    """
    b, t, dt = x.shape
    if not mask.any(axis=1).all():
        raise ValueError("transformer_block: row with all positions padded")
    heads, dh = cfg.heads, dt // cfg.heads

    x1, ln1c = _layernorm_fwd(x, params["ln1_g"], params["ln1_b"])
    qh = (x1 @ params["wq"]).reshape(b, t, heads, dh)
    kh = (x1 @ params["wk"]).reshape(b, t, heads, dh)
    vh = (x1 @ params["wv"]).reshape(b, t, heads, dh)
    logits = np.einsum("bthd,bshd->bhts", qh, kh) / math.sqrt(dh)
    logits = np.where(mask[:, None, None, :], logits, -np.inf)
    w = np.exp(logits - logits.max(axis=-1, keepdims=True))
    w /= w.sum(axis=-1, keepdims=True)
    ctx = np.einsum("bhts,bshd->bthd", w, vh).reshape(b, t, dt)
    attn = ctx @ params["wo"]
    y1 = x + attn

    x2, ln2c = _layernorm_fwd(y1, params["ln2_g"], params["ln2_b"])
    pre = x2 @ params["w1"] + params["b1"]
    hf = _gelu(pre)
    y = y1 + hf @ params["w2"] + params["b2"]

    cache = {
        "x1": x1, "ln1": ln1c, "qh": qh, "kh": kh, "vh": vh, "w": w,
        "ctx": ctx, "x2": x2, "ln2": ln2c, "pre": pre, "hf": hf,
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

    # FFN branch
    dhf = dy @ params["w2"].T
    g["w2"] = cache["hf"].reshape(-1, cache["hf"].shape[-1]).T @ dy.reshape(-1, dt)
    g["b2"] = dy.reshape(-1, dt).sum(axis=0)
    dpre = dhf * _gelu_grad(cache["pre"])
    g["w1"] = cache["x2"].reshape(-1, dt).T @ dpre.reshape(-1, dpre.shape[-1])
    g["b1"] = dpre.reshape(-1, dpre.shape[-1]).sum(axis=0)
    dx2 = dpre @ params["w1"].T
    dln2, g["ln2_g"], g["ln2_b"] = _layernorm_bwd(dx2, cache["ln2"], params["ln2_g"])
    dy1 = dy + dln2

    # attention branch
    g["wo"] = cache["ctx"].reshape(-1, dt).T @ dy1.reshape(-1, dt)
    dctx = (dy1 @ params["wo"].T).reshape(b, t, heads, dh)
    w = cache["w"]
    dw = np.einsum("bthd,bshd->bhts", dctx, cache["vh"])
    dvh = np.einsum("bhts,bthd->bshd", w, dctx)
    dlogits = w * (dw - (w * dw).sum(axis=-1, keepdims=True))
    dqh = np.einsum("bhts,bshd->bthd", dlogits, cache["kh"]) / math.sqrt(dh)
    dkh = np.einsum("bhts,bthd->bshd", dlogits, cache["qh"]) / math.sqrt(dh)
    x1f = cache["x1"].reshape(-1, dt)
    dq = dqh.reshape(-1, dt)
    dk = dkh.reshape(-1, dt)
    dv = dvh.reshape(-1, dt)
    g["wq"] = x1f.T @ dq
    g["wk"] = x1f.T @ dk
    g["wv"] = x1f.T @ dv
    dx1 = dq @ params["wq"].T + dk @ params["wk"].T + dv @ params["wv"].T
    dln1, g["ln1_g"], g["ln1_b"] = _layernorm_bwd(
        dx1.reshape(b, t, dt), cache["ln1"], params["ln1_g"]
    )
    dx = dy1 + dln1
    return dx, g
