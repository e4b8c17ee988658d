"""Central finite-difference verification of the analytic gradients.

The checks here know nothing about how the analytic gradients are derived:
they probe input coordinates of a scalar function numerically and compare.
Instances whose residuals sit near an L1 kink (or a complex-modulus zero)
are redrawn; the redraw threshold is kept a decade above the difference
step so the two-sided probe never straddles the kink.
"""
from __future__ import annotations

import numpy as np

from . import encoder as enc
from .scoring import MODEL_KINDS, ModelKind, model_kind, score_for_loss
from .segments import RowGroups

FD_STEP = 1e-5
KINK_TOL = 1e-4
KERNEL_TOL = 1e-4      # pass threshold for scoring kernels
ENCODER_TOL = 1e-3     # pass threshold for the token encoder


def relative_error(a, b) -> float:
    """max_i |a_i - b_i| / (|a_i| + |b_i| + 1e-3); the additive floor turns
    the measure into an absolute one for near-zero coordinates."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0:
        return 0.0
    return float((np.abs(a - b) / (np.abs(a) + np.abs(b) + 1e-3)).max())


def central_diff(f, x: np.ndarray, eps: float = FD_STEP) -> np.ndarray:
    """Per-coordinate central difference of scalar f() under perturbation
    of x (modified in place and restored)."""
    g = np.zeros(x.shape, dtype=np.float64)
    flat_x = x.reshape(-1)
    flat_g = g.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + eps
        hi = f()
        flat_x[i] = orig - eps
        lo = f()
        flat_x[i] = orig
        flat_g[i] = (hi - lo) / (2.0 * eps)
    return g


def random_score_inputs(kind: ModelKind, dim: int,
                        rng: np.random.Generator) -> dict[str, np.ndarray]:
    vecs = {
        "h": rng.uniform(-1.0, 1.0, dim),
        "t": rng.uniform(-1.0, 1.0, dim),
    }
    if kind.uses_aux:
        vecs["h_a"] = rng.uniform(-1.0, 1.0, dim)
        vecs["t_a"] = rng.uniform(-1.0, 1.0, dim)
    for part in kind.rel_parts:
        vecs[part] = rng.uniform(-1.0, 1.0, kind.relation_dim(dim))
    return vecs


def _residual(kind: ModelKind, vecs: dict, u: float) -> np.ndarray:
    """Residual vector (complex modulus per component for RotatE), rebuilt
    here independently of scoring.py's gradient code."""
    name = kind.name
    h, t = vecs["h"], vecs["t"]
    if name == "transe":
        return h + vecs["r"] - t
    if name == "pairre":
        return h * vecs["r_h"] - t * vecs["r_t"]
    if name == "triplere":
        return h * vecs["r_h"] - t * vecs["r_t"] + vecs["r"]
    if name == "triplere2":
        return h * (vecs["r_h"] + u) - t * (vecs["r_t"] + u) + vecs["r"]
    if name == "interht":
        return h * (vecs["t_a"] + 1.0) - t * (vecs["h_a"] + 1.0) + vecs["r"]
    if name == "interht_plus":
        return (u * h * t + h * (u * vecs["r_h"] + 1.0)
                - t * (u * vecs["r_t"] + 1.0) + vecs["r"])
    if name == "rotate":
        phase = vecs["r"]
        m = h.shape[-1] // 2
        c, s = np.cos(phase), np.sin(phase)
        zr = h[:m] * c - h[m:] * s - t[:m]
        zi = h[:m] * s + h[m:] * c - t[m:]
        return np.sqrt(zr * zr + zi * zi)
    raise ValueError(name)


def _near_kink(kind: ModelKind, vecs: dict, p: int, u: float) -> bool:
    if kind.bilinear:
        return False
    res = _residual(kind, vecs, u)
    if kind.name == "rotate":
        # res already holds per-component moduli (non-negative)
        if p == 1:
            return bool(np.any(res < 1e-3))
        return bool(np.sqrt((res * res).sum()) < 1e-3)
    if p == 1:
        return bool(np.any(np.abs(res) < KINK_TOL))
    return bool(np.sqrt((res * res).sum()) < 1e-3)


def check_kernel(name: str, dim: int = 8, instances: int = 100, p: int = 1,
                 u: float = 0.05, seed: int = 0) -> float:
    """Max hybrid relative error of the kernel's gradients over random
    double-precision instances."""
    kind = model_kind(name)
    rng = np.random.default_rng(seed)
    worst = 0.0
    done = 0
    while done < instances:
        vecs = random_score_inputs(kind, dim, rng)
        if _near_kink(kind, vecs, p, u):
            continue
        _, grads = score_for_loss(kind, vecs, p=p, u=u)
        for key, analytic in grads.items():
            fd = central_diff(
                lambda: float(score_for_loss(kind, vecs, p=p, u=u)[0]), vecs[key]
            )
            worst = max(worst, relative_error(analytic, fd))
        done += 1
    return worst


def check_all_kernels(dim: int = 8, instances: int = 100,
                      seed: int = 0) -> dict[str, float]:
    """Run the finite-difference suite for every registered model kind,
    covering both norm orders for the distance models."""
    out: dict[str, float] = {}
    for name, kind in MODEL_KINDS.items():
        if kind.bilinear:
            out[name] = check_kernel(name, dim=dim, instances=instances, seed=seed)
        else:
            half = max(1, instances // 2)
            out[name] = max(
                check_kernel(name, dim=dim, instances=half, p=1, seed=seed + 1),
                check_kernel(name, dim=dim, instances=instances - half, p=2,
                             seed=seed + 2),
            )
    return out


def _encode_entity_grads(params: dict, cfg: enc.EncoderConfig, cache: dict,
                         d_out: np.ndarray) -> dict[str, np.ndarray]:
    """The encoder's weight gradients, token table densified."""
    tok_ids, tok_rows, dense = enc.encode_entity_backward(params, cfg, cache,
                                                          d_out)
    d_tok = np.zeros_like(params["tok"])
    groups = RowGroups(tok_ids)
    d_tok[groups.ids] = groups.sum(tok_rows)
    dense["tok"] = d_tok
    return dense


def check_transformer(d_tok: int = 8, heads: int = 2, tokens: int = 4,
                      out_dim: int = 4, instances: int = 20, seed: int = 0,
                      combiner: str = "transformer") -> float:
    """Finite-difference check of the token encoder end to end.

    Probes the gradient of a random linear functional of the encoded entity
    with respect to every coordinate of every encoder weight and compares
    against the analytic backward pass.
    """
    rng = np.random.default_rng(seed)
    cfg = enc.EncoderConfig(d_tok=d_tok, heads=heads, ffn_mult=2,
                            out_dim=out_dim, combiner=combiner)
    worst = 0.0
    vocab = 12
    for _ in range(instances):
        params = enc.init_encoder_params(cfg, vocab, rng, dtype=np.float64)
        ids = rng.integers(0, vocab, size=(1, tokens))
        seg = rng.integers(0, enc.NUM_SEGMENTS, size=tokens)
        mask = np.ones((1, tokens), dtype=bool)
        if tokens > 1:
            mask[0, rng.integers(1, tokens)] = False  # keep >= 1 real token
        w_out = rng.normal(size=out_dim)

        def objective() -> float:
            out, _ = enc.encode_entity(params, cfg, ids, seg, mask)
            return float((out[0] * w_out).sum())

        _, cache = enc.encode_entity(params, cfg, ids, seg, mask)
        grads = _encode_entity_grads(params, cfg, cache, w_out[None, :].copy())
        for key, analytic in grads.items():
            worst = max(worst, relative_error(
                analytic, central_diff(objective, params[key])))
    return worst
