"""Scoring kernels with analytic gradients.

Every kernel returns ``(value, grads)`` where ``value`` has the batch shape
of its broadcast inputs and ``grads`` maps each input name to d(value)/d(input)
at the same shape.  Distance models use "lower is better"; bilinear models
return raw scores ("higher is better") and are sign-flipped by
:meth:`ModelKind.score` so the margin loss applies uniformly.  With
``grad=False`` a kernel skips its gradient terms and returns an empty dict;
its value comes from the same expressions, so it is bit-identical.

Complex-valued vectors are laid out as [re_0..re_{m-1}, im_0..im_{m-1}]
with m = d/2.  RotatE relations are stored as phases, so the per-component
rotation always has modulus exactly 1.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class ModelKind:
    """Static description of a scoring function's parameter needs, and the
    kernel that scores it."""

    name: str
    rel_parts: tuple[str, ...]  # which relation tables exist: subset of r_h, r, r_t
    kernel: Callable = field(repr=False, compare=False)  # (vecs, p, u, grad)
    uses_aux: bool = False      # per-entity auxiliary vectors
    bilinear: bool = False      # similarity score instead of distance
    even_dim: bool = False      # d interpreted as d/2 complex pairs
    phase_relation: bool = False  # relation table stores angles of width d/2

    def relation_dim(self, d: int) -> int:
        return d // 2 if self.phase_relation else d

    def score(self, vecs: dict[str, np.ndarray], p: int = 1, u: float = 0.0,
              grad: bool = True):
        """(d, grads) with lower d = more plausible: bilinear scores and
        their gradients are negated here and nowhere else."""
        d, grads = self.kernel(vecs, p, u, grad)
        if self.bilinear:
            return -d, {k: -g for k, g in grads.items()}
        return d, grads


def _check_dims(*arrays) -> int:
    dims = {a.shape[-1] for a in arrays}
    if len(dims) != 1:
        raise ValueError(f"dimension mismatch: {sorted(dims)}")
    return dims.pop()


def _check_even(d: int) -> int:
    if d % 2:
        raise ValueError(f"dimension {d} must be even for complex-pair models")
    return d // 2


def _norm_and_grad(res: np.ndarray, p: int, grad: bool = True):
    """p-norm of the residual over the last axis and d(norm)/d(res), or
    None in place of the gradient when ``grad`` is off.

    The L1 subgradient at 0 is taken as 0; the L2 gradient at the zero
    vector is likewise 0.
    """
    if p == 1:
        return np.abs(res).sum(axis=-1), np.sign(res) if grad else None
    if p == 2:
        d = np.sqrt((res * res).sum(axis=-1))
        if not grad:
            return d, None
        safe = np.where(d == 0.0, 1.0, d)
        return d, res / safe[..., None]
    raise ValueError(f"norm order must be 1 or 2, got {p}")


def transe_distance(h, r, t, p: int = 1, grad: bool = True):
    """d = ||h + r - t||_p"""
    _check_dims(h, r, t)
    d, g = _norm_and_grad(h + r - t, p, grad)
    if not grad:
        return d, {}
    return d, {"h": g, "r": g, "t": -g}


def interht_distance(h, r, t, h_a, t_a, p: int = 1, grad: bool = True):
    """d = ||h o (t_a + 1) - t o (h_a + 1) + r||_p

    Each entity carries a base and an auxiliary vector; the auxiliary vector
    of the opposite entity gates the base vector element-wise.  With both
    auxiliaries zero this is exactly TransE.
    """
    _check_dims(h, r, t, h_a, t_a)
    ta1 = t_a + 1.0
    ha1 = h_a + 1.0
    d, g = _norm_and_grad(h * ta1 - t * ha1 + r, p, grad)
    if not grad:
        return d, {}
    return d, {
        "h": g * ta1,
        "r": g,
        "t": -g * ha1,
        "h_a": -g * t,
        "t_a": g * h,
    }


def interht_plus_distance(h, r, t, r_h, r_t, u: float, p: int = 1,
                          grad: bool = True):
    """d = ||u*(h o t) + h o (u*r_h + 1) - t o (u*r_t + 1) + r||_p

    Relation-side gating on top of the head-tail interaction term; u is a
    constant scalar, u=0 collapses to TransE.
    """
    _check_dims(h, r, t, r_h, r_t)
    gh = u * r_h + 1.0
    gt = u * r_t + 1.0
    d, g = _norm_and_grad(u * h * t + h * gh - t * gt + r, p, grad)
    if not grad:
        return d, {}
    return d, {
        "h": g * (u * t + gh),
        "t": g * (u * h - gt),
        "r": g,
        "r_h": u * g * h,
        "r_t": -u * g * t,
    }


def rotate_distance(h, phase, t, p: int = 1, grad: bool = True):
    """d aggregates |h_i * e^{i theta_i} - t_i| over complex components."""
    d_full = _check_dims(h, t)
    m = _check_even(d_full)
    if phase.shape[-1] != m:
        raise ValueError(
            f"phase width {phase.shape[-1]} must be half the entity dim {d_full}"
        )
    hr, hi = h[..., :m], h[..., m:]
    tr, ti = t[..., :m], t[..., m:]
    c, s = np.cos(phase), np.sin(phase)
    rot_r = hr * c - hi * s
    rot_i = hr * s + hi * c
    zr = rot_r - tr
    zi = rot_i - ti
    mod = np.sqrt(zr * zr + zi * zi)
    if p == 1:
        d = mod.sum(axis=-1)
        denom = mod
    elif p == 2:
        d = np.sqrt((mod * mod).sum(axis=-1))
        denom = d[..., None]
    else:
        raise ValueError(f"norm order must be 1 or 2, got {p}")
    if not grad:
        return d, {}
    safe = np.where(denom == 0.0, 1.0, denom)
    gzr, gzi = zr / safe, zi / safe
    grads = {
        "h": np.concatenate([gzr * c + gzi * s, -gzr * s + gzi * c], axis=-1),
        "r": gzr * (-rot_i) + gzi * rot_r,
        "t": np.concatenate([-gzr, -gzi], axis=-1),
    }
    return d, grads


def pairre_distance(h, r_h, r_t, t, p: int = 1, grad: bool = True):
    """d = ||h o r_h - t o r_t||_p"""
    _check_dims(h, r_h, r_t, t)
    d, g = _norm_and_grad(h * r_h - t * r_t, p, grad)
    if not grad:
        return d, {}
    return d, {"h": g * r_h, "r_h": g * h, "t": -g * r_t, "r_t": -g * t}


def triplere_distance(h, r_h, r_m, r_t, t, u: float = 0.0, version: int = 1,
                      p: int = 1, grad: bool = True):
    """v1: d = ||h o r_h - t o r_t + r_m||_p
    v2: d = ||h o (r_h + u) - t o (r_t + u) + r_m||_p
    """
    _check_dims(h, r_h, r_m, r_t, t)
    if version == 1:
        u = 0.0
    elif version != 2:
        raise ValueError(f"triplere version must be 1 or 2, got {version}")
    rh = r_h + u
    rt = r_t + u
    d, g = _norm_and_grad(h * rh - t * rt + r_m, p, grad)
    if not grad:
        return d, {}
    return d, {"h": g * rh, "r_h": g * h, "r": g, "t": -g * rt, "r_t": -g * t}


def distmult_score(h, r, t, grad: bool = True):
    """s = sum_i h_i r_i t_i (higher is better; symmetric in h and t)."""
    _check_dims(h, r, t)
    s = (h * r * t).sum(axis=-1)
    if not grad:
        return s, {}
    return s, {"h": r * t, "r": h * t, "t": h * r}


def complex_score(h, r, t, grad: bool = True):
    """s = Re(sum_i h_i r_i conj(t_i)) over d/2 complex components."""
    d_full = _check_dims(h, r, t)
    m = _check_even(d_full)
    hr, hi = h[..., :m], h[..., m:]
    rr, ri = r[..., :m], r[..., m:]
    tr, ti = t[..., :m], t[..., m:]
    s = (hr * rr * tr + hi * rr * ti + hr * ri * ti - hi * ri * tr).sum(axis=-1)
    if not grad:
        return s, {}
    grads = {
        "h": np.concatenate([rr * tr + ri * ti, rr * ti - ri * tr], axis=-1),
        "r": np.concatenate([hr * tr + hi * ti, hr * ti - hi * tr], axis=-1),
        "t": np.concatenate([hr * rr - hi * ri, hi * rr + hr * ri], axis=-1),
    }
    return s, grads


MODEL_KINDS: dict[str, ModelKind] = {k.name: k for k in (
    ModelKind("transe", ("r",), lambda v, p, u, grad: transe_distance(
        v["h"], v["r"], v["t"], p, grad)),
    ModelKind("rotate", ("r",), lambda v, p, u, grad: rotate_distance(
        v["h"], v["r"], v["t"], p, grad),
        even_dim=True, phase_relation=True),
    ModelKind("pairre", ("r_h", "r_t"), lambda v, p, u, grad: pairre_distance(
        v["h"], v["r_h"], v["r_t"], v["t"], p, grad)),
    ModelKind("triplere", ("r_h", "r", "r_t"),
              lambda v, p, u, grad: triplere_distance(
                  v["h"], v["r_h"], v["r"], v["r_t"], v["t"], version=1, p=p,
                  grad=grad)),
    ModelKind("triplere2", ("r_h", "r", "r_t"),
              lambda v, p, u, grad: triplere_distance(
                  v["h"], v["r_h"], v["r"], v["r_t"], v["t"], u=u, version=2,
                  p=p, grad=grad)),
    ModelKind("distmult", ("r",), lambda v, p, u, grad: distmult_score(
        v["h"], v["r"], v["t"], grad), bilinear=True),
    ModelKind("complex", ("r",), lambda v, p, u, grad: complex_score(
        v["h"], v["r"], v["t"], grad), bilinear=True, even_dim=True),
    ModelKind("interht", ("r",), lambda v, p, u, grad: interht_distance(
        v["h"], v["r"], v["t"], v["h_a"], v["t_a"], p, grad), uses_aux=True),
    ModelKind("interht_plus", ("r_h", "r", "r_t"),
              lambda v, p, u, grad: interht_plus_distance(
                  v["h"], v["r"], v["t"], v["r_h"], v["r_t"], u=u, p=p,
                  grad=grad)),
)}


def model_kind(name: str) -> ModelKind:
    try:
        return MODEL_KINDS[name]
    except KeyError:
        raise ValueError(
            f"unknown model kind {name!r}; known: {sorted(MODEL_KINDS)}"
        ) from None


def score_for_loss(kind: ModelKind | str, vecs: dict[str, np.ndarray],
                   p: int = 1, u: float = 0.0, grad: bool = True):
    """Unified "lower is better" adapter: :meth:`ModelKind.score`.

    Distance models return their distance; bilinear models return the
    negated score, so the margin loss treats all kinds identically.  ``vecs``
    holds h/t (and h_a/t_a for auxiliary kinds) plus the relation parts the
    kind declares.  Gradients of unused inputs are simply absent (identically
    zero); with ``grad=False`` all of them are.
    """
    return (model_kind(kind) if isinstance(kind, str) else kind).score(
        vecs, p, u, grad)
