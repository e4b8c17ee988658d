import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erf

from kgembed import encoder as enc
from kgembed import gradcheck as gc

import encoder_oracle


def tiny_cfg(**kw):
    base = dict(d_tok=8, heads=2, ffn_mult=2, out_dim=4)
    base.update(kw)
    return enc.EncoderConfig(**base)


def make_params(cfg, vocab=10, seed=0, pad_row=None):
    rng = np.random.default_rng(seed)
    return enc.init_encoder_params(cfg, vocab, rng, dtype=np.float64,
                                   pad_row=pad_row)


def slow_block(params, cfg, x, mask):
    """Independent per-position recomputation of the block."""
    b, t, dt = x.shape
    dh = dt // cfg.heads

    def ln(v, g, beta):
        mu = v.mean()
        return (v - mu) / np.sqrt(v.var() + 1e-5) * g + beta

    def gelu(v):
        return 0.5 * v * (1.0 + erf(v / np.sqrt(2.0)))

    y = np.empty_like(x)
    for bi in range(b):
        x1 = np.stack([ln(x[bi, i], params["ln1_g"], params["ln1_b"])
                       for i in range(t)])
        q, k, v = x1 @ params["wq"], x1 @ params["wk"], x1 @ params["wv"]
        ctx = np.zeros((t, dt))
        for h in range(cfg.heads):
            sl = slice(h * dh, (h + 1) * dh)
            for i in range(t):
                logits = np.array([
                    q[i, sl] @ k[j, sl] / np.sqrt(dh) if mask[bi, j] else -np.inf
                    for j in range(t)
                ])
                w = np.exp(logits - logits[np.isfinite(logits)].max())
                w[~np.isfinite(logits)] = 0.0
                w = w / w.sum()
                ctx[i, sl] = sum(w[j] * v[j, sl] for j in range(t))
        y1 = x[bi] + ctx @ params["wo"]
        x2 = np.stack([ln(y1[i], params["ln2_g"], params["ln2_b"])
                       for i in range(t)])
        y[bi] = y1 + gelu(x2 @ params["w1"] + params["b1"]) @ params["w2"] \
            + params["b2"]
    return y


class TestEmbedTokens:
    def test_all_pad_is_zero(self):
        cfg = tiny_cfg()
        params = make_params(cfg)
        ids = np.zeros((2, 3), dtype=np.int64)
        seg = np.zeros(3, dtype=np.int64)
        mask = np.zeros((2, 3), dtype=bool)
        np.testing.assert_array_equal(
            enc.embed_tokens(params, ids, seg, mask), np.zeros((2, 3, 8))
        )

    def test_single_token_row(self):
        cfg = tiny_cfg()
        params = make_params(cfg)
        x = enc.embed_tokens(params, np.array([[5]]), np.array([enc.SEG_CENTER]),
                             np.ones((1, 1), dtype=bool))
        np.testing.assert_allclose(
            x[0, 0], params["tok"][5] + params["type"][enc.SEG_CENTER]
        )

    def test_same_token_in_two_segments_differs_by_type_row(self):
        cfg = tiny_cfg()
        params = make_params(cfg)
        x = enc.embed_tokens(
            params, np.array([[4, 4]]),
            np.array([enc.SEG_IN, enc.SEG_OUT]), np.ones((1, 2), dtype=bool),
        )
        np.testing.assert_allclose(
            x[0, 0] - x[0, 1],
            params["type"][enc.SEG_IN] - params["type"][enc.SEG_OUT],
        )

    def test_id_out_of_range(self):
        cfg = tiny_cfg()
        params = make_params(cfg, vocab=10)
        with pytest.raises(ValueError, match="out of range"):
            enc.embed_tokens(params, np.array([[10]]), np.array([0]),
                             np.ones((1, 1), dtype=bool))


class TestTransformerBlock:
    def test_matches_slow_recomputation(self):
        cfg = tiny_cfg()
        params = make_params(cfg, seed=1)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 3, 8))
        mask = np.array([[True, True, True], [True, False, True]])
        x = x * mask[..., None]
        y, _ = enc.transformer_block(params, cfg, x, mask)
        np.testing.assert_allclose(y, slow_block(params, cfg, x, mask),
                                   rtol=1e-10, atol=1e-12)

    def test_single_real_token_attends_to_itself(self):
        cfg = tiny_cfg()
        params = make_params(cfg, seed=3)
        rng = np.random.default_rng(4)
        row = rng.normal(size=8)
        x = np.zeros((1, 3, 8))
        x[0, 1] = row
        mask = np.array([[False, True, False]])
        y, _ = enc.transformer_block(params, cfg, x, mask)
        # the same token alone in a width-1 sequence must give the same output
        y1, _ = enc.transformer_block(params, cfg, row[None, None, :],
                                      np.array([[True]]))
        np.testing.assert_allclose(y[0, 1], y1[0, 0], rtol=1e-12)

    def test_permutation_equivariance(self):
        cfg = tiny_cfg()
        params = make_params(cfg, seed=5)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(1, 5, 8))
        mask = np.ones((1, 5), dtype=bool)
        perm = np.array([3, 1, 4, 0, 2])
        y, _ = enc.transformer_block(params, cfg, x, mask)
        y_p, _ = enc.transformer_block(params, cfg, x[:, perm], mask)
        np.testing.assert_allclose(y_p, y[:, perm], rtol=1e-10, atol=1e-12)

    def test_all_pad_rejected(self):
        cfg = tiny_cfg()
        params = make_params(cfg)
        with pytest.raises(ValueError, match="padded"):
            enc.transformer_block(params, cfg, np.zeros((1, 2, 8)),
                                  np.zeros((1, 2), dtype=bool))


@st.composite
def block_cases(draw):
    """A block, a padded batch and an upstream gradient.  Some rows hold a
    single real token; gains and biases are moved off their initial values
    so every weight gradient is exercised."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    heads = draw(st.sampled_from([1, 2, 4]))
    cfg = tiny_cfg(d_tok=draw(st.sampled_from([4, 8, 12])), heads=heads)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = enc.init_encoder_params(cfg, 3, rng, dtype=np.float64)
    for name in ("b1", "b2", "ln1_g", "ln1_b", "ln2_g", "ln2_b"):
        params[name] = params[name] + 0.1 * rng.normal(size=params[name].shape)
    params = {k: v.astype(dtype) for k, v in params.items()}
    b = draw(st.integers(1, 6))
    t = draw(st.integers(1, 9))
    mask = rng.random((b, t)) < draw(st.sampled_from([0.3, 0.7, 1.0]))
    single = np.array(draw(st.lists(st.booleans(), min_size=b, max_size=b)))
    mask[single] = False
    mask[np.arange(b), rng.integers(0, t, b)] = True
    x = (rng.normal(size=(b, t, cfg.d_tok)) * mask[..., None]).astype(dtype)
    dy = rng.normal(size=(b, t, cfg.d_tok)).astype(dtype)
    return params, cfg, x, mask, dy


@settings(max_examples=200, deadline=None)
@given(case=block_cases())
def test_block_matches_einsum_oracle(case):
    """Output, dx and every weight gradient agree with the einsum block.
    Gradients that vanish (one real token per row) are pure rounding in
    both, so the absolute tolerance scales with the largest entry."""
    params, cfg, x, mask, dy = case
    rtol = 1e-10 if x.dtype == np.float64 else 2e-4
    y, cache = enc.transformer_block(params, cfg, x, mask)
    dx, grads = enc.transformer_block_backward(params, cfg, cache, dy)
    want_y, want_cache = encoder_oracle.transformer_block(params, cfg, x, mask)
    want_dx, want_grads = encoder_oracle.transformer_block_backward(
        params, cfg, want_cache, dy)
    assert grads.keys() == want_grads.keys()
    pairs = [("y", y, want_y), ("dx", dx, want_dx)]
    pairs += [(k, grads[k], want_grads[k]) for k in sorted(want_grads)]
    for name, got, want in pairs:
        assert got.dtype == x.dtype, name
        np.testing.assert_allclose(
            got, want, rtol=rtol, atol=rtol * max(1.0, np.abs(want).max()),
            err_msg=name)


def test_block_cache_matches_oracle_size():
    """Caching the normal CDF in place of the GELU output keeps the cache
    the size it was."""
    cfg = tiny_cfg()
    params = make_params(cfg, seed=20)
    rng = np.random.default_rng(21)
    mask = np.array([[True, True, False, True], [True, False, False, False]])
    x = rng.normal(size=(2, 4, 8)) * mask[..., None]

    def nbytes(cache):
        arrays = [v for v in cache.values() if isinstance(v, np.ndarray)]
        arrays += list(cache["ln1"]) + list(cache["ln2"])
        return sum(a.nbytes for a in arrays)

    _, cache = enc.transformer_block(params, cfg, x, mask)
    _, want = encoder_oracle.transformer_block(params, cfg, x, mask)
    assert nbytes(cache) == nbytes(want)


class TestBlockBackward:
    def test_zero_upstream_gives_zero_grads(self):
        cfg = tiny_cfg()
        params = make_params(cfg, seed=7)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1, 3, 8))
        mask = np.ones((1, 3), dtype=bool)
        _, cache = enc.transformer_block(params, cfg, x, mask)
        dx, grads = enc.transformer_block_backward(params, cfg, cache,
                                                   np.zeros((1, 3, 8)))
        np.testing.assert_array_equal(dx, np.zeros_like(x))
        for g in grads.values():
            assert not g.any()

    def test_pad_positions_get_zero_input_grad(self):
        cfg = tiny_cfg()
        params = make_params(cfg, seed=9)
        rng = np.random.default_rng(10)
        mask = np.array([[True, False, True]])
        x = rng.normal(size=(1, 3, 8)) * mask[..., None]
        _, cache = enc.transformer_block(params, cfg, x, mask)
        dy = rng.normal(size=(1, 3, 8)) * mask[..., None]
        dx, _ = enc.transformer_block_backward(params, cfg, cache, dy)
        np.testing.assert_array_equal(dx[0, 1], np.zeros(8))

    def test_input_grad_matches_finite_differences(self):
        cfg = tiny_cfg()
        params = make_params(cfg, seed=11)
        rng = np.random.default_rng(12)
        mask = np.ones((1, 3), dtype=bool)
        x = rng.normal(size=(1, 3, 8))
        dy = rng.normal(size=(1, 3, 8))
        _, cache = enc.transformer_block(params, cfg, x, mask)
        dx, _ = enc.transformer_block_backward(params, cfg, cache, dy)
        eps = 1e-6
        flat = x.reshape(-1)
        for i in rng.choice(flat.size, size=8, replace=False):
            orig = flat[i]
            flat[i] = orig + eps
            hi = (enc.transformer_block(params, cfg, x, mask)[0] * dy).sum()
            flat[i] = orig - eps
            lo = (enc.transformer_block(params, cfg, x, mask)[0] * dy).sum()
            flat[i] = orig
            fd = (hi - lo) / (2 * eps)
            assert dx.reshape(-1)[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_shape_mismatch_rejected(self):
        cfg = tiny_cfg()
        params = make_params(cfg, seed=13)
        x = np.zeros((1, 3, 8))
        mask = np.ones((1, 3), dtype=bool)
        _, cache = enc.transformer_block(params, cfg, x, mask)
        with pytest.raises(ValueError, match="shape"):
            enc.transformer_block_backward(params, cfg, cache,
                                           np.zeros((2, 3, 8)))


class TestEncodeEntity:
    def test_mean_combiner_single_token_is_projected_embedding(self):
        cfg = tiny_cfg(combiner="mean")
        params = make_params(cfg)
        ids = np.array([[6]])
        seg = np.array([enc.SEG_CENTER])
        out, _ = enc.encode_entity(params, cfg, ids, seg,
                                   np.ones((1, 1), dtype=bool))
        row = params["tok"][6] + params["type"][enc.SEG_CENTER]
        np.testing.assert_allclose(out[0], row @ params["out_proj"])

    def test_identical_tokens_pool_to_single_row(self):
        cfg = tiny_cfg(combiner="mean")
        params = make_params(cfg)
        ids = np.full((1, 4), 2)
        seg = np.full(4, enc.SEG_ANCHOR)
        out4, _ = enc.encode_entity(params, cfg, ids, seg,
                                    np.ones((1, 4), dtype=bool))
        out1, _ = enc.encode_entity(params, cfg, ids[:, :1], seg[:1],
                                    np.ones((1, 1), dtype=bool))
        np.testing.assert_allclose(out4, out1, rtol=1e-12)

    def test_permutation_within_segment_invariant(self):
        cfg = tiny_cfg()
        params = make_params(cfg, vocab=20, seed=14)
        rng = np.random.default_rng(15)
        ids = rng.integers(0, 20, size=(1, 6))
        seg = np.array([0, 0, 0, 1, 1, 3])
        mask = np.array([[True, True, False, True, True, True]])
        out, _ = enc.encode_entity(params, cfg, ids, seg, mask)
        # swap the two real anchor slots and the two in-direction slots
        perm = np.array([1, 0, 2, 4, 3, 5])
        out_p, _ = enc.encode_entity(params, cfg, ids[:, perm], seg, mask)
        np.testing.assert_allclose(out_p, out, atol=1e-6)

    def test_pooling_ignores_pad_slots(self):
        cfg = tiny_cfg(combiner="mean")
        params = make_params(cfg, pad_row=9)
        with_pad, _ = enc.encode_entity(
            params, cfg, np.array([[3, 9]]), np.array([0, 0]),
            np.array([[True, False]]),
        )
        alone, _ = enc.encode_entity(params, cfg, np.array([[3]]),
                                     np.array([0]), np.array([[True]]))
        np.testing.assert_allclose(with_pad, alone, rtol=1e-12)

    def test_no_real_tokens_rejected(self):
        cfg = tiny_cfg()
        params = make_params(cfg)
        with pytest.raises(ValueError, match="no real tokens"):
            enc.encode_entity(params, cfg, np.array([[1]]), np.array([0]),
                              np.zeros((1, 1), dtype=bool))

    def test_sparse_backward_agrees_with_dense(self):
        cfg = tiny_cfg()
        params = make_params(cfg, vocab=15, seed=16)
        rng = np.random.default_rng(17)
        ids = rng.integers(0, 15, size=(2, 4))
        seg = np.array([0, 1, 2, 3])
        mask = np.array([[True, True, True, True],
                        [True, False, True, True]])
        _, cache = enc.encode_entity(params, cfg, ids, seg, mask)
        d_out = rng.normal(size=(2, cfg.out_dim))
        tok_ids, tok_rows, _ = enc.encode_entity_backward(params, cfg, cache,
                                                          d_out)
        dense = gc._encode_entity_grads(params, cfg, cache, d_out)
        rebuilt = np.zeros_like(params["tok"])
        np.add.at(rebuilt, tok_ids, tok_rows)
        np.testing.assert_allclose(rebuilt, dense["tok"])
        assert set(tok_ids) == set(ids[mask].tolist())

    @pytest.mark.parametrize("combiner", ["transformer", "mean"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_params_dtype_kept_end_to_end(self, dtype, combiner):
        cfg = tiny_cfg(combiner=combiner)
        params = enc.init_encoder_params(cfg, 12, np.random.default_rng(18),
                                         dtype=dtype, pad_row=11)
        rng = np.random.default_rng(19)
        ids = rng.integers(0, 11, size=(3, 4))
        mask = np.array([[True, True, False, True]] * 3)
        ids[~mask] = 11
        out, cache = enc.encode_entity(params, cfg, ids, np.array([0, 1, 2, 3]),
                                       mask)
        assert out.dtype == dtype
        arrays = [cache["pooled"], cache["n_real"]]
        if cache["block"] is not None:
            arrays += [v for v in cache["block"].values()
                       if isinstance(v, np.ndarray)]
            arrays += list(cache["block"]["ln1"]) + list(cache["block"]["ln2"])
        assert {a.dtype for a in arrays} == {np.dtype(dtype)}
        d_out = rng.normal(size=out.shape).astype(dtype)
        _, tok_rows, dense = enc.encode_entity_backward(params, cfg, cache,
                                                        d_out)
        assert tok_rows.dtype == dtype
        assert {g.dtype for g in dense.values()} == {np.dtype(dtype)}


class TestConfig:
    def test_heads_must_divide(self):
        with pytest.raises(ValueError, match="divisible"):
            enc.EncoderConfig(d_tok=10, heads=4, out_dim=4)

    def test_mean_combiner_skips_divisibility(self):
        enc.EncoderConfig(d_tok=10, heads=4, out_dim=4, combiner="mean")

    @pytest.mark.parametrize("combiner", ["transformer", "mean"])
    @pytest.mark.parametrize("field, value", [
        ("heads", 0), ("heads", -2), ("d_tok", 0), ("d_tok", -8),
        ("ffn_mult", 0), ("ffn_mult", -1), ("out_dim", 0),
    ])
    def test_sizes_must_be_positive(self, field, value, combiner):
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            tiny_cfg(combiner=combiner, **{field: value})

    def test_bad_combiner(self):
        with pytest.raises(ValueError, match="combiner"):
            enc.EncoderConfig(d_tok=8, heads=2, out_dim=4, combiner="cat")

    def test_pad_row_initialized_to_zero(self):
        cfg = tiny_cfg()
        params = make_params(cfg, vocab=12, pad_row=11)
        np.testing.assert_array_equal(params["tok"][11], np.zeros(8))
