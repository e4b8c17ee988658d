import numpy as np
import pytest

from kgembed.scoring import (MODEL_KINDS, complex_score, distmult_score,
                             interht_distance, interht_plus_distance,
                             model_kind, pairre_distance, rotate_distance,
                             score_for_loss, transe_distance,
                             triplere_distance)


def test_transe_hand_value():
    # residual = h + r - t = [1+1-0.5, 2+1-1] = [1.5, 2]
    d, g = transe_distance(np.array([1.0, 2.0]), np.array([1.0, 1.0]),
                           np.array([0.5, 1.0]), p=1)
    assert d == pytest.approx(3.5)
    np.testing.assert_array_equal(g["h"], [1.0, 1.0])
    np.testing.assert_array_equal(g["t"], [-1.0, -1.0])


def test_interht_hand_value():
    h = np.array([1.0, 2.0])
    t = np.array([0.5, 1.0])
    r = np.array([1.0, 1.0])
    t_a = np.array([1.0, 0.0])
    h_a = np.array([0.0, 1.0])
    # residual per component, written out:
    #   [1*(1+1) - 0.5*(0+1) + 1,  2*(0+1) - 1*(1+1) + 1] = [2.5, 1.0]
    d, _ = interht_distance(h, r, t, h_a, t_a, p=1)
    assert d == pytest.approx(2.5 + 1.0)


def test_interht_zero_case():
    h = np.array([0.3, -0.7, 1.1])
    z = np.zeros(3)
    d, _ = interht_distance(h, z, h, z, z, p=1)
    assert d == 0.0


class TestReductionIdentities:
    """Special parameter settings must collapse to simpler kernels."""

    def setup_method(self):
        rng = np.random.default_rng(42)
        self.h = rng.normal(size=(20, 8))
        self.t = rng.normal(size=(20, 8))
        self.r = rng.normal(size=(20, 8))

    def test_interht_zero_aux_is_transe(self):
        zero = np.zeros_like(self.h)
        for p in (1, 2):
            d_i, _ = interht_distance(self.h, self.r, self.t, zero, zero, p=p)
            d_t, _ = transe_distance(self.h, self.r, self.t, p=p)
            np.testing.assert_allclose(d_i, d_t, rtol=0, atol=1e-12)

    def test_interht_plus_u0_is_transe(self):
        rng = np.random.default_rng(7)
        r_h = rng.normal(size=(20, 8))
        r_t = rng.normal(size=(20, 8))
        for p in (1, 2):
            d_i, _ = interht_plus_distance(self.h, self.r, self.t, r_h, r_t,
                                           u=0.0, p=p)
            d_t, _ = transe_distance(self.h, self.r, self.t, p=p)
            np.testing.assert_allclose(d_i, d_t, rtol=0, atol=1e-12)

    def test_triplere_v2_u0_is_v1(self):
        rng = np.random.default_rng(8)
        r_h = rng.normal(size=(20, 8))
        r_t = rng.normal(size=(20, 8))
        for p in (1, 2):
            d1, _ = triplere_distance(self.h, r_h, self.r, r_t, self.t,
                                      version=1, p=p)
            d2, _ = triplere_distance(self.h, r_h, self.r, r_t, self.t,
                                      u=0.0, version=2, p=p)
            np.testing.assert_allclose(d1, d2, rtol=0, atol=1e-12)

    def test_rotate_zero_phase_is_euclidean(self):
        phase = np.zeros((20, 4))
        d_rot, _ = rotate_distance(self.h, phase, self.t, p=2)
        d_l2 = np.sqrt(((self.h - self.t) ** 2).sum(axis=1))
        np.testing.assert_allclose(d_rot, d_l2, rtol=0, atol=1e-12)


def test_rotate_rotation_preserves_modulus():
    rng = np.random.default_rng(3)
    h = rng.normal(size=16)
    phase = rng.uniform(-np.pi, np.pi, 8)
    zero = np.zeros(16)
    # distance to the zero vector = total modulus of the rotated head,
    # which rotation must not change
    d_rot, _ = rotate_distance(h, phase, zero, p=2)
    assert d_rot == pytest.approx(np.sqrt((h * h).sum()), rel=1e-12)


def test_rotate_matches_complex_arithmetic():
    rng = np.random.default_rng(4)
    h = rng.normal(size=6)
    t = rng.normal(size=6)
    phase = rng.uniform(-np.pi, np.pi, 3)
    hc = h[:3] + 1j * h[3:]
    tc = t[:3] + 1j * t[3:]
    expect = np.abs(hc * np.exp(1j * phase) - tc).sum()
    d, _ = rotate_distance(h, phase, t, p=1)
    assert d == pytest.approx(expect, rel=1e-12)


def test_rotate_rejects_bad_phase_width():
    with pytest.raises(ValueError, match="half"):
        rotate_distance(np.zeros(8), np.zeros(8), np.zeros(8))


def test_pairre_hand_value():
    # [2*1 - 1*3, 1*(-1) - 2*0.5] = [-1, -2]
    d, _ = pairre_distance(np.array([2.0, 1.0]), np.array([1.0, -1.0]),
                           np.array([3.0, 0.5]), np.array([1.0, 2.0]), p=1)
    assert d == pytest.approx(3.0)


def test_distmult_symmetric_in_head_and_tail():
    rng = np.random.default_rng(5)
    h, r, t = rng.normal(size=(3, 10))
    s1, _ = distmult_score(h, r, t)
    s2, _ = distmult_score(t, r, h)
    assert s1 == pytest.approx(s2, rel=1e-12)


def test_complex_matches_numpy_complex():
    rng = np.random.default_rng(6)
    h, r, t = rng.normal(size=(3, 8))
    hc = h[:4] + 1j * h[4:]
    rc = r[:4] + 1j * r[4:]
    tc = t[:4] + 1j * t[4:]
    expect = np.real((hc * rc * np.conj(tc)).sum())
    s, _ = complex_score(h, r, t)
    assert s == pytest.approx(expect, rel=1e-12)


def test_complex_with_real_relation_reduces_to_distmult_on_real_vectors():
    rng = np.random.default_rng(9)
    half = rng.normal(size=(3, 4))
    h = np.concatenate([half[0], np.zeros(4)])
    r = np.concatenate([half[1], np.zeros(4)])
    t = np.concatenate([half[2], np.zeros(4)])
    s_c, _ = complex_score(h, r, t)
    s_d, _ = distmult_score(half[0], half[1], half[2])
    assert s_c == pytest.approx(s_d, rel=1e-12)


def test_even_dim_required():
    with pytest.raises(ValueError, match="even"):
        complex_score(np.zeros(5), np.zeros(5), np.zeros(5))


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="mismatch"):
        transe_distance(np.zeros(3), np.zeros(4), np.zeros(3))


def test_zero_residual_gradient_is_zero():
    z = np.zeros(4)
    for p in (1, 2):
        d, g = transe_distance(z, z, z, p=p)
        assert d == 0.0
        np.testing.assert_array_equal(g["h"], np.zeros(4))


class TestScoreForLoss:
    def test_bilinear_sign_flip(self):
        rng = np.random.default_rng(10)
        vecs = {"h": rng.normal(size=6), "r": rng.normal(size=6),
                "t": rng.normal(size=6)}
        s, gs = distmult_score(**vecs)
        d, gd = score_for_loss("distmult", vecs)
        assert d == pytest.approx(-s)
        for k in gs:
            np.testing.assert_allclose(gd[k], -gs[k])

    def test_grads_cover_exactly_the_used_inputs(self):
        rng = np.random.default_rng(11)
        dim = 8
        for name, kind in MODEL_KINDS.items():
            vecs = {"h": rng.normal(size=dim), "t": rng.normal(size=dim)}
            if kind.uses_aux:
                vecs["h_a"] = rng.normal(size=dim)
                vecs["t_a"] = rng.normal(size=dim)
            for part in kind.rel_parts:
                vecs[part] = rng.normal(size=kind.relation_dim(dim))
            _, grads = score_for_loss(name, vecs, p=1, u=0.05)
            assert set(grads) == set(vecs), name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("p", [1, 2])
    def test_value_only_mode_is_bit_identical(self, p, dtype):
        rng = np.random.default_rng(14)
        dim = 8
        for name, kind in MODEL_KINDS.items():
            vecs = {"h": rng.normal(size=(3, 1, dim)),
                    "t": rng.normal(size=(1, 5, dim))}
            vecs["t"][0, 0] = vecs["h"][0, 0]    # a zero residual for transe
            if kind.uses_aux:
                vecs["h_a"] = rng.normal(size=(3, 1, dim))
                vecs["t_a"] = rng.normal(size=(1, 5, dim))
            for part in kind.rel_parts:
                vecs[part] = rng.normal(size=(3, 1, kind.relation_dim(dim)))
            vecs = {k: v.astype(dtype) for k, v in vecs.items()}
            full, _ = score_for_loss(name, vecs, p=p, u=0.05)
            value, grads = score_for_loss(name, vecs, p=p, u=0.05, grad=False)
            assert grads == {}, name
            assert value.dtype == full.dtype and np.array_equal(value, full), name

    def test_broadcasts_over_negative_axis(self):
        rng = np.random.default_rng(12)
        b, k, dim = 3, 5, 6
        vecs = {
            "h": rng.normal(size=(b, 1, dim)),
            "t": rng.normal(size=(b, k, dim)),
            "r": rng.normal(size=(b, 1, dim)),
        }
        d, grads = score_for_loss("transe", vecs)
        assert d.shape == (b, k)
        assert grads["t"].shape == (b, k, dim)
        for i in range(b):
            for j in range(k):
                single, _ = score_for_loss("transe", {
                    "h": vecs["h"][i, 0], "t": vecs["t"][i, j],
                    "r": vecs["r"][i, 0],
                })
                assert d[i, j] == pytest.approx(single)

    def test_inputs_not_mutated(self):
        rng = np.random.default_rng(13)
        vecs = {"h": rng.normal(size=8), "t": rng.normal(size=8),
                "r": rng.normal(size=8)}
        copies = {k: v.copy() for k, v in vecs.items()}
        score_for_loss("interht", {**vecs, "h_a": vecs["h"] * 0,
                                   "t_a": vecs["t"] * 0})
        for k, v in copies.items():
            np.testing.assert_array_equal(vecs[k], v)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown model kind"):
        model_kind("hole")


def test_registry_relation_dims():
    assert model_kind("rotate").relation_dim(16) == 8
    assert model_kind("transe").relation_dim(16) == 16
    assert model_kind("interht_plus").rel_parts == ("r_h", "r", "r_t")
