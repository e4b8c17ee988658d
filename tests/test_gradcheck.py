import numpy as np
import pytest

from kgembed import gradcheck as gc
from kgembed.scoring import MODEL_KINDS, model_kind


class TestHelpers:
    def test_relative_error_basic(self):
        assert gc.relative_error([1.0], [1.0]) == 0.0
        # |2-1| / (2+1+1e-3) just under 1/3
        assert gc.relative_error([2.0], [1.0]) == pytest.approx(1 / 3.001)
        assert gc.relative_error(np.array([]), np.array([])) == 0.0

    def test_relative_error_floor_near_zero(self):
        # tiny absolute disagreement around zero is measured absolutely
        assert gc.relative_error([1e-9], [0.0]) < 1e-5

    def test_central_diff_on_polynomial(self):
        x = np.array([2.0, -1.0, 0.5])
        g = gc.central_diff(lambda: float((x ** 3).sum()), x)
        np.testing.assert_allclose(g, 3 * x ** 2, rtol=1e-7)

    def test_central_diff_restores_input(self):
        x = np.array([1.0, 2.0])
        gc.central_diff(lambda: float(x.sum()), x)
        np.testing.assert_array_equal(x, [1.0, 2.0])

    def test_random_inputs_cover_required_parts(self):
        rng = np.random.default_rng(0)
        for name, kind in MODEL_KINDS.items():
            vecs = gc.random_score_inputs(kind, 8, rng)
            expect = {"h", "t"} | set(kind.rel_parts)
            if kind.uses_aux:
                expect |= {"h_a", "t_a"}
            assert set(vecs) == expect
            for part in kind.rel_parts:
                assert vecs[part].shape == (kind.relation_dim(8),)


class TestKinkDetection:
    def test_exact_zero_residual_flagged(self):
        kind = model_kind("transe")
        vecs = {"h": np.zeros(4), "t": np.zeros(4), "r": np.zeros(4)}
        assert gc._near_kink(kind, vecs, p=1, u=0.0)
        assert gc._near_kink(kind, vecs, p=2, u=0.0)

    def test_comfortable_residual_not_flagged(self):
        kind = model_kind("transe")
        vecs = {"h": np.full(4, 0.5), "t": np.zeros(4), "r": np.full(4, 0.5)}
        assert not gc._near_kink(kind, vecs, p=1, u=0.0)

    def test_bilinear_never_flagged(self):
        kind = model_kind("distmult")
        vecs = {"h": np.zeros(4), "t": np.zeros(4), "r": np.zeros(4)}
        assert not gc._near_kink(kind, vecs, p=1, u=0.0)

    def test_residual_matches_kernel_distance(self):
        # the redraw logic rebuilds each residual independently; its norm
        # must equal the kernel's reported distance
        rng = np.random.default_rng(1)
        from kgembed.scoring import score_for_loss
        for name, kind in MODEL_KINDS.items():
            if kind.bilinear:
                continue
            vecs = gc.random_score_inputs(kind, 6, rng)
            res = gc._residual(kind, vecs, u=0.05)
            d1 = score_for_loss(kind, vecs, p=1, u=0.05)[0]
            assert float(np.abs(res).sum()) == pytest.approx(float(d1),
                                                             rel=1e-12)


class TestSuites:
    @pytest.mark.parametrize("name", sorted(MODEL_KINDS))
    def test_each_kernel_passes_quick_check(self, name):
        err = gc.check_kernel(name, dim=6, instances=10, p=2, seed=3)
        assert err <= gc.KERNEL_TOL

    def test_l1_norm_also_checked(self):
        assert gc.check_kernel("interht", dim=6, instances=10, p=1,
                               seed=4) <= gc.KERNEL_TOL

    def test_check_all_covers_registry(self):
        out = gc.check_all_kernels(dim=4, instances=4, seed=5)
        assert set(out) == set(MODEL_KINDS)
        assert all(v <= gc.KERNEL_TOL for v in out.values())

    def test_transformer_quick_check(self):
        err = gc.check_transformer(instances=3, seed=6)
        assert err <= gc.ENCODER_TOL

    def test_mean_combiner_also_verified(self):
        err = gc.check_transformer(instances=3, seed=7, combiner="mean")
        assert err <= gc.ENCODER_TOL

    def test_step_and_redraw_threshold_are_separated(self):
        # the redraw threshold must stay at least a decade above the probe
        # step or the two-sided difference can straddle a kink
        assert gc.KINK_TOL >= 10 * gc.FD_STEP
