"""Loss suite: joint regression, elementwise-mean L1, weighted combination."""

from dataclasses import asdict

import numpy as np
import pytest

from handmesh.autograd import Tape, Tensor
from handmesh.losses import LossWeights, l1_mean, total_loss
from handmesh.rng import substream
from handmesh.synth import build_assets

from helpers import fd_gradcheck


def random_regression_matrix(rng, joints=21, verts=778):
    J = rng.uniform(0.0, 1.0, size=(joints, verts))
    return J / J.sum(axis=1, keepdims=True)


def one_hot_regression_matrix(vertex_ids, verts=778):
    J = np.zeros((len(vertex_ids), verts))
    J[np.arange(len(vertex_ids)), vertex_ids] = 1.0
    return J


class TestJointsFromVertices:
    """total_loss's L_J3d: the L1 of J @ V_pred against J @ V_gt."""

    @staticmethod
    def _l_j3d(V_pred, V_gt, J):
        J2d = np.zeros(V_gt.shape[:-2] + (J.shape[0], 2))
        return total_loss(V_pred, V_gt, J2d, J2d, J).L_J3d

    def test_one_hot_rows_select_vertices(self):
        ids = substream(2, "ids").integers(0, 778, size=21)
        J = one_hot_regression_matrix(ids)
        rng = substream(3, "V")
        V_gt = rng.normal(scale=50.0, size=(778, 3))
        V_pred = V_gt + rng.normal(scale=5.0, size=(778, 3))
        want = float(l1_mean(Tensor(V_pred[ids]), V_gt[ids]).data)
        assert self._l_j3d(V_pred, V_gt, J) == want

    def test_matches_matmul_oracle_batched(self):
        rng = substream(5, "JV")
        J = random_regression_matrix(rng)
        V_gt = rng.normal(scale=50.0, size=(4, 778, 3))
        V_pred = V_gt + rng.normal(scale=5.0, size=(4, 778, 3))
        oracle = lambda V: np.einsum("jv,bvc->bjc", J, V)
        want = np.abs(oracle(V_pred) - oracle(V_gt)).mean()
        assert abs(self._l_j3d(V_pred, V_gt, J) - want) / want < 1e-12

    @pytest.mark.parametrize("wrap", [np.asarray, Tensor, lambda v: Tensor(v.astype(np.float32))],
                             ids=["array", "tensor64", "tensor32"])
    def test_stack_equals_per_sample_calls_bit_for_bit(self, wrap):
        # the stack is regressed in float64, each sample to its own J @ V bits
        J = build_assets().J
        rng = substream(23, "V")
        V_gt = rng.normal(scale=50.0, size=(4, 778, 3))
        V_pred = wrap(V_gt + rng.normal(scale=5.0, size=(4, 778, 3)))
        V64 = np.asarray(V_pred.data if isinstance(V_pred, Tensor) else V_pred, np.float64)
        pred, gt = (np.stack([J @ V[i] for i in range(4)]) for V in (V64, V_gt))
        want = float(l1_mean(Tensor(pred), gt).data)
        assert self._l_j3d(V_pred, V_gt, J) == want


class TestL1Mean:
    @staticmethod
    def l1(pred, gt):
        return float(l1_mean(Tensor(pred), gt).data)

    def test_identical_inputs_give_zero_exactly(self):
        x = substream(8, "x").normal(size=(21, 3))
        assert self.l1(x, x.copy()) == 0.0

    def test_single_element_delta_over_63(self):
        gt = substream(9, "x").normal(size=(21, 3))
        pred = gt.copy()
        delta = 0.63
        pred[4, 1] += delta
        assert abs(self.l1(pred, gt) - delta / 63.0) < 1e-12

    def test_matches_elementwise_oracle(self):
        rng = substream(10, "x")
        a = rng.normal(size=(5, 7, 3))
        b = rng.normal(size=(5, 7, 3))
        want = np.abs(a - b).sum() / a.size
        assert abs(self.l1(a, b) - want) / want < 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            self.l1(np.zeros((21, 3)), np.zeros((21, 2)))

    def test_nonnegative_and_zero_iff_equal(self):
        rng = substream(11, "x")
        for _ in range(10):
            a = rng.normal(size=(6, 3))
            b = rng.normal(size=(6, 3))
            v = self.l1(a, b)
            assert v >= 0.0
            assert (v == 0.0) == bool(np.array_equal(a, b))

    def test_triangle_inequality(self):
        rng = substream(12, "x")
        for _ in range(20):
            a, b, c = (rng.normal(size=(4, 5)) for _ in range(3))
            assert self.l1(a, c) <= self.l1(a, b) + self.l1(b, c) + 1e-12

    def test_positive_scaling_homogeneity(self):
        rng = substream(13, "x")
        a = rng.normal(size=(9, 2))
        b = rng.normal(size=(9, 2))
        base = self.l1(a, b)
        for s in (0.25, 3.0, 117.0):
            assert abs(self.l1(s * a, s * b) - s * base) / (s * base) < 1e-12


class TestLossWeights:
    def test_defaults_are_10_1_10(self):
        w = LossWeights()
        assert (w.w_3d, w.w_2d, w.w_vert) == (10.0, 1.0, 10.0)

    @pytest.mark.parametrize("kwargs", [dict(w_3d=0.0), dict(w_2d=-1.0), dict(w_vert=0.0),
                                        dict(w_3d=float("nan")), dict(w_2d=float("inf")),
                                        dict(w_vert=float("nan")), dict(w_3d=True),
                                        dict(w_2d=True), dict(w_vert=True)])
    def test_nonpositive_weights_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LossWeights(**kwargs)

    def test_int_and_numpy_float_weights_accepted(self):
        w = LossWeights(w_3d=2, w_2d=np.float32(0.5), w_vert=np.float64(3.0))
        assert (w.w_3d, w.w_2d, w.w_vert) == (2, 0.5, 3.0)

    def test_dict_round_trip(self):
        w = LossWeights(2.0, 3.0, 4.0)
        assert LossWeights(**asdict(w)) == w


class TestTotalLoss:
    def _random_case(self, seed):
        rng = substream(seed, "case")
        J = random_regression_matrix(rng)
        V_gt = rng.normal(scale=40.0, size=(2, 778, 3))
        V_pred = V_gt + rng.normal(scale=5.0, size=(2, 778, 3))
        J2d_gt = rng.uniform(0, 224, size=(2, 21, 2))
        J2d_pred = J2d_gt + rng.normal(scale=3.0, size=(2, 21, 2))
        return J, V_gt, V_pred, J2d_gt, J2d_pred

    def test_perfect_prediction_is_all_zero(self):
        J, V_gt, _, J2d_gt, _ = self._random_case(15)
        bd = total_loss(V_gt.copy(), V_gt, J2d_gt.copy(), J2d_gt, J)
        assert bd.L_vert == 0.0 and bd.L_J3d == 0.0 and bd.L_J2d == 0.0 and bd.total == 0.0

    def test_constructed_terms_combine_to_4_point_2(self):
        # one-hot J decouples the three terms so each lands exactly on
        # L_J3d=0.1, L_J2d=0.2, L_vert=0.3 -> total 10*.1 + 1*.2 + 10*.3 = 4.2
        ids = np.arange(21)
        J = one_hot_regression_matrix(ids)
        V_gt = substream(16, "V").normal(scale=40.0, size=(778, 3))
        V_pred = V_gt.copy()
        V_pred[0, 0] += 0.1 * 63.0  # the only vertex any J row selects
        V_pred[700, 0] += 0.3 * 778 * 3 - 0.1 * 63.0  # invisible to J
        J2d_gt = substream(17, "j2").uniform(0, 224, size=(21, 2))
        J2d_pred = J2d_gt.copy()
        J2d_pred[9, 1] += 0.2 * 42.0
        bd = total_loss(V_pred, V_gt, J2d_pred, J2d_gt, J)
        assert abs(bd.L_J3d - 0.1) < 1e-12
        assert abs(bd.L_J2d - 0.2) < 1e-12
        assert abs(bd.L_vert - 0.3) < 1e-12
        assert abs(bd.total - 4.2) < 1e-10

    def test_breakdown_recombination_invariant(self):
        J, V_gt, V_pred, J2d_gt, J2d_pred = self._random_case(18)
        w = LossWeights()
        bd = total_loss(V_pred, V_gt, J2d_pred, J2d_gt, J, w)
        recomb = w.w_3d * bd.L_J3d + w.w_2d * bd.L_J2d + w.w_vert * bd.L_vert
        assert abs(bd.total - recomb) < 1e-10
        assert bd.total == float(bd.total_node.data)

    def test_custom_weights_respected(self):
        J, V_gt, V_pred, J2d_gt, J2d_pred = self._random_case(19)
        w = LossWeights(2.0, 5.0, 0.5)
        bd = total_loss(V_pred, V_gt, J2d_pred, J2d_gt, J, w)
        recomb = 2.0 * bd.L_J3d + 5.0 * bd.L_J2d + 0.5 * bd.L_vert
        assert abs(bd.total - recomb) < 1e-10

    def test_gradient_wrt_vertices_finite_differences(self):
        J, V_gt, V_pred, J2d_gt, J2d_pred = self._random_case(20)
        V = Tensor(V_pred[0], requires_grad=True)
        K = Tensor(J2d_pred[0], requires_grad=True)

        def fn(v, k):
            return total_loss(v, V_gt[0], k, J2d_gt[0], J).total_node

        rng = np.random.default_rng(3)
        assert fd_gradcheck(fn, [V, K], rng=rng, max_checks=10) < 1e-4

    def test_tie_gradient_is_exactly_zero(self):
        J, V_gt, _, J2d_gt, _ = self._random_case(21)
        V = Tensor(V_gt[0].copy(), requires_grad=True)
        with Tape() as tape:
            bd = total_loss(V, V_gt[0], Tensor(J2d_gt[0].copy()), J2d_gt[0], J)
            tape.backward(bd.total_node)
        assert np.all(V.grad == 0.0)

    def test_nonfinite_total_raises_naming_its_terms(self):
        # the global sampler runs no coordinate check, so a NaN keypoint
        # prediction first shows in the loss
        J, V_gt, V_pred, J2d_gt, J2d_pred = self._random_case(22)
        J2d_pred[1, 4, 0] = np.nan
        with pytest.raises(FloatingPointError, match="L_J2d=nan") as err:
            total_loss(V_pred, V_gt, J2d_pred, J2d_gt, J)
        assert "L_vert=" in str(err.value) and "L_J3d=" in str(err.value)
