"""Metric suite: closed-form alignment against a numeric optimizer oracle."""

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.spatial.transform import Rotation

from handmesh import metrics as mx


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def alignment_objective(theta, P, G):
    s = np.exp(theta[0])
    R = Rotation.from_rotvec(theta[1:4]).as_matrix()
    t = theta[4:7]
    diff = s * P @ R.T + t - G
    return float((diff * diff).sum())


def oracle_min_objective(P, G, rng, restarts=8):
    """Minimize over (log s, rotation vector, translation) from many starts."""
    t_guess = G.mean(axis=0) - P.mean(axis=0)
    inits = [np.concatenate([[0.0], np.zeros(3), t_guess])]
    for _ in range(restarts):
        th = np.concatenate([
            rng.normal(0.0, 0.3, 1),
            rng.normal(0.0, 1.5, 3),
            t_guess + rng.normal(0.0, 20.0, 3),
        ])
        inits.append(th)
    best = np.inf
    for th0 in inits:
        res = minimize(alignment_objective, th0, args=(P, G), method="BFGS",
                       options={"gtol": 1e-10, "maxiter": 2000})
        best = min(best, res.fun)
    return best


def closed_form_objective(P, G):
    _, aligned = mx.procrustes_align(P, G)
    return float(((aligned - G) ** 2).sum())


def f_score_brute_force(P, G, tau):
    """Double-loop nearest-neighbor F-score on pre-aligned clouds."""
    d = np.linalg.norm(P[:, None, :] - G[None, :, :], axis=-1)
    precision = float((d.min(axis=1) <= tau).mean())
    recall = float((d.min(axis=0) <= tau).mean())
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def random_similarity(rng):
    s = float(np.exp(rng.normal(0.0, 0.4)))
    R = Rotation.from_rotvec(rng.normal(0.0, 1.0, 3)).as_matrix()
    t = rng.normal(0.0, 50.0, 3)
    return s, R, t


# ---------------------------------------------------------------------------
# procrustes_align
# ---------------------------------------------------------------------------

class TestProcrustesAlign:
    def test_identity_case(self):
        rng = np.random.default_rng(0)
        G = rng.normal(0, 100, (21, 3))
        tf, aligned = mx.procrustes_align(G, G)
        assert abs(tf.s - 1) < 1e-9
        assert np.abs(tf.R - np.eye(3)).max() < 1e-9
        assert np.abs(tf.t).max() < 1e-9
        assert np.abs(aligned - G).max() < 1e-9

    def test_recovers_known_transform(self):
        rng = np.random.default_rng(1)
        G = rng.normal(0, 100, (21, 3))
        R0 = Rotation.from_rotvec([0.3, -0.2, 0.9]).as_matrix()
        t0 = np.array([10.0, 20.0, 30.0])
        P = (G - t0) @ R0 / 2.0  # G == 2 * R0 @ P + t0
        tf, aligned = mx.procrustes_align(P, G)
        assert abs(tf.s - 2.0) < 1e-9
        assert np.abs(tf.R - R0).max() < 1e-9
        assert np.abs(tf.t - t0).max() < 1e-9
        assert np.abs(aligned - G).max() < 1e-9

    def test_objective_matches_optimizer_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            P = rng.normal(0, 80, (21, 3))
            G = rng.normal(0, 80, (21, 3))
            closed = closed_form_objective(P, G)
            oracle = oracle_min_objective(P, G, rng)
            assert abs(closed - oracle) / oracle < 1e-6
            assert closed <= oracle + 1e-9 * oracle

    def test_rotation_always_proper(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            P = rng.normal(0, 100, (12, 3))
            G = rng.normal(0, 100, (12, 3))
            tf, _ = mx.procrustes_align(P, G)
            assert np.abs(tf.R @ tf.R.T - np.eye(3)).max() < 1e-9
            assert abs(np.linalg.det(tf.R) - 1.0) < 1e-9
            assert tf.s > 0

    def test_mirrored_cloud_triggers_reflection_correction(self):
        rng = np.random.default_rng(4)
        G = rng.normal(0, 100, (21, 3))
        P = G * np.array([-1.0, 1.0, 1.0])  # reflection, not a rotation
        tf, aligned = mx.procrustes_align(P, G)
        assert abs(np.linalg.det(tf.R) - 1.0) < 1e-9
        # a generic cloud cannot be rotated onto its mirror image
        assert mx.mean_euclidean(aligned, G) > 1.0

    def test_degenerate_gt_rejected(self):
        P = np.random.default_rng(5).normal(0, 10, (5, 3))
        G = np.ones((5, 3))
        with pytest.raises(ValueError):
            mx.procrustes_align(P, G)

    def test_collapsed_prediction_translates_without_crash(self):
        rng = np.random.default_rng(6)
        G = rng.normal(0, 100, (8, 3))
        P = np.tile([5.0, 5.0, 5.0], (8, 1))
        tf, aligned = mx.procrustes_align(P, G)
        assert np.abs(aligned.mean(axis=0) - G.mean(axis=0)).max() < 1e-9

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            mx.procrustes_align(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            mx.procrustes_align(np.zeros((5, 3)), np.zeros((6, 3)))


# ---------------------------------------------------------------------------
# mean_euclidean / pa_metric
# ---------------------------------------------------------------------------

class TestMeanEuclidean:
    def test_identical_is_zero(self):
        P = np.random.default_rng(7).normal(0, 10, (21, 3))
        assert mx.mean_euclidean(P, P) == 0.0

    def test_uniform_offset(self):
        P = np.random.default_rng(8).normal(0, 10, (21, 3))
        G = P.copy()
        G[:, 0] += 1.0
        assert abs(mx.mean_euclidean(P, G) - 1.0) < 1e-12

    def test_matches_per_point_oracle(self):
        rng = np.random.default_rng(9)
        P = rng.normal(0, 10, (50, 3))
        G = rng.normal(0, 10, (50, 3))
        want = sum(float(np.sqrt(((P[i] - G[i]) ** 2).sum())) for i in range(50)) / 50
        assert abs(mx.mean_euclidean(P, G) - want) / want < 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mx.mean_euclidean(np.zeros((4, 3)), np.zeros((5, 3)))


class TestPaMetric:
    def test_zero_for_similarity_transforms_of_gt(self):
        rng = np.random.default_rng(10)
        G = rng.normal(0, 100, (21, 3))
        assert mx.pa_metric(G, G) < 1e-9
        s, R, t = random_similarity(rng)
        assert mx.pa_metric(s * G @ R.T + t, G) < 1e-9

    def test_never_exceeds_unaligned(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            P = rng.normal(0, 50, (21, 3))
            G = rng.normal(0, 50, (21, 3))
            assert mx.pa_metric(P, G) <= mx.mean_euclidean(P, G) + 1e-9

    def test_invariance_under_similarity_transform(self):
        rng = np.random.default_rng(12)
        P = rng.normal(0, 50, (21, 3))
        G = rng.normal(0, 50, (21, 3))
        base = mx.pa_metric(P, G)
        for _ in range(25):
            s, R, t = random_similarity(rng)
            assert abs(mx.pa_metric(s * P @ R.T + t, G) - base) < 1e-6

    def test_alignment_beats_random_transforms(self):
        rng = np.random.default_rng(13)
        P = rng.normal(0, 50, (21, 3))
        G = rng.normal(0, 50, (21, 3))
        pa = mx.pa_metric(P, G)
        for _ in range(100):
            s, R, t = random_similarity(rng)
            assert pa <= mx.mean_euclidean(s * P @ R.T + t, G) + 1e-9


# ---------------------------------------------------------------------------
# f_score
# ---------------------------------------------------------------------------

class TestFScore:
    def test_identical_clouds_scores_one(self):
        P = np.random.default_rng(14).normal(0, 100, (30, 3))
        assert mx.f_score(P, P, 5.0) == 1.0
        assert mx.f_score(P, P, 15.0) == 1.0

    def test_dissimilar_spread_clouds_score_zero(self):
        rng = np.random.default_rng(15)
        P = rng.normal(0, 300, (20, 3))
        G = rng.normal(0, 300, (20, 3))
        assert mx.f_score(P, G, 5.0) == 0.0
        assert mx.f_score(P, G, 15.0) == 0.0

    def test_exact_half_within_gives_half(self):
        # move half the points by ~60mm displacements projected to keep the
        # centroid and cross-covariance fixed, so alignment stays near
        # identity (only a quadratically small scale change) and the counts
        # are exactly half in both directions at tau = 5
        rng = np.random.default_rng(16)
        n, m = 10, 5
        G = rng.normal(0, 2000, (n, 3))
        G0 = G - G.mean(axis=0)
        delta = rng.normal(0, 60, (m, 3))
        C = np.zeros((12, 3 * m))
        for a in range(3):
            C[a, a::3] = 1.0  # centroid rows
        for a in range(3):
            for b in range(3):
                C[3 + 3 * a + b, a::3] = G0[:m, b]  # cross-covariance rows
        v = delta.reshape(-1)
        v = v - C.T @ np.linalg.solve(C @ C.T, C @ v)
        delta = v.reshape(m, 3)
        norms = np.linalg.norm(delta, axis=1)
        # moved points must clear tau=5 plus ~2mm alignment drift; kept
        # points sit at drift distance only
        assert norms.min() > 8 and norms.max() < 500
        P = G.copy()
        P[:m] += delta
        assert mx.f_score(P, G, 5.0) == 0.5

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            P = rng.normal(0, 30, (25, 3))
            G = P + rng.normal(0, 8, (25, 3))
            _, aligned = mx.procrustes_align(P, G)
            for tau in (5.0, 15.0):
                assert abs(mx.f_score(P, G, tau) - f_score_brute_force(aligned, G, tau)) < 1e-12

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            P = rng.normal(0, 30, (25, 3))
            G = P + rng.normal(0, 10, (25, 3))
            assert mx.f_score(P, G, 15.0) >= mx.f_score(P, G, 5.0)


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

class TestReport:
    def test_invariants_on_random_predictions(self):
        rng = np.random.default_rng(20)
        for _ in range(5):
            gt_v = rng.normal(0, 40, (80, 3))
            gt_j = rng.normal(0, 40, (21, 3))
            rep = mx.compute_report(gt_v + rng.normal(0, 10, gt_v.shape), gt_v,
                                    gt_j + rng.normal(0, 10, gt_j.shape), gt_j)
            assert rep.pa_mpjpe_mm <= rep.mpjpe_mm + 1e-9
            assert rep.pa_mpvpe_mm <= rep.mpvpe_mm + 1e-9
            assert 0.0 <= rep.f_at_05 <= 1.0
            assert 0.0 <= rep.f_at_15 <= 1.0
            assert rep.f_at_15 >= rep.f_at_05

    def test_oracle_predictor_scores_perfectly(self):
        rng = np.random.default_rng(21)
        gt_v = rng.normal(0, 40, (80, 3))
        gt_j = rng.normal(0, 40, (21, 3))
        rep = mx.compute_report(gt_v, gt_v, gt_j, gt_j)
        assert rep.mpjpe_mm == 0.0 and rep.mpvpe_mm == 0.0
        assert rep.pa_mpjpe_mm < 1e-9 and rep.pa_mpvpe_mm < 1e-9
        assert rep.f_at_05 == 1.0 and rep.f_at_15 == 1.0

    def test_report_round_trips_to_dict(self):
        rep = mx.MetricsReport(1.0, 2.0, 0.5, 1.5, 0.9, 1.0)
        d = rep.to_dict()
        assert set(d) == {"mpjpe_mm", "mpvpe_mm", "pa_mpjpe_mm", "pa_mpvpe_mm", "f_at_05", "f_at_15"}

    def test_matches_per_metric_functions(self):
        # the shared vertex alignment must give exactly what each metric
        # function computes on its own
        rng = np.random.default_rng(22)
        for _ in range(5):
            gt_v = rng.normal(0, 40, (80, 3))
            gt_j = rng.normal(0, 40, (21, 3))
            pred_v = gt_v + rng.normal(0, 6, gt_v.shape)
            rep = mx.compute_report(pred_v, gt_v, gt_j + rng.normal(0, 6, gt_j.shape), gt_j)
            assert rep.pa_mpvpe_mm == mx.pa_metric(pred_v, gt_v)
            assert rep.f_at_05 == mx.f_score(pred_v, gt_v, 5.0)
            assert rep.f_at_15 == mx.f_score(pred_v, gt_v, 15.0)
