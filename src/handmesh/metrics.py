"""Pose and mesh error metrics, plain and Procrustes-aligned, in millimeters.

Alignment solves min_{s,R,t} sum ||s R p_i + t - g_i||^2 in closed form:
center both clouds, SVD the cross-covariance, correct an improper rotation
by flipping the smallest singular direction, and read the isotropic scale
off the corrected singular-value trace. Each aligned metric aligns its own
point set (joints for PA-MPJPE, vertices for PA-MPVPE and the F-scores).
"""

from dataclasses import dataclass, asdict

import numpy as np
from scipy.spatial import cKDTree


@dataclass
class SimilarityTransform:
    s: float
    R: np.ndarray  # (3, 3)
    t: np.ndarray  # (3,)

    def apply(self, points):
        return self.s * points @ self.R.T + self.t


@dataclass
class MetricsReport:
    mpjpe_mm: float
    mpvpe_mm: float
    pa_mpjpe_mm: float
    pa_mpvpe_mm: float
    f_at_05: float
    f_at_15: float

    def to_dict(self):
        return {k: float(v) for k, v in asdict(self).items()}


def procrustes_align(P, G):
    """Best-fit similarity transform of P onto G.

    Returns (SimilarityTransform, aligned P). Raises on degenerate G
    (all points coincident); a degenerate P falls back to pure
    translation so collapsed predictions still evaluate.
    """
    P = np.asarray(P, dtype=np.float64)
    G = np.asarray(G, dtype=np.float64)
    if P.shape != G.shape or P.ndim != 2 or P.shape[1] != 3 or P.shape[0] < 3:
        raise ValueError(f"procrustes_align expects matching (N>=3, 3) clouds, got {P.shape} and {G.shape}")
    mu_p = P.mean(axis=0)
    mu_g = G.mean(axis=0)
    P0 = P - mu_p
    G0 = G - mu_g
    var_p = (P0 * P0).sum()
    var_g = (G0 * G0).sum()
    if var_g == 0.0:
        raise ValueError("procrustes_align: ground truth points are all coincident")
    if var_p == 0.0:
        tf = SimilarityTransform(s=1.0, R=np.eye(3), t=mu_g - mu_p)
        return tf, tf.apply(P)
    A = P0.T @ G0
    U, sigma, Vt = np.linalg.svd(A)
    d = np.sign(np.linalg.det(Vt.T @ U.T))
    if d == 0:
        d = 1.0
    D = np.diag([1.0, 1.0, d])
    R = Vt.T @ D @ U.T
    s = (sigma * np.diag(D)).sum() / var_p
    t = mu_g - s * R @ mu_p
    tf = SimilarityTransform(s=float(s), R=R, t=t)
    return tf, tf.apply(P)


def mean_euclidean(P, G):
    """Mean per-point Euclidean distance; MPJPE for joints, MPVPE for vertices."""
    P = np.asarray(P, dtype=np.float64)
    G = np.asarray(G, dtype=np.float64)
    if P.shape != G.shape:
        raise ValueError(f"mean_euclidean: shape mismatch {P.shape} vs {G.shape}")
    return float(np.linalg.norm(P - G, axis=-1).mean())


def pa_metric(P, G):
    _, aligned = procrustes_align(P, G)
    return mean_euclidean(aligned, G)


def _nn_distances(aligned, G):
    """Nearest-neighbor distances from each aligned point to G, and from each G point back."""
    return cKDTree(G).query(aligned)[0], cKDTree(aligned).query(G)[0]


def _f_at(distances, tau_mm):
    d_pg, d_gp = distances
    precision = float((d_pg <= tau_mm).mean())
    recall = float((d_gp <= tau_mm).mean())
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def f_score(P, G, tau_mm):
    """F-score at threshold tau_mm over nearest-neighbor distances in both
    directions, computed after Procrustes alignment."""
    _, aligned = procrustes_align(P, G)
    return _f_at(_nn_distances(aligned, G), tau_mm)


def compute_report(pred_vertices, gt_vertices, pred_joints, gt_joints):
    """All six metrics for one sample; F-scores are over mesh vertices.

    The vertices are aligned once; PA-MPVPE and both F-scores read that alignment.
    """
    _, aligned = procrustes_align(pred_vertices, gt_vertices)
    distances = _nn_distances(aligned, gt_vertices)
    return MetricsReport(
        mpjpe_mm=mean_euclidean(pred_joints, gt_joints),
        mpvpe_mm=mean_euclidean(pred_vertices, gt_vertices),
        pa_mpjpe_mm=pa_metric(pred_joints, gt_joints),
        pa_mpvpe_mm=mean_euclidean(aligned, gt_vertices),
        f_at_05=_f_at(distances, 5.0),
        f_at_15=_f_at(distances, 15.0),
    )
