"""L1 supervision: vertices, regressed 3D joints, and 2D keypoints.

Ground-truth 3D joints are always derived from ground-truth vertices
through the same regression matrix used on the prediction side, so the
two routes agree by construction. The 2D term operates in full-image
pixel units.
"""

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor


def _as_array(x):
    return x.data if isinstance(x, Tensor) else np.asarray(x)


def validate_regression_matrix(J):
    """Rows must be convex-combination weights: nonnegative, summing to 1."""
    J = np.asarray(J)
    if J.ndim != 2:
        raise ValueError(f"regression matrix must be 2D, got shape {J.shape}")
    if (J < 0).any():
        raise ValueError("regression matrix has negative entries")
    row_sums = J.sum(axis=1)
    if not np.allclose(row_sums, 1.0, atol=1e-8):
        raise ValueError(f"regression matrix rows must sum to 1, got {row_sums}")
    return J


def joints_from_vertices(V, J):
    """J (21,778) @ V (...,778,3) -> (...,21,3); differentiable when V is a Tensor."""
    J = validate_regression_matrix(J)
    v_shape = V.shape
    if v_shape[-2] != J.shape[1] or v_shape[-1] != 3:
        raise ValueError(f"vertex array {v_shape} incompatible with regression matrix {J.shape}")
    if isinstance(V, Tensor):
        return ag.matmul(Tensor(J.astype(V.dtype)), V)
    return np.matmul(J, V)


def l1_mean(pred, gt):
    """Mean absolute difference over every element: sum|pred-gt| / (M*D)."""
    gt_arr = _as_array(gt)
    if pred.shape != gt_arr.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs gt {gt_arr.shape}")
    if isinstance(pred, Tensor):
        return ag.mean(ag.abs_(ag.sub(pred, Tensor(gt_arr))))
    return float(np.abs(pred - gt_arr).mean())


@dataclass
class LossWeights:
    w_3d: float = 10.0
    w_2d: float = 1.0
    w_vert: float = 10.0

    def __post_init__(self):
        if min(self.w_3d, self.w_2d, self.w_vert) <= 0:
            raise ValueError(f"loss weights must be positive, got {self}")


@dataclass
class LossBreakdown:
    L_vert: float
    L_J3d: float
    L_J2d: float
    total: float
    total_node: Tensor  # graph scalar for backpropagation; .data == total

    def to_dict(self):
        return {"L_vert": self.L_vert, "L_J3d": self.L_J3d,
                "L_J2d": self.L_J2d, "total": self.total}


def total_loss(V_pred, V_gt, J2d_pred, J2d_gt, J, weights=None):
    """Weighted sum of the three L1 terms; differentiable w.r.t. predictions.

    V_* in root-relative mm, J2d_* in full-image pixels. Ground-truth 3D
    joints are recomputed here as J @ V_gt.
    """
    w = weights or LossWeights()
    if not isinstance(V_pred, Tensor):
        V_pred = Tensor(np.asarray(V_pred, dtype=float))
    if not isinstance(J2d_pred, Tensor):
        J2d_pred = Tensor(np.asarray(J2d_pred, dtype=float))
    # all loss arithmetic runs in float64 regardless of model precision so
    # the breakdown recombines bit-exactly
    if V_pred.dtype != np.float64:
        V_pred = ag.cast(V_pred, np.float64)
    if J2d_pred.dtype != np.float64:
        J2d_pred = ag.cast(J2d_pred, np.float64)
    V_gt = _as_array(V_gt).astype(np.float64, copy=False)
    J2d_gt = _as_array(J2d_gt).astype(np.float64, copy=False)
    J3d_gt = joints_from_vertices(V_gt, J)
    l_vert = l1_mean(V_pred, V_gt)
    l_j3d = l1_mean(joints_from_vertices(V_pred, J), J3d_gt)
    l_j2d = l1_mean(J2d_pred, J2d_gt)
    total = ag.add(
        ag.add(ag.mul(l_j3d, w.w_3d), ag.mul(l_j2d, w.w_2d)),
        ag.mul(l_vert, w.w_vert),
    )
    return LossBreakdown(
        L_vert=float(l_vert.data),
        L_J3d=float(l_j3d.data),
        L_J2d=float(l_j2d.data),
        total=float(total.data),
        total_node=total,
    )
