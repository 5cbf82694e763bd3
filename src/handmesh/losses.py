"""L1 supervision: vertices, regressed 3D joints, and 2D keypoints.

Ground-truth 3D joints are always derived from ground-truth vertices
through the same regression matrix used on the prediction side, so the
two routes agree by construction. The 2D term operates in full-image
pixel units.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor


def l1_mean(pred, gt):
    """Mean absolute difference of a Tensor from an array: sum|pred-gt| / (M*D)."""
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs gt {gt.shape}")
    # a - b is a + (-b) bit for bit, values and gradients alike
    return ag.mean(ag.abs_(ag.add(pred, Tensor(-gt))))


@dataclass
class LossWeights:
    w_3d: float = 10.0
    w_2d: float = 1.0
    w_vert: float = 10.0

    def __post_init__(self):
        if not all(not isinstance(w, bool) and math.isfinite(w) and w > 0
                   for w in (self.w_3d, self.w_2d, self.w_vert)):
            raise ValueError(f"loss weights must be finite and positive, got {self}")


@dataclass
class LossBreakdown:
    L_vert: float
    L_J3d: float
    L_J2d: float
    total: float
    total_node: Tensor  # graph scalar for backpropagation; .data == total


def _float64_tensor(pred):
    """A prediction as a float64 Tensor: all loss arithmetic runs in float64
    regardless of model precision, so the breakdown recombines bit-exactly."""
    if not isinstance(pred, Tensor):
        return Tensor(np.asarray(pred, np.float64))
    return pred if pred.dtype == np.float64 else ag.cast(pred, np.float64)


def total_loss(V_pred, V_gt, J2d_pred, J2d_gt, J, weights=None):
    """Weighted sum of the three L1 terms; differentiable w.r.t. predictions.

    V_* in root-relative mm, J2d_* in full-image pixels. Ground-truth 3D
    joints are recomputed here as J @ V_gt. A non-finite total raises
    FloatingPointError naming the three terms, as the forward checks do.
    """
    w = weights or LossWeights()
    V_pred, J2d_pred = _float64_tensor(V_pred), _float64_tensor(J2d_pred)
    V_gt, J2d_gt = np.asarray(V_gt, np.float64), np.asarray(J2d_gt, np.float64)
    l_vert = l1_mean(V_pred, V_gt)
    l_j3d = l1_mean(ag.matmul(Tensor(J), V_pred), J @ V_gt)
    l_j2d = l1_mean(J2d_pred, J2d_gt)
    total = ag.add(
        ag.add(ag.mul(l_j3d, w.w_3d), ag.mul(l_j2d, w.w_2d)),
        ag.mul(l_vert, w.w_vert),
    )
    if not np.isfinite(total.data):
        raise FloatingPointError(f"non-finite loss: L_vert={float(l_vert.data)}, "
                                 f"L_J3d={float(l_j3d.data)}, L_J2d={float(l_j2d.data)}")
    return LossBreakdown(
        L_vert=float(l_vert.data),
        L_J3d=float(l_j3d.data),
        L_J2d=float(l_j2d.data),
        total=float(total.data),
        total_node=total,
    )
