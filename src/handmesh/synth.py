"""Procedural articulated hand: template mesh, skeleton, skinning, rendering.

The template is a palm ellipsoid plus five tapered finger tubes sampled to
exactly 778 vertices; the skeleton is a wrist plus four joints per finger
(MCP, PIP, DIP, TIP). Skin weights come from inverse distance to the two
nearest joint influence segments; segments span bone midpoints around each
joint so that the regression matrix maps vertices back onto joints. Every
sample's ground truth is exactly self-consistent: J_2d is defined as
project(J @ V_3d).

All 3D units are millimeters; images are 224x224 pixels.
"""

from dataclasses import dataclass

import numpy as np

from .rng import substream

IMAGE_SIZE = 224
HEATMAP_SIGMA = 4.0
NUM_JOINTS = 21
NUM_VERTICES = 778
INPUT_SHAPE = (NUM_JOINTS + 1, IMAGE_SIZE, IMAGE_SIZE)  # 21 keypoint heatmaps + 1 silhouette

_BLUR_SIGMA = 3.0  # silhouette blur
_BLUR_REACH = int(4.0 * _BLUR_SIGMA + 0.5)  # gaussian_filter's radius at its default truncate=4.0
# scipy.ndimage's _gaussian_kernel1d(_BLUR_SIGMA, 0, _BLUR_REACH), reversed as gaussian_filter1d reverses it
_BLUR_TAPS = np.exp(-0.5 / (_BLUR_SIGMA * _BLUR_SIGMA) * np.arange(-_BLUR_REACH, _BLUR_REACH + 1) ** 2)
_BLUR_WEIGHTS = (_BLUR_TAPS / _BLUR_TAPS.sum())[::-1]

_PALM_VERTS = 298
_RINGS_PER_FINGER = 8
_VERTS_PER_RING = 12

_WRIST = np.array([0.0, 30.0, 0.0])
_PALM_CENTER = np.array([0.0, 46.0, 0.0])
_PALM_AXES = np.array([44.0, 46.0, 13.0])

# Shepard weighting: sharp enough that tube vertices dominate palm
# stragglers, keeping each joint's regression centroid on the joint
_IDW_POWER = 3.0
_IDW_EPS = 0.5

# per finger: MCP position, axis direction, segment lengths, base/tip radius
_FINGERS = [
    ("thumb", (36.0, 22.0, 0.0), (0.78, 0.63, 0.0), (32.0, 24.0, 20.0), (10.0, 6.5)),
    ("index", (27.0, 86.0, 0.0), (0.10, 1.00, 0.0), (30.0, 20.0, 15.0), (8.5, 5.5)),
    ("middle", (9.0, 90.0, 0.0), (0.00, 1.00, 0.0), (33.0, 22.0, 16.0), (8.5, 5.5)),
    ("ring", (-9.0, 88.0, 0.0), (-0.08, 1.00, 0.0), (30.0, 20.0, 15.0), (8.0, 5.0)),
    ("pinky", (-27.0, 82.0, 0.0), (-0.15, 1.00, 0.0), (24.0, 16.0, 12.0), (7.0, 4.5)),
]

# max rotation-vector angle (radians) sample_pose draws: wrist, then MCP/PIP/DIP per finger
_LIMIT_WRIST = 0.9
_LIMIT_MCP = 1.1
_LIMIT_PIP = 1.4
_LIMIT_DIP = 0.9
_ABDUCTION = 0.22


@dataclass
class Skeleton:
    joints: np.ndarray  # (21, 3) mm
    parents: np.ndarray  # (21,) int, root 0 has parent -1
    flex_axes: np.ndarray  # (21, 3) unit flexion axis per joint


@dataclass
class HandSample:
    input: np.ndarray  # INPUT_SHAPE float32, rendered in float64
    V_3d: np.ndarray  # (778, 3) mm, root-relative
    J_2d: np.ndarray  # (21, 2) px
    camera: np.ndarray  # (3,) scale px/mm, tx px, ty px


@dataclass
class HandAssets:
    vertices: np.ndarray  # (778, 3) template mesh, mm
    skeleton: Skeleton
    W: np.ndarray  # (778, 21) skin weights, row-stochastic, <= 4 nonzeros per row
    J: np.ndarray  # (21, 778) regression matrix, rows sum to 1


def _fibonacci_sphere(n):
    i = np.arange(n, dtype=np.float64)
    z = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    theta = np.pi * (1.0 + np.sqrt(5.0)) * i
    return np.stack([r * np.cos(theta), z, r * np.sin(theta)], axis=1)


def _build_skeleton():
    joints = np.zeros((NUM_JOINTS, 3))
    parents = np.full(NUM_JOINTS, -1, dtype=np.int64)
    flex = np.zeros((NUM_JOINTS, 3))
    joints[0] = _WRIST
    flex[0] = (0.0, 0.0, 1.0)
    z = np.array([0.0, 0.0, 1.0])
    for f, (_, mcp, d, lens, _) in enumerate(_FINGERS):
        base = 1 + 4 * f
        d = np.asarray(d) / np.linalg.norm(d)
        mcp = np.asarray(mcp)
        pts = [mcp, mcp + lens[0] * d, mcp + (lens[0] + lens[1]) * d, mcp + sum(lens) * d]
        axis = np.cross(z, d)
        axis /= np.linalg.norm(axis)
        for k in range(4):
            joints[base + k] = pts[k]
            parents[base + k] = 0 if k == 0 else base + k - 1
            flex[base + k] = axis
    return Skeleton(joints=joints, parents=parents, flex_axes=flex)


def _build_mesh():
    verts = [_PALM_CENTER + _PALM_AXES * _fibonacci_sphere(_PALM_VERTS)]
    for _, mcp, d, lens, (r0, r1) in _FINGERS:
        d = np.asarray(d) / np.linalg.norm(d)
        mcp = np.asarray(mcp)
        length = sum(lens)
        # orthonormal frame around the finger axis
        u = np.cross(d, [0.0, 0.0, 1.0])
        u /= np.linalg.norm(u)
        w = np.cross(d, u)
        ts = np.linspace(0.08, 0.97, _RINGS_PER_FINGER)
        ang = 2 * np.pi * np.arange(_VERTS_PER_RING) / _VERTS_PER_RING
        for t in ts:
            radius = r0 + (r1 - r0) * t
            ring = mcp + t * length * d + radius * (np.outer(np.cos(ang), u) + np.outer(np.sin(ang), w))
            verts.append(ring)
    return np.concatenate(verts, axis=0)


def _segment_distance(points, a, b):
    ab = b - a
    t = np.clip((points - a) @ ab / float(ab @ ab), 0.0, 1.0)
    proj = a + t[:, None] * ab
    return np.linalg.norm(points - proj, axis=1)


def _influence_segments(skeleton):
    """Per-joint segment lists, split at bone midpoints so each joint owns
    the region surrounding it (keeps the regression matrix on-joint)."""
    joints = skeleton.joints
    segs = [[] for _ in range(NUM_JOINTS)]
    wrist = joints[0]
    for f in range(5):
        base = 1 + 4 * f
        mcp, pip, dip, tip = joints[base], joints[base + 1], joints[base + 2], joints[base + 3]
        segs[0].append((wrist, wrist + 0.5 * (mcp - wrist)))
        # MCP influence starts at the knuckle itself; reaching back into
        # the palm drags its regression centroid off the joint
        segs[base].append((mcp, 0.5 * (mcp + pip)))
        segs[base + 1].append((0.5 * (mcp + pip), 0.5 * (pip + dip)))
        segs[base + 2].append((0.5 * (pip + dip), 0.5 * (dip + tip)))
        segs[base + 3].append((0.5 * (dip + tip), tip + 0.4 * (tip - dip)))
    return segs


def _build_weights(vertices, skeleton):
    segs = _influence_segments(skeleton)
    dists = np.full((NUM_VERTICES, NUM_JOINTS), np.inf)
    for j, seg_list in enumerate(segs):
        for a, b in seg_list:
            dists[:, j] = np.minimum(dists[:, j], _segment_distance(vertices, a, b))
    order = np.argsort(dists, axis=1)[:, :2]
    W = np.zeros((NUM_VERTICES, NUM_JOINTS))
    rows = np.arange(NUM_VERTICES)
    for k in range(2):
        j = order[:, k]
        W[rows, j] = 1.0 / (dists[rows, j] + _IDW_EPS) ** _IDW_POWER
    W /= W.sum(axis=1, keepdims=True)
    return W


def regression_matrix_from_weights(W):
    """J = column-normalized transpose of W: each joint becomes a convex
    combination of the vertices it skins, so rows sum to 1; the assets' W
    gives every joint some weight."""
    return (W / W.sum(axis=0)).T


def build_assets():
    """Deterministic asset construction; bit-identical across calls."""
    skeleton = _build_skeleton()
    vertices = _build_mesh()
    W = _build_weights(vertices, skeleton)
    return HandAssets(vertices=vertices, skeleton=skeleton, W=W, J=regression_matrix_from_weights(W))


def _rotvec_to_matrix(rv):
    """Rodrigues formula for a batch of rotation vectors (N, 3)."""
    theta = np.linalg.norm(rv, axis=-1, keepdims=True)
    axis = rv / np.where(theta == 0, 1.0, theta)
    c = np.cos(theta)[..., None]
    s = np.sin(theta)[..., None]
    n = rv.shape[0]
    K = np.zeros((n, 3, 3))
    K[:, 0, 1], K[:, 0, 2] = -axis[:, 2], axis[:, 1]
    K[:, 1, 0], K[:, 1, 2] = axis[:, 2], -axis[:, 0]
    K[:, 2, 0], K[:, 2, 1] = -axis[:, 1], axis[:, 0]
    eye = np.broadcast_to(np.eye(3), (n, 3, 3))
    return eye * c + s * K + (1 - c) * (axis[:, :, None] * axis[:, None, :])


def sample_pose(skeleton, rng):
    """Rotation vectors (21, 3) within the _LIMIT_* angles; TIP joints stay rigid.

    An MCP's flexion axis is perpendicular to z, so its angle is at most
    hypot(0.92 * _LIMIT_MCP, _ABDUCTION) < _LIMIT_MCP.
    """
    pose = np.zeros((NUM_JOINTS, 3))
    axis = rng.normal(size=3)
    pose[0] = axis / np.linalg.norm(axis) * rng.uniform(0.0, _LIMIT_WRIST)
    axes = skeleton.flex_axes
    for base in range(1, NUM_JOINTS, 4):  # MCP, PIP and DIP of each finger
        flex = rng.uniform(0.0, 0.92 * _LIMIT_MCP)
        abd = rng.uniform(-_ABDUCTION, _ABDUCTION)
        pose[base] = flex * axes[base] + abd * np.array([0.0, 0.0, 1.0])
        pose[base + 1] = rng.uniform(0.0, _LIMIT_PIP) * axes[base + 1]
        pose[base + 2] = rng.uniform(0.0, _LIMIT_DIP) * axes[base + 2]
    return pose


def forward_kinematics(skeleton, pose):
    """World rigid transform per joint: x -> R[j] @ x + t[j]."""
    R_local = _rotvec_to_matrix(pose)
    R = np.zeros((NUM_JOINTS, 3, 3))
    t = np.zeros((NUM_JOINTS, 3))
    for j in range(NUM_JOINTS):
        p = skeleton.joints[j]
        # local transform rotates about the joint's canonical position
        R_piv = R_local[j]
        t_piv = p - R_piv @ p
        par = skeleton.parents[j]
        if par < 0:
            R[j], t[j] = R_piv, t_piv
        else:
            R[j] = R[par] @ R_piv
            t[j] = R[par] @ t_piv + t[par]
    return R, t


def skin(assets, pose):
    """Linear blend skinning; output is root-centered (wrist at origin)."""
    R, t = forward_kinematics(assets.skeleton, pose)
    V = assets.W @ t + np.einsum("vj,jab,vb->va", assets.W, R, assets.vertices, optimize=True)
    root = R[0] @ assets.skeleton.joints[0] + t[0]
    return V - root


def project(points, camera):
    """Weak perspective: (u, v) = scale * (x, y) + translation."""
    s, tx, ty = float(camera[0]), float(camera[1]), float(camera[2])
    pts = np.asarray(points, dtype=np.float64)
    return s * pts[..., :2] + np.array([tx, ty])


def fit_camera(V, rng):
    """Scale/translate so every projected vertex lands inside the image
    with a margin, with bounded random zoom and shift."""
    xy = V[:, :2]
    lo, hi = xy.min(axis=0), xy.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1]))
    s = (IMAGE_SIZE - 2 * 20.0) / span * rng.uniform(0.75, 1.0)
    center = 0.5 * (lo + hi)
    t = IMAGE_SIZE / 2.0 - s * center
    free = (IMAGE_SIZE - 2 * 8.0) - s * (hi - lo)  # the shift keeps an 8 px border
    shift = rng.uniform(-0.5, 0.5, size=2) * np.maximum(free, 0.0)
    return np.array([s, t[0] + shift[0], t[1] + shift[1]])


def gaussian_blur(counts):
    """scipy.ndimage.gaussian_filter(counts, sigma=_BLUR_SIGMA) of a 2-D float64
    array whose sides exceed _BLUR_REACH, bit for bit, in numpy.

    scipy filters axis 0, then axis 1, each with its "reflect" border
    (d c b a | a b c d | d c b a, numpy's "symmetric"). Here the image is
    padded on both axes at once and axis 0 runs over every padded column:
    a border column holds the same values as the column it mirrors, so the
    rows come out already padded for axis 1. Each pass reads its input flat,
    where a shift by k along the axis is a shift by k * step, so every sum
    runs over one contiguous span; along axis 1 the span crosses the row
    ends, and those sums land in the border columns that are dropped. Each
    output is x * w0, then += (left + right) * w_j from the outermost pair
    inwards, the order in which scipy sums a symmetric kernel.
    """
    r = _BLUR_REACH
    h, w = counts.shape
    wide = w + 2 * r
    pad = np.pad(counts, r, mode="symmetric").reshape(-1)
    rows, tmp = np.empty(h * wide), np.empty(h * wide)
    for src, dst, step in ((pad, rows, wide), (rows, pad, 1)):
        n = src.size - 2 * r * step
        acc, part = dst[:n], tmp[:n]
        np.multiply(src[r * step:r * step + n], _BLUR_WEIGHTS[r], out=acc)
        for j in range(r):
            left, right = j * step, (2 * r - j) * step
            np.add(src[left:left + n], src[right:right + n], out=part)
            part *= _BLUR_WEIGHTS[j]
            acc += part
    return pad[:h * wide].reshape(h, wide)[:, :w]


def render_input(J_2d, V_2d, out):
    """22 channels in [0, 1]: 21 unit-peak Gaussian heatmaps at the 2D
    joints plus one soft silhouette from binned projected vertices. Values
    are computed in float64, then cast into every element of `out` (INPUT_SHAPE).

    The silhouette is `gaussian_blur`, scipy's `gaussian_filter` with
    sigma 3 in numpy, over only the vertex bins' box widened by the filter's
    reach and clipped to the image: every pixel outside it is zero, and the
    widening keeps the crop's `reflect` border reading zeros, so the result
    is bit for bit that of blurring the whole image. The crop is at least
    13 pixels (the reach plus one) on each side.
    """
    grid = np.arange(IMAGE_SIZE, dtype=np.float64)
    gx = np.exp(-0.5 * ((grid - J_2d[:, 0:1]) / HEATMAP_SIGMA) ** 2)
    gy = np.exp(-0.5 * ((grid - J_2d[:, 1:2]) / HEATMAP_SIGMA) ** 2)
    np.multiply(gy[:, :, None], gx[:, None, :], out=out[:NUM_JOINTS])
    out[NUM_JOINTS] = 0.0
    ix = np.clip(V_2d[:, 0].round().astype(int), 0, IMAGE_SIZE - 1)
    iy = np.clip(V_2d[:, 1].round().astype(int), 0, IMAGE_SIZE - 1)
    y0, y1 = max(iy.min() - _BLUR_REACH, 0), min(iy.max() + _BLUR_REACH + 1, IMAGE_SIZE)
    x0, x1 = max(ix.min() - _BLUR_REACH, 0), min(ix.max() + _BLUR_REACH + 1, IMAGE_SIZE)
    counts = np.zeros((y1 - y0, x1 - x0))
    np.add.at(counts, (iy - y0, ix - x0), 1.0)
    blur = gaussian_blur(counts)
    np.divide(blur, blur.max(), out=out[NUM_JOINTS, y0:y1, x0:x1])
    return out


def generate_sample(assets, seed, out=None):
    """One fully self-consistent sample: J_2d := project(J @ V_3d).
    The input is rendered into `out` if given, else into a new float32 array."""
    if out is None:
        out = np.empty(INPUT_SHAPE, dtype=np.float32)
    pose = sample_pose(assets.skeleton, substream(seed, "pose"))
    V = skin(assets, pose)
    camera = fit_camera(V, substream(seed, "camera"))
    V2 = project(V, camera)
    J2 = project(assets.J @ V, camera)
    inp = render_input(J2, V2, out=out)
    return HandSample(input=inp, V_3d=V, J_2d=J2, camera=camera)
