"""Synthetic hand generator: construction contracts and consistency oracles."""

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from handmesh import synth
from handmesh.rng import substream
from helpers import render_input_loop


@pytest.fixture(scope="module")
def assets():
    return synth.build_assets()


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def fk_oracle(skeleton, pose, j):
    """Compose pivot transforms root-to-joint explicitly, with scipy's
    rotation-vector conversion as an independent Rodrigues route."""
    chain = []
    k = j
    while k != -1:
        chain.append(k)
        k = int(skeleton.parents[k])
    chain.reverse()
    R = np.eye(3)
    t = np.zeros(3)
    for k in chain:
        Rk = Rotation.from_rotvec(pose[k]).as_matrix()
        p = skeleton.joints[k]
        tk = p - Rk @ p
        R, t = R @ Rk, R @ tk + t
    return R, t


def lbs_oracle(assets, pose):
    transforms = [fk_oracle(assets.skeleton, pose, j) for j in range(synth.NUM_JOINTS)]
    V = np.zeros_like(assets.vertices)
    for i in range(len(V)):
        acc = np.zeros(3)
        for j in range(synth.NUM_JOINTS):
            w = assets.W[i, j]
            if w > 0:
                R, t = transforms[j]
                acc += w * (R @ assets.vertices[i] + t)
        V[i] = acc
    R0, t0 = transforms[0]
    return V - (R0 @ assets.skeleton.joints[0] + t0)


def heatmap_sum_oracle(center, size, sigma):
    grid = np.arange(size, dtype=np.float64)
    gx = np.exp(-0.5 * ((grid - center[0]) / sigma) ** 2)
    gy = np.exp(-0.5 * ((grid - center[1]) / sigma) ** 2)
    return gx.sum() * gy.sum()


# ---------------------------------------------------------------------------
# template / skeleton / weights
# ---------------------------------------------------------------------------

class TestBuildTemplate:
    def test_counts(self, assets):
        assert assets.vertices.shape == (778, 3)
        assert assets.skeleton.joints.shape == (21, 3)

    def test_bbox_diagonal_hand_scale(self, assets):
        ext = assets.vertices.max(0) - assets.vertices.min(0)
        assert 120.0 <= np.linalg.norm(ext) <= 250.0

    def test_parents_form_tree_rooted_at_zero(self, assets):
        parents = assets.skeleton.parents
        assert parents[0] == -1
        for j in range(1, 21):
            k, hops = j, 0
            while k != 0:
                k = int(parents[k])
                assert k >= 0
                hops += 1
                assert hops <= 21
        assert (parents[1:] < np.arange(1, 21)).all()  # parents precede children

    def test_weight_rows_stochastic_and_sparse(self, assets):
        W = assets.W
        assert (W >= 0).all()
        assert np.abs(W.sum(axis=1) - 1.0).max() < 1e-8
        assert (W > 0).sum(axis=1).max() <= 4

    def test_repeated_builds_bit_identical(self):
        a, b = synth.build_assets(), synth.build_assets()
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.skeleton.joints, b.skeleton.joints)
        assert np.array_equal(a.W, b.W)
        assert np.array_equal(a.J, b.J)


class TestRegressionMatrix:
    def test_rows_sum_to_one(self, assets):
        assert np.abs(assets.J.sum(axis=1) - 1.0).max() < 1e-8
        assert (assets.J >= 0).all()

    def test_toy_selection_weights(self):
        # every vertex fully assigned to one joint: J picks those vertices
        W = np.zeros((21, 21))
        perm = np.random.default_rng(0).permutation(21)
        W[np.arange(21), perm] = 1.0
        J = synth.regression_matrix_from_weights(W)
        V = np.random.default_rng(1).normal(0, 10, (21, 3))
        est = J @ V
        for j in range(21):
            src = int(np.flatnonzero(perm == j)[0])
            assert np.array_equal(est[j], V[src])

    def test_zero_weight_joint_rejected(self):
        W = np.zeros((10, 21))
        W[:, 0] = 1.0  # every other joint unused
        with pytest.raises(ValueError):
            synth.regression_matrix_from_weights(W)

    def test_identity_pose_joints_within_frozen_bound(self, assets):
        est = assets.J @ assets.vertices
        err = np.linalg.norm(est - assets.skeleton.joints, axis=1)
        assert err.max() < 10.0


# ---------------------------------------------------------------------------
# pose sampling
# ---------------------------------------------------------------------------

def _pose_limits():
    """Per-joint angle limits: the wrist, then MCP/PIP/DIP/TIP per finger (TIP is rigid)."""
    finger = [synth._LIMIT_MCP, synth._LIMIT_PIP, synth._LIMIT_DIP, 0.0]
    return np.array([synth._LIMIT_WRIST] + 5 * finger)


class TestSamplePose:
    def test_deterministic_per_seed(self, assets):
        a = synth.sample_pose(assets.skeleton, substream(42, "pose"))
        b = synth.sample_pose(assets.skeleton, substream(42, "pose"))
        assert np.array_equal(a, b)

    def test_thousand_seeds_within_limits(self, assets):
        lims = _pose_limits()
        angles = np.array([
            np.linalg.norm(synth.sample_pose(assets.skeleton, substream(s, "pose")), axis=1)
            for s in range(1000)
        ])
        assert (angles <= lims[None, :] + 1e-12).all()

    def test_coverage_every_quartile(self, assets):
        lims = _pose_limits()
        angles = np.array([
            np.linalg.norm(synth.sample_pose(assets.skeleton, substream(s, "pose")), axis=1)
            for s in range(1000)
        ])
        for j in range(21):
            if lims[j] <= 0:
                continue
            qs = np.floor(4 * angles[:, j] / lims[j]).clip(0, 3).astype(int)
            assert set(qs) == {0, 1, 2, 3}, f"joint {j} missing a quartile"


# ---------------------------------------------------------------------------
# skinning
# ---------------------------------------------------------------------------

class TestSkin:
    def test_identity_pose_returns_centered_template(self, assets):
        V = synth.skin(assets, np.zeros((21, 3)))
        want = assets.vertices - assets.skeleton.joints[0]
        assert np.abs(V - want).max() < 1e-12

    def test_global_rotation_is_rigid(self, assets):
        pose = np.zeros((21, 3))
        pose[0] = [0.4, -0.3, 0.8]
        R0 = Rotation.from_rotvec(pose[0]).as_matrix()
        V = synth.skin(assets, pose)
        want = (assets.vertices - assets.skeleton.joints[0]) @ R0.T
        scale = np.abs(want).max()
        assert np.abs(V - want).max() / scale < 1e-10

    def test_random_pose_matches_explicit_oracle(self, assets):
        pose = synth.sample_pose(assets.skeleton, substream(3, "pose"))
        V = synth.skin(assets, pose)
        want = lbs_oracle(assets, pose)
        scale = np.abs(want).max()
        assert np.abs(V - want).max() / scale < 1e-12


# ---------------------------------------------------------------------------
# projection and rendering
# ---------------------------------------------------------------------------

class TestProject:
    def test_origin_maps_to_translation(self):
        out = synth.project(np.zeros((1, 3)), np.array([1.5, 112.0, 112.0]))
        assert np.array_equal(out, [[112.0, 112.0]])

    def test_scale_linearity(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(0, 50, (10, 3))
        a = synth.project(pts, np.array([1.0, 112.0, 112.0])) - 112.0
        b = synth.project(pts, np.array([2.0, 112.0, 112.0])) - 112.0
        assert np.abs(b - 2 * a).max() < 1e-12

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(0, 50, (30, 3))
        cam = np.array([1.7, 90.0, 130.0])
        got = synth.project(pts, cam)
        want = np.stack([1.7 * pts[:, 0] + 90.0, 1.7 * pts[:, 1] + 130.0], axis=1)
        assert np.abs(got - want).max() / np.abs(want).max() < 1e-12

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            synth.project(np.zeros((1, 3)), np.array([0.0, 0.0, 0.0]))


class TestRenderInput:
    def test_peak_at_nearest_pixel(self, assets):
        s = synth.generate_sample(assets, 99)
        for j in range(21):
            ch = s.input[j]
            iy, ix = np.unravel_index(ch.argmax(), ch.shape)
            assert ix == int(round(s.J_2d[j, 0]))
            assert iy == int(round(s.J_2d[j, 1]))

    def test_values_in_unit_range(self, assets):
        s = synth.generate_sample(assets, 100)
        assert s.input.min() >= 0.0
        assert s.input.max() <= 1.0

    def test_heatmap_integral_matches_separable_oracle(self, assets):
        s = synth.generate_sample(assets, 101)
        for j in range(21):
            want = heatmap_sum_oracle(s.J_2d[j], synth.IMAGE_SIZE, synth.HEATMAP_SIGMA)
            got = s.input[j].sum()
            assert abs(got - want) / want < 1e-6

    def test_matches_loop_oracle_bit_for_bit(self, assets):
        out = np.empty((synth.NUM_JOINTS + 1, synth.IMAGE_SIZE, synth.IMAGE_SIZE), np.float32)
        for seed in range(20):
            s = synth.generate_sample(assets, seed)
            V_2d = synth.project(s.V_3d, s.camera)
            want = render_input_loop(s.J_2d, V_2d)
            got = synth.render_input(s.J_2d, V_2d)
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
            # the sample holds the same render, cast once to float32
            assert s.input.tobytes() == want.astype("<f4").tobytes()
            # a poisoned buffer shows any element the float32 path leaves unwritten
            out.fill(np.nan)
            assert synth.render_input(s.J_2d, V_2d, out=out) is out
            assert out.tobytes() == want.astype("<f4").tobytes()

    @pytest.mark.parametrize("corners", [
        [(0, 0), (223, 223), (0, 223), (223, 0)],
        [(0, 0), (3, 5)],
        [(223, 223), (215, 219)],
        [(200, 0), (223, 30)],
        [(-4.0, 110.0), (6.0, 120.0)],
        [(230.0, 111.4), (112.0, -9.0)],
        [(111.6, 112.4)],
    ], ids=["four-corners", "top-left", "bottom-right", "top-edge", "left-outside",
            "clipped-outside", "one-bin"])
    def test_silhouette_at_image_edges_matches_loop_oracle(self, corners):
        # vertex bins that touch the edges and corners clip the blurred crop
        # to the image, so the crop's border meets the filter's reflect border
        rng = np.random.default_rng(70)
        lo, hi = np.min(corners, axis=0), np.max(corners, axis=0)
        V_2d = np.concatenate([np.array(corners, float), rng.uniform(lo, hi, (40, 2))])
        J_2d = rng.uniform(0, synth.IMAGE_SIZE - 1, (synth.NUM_JOINTS, 2))
        want = render_input_loop(J_2d, V_2d)
        assert want[synth.NUM_JOINTS].max() == 1.0
        assert synth.render_input(J_2d, V_2d).tobytes() == want.tobytes()
        out = np.full((synth.NUM_JOINTS + 1, synth.IMAGE_SIZE, synth.IMAGE_SIZE), np.nan, np.float32)
        synth.render_input(J_2d, V_2d, out=out)
        assert out.tobytes() == want.astype("<f4").tobytes()

    def test_empty_silhouette_overwrites_out(self):
        J_2d = np.full((synth.NUM_JOINTS, 2), 100.0)
        V_2d = np.zeros((0, 2))
        out = np.full((synth.NUM_JOINTS + 1, synth.IMAGE_SIZE, synth.IMAGE_SIZE), np.nan)
        synth.render_input(J_2d, V_2d, out=out)
        assert out.tobytes() == render_input_loop(J_2d, V_2d).tobytes()


# ---------------------------------------------------------------------------
# full samples
# ---------------------------------------------------------------------------

class TestGenerateSample:
    def test_consistency_triangle(self, assets):
        for seed in (0, 7, 12345):
            s = synth.generate_sample(assets, seed)
            assert np.abs(assets.J @ s.V_3d - s.J_3d).max() < 1e-6
            assert np.abs(synth.project(s.J_3d, s.camera) - s.J_2d).max() < 1e-6

    def test_joints_inside_image(self, assets):
        for seed in range(20):
            s = synth.generate_sample(assets, seed)
            assert (s.J_2d >= 0).all() and (s.J_2d <= 223).all()

    def test_bit_deterministic(self, assets):
        a = synth.generate_sample(assets, 31415)
        b = synth.generate_sample(assets, 31415)
        for f in ("input", "V_3d", "J_3d", "J_2d", "camera"):
            assert np.array_equal(getattr(a, f), getattr(b, f))

    def test_distinct_seeds_differ(self, assets):
        a = synth.generate_sample(assets, 1)
        b = synth.generate_sample(assets, 2)
        assert not np.array_equal(a.V_3d, b.V_3d)
