import numpy as np

from nightrider.association import MatchSet
from nightrider.camera import (
    CamExtrinsics,
    CameraIntrinsics,
    DetectionBox,
    apply_camera_update,
    back_project,
    camera_H,
    camera_point,
    pixel_noise_cov,
    project,
    project_many,
)
from nightrider.inekf import FilterState
from nightrider.lie import ExtendedPose, se23_exp, so3_exp
from nightrider.mapping import StreetlightCluster

INTR = CameraIntrinsics(fx=500.0, fy=500.0, cx=640.0, cy=360.0)
EXT = CamExtrinsics()


def test_project_known_point():
    state = FilterState()
    pix = project([20.0, 0.0, 0.0], state.pose, EXT, INTR)
    np.testing.assert_allclose(pix, [640.0, 360.0])
    # one meter left (+y) moves the pixel left by fx * y / depth
    pix = project([20.0, 1.0, 0.0], state.pose, EXT, INTR)
    np.testing.assert_allclose(pix, [615.0, 360.0])


def test_project_behind_camera_is_none():
    state = FilterState()
    assert project([-5.0, 0.0, 0.0], state.pose, EXT, INTR) is None


def test_project_many_equals_project_bitwise():
    rng = np.random.default_rng(91)
    # depths just below, at and above Z_MIN, seen from the identity pose
    near = np.array([[0.005, 0.1, 0.0], [0.01, 0.0, 0.0], [0.02, 0.0, 0.1]])
    cases = [(ExtendedPose(), near)]
    for _ in range(20):
        pose = ExtendedPose(so3_exp(rng.normal(size=3)), np.zeros(3), rng.normal(size=3))
        cases.append((pose, rng.normal(size=(40, 3)) * 30.0))
    for pose, points in cases:
        pix = project_many(points, pose, EXT, INTR)
        for p, row in zip(points, pix):
            ref = project(p, pose, EXT, INTR)
            if ref is None:
                assert np.isnan(row).all()
            else:
                assert row.tobytes() == ref.tobytes()


def test_back_project_matches_camera_ray():
    rng = np.random.default_rng(90)
    for _ in range(20):
        pose = ExtendedPose(
            so3_exp(rng.normal(size=3) * 0.5), pos=rng.normal(size=3) * 5
        )
        C = pose.pos + pose.rot @ (np.array([15.0, 0.0, 2.0]) + rng.normal(size=3))
        pix = project(C, pose, EXT, INTR)
        if pix is None:
            continue
        ray = back_project(pix, INTR)
        c = camera_point(C, pose, EXT)
        np.testing.assert_allclose(ray, c / c[2], atol=1e-10)


def test_camera_H_is_a_two_row_bearing():
    rng = np.random.default_rng(91)
    for _ in range(20):
        pose = ExtendedPose(so3_exp(rng.normal(size=3)), pos=rng.normal(size=3))
        C = pose.pos + pose.rot @ np.array([12.0, 1.0, 3.0])
        out = camera_H(FilterState(pose), C, EXT, INTR)
        if out is None:
            continue
        H, h = out
        assert H.shape == (2, 15) and h.shape == (2,)
        c = camera_point(C, pose, EXT)
        assert h.tobytes() == (c[:2] / c[2]).tobytes()
        assert np.abs(H[:, 3:6]).max() == 0.0  # bearings carry no velocity info
        assert np.abs(H[:, 9:15]).max() == 0.0


def test_camera_H_matches_error_model():
    # z = y - h(est) must equal -H xi to first order, with the truth at
    # exp(-xi) * est and y the noiseless normalized observation
    rng = np.random.default_rng(92)
    eps = 1e-4
    checked = 0
    while checked < 40:
        pose = se23_exp(
            np.concatenate([rng.normal(size=3) * 0.4, rng.normal(size=6) * 3.0])
        )
        st = FilterState(pose)
        C = pose.pos + pose.rot @ np.array([20.0, 0.0, 4.0]) + rng.normal(size=3) * 2
        out = camera_H(st, C, EXT, INTR)
        if out is None:
            continue
        checked += 1
        H, h = out
        xi = rng.normal(size=9)
        xi /= np.linalg.norm(xi)

        def innovation(scale):
            true_pose = se23_exp(-scale * xi).compose(pose)
            c = camera_point(C, true_pose, EXT)
            return c[:2] / c[2] - h

        z = (innovation(eps) - innovation(-eps)) / 2.0
        np.testing.assert_allclose(z, -eps * H[:, 0:9] @ xi, rtol=1e-5, atol=1e-12)


def test_pixel_noise_cov_values():
    N = pixel_noise_cov(INTR, 2.0)
    Ki = INTR.K_inv
    expect = (Ki @ np.diag([4.0, 4.0, 0.0]) @ Ki.T)[:2, :2]
    np.testing.assert_allclose(N, expect)
    np.testing.assert_array_equal(N, np.diag([(2.0 / 500.0) ** 2] * 2))


def _scene_clusters(pose, offsets):
    clusters = []
    for i, off in enumerate(offsets):
        clusters.append(StreetlightCluster(i, pose.pos + pose.rot @ np.asarray(off)))
    return clusters


def _exact_detections(clusters, pose):
    dets = []
    for c in clusters:
        pix = project(c.center, pose, EXT, INTR)
        dets.append(DetectionBox(pix, np.array([10.0, 10.0])))
    return dets


def test_update_recovers_pose_offset():
    truth = ExtendedPose(pos=np.array([0.0, 0.0, 1.0]))
    # near and far, spread laterally and vertically: z and pitch separate
    offsets = [
        [8.0, -2.0, 2.5],
        [12.0, 4.0, 7.0],
        [25.0, 2.0, 6.0],
        [22.0, -7.0, 4.0],
        [32.0, 6.0, 5.5],
    ]
    clusters = _scene_clusters(truth, offsets)
    dets = _exact_detections(clusters, truth)
    matches = MatchSet(dets, [c.id for c in clusters], [1.0] * len(dets))
    by_id = {c.id: c for c in clusters}

    est = FilterState(
        ExtendedPose(
            so3_exp(np.array([0.01, -0.02, 0.03])),
            np.zeros(3),
            truth.pos + np.array([0.3, -0.2, 0.4]),
        )
    )
    P = np.eye(15) * 1e-4
    P[0:3, 0:3] = np.eye(3) * 0.01
    P[6:9, 6:9] = np.eye(3) * 1.0
    for _ in range(4):
        est, P = apply_camera_update(est, P, matches, by_id, EXT, INTR, 2.0)
    assert np.linalg.norm(est.pose.pos - truth.pos) < 0.05
    assert np.linalg.norm(est.pose.rot - truth.rot) < 0.01


def test_update_empty_matchset_is_identity():
    st = FilterState()
    P = np.eye(15)
    matches = MatchSet([DetectionBox(np.array([1.0, 1.0]), np.ones(2))], [None], [0.0])
    st2, P2 = apply_camera_update(st, P, matches, {}, EXT, INTR, 2.0)
    assert st2 is st
    assert P2 is P


def test_update_drops_behind_camera_matches():
    st = FilterState()
    P = np.eye(15)
    cluster = StreetlightCluster(0, np.array([-10.0, 0.0, 3.0]))
    det = DetectionBox(np.array([640.0, 360.0]), np.ones(2))
    matches = MatchSet([det], [0], [1.0])
    st2, P2 = apply_camera_update(st, P, matches, {0: cluster}, EXT, INTR, 2.0)
    assert st2 is st
    assert P2 is P


def test_batch_update_equals_sequential_for_small_errors():
    truth = ExtendedPose(pos=np.array([0.0, 0.0, 1.0]))
    clusters = _scene_clusters(truth, [[20.0, -4.0, 5.0], [26.0, 3.0, 6.0], [30.0, 0.0, 4.5]])
    dets = _exact_detections(clusters, truth)
    by_id = {c.id: c for c in clusters}

    est0 = FilterState(ExtendedPose(pos=truth.pos + np.array([1e-4, -1e-4, 2e-4])))
    P0 = np.eye(15) * 1e-3

    batch = MatchSet(dets, [0, 1, 2], [1.0] * 3)
    st_b, P_b = apply_camera_update(est0, P0, batch, by_id, EXT, INTR, 2.0)

    st_s, P_s = est0, P0
    for i in range(3):
        single = MatchSet([dets[i]], [i], [1.0])
        st_s, P_s = apply_camera_update(st_s, P_s, single, by_id, EXT, INTR, 2.0)

    assert np.linalg.norm(st_b.pose.pos - st_s.pose.pos) < 1e-6
    assert np.linalg.norm(P_b - P_s) / np.linalg.norm(P_b) < 1e-3
