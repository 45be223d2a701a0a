from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nightrider import association
from nightrider.association import MatchSet, score_matrix
from nightrider.camera import (
    Z_MIN,
    CameraIntrinsics,
    DetectionBox,
    apply_camera_update,
    back_project,
    bearing_jacobians,
    camera_point,
    pixel_noise_cov,
    project_many,
)
from nightrider.inekf import FilterState
from nightrider.lie import ExtendedPose, Trajectory, se23_exp, so3_exp
from nightrider.mapping import StreetlightCluster
from test_extension import project

INTR = CameraIntrinsics(fx=500.0, fy=500.0, cx=640.0, cy=360.0)


def test_project_known_point():
    state = FilterState()
    pix = project_many([[20.0, 0.0, 0.0], [20.0, 1.0, 0.0]], state.pose, INTR)
    np.testing.assert_allclose(pix[0], [640.0, 360.0])
    # one meter left (+y) moves the pixel left by fx * y / depth
    np.testing.assert_allclose(pix[1], [615.0, 360.0])


def test_project_behind_camera_is_none():
    state = FilterState()
    assert project([-5.0, 0.0, 0.0], state.pose, INTR) is None
    assert np.isnan(project_many([-5.0, 0.0, 0.0], state.pose, INTR)).all()


def test_project_many_equals_project_bitwise():
    rng = np.random.default_rng(91)
    # depths just below, at and above Z_MIN, seen from the identity pose
    near = np.array([[0.005, 0.1, 0.0], [0.01, 0.0, 0.0], [0.02, 0.0, 0.1]])
    cases = [(ExtendedPose(), near)]
    for _ in range(20):
        pose = ExtendedPose(so3_exp(rng.normal(size=3)), np.zeros(3), rng.normal(size=3))
        cases.append((pose, rng.normal(size=(40, 3)) * 30.0))
    for pose, points in cases:
        pix = project_many(points, pose, INTR)
        for p, row in zip(points, pix):
            ref = project(p, pose, INTR)
            if ref is None:
                assert np.isnan(row).all()
            else:
                assert row.tobytes() == ref.tobytes()


def test_camera_point_of_a_pose_stack_equals_each_pose_bitwise():
    rng = np.random.default_rng(17)
    rot = np.array([so3_exp(rng.normal(size=3)) for _ in range(6)])
    poses = Trajectory(np.arange(6.0), rot, np.zeros((6, 3)), rng.normal(size=(6, 3)))
    points = rng.normal(size=(9, 3)) * 30.0
    stacked = camera_point(points, poses)
    assert stacked.shape == (6, 9, 3)
    for i in range(6):
        assert stacked[i].tobytes() == camera_point(points, poses.pose(i)).tobytes()
        assert camera_point(points[0], poses.pose(i)).shape == (3,)


def test_back_project_matches_camera_ray():
    rng = np.random.default_rng(90)
    for _ in range(20):
        pose = ExtendedPose(
            so3_exp(rng.normal(size=3) * 0.5), pos=rng.normal(size=3) * 5
        )
        C = pose.pos + pose.rot @ (np.array([15.0, 0.0, 2.0]) + rng.normal(size=3))
        pix = project(C, pose, INTR)
        if pix is None:
            continue
        ray = back_project(pix, INTR)
        c = camera_point(C, pose)
        np.testing.assert_allclose(ray, c / c[2], atol=1e-10)


def test_bearing_jacobians_give_a_two_row_bearing():
    rng = np.random.default_rng(91)
    for _ in range(20):
        pose = ExtendedPose(so3_exp(rng.normal(size=3)), pos=rng.normal(size=3))
        C = pose.pos + pose.rot @ np.array([12.0, 1.0, 3.0])
        front, c, h, H, _, _ = bearing_jacobians([C], FilterState(pose))
        if not front[0]:
            continue
        assert H.shape == (1, 2, 15) and h.shape == (1, 2)
        c = camera_point(C, pose)
        assert h[0].tobytes() == (c[:2] / c[2]).tobytes()
        assert np.abs(H[0, :, 3:6]).max() == 0.0  # bearings carry no velocity info
        assert np.abs(H[0, :, 9:15]).max() == 0.0


def test_bearing_jacobians_match_error_model():
    # z = y - h(est) must equal -H xi to first order, with the truth at
    # exp(-xi) * est and y the noiseless normalized observation
    rng = np.random.default_rng(92)
    eps = 1e-4
    checked = 0
    while checked < 40:
        pose = se23_exp(
            np.concatenate([rng.normal(size=3) * 0.4, rng.normal(size=6) * 3.0])
        )
        st_ = FilterState(pose)
        C = pose.pos + pose.rot @ np.array([20.0, 0.0, 4.0]) + rng.normal(size=3) * 2
        front, _, h, H, _, _ = bearing_jacobians([C], st_)
        if not front[0]:
            continue
        checked += 1
        xi = rng.normal(size=9)
        xi /= np.linalg.norm(xi)

        def innovation(scale):
            true_pose = se23_exp(-scale * xi).compose(pose)
            c = camera_point(C, true_pose)
            return c[:2] / c[2] - h[0]

        z = (innovation(eps) - innovation(-eps)) / 2.0
        np.testing.assert_allclose(z, -eps * H[0, :, 0:9] @ xi, rtol=1e-5, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 12))
def test_bearing_jacobians_on_far_states(seed, m):
    """Batched rows equal single calls, rows behind the camera are zero, H
    matches central differences under se23_exp(-xi) X, and score_matrix's
    pixel covariance Sp is alpha I + F H P H' F with F = diag(fx, fy) to
    1e-12 relative, on states up to 100 m out and rotated 1 to pi
    radians."""
    rng = np.random.default_rng(seed)
    axis = rng.normal(size=3)
    rot = so3_exp(axis / np.linalg.norm(axis) * rng.uniform(1.0, np.pi))
    pos = rng.normal(size=3)
    pos *= rng.uniform(0.0, 100.0) / np.linalg.norm(pos)
    pose = ExtendedPose(rot, rng.normal(size=3) * 5.0, pos)
    state = FilterState(pose)
    # centers around the body, some behind the camera
    centers = pos + rng.uniform(-40.0, 40.0, size=(m, 3)) @ rot.T
    front, c, h, H, dh_dc, Dc = bearing_jacobians(centers, state)

    assert H.shape == (m, 2, 15) and Dc.shape == (m, 3, 15)
    np.testing.assert_array_equal(front, c[:, 2] >= Z_MIN)
    for k in range(m):
        one = bearing_jacobians(centers[k], state)
        for whole, single in zip((front, c, h, H, dh_dc, Dc), one):
            assert whole[k].tobytes() == single[0].tobytes()
    assert not h[~front].any() and not H[~front].any() and not Dc[~front].any()

    eps = 1e-6
    for k in np.flatnonzero(c[:, 2] > 1.0):
        H_fd = np.zeros((2, 9))
        for i in range(9):
            e = np.zeros(9)
            e[i] = eps
            b = [camera_point(centers[k], se23_exp(-s * e).compose(pose)) for s in (1, -1)]
            H_fd[:, i] = -(b[0][:2] / b[0][2] - b[1][:2] / b[1][2]) / (2.0 * eps)
        scale = np.abs(H[k]).max()
        assert np.abs(H_fd - H[k, :, :9]).max() <= 1e-5 * scale
        assert not H[k, :, 9:].any()

    # score_matrix with the projection density alone and each detection on
    # its cluster's projection, one detection per in-front cluster
    B = rng.normal(size=(15, 15)) * 10.0 ** rng.uniform(-3, -1)
    P = B @ B.T
    seen = np.flatnonzero(front)
    if not len(seen):
        return
    clusters = [StreetlightCluster(int(k), centers[k]) for k in seen]
    F = np.diag([INTR.fx, INTR.fy])
    pix = h[seen] @ F + [INTR.cx, INTR.cy]
    offsets = rng.normal(size=(len(seen), 2)) * 3.0
    dets = [DetectionBox(p + d, np.array([8.0, 8.0])) for p, d in zip(pix, offsets)]
    with mock.patch.multiple(association, WEIGHT=1.0, MAX_RANGE=np.inf):
        S = np.diagonal(score_matrix(dets, clusters, state, P, INTR))
    Sp = association.ALPHA * np.eye(2) + F @ H[seen] @ P @ H[seen].transpose(0, 2, 1) @ F
    quad = np.einsum("ni,nij,nj->n", offsets, np.linalg.inv(Sp), offsets)
    expect = np.exp(-0.5 * quad) / (2.0 * np.pi * np.sqrt(np.linalg.det(Sp)))
    # the density's determinant and quadratic form amplify a relative
    # error in Sp by up to cond(Sp)
    assert (np.abs(S - expect) <= 1e-12 * np.linalg.cond(Sp) * expect).all()


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
        pix = project(c.center, pose, INTR)
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
        est, P = apply_camera_update(est, P, matches, by_id, INTR, 2.0)
    assert np.linalg.norm(est.pose.pos - truth.pos) < 0.05
    assert np.linalg.norm(est.pose.rot - truth.rot) < 0.01


def test_update_empty_matchset_is_identity():
    st = FilterState()
    P = np.eye(15)
    matches = MatchSet([DetectionBox(np.array([1.0, 1.0]), np.ones(2))], [None], [0.0])
    st2, P2 = apply_camera_update(st, P, matches, {}, INTR, 2.0)
    assert st2 is st
    assert P2 is P


def test_update_drops_behind_camera_matches():
    st = FilterState()
    P = np.eye(15)
    cluster = StreetlightCluster(0, np.array([-10.0, 0.0, 3.0]))
    det = DetectionBox(np.array([640.0, 360.0]), np.ones(2))
    matches = MatchSet([det], [0], [1.0])
    st2, P2 = apply_camera_update(st, P, matches, {0: cluster}, INTR, 2.0)
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
    st_b, P_b = apply_camera_update(est0, P0, batch, by_id, INTR, 2.0)

    st_s, P_s = est0, P0
    for i in range(3):
        single = MatchSet([dets[i]], [i], [1.0])
        st_s, P_s = apply_camera_update(st_s, P_s, single, by_id, INTR, 2.0)

    assert np.linalg.norm(st_b.pose.pos - st_s.pose.pos) < 1e-6
    assert np.linalg.norm(P_b - P_s) / np.linalg.norm(P_b) < 1e-3
