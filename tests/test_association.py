import itertools
import math

import numpy as np
import scipy.optimize

from nightrider import association
from nightrider.association import (
    SIGMA_FLOOR,
    MatchSet,
    associate,
    hungarian,
    score_matrix,
)
from nightrider.camera import (
    CameraIntrinsics,
    DetectionBox,
    back_project,
    bearing_jacobians,
)
from nightrider.inekf import FilterState
from nightrider.lie import ExtendedPose, se23_exp
from nightrider.mapping import StreetlightCluster
from test_extension import project


INTR = CameraIntrinsics(fx=500.0, fy=500.0, cx=640.0, cy=360.0)


def _state_looking_down_x(rng=None, pos=(0.0, 0.0, 1.0)):
    return FilterState(ExtendedPose(pos=np.array(pos, dtype=float)))


def _random_pose_cov(rng, scale=1e-3):
    M = rng.normal(size=(15, 15))
    return M @ M.T * scale


def _cluster(cid, center):
    return StreetlightCluster(cid, np.asarray(center, dtype=float))


# ------------------------------------------- scalar reference scorers
# One pair at a time, from per-pair Jacobians against the filter's
# right-invariant error (the coordinates of P); score_matrix must equal
# pair_score entry by entry.


def projection_jacobian(state, center_w, intr):
    """2x15 sensitivity of the projected center to the invariant error,
    diag(fx, fy) H.  None behind the camera."""
    front, _, _, H, _, _ = bearing_jacobians([center_w], state)
    if not front[0]:
        return None
    return np.diag([intr.fx, intr.fy]) @ H[0]


def angle_gradients(state, detection_pixel, center_w, intr):
    """cos(theta) between back-projected and predicted rays plus gradients.

    Returns (cos_theta, d_cos/d_pixel_homog (3,), d_cos/d_xi (15,)) or
    None behind the camera; xi is the invariant error, as in
    projection_jacobian.
    """
    front, c, _, _, _, Dc = bearing_jacobians([center_w], state)
    if not front[0]:
        return None
    ray = back_project(detection_pixel, intr)
    n_ray = np.linalg.norm(ray)
    n_c = np.linalg.norm(c[0])
    u = ray / n_ray
    w = c[0] / n_c
    cos_theta = float(u @ w)

    d_pixel = ((w - u * cos_theta) / n_ray) @ intr.K_inv
    grad = ((u - w * cos_theta) / n_c) @ Dc[0]
    return cos_theta, d_pixel, grad


def sigma_proj(state, P, center_w, intr, alpha):
    """Reprojection covariance: alpha I plus the filter's covariance pushed
    through the projection Jacobian.  None when behind the camera."""
    J = projection_jacobian(state, center_w, intr)
    if J is None:
        return None
    return alpha * np.eye(2) + J @ P @ J.T


def sigma_ang(state, P, detection_pixel, center_w, intr, alpha):
    """Variance of the angular residual 1 - cos(theta), floored."""
    out = angle_gradients(state, detection_pixel, center_w, intr)
    if out is None:
        return None
    _, d_pixel, grad = out
    pix_var = alpha * (d_pixel[0] ** 2 + d_pixel[1] ** 2)
    pose_var = grad @ P @ grad
    return max(pix_var + pose_var, SIGMA_FLOOR)


def pair_score(detection, cluster, state, P, intr):
    """Blended density score; exactly 0 for gated-out pairs.  Reads the
    association module's WEIGHT, ALPHA and MAX_RANGE when called."""
    weight, alpha = association.WEIGHT, association.ALPHA
    C = cluster.center
    if np.linalg.norm(C - state.pose.pos) > association.MAX_RANGE:
        return 0.0
    pix = project(C, state.pose, intr)
    if pix is None:
        return 0.0

    Sp = sigma_proj(state, P, C, intr, alpha)
    r = np.asarray(detection.center, dtype=float) - pix
    det2 = Sp[0, 0] * Sp[1, 1] - Sp[0, 1] * Sp[1, 0]
    quad = (
        Sp[1, 1] * r[0] ** 2 - 2.0 * Sp[0, 1] * r[0] * r[1] + Sp[0, 0] * r[1] ** 2
    ) / det2
    s_proj = np.exp(-0.5 * quad) / (2.0 * np.pi * np.sqrt(det2))

    cos_theta, _, _ = angle_gradients(state, detection.center, C, intr)
    var = sigma_ang(state, P, detection.center, C, intr, alpha)
    r_ang = 1.0 - cos_theta
    s_ang = np.exp(-0.5 * r_ang**2 / var) / np.sqrt(2.0 * np.pi * var)

    return float(weight * s_proj + (1.0 - weight) * s_ang)


# ------------------------------------------------------------- sigma_proj


def test_sigma_proj_zero_cov_is_alpha_identity():
    st = _state_looking_down_x()
    S = sigma_proj(st, np.zeros((15, 15)), [20.0, 1.0, 5.0], INTR, alpha=4.0)
    np.testing.assert_allclose(S, 4.0 * np.eye(2), atol=1e-12)


def left_fd(f, pose, h):
    """Central differences of f(se23_exp(-xi) pose) in xi, negated, as
    columns; the model is f(truth) - f(est) = -J xi with the truth at
    se23_exp(-xi) est."""
    cols = []
    for k in range(9):
        e = np.zeros(9)
        e[k] = h
        plus, minus = f(se23_exp(-e).compose(pose)), f(se23_exp(e).compose(pose))
        cols.append(-(plus - minus) / (2 * h))
    return np.stack(cols, axis=-1)


def test_projection_jacobian_matches_finite_differences():
    rng = np.random.default_rng(50)
    h = 1e-6
    for _ in range(50):
        pose = se23_exp(
            np.concatenate([rng.normal(size=3) * 0.3, rng.normal(size=6) * 2.0])
        )
        st = FilterState(pose)
        C = pose.pos + pose.rot @ np.array([15.0, 0.0, 3.0]) + rng.normal(size=3)
        J = projection_jacobian(st, C, INTR)
        if J is None:
            continue
        J_fd = left_fd(lambda pose_: project(C, pose_, INTR), pose, h)
        scale = max(np.abs(J).max(), 1.0)
        assert np.abs(J_fd - J[:, :9]).max() / scale < 1e-5
        assert not J[:, 9:].any()  # biases do not move the projection


def test_sigma_proj_shrinks_with_range():
    # same position uncertainty, doubled distance: roughly quarter variance
    st = _state_looking_down_x()
    P = np.zeros((15, 15))
    P[6:9, 6:9] = np.eye(3) * 0.04
    near = sigma_proj(st, P, [20.0, 0.0, 4.0], INTR, alpha=0.0)
    far = sigma_proj(st, P, [40.0, 0.0, 7.0], INTR, alpha=0.0)
    ratio = np.trace(far) / np.trace(near)
    assert 0.15 < ratio < 0.4


# -------------------------------------------------------------- sigma_ang


def test_sigma_ang_floors_for_aligned_ray_and_zero_cov():
    st = _state_looking_down_x()
    C = np.array([25.0, 2.0, 6.0])
    pix = project(C, st.pose, INTR)
    var = sigma_ang(st, np.zeros((15, 15)), pix, C, INTR, alpha=4.0)
    assert var == 1e-12  # gradient of cos vanishes at the optimum


def test_sigma_ang_positive_off_axis():
    st = _state_looking_down_x()
    C = np.array([25.0, 2.0, 6.0])
    pix = project(C, st.pose, INTR) + np.array([40.0, -25.0])
    var = sigma_ang(st, np.eye(15) * 1e-4, pix, C, INTR, alpha=4.0)
    assert var > 1e-10


def test_angle_gradients_match_finite_differences():
    rng = np.random.default_rng(51)
    h = 1e-6
    checked = 0
    while checked < 40:
        pose = se23_exp(
            np.concatenate([rng.normal(size=3) * 0.3, rng.normal(size=6) * 2.0])
        )
        st = FilterState(pose)
        C = pose.pos + pose.rot @ np.array([18.0, 0.0, 4.0]) + rng.normal(size=3)
        pix_true = project(C, pose, INTR)
        if pix_true is None:
            continue
        pix = pix_true + rng.normal(size=2) * 30.0
        out = angle_gradients(st, pix, C, INTR)
        if out is None:
            continue
        checked += 1
        _, d_pixel, grad = out

        def cos_of(pose_, pix_):
            o = angle_gradients(FilterState(pose_), pix_, C, INTR)
            return o[0]

        fd_pix = np.zeros(3)
        for k in range(2):  # homogeneous third component has no effect path
            e = np.zeros(2)
            e[k] = h
            fd_pix[k] = (cos_of(pose, pix + e) - cos_of(pose, pix - e)) / (2 * h)
        # third homogeneous coordinate: perturb the ray directly
        assert np.abs(fd_pix[:2] - d_pixel[:2]).max() < 1e-5 * max(
            np.abs(d_pixel).max(), 1e-6
        ) + 1e-10

        fd = left_fd(lambda pose_: cos_of(pose_, pix), pose, h)
        scale = max(np.abs(grad).max(), 1e-8)
        assert np.abs(fd - grad[:9]).max() / scale < 1e-4
        assert not grad[9:].any()


# -------------------------------------------------------------- pair_score


def test_pair_score_gates_range_and_behind():
    st = _state_looking_down_x()
    P = np.eye(15) * 1e-4
    det = DetectionBox(np.array([640.0, 200.0]), np.array([10.0, 10.0]))
    assert pair_score(det, _cluster(0, [80.0, 0.0, 5.0]), st, P, INTR) == 0.0
    assert pair_score(det, _cluster(0, [-10.0, 0.0, 5.0]), st, P, INTR) == 0.0


def test_pair_score_prefers_nearby_detection():
    st = _state_looking_down_x()
    P = np.eye(15) * 1e-4
    C = _cluster(0, [25.0, 1.0, 5.0])
    pix = project(C.center, st.pose, INTR)
    close = DetectionBox(pix + np.array([1.0, -1.0]), np.array([10.0, 10.0]))
    far = DetectionBox(pix + np.array([60.0, 45.0]), np.array([10.0, 10.0]))
    s_close = pair_score(close, C, st, P, INTR)
    s_far = pair_score(far, C, st, P, INTR)
    assert s_close > s_far
    assert s_close > 1.0  # a tight angular residual dominates the blend


def test_score_matrix_matches_pairwise_scores():
    rng = np.random.default_rng(52)
    st = FilterState(
        se23_exp(np.concatenate([rng.normal(size=3) * 0.2, rng.normal(size=6)]))
    )
    P = _random_pose_cov(rng)
    clusters = []
    for i in range(8):
        offset = np.array([rng.uniform(8, 45), rng.uniform(-12, 12), rng.uniform(3, 7)])
        clusters.append(_cluster(i, st.pose.pos + st.pose.rot @ offset))
    dets = []
    for _ in range(6):
        pix = np.array([rng.uniform(0, 1280), rng.uniform(0, 720)])
        dets.append(DetectionBox(pix, np.array([10.0, 10.0])))
    S = score_matrix(dets, clusters, st, P, INTR)
    for i, d in enumerate(dets):
        for j, c in enumerate(clusters):
            np.testing.assert_allclose(
                S[i, j],
                pair_score(d, c, st, P, INTR),
                rtol=1e-9,
                atol=1e-300,
            )


# --------------------------------------------------------------- hungarian


def _brute_force_best(S):
    n, m = S.shape
    best = -math.inf
    for perm in itertools.permutations(range(m), n):
        total = sum(S[i, j] for i, j in enumerate(perm))
        best = max(best, total)
    return best


def test_hungarian_unique_best_pairing():
    S = np.array([[0.9, 0.1], [0.2, 0.8]])
    assert hungarian(S) == [0, 1]


def test_hungarian_matches_brute_force():
    rng = np.random.default_rng(53)
    for _ in range(300):
        n = rng.integers(1, 7)
        m = rng.integers(n, 9)
        S = rng.uniform(0.0, 1.0, size=(n, m))
        cols = hungarian(S)
        assert sorted(set(cols)) == sorted(cols)  # one-to-one
        total = sum(S[i, j] for i, j in enumerate(cols))
        np.testing.assert_allclose(total, _brute_force_best(S), rtol=1e-12)


def test_hungarian_agrees_with_scipy():
    rng = np.random.default_rng(54)
    for _ in range(200):
        n = rng.integers(1, 7)
        m = rng.integers(n, 10)
        S = rng.uniform(size=(n, m))
        cols = hungarian(S)
        rr, cc = scipy.optimize.linear_sum_assignment(S, maximize=True)
        mine = sum(S[i, j] for i, j in enumerate(cols))
        ref = S[rr, cc].sum()
        np.testing.assert_allclose(mine, ref, rtol=1e-12)


# --------------------------------------------------------------- associate


def _scene(rng, n_clusters=5):
    st = _state_looking_down_x()
    clusters = []
    for i in range(n_clusters):
        c = np.array([rng.uniform(12, 45), rng.uniform(-10, 10), rng.uniform(4, 7)])
        clusters.append(_cluster(i, c))
    return st, clusters


def test_associate_matches_obvious_scene():
    rng = np.random.default_rng(55)
    st, clusters = _scene(rng)
    P = np.eye(15) * 1e-5
    dets = []
    for c in clusters[:3]:
        pix = project(c.center, st.pose, INTR)
        dets.append(DetectionBox(pix + rng.normal(size=2) * 0.5, np.array([10.0, 10.0])))
    ms = associate(dets, clusters, st, P, INTR)
    assert ms.cluster_ids == [0, 1, 2]


def test_associate_leaves_stray_detection_unmatched():
    rng = np.random.default_rng(56)
    st, clusters = _scene(rng, n_clusters=2)
    P = np.eye(15) * 1e-5
    pix0 = project(clusters[0].center, st.pose, INTR)
    dets = [
        DetectionBox(pix0, np.array([10.0, 10.0])),
        DetectionBox(np.array([100.0, 650.0]), np.array([8.0, 8.0])),  # nothing there
    ]
    ms = associate(dets, clusters, st, P, INTR)
    assert ms.cluster_ids[0] == 0
    assert ms.cluster_ids[1] is None


def test_associate_never_reuses_a_cluster():
    rng = np.random.default_rng(57)
    st, clusters = _scene(rng, n_clusters=3)
    P = np.eye(15) * 1e-4
    pix = project(clusters[1].center, st.pose, INTR)
    dets = [
        DetectionBox(pix + np.array([0.5, 0.0]), np.array([10.0, 10.0])),
        DetectionBox(pix - np.array([0.5, 0.0]), np.array([10.0, 10.0])),
    ]
    ms = associate(dets, clusters, st, P, INTR)
    matched = ms.matched_ids()
    assert len(matched) == len(set(matched))


def test_associate_total_score_matches_exhaustive_search():
    rng = np.random.default_rng(58)
    for _ in range(40):
        st, clusters = _scene(rng, n_clusters=int(rng.integers(1, 6)))
        P = _random_pose_cov(rng, scale=1e-3)
        n = int(rng.integers(1, 6))
        dets = []
        for _ in range(n):
            if rng.random() < 0.7 and clusters:
                c = clusters[rng.integers(len(clusters))]
                pix = project(c.center, st.pose, INTR)
                if pix is None:
                    pix = np.array([rng.uniform(0, 1280), rng.uniform(0, 720)])
                pix = pix + rng.normal(size=2) * 3.0
            else:
                pix = np.array([rng.uniform(0, 1280), rng.uniform(0, 720)])
            dets.append(DetectionBox(pix, np.array([10.0, 10.0])))

        S = score_matrix(dets, clusters, st, P, INTR)
        no_match = np.maximum(1.0 - S.sum(axis=1), 1e-12)

        # exhaustive: every one-to-one map detection -> cluster or None
        m = len(clusters)
        best = -math.inf

        def recurse(i, used, total):
            nonlocal best
            if i == n:
                best = max(best, total)
                return
            recurse(i + 1, used, total + no_match[i])
            for j in range(m):
                if j not in used:
                    recurse(i + 1, used | {j}, total + S[i, j])

        recurse(0, frozenset(), 0.0)

        ms = associate(dets, clusters, st, P, INTR)
        got = 0.0
        for i, cid in enumerate(ms.cluster_ids):
            if cid is None:
                got += no_match[i]
            else:
                got += S[i, [c.id for c in clusters].index(cid)]
        np.testing.assert_allclose(got, best, rtol=1e-9)


def test_associate_empty_inputs():
    st = _state_looking_down_x()
    P = np.eye(15)
    ms = associate([], [], st, P, INTR)
    assert ms.cluster_ids == []
    det = DetectionBox(np.array([640.0, 360.0]), np.array([10.0, 10.0]))
    ms = associate([det], [], st, P, INTR)
    assert ms.cluster_ids == [None]
