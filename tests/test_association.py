import itertools
import math

import numpy as np
import scipy.optimize
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nightrider import association, pipeline
from nightrider.association import (
    ALPHA,
    MAX_RANGE,
    MIN_MATCH_SCORE,
    NO_MATCH_FLOOR,
    SIGMA_FLOOR,
    WEIGHT,
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
from nightrider.lie import ExtendedPose, se23_exp, so3_exp
from nightrider.mapping import ClusterTable, StreetlightCluster
from nightrider.pipeline import PipelineConfig, run_pipeline
from nightrider.recovery import candidate_clusters
from nightrider.sim import default_scenario
from test_extension import project


INTR = CameraIntrinsics(
    fx=500.0, fy=500.0, cx=640.0, cy=360.0, width=1280, height=720
)


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
    S = score_matrix(dets, ClusterTable(clusters), st, P, INTR)
    for i, d in enumerate(dets):
        for j, c in enumerate(clusters):
            np.testing.assert_allclose(
                S[i, j],
                pair_score(d, c, st, P, INTR),
                rtol=1e-9,
                atol=1e-300,
            )


def _full_width_score_matrix(detections, clusters, state, P, intr):
    """score_matrix over every cluster: each one linearized and scored,
    then those out of range or behind the camera zeroed."""
    n, m = len(detections), len(clusters)
    if n == 0 or m == 0:
        return np.zeros((n, m))
    Cw = np.stack([c.center for c in clusters])
    front, cc, h, _, dh_dc, Dc = bearing_jacobians(Cw, state)
    # one 1-D norm per cluster: it rounds as ClusterTable.near's range does
    rng = np.array([np.linalg.norm(c - state.pose.pos) for c in Cw])
    valid = front & (rng <= MAX_RANGE)
    f = np.array([intr.fx, intr.fy])
    pix = f * h + [intr.cx, intr.cy]
    Sc = Dc @ P @ Dc.transpose(0, 2, 1)
    Jpi = f[:, None] * dh_dc
    Sp = ALPHA * np.eye(2) + Jpi @ Sc @ Jpi.transpose(0, 2, 1)
    det2 = Sp[:, 0, 0] * Sp[:, 1, 1] - Sp[:, 0, 1] * Sp[:, 1, 0]
    dets_px = np.stack([np.asarray(d.center, dtype=float) for d in detections])
    r = dets_px[:, None, :] - pix[None, :, :]
    quad = (
        Sp[None, :, 1, 1] * r[..., 0] ** 2
        - 2.0 * Sp[None, :, 0, 1] * r[..., 0] * r[..., 1]
        + Sp[None, :, 0, 0] * r[..., 1] ** 2
    ) / det2[None, :]
    s_proj = np.exp(-0.5 * quad) / (2.0 * np.pi * np.sqrt(det2[None, :]))
    rays = np.stack([back_project(d.center, intr) for d in detections])
    n_ray = np.linalg.norm(rays, axis=1)
    u = rays / n_ray[:, None]
    n_c = np.linalg.norm(cc, axis=1)
    w = cc / n_c[:, None]
    cos = u @ w.T
    mpw = (w[None, :, :] - u[:, None, :] * cos[:, :, None]) / n_ray[:, None, None]
    d_pixel = np.einsum("nmk,kl->nml", mpw, intr.K_inv)
    pix_var = ALPHA * (d_pixel[..., 0] ** 2 + d_pixel[..., 1] ** 2)
    mcu = (u[:, None, :] - w[None, :, :] * cos[:, :, None]) / n_c[None, :, None]
    pose_var = np.einsum("nmi,mij,nmj->nm", mcu, Sc, mcu)
    var = np.maximum(pix_var + pose_var, SIGMA_FLOOR)
    r_ang = 1.0 - cos
    s_ang = np.exp(-0.5 * r_ang**2 / var) / np.sqrt(2.0 * np.pi * var)
    S = WEIGHT * s_proj + (1.0 - WEIGHT) * s_ang
    S[:, ~valid] = 0.0
    return S


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 7), st.integers(0, 12))
def test_score_matrix_equals_full_width_scorer(seed, n, m):
    rng = np.random.default_rng(seed)
    rot = so3_exp(rng.normal(size=3) * [0.1, 0.1, 2.0])
    pose = ExtendedPose(rot, np.zeros(3), rng.normal(size=3) * 20)
    st_ = FilterState(pose)
    P = _random_pose_cov(rng, scale=10.0 ** rng.uniform(-6, -1))
    # bodies ahead, behind and to the side, out to twice MAX_RANGE
    reach = np.array([2 * MAX_RANGE, 60.0, 8.0])
    clusters = [
        _cluster(j, pose.pos + pose.rot @ (rng.uniform(-1, 1, 3) * reach))
        for j in range(m)
    ]
    dets = [
        DetectionBox(rng.uniform([-50, -50], [1330, 770]), np.array([8.0, 8.0]))
        for _ in range(n)
    ]
    # detections on some projections, so that scores are not all tiny
    for c in clusters[: min(n, 3)]:
        px = project(c.center, pose, INTR)
        if px is not None:
            box = DetectionBox(px + rng.normal(size=2), np.ones(2))
            dets[int(rng.integers(n))] = box
    got = score_matrix(dets, ClusterTable(clusters), st_, P, INTR)
    want = _full_width_score_matrix(dets, clusters, st_, P, INTR)
    assert got.shape == want.shape == (n, m)
    assert got.tobytes() == want.tobytes()
    # the no-match column sums the same full-width row
    assert got.sum(axis=1).tobytes() == want.sum(axis=1).tobytes()


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


@st.composite
def _assignment_problems(draw):
    """Score matrices of 1-20 rows: uniform floats, small integers with
    heavy ties, or associate's layout (cluster columns, some all zero,
    then one equal no-match column per row)."""
    n = draw(st.integers(1, 20))
    kind = draw(st.sampled_from(["uniform", "ties", "associate"]))
    if kind == "associate":
        m = draw(st.integers(0, 10))
        S = draw(arrays(float, (n, m), elements=st.floats(0.0, 0.3)))
        S[:, draw(arrays(bool, m))] = 0.0
        no_match = np.maximum(1.0 - S.sum(axis=1), association.NO_MATCH_FLOOR)
        return np.concatenate([S, np.repeat(no_match[:, None], n, axis=1)], axis=1)
    m = draw(st.integers(n, n + 10))
    elements = st.floats(0.0, 1.0) if kind == "uniform" else st.sampled_from([0.0, 1.0, 2.0])
    return draw(arrays(float, (n, m), elements=elements))


@settings(max_examples=400, deadline=None)
@given(_assignment_problems())
@example(np.array([[0.25]]))
@example(np.ones((3, 3)))
@example(np.zeros((20, 20)))
def test_hungarian_agrees_with_scipy(S):
    # the same column for every row, so ties break as scipy breaks them
    want = scipy.optimize.linear_sum_assignment(S, maximize=True)[1].tolist()
    assert hungarian(S) == want


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_hungarian_rejects_non_finite_scores(bad):
    S = np.ones((2, 3))
    S[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        hungarian(S)


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
    ms = associate(dets, ClusterTable(clusters), st, P, INTR)
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
    ms = associate(dets, ClusterTable(clusters), st, P, INTR)
    assert ms.cluster_ids[0] == 0
    assert ms.cluster_ids[1] is None


class _FirstCall(Exception):
    pass


def test_associate_leaves_a_pair_under_min_match_score_unmatched(monkeypatch):
    # On the first frame of default_scenario(7) with perturb_init two
    # detections claim one lamp: their rows sum above one, so the loser
    # forfeits its no-match option and the assignment pins it onto
    # cluster 10 at a score of 3.0e-6.
    def first_call(*args):
        raise _FirstCall(args)

    monkeypatch.setattr(pipeline, "associate", first_call)
    with pytest.raises(_FirstCall) as stop:
        run_pipeline(default_scenario(7), config=PipelineConfig(perturb_init=True))
    dets, table, state, P, intr = stop.value.args[0]
    assert state.t == pytest.approx(0.1)

    S = score_matrix(dets, table, state, P, intr)
    no_match = np.maximum(1.0 - S.sum(axis=1), NO_MATCH_FLOOR)
    cols = hungarian(np.hstack([S, np.repeat(no_match[:, None], len(dets), axis=1)]))
    m = len(table)
    pinned = [i for i, j in enumerate(cols) if j < m and S[i, j] < MIN_MATCH_SCORE]
    assert [table.ids[cols[i]] for i in pinned] == [10]
    i = pinned[0]
    assert NO_MATCH_FLOOR < S[i, cols[i]] < MIN_MATCH_SCORE

    ms = associate(dets, table, state, P, intr)
    assert ms.cluster_ids[i] is None
    assert ms.scores[i] == S[i, cols[i]]  # the assignment's score stays
    for k, j in enumerate(cols):
        if k != i:
            assert ms.cluster_ids[k] == (table.ids[j] if j < m else None)


def test_associate_never_reuses_a_cluster():
    rng = np.random.default_rng(57)
    st, clusters = _scene(rng, n_clusters=3)
    P = np.eye(15) * 1e-4
    pix = project(clusters[1].center, st.pose, INTR)
    dets = [
        DetectionBox(pix + np.array([0.5, 0.0]), np.array([10.0, 10.0])),
        DetectionBox(pix - np.array([0.5, 0.0]), np.array([10.0, 10.0])),
    ]
    ms = associate(dets, ClusterTable(clusters), st, P, INTR)
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

        S = score_matrix(dets, ClusterTable(clusters), st, P, INTR)
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

        ms = associate(dets, ClusterTable(clusters), st, P, INTR)
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
    ms = associate([], ClusterTable([]), st, P, INTR)
    assert ms.cluster_ids == []
    det = DetectionBox(np.array([640.0, 360.0]), np.array([10.0, 10.0]))
    ms = associate([det], ClusterTable([]), st, P, INTR)
    assert ms.cluster_ids == [None]


def test_one_range_rule_at_the_boundary():
    # this lamp's distance rounds to MAX_RANGE by a pairwise row sum and to
    # the next double above it by the 1-D dot product; it is in front and
    # in the image, so only the range rule decides whether it is seen
    st = FilterState(ExtendedPose(pos=np.zeros(3)))
    lamp = _cluster(0, [49.28255403783881, 5.8020152753912, -6.1291505326289135])
    assert np.linalg.norm(lamp.center[None], axis=1)[0] == MAX_RANGE
    pix = project(lamp.center, st.pose, INTR)
    np.testing.assert_allclose(pix, [581.1, 422.2], atol=0.05)
    det = DetectionBox(pix, np.array([10.0, 10.0]))
    table = ClusterTable([lamp])
    scored = score_matrix([det], table, st, np.eye(15) * 1e-4, INTR)[0, 0] > 0
    near = bool(table.near(st.pose.pos, MAX_RANGE)[0])
    candidate = len(candidate_clusters(table, st.pose, INTR)) == 1
    assert scored == near == candidate
