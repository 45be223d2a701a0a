import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nightrider import recovery
from nightrider.association import MatchSet
from nightrider.camera import (
    MAX_BEARING_VAR,
    CameraIntrinsics,
    DetectionBox,
    apply_camera_update,
    bearing_jacobians,
    pixel_noise_cov,
)
from nightrider.inekf import (
    RCOND,
    FilterState,
    UpdateRejected,
    admissible,
    invariant_update,
)
from nightrider.lie import ExtendedPose, so3_exp
from nightrider.mapping import ClusterTable, StreetlightCluster
from nightrider.pipeline import initial_covariance
from nightrider.recovery import (
    RecoveryParams,
    assignment_array,
    attempt_recovery,
    combination_count,
    is_lost,
)
from test_extension import project

INTR = CameraIntrinsics(
    fx=500.0, fy=500.0, cx=640.0, cy=360.0, width=1280, height=720
)


def assignments(n, m):
    """The rows of assignment_array(n, m), as tuples of ints."""
    for row in assignment_array(n, m).tolist():
        yield tuple(row)


def test_is_lost_boundaries():
    assert recovery.LOST_AFTER == 3.0
    assert not is_lost(0.0)
    assert not is_lost(3.0)  # strict inequality at the boundary
    assert is_lost(3.0 + 1e-9)


def test_combination_count_matches_enumeration():
    for n in range(0, 5):
        for m in range(0, 5):
            combos = list(assignments(n, m))
            assert len(combos) == combination_count(n, m)
            assert len(set(combos)) == len(combos)
            for combo in combos:
                pos = [j for j in combo if j >= 0]
                assert len(pos) == len(set(pos))  # one-to-one over clusters


def test_assignments_lexicographic_none_first():
    assert list(assignments(1, 2)) == [(-1,), (0,), (1,)]
    assert list(assignments(2, 1)) == [(-1, -1), (-1, 0), (0, -1)]
    combos = list(assignments(3, 3))
    assert combos[0] == (-1, -1, -1)


def _recursive_assignments(n, m):
    """Reference oracle: the recursive enumeration assignment_array replaced."""
    used = set()
    cur = []

    def rec(i):
        if i == n:
            yield tuple(cur)
            return
        cur.append(-1)
        yield from rec(i + 1)
        cur.pop()
        for j in range(m):
            if j not in used:
                used.add(j)
                cur.append(j)
                yield from rec(i + 1)
                cur.pop()
                used.remove(j)

    yield from rec(0)


def test_assignment_array_equals_recursive_enumeration():
    for n in range(6):
        for m in range(9):
            rows = assignment_array(n, m)
            assert rows.shape == (combination_count(n, m), n)
            want = list(_recursive_assignments(n, m))
            assert [tuple(r) for r in rows.tolist()] == want
            assert list(assignments(n, m)) == want
    assert assignment_array(0, 4).shape == (1, 0)
    assert assignment_array(3, 0).tolist() == [[-1, -1, -1]]


def test_assignment_array_dtype_holds_every_cluster():
    assert assignment_array(5, 8).dtype == np.int8
    rows = assignment_array(1, 300)
    assert rows[:, 0].tolist() == list(range(-1, 300))
    rows = assignment_array(2, 130)
    assert rows.shape == (combination_count(2, 130), 2)
    assert rows.max() == 129 and rows.min() == -1
    assert [tuple(r) for r in rows[-3:].tolist()] == [(129, 126), (129, 127), (129, 128)]


def _planted_scene():
    truth = ExtendedPose(pos=np.array([0.0, 0.0, 1.0]))
    offsets = [
        [18.0, -6.0, 5.0],
        [24.0, 3.0, 6.0],
        [30.0, -2.0, 4.5],
        [27.0, 7.0, 5.5],
    ]
    clusters = [
        StreetlightCluster(i, truth.pos + np.asarray(off))
        for i, off in enumerate(offsets)
    ]
    dets = [
        DetectionBox(project(c.center, truth, INTR), np.array([10.0, 10.0]))
        for c in clusters
    ]
    return truth, clusters, dets


def _offset_state(truth):
    return FilterState(
        ExtendedPose(
            so3_exp(np.array([0.0, 0.0, 0.05])),
            np.zeros(3),
            truth.pos + np.array([1.2, -0.8, 0.3]),
        )
    )


def _loose_cov():
    P = np.eye(15) * 1e-4
    P[0:3, 0:3] = np.eye(3) * 0.02
    P[6:9, 6:9] = np.eye(3) * 4.0
    return P


def test_recovery_finds_planted_combination():
    truth, clusters, dets = _planted_scene()
    state = _offset_state(truth)
    P = _loose_cov()
    out = attempt_recovery(dets, ClusterTable(clusters), state, P, RecoveryParams(), INTR, 2.0)
    assert out is not None
    st, P2, ms = out
    assert ms.cluster_ids == [0, 1, 2, 3]
    assert np.linalg.norm(st.pose.pos - truth.pos) < 0.3
    assert np.linalg.norm(state.pose.pos - (truth.pos + [1.2, -0.8, 0.3])) < 1e-12


def test_recovery_does_not_mutate_inputs():
    truth, clusters, dets = _planted_scene()
    state = _offset_state(truth)
    P = _loose_cov()
    pos_before = state.pose.pos.copy()
    rot_before = state.pose.rot.copy()
    P_before = P.copy()
    attempt_recovery(dets, ClusterTable(clusters), state, P, RecoveryParams(), INTR, 2.0)
    np.testing.assert_array_equal(state.pose.pos, pos_before)
    np.testing.assert_array_equal(state.pose.rot, rot_before)
    np.testing.assert_array_equal(P, P_before)


def test_recovery_needs_more_than_two_matches():
    truth, clusters, dets = _planted_scene()
    state = _offset_state(truth)
    P = _loose_cov()
    two = ClusterTable(clusters[:2])
    out = attempt_recovery(dets[:2], two, state, P, RecoveryParams(), INTR, 2.0)
    assert out is None  # at most 2 positive matches possible


def test_recovery_below_three_lights_searches_nothing(monkeypatch):
    truth, clusters, dets = _planted_scene()
    state = _offset_state(truth)
    P = _loose_cov()
    built = []
    real = recovery._SharedLinearization

    def counting(*args):
        built.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(recovery, "_SharedLinearization", counting)
    params = RecoveryParams()
    for n, m in ((2, 4), (4, 2), (1, 1), (0, 4)):
        table = ClusterTable(clusters[:m])
        assert attempt_recovery(dets[:n], table, state, P, params, INTR, 2.0) is None
    assert built == []
    # max_detections shrinks the detections before the count is taken
    shrunk = RecoveryParams(max_detections=2)
    assert attempt_recovery(dets, ClusterTable(clusters), state, P, shrunk, INTR, 2.0) is None
    assert built == []
    assert attempt_recovery(dets[:3], ClusterTable(clusters), state, P, params, INTR, 2.0)
    assert built == [3]


def test_recovery_rejects_expensive_scores():
    truth, clusters, dets = _planted_scene()
    # confident but badly wrong prior: the update cannot move the pose,
    # residuals stay large, every combination scores above threshold
    state = FilterState(
        ExtendedPose(pos=truth.pos + np.array([6.0, -5.0, 0.0]))
    )
    P = np.eye(15) * 1e-8
    out = attempt_recovery(dets, ClusterTable(clusters), state, P, RecoveryParams(), INTR, 2.0)
    assert out is None


def test_recovery_abandons_on_budget():
    truth, clusters, dets = _planted_scene()
    state = _offset_state(truth)
    P = _loose_cov()
    more = [
        StreetlightCluster(10 + i, truth.pos + np.array([20.0 + i, i - 5.0, 5.0]))
        for i in range(8)
    ]
    many_dets = dets + [
        DetectionBox(np.array([300.0 + 40 * i, 200.0]), np.array([10.0, 10.0]))
        for i in range(2)
    ]
    params = RecoveryParams(max_combinations=1000)
    assert combination_count(len(many_dets), len(clusters + more)) > 1000
    table = ClusterTable(clusters + more)
    out = attempt_recovery(many_dets, table, state, P, params, INTR, 2.0)
    assert out is None


def test_recovery_empty_inputs():
    truth, clusters, dets = _planted_scene()
    state = _offset_state(truth)
    P = _loose_cov()
    table, empty = ClusterTable(clusters), ClusterTable([])
    assert attempt_recovery([], table, state, P, RecoveryParams(), INTR, 2.0) is None
    assert attempt_recovery(dets, empty, state, P, RecoveryParams(), INTR, 2.0) is None


def test_recovery_applies_one_update_for_the_winner(monkeypatch):
    truth, clusters, dets = _planted_scene()
    calls = []

    def counting(*args):
        calls.append(args[2].cluster_ids)
        return apply_camera_update(*args)

    monkeypatch.setattr(recovery, "apply_camera_update", counting)
    out = attempt_recovery(
        dets,
        ClusterTable(clusters),
        _offset_state(truth),
        _loose_cov(),
        RecoveryParams(),
        INTR,
        2.0,
    )
    assert out is not None
    assert calls == [[0, 1, 2, 3]]


def test_recovery_returns_none_when_the_winners_update_is_rejected(monkeypatch):
    truth, clusters, dets = _planted_scene()
    state, P, params = _offset_state(truth), _loose_cov(), RecoveryParams()
    table = ClusterTable(clusters)
    assert attempt_recovery(dets, table, state, P, params, INTR, 2.0) is not None

    def rejecting(*args):
        raise UpdateRejected("planted")

    monkeypatch.setattr(recovery, "apply_camera_update", rejecting)
    assert attempt_recovery(dets, table, state, P, params, INTR, 2.0) is None


def _yaw(rot):
    return math.atan2(rot[1, 0], rot[0, 0])


def score_candidate(state_before, state_after, matches, clusters_by_id, intr):
    """Reference oracle: punishment score of one candidate after its update.

    Mean pixel reprojection residual of the matched pairs (0 when none),
    plus weighted planar translation, weighted yaw change, and the
    per-NONE penalty.  None when a matched cluster reprojects behind the
    camera, which disqualifies the combination.
    """
    residuals = []
    for det, cid in matches.positive_pairs():
        pix = project(clusters_by_id[cid].center, state_after.pose, intr)
        if pix is None:
            return None
        residuals.append(np.linalg.norm(np.asarray(det.center) - pix))
    mean_resid = float(np.mean(residuals)) if residuals else 0.0

    dt_xy = float(
        np.linalg.norm((state_after.pose.pos - state_before.pose.pos)[:2])
    )
    d_rot = state_before.pose.rot.T @ state_after.pose.rot
    d_yaw = abs(_yaw(d_rot))
    n_neg = len(matches.cluster_ids) - matches.positive_count()
    return (
        mean_resid
        + recovery.GAMMA_POS * dt_xy
        + recovery.GAMMA_YAW * d_yaw
        + recovery.GAMMA_NEG * n_neg
    )


def serial_attempt_recovery(
    detections, clusters, state, P, params, intr, pixel_sigma=2.0
):
    """Reference oracle: one apply_camera_update per combination.

    The candidate loop attempt_recovery ran before it shared one
    linearization across candidates; its choice is the specification.
    """
    if len(detections) > params.max_detections:
        order = sorted(
            range(len(detections)),
            key=lambda i: float(np.prod(detections[i].extents)),
            reverse=True,
        )
        detections = [detections[i] for i in order[: params.max_detections]]
    n, m = len(detections), len(clusters)
    if n == 0 or m == 0:
        return None
    if combination_count(n, m) > params.max_combinations:
        clusters = sorted(
            clusters,
            key=lambda c: float(np.linalg.norm(c.center - state.pose.pos)),
        )
        while m > 1 and combination_count(n, m) > params.max_combinations:
            m -= 1
        clusters = clusters[:m]

    clusters_by_id = {c.id: c for c in clusters}
    table = ClusterTable(clusters)
    best = None
    for combo in assignments(n, m):
        ids = [clusters[j].id if j >= 0 else None for j in combo]
        ms = MatchSet(list(detections), ids, [0.0] * n)
        if ms.positive_count():
            try:
                st_, Pc = apply_camera_update(
                    state, P, ms, table, intr, pixel_sigma
                )
            except UpdateRejected:
                continue
        else:
            st_, Pc = state, P
        score = score_candidate(state, st_, ms, clusters_by_id, intr)
        if score is None:
            continue
        if best is None or score < best[0]:
            best = (score, st_, Pc, ms)

    if best is None:
        return None
    score, st_, Pc, ms = best
    if score < recovery.TH_SCORE and ms.positive_count() > 2:
        return st_, Pc.copy(), ms
    return None


def _assert_same_recovery(got, want):
    assert (got is None) == (want is None)
    if want is None:
        return
    (s1, P1, ms1), (s2, P2, ms2) = got, want
    assert ms1.cluster_ids == ms2.cluster_ids
    assert [id(d) for d in ms1.detections] == [id(d) for d in ms2.detections]
    for a, b in [
        (s1.pose.rot, s2.pose.rot),
        (s1.pose.vel, s2.pose.vel),
        (s1.pose.pos, s2.pose.pos),
        (s1.bias_gyro, s2.bias_gyro),
        (s1.bias_accel, s2.bias_accel),
        (P1, P2),
    ]:
        assert a.tobytes() == b.tobytes()
    assert s1.t == s2.t


def _check_against_oracle(dets, clusters, state, P, params):
    P_before = P.copy()
    got = attempt_recovery(dets, ClusterTable(clusters), state, P, params, INTR, 2.0)
    want = serial_attempt_recovery(dets, clusters, state, P, params, INTR)
    _assert_same_recovery(got, want)
    np.testing.assert_array_equal(P, P_before)
    return got


def _rejecting_cov():
    # a large position variance: on a lamp about 7 m away it pushes the
    # innovation covariance's largest eigenvalue past MAX_BEARING_VAR
    P = _loose_cov()
    P[6:9, 6:9] = np.eye(3) * 40.0
    return P


def _uncertifying_cov():
    # on the planted scene's four lamps S_all's largest eigenvalue is 1.07,
    # over MAX_BEARING_VAR, while every three-lamp submatrix's is under 0.92
    P = _loose_cov()
    P[6:9, 6:9] = np.eye(3) * 110.0
    return P


@st.composite
def planted_scenes(draw):
    """A truth pose, lamps around it, detections of some, and a prior.

    Lamps may sit behind the camera; detections may include false
    positives, exceed max_detections, or exceed the combination budget,
    which forces cluster trimming; one prior makes some updates rejected.
    """
    coord = st.floats(-1.0, 1.0, allow_nan=False)
    yaw = draw(st.floats(-np.pi, np.pi))
    truth = ExtendedPose(so3_exp([0.0, 0.0, yaw]), np.zeros(3), np.array([0.0, 0.0, 1.0]))
    n_front = draw(st.integers(1, 6))
    n_behind = draw(st.integers(0, 2))
    offsets = [
        [draw(st.floats(6.0, 40.0)), 12.0 * draw(coord), draw(st.floats(3.0, 7.0))]
        for _ in range(n_front)
    ] + [
        [-draw(st.floats(2.0, 20.0)), 8.0 * draw(coord), draw(st.floats(3.0, 7.0))]
        for _ in range(n_behind)
    ]
    order = draw(st.permutations(range(len(offsets))))
    clusters = [
        StreetlightCluster(10 + i, truth.pos + truth.rot @ np.asarray(offsets[j]))
        for i, j in enumerate(order)
    ]
    pixels = [project(c.center, truth, INTR) for c in clusters]
    pixels = [pix for pix in pixels if pix is not None]
    dets = []
    for pix in pixels[: draw(st.integers(len(pixels) // 2, len(pixels)))]:
        size = draw(st.floats(4.0, 20.0))
        noise = np.array([draw(coord), draw(coord)]) * 2.0
        dets.append(DetectionBox(pix + noise, np.array([size, size])))
    for _ in range(draw(st.integers(0, 3))):  # false positives
        pix = np.array([draw(st.floats(0.0, 1279.0)), draw(st.floats(0.0, 719.0))])
        size = draw(st.floats(4.0, 20.0))
        dets.append(DetectionBox(pix, np.array([size, size])))
    dets = draw(st.permutations(dets))

    state = FilterState(
        ExtendedPose(
            so3_exp([0.0, 0.0, yaw + 0.1 * draw(coord)]),
            np.zeros(3),
            truth.pos + np.array([draw(coord), draw(coord), 0.3 * draw(coord)]) * 1.5,
        )
    )
    P = draw(st.sampled_from([_loose_cov(), _rejecting_cov(), np.eye(15) * 1e-8]))
    params = RecoveryParams(
        max_detections=draw(st.sampled_from([5, 4, 3, 2])),
        max_combinations=draw(st.sampled_from([1000, 300, 60])),
    )
    return list(dets), clusters, state, P, params


def _scene_rejecting_updates():
    truth, clusters, dets = _planted_scene()
    near = StreetlightCluster(7, truth.pos + np.array([6.0, 1.0, 4.0]))
    clusters = clusters + [near]
    box = DetectionBox(project(near.center, truth, INTR), np.array([20.0, 20.0]))
    dets = dets + [box]
    return dets, clusters, _offset_state(truth), _rejecting_cov(), RecoveryParams()


def _scene_with_lamps_behind():
    truth, clusters, dets = _planted_scene()
    behind = [
        StreetlightCluster(20 + i, truth.pos + np.array([-8.0 - 4 * i, 2.0 - 3 * i, 5.0]))
        for i in range(2)
    ]
    clusters = behind[:1] + clusters + behind[1:]
    return dets, clusters, _offset_state(truth), _loose_cov(), RecoveryParams()


def _scene_over_budget():
    truth, clusters, dets = _planted_scene()
    far = [
        StreetlightCluster(10 + i, truth.pos + np.array([45.0 + 3 * i, i - 5.0, 5.0]))
        for i in range(5)
    ]
    fp = [
        DetectionBox(np.array([300.0 + 90 * i, 200.0]), np.array([6.0, 6.0]))
        for i in range(3)
    ]
    # 7 detections cut to 5; 9 clusters trimmed to the 4 nearest (501 maps)
    params = RecoveryParams(max_detections=5, max_combinations=600)
    return dets + fp, clusters + far, _offset_state(truth), _loose_cov(), params


def _scene_uncertified_without_rejections():
    # more clusters than detections: S_all spans all four lamps, but a
    # combination matches at most three of them
    truth, clusters, dets = _planted_scene()
    return dets[:3], clusters, _offset_state(truth), _uncertifying_cov(), RecoveryParams()


def test_scene_features_occur():
    """The explicit examples below hit the cases the property test targets."""
    dets, clusters, state, P, params = _scene_rejecting_updates()
    ms = MatchSet(dets, [c.id for c in clusters], [0.0] * len(dets))
    with pytest.raises(UpdateRejected):
        apply_camera_update(state, P, ms, ClusterTable(clusters), INTR, 2.0)
    dets, clusters, state, P, params = _scene_with_lamps_behind()
    assert sum(project(c.center, state.pose, INTR) is None for c in clusters) == 2
    dets, clusters, state, P, params = _scene_over_budget()
    assert len(dets) > params.max_detections
    n = params.max_detections
    assert combination_count(n, len(clusters)) > params.max_combinations


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(scene=planted_scenes())
@example(scene=_scene_rejecting_updates())
@example(scene=_scene_with_lamps_behind())
@example(scene=_scene_over_budget())
@example(scene=_scene_uncertified_without_rejections())
def test_recovery_equals_serial_oracle(scene):
    _check_against_oracle(*scene)


def test_recovery_examples_recover():
    # the worked scenes are not vacuous: each recovers the planted lamps
    for make in (_scene_rejecting_updates, _scene_with_lamps_behind, _scene_over_budget):
        out = _check_against_oracle(*make())
        assert out is not None and out[2].positive_count() >= 3


@pytest.mark.parametrize("block", [1, 7, 208, 209, 210, 512])
def test_recovery_block_size_does_not_change_result(monkeypatch, block):
    truth, clusters, dets = _planted_scene()
    assert combination_count(4, 4) == 209  # 7 * 29 + 6: a ragged last block
    monkeypatch.setattr(recovery, "CANDIDATE_BLOCK", block)
    state, P = _offset_state(truth), _loose_cov()
    out = _check_against_oracle(dets, clusters, state, P, RecoveryParams())
    assert out[2].cluster_ids == [0, 1, 2, 3]


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(scene=planted_scenes())
@example(scene=_scene_rejecting_updates())
@example(scene=_scene_with_lamps_behind())
@example(scene=_scene_over_budget())
@example(scene=_scene_uncertified_without_rejections())
def test_pruning_skips_only_rows_that_cannot_win(scene):
    """_block_scores with a best score scores each row it scores to the
    bytes it gets without one, and leaves at inf only rows whose score
    reaches that best; the search picks the same winner either way."""
    dets, clusters, state, P, params = scene
    table = ClusterTable(clusters)
    found, cols = recovery._shrink(dets, table, state, params)
    if not len(found) or not len(cols):
        return
    lin = recovery._SharedLinearization(found, table.centers[cols], state, P, INTR, 2.0)
    combos = assignment_array(len(found), len(cols)).astype(np.intp)
    best = np.inf
    for start in range(0, len(combos), recovery.CANDIDATE_BLOCK):
        block = combos[start : start + recovery.CANDIDATE_BLOCK]
        full = recovery._block_scores(block, lin, state, INTR)
        finite = full[np.isfinite(full)]
        # the search's best so far, one inside this block's scores, and
        # just above each of the block's five lowest, which that row beats
        lowest = np.sort(finite)[:5]
        bounds = [best, np.median(finite) if len(finite) else np.inf]
        for bound in bounds + list(np.nextafter(lowest, np.inf)):
            pruned = recovery._block_scores(block, lin, state, INTR, bound)
            scored = np.isfinite(pruned)
            assert pruned[scored].tobytes() == full[scored].tobytes()
            assert (full[~scored] >= bound).all()
        best = min(best, full.min())

    with pytest.MonkeyPatch.context() as mp:
        real = recovery._block_scores
        mp.setattr(recovery, "_block_scores", lambda *args: real(*args[:4]))
        unpruned = attempt_recovery(dets, table, state, P, params, INTR, 2.0)
    _assert_same_recovery(attempt_recovery(dets, table, state, P, params, INTR, 2.0), unpruned)


def test_recovery_exact_tie_across_blocks_keeps_earliest(monkeypatch):
    truth, clusters, dets = _planted_scene()
    twin = StreetlightCluster(9, clusters[2].center.copy())  # same lamp, other id
    clusters = clusters + [twin]
    state, P, params = _offset_state(truth), _loose_cov(), RecoveryParams()
    combos = list(assignments(4, 5))
    first, second = combos.index((0, 1, 2, 3)), combos.index((0, 1, 4, 3))
    assert first < second
    monkeypatch.setattr(recovery, "CANDIDATE_BLOCK", second)  # second starts block 2
    centers = ClusterTable(clusters).centers
    lin = recovery._SharedLinearization(dets, centers, state, P, INTR, 2.0)
    pair = np.array([combos[first], combos[second]])
    s1 = recovery._block_scores(pair[:1], lin, state, INTR)
    s2 = recovery._block_scores(pair[1:], lin, state, INTR)
    assert s1.tobytes() == s2.tobytes()  # an exact tie, scored in separate blocks
    out = _check_against_oracle(dets, clusters, state, P, params)
    assert out[2].cluster_ids == [0, 1, 2, 3]


def test_recovery_lamps_only_behind_camera_leave_state_unchanged():
    truth, clusters, dets = _planted_scene()
    behind = [
        StreetlightCluster(i, truth.pos + np.array([-10.0 - 3 * i, 4.0 - 2 * i, 5.0]))
        for i in range(3)
    ]
    state, P = _offset_state(truth), _loose_cov()
    # what apply_camera_update does with such pairs: nothing
    ms = MatchSet(dets[:3], [0, 1, 2], [0.0] * 3)
    st_, Pc = apply_camera_update(state, P, ms, ClusterTable(behind), INTR, 2.0)
    assert st_ is state and Pc is P
    # the batched path leaves every combination's state alone too
    centers = ClusterTable(behind).centers
    lin = recovery._SharedLinearization(dets, centers, state, P, INTR, 2.0)
    combos = np.array(list(assignments(len(dets), len(behind))))
    assert not recovery._corrections(combos, lin).any()
    scores = recovery._block_scores(combos, lin, state, INTR)
    assert np.isfinite(scores[0]) and np.isinf(scores[1:]).all()  # only all-NONE
    assert _check_against_oracle(dets, behind, state, P, RecoveryParams()) is None


def test_recovery_memory_is_bounded_by_block():
    import tracemalloc

    truth = ExtendedPose(pos=np.array([0.0, 0.0, 1.0]))
    clusters = [
        StreetlightCluster(
            i, truth.pos + np.array([15.0 + 3 * i, (-1) ** i * (2.0 + i), 5.0])
        )
        for i in range(8)
    ]
    dets = [
        DetectionBox(project(c.center, truth, INTR), np.array([10.0, 10.0]))
        for c in clusters[:5]
    ]
    state, P = _offset_state(truth), _loose_cov()
    assert combination_count(5, 8) == 19_081
    tracemalloc.start()
    try:
        attempt_recovery(dets, ClusterTable(clusters), state, P, RecoveryParams(), INTR, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak

    # the budget's other extreme: 3 detections onto 27 lamps, 19,738
    # combinations of 3,303 lamp sets, whose gain table holds
    # sum_k C(27, k) 2k x 15 doubles, 2.3 MB; the enumeration, one batch
    # of sets and one block of scores stay under 2 MB more
    args = _lamps_ahead(3, 27)
    assert combination_count(3, 27) == 19_738
    table_bytes = sum(math.comb(27, k) * 2 * k * 15 * 8 for k in (1, 2, 3))
    assert table_bytes == 2_280_960
    tracemalloc.start()
    try:
        attempt_recovery(*args, RecoveryParams(), INTR, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table_bytes + 2e6, peak


def _lamps_ahead(n, m):
    """Detections of the first n of m lamps spread ahead of the camera:
    (detections, table, state, P), every lamp in front of it."""
    truth = ExtendedPose(pos=np.array([0.0, 0.0, 1.0]))
    clusters = [
        StreetlightCluster(
            i, truth.pos + np.array([15.0 + 3 * i, (-1) ** i * (2.0 + i), 5.0])
        )
        for i in range(m)
    ]
    dets = [
        DetectionBox(project(c.center, truth, INTR), np.array([10.0, 10.0]))
        for c in clusters[:n]
    ]
    return dets, ClusterTable(clusters), _offset_state(truth), _loose_cov()


def test_recovery_solves_each_lamp_set_once(monkeypatch):
    """One gain per matched lamp set: 5 detections onto 8 lamps match 218
    sets, sum_k C(8, k) for k = 1..5, in 19,081 combinations; each batch
    of sets holds at most CANDIDATE_BLOCK."""
    stacks = []
    real = recovery.guarded_solve

    def counting(S, b):
        stacks.append(len(S))
        return real(S, b)

    monkeypatch.setattr(recovery, "guarded_solve", counting)
    for (n, m), sets in (((5, 8), 218), ((3, 27), 3_303)):
        args = _lamps_ahead(n, m)
        assert sum(math.comb(m, k) for k in range(1, n + 1)) == sets
        lin = recovery._SharedLinearization(args[0], args[1].centers, *args[2:], INTR, 2.0)
        assert lin.front.all() and lin.certified  # so no set is rejected unsolved
        stacks.clear()
        assert attempt_recovery(*args, RecoveryParams(), INTR, 2.0) is not None
        assert sum(stacks) == sets
        assert max(stacks) <= recovery.CANDIDATE_BLOCK


def oracle_corrections(combos, lin, G, noise):
    """Reference oracle: _corrections before S_all, its certificate and
    the gains per lamp set.

    Each block gathers S from the pair blocks G[a, b] = H_a P H_b', adds
    the pixel noise per matched pair and symmetrizes, and every
    combination's S goes through invariant_update's rule: eigenvalues in
    (0, MAX_BEARING_VAR].  Each combination solves S x = z in its own
    pair order, and its correction is HP' x.

    Also returns each row's rounding bound against any other
    backward-stable evaluation of HP' S^-1 z: each is within about
    3 n cond(S) eps of the exact correction for an n x n S, relative to
    the largest entry of |HP|' |x|, the product's scale before any
    cancellation (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., sec. 3.5, Thm 7.2 and 9.4), so two may differ by twice that.
    It is 0 where nothing is solved, where both give exact zeros.
    """
    infront = combos >= 0
    infront[infront] = lin.front[combos[infront]]
    k = infront.sum(axis=1)
    delta = np.zeros((len(combos), 15))
    tol = np.zeros(len(combos))
    for kk in np.unique(k[k > 0]):
        rows = np.flatnonzero(k == kk)
        dets = np.nonzero(infront[rows])[1].reshape(len(rows), kk)
        cl = combos[rows[:, None], dets]
        S = G[cl[:, :, None], cl[:, None, :]].transpose(0, 1, 3, 2, 4)
        S = S.reshape(len(rows), 2 * kk, 2 * kk) + np.kron(np.eye(kk), noise)
        S = (S + S.transpose(0, 2, 1)) / 2.0
        lam = np.linalg.eigvalsh(S)
        ok = (lam[:, 0] > 0) & (lam[:, -1] <= MAX_BEARING_VAR)
        delta[rows[~ok]] = np.nan
        rows, S, cl, dets, lam = rows[ok], S[ok], cl[ok], dets[ok], lam[ok]
        HP = lin.HP[cl].reshape(len(rows), 2 * kk, 15)
        z = (lin.rays[dets] - lin.h[cl]).reshape(len(rows), 2 * kk)
        x = np.linalg.solve(S, z[..., None])
        delta[rows] = (HP.transpose(0, 2, 1) @ x)[..., 0]
        scale = (np.abs(HP).transpose(0, 2, 1) @ np.abs(x))[..., 0].max(axis=1)
        tol[rows] = 6 * (2 * kk) * (lam[:, -1] / lam[:, 0]) * np.finfo(float).eps * scale
    return delta, tol


def _pair_blocks(lin, centers, state):
    """G[a, b] = H_a P H_b' as an (m, m, 2, 2) array, from lin's H P."""
    m = len(centers)
    H = bearing_jacobians(centers, state)[3]
    G = lin.HP.reshape(2 * m, 15) @ H.reshape(2 * m, 15).T
    return G.reshape(m, 2, m, 2).transpose(0, 2, 1, 3)


def _corrections_equal_oracle(dets, clusters, state, P, params):
    """Compare _corrections with the oracle on every block of one attempt:
    the same rejected rows, and the others within the oracle's rounding
    bound, since each lamp set's gain is solved in the set's own lamp order.

    Returns (lin.certified, number of rejected combinations), or None when
    the attempt has nothing to search.
    """
    table = ClusterTable(clusters)
    dets, cols = recovery._shrink(dets, table, state, params)
    n, m = len(dets), len(cols)
    if n == 0 or m == 0:
        return None
    lin = recovery._SharedLinearization(dets, table.centers[cols], state, P, INTR, 2.0)
    G = _pair_blocks(lin, table.centers[cols], state)
    noise = pixel_noise_cov(INTR, 2.0)
    combos = assignment_array(n, m).astype(np.intp)
    rejected = 0
    for start in range(0, len(combos), recovery.CANDIDATE_BLOCK):
        block = combos[start : start + recovery.CANDIDATE_BLOCK]
        got = recovery._corrections(block, lin)
        want, tol = oracle_corrections(block, lin, G, noise)
        rejected_rows = np.isnan(want).all(axis=1)
        assert (np.isnan(got) == rejected_rows[:, None]).all()
        got, want, tol = got[~rejected_rows], want[~rejected_rows], tol[~rejected_rows]
        assert (np.abs(got - want).max(axis=1) <= tol).all()
        rejected += int(rejected_rows.sum())
    return lin.certified, rejected


def _certifying_cov():
    # tighter than _loose_cov: the planted scene's lambda_max(S_all) is 0.035
    P = _loose_cov()
    P[0:3, 0:3] = np.eye(3) * 0.005
    P[6:9, 6:9] = np.eye(3) * 1.0
    return P


def _planted_scene_certifying():
    truth, clusters, dets = _planted_scene()
    return dets, clusters, _offset_state(truth), _certifying_cov(), RecoveryParams()


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(scene=planted_scenes())
@example(scene=_planted_scene_certifying())
@example(scene=_scene_rejecting_updates())
@example(scene=_scene_with_lamps_behind())
@example(scene=_scene_over_budget())
@example(scene=_scene_uncertified_without_rejections())
def test_corrections_equal_oracle(scene):
    _corrections_equal_oracle(*scene)


def test_corrections_oracle_takes_both_branches():
    assert _corrections_equal_oracle(*_planted_scene_certifying()) == (True, 0)
    truth, clusters, dets = _planted_scene()
    state = _offset_state(truth)
    scene = dets, clusters, state, np.eye(15) * 1e-8, RecoveryParams()
    assert _corrections_equal_oracle(*scene) == (True, 0)
    dets_b, clusters_b, state_b, _, params = _scene_with_lamps_behind()
    scene = dets_b, clusters_b, state_b, _certifying_cov(), params
    assert _corrections_equal_oracle(*scene) == (True, 0)
    # the loose prior gives lambda_max(S_all) 0.14: certified
    for make in (_scene_with_lamps_behind, _scene_over_budget):
        assert _corrections_equal_oracle(*make()) == (True, 0)
    # S_all over the cap: no certificate, though no candidate is rejected
    scene = _scene_uncertified_without_rejections()
    assert _corrections_equal_oracle(*scene) == (False, 0)
    # the rejecting prior must fall back and reject some combinations
    # exactly as the per-candidate check does
    certified, rejected = _corrections_equal_oracle(*_scene_rejecting_updates())
    assert not certified and rejected > 0


def _innovation_cov_all(H, P):
    """S_all as recovery builds it, for (m, 2, 15) Jacobians H."""
    m = len(H)
    S = (H @ P).reshape(2 * m, 15) @ H.reshape(2 * m, 15).T
    S += np.kron(np.eye(m), pixel_noise_cov(INTR, 2.0))
    return (S + S.T) / 2.0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 5))
def test_interlacing_bounds_every_block_submatrix(seed, m):
    rng = np.random.default_rng(seed)
    H = rng.normal(size=(m, 2, 15)) * 10.0 ** rng.uniform(-3, 1)
    B = rng.normal(size=(15, 15)) * 10.0 ** rng.uniform(-2, 1)
    P = B @ B.T + np.eye(15) * 1e-3
    S_all = _innovation_cov_all(H, P)
    lam = np.linalg.eigvalsh(S_all)
    assert lam[0] > 0
    tol = 1e-9 * lam[-1]  # recovery.CERTIFY_MARGIN relative to the cap
    for mask in range(1, 2**m):
        cl = [j for j in range(m) if mask >> j & 1]
        idx = (2 * np.array(cl)[:, None] + np.arange(2)).ravel()
        sub = np.linalg.eigvalsh(S_all[np.ix_(idx, idx)])
        assert sub[-1] <= lam[-1] + tol
        assert sub[0] >= lam[0] - tol


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 6))
def test_indefinite_innovation_cov_is_never_certified(seed, m):
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.normal(size=(2 * m, 2 * m)))[0]
    lam = rng.uniform(0.1, 0.5, size=2 * m)  # under the cap
    lam[rng.integers(2 * m)] *= -1.0
    S = Q @ np.diag(lam) @ Q.T
    assert not recovery._certifies((S + S.T) / 2.0)


def test_well_conditioned_indefinite_cov_with_singular_block_is_not_certified():
    # eigenvalues +-0.5, so cond(S_all) = 1 and lambda_max is under the
    # cap; its top-left 2x2 block is zero
    S_all = np.kron(np.array([[0.0, 0.5], [0.5, 0.0]]), np.eye(2))
    assert np.linalg.eigvalsh(S_all)[-1] <= MAX_BEARING_VAR
    assert not np.linalg.matrix_rank(S_all[:2, :2])
    assert not recovery._certifies(S_all)
    assert recovery._certifies(0.5 * np.eye(4))
    assert not recovery._certifies(MAX_BEARING_VAR * np.eye(4))  # inside the margin


def test_singular_or_non_finite_innovation_cov_is_not_certified():
    assert not recovery._certifies(np.zeros((6, 6)))  # lambda_min = 0
    for bad in (np.nan, np.inf):
        S_all = np.eye(6)
        S_all[0, 1] = S_all[1, 0] = bad
        assert not recovery._certifies(S_all)


def test_recovery_survives_a_candidate_singular_to_solve():
    # two clusters at one center and noise-free bearings: some candidate
    # innovation covariances pass the eigenvalue rule but are singular to
    # LU, and each such candidate alone is rejected
    rng = np.random.default_rng(77)
    pose = ExtendedPose()
    for _ in range(25):
        centers = [[rng.uniform(10, 40), rng.uniform(-10, 10), rng.uniform(2, 8)]
                   for _ in range(3)]
        centers.append(list(centers[rng.integers(3)]))
        clusters = [StreetlightCluster(i, np.array(c)) for i, c in enumerate(centers)]
        dets = [
            DetectionBox(project(c.center, pose, INTR), np.array([10.0, 10.0]))
            for c in clusters
        ]
        out = attempt_recovery(
            dets,
            ClusterTable(clusters),
            FilterState(pose),
            initial_covariance(),
            RecoveryParams(),
            INTR,
            pixel_sigma=1e-9,
        )
        assert out is None or len(out) == 3


COV_KINDS = ("spd", "indefinite", "zero", "nan", "inf")


def _drawn_cov(rng, n, log_top, log_cond, kind):
    """A symmetric n x n S: eigenvalues 10^log_top down to 10^(log_top -
    log_cond) in a random basis, one of them negated when indefinite; or
    zero, or holding one NaN or inf pair."""
    if kind == "zero":
        return np.zeros((n, n))
    lam = 10.0 ** (log_top - rng.uniform(0.0, log_cond, n))
    lam[0], lam[-1] = 10.0**log_top, 10.0 ** (log_top - log_cond)
    if kind == "indefinite":
        lam[rng.integers(n)] *= -1.0
    Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    S = (Q * lam) @ Q.T
    S = (S + S.T) / 2.0
    if kind in ("nan", "inf"):
        i, j = rng.integers(n, size=2)
        S[i, j] = S[j, i] = np.nan if kind == "nan" else np.inf
    return S


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 5),
    log_top=st.floats(-4.0, 0.5),
    log_cond=st.floats(0.0, 20.0),
    kind=st.sampled_from(COV_KINDS),
)
@example(seed=1, k=3, log_top=-2.0, log_cond=4.0, kind="spd")  # certified
@example(seed=2, k=5, log_top=-1.0, log_cond=-math.log10(RCOND) - 0.01, kind="spd")
@example(seed=3, k=5, log_top=-1.0, log_cond=-math.log10(RCOND) + 0.01, kind="spd")
@example(seed=4, k=2, log_top=0.2, log_cond=1.0, kind="spd")  # over the cap
def test_one_rule_decides_every_update(seed, k, log_top, log_cond, kind):
    """invariant_update, recovery's per-candidate check and its certificate
    all follow inekf.admissible on the same S."""
    rng = np.random.default_rng(seed)
    n = 2 * k
    S = _drawn_cov(rng, n, log_top, log_cond, kind)
    # off the floor and the cap by more than rounding, the rule is its definition
    if kind == "spd" and abs(log_top) > 1e-3 and abs(log_cond + math.log10(RCOND)) > 1:
        want = log_top < 0.0 and log_cond < -math.log10(RCOND)
        assert admissible(S, MAX_BEARING_VAR) == want

    # invariant_update: with H = 0 its innovation covariance is N itself
    batch = [S] + [
        _drawn_cov(rng, n, rng.uniform(-4, 0.5), rng.uniform(0, 20), kind_b)
        for kind_b in rng.choice(COV_KINDS, size=5)
    ]
    ok = admissible(np.stack(batch), MAX_BEARING_VAR)
    for S_b, ok_b in zip(batch, ok):
        assert admissible(S_b, MAX_BEARING_VAR) == ok_b
        args = FilterState(), np.eye(15), np.zeros((n, 15)), np.zeros(n), S_b
        if ok_b:
            invariant_update(*args, MAX_BEARING_VAR)
        else:
            with pytest.raises(UpdateRejected):
                invariant_update(*args, MAX_BEARING_VAR)

    # _corrections, uncertified: combination b matches its detections to the
    # k clusters of the b-th diagonal block of S_all, whose S is batch[b]
    m = k * len(batch)
    S_all = np.zeros((2 * m, 2 * m))
    for b, S_b in enumerate(batch):
        S_all[b * n : (b + 1) * n, b * n : (b + 1) * n] = S_b
    lin = SimpleNamespace(
        front=np.ones(m, dtype=bool),
        S_all=S_all,
        certified=False,
        HP=rng.normal(size=(m, 2, 15)),
        h=rng.normal(size=(m, 2)),
        rays=rng.normal(size=(k, 2)),
        label=np.arange(m),
        by_label=np.arange(m),
    )
    lin.z = lin.rays[:, None] - lin.h[lin.by_label]
    combos = np.arange(m).reshape(len(batch), k)
    lin.gains = recovery._GainTable(lin, [combos])  # the six lamp sets combos match
    delta = recovery._corrections(combos, lin)
    np.testing.assert_array_equal(np.isnan(delta).all(axis=1), ~ok)
    assert np.isfinite(delta[ok]).all()

    # _certifies: a certified S passes the rule on every 2-row block
    # principal submatrix
    if recovery._certifies(S):
        for mask in range(1, 2**k):
            idx = [2 * j + r for j in range(k) if mask >> j & 1 for r in (0, 1)]
            assert admissible(S[np.ix_(idx, idx)], MAX_BEARING_VAR)
