"""Simulation harness checks against closed-form kinematic oracles."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nightrider.camera import DetectionBox, camera_point, pinhole
from nightrider.inekf import GRAVITY, FilterState, NoiseConfig, propagate_window
from nightrider.lie import ExtendedPose, Trajectory, so3_exp, so3_log
from nightrider.pipeline import run_pipeline
from nightrider.sim import (
    Scenario,
    blackout_scenario,
    compute_ate,
    corridor_scenario,
    default_scenario,
    frame_boxes,
    generate_truth,
    make_map,
    path_length,
    ring_scenario,
    simulate_detections,
    simulate_imu,
    simulate_odom,
    simulate_streams,
    _blob_rects,
    _rotz,
    _truth_arrays,
)
from test_extension import segment_boxes

BLOB_INTENSITY = 240


def _visible_blobs(pose, smap, scenario, intr):
    """The blob rectangles of one pose, passed as a one-row Trajectory."""
    one = Trajectory(np.zeros(1), pose.rot[None], pose.vel[None], pose.pos[None])
    return _blob_rects(one, smap, scenario, intr)[0]


def _pose_boxes(pose, smap, scenario):
    """frame_boxes of one pose, passed as a one-row Trajectory."""
    one = Trajectory(np.zeros(1), pose.rot[None], pose.vel[None], pose.pos[None])
    return frame_boxes(one, smap, scenario)[0]


def render_intensity_image(pose, smap, scenario):
    """8-bit camera image: black sky with saturated streetlight blobs."""
    img = np.zeros((scenario.image_height, scenario.image_width), dtype=np.uint8)
    for u0, u1, v0, v1 in _visible_blobs(pose, smap, scenario, scenario.intrinsics()):
        img[v0:v1, u0:u1] = BLOB_INTENSITY
    return img


def _finite_difference_check(spec, times):
    h = 1e-4
    pos_p = _truth_arrays(spec, times + h)[0]
    pos_m = _truth_arrays(spec, times - h)[0]
    vel = _truth_arrays(spec, times)[1]
    np.testing.assert_allclose(vel, (pos_p - pos_m) / (2 * h), rtol=0, atol=1e-6)


def test_trajectory_derivatives_match_finite_differences():
    # stay clear of spline knots, where the jerk is discontinuous
    times = np.linspace(0.5, 29.7, 40)
    _finite_difference_check(
        {"kind": "figure-eight", "amp_x": 25.0, "amp_y": 12.0, "period": 40.0}, times
    )
    _finite_difference_check({"kind": "circle", "radius": 40.0, "speed": 6.0}, times)
    _finite_difference_check(
        {"kind": "line", "start": [1.0, -2.0, 0.5], "velocity": [2.0, 1.0, 0.0]}, times
    )
    wp = {
        "kind": "waypoints",
        "times": [0.0, 10.0, 20.0, 30.0, 40.0],
        "points": [[0, 0, 0], [30, 5, 0], [55, -10, 0], [70, 20, 0], [100, 25, 0]],
    }
    _finite_difference_check(wp, times)


def test_circle_yaw_rate_is_speed_over_radius():
    t = np.linspace(0.0, 20.0, 11)
    yaw = _truth_arrays({"kind": "circle", "radius": 50.0, "speed": 5.0}, t)[2]
    np.testing.assert_allclose(np.diff(np.unwrap(yaw)) / np.diff(t), 0.1, rtol=1e-9)


def test_low_speed_trajectory_rejected_without_heading():
    sc = Scenario(trajectory={"kind": "figure-eight", "amp_x": 0.01, "amp_y": 0.01, "period": 40.0})
    with pytest.raises(ValueError):
        generate_truth(sc)


def test_generate_truth_equals_per_sample_construction():
    for build in (default_scenario, ring_scenario, corridor_scenario):
        sc = build()
        truth = generate_truth(sc)
        n = int(round(sc.duration * sc.imu_rate))
        t = np.arange(n + 1) / sc.imu_rate
        pos, vel, yaw = _truth_arrays(sc.trajectory, t)
        rot = _rotz(yaw)
        assert type(truth) is Trajectory and len(truth) == n + 1
        for k in (0, 1, n // 2, n):
            pose = truth.pose(k)
            assert truth.t[k] == t[k]
            assert pose.rot.tobytes() == rot[k].tobytes()
            assert pose.vel.tobytes() == vel[k].tobytes()
            assert pose.pos.tobytes() == pos[k].tobytes()


def test_trajectory_indexes_slices_and_writes_through():
    truth = generate_truth(Scenario(duration=1.0))
    assert truth.t[-1] == truth.t[len(truth) - 1] == 1.0
    assert truth.pose(-1).pos.tolist() == truth.pos[-1].tolist()
    with pytest.raises(IndexError):
        truth.pose(len(truth))
    with pytest.raises(TypeError, match="pose"):
        truth[3]  # one row is a pose, not a trajectory
    part = truth[10:20:5]
    assert isinstance(part, Trajectory) and len(part) == 2
    assert part.t.tolist() == [truth.t[10], truth.t[15]]
    picked = truth[np.array([3, 7])]
    assert picked.pos.tolist() == [truth.pose(k).pos.tolist() for k in (3, 7)]
    assert [p.pos.tolist() for p in part.poses()] == part.pos.tolist()
    # a row's pose views the arrays, so writing into it writes the row
    pose = part.pose(1)
    assert type(pose) is ExtendedPose
    pose.pos[:] = [1.0, 2.0, 3.0]
    assert truth.pose(15).pos.tolist() == [1.0, 2.0, 3.0]
    copy = truth.pose(15).copy()
    copy.pos[0] = 9.0
    assert truth.pos[15, 0] == 1.0


def test_stationary_imu_reads_reaction_to_gravity():
    sc = Scenario(
        name="parked",
        trajectory={"kind": "line", "start": [2.0, 1.0, 0.0], "velocity": [0.0, 0.0, 0.0], "yaw": 0.7},
        duration=1.0,
        gyro_sigma=0.0,
        accel_sigma=0.0,
        gyro_bias_sigma=0.0,
        accel_bias_sigma=0.0,
    )
    truth = generate_truth(sc)
    rng = np.random.default_rng(0)
    gyro, accel, _, _ = simulate_imu(truth, sc, rng)
    for g, a in zip(gyro[:: len(gyro) // 5], accel[:: len(accel) // 5]):
        np.testing.assert_allclose(g, 0.0, atol=1e-12)
        np.testing.assert_allclose(a, [0.0, 0.0, 9.81], atol=1e-10)


def test_circle_specific_force_closed_form():
    r, speed = 50.0, 5.0
    sc = Scenario(
        name="loop",
        trajectory={"kind": "circle", "radius": r, "speed": speed},
        duration=2.0,
        gyro_sigma=0.0,
        accel_sigma=0.0,
        gyro_bias_sigma=0.0,
        accel_bias_sigma=0.0,
    )
    truth = generate_truth(sc)
    gyro, accel, _, _ = simulate_imu(truth, sc, np.random.default_rng(0))
    w = speed / r
    dt = 1.0 / sc.imu_rate
    # interval average of the rotating centripetal acceleration, expressed
    # in the frame at the start of the interval
    mag = r * w * w * math.sin(w * dt / 2.0) / (w * dt / 2.0)
    expected = np.array(
        [-mag * math.sin(w * dt / 2.0), mag * math.cos(w * dt / 2.0), 9.81]
    )
    for g, a in zip(gyro[:: len(gyro) // 7], accel[:: len(accel) // 7]):
        np.testing.assert_allclose(g, [0.0, 0.0, w], atol=1e-12)
        np.testing.assert_allclose(a, expected, atol=1e-9)
    np.testing.assert_allclose(mag, speed**2 / r, rtol=1e-6)


def test_noise_free_imu_integrates_back_to_truth():
    sc = default_scenario()
    sc.gyro_sigma = 0.0
    sc.accel_sigma = 0.0
    sc.gyro_bias_sigma = 0.0
    sc.accel_bias_sigma = 0.0
    truth = generate_truth(sc)
    gyro, accel, _, _ = simulate_imu(truth, sc, np.random.default_rng(1))
    state = FilterState(pose=truth.pose(0).copy(), t=0.0)
    P = np.eye(15) * 1e-6
    noise = NoiseConfig.from_sigmas(0.005, 0.05, 1e-4, 1e-3)
    dt = 1.0 / sc.imu_rate
    for g, a in zip(gyro, accel):
        state, P = propagate_window(state, P, [g], [a], dt, noise)
    final = truth.pose(-1)
    assert np.linalg.norm(state.pose.pos - final.pos) < 1e-4
    assert np.linalg.norm(state.pose.rot - final.rot) < 1e-6
    assert np.linalg.norm(state.pose.vel - final.vel) < 1e-6


def _reference_imu(truth, sc, rng):
    """simulate_imu one sample at a time, with the scalar so3_log."""
    n = len(truth) - 1
    dt = 1.0 / sc.imu_rate
    if sc.bias_mode == "constant":
        bias_g = np.tile(np.asarray(sc.gyro_bias0, dtype=float), (n + 1, 1))
        bias_a = np.tile(np.asarray(sc.accel_bias0, dtype=float), (n + 1, 1))
    else:
        steps_g = rng.normal(size=(n, 3)) * sc.gyro_bias_sigma * math.sqrt(dt)
        steps_a = rng.normal(size=(n, 3)) * sc.accel_bias_sigma * math.sqrt(dt)
        bias_g = np.vstack([np.zeros(3), np.cumsum(steps_g, axis=0)])
        bias_a = np.vstack([np.zeros(3), np.cumsum(steps_a, axis=0)])
        bias_g += np.asarray(sc.gyro_bias0, dtype=float)
        bias_a += np.asarray(sc.accel_bias0, dtype=float)
    noise_g = rng.normal(size=(n, 3)) * (sc.gyro_sigma / math.sqrt(dt))
    noise_a = rng.normal(size=(n, 3)) * (sc.accel_sigma / math.sqrt(dt))
    out = []
    for k in range(n):
        Rk = truth.rot[k]
        omega = so3_log(Rk.T @ truth.rot[k + 1]) / dt
        accel = Rk.T @ ((truth.vel[k + 1] - truth.vel[k]) / dt - GRAVITY)
        gyro = omega + bias_g[k] + noise_g[k]
        out.append((truth.t[k], gyro, accel + bias_a[k] + noise_a[k]))
    return out, bias_g, bias_a


@pytest.mark.parametrize(
    "build", [default_scenario, ring_scenario, corridor_scenario, blackout_scenario]
)
def test_simulate_imu_matches_per_sample_reference_bytes(build):
    sc = build()
    truth = generate_truth(sc)
    gyro, accel, bg, ba = simulate_imu(truth, sc, np.random.default_rng(11))
    ref, ref_bg, ref_ba = _reference_imu(truth, sc, np.random.default_rng(11))
    assert bg.tobytes() == ref_bg.tobytes() and ba.tobytes() == ref_ba.tobytes()
    assert len(gyro) == len(accel) == len(ref)
    for k, (t, ref_gyro, ref_accel) in enumerate(ref):
        assert truth.t[k] == t  # row k is the sample taken at grid time k
        assert gyro[k].tobytes() == ref_gyro.tobytes()
        assert accel[k].tobytes() == ref_accel.tobytes()


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda R: 1.01 * R, "not orthonormal"),
        (lambda R: R @ np.diag([1.0, 1.0, -1.0]), "reflection"),
        (lambda R: np.full((3, 3), np.nan), "not orthonormal"),
    ],
)
def test_simulate_imu_rejects_corrupted_truth_rotation(corrupt, message):
    sc = default_scenario()
    truth = generate_truth(sc)[:50]
    truth.rot[17] = corrupt(truth.rot[17])
    with pytest.raises(ValueError, match=message):
        simulate_imu(truth, sc, np.random.default_rng(0))


def test_constant_bias_mode_shifts_measurements():
    sc = Scenario(
        trajectory={"kind": "line", "start": [0.0, 0.0, 0.0], "velocity": [2.0, 0.0, 0.0]},
        duration=10.0,
        bias_mode="constant",
        accel_bias0=[0.0, 0.0, 0.25],
    )
    truth = generate_truth(sc)[:201]
    sc2 = Scenario(**{**sc.to_dict(), "accel_bias0": [0.0, 0.0, 0.0]})
    _, accel_b, bg, ba = simulate_imu(truth, sc, np.random.default_rng(3))
    _, accel_0, _, _ = simulate_imu(truth, sc2, np.random.default_rng(3))
    np.testing.assert_allclose(ba, np.tile([0.0, 0.0, 0.25], (len(truth), 1)))
    np.testing.assert_allclose(bg, 0.0)
    for a, b in zip(accel_b, accel_0):
        np.testing.assert_allclose(a - b, [0.0, 0.0, 0.25], atol=1e-12)


def test_stream_counts_and_timestamps():
    sc = default_scenario()
    truth = generate_truth(sc)
    assert len(truth) == 8001
    rng = np.random.default_rng(0)
    gyro, accel, bg, ba = simulate_imu(truth, sc, rng)
    odom = simulate_odom(truth, sc, rng)
    frames = simulate_detections(truth, sc, make_map(sc), rng)
    assert gyro.shape == accel.shape == (8000, 3) and bg.shape == (8001, 3)
    assert odom.shape == (400, 3)
    assert len(frames) == 400
    streams = simulate_streams(sc, make_map(sc))
    np.testing.assert_allclose(truth.t[streams.odom_at[0]], 0.1, atol=1e-12)
    np.testing.assert_allclose(frames[-1].t, 40.0, atol=1e-12)


def _reference_detections(truth, sc, smap, rng):
    """simulate_detections one frame and one cluster at a time."""
    intr = sc.intrinsics()
    step = int(round(sc.imu_rate / sc.cam_rate))
    m = int(math.floor(sc.duration * sc.cam_rate + 1e-9))
    frames = []
    for j in range(1, m + 1):
        t = truth.t[j * step]
        if sc.in_blackout(t):
            frames.append((t, [], [], True))
            continue
        dets, tids = [], []
        cps = camera_point(smap.centers(), truth.pose(j * step))
        for c, cp in zip(smap.clusters, cps):
            if cp[2] < 1.0:
                continue
            extents = np.array(
                [intr.fx * sc.lamp_size / cp[2], intr.fy * sc.lamp_size / cp[2]]
            )
            if extents.min() < sc.detector_min_box:
                continue
            pix = pinhole(cp, intr)
            if not intr.contains(pix, margin=2.0):
                continue
            if rng.random() < sc.dropout:
                continue
            noisy = pix + rng.normal(size=2) * sc.pixel_sigma
            dets.append(DetectionBox(noisy, extents))
            tids.append(c.id)
        for _ in range(rng.poisson(sc.false_positives)):
            center = np.array(
                [
                    rng.uniform(10.0, sc.image_width - 10.0),
                    rng.uniform(10.0, sc.image_height - 10.0),
                ]
            )
            dets.append(DetectionBox(center, rng.uniform(8.0, 20.0, size=2)))
            tids.append(None)
        frames.append((t, dets, tids, False))
    return frames


@pytest.mark.parametrize(
    "build", [default_scenario, ring_scenario, corridor_scenario, blackout_scenario]
)
def test_simulate_detections_and_odom_match_per_frame_reference_bytes(build):
    sc = build()
    truth = generate_truth(sc)
    smap = make_map(sc)
    frames = simulate_detections(truth, sc, smap, np.random.default_rng(21))
    ref = _reference_detections(truth, sc, smap, np.random.default_rng(21))
    assert len(frames) == len(ref)
    for f, (t, dets, tids, dark) in zip(frames, ref):
        assert repr(f.t) == repr(t) and f.blackout == dark and f.truth_ids == tids
        assert [(d.center.tobytes(), d.extents.tobytes()) for d in f.detections] == [
            (d.center.tobytes(), d.extents.tobytes()) for d in dets
        ]
    odom = simulate_odom(truth, sc, np.random.default_rng(22))
    noise = np.random.default_rng(22).normal(size=(len(odom), 3)) * sc.odom_sigma
    step = int(round(sc.imu_rate / sc.odom_rate))
    odom_at = simulate_streams(sc, smap).odom_at
    assert odom_at.tolist() == [(j + 1) * step for j in range(len(odom))]
    for j, o in enumerate(odom):
        pose = truth.pose((j + 1) * step)
        assert o.tobytes() == (pose.rot.T @ pose.vel + noise[j]).tobytes()


def test_detection_frames_respect_blackouts_and_labels():
    sc = blackout_scenario()
    truth = generate_truth(sc)
    smap = make_map(sc)
    frames = simulate_detections(truth, sc, smap, np.random.default_rng(2))
    dark = [f for f in frames if 15.0 <= f.t < 35.0]
    assert dark and all(f.blackout and not f.detections for f in dark)
    lit = [f for f in frames if f.detections and not f.blackout]
    assert lit
    ids = {c.id for c in smap.clusters}
    real = fake = 0
    for f in lit:
        assert len(f.detections) == len(f.truth_ids)
        for tid in f.truth_ids:
            if tid is None:
                fake += 1
            else:
                assert tid in ids
                real += 1
    assert real > 100 and fake > 10


def test_detection_pixels_match_projection():
    sc = default_scenario()
    sc.pixel_sigma = 0.0
    sc.dropout = 0.0
    sc.false_positives = 0.0
    truth = generate_truth(sc)
    smap = make_map(sc)
    frames = simulate_detections(truth, sc, smap, np.random.default_rng(5))
    from test_extension import project

    lookup = smap.by_id()
    checked = 0
    for f in frames[::17]:
        k = int(round(f.t * sc.imu_rate))
        pose = truth.pose(k)
        for det, tid in zip(f.detections, f.truth_ids):
            pix = project(lookup[tid].center, pose, sc.intrinsics())
            np.testing.assert_allclose(det.center, pix, atol=1e-9)
            checked += 1
    assert checked > 20


def test_frame_boxes_matches_rendered_segmentation():
    rng = np.random.default_rng(11)
    sc = default_scenario()
    truth = generate_truth(sc)
    smap = make_map(sc)
    trials = 0
    for _ in range(25):
        k = rng.integers(0, len(truth))
        pose = truth.pose(k)
        fast = _pose_boxes(pose, smap, sc)
        img = render_intensity_image(pose, smap, sc)
        slow = segment_boxes(img)
        key = lambda b: (b.center[1], b.center[0])
        slow = sorted(slow, key=key)
        assert len(fast) == len(slow)
        for a, b in zip(fast, slow):
            np.testing.assert_allclose(a.center, b.center, atol=1e-12)
            np.testing.assert_allclose(a.extents, b.extents, atol=1e-12)
        trials += len(fast)
    assert trials > 30


def _box_bytes(boxes):
    return [(b.center.tobytes(), b.extents.tobytes(), b.source) for b in boxes]


@pytest.mark.parametrize("build", [default_scenario, ring_scenario, corridor_scenario])
def test_frame_boxes_over_poses_equal_per_pose_calls(build):
    sc = build()
    truth = generate_truth(sc)[::20]
    smap = make_map(sc)
    one = [_box_bytes(_pose_boxes(pose, smap, sc)) for pose in truth.poses()]
    assert [_box_bytes(b) for b in frame_boxes(truth, smap, sc)] == one
    assert sum(map(len, one)) > len(one) // 2
    assert frame_boxes(truth[:0], smap, sc) == []


def test_simulate_streams_attaches_each_frames_boxes():
    sc = blackout_scenario()
    smap = make_map(sc)
    streams = simulate_streams(sc, smap)
    step = int(round(sc.imu_rate / sc.cam_rate))
    assert streams.frame_at.tolist() == [(j + 1) * step for j in range(len(streams.frames))]
    lit = 0
    for j, f in enumerate(streams.frames):
        if f.blackout:
            assert f.boxes == []
            continue
        pose = streams.truth.pose((j + 1) * step)
        assert _box_bytes(f.boxes) == _box_bytes(_pose_boxes(pose, smap, sc))
        lit += bool(f.boxes)
    assert lit > 100


def _reference_blobs(pose, smap, sc):
    """Blob rectangles one cluster at a time, with scalar floor and clamps."""
    intr = sc.intrinsics()
    size = sc.bloom * sc.lamp_size
    rects = []
    for c in smap.clusters:
        cp = camera_point(c.center, pose)
        if cp[2] < 1.0:
            continue
        pu, pv = intr.fx * cp[0] / cp[2] + intr.cx, intr.fy * cp[1] / cp[2] + intr.cy
        eu, ev = intr.fx * size / cp[2], intr.fy * size / cp[2]
        u0, u1 = math.floor(pu - eu / 2.0 + 0.5), math.floor(pu + eu / 2.0 + 0.5)
        v0, v1 = math.floor(pv - ev / 2.0 + 0.5), math.floor(pv + ev / 2.0 + 0.5)
        u1, v1 = max(u1, u0 + 1), max(v1, v0 + 1)
        u0, v0 = max(u0, 0), max(v0, 0)
        u1, v1 = min(u1, sc.image_width), min(v1, sc.image_height)
        if u0 < u1 and v0 < v1:
            rects.append((u0, u1, v0, v1))
    return rects


def test_visible_blobs_equal_per_cluster_reference():
    rng = np.random.default_rng(12)
    for build in (default_scenario, ring_scenario, corridor_scenario):
        sc = build()
        truth = generate_truth(sc)
        smap = make_map(sc)
        for k in rng.integers(0, len(truth), size=40):
            # yaw jitter pushes blobs across the image border
            pose = truth.pose(k).copy()
            pose.rot = pose.rot @ so3_exp([0.0, 0.0, rng.normal() * 0.5])
            got = _visible_blobs(pose, smap, sc, sc.intrinsics())
            assert got == _reference_blobs(pose, smap, sc)


def test_frame_boxes_merges_overlapping_blobs():
    sc = Scenario(name="pair", lamps=[[20.0, 0.0, 0.0], [20.0, 0.3, 0.0]])
    pose = ExtendedPose()
    boxes = _pose_boxes(pose, make_map(sc), sc)
    img = render_intensity_image(pose, make_map(sc), sc)
    slow = segment_boxes(img)
    assert len(boxes) == len(slow) == 1
    np.testing.assert_allclose(boxes[0].center, slow[0].center)
    np.testing.assert_allclose(boxes[0].extents, slow[0].extents)


def test_simulation_is_deterministic():
    for build in (default_scenario, ring_scenario):
        a = _bundle(build(seed=4))
        b = _bundle(build(seed=4))
        assert a == b
        c = _bundle(build(seed=5))
        assert a != c


def _bundle(sc):
    truth = generate_truth(sc)
    rng = np.random.default_rng(sc.seed)
    gyro, accel, bg, ba = simulate_imu(truth, sc, rng)
    odom = simulate_odom(truth, sc, rng)
    frames = simulate_detections(truth, sc, make_map(sc), rng)
    parts = [bg.tobytes(), ba.tobytes()]
    parts += [g.tobytes() + a.tobytes() for g, a in zip(gyro[::97], accel[::97])]
    parts += [o.tobytes() for o in odom]
    for f in frames:
        parts.append(str(f.truth_ids).encode())
        parts += [d.center.tobytes() for d in f.detections]
    return b"".join(parts)


def test_make_map_orders_and_sizes_clusters():
    sc = default_scenario()
    smap = make_map(sc)
    assert len(smap.clusters) == 20
    assert [c.id for c in smap.clusters] == list(range(20))
    centers = smap.centers()
    order = sorted(range(20), key=lambda i: (centers[i][0], centers[i][1]))
    assert order == list(range(20))
    for c in smap.clusters:
        assert c.points.shape == (7, 3)
        assert np.max(np.linalg.norm(c.points - c.center, axis=1)) <= sc.lamp_size / 2 + 1e-12


def _trajectory(times, poses):
    """A Trajectory of one row per pose."""
    rows = [np.array([getattr(p, f) for p in poses]) for f in ("rot", "vel", "pos")]
    return Trajectory(np.asarray(times, dtype=float), *rows)


def test_compute_ate_known_offsets():
    times = np.arange(11) * 0.1
    truth = _trajectory(times, [ExtendedPose(pos=np.array([t, 0.0, 0.0])) for t in times])
    est = _trajectory(times, [ExtendedPose(pos=np.array([t, 0.3, 0.4])) for t in times])
    trans, rot = compute_ate(est, truth)
    np.testing.assert_allclose(trans, 0.5, rtol=1e-12)
    np.testing.assert_allclose(rot, 0.0, atol=1e-12)

    est2 = _trajectory(times, [ExtendedPose(rot=so3_exp([0.0, 0.0, 0.02])) for _ in times])
    _, rot2 = compute_ate(est2, _trajectory(times, [ExtendedPose() for _ in times]))
    np.testing.assert_allclose(rot2, math.degrees(0.02), rtol=1e-9)

    with pytest.raises(ValueError):
        compute_ate(_trajectory(times + 100.0, est.poses()), truth)


def test_compute_ate_against_rmse_oracle():
    rng = np.random.default_rng(9)
    times = np.arange(50) * 0.05
    offs = rng.normal(size=(50, 3)) * 0.2
    truth = [ExtendedPose(pos=rng.normal(size=3)) for _ in times]
    est = [ExtendedPose(pose.rot.copy(), pose.vel.copy(), pose.pos + o) for pose, o in zip(truth, offs)]
    trans, _ = compute_ate(_trajectory(times, est), _trajectory(times, truth))
    np.testing.assert_allclose(trans, math.sqrt(np.mean(np.sum(offs**2, axis=1))), rtol=1e-12)


def _reference_ate(est_times, est_poses, truth_times, truth_poses, max_dt=0.005):
    """compute_ate one pose pair at a time."""
    est_times = np.asarray(est_times, dtype=float)
    truth_times = np.asarray(truth_times, dtype=float)
    idx = np.clip(np.searchsorted(truth_times, est_times), 0, len(truth_times) - 1)
    left = np.clip(idx - 1, 0, len(truth_times) - 1)
    use_left = np.abs(truth_times[left] - est_times) <= np.abs(
        truth_times[idx] - est_times
    )
    nearest = np.where(use_left, left, idx)
    ok = np.abs(truth_times[nearest] - est_times) <= max_dt + 1e-12
    t_sq, r_sq = [], []
    for i in np.nonzero(ok)[0]:
        e, g = est_poses[i], truth_poses[nearest[i]]
        t_sq.append(float(np.sum((e.pos - g.pos) ** 2)))
        ang = np.linalg.norm(so3_log(e.rot.T @ g.rot))
        r_sq.append(float(ang**2))
    return (
        math.sqrt(float(np.mean(t_sq))),
        math.degrees(math.sqrt(float(np.mean(r_sq)))),
    )


def test_compute_ate_equals_per_pose_reference():
    rng = np.random.default_rng(31)
    times = np.arange(400) * 0.1
    truth = [
        ExtendedPose(so3_exp(rng.normal(size=3)), rng.normal(size=3), rng.normal(size=3))
        for _ in times
    ]
    for angle in (1e-9, 1e-3, 0.2, 2.5):
        est = [
            ExtendedPose(so3_exp(rng.normal(size=3) * angle) @ g.rot, g.vel, g.pos + d)
            for g, d in zip(truth, rng.normal(size=(len(truth), 3)))
        ]
        # every third estimate falls between truth stamps, outside max_dt
        est_times = times + np.where(np.arange(len(times)) % 3 == 0, 0.05, 0.001)
        got = compute_ate(_trajectory(est_times, est), _trajectory(times, truth))
        want = _reference_ate(est_times, est, times, truth)
        assert repr(got) == repr(want)


def test_path_length_of_ring_is_circumference():
    sc = ring_scenario()
    assert abs(path_length(generate_truth(sc)) - 500.0) < 0.5


def test_scenario_roundtrip_and_validation(tmp_path):
    sc = blackout_scenario(seed=12)
    path = tmp_path / "scene.json"
    sc.save(path)
    again = Scenario.load(path)
    assert again == sc
    doc = json.loads(path.read_text())
    assert doc["seed"] == 12

    with pytest.raises(ValueError):
        Scenario(imu_rate=0.0)
    with pytest.raises(ValueError):
        Scenario(imu_rate=100.0, odom_rate=33.0)
    with pytest.raises(ValueError):
        Scenario(duration=-1.0)
    with pytest.raises(ValueError):
        Scenario(bias_mode="drifty")


# Values that break some scenario key, beside a few that fit some keys.
_HOSTILE = [
    math.nan, math.inf, -math.inf, 0, 0.0, -1, -2.5,
    1e12, 10**12, 1e-12, 1e300, -1e300, 1e-300,
    True, False, "x", "1", None, {}, [], [1], [1, 2, 3, 4],
    [[1, 2, 3]], [[0, 1]], [[0, 1e12]], [["1", "2", "3"]], [[True, 0, 4]],
]
_VALUES = st.one_of(
    st.sampled_from(_HOSTILE),
    st.floats(-5, 5),
    st.integers(-10, 5000),
    st.lists(st.floats(-5, 5), min_size=2, max_size=3),
)
_DURATIONS = st.sampled_from(_HOSTILE) | st.floats(-5, 2)
# each trajectory kind with a 2 s course and the keys it reads
_TRAJECTORY_BASES = [
    (
        {"kind": "figure-eight", "amp_x": 25.0, "amp_y": 12.0, "period": 40.0},
        ["amp_x", "amp_y", "period", "height"],
    ),
    (
        {"kind": "circle", "radius": 20.0, "speed": 5.0},
        ["radius", "speed", "center", "height", "phase"],
    ),
    (
        {"kind": "line", "start": [-20.0, 0.0, 0.0], "velocity": [5.0, 0.0, 0.0]},
        ["start", "velocity", "yaw"],
    ),
    (
        {"kind": "waypoints", "times": [0, 1, 2], "points": [[0, 0, 0], [3, 1, 0], [6, 0, 0]]},
        ["times", "points", "closed"],
    ),
]
_TRAJECTORY_KEYS = sorted({"kind"} | {k for _, keys in _TRAJECTORY_BASES for k in keys})


@st.composite
def _scenario_documents(draw):
    """The default scene cut to 2 s, with up to two top-level values and two
    trajectory values replaced; trajectory keys mostly belong to the kind."""
    doc = {**default_scenario().to_dict(), "duration": 2.0}
    base, own = draw(st.sampled_from(_TRAJECTORY_BASES))
    doc["trajectory"] = dict(base)
    for key in draw(st.lists(st.sampled_from(sorted(doc)), max_size=2, unique=True)):
        # the run stays at most 2 s long: duration takes no longer valid value
        doc[key] = draw(_DURATIONS if key == "duration" else _VALUES)
    if isinstance(doc["trajectory"], dict):
        keys = st.sampled_from(own) | st.sampled_from(_TRAJECTORY_KEYS)
        doc["trajectory"].update(draw(st.dictionaries(keys, _VALUES, max_size=2)))
    return doc


@settings(max_examples=300, deadline=None)
@given(doc=_scenario_documents())
def test_scenario_documents_are_rejected_or_run_to_finite_metrics(doc):
    """Any document of known keys is refused by Scenario.from_dict, or its
    2 s run ends with finite metrics or a ValueError: never another
    exception, a hang or a NaN."""
    try:
        sc = Scenario.from_dict(doc)
    except ValueError:
        return
    try:
        metrics = run_pipeline(sc).metrics()
    except ValueError:
        return
    numbers = [v for v in metrics.values() if not isinstance(v, str)]
    assert np.isfinite(numbers).all(), metrics
