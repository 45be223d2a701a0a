import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nightrider import pipeline
from nightrider.association import associate
from nightrider.camera import apply_camera_update
from nightrider.inekf import FilterState, imu_noise, propagate_window
from nightrider.lie import ExtendedPose, Trajectory, right_invariant_error, so3_exp
from nightrider.odometry import apply_odom_update
from nightrider.pipeline import (
    EstimateLog,
    MonteCarloResult,
    PipelineConfig,
    initial_covariance,
    monte_carlo,
    run_pipeline,
    score_estimates,
)
from nightrider.sim import (
    Scenario,
    blackout_scenario,
    corridor_scenario,
    default_scenario,
    generate_truth,
    make_map,
    ring_scenario,
    simulate_imu,
    simulate_streams,
)


def _nees(state, P, truth_pose, bias_g, bias_a):
    """Per-frame NEES oracle: the form the filter loop once evaluated."""
    err = np.concatenate(
        [
            right_invariant_error(state.pose, truth_pose),
            state.bias_gyro - bias_g,
            state.bias_accel - bias_a,
        ]
    )
    return float(err @ np.linalg.solve(P, err))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    # error angle scale: Taylor branch of the inverse Jacobian, small,
    # moderate, and the obtuse branch of so3_log
    angle=st.sampled_from([1e-6, 1e-3, 0.3, 2.9]),
)
def test_score_estimates_equals_per_frame_oracle(seed, n, angle):
    rng = np.random.default_rng(seed)
    ref_rot = np.array([so3_exp(rng.normal(size=3)) for _ in range(n)])
    ref_vel = rng.normal(size=(n, 3)) * 5.0
    ref_pos = rng.normal(size=(n, 3)) * 50.0
    bias_g = rng.normal(size=(n, 3)) * 1e-3
    bias_a = rng.normal(size=(n, 3)) * 1e-2
    truth = Trajectory(np.arange(n) * 0.1, ref_rot, ref_vel, ref_pos)
    log = EstimateLog.empty(n)
    want_nees, want_err = [], []
    for i in range(n):
        axis = rng.normal(size=3)
        err_rot = so3_exp(angle * axis / np.linalg.norm(axis))
        pose = ExtendedPose(
            err_rot @ ref_rot[i],
            ref_vel[i] + rng.normal(size=3) * 0.1,
            ref_pos[i] + rng.normal(size=3),
        )
        state = FilterState(
            pose,
            bias_g[i] + rng.normal(size=3) * 1e-3,
            bias_a[i] + rng.normal(size=3) * 1e-2,
            0.1 * i,
        )
        A = rng.normal(size=(15, 15))
        P = A @ A.T * 10.0 ** rng.uniform(-4, 0) + 1e-6 * np.eye(15)
        log.record(i, state.t, state, P)
        truth_pose = ExtendedPose(ref_rot[i], ref_vel[i], ref_pos[i])
        want_nees.append(_nees(state, P, truth_pose, bias_g[i], bias_a[i]))
        want_err.append(float(np.linalg.norm(state.pose.pos - truth_pose.pos)))
    nees, errors = score_estimates(log, truth, bias_g, bias_a)
    assert nees.tobytes() == np.array(want_nees).tobytes()
    assert errors.tobytes() == np.array(want_err).tobytes()


def _quick_scenario(seed=0, duration=10.0):
    sc = default_scenario(seed)
    sc.duration = duration
    sc.trajectory = {**sc.trajectory}
    return sc


def test_dead_reckoning_equals_manual_propagation():
    sc = _quick_scenario()
    res = run_pipeline(
        sc, config=PipelineConfig(use_vision=False, use_odom=False)
    )

    truth = generate_truth(sc)
    rng_imu = np.random.default_rng(np.random.SeedSequence(sc.seed).spawn(4)[0])
    gyro, accel, _, _ = simulate_imu(truth, sc, rng_imu)
    Q = imu_noise(sc.gyro_sigma, sc.accel_sigma, sc.gyro_bias_sigma, sc.accel_bias_sigma)
    state = FilterState(truth.pose(0).copy(), t=0.0)
    P = initial_covariance()
    dt = 1.0 / sc.imu_rate
    step = int(round(sc.imu_rate / sc.cam_rate))
    manual = [state.pose.pos.copy()]
    for k, (g, a) in enumerate(zip(gyro, accel)):
        state, P = propagate_window(state, P, [g], [a], dt, Q)
        if (k + 1) % step == 0:
            manual.append(state.pose.pos.copy())

    np.testing.assert_array_equal(res.log.pos, np.stack(manual))


@pytest.mark.parametrize("use_odom", [True, False])
@pytest.mark.parametrize(
    "imu_rate, odom_rate, cam_rate", [(200, 10, 10), (200, 20, 10), (200, 40, 5), (100, 100, 20)]
)
def test_loop_applies_every_sample_once_at_its_own_index(
    monkeypatch, imu_rate, odom_rate, cam_rate, use_odom
):
    doc = {**default_scenario(0).to_dict(), "duration": 3.0, "imu_rate": imu_rate}
    sc = Scenario.from_dict({**doc, "odom_rate": odom_rate, "cam_rate": cam_rate})
    streams = simulate_streams(sc, make_map(sc))
    reached = [0]  # IMU rows propagated so far
    odom_seen, frames_seen, camera_at = [], [], []

    def window(state, P, gyro, accel, dt, Q):
        reached[0] += len(gyro)
        return propagate_window(state, P, gyro, accel, dt, Q)

    def odom_update(state, P, velocity_b, cov_b):
        odom_seen.append((reached[0], velocity_b.tobytes()))
        return apply_odom_update(state, P, velocity_b, cov_b)

    def associating(detections, *args):
        frames_seen.append((reached[0], [d.center.tobytes() for d in detections]))
        return associate(detections, *args)

    def camera_update(*args):
        camera_at.append(reached[0])
        return apply_camera_update(*args)

    monkeypatch.setattr(pipeline, "propagate_window", window)
    monkeypatch.setattr(pipeline, "apply_odom_update", odom_update)
    monkeypatch.setattr(pipeline, "associate", associating)
    monkeypatch.setattr(pipeline, "apply_camera_update", camera_update)
    # without recovery no frame is lost, so every frame with detections
    # is associated
    res = run_pipeline(sc, config=PipelineConfig(use_odom=use_odom, use_recovery=False))

    assert reached[0] == len(streams.gyro)
    odom = list(zip(streams.odom_at.tolist(), (v.tobytes() for v in streams.odom)))
    assert len(odom) == len(streams.odom) > 0
    assert odom_seen == (odom if use_odom else [])
    frames = [
        (j, [d.center.tobytes() for d in f.detections])
        for j, f in zip(streams.frame_at.tolist(), streams.frames)
        if f.detections
    ]
    assert len(frames) > 0 and frames_seen == frames
    assert camera_at and set(camera_at) <= set(streams.frame_at.tolist())
    assert res.log.t.tolist() == [0.0] + [f.t for f in streams.frames]


@pytest.mark.parametrize(
    "sc, config",
    [
        # recovery after the blackout, association and extension
        (blackout_scenario(0), PipelineConfig()),
        # degeneration matches along the corridor
        (corridor_scenario(), PipelineConfig(use_odom=False, extension_range=35.0)),
    ],
    ids=["blackout", "corridor"],
)
def test_localize_reads_no_truth(sc, config):
    smap = make_map(sc)
    res = run_pipeline(sc, smap=smap, config=config)
    streams = simulate_streams(sc, smap)
    state = FilterState(streams.truth.pose(0).copy(), np.zeros(3), np.zeros(3), 0.0)
    # a dark frame is told apart by its lack of detections and boxes only
    blind = dataclasses.replace(
        streams,
        truth=None,
        bias_gyro=None,
        bias_accel=None,
        rng_init=None,
        frames=[
            dataclasses.replace(f, truth_ids=[None] * len(f.truth_ids))
            for f in streams.frames
        ],
    )
    # the filter may read the scenario's sensor settings, nothing else
    other = Scenario.from_dict(
        {
            **sc.to_dict(),
            "trajectory": {"kind": "circle", "radius": 30.0, "speed": 5.0},
            "lamps": [[0.0, 0.0, 5.0]],
            "blackouts": [],
            "duration": 1.0,
            "seed": sc.seed + 17,
        }
    )
    log, events, frame_matches, state, P = pipeline.localize(
        blind, smap, other, config, state, initial_covariance()
    )

    for name in ("t", "rot", "vel", "pos", "bias_gyro", "bias_accel", "P"):
        assert getattr(log, name).tobytes() == getattr(res.log, name).tobytes()
    assert events == res.events and frame_matches == res.frame_matches
    assert state.pose.pos.tobytes() == res.final_state.pose.pos.tobytes()
    assert P.tobytes() == res.final_P.tobytes()
    counts = np.array([fm[2:] for fm in frame_matches]).sum(axis=0)
    if sc.name == "blackout":
        assert any(e[1] == "recovered" for e in events)
        assert counts[0] > 0 and counts[1] > 0
    else:
        assert counts[2] > 0


def test_odometer_bounds_drift():
    sc = _quick_scenario(seed=3, duration=20.0)
    with_odom = run_pipeline(sc, config=PipelineConfig(use_vision=False))
    without = run_pipeline(
        sc, config=PipelineConfig(use_vision=False, use_odom=False)
    )
    assert with_odom.metrics()["ate_trans"] < without.metrics()["ate_trans"]


def test_vision_beats_dead_reckoning():
    sc = _quick_scenario(seed=1, duration=20.0)
    full = run_pipeline(sc)
    blind = run_pipeline(sc, config=PipelineConfig(use_vision=False))
    assert full.metrics()["ate_trans"] < blind.metrics()["ate_trans"]
    assert full.trans_errors[-1] < 0.5


def test_runs_are_deterministic():
    sc = _quick_scenario(seed=2)
    a = run_pipeline(sc)
    b = run_pipeline(sc)
    assert a.log.t.tobytes() == b.log.t.tobytes()
    assert a.nees.tobytes() == b.nees.tobytes()
    assert a.trans_errors.tobytes() == b.trans_errors.tobytes()
    assert a.log.pos.tobytes() == b.log.pos.tobytes()
    assert a.events == b.events


def test_metrics_contents():
    sc = _quick_scenario()
    res = run_pipeline(sc)
    m = res.metrics()
    assert m["scenario"] == sc.name
    assert m["frames"] == len(res.frame_matches)
    assert 0.0 < m["ate_trans"] < 0.5
    assert m["final_trans_err"] <= m["max_trans_err"]
    assert np.isfinite(res.nees).all()
    # one record per camera frame plus the initial state
    assert len(res.log) == int(sc.duration * sc.cam_rate) + 1


def test_no_vision_produces_no_matches():
    sc = _quick_scenario()
    res = run_pipeline(sc, config=PipelineConfig(use_vision=False))
    assert all(fm[2] == 0 and fm[3] == 0 for fm in res.frame_matches)
    full = run_pipeline(sc)
    assert sum(fm[2] for fm in full.frame_matches) > 50


def test_blackout_recovery_event():
    sc = blackout_scenario()
    res = run_pipeline(sc)
    rec = [e for e in res.events if e[1] == "recovered"]
    assert rec and rec[0][0] >= 35.0
    assert res.trans_errors[-1] < 0.2
    # drift accumulates while the camera is dark
    t = res.log.t
    dark_peak = res.trans_errors[(t > 20.0) & (t < 35.0)].max()
    assert dark_peak > res.trans_errors[(t < 15.0)].max()


def test_ring_without_extension_stays_under_the_ate_bar():
    # association alone must hold the ring: its densities read P in the
    # filter's invariant coordinates, so far from the origin they are not
    # inflated into the no-match column and the run is never declared lost
    res = run_pipeline(ring_scenario(), config=PipelineConfig(use_extension=False))
    assert res.metrics()["ate_trans"] < 0.005 * res.path_length
    assert not [e for e in res.events if e[1] == "recovery_failed"]


def test_degeneration_flag_changes_corridor():
    sc = corridor_scenario()
    base = dict(use_odom=False, extension_range=35.0)
    on = run_pipeline(sc, config=PipelineConfig(**base))
    off = run_pipeline(sc, config=PipelineConfig(**base, use_degeneration=False))
    entered = [e for e in on.events if e[1] == "degeneration_entered"]
    assert entered and entered[0][0] < 1.0
    assert sum(fm[4] for fm in on.frame_matches) >= 1
    assert all(fm[4] == 0 for fm in off.frame_matches)


def test_monte_carlo_result_shape():
    sc = _quick_scenario()
    mc = monte_carlo(sc, 3)
    assert isinstance(mc, MonteCarloResult)
    assert mc.mean_nees.shape == (3,) and mc.final_errors.shape == (3,)
    assert mc.avg_nees == pytest.approx(mc.mean_nees.mean())
    assert (mc.final_errors < 1.0).all()


def test_perturbed_init_starts_at_prior_spread():
    sc = _quick_scenario()
    nees0 = []
    for seed in range(8):
        s = Scenario.from_dict({**sc.to_dict(), "seed": seed})
        res = run_pipeline(s, config=PipelineConfig(perturb_init=True))
        nees0.append(res.nees[0])
    mean0 = float(np.mean(nees0))
    # chi-square with 15 dof: mean 15, loose band for 8 samples
    assert 5.0 < mean0 < 35.0
