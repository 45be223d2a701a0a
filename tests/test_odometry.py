import numpy as np

from nightrider.inekf import FilterState
from nightrider.lie import ExtendedPose, so3_exp
from nightrider.odometry import apply_odom_update


def test_zero_innovation_keeps_state():
    pose = ExtendedPose(
        so3_exp(np.array([0.1, 0.2, -0.1])),
        np.array([1.0, 0.5, 0.0]),
        np.array([3.0, -2.0, 1.0]),
    )
    state = FilterState(pose)
    P = np.eye(15) * 0.01
    v_b = pose.rot.T @ pose.vel  # exactly consistent measurement
    st, P2 = apply_odom_update(state, P, v_b, np.eye(3) * 1e-4)
    np.testing.assert_allclose(st.pose.vel, pose.vel, atol=1e-12)
    np.testing.assert_allclose(st.pose.pos, pose.pos, atol=1e-12)
    assert np.trace(P2) < np.trace(P)


def test_update_corrects_velocity_error():
    rng = np.random.default_rng(81)
    true_vel = np.array([2.0, 0.0, 0.0])
    rot = so3_exp(np.array([0.0, 0.0, 0.4]))
    est = FilterState(ExtendedPose(rot, true_vel + np.array([0.5, -0.3, 0.2]), np.zeros(3)))
    P = np.eye(15) * 0.1
    v_b = rot.T @ true_vel
    for _ in range(6):
        est, P = apply_odom_update(est, P, v_b, np.eye(3) * 1e-4)
    assert np.linalg.norm(est.pose.vel - true_vel) < 1e-2


def test_update_touches_only_velocity_with_block_diagonal_cov():
    pose = ExtendedPose(so3_exp(np.array([0.0, 0.0, 1.0])), np.ones(3), np.ones(3) * 5)
    state = FilterState(pose)
    P = np.eye(15) * 0.05  # no cross-correlation
    st, _ = apply_odom_update(state, P, pose.rot.T @ (pose.vel + 0.3), np.eye(3) * 1e-4)
    np.testing.assert_allclose(st.pose.rot, pose.rot, atol=1e-12)
    np.testing.assert_allclose(st.pose.pos, pose.pos, atol=1e-12)
    assert np.linalg.norm(st.pose.vel - pose.vel) > 0.1
