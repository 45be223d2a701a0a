import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from nightrider.camera import MAX_BEARING_VAR
from nightrider.inekf import (
    MAX_WINDOW,
    FilterState,
    NoiseConfig,
    UpdateRejected,
    invariant_update,
    propagate_window,
)
from nightrider.lie import ExtendedPose, adjoint_se23, se23_exp, skew, so3_exp

G = np.array([0.0, 0.0, -9.81])


def _random_state(rng, t=0.0):
    pose = se23_exp(
        np.concatenate([rng.normal(size=3) * 0.8, rng.normal(size=6) * 3.0])
    )
    return FilterState(pose, rng.normal(size=3) * 0.01, rng.normal(size=3) * 0.05, t)


def _default_noise():
    return NoiseConfig.from_sigmas(0.005, 0.05, 1e-4, 1e-3)


# ------------------------------------------------------------ error dynamics


def build_error_dynamics(state):
    """Continuous-time error-state Jacobian A (15x15), written out block by
    block: the oracle of the dynamics propagate_window builds per sample.

    d/dt [xi; zeta] = A [xi; zeta] + (noise terms); the bias rows are zero
    and the pose rows couple to the biases through the current estimate.
    """
    R, v, p = state.pose.rot, state.pose.vel, state.pose.pos
    A = np.zeros((15, 15))
    A[0:3, 9:12] = -R
    A[3:6, 0:3] = skew(G)
    A[3:6, 9:12] = -skew(v) @ R
    A[3:6, 12:15] = -R
    A[6:9, 3:6] = np.eye(3)
    A[6:9, 9:12] = -skew(p) @ R
    return A


def test_error_dynamics_structure():
    rng = np.random.default_rng(30)
    st = _random_state(rng)
    A = build_error_dynamics(st)
    R, v, p = st.pose.rot, st.pose.vel, st.pose.pos
    np.testing.assert_allclose(A[9:15, :], 0.0)  # bias rows are constant
    np.testing.assert_allclose(A[0:3, 0:9], 0.0)
    np.testing.assert_allclose(A[0:3, 9:12], -R)
    np.testing.assert_allclose(A[3:6, 0:3], skew(G))
    np.testing.assert_allclose(A[3:6, 9:12], -skew(v) @ R)
    np.testing.assert_allclose(A[3:6, 12:15], -R)
    np.testing.assert_allclose(A[6:9, 3:6], np.eye(3))
    np.testing.assert_allclose(A[6:9, 9:12], -skew(p) @ R)


def test_error_dynamics_nilpotent():
    rng = np.random.default_rng(31)
    A = build_error_dynamics(_random_state(rng))
    A4 = A @ A @ A @ A
    np.testing.assert_allclose(A4, 0.0, atol=1e-18)


def _flow_error_derivative(state, gyro, accel, err, h):
    """Central finite difference of d/dt [xi; zeta] for the nonlinear flow.

    Truth is placed at exp(-xi) * estimate with bias (estimate - zeta); both
    are stepped by +-h with their own bias corrections (Euler velocity /
    exact attitude increments, matching the strapdown model), and the
    invariant error is re-extracted.  Independent of propagate_window().
    """
    xi, zeta = err[0:9], err[9:15]

    def step(R, v, p, gyro_b, accel_b, dt):
        om = gyro - gyro_b
        aw = R @ (accel - accel_b) + G
        return R @ so3_exp(om * dt), v + aw * dt, p + v * dt + 0.5 * aw * dt * dt

    est0 = state.pose
    true0 = se23_exp(-xi).compose(est0)
    bg_t = state.bias_gyro - zeta[0:3]
    ba_t = state.bias_accel - zeta[3:6]

    errs = []
    for dt in (h, -h):
        eR, ev, ep = step(
            est0.rot, est0.vel, est0.pos, state.bias_gyro, state.bias_accel, dt
        )
        tR, tv, tp = step(true0.rot, true0.vel, true0.pos, bg_t, ba_t, dt)
        est = ExtendedPose(eR, ev, ep)
        true = ExtendedPose(tR, tv, tp)
        eta = est.compose(true.inverse())
        from nightrider.lie import se23_log

        errs.append(np.concatenate([se23_log(eta), zeta]))
    return (errs[0] - errs[1]) / (2.0 * h)


def test_error_dynamics_matches_finite_differences():
    rng = np.random.default_rng(32)
    h, eps = 1e-5, 1e-4
    for _ in range(20):
        st = _random_state(rng)
        gyro, accel = rng.normal(size=3) * 0.5, rng.normal(size=3) * 2.0
        A = build_error_dynamics(st)
        A_fd = np.zeros((15, 15))
        for k in range(15):
            e = np.zeros(15)
            e[k] = eps
            A_fd[:, k] = _flow_error_derivative(st, gyro, accel, e, h) / eps
        scale = np.abs(A).max()
        assert np.abs(A_fd - A).max() / scale < 1e-5


# ------------------------------------------------------------------- expm


def expm_taylor(A, max_terms=20, tol=0.0):
    """Matrix exponential by truncated Taylor series with early exit.

    A general-purpose reference for propagate_window's closed-form transition,
    which sums the four nonzero terms of this series (A^4 = 0).
    """
    out = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    for k in range(1, max_terms + 1):
        term = term @ A / k
        out = out + term
        if np.abs(term).max() <= tol:
            break
    return out


def test_expm_taylor_matches_scipy():
    rng = np.random.default_rng(33)
    for _ in range(50):
        A = build_error_dynamics(_random_state(rng)) * 0.005
        np.testing.assert_allclose(
            expm_taylor(A), scipy.linalg.expm(A), atol=1e-13
        )


# -------------------------------------------------------------- propagation


def test_propagate_stationary_hover():
    st = FilterState()
    P = np.eye(15) * 1e-4
    noise = _default_noise()
    gyro, accel = np.zeros(3), -G  # accelerometer reads +9.81 up
    for _ in range(100):
        st, P = propagate_window(st, P, [gyro], [accel], 0.005, noise)
    np.testing.assert_allclose(st.pose.rot, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(st.pose.vel, 0.0, atol=1e-12)
    np.testing.assert_allclose(st.pose.pos, 0.0, atol=1e-12)
    assert st.t == pytest.approx(0.5)


def test_propagate_constant_velocity():
    st = FilterState(ExtendedPose(vel=np.array([1.0, 0.0, 0.0])))
    P = np.eye(15) * 1e-4
    gyro, accel = np.zeros(3), -G
    for _ in range(200):
        st, P = propagate_window(st, P, [gyro], [accel], 0.005, _default_noise())
    np.testing.assert_allclose(st.pose.pos, [1.0, 0.0, 0.0], atol=1e-10)


def test_propagate_circle_oracle():
    # analytic circle: radius 20 m, speed 2 m/s, yaw rate 0.1 rad/s
    r, s = 20.0, 2.0
    w = s / r
    dt, n = 0.005, 200

    def truth(t):
        a = w * t
        p = np.array([r * math.cos(a), r * math.sin(a), 0.0])
        v = np.array([-s * math.sin(a), s * math.cos(a), 0.0])
        R = Rotation.from_euler("z", a + math.pi / 2).as_matrix()
        return R, v, p

    R0, v0, p0 = truth(0.0)
    st = FilterState(ExtendedPose(R0, v0, p0))
    P = np.zeros((15, 15))
    noise = _default_noise()
    for k in range(n):
        Rk, vk, _ = truth(k * dt)
        _, vk1, _ = truth((k + 1) * dt)
        gyro = np.array([0.0, 0.0, w])
        accel = Rk.T @ ((vk1 - vk) / dt - G)
        st, P = propagate_window(st, P, [gyro], [accel], dt, noise)
    _, _, p_end = truth(n * dt)
    assert np.linalg.norm(st.pose.pos - p_end) < 1e-3


def test_propagate_covariance_grows_and_stays_psd():
    rng = np.random.default_rng(34)
    st = _random_state(rng)
    P = np.eye(15) * 1e-6
    gyro, accel = rng.normal(size=3) * 0.1, -G
    tr0 = np.trace(P)
    for _ in range(100):
        st, P = propagate_window(st, P, [gyro], [accel], 0.005, _default_noise())
    assert np.trace(P) > tr0
    assert np.linalg.eigvalsh(P).min() > -1e-12
    np.testing.assert_allclose(P, P.T)


def test_propagate_first_order_close_to_exact():
    rng = np.random.default_rng(35)
    st = _random_state(rng)
    P = np.eye(15) * 1e-4
    gyro, accel = rng.normal(size=3) * 0.1, rng.normal(size=3)
    sa, Pa = propagate_window(st, P, [gyro], [accel], 0.005, _default_noise())
    pose_b, Pb = _reference_propagate(
        st, P, gyro, accel, 0.005, _default_noise(), first_order=True
    )
    np.testing.assert_allclose(sa.pose.pos, pose_b.pos)  # mean identical
    assert np.abs(Pa - Pb).max() < 1e-6


def _reference_propagate(state, P, gyro, accel, dt, noise, first_order=False):
    """The propagation step written out term by term.

    Phi = expm_taylor(A dt), or I + A dt with first_order,
    Q = Ad Q_n Ad' with the full 15x15 adjoint, P' = sym(Phi (P + Q dt) Phi').
    """
    R, v, p = state.pose.rot, state.pose.vel, state.pose.pos
    omega = gyro - state.bias_gyro
    acc_w = R @ (accel - state.bias_accel) + G
    pose = ExtendedPose(
        R @ so3_exp(omega * dt), v + acc_w * dt, p + v * dt + 0.5 * acc_w * dt * dt
    )
    A_dt = build_error_dynamics(state) * dt
    Phi = np.eye(15) + A_dt if first_order else expm_taylor(A_dt)
    Qn = scipy.linalg.block_diag(
        noise.gyro_cov,
        noise.accel_cov,
        np.zeros((3, 3)),
        noise.gyro_bias_cov,
        noise.accel_bias_cov,
    )
    Ad = np.eye(15)
    Ad[0:9, 0:9] = adjoint_se23(state.pose)
    Q = Ad @ Qn @ Ad.T
    P_new = Phi @ (P + Q * dt) @ Phi.T
    return pose, (P_new + P_new.T) / 2.0


def test_propagate_equals_expm_reference_exactly():
    # the closed-form cubic Phi must not change a single bit against expm
    rng = np.random.default_rng(40)
    noise = NoiseConfig.from_sigmas(0.004, 0.07, 3e-4, 2e-3)
    for trial in range(40):
        st = _random_state(rng, t=0.25)
        L = rng.normal(size=(15, 15))
        P = L @ L.T * 1e-3
        # zero and sub-threshold rates take so3_exp's small-angle branch
        if trial == 0:
            gyro = np.zeros(3)
        elif trial == 1:
            gyro = rng.normal(size=3) * 1e-12
        else:
            gyro = rng.normal(size=3) * 0.5
        accel = rng.normal(size=3) * 2.0 - G
        dt = [0.005, 0.01, 0.1][trial % 3]
        ref_pose, ref_P = _reference_propagate(st, P, gyro, accel, dt, noise)
        out, P_out = propagate_window(st, P, [gyro], [accel], dt, noise)
        np.testing.assert_array_equal(out.pose.rot, ref_pose.rot)
        np.testing.assert_array_equal(out.pose.vel, ref_pose.vel)
        np.testing.assert_array_equal(out.pose.pos, ref_pose.pos)
        np.testing.assert_array_equal(out.bias_gyro, st.bias_gyro)
        np.testing.assert_array_equal(out.bias_accel, st.bias_accel)
        np.testing.assert_array_equal(P_out, ref_P)
        assert out.t == st.t + dt


def test_propagate_rejects_bad_input():
    st = FilterState()
    P = np.eye(15)
    noise = _default_noise()
    with pytest.raises(ValueError):
        propagate_window(st, P, [np.zeros(3)], [np.zeros(3)], 0.0, noise)
    with pytest.raises(ValueError):
        propagate_window(st, P, [np.zeros(3)], [np.zeros(3)], 0.2, noise)
    with pytest.raises(ValueError):
        propagate_window(
            st, P, [np.array([np.nan, 0, 0])], [np.zeros(3)], 0.005, noise
        )


def test_window_error_names_the_bad_sample():
    noise = _default_noise()
    gyro, accel = np.zeros((20, 3)), np.tile(-G, (20, 1))
    accel[7] = [0.0, np.nan, 9.81]
    with pytest.raises(ValueError, match=r"sample 7 of the window \(t = 0\.035\)"):
        propagate_window(FilterState(), np.eye(15), gyro, accel, 0.005, noise)


# ---------------------------------------------------- serial propagation oracle


def serial_propagate(state, P, gyro, accel, dt, noise):
    """One strapdown step, the single-sample propagation that
    propagate_window batches, kept here as its bit-for-bit oracle."""
    gyro = np.asarray(gyro, dtype=float)
    accel = np.asarray(accel, dtype=float)
    pose = state.pose
    R, v, p = pose.rot, pose.vel, pose.pos

    omega = gyro - state.bias_gyro
    acc_w = R @ (accel - state.bias_accel) + G

    R_new = R @ so3_exp(omega * dt)
    v_new = v + acc_w * dt
    p_new = p + v * dt + 0.5 * acc_w * dt * dt

    cols = np.concatenate([R, skew(v) @ R, skew(p) @ R])
    A = np.zeros((15, 15))
    A[0:9, 9:12] = -cols
    A[3:6, 0:3] = skew(G)
    A[3:6, 12:15] = -cols[0:3]
    A[6:9, 3:6] = np.eye(3)
    M = A * dt
    Phi = np.eye(15) + M
    M2 = M @ M
    M2 /= 2.0
    Phi += M2
    M3 = M2 @ M
    M3 /= 3.0
    Phi += M3

    Ad = np.eye(15)
    Ad[0:9, 0:3] = cols
    Ad[3:6, 3:6] = R
    Ad[6:9, 6:9] = R
    Q = Ad @ noise.matrix @ Ad.T
    P_new = Phi @ (P + Q * dt) @ Phi.T

    new_state = FilterState(
        ExtendedPose(R_new, v_new, p_new),
        state.bias_gyro.copy(),
        state.bias_accel.copy(),
        state.t + dt,
    )
    return new_state, (P_new + P_new.T) / 2.0


def _assert_same_bits(out, P_out, ref, P_ref):
    for a, b in [
        (out.pose.rot, ref.pose.rot),
        (out.pose.vel, ref.pose.vel),
        (out.pose.pos, ref.pose.pos),
        (out.bias_gyro, ref.bias_gyro),
        (out.bias_accel, ref.bias_accel),
        (P_out, P_ref),
    ]:
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert type(out.t) is type(ref.t) and out.t == ref.t


def _random_window(rng, state, n, rates):
    """n IMU samples as (gyro, accel) arrays; "zero" and "tiny" rates put
    omega dt below lie.SMALL_ANGLE, so so3_exp takes its small-angle branch."""
    gyros, accels = [], []
    for _ in range(n):
        kind = rng.choice(["zero", "tiny", "turn"]) if rates == "mixed" else rates
        gyro = state.bias_gyro.copy()
        if kind == "tiny":
            gyro += rng.normal(size=3) * 1e-9
        elif kind == "turn":
            gyro += rng.normal(size=3) * 0.5
        gyros.append(gyro)
        accels.append(rng.normal(size=3) * 2.0 - G)
    return np.array(gyros), np.array(accels)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    dt=st.sampled_from([0.005, 0.01, 0.1]),
    rates=st.sampled_from(["zero", "tiny", "turn", "mixed"]),
)
def test_window_equals_serial_steps_bit_for_bit(seed, n, dt, rates):
    rng = np.random.default_rng(seed)
    state = _random_state(rng, t=float(rng.uniform(0.0, 100.0)))
    L = rng.normal(size=(15, 15))
    P = L @ L.T * 10.0 ** rng.uniform(-6, 0)
    noise = NoiseConfig.from_sigmas(*rng.uniform(1e-4, 0.1, size=4))
    gyro, accel = _random_window(rng, state, n, rates)

    ref, P_ref = state, P
    for g, a in zip(gyro, accel):
        ref, P_ref = serial_propagate(ref, P_ref, g, a, dt, noise)
    out, P_out = propagate_window(state, P, gyro, accel, dt, noise)
    _assert_same_bits(out, P_out, ref, P_ref)


def test_long_window_runs_in_batches_bit_for_bit():
    rng = np.random.default_rng(41)
    state = _random_state(rng)
    P = np.eye(15) * 1e-3
    noise = _default_noise()
    gyro, accel = _random_window(rng, state, 2 * MAX_WINDOW + 3, "mixed")
    ref, P_ref = state, P
    for g, a in zip(gyro, accel):
        ref, P_ref = serial_propagate(ref, P_ref, g, a, 0.005, noise)
    out, P_out = propagate_window(state, P, gyro, accel, 0.005, noise)
    _assert_same_bits(out, P_out, ref, P_ref)


# ------------------------------------------------------------------ updates


def test_update_zero_innovation_keeps_state():
    rng = np.random.default_rng(36)
    st = _random_state(rng)
    P = np.eye(15) * 0.1
    H = np.zeros((3, 15))
    H[:, 3:6] = np.eye(3)
    new, P_new = invariant_update(st, P, H, np.zeros(3), np.eye(3) * 0.01)
    np.testing.assert_allclose(new.pose.as_matrix(), st.pose.as_matrix(), atol=1e-12)
    np.testing.assert_allclose(new.bias_gyro, st.bias_gyro)
    # posterior covariance never exceeds prior
    assert np.linalg.eigvalsh(P - P_new).min() > -1e-12


def test_update_shrinks_velocity_error():
    # truth at rest; estimate carries a velocity offset; an exact velocity
    # measurement (z = -xi_v) should remove most of it
    offset = np.array([0.4, -0.2, 0.1])
    st = FilterState(ExtendedPose(vel=offset.copy()))
    P = np.eye(15) * 0.1
    H = np.zeros((3, 15))
    H[:, 3:6] = np.eye(3)
    z = -offset  # truth velocity (0) minus estimate, premultiplied by R = I
    new, P_new = invariant_update(st, P, H, z, np.eye(3) * 1e-6)
    assert np.linalg.norm(new.pose.vel) < 1e-3
    assert np.linalg.norm(new.pose.vel) < np.linalg.norm(offset)


def test_update_velocity_rows_leave_rotation_alone():
    # with block-diagonal P a velocity-only update must not rotate the state
    rng = np.random.default_rng(37)
    st = _random_state(rng)
    P = np.diag(rng.uniform(0.01, 0.2, size=15))
    H = np.zeros((3, 15))
    H[:, 3:6] = np.eye(3)
    new, _ = invariant_update(st, P, H, rng.normal(size=3) * 0.1, np.eye(3) * 1e-4)
    np.testing.assert_allclose(new.pose.rot, st.pose.rot, atol=1e-12)


def test_update_bias_correction_sign():
    # pseudo-measurement of the accel bias error: z = -zeta_a
    true_bias = np.array([0.05, -0.02, 0.01])
    st = FilterState(bias_accel=np.zeros(3))  # estimate starts at zero
    P = np.eye(15) * 0.01
    H = np.zeros((3, 15))
    H[:, 12:15] = np.eye(3)
    zeta = st.bias_accel - true_bias
    new, _ = invariant_update(st, P, H, -zeta, np.eye(3) * 1e-8)
    np.testing.assert_allclose(new.bias_accel, true_bias, atol=1e-4)


def test_update_joseph_form_keeps_psd():
    rng = np.random.default_rng(38)
    st = _random_state(rng)
    M = rng.normal(size=(15, 15))
    P = M @ M.T * 1e-3
    H = rng.normal(size=(6, 15))
    new, P_new = invariant_update(st, P, H, rng.normal(size=6), np.eye(6) * 1e-9)
    assert np.linalg.eigvalsh(P_new).min() > -1e-12
    np.testing.assert_allclose(P_new, P_new.T)


def test_update_rejects_singular_innovation():
    st = FilterState()
    P = np.eye(15) * 0.1
    H = np.zeros((2, 15))
    H[0, 3] = 1.0
    H[1, 3] = 1.0  # duplicate row, zero noise -> singular S
    with pytest.raises(UpdateRejected):
        invariant_update(st, P, H, np.zeros(2), np.zeros((2, 2)))


def test_update_rejects_innovation_cov_singular_to_solve():
    # S is exactly singular (its second row is minus its first), yet
    # eigvalsh can place its smallest eigenvalue a rounding error above
    # zero, and then np.linalg.solve meets a zero pivot.  Either way the
    # update is rejected rather than raising LinAlgError.
    S = np.array([[5.0, -5.0, 3.0], [-5.0, 5.0, -3.0], [3.0, -3.0, 9.0]])
    P = np.zeros((15, 15))
    P[0:3, 0:3] = S
    H = np.zeros((3, 15))
    H[:, 0:3] = np.eye(3)
    with pytest.raises(UpdateRejected):
        invariant_update(FilterState(), P, H, np.zeros(3), np.zeros((3, 3)))


def _velocity_rows():
    H = np.zeros((3, 15))
    H[:, 3:6] = np.eye(3)
    return H


def test_update_rejects_non_finite_innovation():
    st = FilterState()
    z = np.array([np.nan, 0.0, 0.0])
    with pytest.raises(UpdateRejected):
        invariant_update(st, np.eye(15) * 0.1, _velocity_rows(), z, np.eye(3) * 0.01)


def test_update_rejects_indefinite_innovation_cov():
    # S = diag(0.11, -0.15, 0.11): well conditioned, but not a covariance
    st = FilterState()
    N = np.diag([0.01, -0.25, 0.01])
    with pytest.raises(UpdateRejected):
        invariant_update(st, np.eye(15) * 0.1, _velocity_rows(), np.zeros(3), N)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4))
def test_update_rule_caps_largest_innovation_variance(seed, k):
    """With P and N positive definite, the update is rejected exactly when
    lambda_max(S) exceeds the cap, and every accepted P stays SPD."""
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(15, 15)) * 10.0 ** rng.uniform(-2, 0)
    P = B @ B.T + np.eye(15) * 1e-4
    H = rng.normal(size=(2 * k, 15)) * 10.0 ** rng.uniform(-2, 0)
    N = np.diag(rng.uniform(1e-5, 1e-2, size=2 * k))
    lam_max = np.linalg.eigvalsh(H @ P @ H.T + N)[-1]
    assume(abs(lam_max - MAX_BEARING_VAR) > 1e-6)  # rounding would decide
    z = rng.normal(size=2 * k) * 0.1
    state = _random_state(rng)
    if lam_max > MAX_BEARING_VAR:
        with pytest.raises(UpdateRejected):
            invariant_update(state, P, H, z, N, MAX_BEARING_VAR)
        return
    _, P_new = invariant_update(state, P, H, z, N, MAX_BEARING_VAR)
    np.testing.assert_array_equal(P_new, P_new.T)
    assert np.linalg.eigvalsh(P_new)[0] > 0


def test_many_cycles_covariance_stays_psd():
    # long alternating propagate/update soak
    rng = np.random.default_rng(39)
    st = FilterState(ExtendedPose(vel=np.array([1.0, 0, 0])))
    P = np.eye(15) * 1e-4
    noise = _default_noise()
    H = np.zeros((3, 15))
    H[:, 3:6] = np.eye(3)
    N = np.eye(3) * 0.0025
    cycles = 20_000
    for k in range(cycles):
        gyro = rng.normal(size=3) * 0.02
        st, P = propagate_window(st, P, [gyro], [-G], 0.005, noise)
        if k % 20 == 0:
            st, P = invariant_update(st, P, H, rng.normal(size=3) * 0.05, N)
    assert np.linalg.eigvalsh(P).min() > -1e-10
    np.testing.assert_allclose(P, P.T)
