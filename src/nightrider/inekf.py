"""Right-invariant extended Kalman filter on the extended pose group.

The filter estimate is an ExtendedPose plus gyro/accelerometer biases.  The
15-dimensional error state stacks [xi_R, xi_v, xi_p, zeta_gyro, zeta_accel]
where xi is the right-invariant pose error (see lie.right_invariant_error)
and zeta = estimated bias - true bias.

Propagation runs over windows of IMU samples, the stretches between two
updates (propagate_window).  Within a window the biases are constant, so
the attitude increments, velocity and position sums, transitions and
noise terms are computed for all samples at once; only the attitude chain
and the covariance recursion (propagate, one call per sample) are serial.
The result equals one-sample steps bit for bit.

Measurements enter through the linear model  z = -H [xi; zeta] + n  with
n ~ N(0, N).  Updates retract multiplicatively on the left of the pose and
additively on the biases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lie import ExtendedPose, matvec_many, se23_exp, skew, skew_many, so3_exp_many

GRAVITY = np.array([0.0, 0.0, -9.81])
_GRAVITY_SKEW = skew(GRAVITY)
GRAVITY.flags.writeable = _GRAVITY_SKEW.flags.writeable = False

MAX_DT = 0.1


class UpdateRejected(RuntimeError):
    """Raised when a measurement update fails the update rule.

    The rule: the innovation and its covariance S are finite, S is
    positive definite, and no eigenvalue of S exceeds the caller's cap
    (camera.MAX_BEARING_VAR for bearings, none for odometry).
    """


@dataclass
class FilterState:
    pose: ExtendedPose = field(default_factory=ExtendedPose)
    bias_gyro: np.ndarray = field(default_factory=lambda: np.zeros(3))
    bias_accel: np.ndarray = field(default_factory=lambda: np.zeros(3))
    t: float = 0.0

    def copy(self):
        return FilterState(
            self.pose.copy(), self.bias_gyro.copy(), self.bias_accel.copy(), self.t
        )


@dataclass
class ImuSample:
    t: float
    gyro: np.ndarray
    accel: np.ndarray


@dataclass(frozen=True)
class NoiseConfig:
    """Continuous-time noise densities (all 3x3 covariance blocks).

    gyro/accel are white-noise densities; the bias entries are random-walk
    densities.  Gravity is GRAVITY, the same for every run.  The config
    is frozen because propagate_window reads the 15x15 block-diagonal
    noise matrix every window, built once here.
    """

    gyro_cov: np.ndarray
    accel_cov: np.ndarray
    gyro_bias_cov: np.ndarray
    accel_bias_cov: np.ndarray
    # derived in __post_init__
    matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        Q = np.zeros((15, 15))
        Q[0:3, 0:3] = self.gyro_cov
        Q[3:6, 3:6] = self.accel_cov
        # position rows carry no direct noise
        Q[9:12, 9:12] = self.gyro_bias_cov
        Q[12:15, 12:15] = self.accel_bias_cov
        object.__setattr__(self, "matrix", Q)

    @classmethod
    def from_sigmas(
        cls,
        gyro_sigma=0.005,
        accel_sigma=0.05,
        gyro_bias_sigma=1e-4,
        accel_bias_sigma=1e-3,
    ):
        return cls(
            gyro_cov=np.eye(3) * gyro_sigma**2,
            accel_cov=np.eye(3) * accel_sigma**2,
            gyro_bias_cov=np.eye(3) * gyro_bias_sigma**2,
            accel_bias_cov=np.eye(3) * accel_bias_sigma**2,
        )


def symmetrize(P):
    return (P + P.T) / 2.0


_EYE3 = np.eye(3)
_EYE15 = np.eye(15)
_EYE3.flags.writeable = _EYE15.flags.writeable = False
# IMU samples per batched pass: bounds the (n, 15, 15) stacks of a long window
MAX_WINDOW = 256


def _error_dynamics(rot, vel, pos):
    """A (n, 15, 15) at n poses, and their pose columns (n, 9, 3).

    The pose columns [R; skew(v) R; skew(p) R] are the first block column
    of Ad_X; the bias rows of A are zero.
    """
    cols = np.concatenate([rot, skew_many(vel) @ rot, skew_many(pos) @ rot], axis=1)
    A = np.zeros((len(rot), 15, 15))
    A[:, 0:9, 9:12] = -cols
    A[:, 3:6, 0:3] = _GRAVITY_SKEW
    A[:, 3:6, 12:15] = -cols[:, 0:3]
    A[:, 6:9, 3:6] = _EYE3
    return A, cols


def propagate(P, Phi, Qdt):
    """One covariance step of propagation: P' = sym(Phi (P + Q dt) Phi')."""
    return symmetrize(Phi @ (P + Qdt) @ Phi.T)


def propagate_window(state, P, imu, dt, noise):
    """Strapdown propagation over a window of IMU samples, dt apart.

    Each sample integrates the bias-corrected rates over dt; the biases
    stay constant within the window.  The covariance uses the closed-form
    transition Phi = I + A dt + (A dt)^2/2 + (A dt)^3/6, which is exactly
    expm(A dt) because the error dynamics are nilpotent (A^4 = 0; Hartley
    et al., IJRR 2020).  The noise maps through the adjoint of the
    current estimate, Q = Ad Q_n Ad', and each sample's covariance step
    is propagate(P, Phi, Q dt).

    Only the attitude chain and the covariance recursion run per sample;
    the rest is computed for the whole window at once, by the same
    operations in the same order as one sample at a time, so the result
    equals that of len(imu) single-sample windows bit for bit.  Returns
    the new (state, P).
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if dt > MAX_DT:
        raise ValueError(f"dt {dt} exceeds sanity bound {MAX_DT}")
    gyro = np.array([s.gyro for s in imu], dtype=float).reshape(len(imu), 3)
    accel = np.array([s.accel for s in imu], dtype=float).reshape(len(imu), 3)
    bad = ~(np.isfinite(gyro).all(axis=1) & np.isfinite(accel).all(axis=1))
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"non-finite IMU sample {k} of the window (t = {imu[k].t})")
    for a in range(0, len(gyro), MAX_WINDOW):
        b = a + MAX_WINDOW
        state, P = _propagate_batch(state, P, gyro[a:b], accel[a:b], dt, noise)
    return state, P


def _propagate_batch(state, P, gyro, accel, dt, noise):
    """propagate_window on (n, 3) arrays of checked gyro and accel rows."""
    n = len(gyro)
    pose = state.pose
    # the attitude chain: R_k+1 = R_k exp(omega_k dt)
    rot = [pose.rot]
    for E in so3_exp_many((gyro - state.bias_gyro) * dt):
        rot.append(rot[-1] @ E)
    rot = np.stack(rot)
    acc_w = matvec_many(rot[:-1], accel - state.bias_accel) + GRAVITY

    # velocity and position are running sums, added left to right:
    # v_k+1 = v_k + a_k dt and p_k+1 = (p_k + v_k dt) + a_k dt^2 / 2
    vel = np.add.accumulate(np.concatenate([pose.vel[None], acc_w * dt]))
    steps = np.empty((2 * n + 1, 3))
    steps[0] = pose.pos
    steps[1::2] = vel[:-1] * dt
    steps[2::2] = 0.5 * acc_w * dt * dt
    pos = np.add.accumulate(steps)[0::2]

    A, cols = _error_dynamics(rot[:-1], vel[:-1], pos[:-1])
    M = A * dt
    Phi = _EYE15 + M
    M2 = M @ M
    M2 /= 2.0
    Phi += M2
    M3 = M2 @ M
    M3 /= 3.0
    Phi += M3

    # noise enters through the adjoint of the current estimate
    Ad = np.broadcast_to(_EYE15, (n, 15, 15)).copy()
    Ad[:, 0:9, 0:3] = cols
    Ad[:, 3:6, 3:6] = rot[:-1]
    Ad[:, 6:9, 6:9] = rot[:-1]
    Qdt = Ad @ noise.matrix @ np.swapaxes(Ad, 1, 2) * dt

    t = state.t
    for k in range(n):
        P = propagate(P, Phi[k], Qdt[k])
        t = t + dt
    new_state = FilterState(
        ExtendedPose(rot[-1], vel[-1], pos[-1]),
        state.bias_gyro.copy(),
        state.bias_accel.copy(),
        t,
    )
    return new_state, P


def invariant_update(state, P, H, z, N, max_var=math.inf):
    """Measurement update under  z = -H [xi; zeta] + n,  n ~ N(0, N).

    Gain K = P H' (H P H' + N)^-1; the correction K z retracts the pose by
    left multiplication with se23_exp and adds to the biases.  Covariance
    uses the Joseph form.  Raises UpdateRejected unless z and the
    innovation covariance S = H P H' + N are finite and S's eigenvalues,
    both ends from one eigvalsh, lie in (0, max_var], and S is nonsingular
    to np.linalg.solve.
    """
    H = np.atleast_2d(np.asarray(H, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    N = np.atleast_2d(np.asarray(N, dtype=float))

    S = H @ P @ H.T + N
    S = symmetrize(S)
    if not (np.isfinite(z).all() and np.isfinite(S).all()):
        raise UpdateRejected("non-finite innovation or innovation covariance")
    lam = np.linalg.eigvalsh(S)
    if not (lam[0] > 0.0 and lam[-1] <= max_var):
        raise UpdateRejected(f"eigenvalues of S in [{lam[0]:.3e}, {lam[-1]:.3e}]")

    try:
        K = np.linalg.solve(S, H @ P).T
    except np.linalg.LinAlgError as exc:
        # S can pass the eigenvalue test and still be singular to LU
        raise UpdateRejected(f"innovation covariance is singular ({exc})") from exc
    delta = K @ z

    pose_new = se23_exp(delta[0:9]).compose(state.pose)
    bias_gyro_new = state.bias_gyro + delta[9:12]
    bias_accel_new = state.bias_accel + delta[12:15]

    IKH = np.eye(15) - K @ H
    P_new = IKH @ P @ IKH.T + K @ N @ K.T

    new_state = FilterState(pose_new, bias_gyro_new, bias_accel_new, state.t)
    return new_state, symmetrize(P_new)
