"""Right-invariant extended Kalman filter on the extended pose group.

The filter estimate is an ExtendedPose plus gyro/accelerometer biases.  The
15-dimensional error state stacks [xi_R, xi_v, xi_p, zeta_gyro, zeta_accel]
where xi is the right-invariant pose error (see lie.right_invariant_error)
and zeta = estimated bias - true bias.

Measurements enter through the linear model  z = -H [xi; zeta] + n  with
n ~ N(0, N).  Updates retract multiplicatively on the left of the pose and
additively on the biases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lie import ExtendedPose, se23_exp, skew, so3_exp

GRAVITY = np.array([0.0, 0.0, -9.81])

MAX_DT = 0.1
COND_LIMIT = 1e12


class UpdateRejected(RuntimeError):
    """Raised when an innovation covariance is numerically singular."""


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
    densities.  gravity is the world-frame gravity vector.  The config is
    frozen because propagate reads two derived matrices every step, built
    once here: the 15x15 block-diagonal noise matrix and skew(gravity).
    """

    gyro_cov: np.ndarray
    accel_cov: np.ndarray
    gyro_bias_cov: np.ndarray
    accel_bias_cov: np.ndarray
    gravity: np.ndarray = field(default_factory=lambda: GRAVITY.copy())
    # derived in __post_init__
    matrix: np.ndarray = field(init=False, repr=False, compare=False)
    gravity_skew: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        Q = np.zeros((15, 15))
        Q[0:3, 0:3] = self.gyro_cov
        Q[3:6, 3:6] = self.accel_cov
        # position rows carry no direct noise
        Q[9:12, 9:12] = self.gyro_bias_cov
        Q[12:15, 12:15] = self.accel_bias_cov
        object.__setattr__(self, "matrix", Q)
        object.__setattr__(self, "gravity_skew", skew(self.gravity))

    @classmethod
    def from_sigmas(
        cls,
        gyro_sigma=0.005,
        accel_sigma=0.05,
        gyro_bias_sigma=1e-4,
        accel_bias_sigma=1e-3,
        gravity=None,
    ):
        g = GRAVITY.copy() if gravity is None else np.asarray(gravity, dtype=float)
        return cls(
            gyro_cov=np.eye(3) * gyro_sigma**2,
            accel_cov=np.eye(3) * accel_sigma**2,
            gyro_bias_cov=np.eye(3) * gyro_bias_sigma**2,
            accel_bias_cov=np.eye(3) * accel_bias_sigma**2,
            gravity=g,
        )


def symmetrize(P):
    return (P + P.T) / 2.0


_EYE3 = np.eye(3)
_EYE15 = np.eye(15)
_EYE3.flags.writeable = _EYE15.flags.writeable = False


def _pose_columns(pose):
    """[R; skew(v) R; skew(p) R] (9x3), the first block column of Ad_X."""
    R = pose.rot
    return np.concatenate([R, skew(pose.vel) @ R, skew(pose.pos) @ R])


def _error_dynamics(cols, g_skew):
    """A (15x15) from the pose columns [R; skew(v) R; skew(p) R] and skew(g)."""
    A = np.zeros((15, 15))
    A[0:9, 9:12] = -cols
    A[3:6, 0:3] = g_skew
    A[3:6, 12:15] = -cols[0:3]
    A[6:9, 3:6] = _EYE3
    return A


def build_error_dynamics(state, gravity=None):
    """Continuous-time error-state Jacobian A (15x15).

    d/dt [xi; zeta] = A [xi; zeta] + (noise terms); the bias rows are zero
    and the pose rows couple to the biases through the current estimate.
    """
    g = GRAVITY if gravity is None else gravity
    return _error_dynamics(_pose_columns(state.pose), skew(g))


def propagate(state, P, imu, dt, noise):
    """One strapdown step: mean propagation plus covariance Riccati update.

    The mean integrates bias-corrected IMU rates over dt.  The covariance
    uses the closed-form transition Phi = I + A dt + (A dt)^2/2 + (A dt)^3/6,
    which is exactly expm(A dt) because the error dynamics are nilpotent
    (A^4 = 0; Hartley et al., IJRR 2020).
    The noise maps through the adjoint of the current estimate,
    Q = Ad Q_n Ad', and P' = sym(Phi (P + Q dt) Phi').
    Returns a new (state, P).
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if dt > MAX_DT:
        raise ValueError(f"dt {dt} exceeds sanity bound {MAX_DT}")
    gyro = np.asarray(imu.gyro, dtype=float)
    accel = np.asarray(imu.accel, dtype=float)
    if not all(map(math.isfinite, gyro.tolist() + accel.tolist())):
        raise ValueError("non-finite IMU sample")

    pose = state.pose
    R, v, p = pose.rot, pose.vel, pose.pos

    omega = gyro - state.bias_gyro
    acc_w = R @ (accel - state.bias_accel) + noise.gravity

    R_new = R @ so3_exp(omega * dt)
    v_new = v + acc_w * dt
    p_new = p + v * dt + 0.5 * acc_w * dt * dt

    cols = _pose_columns(pose)
    M = _error_dynamics(cols, noise.gravity_skew) * dt
    Phi = _EYE15 + M
    M2 = M @ M
    M2 /= 2.0
    Phi += M2
    M3 = M2 @ M
    M3 /= 3.0
    Phi += M3

    # noise enters through the adjoint of the current estimate
    Ad = _EYE15.copy()
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
    return new_state, symmetrize(P_new)


def invariant_update(state, P, H, z, N):
    """Measurement update under  z = -H [xi; zeta] + n,  n ~ N(0, N).

    Gain K = P H' (H P H' + N)^-1; the correction K z retracts the pose by
    left multiplication with se23_exp and adds to the biases.  Covariance
    uses the Joseph form.  Raises UpdateRejected when the innovation
    covariance is numerically singular.
    """
    H = np.atleast_2d(np.asarray(H, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    N = np.atleast_2d(np.asarray(N, dtype=float))

    S = H @ P @ H.T + N
    S = symmetrize(S)
    cond = np.linalg.cond(S)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise UpdateRejected(f"innovation covariance condition {cond:.3e}")

    K = np.linalg.solve(S, H @ P).T
    delta = K @ z

    pose_new = se23_exp(delta[0:9]).compose(state.pose)
    bias_gyro_new = state.bias_gyro + delta[9:12]
    bias_accel_new = state.bias_accel + delta[12:15]

    IKH = np.eye(15) - K @ H
    P_new = IKH @ P @ IKH.T + K @ N @ K.T

    new_state = FilterState(pose_new, bias_gyro_new, bias_accel_new, state.t)
    return new_state, symmetrize(P_new)
