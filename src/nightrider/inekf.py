"""Right-invariant extended Kalman filter on the extended pose group.

The filter estimate is an ExtendedPose plus gyro/accelerometer biases.  The
15-dimensional error state stacks [xi_R, xi_v, xi_p, zeta_gyro, zeta_accel]
where xi is the right-invariant pose error (see lie.right_invariant_error)
and zeta = estimated bias - true bias.

Propagation runs over windows of IMU samples, the stretches between two
updates (propagate_window), given as (n, 3) gyro and accel arrays: row k
is the sample that carries the estimate from t + k dt to t + (k + 1) dt,
where t is the state's time.  Within a window the biases are constant, so
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
# The update rule's floor on lambda_min / lambda_max of S.  LU factors S + E
# with ||E|| up to about n^2 eps rho lambda_max (rho the growth factor; Higham,
# Accuracy and Stability of Numerical Algorithms, 2002, Thm 9.3): above the
# floor no pivot is zero while n^2 rho < 9,000, and guarded_solve covers the
# rest.  A bearing S holds the pixel noise, so its ratio is at least
# (MIN_PIXEL_SIGMA / fx)^2 / MAX_BEARING_VAR = 4e-12 at fx = 500.  The
# fixed-seed runs stay above 3.6e-4 (tools/update_margins.py).
RCOND = 1e-12


class UpdateRejected(RuntimeError):
    """Raised when an update's innovation is not finite, or its covariance
    S fails the update rule (admissible) or the solve (guarded_solve)."""


@dataclass
class FilterState:
    pose: ExtendedPose = field(default_factory=ExtendedPose)
    bias_gyro: np.ndarray = field(default_factory=lambda: np.zeros(3))
    bias_accel: np.ndarray = field(default_factory=lambda: np.zeros(3))
    t: float = 0.0


def imu_noise(gyro_sigma, accel_sigma, gyro_bias_sigma, accel_bias_sigma):
    """The read-only 15x15 noise density Q that propagate_window reads:
    gyro and accel white noise on the rotation and velocity rows, none on
    the position rows, bias random walks on the bias rows."""
    sigmas = (gyro_sigma, accel_sigma, 0.0, gyro_bias_sigma, accel_bias_sigma)
    Q = np.diag(np.repeat([s**2 for s in sigmas], 3))
    Q.flags.writeable = False
    return Q


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


def propagate_window(state, P, gyro, accel, dt, Q):
    """Strapdown propagation over a window of IMU samples, dt apart, given
    as (n, 3) gyro and accel arrays, one row per sample.

    Each sample integrates the bias-corrected rates over dt; the biases
    stay constant within the window.  The covariance uses the closed-form
    transition Phi = I + A dt + (A dt)^2/2 + (A dt)^3/6, which is exactly
    expm(A dt) because the error dynamics are nilpotent (A^4 = 0; Hartley
    et al., IJRR 2020).  The noise density Q (imu_noise) maps through the
    adjoint of the current estimate, Ad Q Ad', and each sample's
    covariance step is propagate(P, Phi, Ad Q Ad' dt).

    Only the attitude chain and the covariance recursion run per sample;
    the rest is computed for the whole window at once, by the same
    operations in the same order as one sample at a time, so the result
    equals that of n single-sample windows bit for bit.  Returns the new
    (state, P).  A non-finite sample raises ValueError naming its row and
    time.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if dt > MAX_DT:
        raise ValueError(f"dt {dt} exceeds sanity bound {MAX_DT}")
    gyro = np.asarray(gyro, dtype=float).reshape(len(gyro), 3)
    accel = np.asarray(accel, dtype=float).reshape(len(accel), 3)
    if len(gyro) != len(accel):
        raise ValueError(f"{len(gyro)} gyro rows but {len(accel)} accel rows")
    bad = ~(np.isfinite(gyro).all(axis=1) & np.isfinite(accel).all(axis=1))
    if bad.any():
        k = int(np.argmax(bad))
        t = state.t + k * dt
        raise ValueError(f"non-finite IMU sample {k} of the window (t = {t})")
    for a in range(0, len(gyro), MAX_WINDOW):
        b = a + MAX_WINDOW
        state, P = _propagate_batch(state, P, gyro[a:b], accel[a:b], dt, Q)
    return state, P


def _propagate_batch(state, P, gyro, accel, dt, Q):
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
    Qdt = Ad @ Q @ np.swapaxes(Ad, 1, 2) * dt

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


def admissible(S, max_var=math.inf, margin=0.0):
    """The update rule: S is finite, and its eigenvalues, both ends from one
    eigvalsh and each widened by margin ||S||_2 for rounding, satisfy
    lambda_max <= max_var and lambda_min > RCOND lambda_max.  One answer
    per (n, n) S of an (..., n, n) stack."""
    finite = np.isfinite(S).all(axis=(-2, -1))
    if not finite.all():  # each non-finite S becomes 0, which fails the rule
        S = np.where(finite[..., None, None], S, 0.0)
    lam = np.linalg.eigvalsh(S)
    lo, hi = lam[..., 0], lam[..., -1]
    if margin:
        spread = margin * np.maximum(-lo, hi)  # ||S||_2
        lo, hi = lo - spread, hi + spread
    return finite & (hi <= max_var) & (lo > RCOND * hi)


def guarded_solve(S, b):
    """np.linalg.solve(S, b), NaN for each system of a stack that LU finds
    singular; the others are solved as they would be alone."""
    try:
        return np.linalg.solve(S, b)
    except np.linalg.LinAlgError:
        if S.ndim == 2:
            return np.full(np.shape(b), np.nan)
        return np.stack([guarded_solve(Si, bi) for Si, bi in zip(S, b)])


def invariant_update(state, P, H, z, N, max_var=math.inf):
    """Measurement update under  z = -H [xi; zeta] + n,  n ~ N(0, N).

    Gain K = P H' (H P H' + N)^-1; the correction K z retracts the pose by
    left multiplication with se23_exp and adds to the biases.  Covariance
    uses the Joseph form.  Raises UpdateRejected unless z is finite and
    the innovation covariance S = H P H' + N passes admissible(S,
    max_var), and also if guarded_solve finds S singular.
    """
    H = np.atleast_2d(np.asarray(H, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    N = np.atleast_2d(np.asarray(N, dtype=float))

    HP = H @ P
    S = symmetrize(HP @ H.T + N)
    if not np.isfinite(z).all():
        raise UpdateRejected("non-finite innovation")
    if not admissible(S, max_var):
        raise UpdateRejected("innovation covariance fails the update rule")
    K = guarded_solve(S, HP).T
    if np.isnan(K).any():
        raise UpdateRejected("innovation covariance is singular to the solve")
    delta = K @ z

    pose_new = se23_exp(delta[0:9]).compose(state.pose)
    bias_gyro_new = state.bias_gyro + delta[9:12]
    bias_accel_new = state.bias_accel + delta[12:15]

    IKH = _EYE15 - K @ H
    P_new = IKH @ P @ IKH.T + K @ N @ K.T

    new_state = FilterState(pose_new, bias_gyro_new, bias_accel_new, state.t)
    return new_state, symmetrize(P_new)
