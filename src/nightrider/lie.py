"""Rotation and extended-pose group operations, and trajectories of poses.

Conventions used throughout the package:

* rotations are 3x3 orthonormal matrices with determinant +1,
* an extended pose bundles (R, v, p): attitude, world velocity, world
  position, embedded as the 5x5 matrix [[R, v, p], [0, 1, 0], [0, 0, 1]],
* tangent vectors stack [xi_R, xi_v, xi_p] in that order,
* the invariant error between an estimate and a reference is
  eta = X_est * X_ref^-1 (right-invariant form).

Small-angle branches switch at ``SMALL_ANGLE`` (1e-8) to second-order
Taylor expansions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

SMALL_ANGLE = 1e-8
_ORTHO_TOL = 1e-8
_EYE3 = np.eye(3)
_EYE3.flags.writeable = False


def skew(v):
    """Cross-product matrix: skew(a) @ b == np.cross(a, b)."""
    x, y, z = np.asarray(v, dtype=float).tolist()
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def unskew(M):
    """Inverse of skew for an antisymmetric 3x3 matrix."""
    return np.array([M[2, 1], M[0, 2], M[1, 0]])


def so3_exp(phi):
    """Rodrigues formula mapping a rotation vector to a rotation matrix."""
    return _so3_exp_and_left_jacobian(phi, jacobian=False)


def _so3_exp_and_left_jacobian(phi, jacobian=True):
    """so3_exp(phi), and with jacobian=True also so3_left_jacobian(phi).

    Both share skew(phi), S @ S and the sines, so either result equals
    the one computed alone bit for bit.
    """
    phi = np.asarray(phi, dtype=float)
    theta2 = float(phi @ phi)
    S = skew(phi)
    S2 = S @ S
    if theta2 < SMALL_ANGLE**2:
        # second-order Taylor; adequate below the switch point
        exp = _EYE3 + S + 0.5 * S2
        return (exp, _EYE3 + 0.5 * S + S2 / 6.0) if jacobian else exp
    theta = math.sqrt(theta2)
    # 2 sin^2(t/2) instead of 1 - cos(t): no cancellation at small angles
    half_sin = np.sin(theta / 2.0)
    sin = np.sin(theta)
    b = 2.0 * half_sin * half_sin / theta2
    exp = _EYE3 + (sin / theta) * S + b * S2
    if not jacobian:
        return exp
    return exp, _EYE3 + b * S + ((theta - sin) / (theta2 * theta)) * S2


def _check_rotation(R):
    """Raise ValueError unless R (3x3, or a stack of them) is a proper rotation."""
    err = np.abs(np.swapaxes(R, -1, -2) @ R - _EYE3).max(axis=(-2, -1))
    if (err > _ORTHO_TOL).any() or not np.isfinite(R).all():
        raise ValueError(
            f"matrix is not orthonormal (max |R'R - I| = {err.max():.3e})"
        )
    if (np.linalg.det(R) < 0.0).any():
        raise ValueError("matrix is a reflection (det < 0), not a rotation")


def so3_log(R):
    """Principal rotation vector of R, with |phi| <= pi.

    At exactly pi the axis sign is ambiguous; the convention here makes the
    largest-magnitude component of the result non-negative (a half-turn
    about z maps to (0, 0, +pi)).
    """
    R = np.asarray(R, dtype=float)
    _check_rotation(R)
    cos_theta = np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0)
    theta = np.arccos(cos_theta)
    s = unskew(R - R.T) / 2.0  # == sin(theta) * axis

    if theta < SMALL_ANGLE:
        return s
    if theta < 2.0:
        return (theta / np.sin(theta)) * s

    # For obtuse angles sin(theta) shrinks and both s and arccos lose accuracy.
    # The symmetric part B = I + (1 - cos) (aa' - I) stays well conditioned:
    # recover aa' from it, seeding from its largest diagonal entry.
    theta = np.pi - np.arcsin(min(np.linalg.norm(s), 1.0))
    B = (R + R.T) / 2.0
    one_minus_cos = 1.0 - cos_theta
    k = int(np.argmax(np.diag(B)))
    ak = np.sqrt(max((B[k, k] - cos_theta) / one_minus_cos, 0.0))
    axis = B[:, k] / (one_minus_cos * ak)
    axis[k] = ak
    axis = axis / np.linalg.norm(axis)
    # fix the sign: prefer agreement with R - R', else the largest component
    if np.linalg.norm(s) > 1e-12:
        if s @ axis < 0.0:
            axis = -axis
    elif axis[int(np.argmax(np.abs(axis)))] < 0.0:
        axis = -axis
    return theta * axis


def so3_log_many(Rs):
    """so3_log of every matrix in an (n, 3, 3) stack, as an (n, 3) array.

    The same checks and formulas as so3_log, evaluated as array
    operations; rows in the obtuse branch (theta >= 2) go through so3_log
    itself.  Each row equals so3_log of that matrix bit for bit.
    """
    Rs = np.asarray(Rs, dtype=float)
    _check_rotation(Rs)
    cos_theta = np.clip((np.trace(Rs, axis1=1, axis2=2) - 1.0) / 2.0, -1.0, 1.0)
    theta = np.arccos(cos_theta)
    D = Rs - np.swapaxes(Rs, 1, 2)
    out = np.stack([D[:, 2, 1], D[:, 0, 2], D[:, 1, 0]], axis=1) / 2.0
    acute = (theta >= SMALL_ANGLE) & (theta < 2.0)
    out[acute] *= (theta[acute] / np.sin(theta[acute]))[:, None]
    for k in np.flatnonzero(theta >= 2.0):
        out[k] = so3_log(Rs[k])
    return out


def so3_left_jacobian(phi):
    return _so3_exp_and_left_jacobian(phi)[1]


def skew_many(phis):
    """skew of every row of an (n, 3) array, as an (n, 3, 3) stack."""
    x, y, z = phis.T
    S = np.zeros((len(phis), 3, 3))
    S[:, 0, 1] = -z
    S[:, 0, 2] = y
    S[:, 1, 0] = z
    S[:, 1, 2] = -x
    S[:, 2, 0] = -y
    S[:, 2, 1] = x
    return S


def matvec_many(M, v):
    """Row k is M[k] @ v[k], by the same matmul as the 2-D product."""
    return (M @ v[:, :, None])[:, :, 0]


def dot_many(a, b):
    """Row-wise a[k] @ b[k], by the same dot as the 1-D product."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def so3_exp_many(phis, jacobian=False):
    """so3_exp of every row of an (n, 3) array, as an (n, 3, 3) stack.

    The same operations as so3_exp evaluated as array operations, so each
    row equals so3_exp of that vector bit for bit.  With jacobian=True
    also returns the stack of so3_left_jacobian, by its formulas and
    small-angle switch, which agrees with it to rounding.
    """
    phis = np.asarray(phis, dtype=float)
    theta2 = dot_many(phis, phis)
    S = skew_many(phis)
    S2 = S @ S
    small = theta2 < SMALL_ANGLE**2
    t2 = np.where(small, 1.0, theta2)  # placeholder where the branch is unused
    theta = np.sqrt(t2)
    sin = np.sin(theta)
    half_sin = np.sin(theta / 2.0)
    a = np.where(small, 1.0, sin / theta)
    b = np.where(small, 0.5, 2.0 * half_sin * half_sin / t2)
    exp = _EYE3 + a[:, None, None] * S + b[:, None, None] * S2
    if not jacobian:
        return exp
    c = np.where(small, 1.0 / 6.0, (theta - sin) / (t2 * theta))
    return exp, _EYE3 + b[:, None, None] * S + c[:, None, None] * S2


def so3_left_jacobian_inv(phi):
    phi = np.asarray(phi, dtype=float)
    theta2 = float(phi @ phi)
    S = skew(phi)
    if theta2 < 1e-8:
        # Taylor of the inverse, not the inverse of the Taylor
        return np.eye(3) - 0.5 * S + (S @ S) / 12.0
    theta = np.sqrt(theta2)
    # cot(theta/2) form stays finite up to (but excluding) 2*pi
    c = 1.0 / theta2 - np.tan(np.pi / 2.0 - theta / 2.0) / (2.0 * theta)
    return np.eye(3) - 0.5 * S + c * (S @ S)


def so3_left_jacobian_inv_many(phis):
    """so3_left_jacobian_inv of every row of an (n, 3) array, bit for bit."""
    phis = np.asarray(phis, dtype=float)
    theta2 = dot_many(phis, phis)
    S = skew_many(phis)
    S2 = S @ S
    small = theta2 < 1e-8
    t2 = np.where(small, 1.0, theta2)  # placeholder where the branch is unused
    theta = np.sqrt(t2)
    c = 1.0 / t2 - np.tan(np.pi / 2.0 - theta / 2.0) / (2.0 * theta)
    taylor = _EYE3 - 0.5 * S + S2 / 12.0
    closed = _EYE3 - 0.5 * S + c[:, None, None] * S2
    return np.where(small[:, None, None], taylor, closed)


@dataclass
class ExtendedPose:
    """Attitude, world-frame velocity, and world-frame position."""

    rot: np.ndarray = field(default_factory=lambda: np.eye(3))
    vel: np.ndarray = field(default_factory=lambda: np.zeros(3))
    pos: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def copy(self):
        return ExtendedPose(self.rot.copy(), self.vel.copy(), self.pos.copy())

    def as_matrix(self):
        M = np.eye(5)
        M[:3, :3] = self.rot
        M[:3, 3] = self.vel
        M[:3, 4] = self.pos
        return M

    @classmethod
    def from_matrix(cls, M):
        return cls(np.array(M[:3, :3]), np.array(M[:3, 3]), np.array(M[:3, 4]))

    def inverse(self):
        Rt = self.rot.T
        return ExtendedPose(Rt, -Rt @ self.vel, -Rt @ self.pos)

    def compose(self, other):
        return ExtendedPose(
            self.rot @ other.rot,
            self.rot @ other.vel + self.vel,
            self.rot @ other.pos + self.pos,
        )

    def __matmul__(self, other):
        return self.compose(other)


@dataclass
class Trajectory:
    """Extended poses on a time grid, one row each: t (n,), rot (n, 3, 3),
    vel and pos (n, 3).

    Indexing with a slice or an index array gives a trajectory of the same
    type holding those rows of every array field.
    """

    t: np.ndarray
    rot: np.ndarray
    vel: np.ndarray
    pos: np.ndarray

    def __len__(self):
        return len(self.t)

    def __getitem__(self, rows):
        if not isinstance(rows, (slice, np.ndarray)):
            raise TypeError("pick rows with a slice or an index array; pose(k) gives row k")
        return type(self)(*(getattr(self, f.name)[rows] for f in fields(self)))

    def pose(self, k):
        """Row k as an ExtendedPose viewing the arrays."""
        return ExtendedPose(self.rot[k], self.vel[k], self.pos[k])

    def poses(self):
        """One ExtendedPose per row, viewing the arrays."""
        return [ExtendedPose(*row) for row in zip(self.rot, self.vel, self.pos)]


def se23_hat(xi):
    """5x5 Lie-algebra embedding of a 9-vector [xi_R, xi_v, xi_p]."""
    xi = np.asarray(xi, dtype=float)
    M = np.zeros((5, 5))
    M[:3, :3] = skew(xi[0:3])
    M[:3, 3] = xi[3:6]
    M[:3, 4] = xi[6:9]
    return M


def se23_vee(M):
    return np.concatenate([unskew(M[:3, :3]), M[:3, 3], M[:3, 4]])


def se23_exp(xi):
    """Exponential map: closed form via the SO(3) left Jacobian."""
    xi = np.asarray(xi, dtype=float)
    R, J = _so3_exp_and_left_jacobian(xi[0:3])
    return ExtendedPose(R, J @ xi[3:6], J @ xi[6:9])


def se23_log(pose):
    phi = so3_log(pose.rot)
    Jinv = so3_left_jacobian_inv(phi)
    return np.concatenate([phi, Jinv @ pose.vel, Jinv @ pose.pos])


def right_invariant_error(est, ref):
    """xi = log(X_est @ X_ref^-1); zero when the poses agree."""
    return se23_log(est.compose(ref.inverse()))


def right_invariant_error_many(est, ref):
    """right_invariant_error of every pair of rows, as an (n, 9) array.

    est and ref are (rot, vel, pos) triples of (n, 3, 3), (n, 3) and
    (n, 3) stacks; row k equals the scalar function bit for bit.
    """
    est_rot, est_vel, est_pos = est
    ref_rot, ref_vel, ref_pos = ref
    # ref.inverse(), then est.compose(inverse), with the same products
    rt = np.swapaxes(ref_rot, 1, 2)
    inv_vel = matvec_many(-rt, ref_vel)
    inv_pos = matvec_many(-rt, ref_pos)
    rot = est_rot @ rt
    vel = matvec_many(est_rot, inv_vel) + est_vel
    pos = matvec_many(est_rot, inv_pos) + est_pos
    # se23_log
    phi = so3_log_many(rot)
    jinv = so3_left_jacobian_inv_many(phi)
    return np.concatenate([phi, matvec_many(jinv, vel), matvec_many(jinv, pos)], axis=1)


def adjoint_se23(pose):
    """9x9 adjoint: Ad_X xi = vee(X hat(xi) X^-1)."""
    R, v, p = pose.rot, pose.vel, pose.pos
    Ad = np.zeros((9, 9))
    Ad[0:3, 0:3] = R
    Ad[3:6, 0:3] = skew(v) @ R
    Ad[3:6, 3:6] = R
    Ad[6:9, 0:3] = skew(p) @ R
    Ad[6:9, 6:9] = R
    return Ad
