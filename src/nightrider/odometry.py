"""Wheel-odometer velocity updates.

The odometer reports a 3-vector velocity in the body frame: the simulator
mounts it at the body origin, aligned with the body axes, and no scenario
or map field moves it.  The update fuses that velocity with the
measurement covariance odom_sigma^2 I.
"""

from __future__ import annotations

import numpy as np

from .inekf import invariant_update

# the velocity block of the 15-dim error state
_H = np.zeros((3, 15))
_H[:, 3:6] = np.eye(3)
_H.flags.writeable = False


def apply_odom_update(state, P, velocity_b, cov_b):
    """Fuse a body-frame velocity measurement with covariance cov_b.

    The innovation R_hat (v_b - R_hat' v_hat) equals -xi_v up to noise, so
    H selects the velocity block and the noise covariance is rotated into
    the world frame.  Returns (state, P).
    """
    R = state.pose.rot
    z = R @ np.asarray(velocity_b, dtype=float) - state.pose.vel
    N = R @ cov_b @ R.T
    return invariant_update(state, P, _H, z, N)
