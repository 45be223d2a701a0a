"""Pinhole camera geometry and bearing updates against mapped streetlights.

Frames: the camera sits at the body origin, rotated by CAMERA_MOUNT
(x_c = CAMERA_MOUNT @ x_b), and looks along its +z axis, which is the
body's forward x axis.  The simulator and the filter share this one
mount.  A world point C with estimated pose (R, p) sits at

    Psi = R' (C - p)              (body frame)
    C_c = CAMERA_MOUNT @ Psi      (camera frame)

and the filter observes its bearing, the normalized image point
h = C_c[:2] / C_c[2], whose pixel image is (fx h_x + cx, fy h_y + cy).
Each matched lamp gives a two-row residual in normalized coordinates, as
in the MSCKF (Mourikis & Roumeliotis, ICRA 2007).

bearing_jacobians is the one bearing Jacobian.  It differentiates with
respect to the filter's right-invariant error, the coordinates its
covariance P is kept in, and factors through the camera point:
H = dh/dc @ dc/dxi.  The stacked update (apply_camera_update),
association's densities (association.score_matrix) and recovery's shared
linearization all read it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .inekf import invariant_update
from .lie import skew_many

Z_MIN = 0.01
# Largest innovation variance a bearing update accepts, in normalized
# units squared: a 1-sigma spread of one focal length, 45 degrees off the
# predicted ray, wider than the image (1.28 units either side at 1280 px
# and fx = 500).  x / z linearized at the estimate is not trusted so far.
MAX_BEARING_VAR = 1.0
# Body-to-camera rotation: camera x right (body -y), y down (body -z), z
# forward (body x).
CAMERA_MOUNT = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
CAMERA_MOUNT.flags.writeable = False


@dataclass
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int = 1280
    height: int = 720

    @property
    def K_inv(self):
        return np.array(
            [
                [1.0 / self.fx, 0.0, -self.cx / self.fx],
                [0.0, 1.0 / self.fy, -self.cy / self.fy],
                [0.0, 0.0, 1.0],
            ]
        )

    def contains(self, pixel, margin=0.0):
        """Whether pixel (u, v) lies in the image shrunk by margin.

        An (..., 2) array gives one answer per pixel; NaN pixels lie outside.
        """
        pixel = np.asarray(pixel, dtype=float)
        u, v = pixel[..., 0], pixel[..., 1]
        return (
            (margin <= u)
            & (u <= self.width - 1 - margin)
            & (margin <= v)
            & (v <= self.height - 1 - margin)
        )


@dataclass(slots=True)  # without a dict per box: a run makes thousands
class DetectionBox:
    """Axis-aligned bright-blob box: pixel center and (width, height)."""

    center: np.ndarray
    extents: np.ndarray
    source: str = "detector"


def camera_point(point_w, pose):
    """World point expressed in the camera frame; an (n, 3) array maps
    row-wise, and a stack of k poses (a Trajectory) gives (k, n, 3)."""
    rot, pos = pose.rot, pose.pos
    if rot.ndim == 3:
        rot, pos = rot[:, None], pos[:, None]
    d = np.asarray(point_w, dtype=float) - pos
    return (CAMERA_MOUNT @ (np.swapaxes(rot, -1, -2) @ d[..., None]))[..., 0]


def pinhole(c, intr):
    """Pixel coordinates of camera-frame point(s) c; no depth check."""
    return np.array(
        [
            intr.fx * c[..., 0] / c[..., 2] + intr.cx,
            intr.fy * c[..., 1] / c[..., 2] + intr.cy,
        ]
    ).T


def project_many(points_w, pose, intr):
    """Pixel projections of an (n, 3) array of world points, as (n, 2).

    Rows less than Z_MIN in front of the camera are NaN.
    """
    c = camera_point(np.asarray(points_w, dtype=float).reshape(-1, 3), pose)
    front = c[:, 2] >= Z_MIN
    pix = np.full((len(c), 2), np.nan)
    pix[front] = pinhole(c[front], intr)
    return pix


def back_project(pixel, intr):
    """Normalized ray K^-1 [u, v, 1] (third component 1); an (n, 2) array
    of pixels maps row-wise."""
    xy = (np.asarray(pixel, dtype=float) - [intr.cx, intr.cy]) / [intr.fx, intr.fy]
    return np.concatenate([xy, np.ones(xy.shape[:-1] + (1,))], axis=-1)


def bearing_jacobians(centers_w, state):
    """Predicted bearings of world points and their invariant-error Jacobians.

    For an (m, 3) array of centers (one center gives m = 1) returns
    (front, c, h, H, dh_dc, Dc).  front (m,) marks points at least Z_MIN
    in front of the camera, c (m, 3) is camera_point, h (m, 2) the
    bearing c[:2] / c[2], and H (m, 2, 15) its Jacobian, with the model
    z = y - h = -H [xi; zeta] + n (Barrau & Bonnabel, IEEE TAC 2017).
    H = dh_dc @ Dc factors through the camera point: dh_dc (m, 2, 3) is
    d(c[:2] / c[2]) / dc, and Dc = dc / dxi = CAMERA_MOUNT R' [skew(C), 0,
    -I, 0, 0] (m, 3, 15) depends on the estimate only.  Rows behind the
    camera hold zeros in h, H and Dc.
    """
    C = np.reshape(np.asarray(centers_w, dtype=float), (-1, 3))
    pose = state.pose
    c = camera_point(C, pose)
    front = c[:, 2] >= Z_MIN
    z = np.where(front, c[:, 2], 1.0)
    h = np.where(front[:, None], c[:, :2] / z[:, None], 0.0)

    dh_dc = np.zeros((len(C), 2, 3))
    dh_dc[:, 0, 0] = dh_dc[:, 1, 1] = 1.0 / z
    dh_dc[:, :, 2] = -c[:, :2] / (z * z)[:, None]

    A = CAMERA_MOUNT @ pose.rot.T
    Dc = np.zeros((len(C), 3, 15))
    Dc[:, :, 0:3] = A @ skew_many(C)
    Dc[:, :, 6:9] = -A
    Dc[~front] = 0.0
    return front, c, h, dh_dc @ Dc, dh_dc, Dc


def pixel_noise_var(intr, pixel_sigma):
    """Bearing noise variances (2,) for an isotropic pixel sigma: K^-1
    scales the pixel axes by 1/fx and 1/fy."""
    return np.array([(pixel_sigma / intr.fx) ** 2, (pixel_sigma / intr.fy) ** 2])


def pixel_noise_cov(intr, pixel_sigma, k=1):
    """Bearing noise (2k x 2k) of k stacked bearings, the diagonal of
    pixel_noise_var repeated k times."""
    return np.diag(np.tile(pixel_noise_var(intr, pixel_sigma), k))


def apply_camera_update(state, P, matches, clusters_by_id, intr, pixel_sigma):
    """Stacked bearing update for all positive matches in a MatchSet.

    matches pairs detection boxes with cluster ids; each matched pair
    contributes a 2-row block (observed bearing minus prediction).
    Matches whose cluster sits behind the camera are dropped.  Returns
    (state, P) unchanged when nothing usable remains; raises
    UpdateRejected past MAX_BEARING_VAR (see invariant_update).
    """
    pairs = list(matches.positive_pairs())
    front, _, h, H, _, _ = bearing_jacobians(
        [clusters_by_id[cid].center for _, cid in pairs], state
    )
    k = int(np.count_nonzero(front))
    if not k:
        return state, P
    rays = back_project([det.center for det, _ in pairs], intr)[:, :2]
    N = pixel_noise_cov(intr, pixel_sigma, k)
    return invariant_update(
        state,
        P,
        H[front].reshape(2 * k, 15),
        (rays[front] - h[front]).reshape(2 * k),
        N,
        MAX_BEARING_VAR,
    )
