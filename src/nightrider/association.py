"""Detection-to-map association for streetlight bearings.

Each detection box is scored against each mapped cluster with a blend of
two Gaussian densities: a reprojection residual in pixels, and an angular
residual (1 - cos) between the back-projected ray and the predicted ray.
Both covariances are driven by the filter's pose covariance, so a
confident filter is strict and an uncertain one is tolerant.  score_matrix
computes every pair at once; the projection and angle Jacobians it uses
are also exposed one pair at a time.

A detection may also stay unmatched: its no-match score is one minus the
sum of its cluster scores (floored), which wins exactly when no cluster
explains the detection well.  The resulting rectangular problem has one
solver, hungarian, a thin wrapper over scipy's linear_sum_assignment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .camera import Z_MIN, back_project
from .lie import skew

NO_MATCH_FLOOR = 1e-12
SIGMA_FLOOR = 1e-12

_POSE_IDX = np.r_[0:3, 6:9]  # rotation and position blocks of the 15-state


@dataclass
class ScoreParams:
    weight: float = 0.5  # blend between reprojection and angle densities
    alpha: float = 4.0  # base pixel variance (px^2)
    max_range: float = 50.0  # ignore clusters farther than this (m)


@dataclass
class MatchSet:
    """Per-detection assignment: cluster id or None, with the pair score."""

    detections: list
    cluster_ids: list
    scores: list

    def positive_pairs(self):
        for det, cid in zip(self.detections, self.cluster_ids):
            if cid is not None:
                yield det, cid

    def positive_count(self):
        return sum(1 for cid in self.cluster_ids if cid is not None)

    def matched_ids(self):
        return [cid for cid in self.cluster_ids if cid is not None]


def _pi_jacobian(c, intr):
    """Jacobian of the pixel projection wrt the camera-frame point."""
    X, Y, Z = c
    return np.array(
        [
            [intr.fx / Z, 0.0, -X * intr.fx / Z**2],
            [0.0, intr.fy / Z, -Y * intr.fy / Z**2],
        ]
    )


def _pose_cov(P):
    return P[np.ix_(_POSE_IDX, _POSE_IDX)]


def projection_jacobian(state, center_w, ext, intr):
    """2x6 sensitivity of the projected center to [rotation, position].

    Rotation columns follow a body-frame (right) perturbation of the
    attitude estimate; position columns are additive.  None behind camera.
    """
    pose = state.pose
    psi = pose.rot.T @ (np.asarray(center_w, dtype=float) - pose.pos)
    c = ext.rot @ psi + ext.trans
    if c[2] < Z_MIN:
        return None
    Jpi = _pi_jacobian(c, intr)
    J = np.zeros((2, 6))
    J[:, 0:3] = Jpi @ ext.rot @ skew(psi)
    J[:, 3:6] = -Jpi @ ext.rot @ pose.rot.T
    return J


def angle_gradients(state, detection_pixel, center_w, ext, intr):
    """cos(theta) between back-projected and predicted rays plus gradients.

    Returns (cos_theta, d_cos/d_pixel_homog (3,), d_cos/d_pose (6,)) or
    None behind the camera.  Pose convention as projection_jacobian.
    """
    pose = state.pose
    psi = pose.rot.T @ (np.asarray(center_w, dtype=float) - pose.pos)
    c = ext.rot @ psi + ext.trans
    if c[2] < Z_MIN:
        return None
    ray = back_project(detection_pixel, intr)
    n_ray = np.linalg.norm(ray)
    n_c = np.linalg.norm(c)
    u = ray / n_ray
    w = c / n_c
    cos_theta = float(u @ w)

    d_pixel = ((w - u * cos_theta) / n_ray) @ intr.K_inv
    mcu = (u - w * cos_theta) / n_c
    grad6 = np.concatenate(
        [mcu @ ext.rot @ skew(psi), -(mcu @ ext.rot @ pose.rot.T)]
    )
    return cos_theta, d_pixel, grad6


def score_matrix(detections, clusters, state, P, params, ext, intr):
    """Blended pair scores, one row per detection, one column per cluster.

    Pairs beyond max_range or behind the camera score exactly 0.
    """
    n, m = len(detections), len(clusters)
    if n == 0 or m == 0:
        return np.zeros((n, m))
    pose = state.pose
    R_bc = ext.rot

    Cw = np.stack([c.center for c in clusters])
    delta = Cw - pose.pos
    rng = np.linalg.norm(delta, axis=1)
    psi = delta @ pose.rot  # rows are R' (C - p)
    cc = psi @ R_bc.T + ext.trans
    zdep = cc[:, 2]
    valid = (zdep >= Z_MIN) & (rng <= params.max_range)
    zsafe = np.where(valid, zdep, 1.0)

    pix = np.stack(
        [
            intr.fx * cc[:, 0] / zsafe + intr.cx,
            intr.fy * cc[:, 1] / zsafe + intr.cy,
        ],
        axis=1,
    )

    # projection Jacobians, (m, 2, 3) against camera point then pose
    Jpi = np.zeros((m, 2, 3))
    Jpi[:, 0, 0] = intr.fx / zsafe
    Jpi[:, 1, 1] = intr.fy / zsafe
    Jpi[:, 0, 2] = -intr.fx * cc[:, 0] / zsafe**2
    Jpi[:, 1, 2] = -intr.fy * cc[:, 1] / zsafe**2

    skew_psi = np.zeros((m, 3, 3))
    skew_psi[:, 0, 1] = -psi[:, 2]
    skew_psi[:, 0, 2] = psi[:, 1]
    skew_psi[:, 1, 0] = psi[:, 2]
    skew_psi[:, 1, 2] = -psi[:, 0]
    skew_psi[:, 2, 0] = -psi[:, 1]
    skew_psi[:, 2, 1] = psi[:, 0]

    rot_block = np.einsum("ab,mbc->mac", R_bc, skew_psi)
    J6 = np.concatenate(
        [
            np.einsum("mij,mjk->mik", Jpi, rot_block),
            np.einsum("mij,jk->mik", Jpi, -R_bc @ pose.rot.T),
        ],
        axis=2,
    )
    P6 = _pose_cov(P)
    Sp = params.alpha * np.eye(2) + np.einsum("mij,jk,mlk->mil", J6, P6, J6)
    det2 = Sp[:, 0, 0] * Sp[:, 1, 1] - Sp[:, 0, 1] * Sp[:, 1, 0]

    dets_px = np.stack([np.asarray(d.center, dtype=float) for d in detections])
    r = dets_px[:, None, :] - pix[None, :, :]  # (n, m, 2)
    quad = (
        Sp[None, :, 1, 1] * r[..., 0] ** 2
        - 2.0 * Sp[None, :, 0, 1] * r[..., 0] * r[..., 1]
        + Sp[None, :, 0, 0] * r[..., 1] ** 2
    ) / det2[None, :]
    s_proj = np.exp(-0.5 * quad) / (2.0 * np.pi * np.sqrt(det2[None, :]))

    # angular residual and its variance
    rays = np.stack([back_project(d.center, intr) for d in detections])
    n_ray = np.linalg.norm(rays, axis=1)
    u = rays / n_ray[:, None]
    n_c = np.linalg.norm(cc, axis=1)
    w = cc / n_c[:, None]
    cos = u @ w.T  # (n, m)

    mpw = (w[None, :, :] - u[:, None, :] * cos[:, :, None]) / n_ray[:, None, None]
    d_pixel = np.einsum("nmk,kl->nml", mpw, intr.K_inv)
    pix_var = params.alpha * (d_pixel[..., 0] ** 2 + d_pixel[..., 1] ** 2)

    mcu = (u[:, None, :] - w[None, :, :] * cos[:, :, None]) / n_c[None, :, None]
    grad6 = np.concatenate(
        [
            np.einsum("nmk,mkl->nml", mcu, rot_block),
            np.einsum("nmk,kl->nml", mcu, -(R_bc @ pose.rot.T)),
        ],
        axis=2,
    )
    pose_var = np.einsum("nmi,ij,nmj->nm", grad6, P6, grad6)
    var = np.maximum(pix_var + pose_var, SIGMA_FLOOR)
    r_ang = 1.0 - cos
    s_ang = np.exp(-0.5 * r_ang**2 / var) / np.sqrt(2.0 * np.pi * var)

    S = params.weight * s_proj + (1.0 - params.weight) * s_ang
    S[:, ~valid] = 0.0
    return S


def hungarian(score, maximize=True):
    """Optimal one-to-one assignment of rows to columns.

    Requires at least as many columns as rows; returns the column index
    chosen for each row.  Solved by scipy's linear_sum_assignment
    (Crouse, IEEE TAES 2016).
    """
    S = np.asarray(score, dtype=float)
    n, m = S.shape
    if n > m:
        raise ValueError(f"assignment needs cols >= rows, got {n}x{m}")
    return linear_sum_assignment(S, maximize=maximize)[1].tolist()


def associate(detections, clusters, state, P, params, ext, intr):
    """Assign detections to clusters (or to no-match) by total score.

    The score matrix gains one no-match column per detection carrying
    1 - (row sum of cluster scores), floored at NO_MATCH_FLOOR, so weakly
    explained detections prefer staying unmatched.
    """
    n, m = len(detections), len(clusters)
    if n == 0:
        return MatchSet([], [], [])
    S = score_matrix(detections, clusters, state, P, params, ext, intr)
    no_match = np.maximum(1.0 - S.sum(axis=1), NO_MATCH_FLOOR)
    full = np.concatenate(
        [S, np.repeat(no_match[:, None], n, axis=1)], axis=1
    )
    cols = hungarian(full, maximize=True)
    ids = []
    scores = []
    for i, j in enumerate(cols):
        if j < m:
            ids.append(clusters[j].id)
            scores.append(float(S[i, j]))
        else:
            ids.append(None)
            scores.append(float(no_match[i]))
    return MatchSet(list(detections), ids, scores)
