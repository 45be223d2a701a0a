"""Detection-to-map association for streetlight bearings.

Each detection box is scored against each mapped cluster with a blend of
two Gaussian densities: a reprojection residual in pixels, and an angular
residual (1 - cos) between the back-projected ray and the predicted ray.
Both covariances are driven by the filter's covariance, so a confident
filter is strict and an uncertain one is tolerant.  score_matrix computes
every pair at once.  It pushes P through camera.bearing_jacobians' dc/dxi,
the filter's own invariant-error Jacobian, into one 3x3 camera-point
covariance per cluster, Sc = Dc P Dc'; the pixel density reads it through
diag(fx, fy) dh/dc and the angle density through d cos / dc.  The blend
weight (WEIGHT), the base pixel variance (ALPHA) and the cut-off range
(MAX_RANGE) are module constants; the pipeline's recovery reads MAX_RANGE
too.

A detection may also stay unmatched: its no-match score is one minus the
sum of its cluster scores (floored), which wins exactly when no cluster
explains the detection well.  The resulting rectangular problem has one
solver, hungarian, a thin wrapper over scipy's linear_sum_assignment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .camera import back_project, bearing_jacobians

NO_MATCH_FLOOR = 1e-12
SIGMA_FLOOR = 1e-12
WEIGHT = 0.5  # blend between reprojection and angle densities
ALPHA = 4.0  # base pixel variance (px^2)
MAX_RANGE = 50.0  # clusters farther than this (m) score 0


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


def score_matrix(detections, clusters, state, P, intr):
    """Blended pair scores, one row per detection, one column per cluster.

    Each score is WEIGHT times the pixel density plus 1 - WEIGHT times the
    angle density.  Pairs beyond MAX_RANGE or behind the camera score
    exactly 0.
    """
    n, m = len(detections), len(clusters)
    if n == 0 or m == 0:
        return np.zeros((n, m))
    Cw = np.stack([c.center for c in clusters])
    front, cc, h, _, dh_dc, Dc = bearing_jacobians(Cw, state)
    rng = np.linalg.norm(Cw - state.pose.pos, axis=1)
    valid = front & (rng <= MAX_RANGE)
    f = np.array([intr.fx, intr.fy])
    pix = f * h + [intr.cx, intr.cy]

    # camera-point covariance, (m, 3, 3); zero behind the camera
    Sc = Dc @ P @ Dc.transpose(0, 2, 1)

    # pixel Jacobians against the camera point, diag(fx, fy) dh/dc
    Jpi = f[:, None] * dh_dc
    Sp = ALPHA * np.eye(2) + Jpi @ Sc @ Jpi.transpose(0, 2, 1)
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
    pix_var = ALPHA * (d_pixel[..., 0] ** 2 + d_pixel[..., 1] ** 2)

    # d cos / dc, pushed through the camera-point covariance
    mcu = (u[:, None, :] - w[None, :, :] * cos[:, :, None]) / n_c[None, :, None]
    pose_var = np.einsum("nmi,mij,nmj->nm", mcu, Sc, mcu)
    var = np.maximum(pix_var + pose_var, SIGMA_FLOOR)
    r_ang = 1.0 - cos
    s_ang = np.exp(-0.5 * r_ang**2 / var) / np.sqrt(2.0 * np.pi * var)

    S = WEIGHT * s_proj + (1.0 - WEIGHT) * s_ang
    S[:, ~valid] = 0.0
    return S


def hungarian(score):
    """Optimal one-to-one assignment of rows to columns, by largest total.

    Requires at least as many columns as rows; returns the column index
    chosen for each row.  Solved by scipy's linear_sum_assignment
    (Crouse, IEEE TAES 2016).
    """
    S = np.asarray(score, dtype=float)
    n, m = S.shape
    if n > m:
        raise ValueError(f"assignment needs cols >= rows, got {n}x{m}")
    return linear_sum_assignment(S, maximize=True)[1].tolist()


def associate(detections, clusters, state, P, intr):
    """Assign detections to clusters (or to no-match) by total score.

    The score matrix gains one no-match column per detection carrying
    1 - (row sum of cluster scores), floored at NO_MATCH_FLOOR, so weakly
    explained detections prefer staying unmatched.
    """
    n, m = len(detections), len(clusters)
    if n == 0:
        return MatchSet([], [], [])
    S = score_matrix(detections, clusters, state, P, intr)
    no_match = np.maximum(1.0 - S.sum(axis=1), NO_MATCH_FLOOR)
    full = np.concatenate(
        [S, np.repeat(no_match[:, None], n, axis=1)], axis=1
    )
    cols = hungarian(full)
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
