"""Detection-to-map association for streetlight bearings.

Each detection box is scored against each cluster of a ClusterTable with
a blend of two Gaussian densities: a reprojection residual in pixels, and
an angular residual (1 - cos) between the back-projected ray and the
predicted ray.  Both covariances are driven by the filter's covariance,
so a confident filter is strict and an uncertain one is tolerant.
score_matrix computes every pair at once, and linearizes only the
clusters table.near finds within MAX_RANGE and in front of the camera:
the others score 0 without it.  It pushes P
through camera.bearing_jacobians' dc/dxi, the filter's own
invariant-error Jacobian, into one 3x3 camera-point covariance per
cluster, Sc = Dc P Dc'; the pixel density reads it through
diag(fx, fy) dh/dc and the angle density through d cos / dc.  The blend
weight (WEIGHT), the base pixel variance (ALPHA) and the cut-off range
(MAX_RANGE) are module constants.

A detection may also stay unmatched: its no-match score is one minus the
sum of its cluster scores (floored), which wins exactly when no cluster
explains the detection well.  A pair the assignment makes at a score
under MIN_MATCH_SCORE is left unmatched as well.  The resulting
rectangular problem has one solver, hungarian: the shortest-augmenting-
path method of scipy's linear_sum_assignment, ported step for step so
that it breaks ties the same way, without loading scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .camera import back_project, bearing_jacobians

NO_MATCH_FLOOR = 1e-12
SIGMA_FLOOR = 1e-12
WEIGHT = 0.5  # blend between reprojection and angle densities
ALPHA = 4.0  # base pixel variance (px^2)
MAX_RANGE = 50.0  # clusters farther than this (m) score 0
# A detection whose row sums above one forfeits its no-match option, so
# the assignment can pin a stray detection onto a cluster at a vanishing
# score; associate leaves such a pair unmatched.
MIN_MATCH_SCORE = 1e-3
_ALPHA_EYE2 = ALPHA * np.eye(2)
_ALPHA_EYE2.flags.writeable = False


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


def score_matrix(detections, table, state, P, intr):
    """Blended pair scores: a row per detection, a column per table cluster.

    Each score is WEIGHT times the pixel density plus 1 - WEIGHT times the
    angle density.  Pairs beyond MAX_RANGE, behind the camera or left out
    of a view score exactly 0; only the others are linearized and scored.
    """
    n, m = len(detections), len(table.centers)
    S = np.zeros((n, m))
    if n == 0 or m == 0:
        return S
    near = np.flatnonzero(table.near(state.pose.pos, MAX_RANGE))
    front, cc, h, _, dh_dc, Dc = bearing_jacobians(table.centers[near], state)
    cols = near[front]
    if len(cols) == 0:
        return S
    cc, h, dh_dc, Dc = cc[front], h[front], dh_dc[front], Dc[front]
    f = np.array([intr.fx, intr.fy])
    pix = f * h + [intr.cx, intr.cy]

    # camera-point covariance, (k, 3, 3)
    Sc = Dc @ P @ Dc.transpose(0, 2, 1)

    # pixel Jacobians against the camera point, diag(fx, fy) dh/dc
    Jpi = f[:, None] * dh_dc
    Sp = _ALPHA_EYE2 + Jpi @ Sc @ Jpi.transpose(0, 2, 1)
    det2 = Sp[:, 0, 0] * Sp[:, 1, 1] - Sp[:, 0, 1] * Sp[:, 1, 0]

    dets_px = np.array([d.center for d in detections], dtype=float)
    r = dets_px[:, None, :] - pix[None, :, :]  # (n, k, 2)
    quad = (
        Sp[None, :, 1, 1] * r[..., 0] ** 2
        - 2.0 * Sp[None, :, 0, 1] * r[..., 0] * r[..., 1]
        + Sp[None, :, 0, 0] * r[..., 1] ** 2
    ) / det2[None, :]
    s_proj = np.exp(-0.5 * quad) / (2.0 * np.pi * np.sqrt(det2[None, :]))

    # angular residual and its variance
    rays = back_project(dets_px, intr)
    n_ray = np.linalg.norm(rays, axis=1)
    u = rays / n_ray[:, None]
    n_c = np.linalg.norm(cc, axis=1)
    w = cc / n_c[:, None]
    # matmul rounds a lone column apart from a column of several: give a
    # lone scored cluster of several a twin, so cos equals its value in
    # the full (n, m) product
    twin = 2 if len(cols) == 1 and m > 1 else 1
    cos = (u @ np.repeat(w, twin, axis=0).T)[:, : len(cols)]  # (n, k)

    mpw = (w[None, :, :] - u[:, None, :] * cos[:, :, None]) / n_ray[:, None, None]
    d_pixel = np.einsum("nmk,kl->nml", mpw, intr.K_inv)
    pix_var = ALPHA * (d_pixel[..., 0] ** 2 + d_pixel[..., 1] ** 2)

    # d cos / dc, pushed through the camera-point covariance
    mcu = (u[:, None, :] - w[None, :, :] * cos[:, :, None]) / n_c[None, :, None]
    pose_var = np.einsum("nmi,mij,nmj->nm", mcu, Sc, mcu)
    var = np.maximum(pix_var + pose_var, SIGMA_FLOOR)
    r_ang = 1.0 - cos
    s_ang = np.exp(-0.5 * r_ang**2 / var) / np.sqrt(2.0 * np.pi * var)

    S[:, cols] = WEIGHT * s_proj + (1.0 - WEIGHT) * s_ang
    return S


def hungarian(score):
    """Optimal one-to-one assignment of rows to columns, by largest total.

    Requires at least as many columns as rows and finite scores; returns
    the column index chosen for each row.  A port of scipy's
    linear_sum_assignment(score, maximize=True), the shortest augmenting
    path method of Crouse (IEEE TAES 2016), that keeps its order of
    operations: it minimizes the negated scores, searches the remaining
    columns in scipy's order and, among equal path costs, takes an
    unassigned column.  So it returns scipy's columns, ties included.
    """
    S = np.asarray(score, dtype=float)
    n, m = S.shape
    if n > m:
        raise ValueError(f"assignment needs cols >= rows, got {n}x{m}")
    if not np.isfinite(S).all():
        raise ValueError("assignment needs finite scores")
    cost = (-S).tolist()
    u = [0.0] * n  # row and column dual potentials
    v = [0.0] * m
    path = [-1] * m  # the row each column was reached from
    col4row = [-1] * n
    row4col = [-1] * m
    for cur in range(n):
        # Dijkstra over reduced costs from row cur to an unassigned column
        spc = [math.inf] * m  # shortest path cost to each column
        remaining = list(range(m - 1, -1, -1))
        rows = [cur]
        cols = []
        min_val = 0.0
        i = cur
        while True:
            ci, ui = cost[i], u[i]
            lowest = math.inf
            index = -1
            for it, j in enumerate(remaining):
                r = min_val + ci[j] - ui - v[j]
                if r < spc[j]:
                    path[j] = i
                    spc[j] = r
                else:
                    r = spc[j]
                if r < lowest or (r == lowest and row4col[j] == -1):
                    lowest = r
                    index = it
            min_val = lowest
            j = remaining[index]
            remaining[index] = remaining[-1]
            remaining.pop()
            cols.append(j)
            i = row4col[j]
            if i == -1:
                break
            rows.append(i)

        u[cur] += min_val
        for i in rows[1:]:
            u[i] += min_val - spc[col4row[i]]
        for j in cols:
            v[j] -= min_val - spc[j]

        # augment along the path back to row cur
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def associate(detections, table, state, P, intr):
    """Assign detections to the clusters of the ClusterTable table (or to
    no-match) by total score.

    The score matrix gains one no-match column per detection carrying
    1 - (row sum of cluster scores), floored at NO_MATCH_FLOOR, so weakly
    explained detections prefer staying unmatched.  A detection assigned
    a cluster at a score under MIN_MATCH_SCORE is left unmatched too; its
    score stays the assignment's, so the scores sum to the optimal total.
    """
    n, m = len(detections), len(table.centers)
    if n == 0:
        return MatchSet([], [], [])
    S = score_matrix(detections, table, state, P, intr)
    no_match = np.maximum(1.0 - S.sum(axis=1), NO_MATCH_FLOOR)
    full = np.concatenate(
        [S, np.repeat(no_match[:, None], n, axis=1)], axis=1
    )
    cols = hungarian(full)
    ids = []
    scores = []
    for i, j in enumerate(cols):
        if j < m:
            ids.append(table.ids[j] if S[i, j] >= MIN_MATCH_SCORE else None)
            scores.append(float(S[i, j]))
        else:
            ids.append(None)
            scores.append(float(no_match[i]))
    return MatchSet(list(detections), ids, scores)
