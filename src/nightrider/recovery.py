"""Tracking-failure detection and brute-force relocalization.

After a stretch with no accepted streetlight matches the filter is
declared lost.  Recovery enumerates every one-to-one mapping between the
current detections and nearby map clusters (each detection may also map
to nothing), evaluates the camera update for each candidate mapping,
and scores the result: reprojection residuals, planar position change,
yaw change, and a flat penalty per unmatched detection.  The cheapest
combination wins if it is cheap enough and matches at least MIN_LIGHTS
lights; apply_camera_update then applies the winner's update alone.

Every candidate update starts from the same state and covariance, so
they share one linearization: the invariant EKF's Jacobians depend on
the estimate only (Hartley et al., IJRR 2020).  Once per attempt, one
camera.bearing_jacobians call gives each cluster's bearing Jacobian H and
prediction h, the same ones apply_camera_update uses; recovery adds
each detection's bearing, HP = H P and the 2m x 2m innovation covariance
S_all = sym(H P H') plus the pixel noise on its diagonal, over all m
clusters.  A combination's innovation covariance is the principal
submatrix of S_all on its matched clusters' rows.  The combinations are
evaluated in blocks of CANDIDATE_BLOCK.  Within a block, combinations
with equally many in-front matched pairs gather their S from S_all and
are solved in one batch; their corrections are retracted in one batch
and scored with array operations.  The scoring's memory is bounded by
the block.  The enumeration is not: assignment_array holds every
combination at once, n bytes each while m <= 127, and while it is built
NumPy's index arrays take about 16 bytes more per combination, so its
memory grows with the max_combinations budget.

By Cauchy interlacing (Horn & Johnson, Matrix Analysis, Thm 4.3.28) the
eigenvalues of a principal submatrix lie within [lambda_min, lambda_max]
of S_all.  So when S_all's eigenvalues lie in (0, MAX_BEARING_VAR], with
a rounding margin at each end, every candidate passes invariant_update's
rule, and one eigvalsh per attempt stands in for one per candidate.
Otherwise every candidate's S is checked by the rule, in one batched
eigvalsh per block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .association import MatchSet
from .camera import (
    CAMERA_MOUNT,
    MAX_BEARING_VAR,
    Z_MIN,
    apply_camera_update,
    back_project,
    bearing_jacobians,
    pinhole,
    pixel_noise_cov,
)
from .inekf import UpdateRejected
from .lie import so3_exp_many

CANDIDATE_BLOCK = 512  # combinations evaluated per batch
MIN_LIGHTS = 3  # matched lights an accepted recovery needs at least
# eigvalsh errs by about 2m eps lambda_max in each eigenvalue of the 2m x
# 2m S_all (eps = 2.2e-16), and a candidate's own S, computed by
# invariant_update, differs from S_all's submatrix by rounding of the same
# order.  Where lambda_max <= MAX_BEARING_VAR both are under
# CERTIFY_MARGIN for any m below 10^5, so a margin this wide at both ends
# of S_all's spectrum keeps every certified candidate inside the rule.
CERTIFY_MARGIN = 1e-9 * MAX_BEARING_VAR


@dataclass
class RecoveryParams:
    # gamma_pos must dominate gamma_neg for map layouts with repeating
    # spacing: a whole-pitch shift reprojects almost perfectly, so the
    # only thing that separates it from the truth is the size of the
    # position jump it needs.
    gamma_pos: float = 5.0  # per meter of x-y correction
    gamma_yaw: float = 5.0  # per radian of yaw correction
    gamma_neg: float = 12.0  # per unmatched detection
    th_score: float = 40.0
    lost_after: float = 3.0  # seconds without a positive match
    max_combinations: int = 20_000
    max_detections: int = 5  # keep the largest boxes beyond this


def is_lost(time_since_last_match, params):
    return time_since_last_match > params.lost_after


def combination_count(n, m):
    """Number of one-to-one detection-to-cluster maps allowing NONE."""
    return sum(
        math.comb(n, k) * math.perm(m, k) for k in range(min(n, m) + 1)
    )


def assignment_array(n, m):
    """All one-to-one maps of n detections onto m clusters or -1 (NONE).

    One map per row of a (combination_count(n, m), n) array of the
    narrowest signed integer type that holds -1 and m - 1.  Rows are
    lexicographic over the choice list [-1, 0, 1, ...] per detection, so
    enumeration order is deterministic and NONE-heavy maps come first.
    """
    dtype = np.min_scalar_type(-m - 1)
    rows = np.zeros((1, 0), dtype=dtype)
    for _ in range(n):
        # free[r, c]: choice c - 1 may extend row r; NONE always may
        free = np.ones((len(rows), m + 1), dtype=bool)
        r, i = np.nonzero(rows >= 0)
        free[r, rows[r, i] + 1] = False
        parent, choice = np.nonzero(free)
        rows = np.column_stack([rows[parent], (choice - 1).astype(dtype)])
    return rows


class _SharedLinearization:
    """What every candidate update of one attempt shares.

    For each cluster: bearing_jacobians' front flag and prediction h, and
    HP = H P (zero behind the camera).  Over all clusters: the 2m x 2m
    innovation covariance S_all, and whether one eigvalsh of it certifies
    every candidate's update rule (certified).  For each detection: its
    observed bearing.
    """

    def __init__(self, detections, clusters, state, P, intr, pixel_sigma):
        m = len(clusters)
        self.centers = np.array([c.center for c in clusters], dtype=float)
        self.front, _, self.h, H, _, _ = bearing_jacobians(self.centers, state)
        self.HP = H @ P
        S = self.HP.reshape(2 * m, 15) @ H.reshape(2 * m, 15).T
        S += np.diag(np.tile(np.diag(pixel_noise_cov(intr, pixel_sigma)), m))
        self.S_all = (S + S.T) / 2.0
        self.certified = _certifies(self.S_all)
        self.rays = np.array([back_project(d.center, intr)[:2] for d in detections])
        self.pixels = np.array([d.center for d in detections], dtype=float)


def _certifies(S_all):
    """Whether interlacing passes every principal submatrix of S_all
    through invariant_update's rule: S_all finite, with eigenvalues in
    [CERTIFY_MARGIN, MAX_BEARING_VAR - CERTIFY_MARGIN].
    """
    if not np.isfinite(S_all).all():
        return False
    lam = np.linalg.eigvalsh(S_all)
    return bool(
        CERTIFY_MARGIN <= lam[0] and lam[-1] <= MAX_BEARING_VAR - CERTIFY_MARGIN
    )


def _corrections(combos, lin):
    """Error-state corrections of a (B, n) block of combinations.

    Row b is, up to rounding, the correction invariant_update applies for
    combination b: zero when no matched cluster is in front of the camera
    (apply_camera_update then leaves the state alone), and NaN when the
    innovation covariance fails invariant_update's rule.
    """
    infront = combos >= 0
    infront[infront] = lin.front[combos[infront]]
    k = infront.sum(axis=1)
    delta = np.zeros((len(combos), 15))
    for kk in np.unique(k[k > 0]):
        rows = np.flatnonzero(k == kk)
        dets = np.nonzero(infront[rows])[1].reshape(len(rows), kk)
        cl = combos[rows[:, None], dets]
        idx = (2 * cl[:, :, None] + np.arange(2)).reshape(len(rows), 2 * kk)
        S = lin.S_all[idx[:, :, None], idx[:, None, :]]
        if not lin.certified:
            # invariant_update's rule; a non-finite S becomes 0 and fails it
            finite = np.isfinite(S).all(axis=(1, 2))
            lam = np.linalg.eigvalsh(np.where(finite[:, None, None], S, 0.0))
            ok = (lam[:, 0] > 0.0) & (lam[:, -1] <= MAX_BEARING_VAR)
            delta[rows[~ok]] = np.nan
            rows, S, cl, dets = rows[ok], S[ok], cl[ok], dets[ok]
        HP = lin.HP[cl].reshape(len(rows), 2 * kk, 15)
        z = (lin.rays[dets] - lin.h[cl]).reshape(len(rows), 2 * kk)
        # K z = (H P)' S^-1 z, one right-hand side per combination
        x = np.linalg.solve(S, z[..., None])
        delta[rows] = (HP.transpose(0, 2, 1) @ x)[..., 0]
    return delta


def _block_scores(combos, lin, state, params, intr):
    """Punishment score of each combination in a (B, n) block.

    Mean pixel reprojection residual of the matched pairs after the
    combination's update (0 when none), plus weighted planar translation,
    weighted yaw change, and the per-NONE penalty.  inf where the update
    is rejected or a matched cluster reprojects behind the camera after it.
    """
    delta = _corrections(combos, lin)
    rejected = np.isnan(delta[:, 0])
    delta[rejected] = 0.0
    R, p = state.pose.rot, state.pose.pos
    E, J = so3_exp_many(delta[:, 0:3], jacobian=True)
    rot = E @ R
    pos = E @ p + (J @ delta[:, 6:9, None])[..., 0]

    matched = combos >= 0
    d = lin.centers[np.where(matched, combos, 0)] - pos[:, None, :]
    c = np.einsum("bij,bki->bkj", rot, d) @ CAMERA_MOUNT.T
    seen = matched & (c[..., 2] >= Z_MIN)
    behind = (matched & ~seen).any(axis=1)
    resid = np.zeros(combos.shape)
    resid[seen] = np.linalg.norm(
        lin.pixels[np.nonzero(seen)[1]] - pinhole(c[seen], intr), axis=1
    )
    n_pos = matched.sum(axis=1)
    mean_resid = resid.sum(axis=1) / np.maximum(n_pos, 1)

    dt_xy = np.linalg.norm((pos - p)[:, :2], axis=1)
    # yaw of R' rot from its first column
    d_yaw = np.abs(np.arctan2(rot[:, :, 0] @ R[:, 1], rot[:, :, 0] @ R[:, 0]))
    score = (
        mean_resid
        + params.gamma_pos * dt_xy
        + params.gamma_yaw * d_yaw
        + params.gamma_neg * (combos.shape[1] - n_pos)
    )
    score[rejected | behind] = np.inf
    return score


def _shrink(detections, clusters, state, params):
    """The detections and clusters attempt_recovery searches over.

    Only the max_detections largest boxes are kept; then, while the
    combination count exceeds the budget, the farthest cluster is dropped.
    """
    if len(detections) > params.max_detections:
        order = sorted(
            range(len(detections)),
            key=lambda i: float(np.prod(detections[i].extents)),
            reverse=True,
        )
        detections = [detections[i] for i in order[: params.max_detections]]
    n, m = len(detections), len(clusters)
    if n and m and combination_count(n, m) > params.max_combinations:
        clusters = sorted(
            clusters,
            key=lambda c: float(np.linalg.norm(c.center - state.pose.pos)),
        )
        while m > 1 and combination_count(n, m) > params.max_combinations:
            m -= 1
        clusters = clusters[:m]
    return detections, clusters


def attempt_recovery(detections, clusters, state, P, params, intr, pixel_sigma=2.0):
    """Try to relocalize; returns (state, P, MatchSet) or None.

    Inputs are never mutated.  When the raw combination count exceeds the
    budget the problem is first shrunk deterministically: only the
    largest detection boxes are kept (big blobs are close and carry the
    most signal), then the farthest candidate clusters are dropped until
    the count fits.

    Each combination is scored after its own camera update, in blocks of
    CANDIDATE_BLOCK that share one linearization (see the module
    docstring).  A combination whose update is numerically rejected, or
    that leaves a matched cluster behind the camera, is skipped.  The
    lowest score wins, the earliest in enumeration order on a tie.  The
    winner is accepted when its score is under th_score and it matches at
    least MIN_LIGHTS lights; the returned state and covariance are then
    those of one apply_camera_update for it, and None if that update is
    rejected.  With fewer than MIN_LIGHTS detections or clusters left
    after the shrink no map can be accepted, so nothing is searched.
    """
    detections, clusters = _shrink(detections, clusters, state, params)
    n, m = len(detections), len(clusters)
    if min(n, m) < MIN_LIGHTS:  # no map could be accepted
        return None

    lin = _SharedLinearization(detections, clusters, state, P, intr, pixel_sigma)
    best, winner = np.inf, None
    combos = assignment_array(n, m)
    for start in range(0, len(combos), CANDIDATE_BLOCK):
        block = combos[start : start + CANDIDATE_BLOCK].astype(np.intp)
        scores = _block_scores(block, lin, state, params, intr)
        i = int(np.argmin(scores))  # the first of equal lowest scores
        if scores[i] < best:
            best, winner = scores[i], block[i]

    if best >= params.th_score or (winner >= 0).sum() < MIN_LIGHTS:
        return None
    ids = [clusters[j].id if j >= 0 else None for j in winner]
    ms = MatchSet(list(detections), ids, [0.0] * n)
    clusters_by_id = {c.id: c for c in clusters}
    try:
        st, Pc = apply_camera_update(state, P, ms, clusters_by_id, intr, pixel_sigma)
    except UpdateRejected:
        return None
    return st, Pc.copy(), ms
