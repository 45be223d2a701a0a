"""Tracking-failure detection and brute-force relocalization.

After a stretch with no accepted streetlight matches the filter is
declared lost.  Recovery enumerates every one-to-one mapping between the
current detections and nearby map clusters (each detection may also map
to nothing), applies the camera update for each candidate mapping, and
scores the result: reprojection residuals, planar position change, yaw
change, and a flat penalty per unmatched detection.  The cheapest
combination wins if it is cheap enough and matches more than two lights.

Every candidate update starts from the same state and covariance, so
they share one linearization: the invariant EKF's Jacobians depend on
the estimate only (Hartley et al., IJRR 2020).  Once per attempt,
recovery computes each cluster's bearing Jacobian H and prediction h,
each detection's ray, HP = H P and the 3m x 3m innovation covariance
S_all = sym(H P H' + kron(I_m, N)) over all m clusters, N being the
pixel noise.  A combination's innovation covariance is the principal
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
eigenvalues of a principal submatrix lie within those of S_all, so when
S_all is positive definite no submatrix's condition number exceeds
lambda_max / lambda_min of S_all.  One eigvalsh per attempt therefore
certifies that no candidate can fail invariant_update's condition check
when that ratio is under COND_LIMIT / COND_MARGIN, and the
per-candidate np.linalg.cond is skipped.  Otherwise (S_all indefinite,
not finite or too ill-conditioned) every candidate's condition number
is computed as invariant_update would.

Batched arithmetic rounds differently from a single update.  So the few
combinations that score within a relative SCORE_TOL of the best batched
score are evaluated again by apply_camera_update and score_candidate, in
enumeration order.  Those serial scores pick the winner and decide
whether it is accepted, and the returned state and covariance are the
winner's serial update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .association import MatchSet
from .camera import (
    Z_MIN,
    apply_camera_update,
    back_project,
    camera_H,
    pinhole,
    pixel_noise_cov,
    project,
)
from .inekf import COND_LIMIT, UpdateRejected
from .lie import so3_exp_jacobian_many

CANDIDATE_BLOCK = 512  # combinations evaluated per batch
MIN_LIGHTS = 3  # matched lights an accepted recovery needs at least
# Batched and serial scores of one combination agree to rounding (5e-12
# relative at worst over the benchmark's 57,243 candidates); every
# combination within SCORE_TOL * (1 + lowest) of the lowest batched score
# is re-scored serially.
SCORE_TOL = 1e-9
# The interlacing certificate accepts S_all when lambda_max <= lambda_min *
# COND_LIMIT / COND_MARGIN, i.e. lambda_min >= 16 lambda_max / 1e12.
# eigvalsh on the 3m x 3m S_all errs by about 3m eps lambda_max per
# eigenvalue (eps = 2.2e-16), so the relative error of lambda_min is about
# 3m eps 6.25e10: 3e-4 at m = 8 and 1.1e-3 at m = 27, the most clusters
# the default budget allows with three detections, the fewest an attempt
# searches (MIN_LIGHTS).  The SVD behind np.linalg.cond on a candidate's
# S, 15 x 15 at most by default, errs far less.  So a certified S_all's
# true lambda_min is within 0.2% of the computed one, and every certified
# candidate's condition number is under 6.3e10, far under COND_LIMIT.  A
# budget of m = 19,999 clusters would still leave it under 4e11.
COND_MARGIN = 16.0


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


def _yaw(rot):
    return math.atan2(rot[1, 0], rot[0, 0])


def score_candidate(state_before, state_after, matches, clusters_by_id, ext, intr, params):
    """Punishment score of one candidate mapping after its update.

    Mean pixel reprojection residual of the matched pairs (0 when none),
    plus weighted planar translation, weighted yaw change, and the
    per-NONE penalty.  None when a matched cluster reprojects behind the
    camera, which disqualifies the combination.
    """
    residuals = []
    for det, cid in matches.positive_pairs():
        pix = project(clusters_by_id[cid].center, state_after.pose, ext, intr)
        if pix is None:
            return None
        residuals.append(np.linalg.norm(np.asarray(det.center) - pix))
    mean_resid = float(np.mean(residuals)) if residuals else 0.0

    dt_xy = float(
        np.linalg.norm((state_after.pose.pos - state_before.pose.pos)[:2])
    )
    d_rot = state_before.pose.rot.T @ state_after.pose.rot
    d_yaw = abs(_yaw(d_rot))
    n_neg = len(matches.cluster_ids) - matches.positive_count()
    return (
        mean_resid
        + params.gamma_pos * dt_xy
        + params.gamma_yaw * d_yaw
        + params.gamma_neg * n_neg
    )


class _SharedLinearization:
    """What every candidate update of one attempt shares.

    For each cluster in front of the camera: the prediction h of
    camera_H and HP = H P.  Over all clusters: the 3m x 3m innovation
    covariance S_all = sym(H P H' + kron(I_m, N)), and whether one
    eigvalsh of it certifies every candidate's condition check
    (certified).  For each detection: its back-projected ray.
    """

    def __init__(self, detections, clusters, state, P, ext, intr, pixel_sigma):
        m = len(clusters)
        self.front = np.zeros(m, dtype=bool)
        H = np.zeros((m, 3, 15))
        self.h = np.zeros((m, 3))
        for j, c in enumerate(clusters):
            out = camera_H(state, c.center, ext, intr)
            if out is not None:
                self.front[j] = True
                H[j], self.h[j] = out
        self.HP = H @ P
        S = self.HP.reshape(3 * m, 15) @ H.reshape(3 * m, 15).T
        S += np.kron(np.eye(m), pixel_noise_cov(intr, pixel_sigma))
        self.S_all = (S + S.T) / 2.0
        self.certified = _certifies(self.S_all)
        self.rays = np.array([back_project(d.center, intr) for d in detections])
        self.pixels = np.array([d.center for d in detections], dtype=float)
        self.centers = np.array([c.center for c in clusters], dtype=float)


def _certifies(S_all):
    """Whether interlacing bounds every principal submatrix's condition.

    lambda_min > 0 is required, not a bounded cond(S_all): an indefinite
    S_all can be well conditioned and still have a singular principal
    submatrix.
    """
    if not np.isfinite(S_all).all():
        return False
    lam = np.linalg.eigvalsh(S_all)
    return bool(lam[0] > 0 and lam[-1] <= lam[0] * (COND_LIMIT / COND_MARGIN))


def _corrections(combos, lin):
    """Error-state corrections of a (B, n) block of combinations.

    Row b is, up to rounding, the correction invariant_update applies for
    combination b: zero when no matched cluster is in front of the camera
    (apply_camera_update then leaves the state alone), and NaN when the
    innovation covariance fails invariant_update's condition check.
    """
    infront = combos >= 0
    infront[infront] = lin.front[combos[infront]]
    k = infront.sum(axis=1)
    delta = np.zeros((len(combos), 15))
    for kk in np.unique(k[k > 0]):
        rows = np.flatnonzero(k == kk)
        dets = np.nonzero(infront[rows])[1].reshape(len(rows), kk)
        cl = combos[rows[:, None], dets]
        idx = (3 * cl[:, :, None] + np.arange(3)).reshape(len(rows), 3 * kk)
        S = lin.S_all[idx[:, :, None], idx[:, None, :]]
        if not lin.certified:
            cond = np.linalg.cond(S)
            ok = np.isfinite(cond) & (cond <= COND_LIMIT)
            delta[rows[~ok]] = np.nan
            rows, S, cl, dets = rows[ok], S[ok], cl[ok], dets[ok]
        HP = lin.HP[cl].reshape(len(rows), 3 * kk, 15)
        z = (lin.rays[dets] - lin.h[cl]).reshape(len(rows), 3 * kk)
        # K z = (H P)' S^-1 z, one right-hand side per combination
        x = np.linalg.solve(S, z[..., None])
        delta[rows] = (HP.transpose(0, 2, 1) @ x)[..., 0]
    return delta


def _block_scores(combos, lin, state, params, ext, intr):
    """score_candidate of each combination in a (B, n) block, up to rounding.

    inf where the update is rejected or a matched cluster reprojects
    behind the camera after it.
    """
    delta = _corrections(combos, lin)
    rejected = np.isnan(delta[:, 0])
    delta[rejected] = 0.0
    R, p = state.pose.rot, state.pose.pos
    E, J = so3_exp_jacobian_many(delta[:, 0:3])
    rot = E @ R
    pos = E @ p + (J @ delta[:, 6:9, None])[..., 0]

    matched = combos >= 0
    d = lin.centers[np.where(matched, combos, 0)] - pos[:, None, :]
    c = np.einsum("bij,bki->bkj", rot, d) @ ext.rot.T + ext.trans
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


def attempt_recovery(detections, clusters, state, P, params, ext, intr, pixel_sigma=2.0):
    """Try to relocalize; returns (state, P, MatchSet) or None.

    Inputs are never mutated.  When the raw combination count exceeds the
    budget the problem is first shrunk deterministically: only the
    largest detection boxes are kept (big blobs are close and carry the
    most signal), then the farthest candidate clusters are dropped until
    the count fits.

    Each combination is scored as its own camera update would score it
    (apply_camera_update, then score_candidate), but in blocks of
    CANDIDATE_BLOCK that share one linearization (see the module
    docstring).  A combination whose update is numerically rejected, or
    that leaves a matched cluster behind the camera, is skipped.  The
    combinations within SCORE_TOL * (1 + lowest) of the lowest batched
    score are then evaluated one at a time by apply_camera_update and
    score_candidate, in enumeration order.  The lowest serial score
    wins, the earliest on a tie, as in a serial loop over every
    combination.  The winner is accepted when its serial score is under
    th_score and it matches at least MIN_LIGHTS lights; the returned
    state and covariance are its serial update's.  With fewer than
    MIN_LIGHTS detections or clusters left after the shrink no map can
    be accepted, so nothing is searched.
    """
    detections, clusters = _shrink(detections, clusters, state, params)
    n, m = len(detections), len(clusters)
    if min(n, m) < MIN_LIGHTS:  # no map could be accepted
        return None

    lin = _SharedLinearization(detections, clusters, state, P, ext, intr, pixel_sigma)
    lowest = np.inf
    shortlist = []  # (batched score, combination), in enumeration order
    combos = assignment_array(n, m)
    for start in range(0, len(combos), CANDIDATE_BLOCK):
        block = combos[start : start + CANDIDATE_BLOCK].astype(np.intp)
        scores = _block_scores(block, lin, state, params, ext, intr)
        lowest = min(lowest, scores.min())
        cut = lowest + SCORE_TOL * (1.0 + lowest)
        near = np.isfinite(scores) & (scores <= cut)
        shortlist = [(s, c) for s, c in shortlist if s <= cut]
        shortlist += [(scores[i], tuple(block[i])) for i in np.flatnonzero(near)]

    clusters_by_id = {c.id: c for c in clusters}
    best = None
    for _, combo in shortlist:
        ids = [clusters[j].id if j >= 0 else None for j in combo]
        ms = MatchSet(list(detections), ids, [0.0] * n)
        if ms.positive_count():
            try:
                st, Pc = apply_camera_update(
                    state, P, ms, clusters_by_id, ext, intr, pixel_sigma
                )
            except UpdateRejected:
                continue
        else:
            st, Pc = state, P
        score = score_candidate(state, st, ms, clusters_by_id, ext, intr, params)
        if score is None:
            continue
        if best is None or score < best[0]:
            best = (score, st, Pc, ms)

    if best is None:
        return None
    score, st, Pc, ms = best
    if score < params.th_score and ms.positive_count() >= MIN_LIGHTS:
        return st, Pc.copy(), ms
    return None
