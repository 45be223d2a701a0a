"""Tracking-failure detection and brute-force relocalization.

After a stretch with no accepted streetlight matches the filter is
declared lost.  Recovery enumerates every one-to-one mapping between the
current detections and the map clusters in view (candidate_clusters, a
mapping.ClusterTable view; each detection may also map to nothing),
evaluates the camera update for each, and scores the result:
reprojection residuals, planar position change,
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
clusters.  A combination's innovation covariance S_T is the principal
submatrix of S_all on the rows of the set T of in-front clusters it
matches, and its correction HP_T' S_T^-1 z_T does not change when its
matched pairs are permuted.  So each lamp set's gain G_T = S_T^-1 HP_T
is solved once per attempt, and a combination's correction is G_T' z_T.
Each set orders its lamps by center, then by index, so twin lamps (one
center, two ids) give byte-identical gains and an exact tie stays
exact.  The gains of every set of up to n lamps are solved in batches
of at most CANDIDATE_BLOCK sets and kept in a table, looked up by a
set's size and colex rank: sum_k C(m, k) 2k x 15 doubles, 0.2 MB for 5
detections onto 8 lamps (218 sets for 19,081 combinations) and 2.3 MB
for 3 onto 27 (3,303 sets for 19,738).

The combinations are scored in blocks of CANDIDATE_BLOCK.  A score adds
the mean residual, the weighted planar and yaw changes and the NONE
penalty, left to right; every term is non-negative and rounding is
monotone, so the sum without the residual is a lower bound on the score,
and so is the NONE penalty alone.  A block leaves unscored every
combination whose NONE penalty reaches the best score of the blocks
before it, retracts the corrections of the rest in one batch, and
computes camera points and residuals only where the lower bound is still
below that best.  An unscored combination cannot beat the best
strictly, so the earliest of equal lowest scores still wins.  The
scoring's memory is bounded by the block.  The enumeration is not:
assignment_array holds every combination at once, n bytes each while
m <= 127, and while it is built NumPy's index arrays take about 16 bytes
more per combination, so its memory grows with the max_combinations
budget.

By Cauchy interlacing (Horn & Johnson, Matrix Analysis, Thm 4.3.28) the
eigenvalues of a principal submatrix lie within [lambda_min, lambda_max]
of S_all, so its lambda_max is at most S_all's and its ratio lambda_min /
lambda_max at least S_all's, up to rounding.  So when S_all passes the
update rule (inekf.admissible) with a rounding margin at each end of its
spectrum, every candidate passes it too, and one eigvalsh per attempt
stands in for one per lamp set.  Otherwise every set's S_T is checked
by the rule, in one batched eigvalsh per batch of sets, and a set that
fails it rejects every combination matching it.  Either way the gains
are solved by inekf.guarded_solve, as invariant_update solves.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .association import MAX_RANGE, MatchSet
from .camera import (
    MAX_BEARING_VAR,
    Z_MIN,
    apply_camera_update,
    back_project,
    bearing_jacobians,
    camera_point,
    pinhole,
    pixel_noise_cov,
)
from .inekf import UpdateRejected, admissible, guarded_solve, symmetrize
from .lie import ExtendedPose, so3_exp_many

CANDIDATE_BLOCK = 512  # combinations scored, or lamp sets solved, per batch
MIN_LIGHTS = 3  # matched lights an accepted recovery needs at least
# eigvalsh is backward stable, so by Weyl's inequality each eigenvalue it
# gives for an n x n symmetric S is off by at most about n eps ||S||_2
# (eps = 2.2e-16; Golub & Van Loan, Matrix Computations, ch. 8).  A
# candidate's S is a principal submatrix of S_all (n <= 2m), so by
# interlacing it passes the rule once S_all passes with both ends of its
# spectrum widened by the two eigvalsh errors, 2 x 2m eps ||S_all||_2.
# CERTIFY_MARGIN per row is 8 times that, and certifies any S_all whose
# lambda_min / lambda_max exceeds about RCOND + 32 m eps.  The winner's
# update recomputes its S; if that fails the rule, the recovery fails.
CERTIFY_MARGIN = 16 * np.finfo(float).eps  # per row of S_all
# The score's weights.  GAMMA_POS must dominate GAMMA_NEG for map layouts
# with repeating spacing: a whole-pitch shift reprojects almost perfectly,
# so the only thing that separates it from the truth is the size of the
# position jump it needs.
GAMMA_POS = 5.0  # per meter of x-y correction
GAMMA_YAW = 5.0  # per radian of yaw correction
GAMMA_NEG = 12.0  # per unmatched detection
TH_SCORE = 40.0  # a winner must score below this
LOST_AFTER = 3.0  # seconds without a positive match


@dataclass
class RecoveryParams:
    """The search budget."""

    max_combinations: int = 20_000
    max_detections: int = 5  # keep the largest boxes beyond this


def is_lost(time_since_last_match):
    return time_since_last_match > LOST_AFTER


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
    observed bearing.  For the clusters in front: label, each one's place
    in the order of centers, then indices (-1 behind the camera), and
    by_label, its inverse; z (n, labels, 2), each detection's bearing
    less each one's prediction; and gains, the _GainTable of every set of
    at most n of them.
    """

    def __init__(self, detections, centers, state, P, intr, pixel_sigma):
        m = len(centers)
        self.centers = centers
        self.front, _, self.h, H, _, _ = bearing_jacobians(centers, state)
        self.HP = H @ P
        S = self.HP.reshape(2 * m, 15) @ H.reshape(2 * m, 15).T
        S += pixel_noise_cov(intr, pixel_sigma, m)
        self.S_all = symmetrize(S)
        self.certified = _certifies(self.S_all)
        self.pixels = np.array([d.center for d in detections], dtype=float)
        self.rays = back_project(self.pixels, intr)[:, :2]
        ahead = np.flatnonzero(self.front)
        c = centers[ahead]
        self.by_label = ahead[np.lexsort((c[:, 2], c[:, 1], c[:, 0]))]  # stable: ties by index
        self.label = np.full(m, -1)
        self.label[self.by_label] = np.arange(len(ahead))
        self.z = self.rays[:, None] - self.h[self.by_label]
        kmax = min(len(detections), len(ahead))
        self.gains = _GainTable(self, [_lamp_sets(len(ahead), k) for k in range(1, kmax + 1)])


def _certifies(S_all):
    """Whether interlacing passes every principal submatrix of S_all
    through invariant_update's rule: S_all passes it with both ends of its
    spectrum widened by CERTIFY_MARGIN ||S_all||_2 per row.
    """
    return bool(admissible(S_all, MAX_BEARING_VAR, CERTIFY_MARGIN * len(S_all)))


def _lamp_sets(m, k):
    """Every k-subset of range(m), one ascending row each, as a (C(m, k), k) array."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(m), k))
    return np.fromiter(flat, dtype=np.intp, count=math.comb(m, k) * k).reshape(-1, k)


class _GainTable:
    """The gain G_T = S_T^-1 HP_T of each given lamp set T.

    A set is an ascending row of lin's labels; its S_T and HP_T take its
    lamps in that order.  gains[k] holds the (s, 2k, 15) gains of the
    sets of k lamps, in ascending order of their colex rank, ranks[k];
    a set's gain is NaN when S_T fails the update rule (inekf.admissible)
    or guarded_solve finds it singular.
    """

    def __init__(self, lin, sets):
        m, kmax = len(lin.by_label), max((s.shape[1] for s in sets), default=0)
        # binom[c, i] = C(c, i + 1): the colex rank of c_1 < ... < c_k is
        # sum_i C(c_i, i)
        self.binom = np.array(
            [[math.comb(c, i + 1) for i in range(kmax)] for c in range(m)], dtype=np.int64
        ).reshape(m, kmax)
        self.ranks, self.gains = {}, {}
        for s in sets:
            k = s.shape[1]
            rank = self.rank(s)
            order = np.argsort(rank)
            s = s[order]
            self.ranks[k] = rank[order]
            self.gains[k] = np.empty((len(s), 2 * k, 15))
            for a in range(0, len(s), CANDIDATE_BLOCK):
                self.gains[k][a : a + CANDIDATE_BLOCK] = _set_gains(s[a : a + CANDIDATE_BLOCK], lin)

    def rank(self, sets):
        """Colex rank of each ascending row of a (r, k) array of labels."""
        return self.binom[sets, np.arange(sets.shape[1])].sum(axis=1)

    def lookup(self, sets):
        """The (r, 2k, 15) gains of a (r, k) array of ascending label rows."""
        k = sets.shape[1]
        return self.gains[k][np.searchsorted(self.ranks[k], self.rank(sets))]


def _set_gains(sets, lin):
    """G_T of each ascending row of labels in a (s, k) array, in one batch."""
    s, k = sets.shape
    cl = lin.by_label[sets]
    idx = (2 * cl[:, :, None] + np.arange(2)).reshape(s, 2 * k)
    S = lin.S_all[idx[:, :, None], idx[:, None, :]]
    HP = lin.HP[cl].reshape(s, 2 * k, 15)
    if lin.certified:
        return guarded_solve(S, HP)
    G = np.full((s, 2 * k, 15), np.nan)
    ok = admissible(S, MAX_BEARING_VAR)
    G[ok] = guarded_solve(S[ok], HP[ok])
    return G


def _corrections(combos, lin):
    """Error-state corrections of a (B, n) block of combinations.

    Row b is, up to rounding, the correction invariant_update applies for
    combination b: zero when no matched cluster is in front of the camera
    (apply_camera_update then leaves the state alone), and NaN when the
    innovation covariance fails the update rule (inekf.admissible) or
    guarded_solve finds it singular.  Either rejects that combination alone.
    Otherwise it is G_T' z_T, with the matched pairs in the order of the
    set's labels.
    """
    labels = np.where(combos >= 0, lin.label[combos], -1)
    r, d = np.nonzero(labels >= 0)
    k = np.bincount(r, minlength=len(combos))
    # slots[b, l]: the detection combination b matches to label l, or -1
    slots = np.full((len(combos), len(lin.by_label)), -1)
    slots[r, labels[r, d]] = d
    delta = np.zeros((len(combos), 15))
    for kk in np.unique(k[k > 0]):
        rows = np.flatnonzero(k == kk)
        held = slots[rows]
        r, lab = np.nonzero(held >= 0)  # each row's labels, ascending
        z = lin.z[held[r, lab], lab].reshape(len(rows), 1, 2 * kk)
        delta[rows] = (z @ lin.gains.lookup(lab.reshape(len(rows), kk)))[:, 0]
    return delta


def _block_scores(combos, lin, state, intr, best=np.inf):
    """Punishment score of each combination in a (B, n) block.

    Mean pixel reprojection residual of the matched pairs after the
    combination's update (0 when none), plus weighted planar translation,
    weighted yaw change, and the per-NONE penalty.  inf where the update
    is rejected or a matched cluster reprojects behind the camera after it.
    Also inf, unscored, where a lower bound on the score reaches best:
    the NONE penalty, or the score without its residual term.  Each row
    scored has the bytes it has with best = inf.
    """
    matched = combos >= 0
    n_pos = matched.sum(axis=1)
    penalty = GAMMA_NEG * (combos.shape[1] - n_pos)
    score = np.full(len(combos), np.inf)
    rows = np.flatnonzero(penalty < best)
    delta = _corrections(combos[rows], lin)
    kept = ~np.isnan(delta[:, 0])  # the rest are rejected
    rows, delta = rows[kept], delta[kept]
    R, p = state.pose.rot, state.pose.pos
    E, J = so3_exp_many(delta[:, 0:3], jacobian=True)
    rot = E @ R
    pos = E @ p + (J @ delta[:, 6:9, None])[..., 0]
    dt_xy = np.linalg.norm((pos - p)[:, :2], axis=1)
    # yaw of R' rot from its first column
    d_yaw = np.abs(np.arctan2(rot[:, :, 0] @ R[:, 1], rot[:, :, 0] @ R[:, 0]))
    kept = GAMMA_POS * dt_xy + GAMMA_YAW * d_yaw + penalty[rows] < best
    rows, rot, pos, dt_xy, d_yaw = rows[kept], rot[kept], pos[kept], dt_xy[kept], d_yaw[kept]

    matched = matched[rows]
    poses = ExtendedPose(rot, pos=pos)  # a stack of poses
    c = camera_point(lin.centers[np.where(matched, combos[rows], 0)], poses)
    seen = matched & (c[..., 2] >= Z_MIN)
    behind = (matched & ~seen).any(axis=1)
    resid = np.zeros(matched.shape)
    resid[seen] = np.linalg.norm(
        lin.pixels[np.nonzero(seen)[1]] - pinhole(c[seen], intr), axis=1
    )
    mean_resid = resid.sum(axis=1) / np.maximum(n_pos[rows], 1)
    score[rows] = np.where(
        behind, np.inf, mean_resid + GAMMA_POS * dt_xy + GAMMA_YAW * d_yaw + penalty[rows]
    )
    return score


def candidate_clusters(table, pose, intr):
    """The view of a mapping.ClusterTable that keeps the clusters the
    camera could plausibly see from pose: within MAX_RANGE, at least 1 m
    in front, and projecting at most 50 px outside the image."""
    c = camera_point(table.centers, pose)
    keep = table.near(pose.pos, MAX_RANGE) & (c[:, 2] >= 1.0)
    keep[keep] = intr.contains(pinhole(c[keep], intr), margin=-50.0)
    return table.view(keep)


def _shrink(detections, table, state, params):
    """The detections, and the table indices of the clusters, to search.

    Only the max_detections largest boxes are kept; then, while the
    combination count exceeds the budget, the farthest cluster is dropped.
    """
    if len(detections) > params.max_detections:
        by_area = sorted(detections, key=lambda d: float(np.prod(d.extents)), reverse=True)
        detections = by_area[: params.max_detections]
    cols = np.flatnonzero(table.keep)
    n, m = len(detections), len(cols)
    if n and m and combination_count(n, m) > params.max_combinations:
        cols = cols[np.argsort(table.distances(state.pose.pos)[cols], kind="stable")]
        while m > 1 and combination_count(n, m) > params.max_combinations:
            m -= 1
        cols = cols[:m]
    return detections, cols


def attempt_recovery(detections, table, state, P, params, intr, pixel_sigma):
    """Relocalize on the clusters table keeps: (state, P, MatchSet) or None.

    Inputs are never mutated.  When the raw combination count exceeds the
    budget the problem is first shrunk deterministically: only the
    largest detection boxes are kept (big blobs are close and carry the
    most signal), then the farthest candidate clusters are dropped until
    the count fits.

    Each combination is scored after its own camera update, in blocks of
    CANDIDATE_BLOCK that share one linearization (see the module
    docstring).  A combination whose update is numerically rejected, or
    that leaves a matched cluster behind the camera, is skipped, and one
    whose lower bound shows it cannot beat an earlier block's best is not
    scored.  The lowest score wins, the earliest in enumeration order on
    a tie.  The
    winner is accepted when its score is under TH_SCORE and it matches at
    least MIN_LIGHTS lights; the returned state and covariance are then
    those of one apply_camera_update for it, and None if that update is
    rejected.  With fewer than MIN_LIGHTS detections or clusters left
    after the shrink no map can be accepted, so nothing is searched.
    """
    detections, cols = _shrink(detections, table, state, params)
    n, m = len(detections), len(cols)
    if min(n, m) < MIN_LIGHTS:  # no map could be accepted
        return None

    lin = _SharedLinearization(detections, table.centers[cols], state, P, intr, pixel_sigma)
    best, winner = np.inf, None
    combos = assignment_array(n, m)
    for start in range(0, len(combos), CANDIDATE_BLOCK):
        block = combos[start : start + CANDIDATE_BLOCK].astype(np.intp)
        scores = _block_scores(block, lin, state, intr, best)
        i = int(np.argmin(scores))  # the first of equal lowest scores
        if scores[i] < best:
            best, winner = scores[i], block[i]

    if best >= TH_SCORE or (winner >= 0).sum() < MIN_LIGHTS:
        return None
    ids = [table.ids[cols[j]] if j >= 0 else None for j in winner]
    ms = MatchSet(list(detections), ids, [0.0] * n)
    try:
        st, Pc = apply_camera_update(state, P, ms, table, intr, pixel_sigma)
    except UpdateRejected:
        return None
    return st, Pc.copy(), ms
