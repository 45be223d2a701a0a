"""Match extension from raw intensity images and degeneration handling.

The association only sees detector output, which misses dim or distant
streetlights.  This module recovers those: unmatched map clusters
within an extended range are matched to the frame's segmentation boxes
(bright 8-connected blobs; sim.frame_boxes renders them) by
projected-point containment.  A separate path
handles the straight-line degeneracy, where z, roll and pitch drift
accumulate until an off-line streetlight appears; those first off-line
clusters are matched through tall search rectangles instead of densities.

Both matchers take the boxes free_boxes leaves (those holding no matched
center), pick their own candidates from a mapping.ClusterTable view of
the unmatched clusters, and end in the same greedy step (_greedy).  They
ask the same questions as array operations: the table's near for the
clusters near the vehicle, and boxes_containing, optionally padded by a
search rectangle, for which boxes hold which projected pixels.  The
degeneracy state keeps the window's latest center per lamp as it goes,
and refits the corridor line only when those centers change.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .association import MatchSet
from .camera import project_many
from .lie import dot_many

# Extended and degeneration matches measure segmentation-box centers,
# which quantize to whole pixels and carry bloom asymmetry; their pixel
# sigma is the detector's scaled up to keep the filter consistent.
EXTENSION_SIGMA_SCALE = 2.0
# Degeneracy: matched centers are kept for HORIZON seconds, and a center
# counts as off the corridor line at TH_LINE metres from it.
HORIZON = 10.0
TH_LINE = 1.5
# Width and height (px) of the window each off-line cluster searches.
RECT_W, RECT_H = 30.0, 300.0


def boxes_containing(boxes, pixels, pad_w=0.0, pad_h=0.0):
    """(pixels, boxes) bool: pixel i lies in box j grown by pad_w x pad_h.

    Edges are included.  With padding this is the test that a pad_w x
    pad_h rectangle centered on the pixel intersects the box.  A NaN
    pixel (a point behind the camera) is in no box.
    """
    centers = np.array([b.center for b in boxes], dtype=float).reshape(-1, 2)
    extents = np.array([b.extents for b in boxes], dtype=float).reshape(-1, 2)
    halves = (extents + (pad_w, pad_h)) / 2.0
    d = np.abs(np.reshape(pixels, (-1, 2))[:, None, :] - centers)
    return (d[..., 0] <= halves[:, 0]) & (d[..., 1] <= halves[:, 1])


def free_boxes(boxes, table, matched, state, intr):
    """The boxes that hold no projected center of the clusters of table
    whose ids are in matched; a center behind the camera holds no box."""
    taken = project_many(table.centers_of(matched), state.pose, intr)
    hit = boxes_containing(boxes, taken).any(axis=0)
    return [b for b, h in zip(boxes, hit) if not h]


def _greedy(triples, boxes, key):
    """One-to-one matches from (score, cluster id, box index) triples.

    Triples are taken in key order (None: ascending score, then cluster
    id, then box index); each box and each cluster is used at most once.
    """
    used_boxes = set()
    used_clusters = set()
    dets, ids, scores = [], [], []
    for score, cid, bi in sorted(triples, key=key):
        if bi in used_boxes or cid in used_clusters:
            continue
        used_boxes.add(bi)
        used_clusters.add(cid)
        dets.append(boxes[bi])
        ids.append(cid)
        scores.append(score)
    return MatchSet(dets, ids, scores)


def extend_matches(boxes, table, state, intr, max_range):
    """Match unmatched clusters to segmentation boxes by projected points.

    table is a ClusterTable view of the unmatched clusters.  A cluster within
    max_range is a candidate for every box containing its projected
    center; the candidate ratio is the fraction of the cluster's points
    that project inside the box.  Conflicts resolve greedily by
    descending ratio, so each box and each cluster is used at most once.
    """
    pose = state.pose
    near = table.near(pose.pos, max_range)
    if not boxes or not near.any():
        return MatchSet([], [], [])
    # the candidates' blocks of rows, each its center and then its points
    cands = np.flatnonzero(near)
    sizes = table.sizes[cands]
    starts = np.cumsum(sizes + 1) - (sizes + 1)
    pix = project_many(table.rows[near[table.block]], pose, intr)
    inside = boxes_containing(boxes, pix)
    center_in = inside[starts]
    # per-block sums count the center row too
    counts = np.add.reduceat(inside.astype(int), starts) - center_in
    ci, bi = np.nonzero(center_in & (counts > 0))
    ratios = (counts[ci, bi] / sizes[ci]).tolist()
    triples = [(r, table.ids[cands[c]], int(b)) for r, c, b in zip(ratios, ci, bi)]
    return _greedy(triples, boxes, key=lambda t: (-t[0], t[1], t[2]))


@dataclass
class DegenState:
    """Sliding-window record of matched streetlight centers.

    Tracks whether the streetlights observed in the last HORIZON seconds
    lie on a single x-y line.  While they do, yaw/x/y stay observable but
    z, roll and pitch drift; the flag gates the corrective matching that
    runs when an off-line streetlight finally shows up.
    """

    degenerate: bool = False
    just_ended: bool = False
    window: deque = field(default_factory=deque)  # (t, cluster_id, center)
    line: tuple | None = None  # (centroid_xy, direction_xy)
    # each cluster id in the window -> its (position, center) entries,
    # oldest first; positions count every entry ever appended
    entries_of: dict = field(default_factory=dict, repr=False)
    appended: int = 0
    # the last fit: the unique centers it was fitted to, as bytes, and
    # (line, max_perp)
    fit_key: bytes | None = field(default=None, repr=False)
    fit: tuple | None = field(default=None, repr=False)


def _fit_line_xy(centers):
    """Total-least-squares line through x-y points: (centroid, direction)."""
    pts = np.asarray(centers, dtype=float)[:, :2]
    centroid = pts.mean(axis=0)
    d = pts - centroid
    _, _, vt = np.linalg.svd(d, full_matrices=False)
    return centroid, vt[0]


def _perp_distance(centers, line):
    """x-y distance from the line of each row of an (..., 3) array."""
    centroid, direction = line
    d = np.asarray(centers, dtype=float)[..., :2] - centroid
    return np.abs(d[..., 0] * direction[1] - d[..., 1] * direction[0])


def _unique_centers(degen):
    """One center per cluster id in the window: its latest, with the ids
    in the order of their oldest entries, as a dict filled from the
    window entry by entry would hold them."""
    queues = sorted(degen.entries_of.values(), key=lambda q: q[0][0])
    return [q[-1][1] for q in queues]


def update_degeneracy(degen, matched, t):
    """Advance the degeneracy state with this frame's positive matches.

    matched: iterable of (cluster_id, world center); t must not decrease
    from call to call.  Entry requires at least two distinct clusters in
    the window, all within TH_LINE of a fitted line.  Exit requires a
    newly matched center at least TH_LINE off the line fitted before this
    call; just_ended marks that frame.
    """
    degen.just_ended = False
    new_entries = [(t, cid, np.asarray(c, dtype=float)) for cid, c in matched]

    if degen.degenerate and degen.line is not None:
        for _, _, center in new_entries:
            if _perp_distance(center, degen.line) >= TH_LINE:
                degen.degenerate = False
                degen.just_ended = True
                break

    window = degen.window
    for entry in new_entries:
        window.append(entry)
        degen.entries_of.setdefault(entry[1], deque()).append((degen.appended, entry[2]))
        degen.appended += 1
    cutoff = t - HORIZON
    while window and not window[0][0] >= cutoff:
        cid = window.popleft()[1]
        degen.entries_of[cid].popleft()
        if not degen.entries_of[cid]:
            del degen.entries_of[cid]

    centers = _unique_centers(degen)
    if len(centers) >= 2:
        # the fit depends on the ordered centers only: reuse it while
        # they are unchanged
        centers = np.array(centers)
        key = centers.tobytes()
        if key != degen.fit_key:
            line = _fit_line_xy(centers)
            degen.fit_key = key
            degen.fit = line, _perp_distance(centers, line).max()
        line, max_perp = degen.fit
        if degen.just_ended:
            degen.line = None  # stale once off-line evidence arrived
        elif max_perp < TH_LINE:
            degen.degenerate = True
            degen.line = line
        elif degen.degenerate:
            degen.line = line  # keep tracking the corridor while inside
    elif not degen.degenerate:
        degen.line = None
    return degen


def degeneration_match(boxes, table, degen, state, intr, max_range):
    """Rectangle-gated matching for the first off-line streetlights.

    table is a ClusterTable view of the unmatched clusters.  The
    candidates are those within max_range and, while degen tracks a
    corridor line, at least TH_LINE off it.  Accumulated z/roll/pitch
    drift shifts projections mostly vertically, so each candidate
    searches a tall RECT_W x RECT_H window around its projected center;
    among intersecting boxes the nearest center wins, greedily by
    ascending distance.
    """
    cands = np.flatnonzero(table.near(state.pose.pos, max_range))
    if degen.line is not None:
        cands = cands[_perp_distance(table.centers[cands], degen.line) >= TH_LINE]
    pix = project_many(table.centers[cands], state.pose, intr)
    ci, bi = np.nonzero(boxes_containing(boxes, pix, RECT_W, RECT_H))
    d = np.reshape([boxes[b].center for b in bi], (-1, 2)) - pix[ci]
    dist = np.sqrt(dot_many(d, d))
    triples = [(float(s), table.ids[cands[c]], int(b)) for s, c, b in zip(dist, ci, bi)]
    return _greedy(triples, boxes, key=None)
