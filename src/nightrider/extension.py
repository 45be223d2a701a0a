"""Match extension from raw intensity images and degeneration handling.

The association only sees detector output, which misses dim or distant
streetlights.  This module recovers those: unmatched map clusters
within an extended range are matched to the frame's segmentation boxes
(bright 8-connected blobs; sim.frame_boxes renders them) by
projected-point containment.  A separate path
handles the straight-line degeneracy, where z, roll and pitch drift
accumulate until an off-line streetlight appears; those first off-line
clusters are matched through tall search rectangles instead of densities.

Both matchers end in the same greedy step (_greedy), and both ask the
same questions as array operations: within_range for the clusters near
the vehicle, and boxes_containing, optionally padded by a search
rectangle, for which boxes hold which projected pixels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .association import MatchSet
from .camera import project_many
from .lie import dot_many


def boxes_containing(boxes, pixels, pad_w=0.0, pad_h=0.0):
    """(pixels, boxes) bool: pixel i lies in box j grown by pad_w x pad_h.

    Edges are included.  With padding this is the test that a pad_w x
    pad_h rectangle centered on the pixel intersects the box.  A NaN
    pixel (a point behind the camera) is in no box.
    """
    centers = np.reshape([b.center for b in boxes], (-1, 2))
    halves = (np.reshape([b.extents for b in boxes], (-1, 2)) + (pad_w, pad_h)) / 2.0
    d = np.abs(np.reshape(pixels, (-1, 2))[:, None, :] - centers)
    return (d <= halves).all(axis=2)


def within_range(clusters, pos, r):
    """The clusters whose centers lie within r of pos, in their order."""
    d = np.reshape([c.center for c in clusters], (-1, 3)) - pos
    near = np.sqrt(dot_many(d, d)) <= r
    return [c for c, keep in zip(clusters, near) if keep]


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


def extend_matches(boxes, unmatched_clusters, state, ext, intr, max_range=80.0):
    """Match unmatched clusters to segmentation boxes by projected points.

    A cluster within max_range is a candidate for every box containing
    its projected center; the candidate ratio is the fraction of the
    cluster's points that project inside the box.  Conflicts resolve
    greedily by descending ratio, so each box and each cluster is used
    at most once.
    """
    pose = state.pose
    cands = within_range(unmatched_clusters, pose.pos, max_range)
    if not boxes or not cands:
        return MatchSet([], [], [])
    # one block of rows per cluster: its center, then its points
    rows, sizes = [], []
    for c in cands:
        points = c.points if c.points is not None and len(c.points) else [c.center]
        points = np.asarray(points, dtype=float).reshape(-1, 3)
        rows += [np.atleast_2d(c.center), points]
        sizes.append(len(points))
    sizes = np.array(sizes)
    starts = np.cumsum(sizes + 1) - (sizes + 1)
    pix = project_many(np.concatenate(rows), pose, ext, intr)
    inside = boxes_containing(boxes, pix)
    center_in = inside[starts]
    # per-block sums count the center row too
    counts = np.add.reduceat(inside.astype(int), starts) - center_in
    triples = []
    for ci, bi in zip(*np.nonzero(center_in & (counts > 0))):
        c, bi = cands[ci], int(bi)
        ratio = int(counts[ci, bi]) / int(sizes[ci])
        triples.append((ratio, c.id, bi))

    return _greedy(triples, boxes, key=lambda t: (-t[0], t[1], t[2]))


@dataclass
class DegenState:
    """Sliding-window record of matched streetlight centers.

    Tracks whether the recently observed streetlights lie on a single
    x-y line.  While they do, yaw/x/y stay observable but z, roll and
    pitch drift; the flag gates the corrective matching that runs when
    an off-line streetlight finally shows up.
    """

    horizon: float = 10.0
    th_line: float = 1.5
    degenerate: bool = False
    just_ended: bool = False
    window: list = field(default_factory=list)  # (t, cluster_id, center)
    line: tuple | None = None  # (centroid_xy, direction_xy)


def _fit_line_xy(centers):
    """Total-least-squares line through x-y points: (centroid, direction)."""
    pts = np.asarray(centers, dtype=float)[:, :2]
    centroid = pts.mean(axis=0)
    d = pts - centroid
    _, _, vt = np.linalg.svd(d, full_matrices=False)
    return centroid, vt[0]


def _perp_distance(center, line):
    centroid, direction = line
    d = np.asarray(center, dtype=float)[:2] - centroid
    return abs(d[0] * direction[1] - d[1] * direction[0])


def _unique_centers(window):
    by_id = {}
    for _, cid, center in window:
        by_id[cid] = center
    return list(by_id.values())


def update_degeneracy(degen, matched, t):
    """Advance the degeneracy state with this frame's positive matches.

    matched: iterable of (cluster_id, world center).  Entry requires at
    least two distinct clusters in the window, all within th_line of a
    fitted line.  Exit requires a newly matched center at least th_line
    off the line fitted before this call; just_ended marks that frame.
    """
    degen.just_ended = False
    new_entries = [(t, cid, np.asarray(c, dtype=float)) for cid, c in matched]

    if degen.degenerate and degen.line is not None:
        for _, _, center in new_entries:
            if _perp_distance(center, degen.line) >= degen.th_line:
                degen.degenerate = False
                degen.just_ended = True
                break

    degen.window.extend(new_entries)
    cutoff = t - degen.horizon
    degen.window = [e for e in degen.window if e[0] >= cutoff]

    centers = _unique_centers(degen.window)
    if len(centers) >= 2:
        line = _fit_line_xy(centers)
        max_perp = max(_perp_distance(c, line) for c in centers)
        if degen.just_ended:
            degen.line = None  # stale once off-line evidence arrived
        elif max_perp < degen.th_line:
            degen.degenerate = True
            degen.line = line
        elif degen.degenerate:
            degen.line = line  # keep tracking the corridor while inside
    elif not degen.degenerate:
        degen.line = None
    return degen


def offline_candidates(clusters, degen):
    """Clusters lying at least th_line off the tracked corridor line."""
    if degen.line is None:
        return list(clusters)
    return [
        c for c in clusters if _perp_distance(c.center, degen.line) >= degen.th_line
    ]


def degeneration_match(boxes, new_clusters, state, ext, intr, rect_w=30.0, rect_h=300.0):
    """Rectangle-gated matching for the first off-line streetlights.

    Accumulated z/roll/pitch drift shifts projections mostly vertically,
    so each cluster searches a tall rect_w x rect_h window around its
    projected center; among intersecting boxes the nearest center wins,
    greedily by ascending distance.
    """
    centers = np.reshape([c.center for c in new_clusters], (-1, 3))
    pix = project_many(centers, state.pose, ext, intr)
    ci, bi = np.nonzero(boxes_containing(boxes, pix, rect_w, rect_h))
    d = np.reshape([boxes[b].center for b in bi], (-1, 2)) - pix[ci]
    dist = np.sqrt(dot_many(d, d))
    triples = [
        (float(s), new_clusters[c].id, int(b)) for s, c, b in zip(dist, ci, bi)
    ]
    return _greedy(triples, boxes, key=None)
