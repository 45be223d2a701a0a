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
rectangle, for which boxes hold which projected pixels.  A ClusterTable
holds the map's centers and projected rows as arrays, built once per
run; its views leave out the clusters already matched in a frame.  The
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


class ClusterTable:
    """A cluster list as arrays, built once per map and shared by views.

    centers (m, 3) holds the centers in list order.  rows holds one
    block per cluster, its center and then its points (the center again
    when it has none); sizes counts each block's points and block gives
    each row's cluster index.  keep marks the clusters in view: without
    leaves some out, and the matchers below read only kept clusters.
    """

    def __init__(self, clusters):
        self.clusters = list(clusters)
        self.indices_of = {}  # cluster id -> its indices in the list
        for i, c in enumerate(self.clusters):
            self.indices_of.setdefault(c.id, []).append(i)
        centers = [c.center for c in self.clusters]
        self.centers = np.array(centers, dtype=float).reshape(-1, 3)
        blocks = []
        for c in self.clusters:
            points = c.points if c.points is not None and len(c.points) else [c.center]
            points = np.asarray(points, dtype=float).reshape(-1, 3)
            blocks += [np.atleast_2d(c.center), points]
        self.rows = np.concatenate(blocks) if blocks else np.zeros((0, 3))
        self.sizes = np.array([len(b) for b in blocks[1::2]], dtype=int)
        self.block = np.repeat(np.arange(len(self.sizes)), self.sizes + 1)
        self.keep = np.ones(len(self.clusters), dtype=bool)

    def without(self, ids):
        """A view of this table with the clusters of ids left out."""
        view = object.__new__(ClusterTable)
        view.__dict__.update(self.__dict__)
        view.keep = self.keep.copy()
        for cid in ids:
            view.keep[self.indices_of.get(cid, [])] = False
        return view

    def near(self, pos, r):
        """Mask of the kept clusters whose centers lie within r of pos."""
        d = self.centers - pos
        return self.keep & (np.sqrt(dot_many(d, d)) <= r)


def within_range(table, pos, r):
    """The kept clusters of a ClusterTable whose centers lie within r of
    pos, in table order."""
    return [table.clusters[i] for i in np.flatnonzero(table.near(pos, r))]


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
    triples = []
    for ci, bi in zip(*np.nonzero(center_in & (counts > 0))):
        c, bi = table.clusters[cands[ci]], int(bi)
        ratio = int(counts[ci, bi]) / int(sizes[ci])
        triples.append((ratio, c.id, bi))

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
    by_id: dict = field(default_factory=dict, repr=False)
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


def _perp_distance(center, line):
    centroid, direction = line
    d = np.asarray(center, dtype=float)[:2] - centroid
    return abs(d[0] * direction[1] - d[1] * direction[0])


def _unique_centers(degen):
    """One center per cluster id in the window: its latest, with the ids
    in the order of their oldest entries, as a dict filled from the
    window entry by entry would hold them."""
    queues = sorted(degen.by_id.values(), key=lambda q: q[0][0])
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
        degen.by_id.setdefault(entry[1], deque()).append((degen.appended, entry[2]))
        degen.appended += 1
    cutoff = t - HORIZON
    while window and not window[0][0] >= cutoff:
        cid = window.popleft()[1]
        degen.by_id[cid].popleft()
        if not degen.by_id[cid]:
            del degen.by_id[cid]

    centers = _unique_centers(degen)
    if len(centers) >= 2:
        # the fit depends on the ordered centers only: reuse it while
        # they are unchanged
        centers = np.array(centers)
        key = centers.tobytes()
        if key != degen.fit_key:
            line = _fit_line_xy(centers)
            degen.fit_key = key
            degen.fit = line, max(_perp_distance(c, line) for c in centers)
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


def offline_candidates(clusters, degen):
    """Clusters lying at least TH_LINE off the tracked corridor line."""
    if degen.line is None:
        return list(clusters)
    return [
        c for c in clusters if _perp_distance(c.center, degen.line) >= TH_LINE
    ]


def degeneration_match(boxes, new_clusters, state, intr):
    """Rectangle-gated matching for the first off-line streetlights.

    Accumulated z/roll/pitch drift shifts projections mostly vertically,
    so each cluster searches a tall RECT_W x RECT_H window around its
    projected center; among intersecting boxes the nearest center wins,
    greedily by ascending distance.
    """
    centers = np.reshape([c.center for c in new_clusters], (-1, 3))
    pix = project_many(centers, state.pose, intr)
    ci, bi = np.nonzero(boxes_containing(boxes, pix, RECT_W, RECT_H))
    d = np.reshape([boxes[b].center for b in bi], (-1, 2)) - pix[ci]
    dist = np.sqrt(dot_many(d, d))
    triples = [
        (float(s), new_clusters[c].id, int(b)) for s, c, b in zip(dist, ci, bi)
    ]
    return _greedy(triples, boxes, key=None)
