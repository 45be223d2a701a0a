"""Streetlight map construction from nighttime point clouds.

Bright-point clouds are clustered with DBSCAN; each cluster becomes one
streetlight with its center at the arithmetic mean of its points.  Maps
serialize to a versioned JSON document that keeps the raw cluster points,
so downstream consumers can re-derive centers or statistics.

The filter reads a map through one ClusterTable, built once per run.
Every stage asks it the same two questions: near, the one range test,
and centers_of, the one id lookup.
"""

from __future__ import annotations

import json
import warnings
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .lie import dot_many

SCHEMA_VERSION = 1
# knn_outlier_filter drops points whose KNN_K-th neighbor lies more than
# KNN_STD_MULT standard deviations beyond the mean such distance.
KNN_K = 8
KNN_STD_MULT = 2.0


class MapFormatError(ValueError):
    """Raised for unreadable or wrong-schema map files."""


@dataclass
class StreetlightCluster:
    id: int
    center: np.ndarray
    points: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))


@dataclass
class StreetlightMap:
    map_id: str = ""
    clusters: list = field(default_factory=list)

    def centers(self):
        return np.array([c.center for c in self.clusters], dtype=float).reshape(-1, 3)


class ClusterTable:
    """A cluster list as arrays, built once per map and shared by views.

    centers (m, 3) holds the centers in list order and ids the cluster
    ids.  rows holds one block per cluster, its center and then its
    points (the center again when it has none); sizes counts each block's
    points and block gives each row's cluster index.  keep marks the
    clusters in view (those matched in a frame, or those recovery cannot
    see, are left out): near and len see only kept clusters.
    """

    def __init__(self, clusters):
        clusters = list(clusters)
        self.ids = [c.id for c in clusters]
        self.indices_of = {}  # cluster id -> its indices in the list
        for i, cid in enumerate(self.ids):
            self.indices_of.setdefault(cid, []).append(i)
        self.centers = np.array([c.center for c in clusters], dtype=float).reshape(-1, 3)
        blocks = []
        for c in clusters:
            points = c.points if c.points is not None and len(c.points) else [c.center]
            blocks += [np.atleast_2d(c.center), np.asarray(points, dtype=float).reshape(-1, 3)]
        self.rows = np.concatenate(blocks) if blocks else np.zeros((0, 3))
        self.sizes = np.array([len(b) for b in blocks[1::2]], dtype=int)
        self.block = np.repeat(np.arange(len(self.sizes)), self.sizes + 1)
        self.keep = np.ones(len(clusters), dtype=bool)

    def __len__(self):
        return int(np.count_nonzero(self.keep))

    def centers_of(self, ids):
        """(k, 3) centers of k cluster ids; a repeated id's last cluster."""
        return self.centers[[self.indices_of[cid][-1] for cid in ids]]

    def view(self, keep):
        """A view of this table that keeps the clusters the mask keep marks."""
        view = object.__new__(ClusterTable)
        view.__dict__.update(self.__dict__)
        view.keep = keep
        return view

    def without(self, ids):
        """A view of this table with the clusters of ids left out."""
        keep = self.keep.copy()
        for cid in ids:
            keep[self.indices_of.get(cid, [])] = False
        return self.view(keep)

    def distances(self, pos):
        """Distance from pos of every center, kept or not."""
        d = self.centers - pos
        return np.sqrt(dot_many(d, d))

    def near(self, pos, r):
        """Mask of the kept clusters whose centers lie within r of pos."""
        return self.keep & (self.distances(pos) <= r)


def dbscan(points, eps, min_pts):
    """Density clustering; labels 0..k-1 with noise marked -1.

    The neighborhood of a point includes the point itself; neighbors
    come from a k-d tree, so the points must be finite.  Clusters are
    grown from core points in ascending index order, so the labeling is
    deterministic for a given input order (border points join the first
    cluster that reaches them).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be an (n, d) array")
    n = len(pts)
    labels = np.full(n, -1, dtype=int)
    if n == 0:
        return labels
    if eps <= 0 or min_pts < 1:
        raise ValueError("eps must be positive and min_pts >= 1")

    from scipy.spatial import cKDTree  # here, so localizing never loads scipy

    neigh = cKDTree(pts).query_ball_point(pts, eps, return_sorted=True)
    core = np.array([len(nb) >= min_pts for nb in neigh])

    cluster = 0
    for i in range(n):
        if labels[i] != -1 or not core[i]:
            continue
        labels[i] = cluster
        queue = deque([i])
        while queue:
            j = queue.popleft()
            for k in neigh[j]:
                if labels[k] == -1:
                    labels[k] = cluster
                    if core[k]:
                        queue.append(k)
        cluster += 1
    return labels


def knn_outlier_filter(points):
    """Drop points whose KNN_K-th neighbor distance is unusually large."""
    pts = np.asarray(points, dtype=float)
    n, k = len(pts), KNN_K
    if n <= k:
        return pts
    from scipy.spatial import cKDTree

    # entry 0 of each row is the point itself, at distance 0
    kth = cKDTree(pts).query(pts, k=k + 1)[0][:, k]
    keep = kth <= kth.mean() + KNN_STD_MULT * kth.std()
    return pts[keep]


def build_map(points, eps=1.0, min_pts=5, map_id="", filter_outliers=False):
    """Cluster a point cloud into a streetlight map.

    Noise points are discarded.  Clusters are renumbered 0..k-1 after
    sorting by center x then y, which keeps ids stable across equivalent
    inputs.  An empty result is allowed (and worth logging upstream).
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if filter_outliers:
        pts = knn_outlier_filter(pts)
    labels = dbscan(pts, eps, min_pts)
    clusters = []
    for lab in sorted(set(labels) - {-1}):
        member = pts[labels == lab]
        clusters.append((member.mean(axis=0), member))
    clusters.sort(key=lambda pair: (pair[0][0], pair[0][1]))
    return StreetlightMap(
        map_id=map_id,
        clusters=[
            StreetlightCluster(i, center, member)
            for i, (center, member) in enumerate(clusters)
        ],
    )


def save_map(smap, path):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "map_id": smap.map_id,
        "frame": "world",
        "clusters": [
            {
                "id": int(c.id),
                "center": [float(x) for x in c.center],
                "points": np.asarray(c.points, dtype=float).tolist(),
            }
            for c in smap.clusters
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=1))


def _numbers(v):
    """Whether v is a JSON number (an int or a float, not a bool), or a nest
    of lists whose leaves all are."""
    if isinstance(v, list):
        return all(map(_numbers, v))
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _cluster(entry, path, i):
    """The StreetlightCluster of entry i of a map's clusters list.

    Raises MapFormatError, naming the file and the cluster, unless the id
    is an integer, the center three finite numbers and the points finite
    numbers in x, y, z triples.
    """
    cid = entry.get("id") if isinstance(entry, dict) else None
    if not isinstance(cid, int) or isinstance(cid, bool):
        raise MapFormatError(f"{path}: cluster entry {i} id must be an integer, got {cid!r}")
    where = f"{path}: cluster {cid}"
    center, points = entry.get("center"), entry.get("points", [])
    if not (_numbers(center) and _numbers(points)):
        raise MapFormatError(f"{where} center and points must hold JSON numbers only")
    try:
        center = np.asarray(center, dtype=float)
        points = np.asarray(points, dtype=float).reshape(-1, 3)
    except (ValueError, OverflowError) as exc:
        raise MapFormatError(f"{where} points must be [x, y, z] triples ({exc})") from exc
    if center.shape != (3,) or not np.isfinite(center).all():
        raise MapFormatError(f"{where} center must be 3 finite numbers")
    if not np.isfinite(points).all():
        raise MapFormatError(f"{where} points must be finite")
    return StreetlightCluster(cid, center, points)


def load_map(path):
    """The StreetlightMap of a map file; MapFormatError, naming the file
    and the offending cluster, for anything save_map would not write."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise MapFormatError(f"{path}: cannot read map file ({exc})") from exc
    if not isinstance(doc, dict) or "schema_version" not in doc:
        raise MapFormatError(f"{path}: missing schema_version")
    version = doc["schema_version"]
    if type(version) is not int or version != SCHEMA_VERSION:
        raise MapFormatError(f"{path}: unsupported schema_version {version!r}")
    if doc.get("frame", "world") != "world":  # map coordinates are world coordinates
        raise MapFormatError(f"{path}: unsupported frame {doc['frame']!r}, only 'world'")
    entries = doc.get("clusters")
    if not isinstance(entries, list):
        raise MapFormatError(f"{path}: clusters must be a list, got {entries!r}")
    clusters = []
    seen = set()
    for i, entry in enumerate(entries):
        c = _cluster(entry, path, i)
        if c.id in seen:
            raise MapFormatError(f"{path}: cluster id {c.id} repeats")
        seen.add(c.id)
        clusters.append(c)
    return StreetlightMap(doc.get("map_id", ""), clusters)


def load_xyz(path):
    """Whitespace-separated x y z text, one point per line ('#' comments)."""
    path = Path(path)
    try:
        with warnings.catch_warnings():
            # an empty file is a legitimate (empty) cloud, not a warning
            warnings.simplefilter("ignore", UserWarning)
            pts = np.loadtxt(path, comments="#", ndmin=2)
    except (OSError, ValueError) as exc:
        raise MapFormatError(f"{path}: cannot parse XYZ text ({exc})") from exc
    if pts.size == 0:
        return np.zeros((0, 3))
    if pts.shape[1] != 3:
        raise MapFormatError(f"{path}: expected 3 columns, got {pts.shape[1]}")
    if not np.isfinite(pts).all():
        raise MapFormatError(f"{path}: points must be finite")
    return pts


def load_points(path):
    """Point cloud from either XYZ text or a saved map's pooled points."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        smap = load_map(path)
        if not smap.clusters:
            return np.zeros((0, 3))
        return np.concatenate([c.points for c in smap.clusters])
    return load_xyz(path)
