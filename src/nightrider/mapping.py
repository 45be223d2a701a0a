"""Streetlight map construction from nighttime point clouds.

Bright-point clouds are clustered with DBSCAN; each cluster becomes one
streetlight with its center at the arithmetic mean of its points.  Maps
serialize to a versioned JSON document that keeps the raw cluster points,
so downstream consumers can re-derive centers or statistics.
"""

from __future__ import annotations

import json
import warnings
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

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
    frame: str = "world"
    clusters: list = field(default_factory=list)

    def by_id(self):
        return {c.id: c for c in self.clusters}

    def centers(self):
        if not self.clusters:
            return np.zeros((0, 3))
        return np.stack([c.center for c in self.clusters])


_PAIRS_PER_BLOCK = 1 << 17  # bounds the (b, n, 3) difference array to 3 MB


def _sq_distance_rows(pts):
    """Squared distances from each point to every point, a block of rows at a time.

    Yields (b, n) arrays in row order; b * n stays near _PAIRS_PER_BLOCK,
    so memory does not grow with n squared.
    """
    chunk = max(1, _PAIRS_PER_BLOCK // len(pts))
    for start in range(0, len(pts), chunk):
        block = pts[start : start + chunk]
        yield ((block[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)


def _neighbor_lists(pts, eps):
    eps2 = eps * eps
    return [
        np.nonzero(row <= eps2)[0] for d2 in _sq_distance_rows(pts) for row in d2
    ]


def dbscan(points, eps, min_pts):
    """Density clustering; labels 0..k-1 with noise marked -1.

    The neighborhood of a point includes the point itself.  Clusters are
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

    neigh = _neighbor_lists(pts, eps)
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
    kth = np.empty(n)
    done = 0
    for d2 in _sq_distance_rows(pts):
        # entry 0 of each sorted row is the point itself
        kth[done : done + len(d2)] = np.partition(d2, k, axis=1)[:, k]
        done += len(d2)
    kth = np.sqrt(kth)
    keep = kth <= kth.mean() + KNN_STD_MULT * kth.std()
    return pts[keep]


def build_map(points, eps=1.0, min_pts=5, map_id="", frame="world",
              filter_outliers=False):
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
        frame=frame,
        clusters=[
            StreetlightCluster(i, center, member)
            for i, (center, member) in enumerate(clusters)
        ],
    )


def save_map(smap, path):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "map_id": smap.map_id,
        "frame": smap.frame,
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


def load_map(path):
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise MapFormatError(f"{path}: cannot read map file ({exc})") from exc
    if not isinstance(doc, dict) or "schema_version" not in doc:
        raise MapFormatError(f"{path}: missing schema_version")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise MapFormatError(
            f"{path}: unsupported schema_version {doc['schema_version']}"
        )
    try:
        clusters = [
            StreetlightCluster(
                int(c["id"]),
                np.asarray(c["center"], dtype=float),
                np.asarray(c.get("points", []), dtype=float).reshape(-1, 3),
            )
            for c in doc["clusters"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise MapFormatError(f"{path}: malformed cluster entry ({exc})") from exc
    seen = set()
    for c in clusters:
        if c.center.shape != (3,) or not np.isfinite(c.center).all():
            raise MapFormatError(f"{path}: cluster {c.id} center must be 3 finite numbers")
        if not np.isfinite(c.points).all():
            raise MapFormatError(f"{path}: cluster {c.id} points must be finite")
        if c.id in seen:
            raise MapFormatError(f"{path}: cluster id {c.id} repeats")
        seen.add(c.id)
    return StreetlightMap(doc.get("map_id", ""), doc.get("frame", "world"), clusters)


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
