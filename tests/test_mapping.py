import json

import numpy as np
import pytest

from nightrider import mapping
from nightrider.mapping import (
    MapFormatError,
    StreetlightCluster,
    StreetlightMap,
    build_map,
    dbscan,
    knn_outlier_filter,
    load_map,
    load_points,
    load_xyz,
    save_map,
)


def _dbscan_reference(pts, eps, min_pts):
    """Textbook quadratic DBSCAN: seed scan in index order, FIFO growth."""
    n = len(pts)
    labels = np.full(n, -1, dtype=int)
    if n == 0:
        return labels
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    neigh = [np.nonzero(d[i] <= eps)[0].tolist() for i in range(n)]
    core = [len(nb) >= min_pts for nb in neigh]
    cid = 0
    for i in range(n):
        if labels[i] != -1 or not core[i]:
            continue
        labels[i] = cid
        seeds = list(neigh[i])
        si = 0
        while si < len(seeds):
            q = seeds[si]
            si += 1
            if labels[q] == -1:
                labels[q] = cid
                if core[q]:
                    seeds.extend(neigh[q])
        cid += 1
    return labels


def test_dbscan_matches_quadratic_reference():
    rng = np.random.default_rng(70)
    for trial in range(50):
        dim = 2 if trial % 2 == 0 else 3
        blobs = rng.integers(1, 6)
        pts = []
        for _ in range(blobs):
            c = rng.uniform(-20, 20, size=dim)
            pts.append(c + rng.normal(scale=0.4, size=(rng.integers(3, 40), dim)))
        pts.append(rng.uniform(-25, 25, size=(rng.integers(0, 25), dim)))
        pts = np.concatenate(pts)
        rng.shuffle(pts)
        eps = rng.uniform(0.5, 2.0)
        min_pts = int(rng.integers(1, 8))
        np.testing.assert_array_equal(
            dbscan(pts, eps, min_pts), _dbscan_reference(pts, eps, min_pts)
        )


def test_dbscan_exact_eps_distance_is_inside():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    labels = dbscan(pts, eps=1.0, min_pts=2)
    assert labels.tolist() == [0, 0]


def test_dbscan_neighborhood_includes_self():
    pts = np.array([[0.0, 0.0, 0.0], [50.0, 0.0, 0.0]])
    labels = dbscan(pts, eps=1.0, min_pts=1)
    assert labels.tolist() == [0, 1]  # every point is its own core


def test_dbscan_isolated_point_is_noise():
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [30.0, 30.0]])
    labels = dbscan(pts, eps=0.5, min_pts=2)
    assert labels.tolist()[:3] == [0, 0, 0]
    assert labels[3] == -1


def test_dbscan_chain_connects():
    pts = np.array([[0.9 * i, 0.0] for i in range(10)])
    labels = dbscan(pts, eps=1.0, min_pts=2)
    assert set(labels.tolist()) == {0}


def test_dbscan_input_validation():
    with pytest.raises(ValueError):
        dbscan(np.zeros((3, 2)), eps=0.0, min_pts=2)
    with pytest.raises(ValueError):
        dbscan(np.zeros((3, 2)), eps=1.0, min_pts=0)
    with pytest.raises(ValueError):
        dbscan(np.zeros(5), eps=1.0, min_pts=1)
    assert dbscan(np.zeros((0, 3)), eps=1.0, min_pts=1).size == 0


def test_build_map_sorted_dense_ids():
    rng = np.random.default_rng(71)
    centers = np.array(
        [[10.0, 0.0, 4.0], [-5.0, 2.0, 4.0], [10.0, -3.0, 4.0], [0.0, 0.0, 4.0]]
    )
    pts = np.concatenate(
        [c + rng.normal(scale=0.1, size=(20, 3)) for c in centers]
    )
    rng.shuffle(pts)
    smap = build_map(pts, eps=1.0, min_pts=5)
    assert [c.id for c in smap.clusters] == [0, 1, 2, 3]
    got = smap.centers()
    order = np.lexsort((got[:, 1], got[:, 0]))
    np.testing.assert_array_equal(order, np.arange(len(got)))
    # centers near the truth, in x-then-y order
    expect = centers[np.lexsort((centers[:, 1], centers[:, 0]))]
    assert np.abs(got - expect).max() < 0.1


def test_build_map_drops_noise_points():
    rng = np.random.default_rng(72)
    blob = rng.normal(scale=0.1, size=(30, 3))
    stray = np.array([[100.0, 100.0, 100.0]])
    smap = build_map(np.concatenate([blob, stray]), eps=1.0, min_pts=5)
    assert len(smap.clusters) == 1
    assert len(smap.clusters[0].points) == 30


def test_map_json_roundtrip(tmp_path):
    rng = np.random.default_rng(73)
    pts = np.concatenate(
        [
            rng.normal(scale=0.1, size=(12, 3)),
            np.array([20.0, 5.0, 4.0]) + rng.normal(scale=0.1, size=(9, 3)),
        ]
    )
    smap = build_map(pts, eps=1.0, min_pts=5, map_id="lot-7", frame="world")
    path = tmp_path / "map.json"
    save_map(smap, path)
    back = load_map(path)
    assert back.map_id == "lot-7"
    assert back.frame == "world"
    assert [c.id for c in back.clusters] == [c.id for c in smap.clusters]
    for a, b in zip(back.clusters, smap.clusters):
        np.testing.assert_allclose(a.center, b.center, rtol=0, atol=1e-15)
        np.testing.assert_allclose(a.points, b.points, rtol=0, atol=1e-15)


def test_load_map_rejects_garbage(tmp_path):
    bad = tmp_path / "nope.json"
    bad.write_text("{not json")
    with pytest.raises(MapFormatError):
        load_map(bad)
    with pytest.raises(MapFormatError):
        load_map(tmp_path / "missing.json")
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"schema_version": 99, "clusters": []}))
    with pytest.raises(MapFormatError):
        load_map(wrong)
    noversion = tmp_path / "noversion.json"
    noversion.write_text(json.dumps({"clusters": []}))
    with pytest.raises(MapFormatError):
        load_map(noversion)
    good = {"id": 1, "center": [0.0, 0.0, 4.0], "points": [[0.0, 0.0, 4.0]]}
    for name, bad_cluster in [
        ("short", {**good, "center": [0.0, 4.0]}),
        ("nan", {**good, "center": [0.0, float("nan"), 4.0]}),
        ("inf-point", {**good, "points": [[0.0, float("inf"), 4.0]]}),
    ]:
        path = tmp_path / f"{name}.json"
        clusters = [good, {**bad_cluster, "id": 7}]
        path.write_text(json.dumps({"schema_version": 1, "clusters": clusters}))
        with pytest.raises(MapFormatError, match=f"{name}.json: cluster 7 "):
            load_map(path)
    twice = tmp_path / "twice.json"
    twice.write_text(json.dumps({"schema_version": 1, "clusters": [good, good]}))
    with pytest.raises(MapFormatError, match="twice.json: cluster id 1 repeats"):
        load_map(twice)


def test_load_xyz(tmp_path):
    f = tmp_path / "cloud.xyz"
    f.write_text("# streetlight returns\n1.0 2.0 3.0\n4.0 5.0 6.0\n")
    pts = load_xyz(f)
    np.testing.assert_allclose(pts, [[1, 2, 3], [4, 5, 6]])
    bad = tmp_path / "bad.xyz"
    bad.write_text("1.0 2.0\n3.0 4.0\n")
    with pytest.raises(MapFormatError):
        load_xyz(bad)


def test_load_points_pools_map_clusters(tmp_path):
    c0 = StreetlightCluster(0, np.zeros(3), np.zeros((4, 3)))
    c1 = StreetlightCluster(1, np.ones(3), np.ones((3, 3)))
    path = tmp_path / "m.json"
    save_map(StreetlightMap("", "world", [c0, c1]), path)
    pts = load_points(path)
    assert pts.shape == (7, 3)


def test_knn_outlier_filter():
    rng = np.random.default_rng(74)
    dense = rng.normal(scale=0.5, size=(60, 3))
    out = np.array([[40.0, 0.0, 0.0]])
    kept = knn_outlier_filter(np.concatenate([dense, out]))
    assert len(kept) == 60
    assert np.abs(kept).max() < 10.0


def _knn_filter_reference(pts, k, std_mult):
    """The quadratic formula: full (n, n) distances, sorted rows."""
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    kth = np.sqrt(np.sort(d2, axis=1)[:, k])
    return pts[kth <= kth.mean() + std_mult * kth.std()]


@pytest.mark.parametrize("n, k", [(9, 8), (61, 8), (300, 3), (700, 8)])
def test_knn_outlier_filter_equals_quadratic_reference(n, k, monkeypatch):
    rng = np.random.default_rng(n)
    pts = rng.normal(scale=2.0, size=(n, 3))
    pts[: n // 10] *= 20.0  # a sparse halo of outliers
    pts[n // 2] = pts[n // 2 + 1]  # a duplicate: zero distance ties
    monkeypatch.setattr(mapping, "KNN_K", k)
    monkeypatch.setattr(mapping, "KNN_STD_MULT", 1.5)
    kept = knn_outlier_filter(pts)
    assert kept.tobytes() == _knn_filter_reference(pts, k, 1.5).tobytes()


def test_knn_outlier_filter_memory_is_row_blocked():
    import tracemalloc

    pts = np.random.default_rng(76).normal(scale=5.0, size=(2000, 3))
    tracemalloc.start()
    try:
        knn_outlier_filter(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the full (n, n, 3) difference array alone would be 96 MB
    assert peak < 16e6, peak


def test_twenty_lamp_map_recovery():
    # lamp grid with ambient clutter; every recovered center within 0.1 m
    rng = np.random.default_rng(75)
    truth = []
    for ix in range(5):
        for iy in range(4):
            truth.append([ix * 12.0, iy * 15.0, 4.0 + 0.5 * ((ix + iy) % 3)])
    truth = np.array(truth)
    clouds = [c + rng.normal(scale=0.15, size=(60, 3)) for c in truth]
    clutter = rng.uniform(
        low=[-10, -10, 0], high=[70, 60, 12], size=(120, 3)
    )
    pts = np.concatenate(clouds + [clutter])
    rng.shuffle(pts)
    smap = build_map(pts, eps=1.0, min_pts=5)

    centers = smap.centers()
    assert len(centers) == 20
    for c in truth:
        err = np.linalg.norm(centers - c, axis=1).min()
        assert err < 0.1
