import math
from unittest import mock

import numpy as np
import scipy.ndimage
from hypothesis import given, settings
from hypothesis import strategies as st

from nightrider import extension
from nightrider.camera import (
    Z_MIN,
    CameraIntrinsics,
    DetectionBox,
    camera_point,
    pinhole,
    project_many,
)
from nightrider.extension import (
    HORIZON,
    TH_LINE,
    DegenState,
    _greedy,
    boxes_containing,
    degeneration_match,
    extend_matches,
    free_boxes,
    update_degeneracy,
)
from nightrider.inekf import FilterState
from nightrider.lie import ExtendedPose, dot_many, so3_exp
from nightrider.mapping import ClusterTable, StreetlightCluster

INTR = CameraIntrinsics(
    fx=500.0, fy=500.0, cx=640.0, cy=360.0, width=1280, height=720
)


def project(point_w, pose, intr):
    """Pixel projection of one world point, or None when it lies less than
    Z_MIN in front of the camera: the one-point oracle of project_many."""
    c = camera_point(point_w, pose)
    if c[2] < Z_MIN:
        return None
    return pinhole(c, intr)


# ----------------------------------------------------------- segmentation

_EIGHT_CONN = np.ones((3, 3), dtype=bool)


def segment_boxes(image, th_int=220, min_area=4):
    """Bounding boxes of bright 8-connected components.

    Pixels strictly above th_int form the mask; components with fewer
    than min_area pixels are dropped.  Box centers are in (u, v) pixel
    coordinates, extents are (width, height).
    """
    img = np.asarray(image)
    if img.ndim != 2:
        raise ValueError(f"expected a 2-D intensity image, got shape {img.shape}")
    mask = img > th_int
    labels, count = scipy.ndimage.label(mask, structure=_EIGHT_CONN)
    if count == 0:
        return []
    sizes = np.bincount(labels.ravel())
    boxes = []
    for k, sl in enumerate(scipy.ndimage.find_objects(labels), start=1):
        if sizes[k] < min_area:
            continue
        rows, cols = sl
        center = np.array(
            [(cols.start + cols.stop - 1) / 2.0, (rows.start + rows.stop - 1) / 2.0]
        )
        extents = np.array(
            [float(cols.stop - cols.start), float(rows.stop - rows.start)]
        )
        boxes.append(DetectionBox(center, extents))
    return boxes


def _flood_boxes(mask, min_area):
    """Reference 8-connected flood fill, boxes as (u0, v0, u1, v1)."""
    h, w = mask.shape
    seen = np.zeros_like(mask, dtype=bool)
    boxes = []
    for r in range(h):
        for c in range(w):
            if not mask[r, c] or seen[r, c]:
                continue
            stack = [(r, c)]
            seen[r, c] = True
            pix = []
            while stack:
                rr, cc = stack.pop()
                pix.append((rr, cc))
                for dr in (-1, 0, 1):
                    for dc in (-1, 0, 1):
                        nr, nc = rr + dr, cc + dc
                        if 0 <= nr < h and 0 <= nc < w and mask[nr, nc] and not seen[nr, nc]:
                            seen[nr, nc] = True
                            stack.append((nr, nc))
            if len(pix) >= min_area:
                rows = [p[0] for p in pix]
                cols = [p[1] for p in pix]
                boxes.append((min(cols), min(rows), max(cols), max(rows)))
    return sorted(boxes)


def _as_corner_boxes(boxes):
    out = []
    for b in boxes:
        u0 = b.center[0] - (b.extents[0] - 1) / 2.0
        v0 = b.center[1] - (b.extents[1] - 1) / 2.0
        out.append(
            (int(u0), int(v0), int(u0 + b.extents[0] - 1), int(v0 + b.extents[1] - 1))
        )
    return sorted(out)


def test_segment_all_dark():
    assert segment_boxes(np.zeros((50, 60)), th_int=220) == []


def test_segment_known_square():
    img = np.zeros((300, 300))
    img[100:110, 100:110] = 255
    boxes = segment_boxes(img, th_int=220, min_area=4)
    assert len(boxes) == 1
    np.testing.assert_allclose(boxes[0].center, [104.5, 104.5])
    np.testing.assert_allclose(boxes[0].extents, [10.0, 10.0])


def test_segment_threshold_is_strict():
    img = np.full((20, 20), 0)
    img[5, 5] = 220
    assert segment_boxes(img, th_int=220, min_area=1) == []
    img[5, 5] = 221
    assert len(segment_boxes(img, th_int=220, min_area=1)) == 1


def test_segment_min_area():
    img = np.zeros((40, 40))
    img[2, 2:5] = 255  # 3 px, below min_area=4
    img[20:22, 20:22] = 255  # exactly 4 px
    boxes = segment_boxes(img, th_int=220, min_area=4)
    assert len(boxes) == 1
    np.testing.assert_allclose(boxes[0].center, [20.5, 20.5])


def test_segment_diagonal_pixels_connect():
    img = np.zeros((30, 30))
    img[10, 10] = 255
    img[11, 11] = 255
    img[12, 12] = 255
    img[13, 13] = 255
    boxes = segment_boxes(img, th_int=220, min_area=4)
    assert len(boxes) == 1
    np.testing.assert_allclose(boxes[0].extents, [4.0, 4.0])


def test_segment_matches_flood_fill_reference():
    rng = np.random.default_rng(100)
    for _ in range(30):
        img = np.where(rng.random((60, 80)) < 0.05, 255, 0)
        min_area = int(rng.integers(1, 5))
        got = _as_corner_boxes(segment_boxes(img, th_int=220, min_area=min_area))
        want = _flood_boxes(img > 220, min_area)
        assert got == want


# --------------------------------------- boxes_containing, ClusterTable.near


def box_contains(box, pixel, pad_w=0.0, pad_h=0.0):
    """Scalar oracle: whether pixel lies in box grown by pad_w x pad_h."""
    d = np.abs(np.asarray(pixel, dtype=float) - box.center)
    return d[0] <= (pad_w + box.extents[0]) / 2.0 and d[1] <= (
        pad_h + box.extents[1]
    ) / 2.0


# whole numbers make pixels land exactly on box edges
_coord = st.one_of(
    st.integers(-1000, 1000).map(float), st.floats(-1000.0, 1000.0)
)
_size = st.one_of(st.integers(0, 300).map(float), st.floats(0.0, 300.0))
_box = st.builds(
    lambda c, e: DetectionBox(np.array(c), np.array(e)),
    st.tuples(_coord, _coord),
    st.tuples(_size, _size),
)


@st.composite
def _boxes_pixels_pads(draw):
    boxes = draw(st.lists(_box, max_size=5))
    pads = draw(st.tuples(_size, _size))
    pixels = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["any", "edge", "nan"]))
        if kind == "edge" and boxes:
            b = draw(st.sampled_from(boxes))
            side = np.array(draw(st.tuples(*[st.sampled_from([-1, 0, 1])] * 2)))
            pixels.append(b.center + side * (b.extents + pads) / 2.0)
        elif kind == "nan":
            pixels.append(draw(st.sampled_from([[np.nan, np.nan], [np.nan, 0.0]])))
        else:
            pixels.append(draw(st.tuples(_coord, _coord)))
    return boxes, pixels, pads


@given(_boxes_pixels_pads())
def test_boxes_containing_equals_scalar_oracle(case):
    boxes, pixels, (pad_w, pad_h) = case
    got = boxes_containing(boxes, pixels, pad_w, pad_h)
    assert got.shape == (len(pixels), len(boxes))
    want = [[box_contains(b, px, pad_w, pad_h) for b in boxes] for px in pixels]
    assert got.tolist() == want


_point = st.tuples(_coord, _coord, st.floats(-20.0, 20.0))


@given(st.lists(_point, max_size=8), _point, st.data())
def test_cluster_table_near_equals_per_cluster_norm(centers, pos, data):
    clusters = [StreetlightCluster(i, np.array(c)) for i, c in enumerate(centers)]
    pos = np.array(pos)
    # the range is arbitrary or exactly some cluster's distance
    exact = [float(np.linalg.norm(c.center - pos)) for c in clusters]
    r = data.draw(st.one_of(st.floats(0.0, 3000.0), *[st.just(d) for d in exact]))
    want = [c for c in clusters if np.linalg.norm(c.center - pos) <= r]
    got = [clusters[i] for i in np.flatnonzero(ClusterTable(clusters).near(pos, r))]
    assert [c.id for c in got] == [c.id for c in want]


def _loop_degeneration_match(boxes, clusters, state, rect_w, rect_h):
    """degeneration_match one cluster and one box at a time."""
    triples = []
    for c in clusters:
        center_px = project(c.center, state.pose, INTR)
        if center_px is None:
            continue
        for bi, box in enumerate(boxes):
            if box_contains(box, center_px, rect_w, rect_h):
                dist = float(np.linalg.norm(box.center - center_px))
                triples.append((dist, c.id, bi))
    return _greedy(triples, boxes, key=None)


def _degeneration_match(boxes, clusters, state, rect_w, rect_h):
    """degeneration_match with its search window set to rect_w x rect_h,
    every cluster a candidate: no range limit and no corridor line."""
    table = ClusterTable(clusters)
    with mock.patch.multiple(extension, RECT_W=rect_w, RECT_H=rect_h):
        return degeneration_match(boxes, table, DegenState(), state, INTR, math.inf)


@given(st.integers(0, 2**32 - 1), _size, _size)
def test_degeneration_match_equals_loop(seed, rect_w, rect_h):
    rng = np.random.default_rng(seed)
    yaw = rng.uniform(-np.pi, np.pi)
    pose = ExtendedPose(so3_exp([0.0, 0.0, yaw]), np.zeros(3), rng.normal(size=3))
    state = FilterState(pose)
    clusters = [
        StreetlightCluster(cid, pose.pos + rng.normal(size=3) * [40.0, 40.0, 3.0])
        for cid in range(rng.integers(0, 10))
    ]
    boxes = [
        DetectionBox(rng.uniform([0, 0], [1280, 720]), rng.uniform(5, 60, size=2))
        for _ in range(rng.integers(0, 8))
    ]
    # boxes a little off some projections, so that rectangles catch them
    for c in clusters[:3]:
        px = project(c.center, pose, INTR)
        if px is not None:
            boxes.append(DetectionBox(px + rng.normal(size=2) * 30, rng.uniform(4, 30, 2)))
    got = _degeneration_match(boxes, clusters, state, rect_w, rect_h)
    want = _loop_degeneration_match(boxes, clusters, state, rect_w, rect_h)
    assert [id(d) for d in got.detections] == [id(d) for d in want.detections]
    assert got.cluster_ids == want.cluster_ids
    assert got.scores == want.scores


# --------------------------------------------------------- extend_matches


def _lamp(y, z, x=20.0):
    """World point whose pixel is (640 - 25 y, 360 - 25 z) at this depth."""
    return np.array([x, y, z])


def _cluster_at(cid, points):
    pts = np.asarray(points, dtype=float)
    return StreetlightCluster(cid, pts.mean(axis=0), pts)


def test_extend_full_containment_ratio_one():
    st = FilterState()
    cluster = _cluster_at(0, [_lamp(0.1, 0.1), _lamp(-0.1, 0.0), _lamp(0.0, -0.1)])
    box = DetectionBox(np.array([640.0, 360.0]), np.array([20.0, 20.0]))
    ms = extend_matches([box], ClusterTable([cluster]), st, INTR, 80.0)
    assert ms.cluster_ids == [0]
    assert ms.scores == [1.0]


def test_extend_max_ratio_box_wins():
    st = FilterState()
    # 7 points project to u=620, 3 to u=700; both boxes contain the center
    pts = [_lamp(0.8, 0.0)] * 7 + [_lamp(-2.4, 0.0)] * 3
    cluster = _cluster_at(0, pts)
    box_a = DetectionBox(np.array([640.0, 360.0]), np.array([80.0, 40.0]))
    box_b = DetectionBox(np.array([675.0, 360.0]), np.array([90.0, 20.0]))
    ms = extend_matches([box_a, box_b], ClusterTable([cluster]), st, INTR, 80.0)
    assert ms.cluster_ids == [0]
    assert ms.detections[0] is box_a
    np.testing.assert_allclose(ms.scores, [0.7])


def test_extend_requires_center_containment():
    st = FilterState()
    # points inside the box, but the projected center misses it
    pts = [_lamp(0.8, 0.0)] * 2 + [_lamp(-3.2, 0.0)] * 3
    cluster = _cluster_at(0, pts)  # center pixel u = 640 + 25*1.6 = 680
    box = DetectionBox(np.array([620.0, 360.0]), np.array([12.0, 30.0]))
    ms = extend_matches([box], ClusterTable([cluster]), st, INTR, 80.0)
    assert ms.cluster_ids == []


def test_extend_range_gate():
    st = FilterState()
    cluster = _cluster_at(0, [_lamp(0.0, 0.0, x=90.0)])
    box = DetectionBox(np.array([640.0, 360.0]), np.array([30.0, 30.0]))
    assert extend_matches([box], ClusterTable([cluster]), st, INTR, 80.0).cluster_ids == []
    assert extend_matches([box], ClusterTable([cluster]), st, INTR, 120.0).cluster_ids == [0]


def test_extend_box_used_once():
    st = FilterState()
    full = _cluster_at(0, [_lamp(0.0, 0.0), _lamp(0.1, 0.0)])
    # one point in the box, one outside; the center still lands inside
    half = _cluster_at(1, [_lamp(0.2, 0.0), _lamp(-1.2, 0.0)])
    box = DetectionBox(np.array([640.0, 360.0]), np.array([30.0, 30.0]))
    ms = extend_matches([box], ClusterTable([full, half]), st, INTR, 80.0)
    assert ms.cluster_ids == [0]
    assert ms.scores == [1.0]


def _reference_extend(boxes, clusters, state, max_range):
    """extend_matches one point and one box at a time."""

    def contains(box, pixel):
        d = np.abs(pixel - box.center)
        return d[0] <= box.extents[0] / 2.0 and d[1] <= box.extents[1] / 2.0

    pose = state.pose
    triples = []
    for c in clusters:
        if np.linalg.norm(c.center - pose.pos) > max_range:
            continue
        center_px = project(c.center, pose, INTR)
        if center_px is None:
            continue
        pixels = [project(p, pose, INTR) for p in c.points]
        pixels = [p for p in pixels if p is not None]
        for bi, box in enumerate(boxes):
            if not contains(box, center_px):
                continue
            inside = sum(1 for p in pixels if contains(box, p))
            if inside:
                triples.append((inside / len(c.points), c.id, bi))
    triples.sort(key=lambda t: (-t[0], t[1], t[2]))
    used_b, used_c, out = set(), set(), []
    for ratio, cid, bi in triples:
        if bi not in used_b and cid not in used_c:
            used_b.add(bi)
            used_c.add(cid)
            out.append((bi, cid, ratio))
    return out


def test_extend_matches_equals_per_point_reference():
    rng = np.random.default_rng(60)
    for _ in range(40):
        yaw = rng.uniform(-np.pi, np.pi)
        pose = ExtendedPose(so3_exp([0.0, 0.0, yaw]), np.zeros(3), rng.normal(size=3))
        st = FilterState(pose)
        clusters = []
        for cid in range(12):
            center = pose.pos + rng.normal(size=3) * [40.0, 40.0, 3.0]
            pts = center + rng.normal(size=(rng.integers(1, 9), 3)) * 0.6
            clusters.append(StreetlightCluster(cid, center, pts))
        boxes = [
            DetectionBox(rng.uniform([0, 0], [1280, 720]), rng.uniform(5, 120, size=2))
            for _ in range(rng.integers(1, 8))
        ]
        # boxes centred on some projections so that matches occur
        for c in clusters[:4]:
            px = project(c.center, pose, INTR)
            if px is not None:
                boxes.append(DetectionBox(px + rng.normal(size=2), rng.uniform(4, 30, 2)))
        ms = extend_matches(boxes, ClusterTable(clusters), st, INTR, 50.0)
        got = [
            (next(i for i, b in enumerate(boxes) if b is d), cid, s)
            for d, cid, s in zip(ms.detections, ms.cluster_ids, ms.scores)
        ]
        assert got == _reference_extend(boxes, clusters, st, 50.0)


def _per_candidate_extend(boxes, clusters, state, intr, max_range):
    """extend_matches from the cluster list alone: the range filter and
    each candidate's block of rows rebuilt per call, one candidate at a
    time."""
    pose = state.pose
    d = np.reshape([c.center for c in clusters], (-1, 3)) - pose.pos
    near = np.sqrt(dot_many(d, d)) <= max_range
    cands = [c for c, keep in zip(clusters, near) if keep]
    if not boxes or not cands:
        return _greedy([], boxes, key=None)
    rows, sizes = [], []
    for c in cands:
        points = c.points if c.points is not None and len(c.points) else [c.center]
        points = np.asarray(points, dtype=float).reshape(-1, 3)
        rows += [np.atleast_2d(c.center), points]
        sizes.append(len(points))
    sizes = np.array(sizes)
    starts = np.cumsum(sizes + 1) - (sizes + 1)
    pix = project_many(np.concatenate(rows), pose, intr)
    inside = boxes_containing(boxes, pix)
    center_in = inside[starts]
    counts = np.add.reduceat(inside.astype(int), starts) - center_in
    triples = []
    for ci, bi in zip(*np.nonzero(center_in & (counts > 0))):
        c, bi = cands[ci], int(bi)
        triples.append((int(counts[ci, bi]) / int(sizes[ci]), c.id, bi))
    return _greedy(triples, boxes, key=lambda t: (-t[0], t[1], t[2]))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 120.0))
def test_extend_matches_equals_per_candidate_loop(seed, max_range):
    rng = np.random.default_rng(seed)
    pose = ExtendedPose(
        so3_exp([0.0, 0.0, rng.uniform(-np.pi, np.pi)]), np.zeros(3), rng.normal(size=3)
    )
    state = FilterState(pose)
    clusters = []
    for cid in range(rng.integers(0, 14)):
        center = pose.pos + rng.normal(size=3) * [40.0, 40.0, 3.0]
        # some clusters carry no points, and some points lie behind the camera
        spread = rng.choice([0.6, 30.0])
        pts = center + rng.normal(size=(rng.integers(0, 9), 3)) * spread
        clusters.append(StreetlightCluster(cid, center, pts))
    boxes = [
        DetectionBox(rng.uniform([0, 0], [1280, 720]), rng.uniform(5, 120, size=2))
        for _ in range(rng.integers(0, 8))
    ]
    for c in clusters[:4]:
        px = project(c.center, pose, INTR)
        if px is not None:
            boxes.append(DetectionBox(px + rng.normal(size=2), rng.uniform(4, 30, 2)))
    matched = {c.id for c in clusters if rng.random() < 0.3}
    unmatched = [c for c in clusters if c.id not in matched]
    want = _per_candidate_extend(boxes, unmatched, state, INTR, max_range)
    table = ClusterTable(clusters)
    for arg in (ClusterTable(unmatched), table.without(matched)):
        got = extend_matches(boxes, arg, state, INTR, max_range)
        assert [id(b) for b in got.detections] == [id(b) for b in want.detections]
        assert got.cluster_ids == want.cluster_ids
        assert got.scores == want.scores
    near = np.flatnonzero(table.without(matched).near(pose.pos, max_range))
    assert [table.ids[i] for i in near] == [
        unmatched[i].id
        for i in np.flatnonzero(ClusterTable(unmatched).near(pose.pos, max_range))
    ]


def test_free_boxes_leaves_out_boxes_holding_a_matched_center():
    st = FilterState()
    ahead = StreetlightCluster(0, _lamp(0.0, 0.0))  # projects to (640, 360)
    right = StreetlightCluster(1, _lamp(-2.0, 0.0))  # (690, 360)
    behind = StreetlightCluster(2, np.array([-20.0, 0.0, 0.0]))  # NaN
    table = ClusterTable([ahead, right, behind])
    small = DetectionBox(np.array([640.0, 360.0]), np.array([10.0, 10.0]))
    side = DetectionBox(np.array([690.0, 360.0]), np.array([10.0, 10.0]))
    image = DetectionBox(np.array([640.0, 360.0]), np.array([4000.0, 4000.0]))
    boxes = [small, side, image]

    def free(matched):
        return [id(b) for b in free_boxes(boxes, table, matched, st, INTR)]

    assert free([]) == [id(b) for b in boxes]
    # a center behind the camera holds no box, not even one over the image
    assert free([2]) == [id(b) for b in boxes]
    assert free([1]) == [id(small)]
    assert free([0, 2]) == [id(side)]
    assert free([1, 0]) == []


# ------------------------------------------------------------- degeneracy


def _centers(xy_list, z=4.0):
    return [(i, np.array([x, y, z])) for i, (x, y) in enumerate(xy_list)]


def test_degeneracy_enters_on_collinear_centers():
    d = DegenState()
    update_degeneracy(d, _centers([(0, 0), (10, 0), (20, 0)]), t=0.0)
    assert d.degenerate
    assert not d.just_ended


def test_degeneracy_needs_two_distinct_clusters():
    d = DegenState()
    c = np.array([5.0, 1.0, 4.0])
    update_degeneracy(d, [(7, c), (7, c + 1e-9)], t=0.0)
    assert not d.degenerate


def test_degeneracy_rejects_offline_set():
    d = DegenState()
    update_degeneracy(d, _centers([(0, 0), (10, 0), (10, 8)]), t=0.0)
    assert not d.degenerate


def test_degeneracy_exit_requires_offline_center():
    d = DegenState()
    update_degeneracy(d, _centers([(0, 0), (10, 0), (20, 0)]), t=0.0)
    # more on-line matches keep it degenerate
    update_degeneracy(d, [(3, np.array([30.0, 0.3, 4.0]))], t=1.0)
    assert d.degenerate and not d.just_ended
    update_degeneracy(d, [(4, np.array([10.0, 8.0, 4.0]))], t=2.0)
    assert not d.degenerate
    assert d.just_ended
    # the flag is a one-frame pulse
    update_degeneracy(d, [], t=3.0)
    assert not d.just_ended


def test_degeneracy_survives_match_gap_until_offline_evidence():
    d = DegenState()
    update_degeneracy(d, _centers([(0, 0), (10, 0)]), t=0.0)
    assert d.degenerate
    update_degeneracy(d, [(9, np.array([40.0, 0.1, 4.0]))], t=20.0)  # window expired
    assert d.degenerate  # only off-line evidence ends it
    update_degeneracy(d, [(10, np.array([40.0, 6.0, 4.0]))], t=21.0)
    assert d.just_ended


def test_degeneracy_with_noise_below_threshold():
    rng = np.random.default_rng(101)
    for _ in range(20):
        d = DegenState()
        direction = rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        base = rng.uniform(-50, 50, size=2)
        normal = np.array([-direction[1], direction[0]])
        matched = []
        for i in range(6):
            s = rng.uniform(-30, 30)
            off = rng.uniform(-0.7, 0.7)
            xy = base + s * direction + off * normal
            matched.append((i, np.array([xy[0], xy[1], 4.0])))
        update_degeneracy(d, matched, t=0.0)
        assert d.degenerate


def test_degeneracy_order_insensitive():
    xs = [(0, 0), (12, 0.2), (24, -0.2), (36, 0.1)]
    d1 = DegenState()
    update_degeneracy(d1, _centers(xs), t=0.0)
    d2 = DegenState()
    update_degeneracy(d2, list(reversed(_centers(xs))), t=0.0)
    assert d1.degenerate == d2.degenerate


def test_degeneration_match_candidates_lie_off_the_line():
    d = DegenState()
    update_degeneracy(d, _centers([(0, 0), (10, 0), (20, 0)]), t=0.0)
    on = StreetlightCluster(0, np.array([30.0, 0.2, 4.0]))
    off = StreetlightCluster(1, np.array([30.0, 5.0, 4.0]))
    # one box on each projection, so each candidate takes its own box
    st = FilterState()
    table = ClusterTable([on, off])
    pixels = project_many(table.centers, st.pose, INTR)
    boxes = [DetectionBox(px, np.array([10.0, 10.0])) for px in pixels]
    got = degeneration_match(boxes, table, d, st, INTR, math.inf)
    assert got.cluster_ids == [1]
    got = degeneration_match(boxes, table, DegenState(), st, INTR, math.inf)
    assert len(got.cluster_ids) == 2
    # both lie 30 m ahead, out of a 20 m range
    assert degeneration_match(boxes, table, d, st, INTR, 20.0).cluster_ids == []


# ------------------------------------------------------ degeneration_match


def test_rectangle_match_vertical_offset():
    st = FilterState()
    cluster = StreetlightCluster(0, _lamp(0.0, 0.0))  # projects to (640, 360)
    below = DetectionBox(np.array([640.0, 400.0]), np.array([10.0, 10.0]))
    ms = _degeneration_match([below], [cluster], st, 20, 200)
    assert ms.cluster_ids == [0]


def test_rectangle_match_rejects_lateral_offset():
    st = FilterState()
    cluster = StreetlightCluster(0, _lamp(0.0, 0.0))
    side = DetectionBox(np.array([680.0, 360.0]), np.array([10.0, 10.0]))
    ms = _degeneration_match([side], [cluster], st, 20, 200)
    assert ms.cluster_ids == []


def test_rectangle_match_prefers_nearest():
    st = FilterState()
    cluster = StreetlightCluster(0, _lamp(0.0, 0.0))
    near = DetectionBox(np.array([640.0, 390.0]), np.array([10.0, 10.0]))
    far = DetectionBox(np.array([640.0, 420.0]), np.array([10.0, 10.0]))
    ms = _degeneration_match([far, near], [cluster], st, 20, 200)
    assert len(ms.cluster_ids) == 1
    assert ms.detections[0] is near


def test_rectangle_match_unique_assignment():
    st = FilterState()
    c0 = StreetlightCluster(0, _lamp(0.0, 0.0))
    c1 = StreetlightCluster(1, _lamp(-0.4, 0.0))  # projects 10 px right
    b0 = DetectionBox(np.array([640.0, 380.0]), np.array([10.0, 10.0]))
    b1 = DetectionBox(np.array([650.0, 390.0]), np.array([10.0, 10.0]))
    table = ClusterTable([c0, c1])
    ms = degeneration_match([b0, b1], table, DegenState(), st, INTR, math.inf)
    assert sorted(ms.cluster_ids) == [0, 1]
    assert len(set(id(d) for d in ms.detections)) == 2


class _RefitDegen:
    """update_degeneracy with the window a list filtered on every call and
    the line refitted on every call."""

    def __init__(self):
        self.degenerate = False
        self.just_ended = False
        self.window = []
        self.line = None

    def update(self, matched, t):
        self.just_ended = False
        new_entries = [(t, cid, np.asarray(c, dtype=float)) for cid, c in matched]
        if self.degenerate and self.line is not None:
            for _, _, center in new_entries:
                if _ref_perp(center, self.line) >= TH_LINE:
                    self.degenerate = False
                    self.just_ended = True
                    break
        self.window.extend(new_entries)
        cutoff = t - HORIZON
        self.window = [e for e in self.window if e[0] >= cutoff]
        by_id = {}
        for _, cid, center in self.window:
            by_id[cid] = center
        centers = list(by_id.values())
        if len(centers) >= 2:
            pts = np.asarray(centers, dtype=float)[:, :2]
            centroid = pts.mean(axis=0)
            _, _, vt = np.linalg.svd(pts - centroid, full_matrices=False)
            line = centroid, vt[0]
            max_perp = max(_ref_perp(c, line) for c in centers)
            if self.just_ended:
                self.line = None
            elif max_perp < TH_LINE:
                self.degenerate = True
                self.line = line
            elif self.degenerate:
                self.line = line
        elif not self.degenerate:
            self.line = None


def _ref_perp(center, line):
    centroid, direction = line
    d = np.asarray(center, dtype=float)[:2] - centroid
    return abs(d[0] * direction[1] - d[1] * direction[0])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_update_degeneracy_equals_refit_on_every_call(seed):
    rng = np.random.default_rng(seed)
    pool = rng.integers(2, 9)
    # lamps near one line, a few well off it
    base = {}
    for cid in range(pool):
        off = rng.normal() * rng.choice([0.3, 4.0])
        base[cid] = np.array([rng.uniform(-60, 60), off, 4.0])
    got, want = DegenState(), _RefitDegen()
    t = 0.0
    for _ in range(rng.integers(1, 60)):
        t += float(rng.choice([0.0, 0.1, 0.5, 3.0, HORIZON, 2 * HORIZON]))
        matched = []
        for _ in range(rng.integers(0, 5)):
            cid = int(rng.integers(pool))
            if rng.random() < 0.2:  # the id's center moves
                base[cid] = base[cid] + rng.normal(size=3) * [0.5, 2.0, 0.0]
            matched.append((cid, base[cid]))
        update_degeneracy(got, matched, t)
        want.update(matched, t)
        assert (got.degenerate, got.just_ended) == (want.degenerate, want.just_ended)
        assert (got.line is None) == (want.line is None)
        if got.line is not None:
            assert got.line[0].tobytes() == want.line[0].tobytes()
            assert got.line[1].tobytes() == want.line[1].tobytes()
        assert [(e[0], e[1], e[2].tobytes()) for e in got.window] == [
            (e[0], e[1], e[2].tobytes()) for e in want.window
        ]
