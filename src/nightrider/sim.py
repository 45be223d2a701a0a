"""Deterministic synthetic night scenes: trajectories, sensors, maps.

A Scenario fixes everything: the ground-truth trajectory, sensor rates,
the streetlight layout, noise levels, and one RNG seed.  All randomness
flows from that seed through named child streams, so a scenario always
reproduces the same sensor bytes.

Sensor streams are arrays on the truth's time grid t_k = k / imu_rate.
IMU row k is interval-consistent: the exact body rate and specific force
that carry the truth pose from t_k to t_k+1, so a noise-free stream
integrates back to the truth up to the integrator's own O(dt^3) position
remainder.  The other sensors sample grid points whose indices
SensorStreams carries (odom_at, frame_at), decided once by _grid_indices.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .camera import CameraIntrinsics, DetectionBox, camera_point, pinhole
from .inekf import GRAVITY, MAX_DT
from .lie import Trajectory, dot_many, so3_log_many
from .mapping import StreetlightCluster, StreetlightMap


_FP_INSET = 10.0  # px: false positives are drawn this far inside each edge
MIN_BOX_AREA = 4  # px: smaller segmented blobs are dropped
ATE_MAX_DT = 0.005  # s: compute_ate pairs only stamps this close
# the planted lateral accelerometer bias of corridor_scenario (m/s^2)
CORRIDOR_LATERAL_BIAS = 0.5
# Bounds that keep a run in memory and time (ring has 20,000 IMU samples, 1,000
# frames and 0.5 false positives, drawn one by one, per frame), frame_boxes'
# mask within 64 MiB, and the squares and quotients of scenario numbers finite.
MAX_SAMPLES = {"imu_rate": 10**6, "cam_rate": 10**5}  # of duration * rate
MAX_FP = 100  # expected false positives per frame
MAX_IMAGE_SIDE = 8192  # px
MAX_ABS, MIN_SCALE = 1e9, 1e-9  # any number's size; a positive field's least value
# Below these measurement-noise floors an update trusts a pixel or a wheel
# speed so far that the covariance loses rank.  On the built-in scenarios
# cond(P) passes 1e15 at pixel_sigma 1e-6 px or odom_sigma 1e-9 m/s, and a
# pixel_sigma of 1e-7 px ends in a singular solve; at the floors cond(P) stays
# below 6e12 over every frame.
MIN_PIXEL_SIGMA, MIN_ODOM_SIGMA = 1e-3, 1e-6  # px, m/s


def _real(v):
    return not isinstance(v, bool) and isinstance(v, numbers.Real) and abs(v) <= MAX_ABS


def _integer(v):
    return not isinstance(v, bool) and isinstance(v, numbers.Integral)


def _list_of(ok, size=None):
    """A check for a list (of size entries, if given) whose entries all pass ok."""
    return lambda v: isinstance(v, (list, tuple)) and size in (None, len(v)) and all(map(ok, v))


def _number(low=-MAX_ABS, high=MAX_ABS, kind=_real, noun="a number"):
    """A rule, (check, what a value that passes it is), for a number in [low, high]."""
    return (lambda v: kind(v) and low <= v <= high), f"{noun} in [{low:g}, {high:g}]"


_NUM, _GT_0, _GE_0 = _number(), _number(MIN_SCALE), _number(0)
_IN = f"in [{-MAX_ABS:g}, {MAX_ABS:g}]"
_XY = (_list_of(_real, 2), f"2 numbers {_IN}")
_XYZ = (_list_of(_real, 3), f"3 numbers {_IN}")
_POINTS = (_list_of(_list_of(_real, 3)), f"a list of [x, y, z] points, each number {_IN}")
_TIMES = (
    lambda v: _list_of(_real)(v) and len(v) >= 2 and all(a < b for a, b in zip(v, v[1:])),
    f"2 or more increasing numbers {_IN}",
)
_BOOL = (lambda v: isinstance(v, bool), "true or false")
_SIDE = _number(2 * _FP_INSET, MAX_IMAGE_SIDE, _integer, "an integer")

# trajectory kind -> ({required key: rule}, {optional key: rule}); _truth_arrays
# reads these keys
_TRAJECTORIES = {
    "circle": ({"radius": _GT_0, "speed": _NUM}, {"center": _XY, "height": _NUM, "phase": _NUM}),
    "figure-eight": ({"amp_x": _NUM, "amp_y": _NUM, "period": _GT_0}, {"height": _NUM}),
    "line": ({}, {"start": _XYZ, "velocity": _XYZ, "yaw": _NUM}),
    "waypoints": ({"times": _TIMES, "points": _POINTS}, {"closed": _BOOL}),
}

# Scenario field -> rule
_FIELDS = {
    "name": (lambda v: isinstance(v, str), "a string"),
    "trajectory": (
        lambda v: isinstance(v, dict) and v.get("kind") in tuple(_TRAJECTORIES),
        "an object whose kind is one of " + ", ".join(map(repr, _TRAJECTORIES)),
    ),
    "duration": _GT_0,
    "imu_rate": _number(1 / MAX_DT),  # propagate refuses steps longer than MAX_DT
    "odom_rate": _GT_0,
    "cam_rate": _GT_0,
    "seed": _number(0, math.inf, _integer, "an integer"),
    "lamps": _POINTS,
    "lamp_size": _GT_0,
    "bloom": _GT_0,
    "gyro_sigma": _GE_0,
    "accel_sigma": _GE_0,
    "gyro_bias_sigma": _GE_0,
    "accel_bias_sigma": _GE_0,
    "bias_mode": (lambda v: v in ("random-walk", "constant"), "'random-walk' or 'constant'"),
    "gyro_bias0": _XYZ,
    "accel_bias0": _XYZ,
    "odom_sigma": _number(MIN_ODOM_SIGMA),
    "pixel_sigma": _number(MIN_PIXEL_SIGMA),
    "dropout": _number(0, 1),
    "false_positives": _number(0, MAX_FP),
    "detector_min_box": _GE_0,
    "blackouts": (
        _list_of(lambda b: _list_of(_real, 2)(b) and b[0] < b[1]),
        f"a list of [t0, t1] pairs with t0 < t1, each {_IN}",
    ),
    "fx": _GT_0,
    "fy": _GT_0,
    "cx": _NUM,
    "cy": _NUM,
    "image_width": _SIDE,
    "image_height": _SIDE,
}


def _check(doc, rules, prefix="", required=()):
    """Raise a ValueError naming the first key that is missing or breaks its rule."""
    for key, (check, text) in rules.items():
        if key not in doc and key in required:
            raise ValueError(f"{prefix}{key} is required; it must be {text}")
        if key in doc and not check(doc[key]):
            raise ValueError(f"{prefix}{key} must be {text}, got {doc[key]!r}")


@dataclass
class Scenario:
    name: str = "figure-eight"
    trajectory: dict = field(
        default_factory=lambda: {
            "kind": "figure-eight",
            "amp_x": 25.0,
            "amp_y": 12.0,
            "period": 40.0,
            "height": 0.0,
        }
    )
    duration: float = 40.0
    imu_rate: float = 200.0
    odom_rate: float = 10.0
    cam_rate: float = 10.0
    seed: int = 0
    lamps: list = field(default_factory=list)  # [[x, y, z], ...]
    lamp_size: float = 0.5  # physical lamp diameter (m)
    bloom: float = 2.0  # rendered blobs saturate larger than the lamp
    gyro_sigma: float = 0.005
    accel_sigma: float = 0.05
    gyro_bias_sigma: float = 1e-4
    accel_bias_sigma: float = 1e-3
    bias_mode: str = "random-walk"  # or "constant"
    gyro_bias0: list = field(default_factory=lambda: [0.0, 0.0, 0.0])
    accel_bias0: list = field(default_factory=lambda: [0.0, 0.0, 0.0])
    odom_sigma: float = 0.05
    pixel_sigma: float = 2.0
    dropout: float = 0.2
    false_positives: float = 0.5  # expected count per frame
    detector_min_box: float = 8.0  # px, smaller lights are missed
    blackouts: list = field(default_factory=list)  # [[t0, t1], ...]
    fx: float = 500.0
    fy: float = 500.0
    cx: float = 640.0
    cy: float = 360.0
    image_width: int = 1280
    image_height: int = 720

    def __post_init__(self):
        _check(vars(self), _FIELDS)
        spec = self.trajectory
        required, optional = _TRAJECTORIES[spec["kind"]]
        unknown = sorted(map(repr, set(spec) - {"kind", *required, *optional}))
        if unknown:
            raise ValueError(f"unknown trajectory keys: {', '.join(unknown)}")
        _check(spec, {**required, **optional}, "trajectory ", required)
        if spec["kind"] == "waypoints" and len(spec["points"]) != len(spec["times"]):
            raise ValueError("trajectory points must hold one point per entry of times")
        p = spec.get("points")  # CubicSpline's periodic end condition, with its tolerance
        if spec.get("closed") and not np.allclose(p[0], p[-1], rtol=1e-15, atol=1e-15):
            raise ValueError("closed trajectory points must end where they start")
        for name, most in MAX_SAMPLES.items():
            if self.duration * getattr(self, name) > most:
                raise ValueError(f"duration * {name} must be at most {most} samples")
        for name in ("odom_rate", "cam_rate"):
            ratio = self.imu_rate / getattr(self, name)
            if abs(ratio - round(ratio)) > 1e-9:
                raise ValueError(f"imu_rate must be an integer multiple of {name}")

    def intrinsics(self):
        return CameraIntrinsics(
            self.fx, self.fy, self.cx, self.cy, self.image_width, self.image_height
        )

    def in_blackout(self, t):
        return any(t0 <= t < t1 for t0, t1 in self.blackouts)

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, doc):
        if not isinstance(doc, dict):
            raise ValueError(f"a scenario must be a JSON object, got {type(doc).__name__}")
        unknown = sorted(set(doc) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown scenario keys: {', '.join(map(repr, unknown))}")
        return cls(**doc)

    def save(self, path):
        Path(path).write_text(json.dumps(self.to_dict(), indent=1, sort_keys=True))

    @classmethod
    def load(cls, path):
        return cls.from_dict(json.loads(Path(path).read_text()))


@dataclass(slots=True)
class CameraFrame:
    t: float
    detections: list
    truth_ids: list  # cluster id per detection, None for false positives
    blackout: bool = False
    # segmentation boxes of the rendered frame (frame_boxes); none while dark
    boxes: list = field(default_factory=list)


def _rotz(yaw):
    """Stack of rotations about z, one per entry of the yaw array."""
    c, s = np.cos(yaw), np.sin(yaw)
    R = np.zeros((len(yaw), 3, 3))
    R[:, 0, 0] = c
    R[:, 0, 1] = -s
    R[:, 1, 0] = s
    R[:, 1, 1] = c
    R[:, 2, 2] = 1.0
    return R


def _truth_arrays(spec, t):
    """(pos, vel, yaw) arrays for a trajectory spec."""
    kind = spec.get("kind")
    n = len(t)
    if kind == "circle":
        r = float(spec["radius"])
        speed = float(spec["speed"])
        cx, cy = spec.get("center", (0.0, 0.0))
        z = float(spec.get("height", 0.0))
        w = speed / r
        th = spec.get("phase", 0.0) + w * t
        pos = np.stack([cx + r * np.cos(th), cy + r * np.sin(th), np.full(n, z)], 1)
        vel = np.stack([-r * w * np.sin(th), r * w * np.cos(th), np.zeros(n)], 1)
        return pos, vel, th + np.pi / 2
    if kind == "figure-eight":
        A = float(spec["amp_x"])
        B = float(spec["amp_y"])
        T = float(spec["period"])
        z = float(spec.get("height", 0.0))
        ud = 2.0 * np.pi / T
        u = ud * t
        pos = np.stack([A * np.sin(u), B * np.sin(2 * u), np.full(n, z)], 1)
        vel = np.stack([A * ud * np.cos(u), 2 * B * ud * np.cos(2 * u), np.zeros(n)], 1)
    elif kind == "line":
        start = np.asarray(spec.get("start", (0.0, 0.0, 0.0)), dtype=float)
        v = np.asarray(spec.get("velocity", (0.0, 0.0, 0.0)), dtype=float)
        pos = start + np.outer(t, v)
        vel = np.tile(v, (n, 1))
        speed_xy = math.hypot(v[0], v[1])
        yaw0 = spec.get("yaw", math.atan2(v[1], v[0]) if speed_xy > 0 else 0.0)
        return pos, vel, np.full(n, float(yaw0))
    else:  # waypoints
        import scipy.interpolate  # here, so the analytic kinds never load scipy

        times = np.asarray(spec["times"], dtype=float)
        points = np.asarray(spec["points"], dtype=float)
        bc = "periodic" if spec.get("closed", False) else "natural"
        spline = scipy.interpolate.CubicSpline(times, points, bc_type=bc)
        pos = spline(t)
        vel = spline(t, 1)

    speed2 = vel[:, 0] ** 2 + vel[:, 1] ** 2
    if speed2.min() < 0.05**2:
        raise ValueError("planar speed too low for a defined heading")
    return pos, vel, np.arctan2(vel[:, 1], vel[:, 0])


def generate_truth(scenario):
    """Ground truth sampled on the IMU grid, as a Trajectory of analytic
    positions and velocities.

    Attitude is yaw-only (planar heading along the velocity).  No analytic
    derivative beyond the velocity is taken: simulate_imu works out the
    body rates and specific forces from consecutive rotation and velocity
    rows.
    """
    n = int(round(scenario.duration * scenario.imu_rate))
    t = np.arange(n + 1) / scenario.imu_rate
    pos, vel, yaw = _truth_arrays(scenario.trajectory, t)
    return Trajectory(t, _rotz(yaw), vel, pos)


def simulate_imu(truth, scenario, rng):
    """(gyro, accel, bias_gyro, bias_accel): the IMU stream as (n, 3) rows
    for the n intervals of the truth grid, and the true biases, one row
    per grid time.

    Row k carries the interval-consistent rates for [t_k, t_{k+1}],
    corrupted by the bias at t_k and white noise scaled to the rate.
    """
    n = len(truth) - 1
    dt = 1.0 / scenario.imu_rate
    if scenario.bias_mode == "constant":
        bias_g = np.tile(np.asarray(scenario.gyro_bias0, dtype=float), (n + 1, 1))
        bias_a = np.tile(np.asarray(scenario.accel_bias0, dtype=float), (n + 1, 1))
    else:
        steps_g = rng.normal(size=(n, 3)) * scenario.gyro_bias_sigma * math.sqrt(dt)
        steps_a = rng.normal(size=(n, 3)) * scenario.accel_bias_sigma * math.sqrt(dt)
        bias_g = np.vstack([np.zeros(3), np.cumsum(steps_g, axis=0)])
        bias_a = np.vstack([np.zeros(3), np.cumsum(steps_a, axis=0)])
        bias_g += np.asarray(scenario.gyro_bias0, dtype=float)
        bias_a += np.asarray(scenario.accel_bias0, dtype=float)
    noise_g = rng.normal(size=(n, 3)) * (scenario.gyro_sigma / math.sqrt(dt))
    noise_a = rng.normal(size=(n, 3)) * (scenario.accel_sigma / math.sqrt(dt))

    rot, vel = truth.rot, truth.vel
    rot_t = np.swapaxes(rot[:-1], 1, 2)
    omega = so3_log_many(rot_t @ rot[1:]) / dt
    accel = (rot_t @ ((vel[1:] - vel[:-1]) / dt - GRAVITY)[:, :, None])[:, :, 0]
    gyro = omega + bias_g[:n] + noise_g
    accel = accel + bias_a[:n] + noise_a
    return gyro, accel, bias_g, bias_a


def simulate_odom(truth, scenario, rng):
    """Body-frame velocities, one (m, 3) row per odometer sample, taken at
    the grid indices _grid_indices gives for odom_rate.

    The odometer sits at the body origin, aligned with the body axes.
    """
    idx = _grid_indices(scenario, scenario.odom_rate)
    noise = rng.normal(size=(len(idx), 3)) * scenario.odom_sigma
    vel_b = (np.swapaxes(truth.rot[idx], 1, 2) @ truth.vel[idx][:, :, None])[:, :, 0]
    return vel_b + noise


def _grid_indices(scenario, rate):
    """IMU-grid indices of a sensor's samples at rate, from 1/rate on."""
    step = int(round(scenario.imu_rate / rate))
    m = int(math.floor(scenario.duration * rate + 1e-9))
    return step * np.arange(1, m + 1)


def simulate_detections(truth, scenario, smap, rng):
    """Detector output per camera frame.

    Visible clusters (in front, large enough on screen, inside the image)
    are dropped with the dropout probability, the survivors get pixel
    noise; Poisson-many false positives are appended.  Blackout frames
    are empty.  Visibility is decided for all frames at once; the random
    draws follow frame by frame, cluster by cluster.
    """
    intr = scenario.intrinsics()
    idx = _grid_indices(scenario, scenario.cam_rate)
    cps = camera_point(smap.centers(), truth[idx])
    front = cps[..., 2] >= 1.0
    cp = cps[front]
    extents = np.zeros(front.shape + (2,))
    extents[front] = np.stack(
        [
            intr.fx * scenario.lamp_size / cp[:, 2],
            intr.fy * scenario.lamp_size / cp[:, 2],
        ],
        1,
    )
    pix = np.zeros(front.shape + (2,))
    pix[front] = pinhole(cp, intr)
    visible = (
        front
        & (extents.min(axis=-1) >= scenario.detector_min_box)
        & intr.contains(pix, margin=2.0)
    )
    ids = [c.id for c in smap.clusters]
    frames = []
    for j, t in enumerate(truth.t[idx]):
        if scenario.in_blackout(t):
            frames.append(CameraFrame(t, [], [], blackout=True))
            continue
        dets, tids = [], []
        for c in np.flatnonzero(visible[j]).tolist():
            if rng.random() < scenario.dropout:
                continue
            noisy = pix[j, c] + rng.normal(size=2) * scenario.pixel_sigma
            dets.append(DetectionBox(noisy, extents[j, c].copy()))
            tids.append(ids[c])
        for _ in range(rng.poisson(scenario.false_positives)):
            center = np.array(
                [
                    rng.uniform(_FP_INSET, scenario.image_width - _FP_INSET),
                    rng.uniform(_FP_INSET, scenario.image_height - _FP_INSET),
                ]
            )
            dets.append(DetectionBox(center, rng.uniform(8.0, 20.0, size=2)))
            tids.append(None)
        frames.append(CameraFrame(t, dets, tids))
    return frames


@dataclass
class SensorStreams:
    """A scenario's ground truth and simulated sensor streams."""

    truth: Trajectory  # on the IMU grid
    gyro: np.ndarray  # (n, 3); row k covers grid times [t_k, t_k+1]
    accel: np.ndarray
    bias_gyro: np.ndarray  # true biases, one row per IMU grid time
    bias_accel: np.ndarray
    odom: np.ndarray  # (m, 3) body-frame velocities
    odom_at: np.ndarray  # grid index of each odometer row
    frames: list  # CameraFrame per camera time, with its segmentation boxes
    frame_at: np.ndarray  # grid index of each frame
    rng_init: np.random.Generator  # left for drawing an initial state

    def frame_rows(self):
        """Grid indices of t = 0 and of every frame: the rows of a run's log."""
        return np.concatenate([[0], self.frame_at])


def simulate_streams(scenario, smap):
    """Simulate every sensor of the scenario.

    The scenario seed spawns four child streams, one each for the IMU,
    the odometer and the detector, and one left for the initial state, so
    each stream's bytes depend only on the seed and its own sensor.  The
    segmentation boxes of every lit frame are rendered in one frame_boxes
    call and attached to the detector's frames.
    """
    truth = generate_truth(scenario)
    rng_imu, rng_odom, rng_cam, rng_init = (
        np.random.default_rng(s) for s in np.random.SeedSequence(scenario.seed).spawn(4)
    )
    gyro, accel, bias_g, bias_a = simulate_imu(truth, scenario, rng_imu)
    odom = simulate_odom(truth, scenario, rng_odom)
    frames = simulate_detections(truth, scenario, smap, rng_cam)
    frame_at = _grid_indices(scenario, scenario.cam_rate)
    lit = [j for j, f in enumerate(frames) if not f.blackout]
    for j, boxes in zip(lit, frame_boxes(truth[frame_at[lit]], smap, scenario)):
        frames[j].boxes = boxes
    odom_at = _grid_indices(scenario, scenario.odom_rate)
    return SensorStreams(
        truth, gyro, accel, bias_g, bias_a, odom, odom_at, frames, frame_at, rng_init
    )


def _blob_rects(poses, smap, scenario, intr):
    """Integer pixel rectangles [u0, u1) x [v0, v1) of the rendered blobs,
    one list per row of the Trajectory poses.

    One per cluster at least 1 m in front of the camera whose blob
    overlaps the image, in cluster order.
    """
    cps = camera_point(smap.centers(), poses)
    front = cps[..., 2] >= 1.0
    cp = cps[front]
    pix = pinhole(cp, intr)
    size = scenario.bloom * scenario.lamp_size
    half = np.stack([intr.fx * size / cp[:, 2], intr.fy * size / cp[:, 2]], 1) / 2.0
    lo = np.floor(pix - half + 0.5)
    hi = np.maximum(np.floor(pix + half + 0.5), lo + 1.0)
    lo = np.maximum(lo, 0.0)
    hi = np.minimum(hi, [scenario.image_width, scenario.image_height])
    keep = (lo < hi).all(axis=1)
    # pose of each kept blob; blobs come pose by pose, cluster by cluster
    owner = np.nonzero(front)[0][keep]
    rects = [
        (u0, u1, v0, v1)
        for (u0, v0), (u1, v1) in zip(
            lo[keep].astype(int).tolist(), hi[keep].astype(int).tolist()
        )
    ]
    bounds = np.searchsorted(owner, np.arange(len(poses) + 1)).tolist()
    return [rects[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def _segment_rects(rects):
    """Segmentation boxes of one frame's blob rectangles.

    Groups 8-connected rectangles and reports each group's bounding box
    when its painted pixel count reaches MIN_BOX_AREA, sorted by center row,
    then column.
    """
    n = len(rects)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            a, b = rects[i], rects[j]
            # 8-adjacency of [u0, u1) ranges: gap of at most one pixel
            if a[0] <= b[1] and b[0] <= a[1] and a[2] <= b[3] and b[2] <= a[3]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj

    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(rects[i])

    boxes = []
    for members in groups.values():
        u0 = min(r[0] for r in members)
        u1 = max(r[1] for r in members)
        v0 = min(r[2] for r in members)
        v1 = max(r[3] for r in members)
        if len(members) == 1:
            area = (u1 - u0) * (v1 - v0)
        else:
            mask = np.zeros((v1 - v0, u1 - u0), dtype=bool)
            for r in members:
                mask[r[2] - v0 : r[3] - v0, r[0] - u0 : r[1] - u0] = True
            area = int(mask.sum())
        if area < MIN_BOX_AREA:
            continue
        boxes.append(
            DetectionBox(
                np.array([(u0 + u1 - 1) / 2.0, (v0 + v1 - 1) / 2.0]),
                np.array([float(u1 - u0), float(v1 - v0)]),
                source="segmentation",
            )
        )
    boxes.sort(key=lambda b: (b.center[1], b.center[0]))
    return boxes


def frame_boxes(poses, smap, scenario):
    """Segmentation boxes of the rendered frames, without the images.

    poses is a Trajectory; each row gives one list of boxes, and the
    camera geometry of all its poses is computed in one pass.  Blob
    rectangles are grouped by 8-connectivity, and each group gives
    its bounding box and painted pixel count.  That equals segmenting
    the rendered image for any threshold below the blob intensity; the
    renderer (render_intensity_image in tests/test_sim.py) and the
    segmenter (segment_boxes in tests/test_extension.py) are the oracle.
    """
    rects = _blob_rects(poses, smap, scenario, scenario.intrinsics())
    return [_segment_rects(r) for r in rects]


_LAMP_OFFSETS = np.array(
    [
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, -1.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0],
    ]
)


def make_map(scenario):
    """Streetlight map straight from the scenario's lamp positions.

    Each lamp becomes one cluster with a small point cloud spanning its
    physical size; ids follow the map-builder's x-then-y ordering.
    """
    lamps = sorted(
        (np.asarray(p, dtype=float) for p in scenario.lamps),
        key=lambda p: (p[0], p[1]),
    )
    clusters = []
    for i, center in enumerate(lamps):
        points = center + _LAMP_OFFSETS * (scenario.lamp_size / 2.0)
        clusters.append(StreetlightCluster(i, center, points))
    return StreetlightMap(map_id=scenario.name, clusters=clusters)


def compute_ate(est, truth):
    """(translation RMSE m, rotation RMSE deg) of the est Trajectory against
    the truth Trajectory, over nearest-time pairs.

    Both trajectories share the world frame, so no alignment is applied.
    Raises ValueError when no timestamps pair up within ATE_MAX_DT.
    """
    est_times, truth_times = est.t, truth.t
    if len(est_times) == 0 or len(truth_times) == 0:
        raise ValueError("empty trajectory")
    idx = np.searchsorted(truth_times, est_times)
    idx = np.clip(idx, 0, len(truth_times) - 1)
    left = np.clip(idx - 1, 0, len(truth_times) - 1)
    use_left = np.abs(truth_times[left] - est_times) <= np.abs(
        truth_times[idx] - est_times
    )
    nearest = np.where(use_left, left, idx)
    ok = np.abs(truth_times[nearest] - est_times) <= ATE_MAX_DT + 1e-12
    if not ok.any():
        raise ValueError("no overlapping timestamps within tolerance")

    est, truth = est[np.flatnonzero(ok)], truth[nearest[ok]]
    t_sq = np.sum((est.pos - truth.pos) ** 2, axis=1)
    phi = so3_log_many(np.swapaxes(est.rot, 1, 2) @ truth.rot)
    # the square of each angle as a scalar, as its per-pose form squared it
    r_sq = [ang**2 for ang in np.sqrt(dot_many(phi, phi))]
    trans = math.sqrt(float(np.mean(t_sq)))
    rot = math.degrees(math.sqrt(float(np.mean(r_sq))))
    return trans, rot


def path_length(truth):
    """Length of a Trajectory's polyline through its positions."""
    return float(np.linalg.norm(np.diff(truth.pos, axis=0), axis=1).sum())


def default_scenario(seed=0):
    """Figure-eight course through a lamp grid; the standard test scene."""
    lamps = []
    i = 0
    for x in (-24.0, -12.0, 0.0, 12.0, 24.0):
        for y in (-15.0, -5.0, 5.0, 15.0):
            lamps.append([x, y, 4.5 + 0.5 * (i % 3)])
            i += 1
    return Scenario(name="figure-eight", lamps=lamps, seed=seed)


def ring_scenario(seed=0):
    """One 500 m lap with 20 lamps alternating inside/outside the ring."""
    r = 500.0 / (2.0 * np.pi)
    lamps = []
    for i in range(20):
        th = 2.0 * np.pi * i / 20.0
        rad = r + (4.0 if i % 2 == 0 else -4.0)
        lamps.append([rad * np.cos(th), rad * np.sin(th), 5.0 + (i % 2)])
    return Scenario(
        name="ring",
        trajectory={"kind": "circle", "radius": r, "speed": 5.0},
        duration=100.0,
        lamps=lamps,
        seed=seed,
    )


def corridor_scenario(seed=1):
    """Straight corridor of ten collinear lamps, then one off-line lamp.

    Collinear lights cannot pin a rotation about their common line, and
    neither gravity leveling nor the odometer helps: a roll about the
    line pairs with a lateral accelerometer-bias shift of g times the
    angle, and the velocity is parallel to the line.  The scenario
    plants a constant lateral accelerometer bias, CORRIDOR_LATERAL_BIAS,
    that the filter does not know at start; the estimate settles into a
    tilted equilibrium roughly CORRIDOR_LATERAL_BIAS / g radians around
    the line (a z offset of a few decimetres here) while every on-line
    projection stays consistent.  The off-line lamp at (110, -12) m
    breaks the symmetry once it comes into range.

    The filter still models the bias as a walk, so its covariance
    grows honestly along the blind direction.  The other noise knobs
    are kept quiet so the planted bias is the only meaningful error
    source and the comparison between runs with and without
    degeneration handling is not washed out.
    """
    lamps = [[8.0 + 10.0 * i, 6.0, 4.0] for i in range(10)] + [[110.0, -12.0, 4.0]]
    return Scenario(
        name="corridor",
        trajectory={"kind": "line", "start": [0.0, 0.0, 0.0], "velocity": [2.0, 0.0, 0.0]},
        duration=50.0,
        lamps=lamps,
        seed=seed,
        gyro_sigma=0.002,
        accel_sigma=0.02,
        gyro_bias_sigma=2e-5,
        accel_bias_sigma=0.1,
        bias_mode="constant",
        accel_bias0=[0.0, CORRIDOR_LATERAL_BIAS, 0.0],
        pixel_sigma=0.3,
        dropout=0.0,
        false_positives=0.0,
        detector_min_box=12.0,
        bloom=1.2,
    )


def blackout_scenario(seed=0, start=15.0, length=20.0):
    """The default course with a detection blackout in the middle."""
    sc = default_scenario(seed)
    sc.name = "blackout"
    sc.duration = 45.0
    sc.blackouts = [[start, start + length]]
    return sc
