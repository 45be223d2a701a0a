from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from nightrider.io import read_jsonl, read_trajectory, write_jsonl, write_trajectory
from nightrider.lie import ExtendedPose, so3_exp


# PGM is an image format only these tests write and read.


def write_pgm(path, image):
    """Write an 8-bit grayscale image as binary PGM (P5)."""
    img = np.asarray(image)
    if img.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {img.shape}")
    data = np.clip(np.round(img), 0, 255).astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def _read_tokens(raw):
    # strip comment lines, then split remaining header tokens
    out = []
    i = 0
    while len(out) < 4 and i < len(raw):
        line, _, rest = raw[i:].partition(b"\n")
        i += len(line) + 1
        line = line.split(b"#", 1)[0]
        out.extend(line.split())
    return out, i


def read_pgm(path):
    """Read a P5 (binary) or P2 (ascii) PGM file as a uint8 array."""
    raw = Path(path).read_bytes()
    magic = raw[:2]
    if magic == b"P5":
        tokens, offset = _read_tokens(raw)
        if len(tokens) < 4:
            raise ValueError(f"{path}: truncated PGM header")
        w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
        data = np.frombuffer(raw, dtype=np.uint8, count=w * h, offset=offset)
    elif magic == b"P2":
        text = b"\n".join(l.split(b"#", 1)[0] for l in raw.splitlines())
        tokens = text.split()
        if len(tokens) < 4:
            raise ValueError(f"{path}: truncated PGM header")
        w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
        data = np.array([int(v) for v in tokens[4 : 4 + w * h]], dtype=np.int64)
    else:
        raise ValueError(f"{path}: not a PGM file")
    if data.size != w * h:
        raise ValueError(f"{path}: expected {w * h} pixels, got {data.size}")
    if maxval != 255:
        data = np.round(data.astype(float) * 255.0 / maxval)
    return data.astype(np.uint8).reshape(h, w)


def test_pgm_binary_roundtrip(tmp_path):
    rng = np.random.default_rng(110)
    img = rng.integers(0, 256, size=(48, 64), dtype=np.uint8)
    path = tmp_path / "frame.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    np.testing.assert_array_equal(back, img)
    assert back.dtype == np.uint8


def test_pgm_write_clips_floats(tmp_path):
    img = np.array([[300.0, -5.0], [127.6, 0.0]])
    path = tmp_path / "clip.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    np.testing.assert_array_equal(back, [[255, 0], [128, 0]])


def test_pgm_ascii_with_comment_and_scaling(tmp_path):
    path = tmp_path / "ascii.pgm"
    path.write_text("P2\n# a comment\n3 2\n100\n0 50 100\n100 50 0\n")
    img = read_pgm(path)
    assert img.shape == (2, 3)
    np.testing.assert_array_equal(img[0], [0, 128, 255])


def test_pgm_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P6\n1 1\n255\n\x00")
    with pytest.raises(ValueError):
        read_pgm(bad)
    short = tmp_path / "short.pgm"
    short.write_bytes(b"P5\n4 4\n255\n\x00\x00")
    with pytest.raises(ValueError):
        read_pgm(short)
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "x.pgm", np.zeros((2, 2, 3)))


def _reference_write_trajectory(path, times, poses):
    """write_trajectory one pose, and one Rotation, at a time."""
    lines = ["t,x,y,z,qw,qx,qy,qz"]
    for t, pose in zip(times, poses):
        x, y, z = pose.pos
        qx, qy, qz, qw = Rotation.from_matrix(pose.rot).as_quat()
        lines.append(",".join(repr(float(v)) for v in [t, x, y, z, qw, qx, qy, qz]))
    Path(path).write_text("\n".join(lines) + "\n")


def test_write_trajectory_equals_per_pose_writer(tmp_path):
    rng = np.random.default_rng(112)
    n = 500
    times = np.arange(n) * 0.1
    poses = [
        ExtendedPose(
            so3_exp(rng.normal(size=3) * s), rng.normal(size=3), rng.normal(size=3) * 100
        )
        for s in np.geomspace(1e-9, 3.1, n)
    ]
    # a half turn, where the quaternion's sign convention matters
    poses[7] = ExtendedPose(so3_exp([0.0, 0.0, np.pi]))
    for name, ts, ps in (
        ("many", times, poses),
        ("list", [0, 0.5, 1.25], poses[:3]),
        ("empty", [], []),
    ):
        write_trajectory(tmp_path / f"{name}.csv", ts, ps)
        _reference_write_trajectory(tmp_path / f"{name}-ref.csv", ts, ps)
        assert (tmp_path / f"{name}.csv").read_bytes() == (
            tmp_path / f"{name}-ref.csv"
        ).read_bytes()


def test_trajectory_roundtrip(tmp_path):
    rng = np.random.default_rng(111)
    times = np.arange(5) * 0.1
    poses = [
        ExtendedPose(
            so3_exp(rng.normal(size=3) * 0.7),
            rng.normal(size=3),
            rng.normal(size=3) * 10,
        )
        for _ in times
    ]
    path = tmp_path / "traj.csv"
    write_trajectory(path, times, poses)
    t_back, p_back = read_trajectory(path)
    np.testing.assert_allclose(t_back, times)
    for a, b in zip(p_back, poses):
        np.testing.assert_allclose(a.pos, b.pos, atol=1e-12)
        np.testing.assert_allclose(a.rot, b.rot, atol=1e-12)


def test_trajectory_writes_are_byte_stable(tmp_path):
    pose = ExtendedPose(so3_exp(np.array([0.1, 0.2, 0.3])), pos=np.array([1.0, 2.0, 3.0]))
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_trajectory(p1, [0.5], [pose])
    write_trajectory(p2, [0.5], [pose])
    assert p1.read_bytes() == p2.read_bytes()


def test_trajectory_header_check(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("time,x\n0,1\n")
    with pytest.raises(ValueError):
        read_trajectory(path)


def test_jsonl_roundtrip(tmp_path):
    recs = [{"t": 0.1, "event": "match", "ids": [1, 2]}, {"t": 0.2, "event": "lost"}]
    path = tmp_path / "events.jsonl"
    write_jsonl(path, recs)
    assert read_jsonl(path) == recs
