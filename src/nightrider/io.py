"""File formats: trajectory CSV and JSON lines."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.spatial.transform import Rotation

from .lie import ExtendedPose

TRAJECTORY_HEADER = "t,x,y,z,qw,qx,qy,qz"


def write_trajectory(path, times, poses):
    """CSV with rows t,x,y,z,qw,qx,qy,qz (scalar-first quaternions).

    Floats use repr-shortest formatting so repeated runs with identical
    inputs produce byte-identical files.
    """
    lines = [TRAJECTORY_HEADER]
    if len(poses):
        rot = np.array([p.rot for p in poses], dtype=float)
        pos = np.array([p.pos for p in poses], dtype=float)
        qx, qy, qz, qw = Rotation.from_matrix(rot).as_quat().T
        rows = np.column_stack([times, pos, qw, qx, qy, qz]).tolist()
        lines += [",".join(map(repr, row)) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def read_trajectory(path):
    """Inverse of write_trajectory: (times array, list of ExtendedPose)."""
    lines = Path(path).read_text().strip().splitlines()
    if not lines or lines[0] != TRAJECTORY_HEADER:
        raise ValueError(f"{path}: missing trajectory header")
    times = []
    poses = []
    for line in lines[1:]:
        t, x, y, z, qw, qx, qy, qz = (float(v) for v in line.split(","))
        times.append(t)
        rot = Rotation.from_quat([qx, qy, qz, qw]).as_matrix()
        poses.append(ExtendedPose(rot=rot, pos=np.array([x, y, z])))
    return np.array(times), poses


def write_jsonl(path, records):
    with open(path, "w") as f:
        for rec in records:
            f.write(json.dumps(rec, sort_keys=True) + "\n")


def read_jsonl(path):
    out = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out
