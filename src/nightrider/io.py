"""File formats: trajectory CSV and JSON lines.

Trajectory rotations are stored as unit quaternions.  The conversions
follow scipy's Rotation.from_matrix(...).as_quat() and
from_quat(...).as_matrix() operation for operation, so the files read
and write the same bytes without loading scipy.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .lie import Trajectory

TRAJECTORY_HEADER = "t,x,y,z,qw,qx,qy,qz"


def write_csv(path, header, *columns):
    """CSV of a header line and one line per row of the columns (1-D
    arrays or 2-D blocks of columns) stacked side by side.

    Floats use repr-shortest formatting so repeated runs with identical
    inputs produce byte-identical files.
    """
    rows = np.column_stack(columns).tolist() if columns else []
    lines = [header] + [",".join(map(repr, row)) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def matrix_to_quat(rot):
    """(n, 4) scalar-last unit quaternions of (n, 3, 3) rotation matrices.

    Markley's method, as scipy's from_matrix: the largest of the three
    diagonal entries and the trace picks the best-conditioned of four
    formulas.  Unlike scipy, which first re-orthogonalizes by SVD a matrix
    with an off-diagonal |R R' - I| above 1e-12, this converts each matrix
    as given.
    """
    rot = np.asarray(rot, dtype=float)
    trace = rot[:, 0, 0] + rot[:, 1, 1] + rot[:, 2, 2]
    decision = np.stack([rot[:, 0, 0], rot[:, 1, 1], rot[:, 2, 2], trace], axis=1)
    choice = decision.argmax(axis=1)
    quat = np.empty((len(rot), 4))
    # a diagonal entry is largest: build from column i of the matrix
    r = np.flatnonzero(choice < 3)
    i = choice[r]
    j, k = (i + 1) % 3, (i + 2) % 3
    quat[r, i] = 1 - trace[r] + 2 * rot[r, i, i]
    quat[r, j] = rot[r, j, i] + rot[r, i, j]
    quat[r, k] = rot[r, k, i] + rot[r, i, k]
    quat[r, 3] = rot[r, k, j] - rot[r, j, k]
    # the trace is largest
    r = np.flatnonzero(choice == 3)
    quat[r, 0] = rot[r, 2, 1] - rot[r, 1, 2]
    quat[r, 1] = rot[r, 0, 2] - rot[r, 2, 0]
    quat[r, 2] = rot[r, 1, 0] - rot[r, 0, 1]
    quat[r, 3] = 1 + trace[r]
    return quat / _quat_norm(quat)[:, None]


def quat_to_matrix(quat):
    """(n, 3, 3) rotation matrices of (n, 4) scalar-last quaternions,
    normalized first, by scipy's as_matrix product formula."""
    quat = np.asarray(quat, dtype=float)
    x, y, z, w = (quat / _quat_norm(quat)[:, None]).T
    x2, y2, z2, w2 = x * x, y * y, z * z, w * w
    xy, zw, xz, yw, yz, xw = x * y, z * w, x * z, y * w, y * z, x * w
    return np.stack(
        [
            x2 - y2 - z2 + w2, 2 * (xy - zw), 2 * (xz + yw),
            2 * (xy + zw), -x2 + y2 - z2 + w2, 2 * (yz - xw),
            2 * (xz - yw), 2 * (yz + xw), -x2 - y2 + z2 + w2,
        ],
        axis=1,
    ).reshape(-1, 3, 3)


def _quat_norm(quat):
    x, y, z, w = quat.T
    return np.sqrt(x * x + y * y + z * z + w * w)


def write_trajectory(path, traj):
    """CSV of a Trajectory with rows t,x,y,z,qw,qx,qy,qz (scalar-first
    quaternions), written by write_csv."""
    qx, qy, qz, qw = matrix_to_quat(traj.rot).T
    write_csv(path, TRAJECTORY_HEADER, traj.t, traj.pos, qw, qx, qy, qz)


def read_trajectory(path):
    """Inverse of write_trajectory: a Trajectory with zero velocities.

    Raises ValueError, naming the file and line, on a row without exactly
    eight fields, a non-finite value, a zero-norm quaternion, or a time that
    does not increase.
    """
    lines = Path(path).read_text().strip().splitlines()
    if not lines or lines[0] != TRAJECTORY_HEADER:
        raise ValueError(f"{path}: missing trajectory header")
    width = len(TRAJECTORY_HEADER.split(","))
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        where = f"{path}, line {lineno}"
        fields = line.split(",")
        if len(fields) != width:
            raise ValueError(f"{where}: {len(fields)} fields, expected {width}")
        try:
            row = [float(v) for v in fields]
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if not all(map(math.isfinite, row)):
            raise ValueError(f"{where}: non-finite value")
        if sum(q * q for q in row[4:]) == 0.0:
            raise ValueError(f"{where}: zero-norm quaternion")
        if rows and row[0] <= rows[-1][0]:
            raise ValueError(f"{where}: time {row[0]!r} does not increase")
        rows.append(row)
    data = np.array(rows, dtype=float).reshape(-1, width)
    rot = quat_to_matrix(data[:, [5, 6, 7, 4]])  # qx, qy, qz, qw
    pos = data[:, 1:4]
    return Trajectory(data[:, 0], rot, np.zeros_like(pos), pos)


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
