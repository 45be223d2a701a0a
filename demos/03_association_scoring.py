"""Probabilistic detection-to-map association, step by step.

Builds a three-lamp scene, projects the lamps through the camera, turns
two of them into noisy detections plus one spurious blob, and walks
through the score matrix, the no-match floor, and the final assignment.

Run with:  python3 demos/03_association_scoring.py
"""

import numpy as np

from nightrider.association import associate, score_matrix
from nightrider.camera import CameraIntrinsics, DetectionBox, project_many
from nightrider.inekf import FilterState
from nightrider.lie import ExtendedPose
from nightrider.mapping import ClusterTable, StreetlightCluster

INTR = CameraIntrinsics(
    fx=500.0, fy=500.0, cx=640.0, cy=360.0, width=1280, height=720
)


def main():
    rng = np.random.default_rng(3)
    np.set_printoptions(precision=4, suppress=True)

    state = FilterState(ExtendedPose())
    P = np.diag(np.repeat(np.square([0.02, 0.05, 0.2, 1e-3, 5e-3]), 3))

    lamps = np.array([[20.0, -3.0, 5.0], [25.0, 4.0, 6.0], [40.0, 0.0, 5.0]])
    clusters = [
        StreetlightCluster(i, c, c + rng.normal(size=(10, 3)) * 0.1)
        for i, c in enumerate(lamps)
    ]
    table = ClusterTable(clusters)  # the map's arrays, built once per run

    pix = project_many(lamps, state.pose, INTR)
    print("predicted pixel positions of the mapped lamps:")
    for c in clusters:
        print(f"  cluster {c.id} at {c.center} -> {pix[c.id]}")

    detections = [
        DetectionBox(pix[0] + [3.0, -2.0], np.array([14.0, 14.0])),
        DetectionBox(pix[1] + [-4.0, 1.0], np.array([11.0, 11.0])),
        DetectionBox(np.array([200.0, 600.0]), np.array([9.0, 9.0])),  # stray blob
    ]

    S = score_matrix(detections, table, state, P, INTR)
    no_match = np.maximum(1.0 - S.sum(axis=1), 1e-12)
    print("\nscore matrix (rows: detections, cols: clusters):")
    print(S)
    print("no-match scores per detection:", no_match)

    ms = associate(detections, table, state, P, INTR)
    print("\nassignment:")
    for i, (cid, s) in enumerate(zip(ms.cluster_ids, ms.scores)):
        target = f"cluster {cid}" if cid is not None else "no match"
        print(f"  detection {i} -> {target}  (score {s:.4g})")

    print("\nthe stray blob lands on no-match because nothing in the map")
    print("explains it better than the leftover probability mass.")


if __name__ == "__main__":
    main()
