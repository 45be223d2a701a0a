"""End-to-end localization runs on simulated night drives.

run_pipeline wires the whole stack together: IMU propagation at full
rate, odometer updates, detector association, segmentation-driven match
extension, degeneration handling along lamp corridors, and combinatorial
recovery after long match gaps.  The filter loop sees only the simulated
sensor streams, each camera frame with its segmentation boxes, and
records every frame's estimate and covariance.  Ground truth is used
only by the simulation and by the scoring after the loop, which computes
NEES and translation errors for all frames in one batched pass.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .association import MAX_RANGE, MatchSet, associate
from .camera import apply_camera_update, camera_point, project_many
from .extension import (
    DegenState,
    boxes_containing,
    degeneration_match,
    extend_matches,
    offline_candidates,
    update_degeneracy,
    within_range,
)
from .inekf import FilterState, NoiseConfig, UpdateRejected, propagate_window
from .lie import ExtendedPose, dot_many, right_invariant_error_many, se23_exp
from .odometry import apply_odom_update
from .recovery import RecoveryParams, attempt_recovery, is_lost
from .sim import (
    Scenario,
    compute_ate,
    make_map,
    path_length,
    simulate_streams,
)

# recovery runs with RecoveryParams' defaults, which the benchmark reads
_RECOVERY = RecoveryParams()
# Extended and degeneration matches measure segmentation-box centers,
# which quantize to whole pixels and carry bloom asymmetry; their pixel
# sigma is scaled up to keep the filter consistent.
EXTENSION_SIGMA_SCALE = 2.0
# A detection whose row sums above one forfeits its no-match option, so
# the assignment can pin a stray detection onto a cluster at a vanishing
# score; such pairs are dropped before the update.
MIN_MATCH_SCORE = 1e-3
# 3-vector blocks: rotation, velocity, position, gyro bias, accel bias
INIT_SIGMAS = (0.02, 0.05, 0.2, 1e-3, 5e-3)


@dataclass
class PipelineConfig:
    """Stage switches, the extension range (m), and whether to perturb
    the initial state; every other setting is a named constant here or
    in the layer that uses it."""

    use_odom: bool = True
    use_vision: bool = True
    use_extension: bool = True
    use_degeneration: bool = True
    use_recovery: bool = True
    extension_range: float = 80.0
    perturb_init: bool = False


def initial_covariance():
    return np.diag(np.repeat(np.square(INIT_SIGMAS), 3))


@dataclass
class RunResult:
    scenario_name: str
    times: np.ndarray
    est_poses: list
    truth_poses: list
    nees: np.ndarray
    trans_errors: np.ndarray
    events: list  # (t, kind, detail)
    frame_matches: list  # (t, detections, associated, extended, degen-matched)
    final_state: FilterState
    final_P: np.ndarray
    path_length: float

    def metrics(self):
        ate_trans, ate_rot = compute_ate(
            self.times, self.est_poses, self.times, self.truth_poses
        )
        return {
            "scenario": self.scenario_name,
            "duration": float(self.times[-1]),
            "path_length": self.path_length,
            "ate_trans": ate_trans,
            "ate_rot_deg": ate_rot,
            "final_trans_err": float(self.trans_errors[-1]),
            "max_trans_err": float(self.trans_errors.max()),
            "mean_nees": float(self.nees.mean()),
            "frames": int(len(self.times) - 1),
            "recoveries": sum(1 for e in self.events if e[1] == "recovered"),
            "rejected_updates": sum(
                1 for e in self.events if e[1] == "update_rejected"
            ),
        }


@dataclass
class EstimateLog:
    """Per-frame filter output, in arrays preallocated for a whole run."""

    t: np.ndarray
    rot: np.ndarray  # (n, 3, 3)
    vel: np.ndarray  # (n, 3)
    pos: np.ndarray
    bias_gyro: np.ndarray
    bias_accel: np.ndarray
    P: np.ndarray  # (n, 15, 15)

    @classmethod
    def empty(cls, n):
        return cls(
            np.empty(n),
            np.empty((n, 3, 3)),
            *(np.empty((n, 3)) for _ in range(4)),
            np.empty((n, 15, 15)),
        )

    def record(self, i, t, state, P):
        self.t[i] = t
        self.rot[i] = state.pose.rot
        self.vel[i] = state.pose.vel
        self.pos[i] = state.pose.pos
        self.bias_gyro[i] = state.bias_gyro
        self.bias_accel[i] = state.bias_accel
        self.P[i] = P

    def head(self, n):
        """The first n rows, as views."""
        return EstimateLog(*(getattr(self, f.name)[:n] for f in fields(self)))

    def poses(self):
        """One ExtendedPose per row, viewing the arrays."""
        return [ExtendedPose(*row) for row in zip(self.rot, self.vel, self.pos)]


def score_estimates(log, truth, bias_gyro, bias_accel):
    """(NEES, translation error) of every logged estimate.

    truth is a Trajectory and bias_gyro, bias_accel the true biases, one
    row per log row.  The NEES uses the 15-dim error: the right-invariant
    pose error, then the bias errors, weighted by the logged covariance.
    """
    err = np.concatenate(
        [
            right_invariant_error_many(
                (log.rot, log.vel, log.pos), (truth.rot, truth.vel, truth.pos)
            ),
            log.bias_gyro - bias_gyro,
            log.bias_accel - bias_accel,
        ],
        axis=1,
    )
    nees = dot_many(err, np.linalg.solve(log.P, err[:, :, None])[:, :, 0])
    d = log.pos - truth.pos
    return nees, np.sqrt(dot_many(d, d))


def _recovery_candidates(smap, pose, intr):
    """Clusters the camera could plausibly see from the current estimate."""
    near = within_range(smap.clusters, pose.pos, MAX_RANGE)
    centers = np.reshape([c.center for c in near], (-1, 3))
    depth = camera_point(centers, pose)[:, 2]
    pix = project_many(centers, pose, intr)
    seen = (depth >= 1.0) & intr.contains(pix, margin=-50.0)
    return [c for c, keep in zip(near, seen) if keep]


def run_pipeline(scenario, smap=None, config=None):
    """Simulate the scenario and run the full filter over its sensors.

    The sensors come from simulate_streams, whose per-sensor child seeds
    of the scenario seed make a (scenario, config) pair reproduce
    bit-identical results run to run.  The run is scored against the
    truth after the filter loop.
    """
    config = config if config is not None else PipelineConfig()
    smap = smap if smap is not None else make_map(scenario)
    streams = simulate_streams(scenario, smap)
    truth, imu, odom, frames = streams.truth, streams.imu, streams.odom, streams.frames
    bias_g, bias_a = streams.bias_gyro, streams.bias_accel
    intr = scenario.intrinsics()
    lookup = smap.by_id()
    noise = NoiseConfig.from_sigmas(
        scenario.gyro_sigma,
        scenario.accel_sigma,
        scenario.gyro_bias_sigma,
        scenario.accel_bias_sigma,
    )
    # the simulated odometer measures body-frame velocity (sim.simulate_odom)
    odom_cov = np.eye(3) * scenario.odom_sigma**2
    dt = 1.0 / scenario.imu_rate

    P = initial_covariance()
    pose0 = truth[0].pose.copy()
    bg0, ba0 = np.zeros(3), np.zeros(3)
    if config.perturb_init:
        delta = np.sqrt(np.diag(P)) * streams.rng_init.standard_normal(15)
        pose0 = se23_exp(delta[:9]) @ pose0
        bg0 = bias_g[0] + delta[9:12]
        ba0 = bias_a[0] + delta[12:15]
    state = FilterState(pose0, bg0, ba0, 0.0)

    step_odom = int(round(scenario.imu_rate / scenario.odom_rate))
    step_cam = int(round(scenario.imu_rate / scenario.cam_rate))
    degen = DegenState()
    last_match_t = 0.0
    events = []
    frame_matches = []
    log = EstimateLog.empty(len(frames) + 1)
    log.record(0, 0.0, state, P)
    oi = fi = 0
    # extended and degeneration matches measure segmentation boxes
    box_sigma = EXTENSION_SIGMA_SCALE * scenario.pixel_sigma

    def camera_stage(ms, sigma, kind):
        """Camera update on ms's positive pairs; how many were applied.

        A rejected update applies none and is logged under kind.
        """
        nonlocal state, P
        n = ms.positive_count()
        if n:
            try:
                state, P = apply_camera_update(state, P, ms, lookup, intr, sigma)
            except UpdateRejected:
                events.append((frame.t, "update_rejected", kind))
                return 0
            matched_pairs.extend(
                (cid, lookup[cid].center) for _, cid in ms.positive_pairs()
            )
        return n

    # propagate in windows that end at each odometer or camera sample and
    # at the end of the stream; kk counts the IMU samples propagated
    n_imu = len(imu)
    ends = [
        k for k in range(1, n_imu + 1)
        if k % step_odom == 0 or k % step_cam == 0 or k == n_imu
    ]
    kk = 0
    for end in ends:
        state, P = propagate_window(state, P, imu[kk:end], dt, noise)
        kk = end

        if config.use_odom and kk % step_odom == 0 and oi < len(odom):
            sample = odom[oi]
            oi += 1
            try:
                state, P = apply_odom_update(state, P, sample.velocity, odom_cov)
            except UpdateRejected:
                events.append((state.t, "update_rejected", "odom"))

        if kk % step_cam != 0 or fi >= len(frames):
            continue
        frame = frames[fi]
        fi += 1
        n_ass = n_ext = n_deg = 0
        matched_pairs = []  # (cluster id, world center) seen this frame

        if config.use_vision and not frame.blackout:
            lost = config.use_recovery and is_lost(state.t - last_match_t, _RECOVERY)
            if lost and frame.detections:
                cands = _recovery_candidates(smap, state.pose, intr)
                found = attempt_recovery(
                    frame.detections,
                    cands,
                    state,
                    P,
                    _RECOVERY,
                    intr,
                    scenario.pixel_sigma,
                )
                if found is not None:
                    state, P, ms = found
                    n_ass = ms.positive_count()
                    matched_pairs += [
                        (cid, lookup[cid].center) for _, cid in ms.positive_pairs()
                    ]
                    events.append((frame.t, "recovered", n_ass))
                else:
                    events.append((frame.t, "recovery_failed", len(frame.detections)))
            elif not lost:
                if frame.detections:
                    ms = associate(frame.detections, smap.clusters, state, P, intr)
                    ms = MatchSet(
                        ms.detections,
                        [
                            cid if s >= MIN_MATCH_SCORE else None
                            for cid, s in zip(ms.cluster_ids, ms.scores)
                        ],
                        ms.scores,
                    )
                    n_ass = camera_stage(ms, scenario.pixel_sigma, "camera")
                matched_ids = {cid for cid, _ in matched_pairs}

                run_degen = config.use_degeneration and degen.degenerate
                if config.use_extension or run_degen:
                    taken = project_many(
                        [lookup[cid].center for cid in matched_ids], state.pose, intr
                    )
                    hit = boxes_containing(frame.boxes, taken).any(axis=0)
                    free = [b for b, h in zip(frame.boxes, hit) if not h]
                else:
                    free = []

                if config.use_extension and free:
                    unmatched = [
                        c for c in smap.clusters if c.id not in matched_ids
                    ]
                    ems = extend_matches(
                        free, unmatched, state, intr, config.extension_range
                    )
                    n_ext = camera_stage(ems, box_sigma, "extension")
                    if n_ext:
                        used = {id(b) for b in ems.detections}
                        free = [b for b in free if id(b) not in used]
                        matched_ids.update(ems.matched_ids())

                if run_degen and free:
                    unmatched = [c for c in smap.clusters if c.id not in matched_ids]
                    near = within_range(unmatched, state.pose.pos, config.extension_range)
                    cands = offline_candidates(near, degen)
                    dms = degeneration_match(free, cands, state, intr)
                    n_deg = camera_stage(dms, box_sigma, "degeneration")

        if config.use_degeneration:
            was_degenerate = degen.degenerate
            update_degeneracy(degen, matched_pairs, frame.t)
            if degen.degenerate and not was_degenerate:
                events.append((frame.t, "degeneration_entered", len(degen.window)))
            if degen.just_ended:
                events.append((frame.t, "degeneration_ended", n_deg))

        if matched_pairs:
            last_match_t = frame.t

        log.record(fi, frame.t, state, P)
        frame_matches.append((frame.t, len(frame.detections), n_ass, n_ext, n_deg))

    log = log.head(fi + 1)
    rows = step_cam * np.arange(fi + 1)  # IMU-grid index of each log row
    truth_rows = truth[rows]
    nees, trans_errors = score_estimates(log, truth_rows, bias_g[rows], bias_a[rows])
    return RunResult(
        scenario_name=scenario.name,
        times=log.t,
        est_poses=log.poses(),
        truth_poses=truth_rows.poses(),
        nees=nees,
        trans_errors=trans_errors,
        events=events,
        frame_matches=frame_matches,
        final_state=state,
        final_P=P,
        path_length=path_length(truth),
    )


@dataclass
class MonteCarloResult:
    mean_nees: np.ndarray  # one entry per run
    final_errors: np.ndarray

    @property
    def avg_nees(self):
        return float(self.mean_nees.mean())


def monte_carlo(scenario, runs, config=None, smap=None):
    """Repeated runs over re-seeded copies of the scenario.

    Initial states are drawn from the filter's initial covariance so the
    NEES is meaningful from the first frame.  Every run localizes against
    smap, or against make_map of the scenario when smap is None.
    """
    if config is None:
        config = PipelineConfig(perturb_init=True)
    base = scenario.to_dict()
    mean_nees = []
    finals = []
    for i in range(runs):
        sc = Scenario.from_dict({**base, "seed": int(base["seed"]) + i})
        result = run_pipeline(sc, smap=smap, config=config)
        mean_nees.append(float(result.nees.mean()))
        finals.append(float(result.trans_errors[-1]))
    return MonteCarloResult(np.array(mean_nees), np.array(finals))
