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

from dataclasses import dataclass, field, fields

import numpy as np

from .association import MatchSet, ScoreParams, associate
from .camera import CamExtrinsics, apply_camera_update, camera_point, project
from .extension import (
    DegenState,
    box_contains,
    degeneration_match,
    extend_matches,
    offline_candidates,
    update_degeneracy,
)
from .inekf import FilterState, NoiseConfig, UpdateRejected, propagate
from .lie import ExtendedPose, dot_many, right_invariant_error_many, se23_exp
from .odometry import OdomExtrinsics, apply_odom_update, transform_odom
from .recovery import RecoveryParams, attempt_recovery, is_lost
from .sim import Scenario, compute_ate, make_map, path_length, simulate_streams


@dataclass
class PipelineConfig:
    use_odom: bool = True
    use_vision: bool = True
    use_extension: bool = True
    use_degeneration: bool = True
    use_recovery: bool = True
    score: ScoreParams = field(default_factory=ScoreParams)
    recovery: RecoveryParams = field(default_factory=RecoveryParams)
    cam_ext: CamExtrinsics = field(default_factory=CamExtrinsics)
    odom_ext: OdomExtrinsics = None  # defaults to the scenario's odometer noise
    extension_range: float = 80.0
    # Extended and degeneration matches measure segmentation-box centers,
    # which quantize to whole pixels and carry bloom asymmetry; their
    # pixel sigma is scaled up to keep the filter consistent.
    extension_sigma_scale: float = 2.0
    rect_w: float = 30.0
    rect_h: float = 300.0
    degen_horizon: float = 10.0
    degen_th_line: float = 1.5
    # A detection whose row sums above one forfeits its no-match option,
    # so the assignment can pin a stray detection onto a cluster at a
    # vanishing score; such pairs are dropped before the update.
    min_match_score: float = 1e-3
    perturb_init: bool = False
    # 3-vector blocks: rotation, velocity, position, gyro bias, accel bias
    init_sigmas: tuple = (0.02, 0.05, 0.2, 1e-3, 5e-3)


def initial_covariance(config):
    return np.diag(np.repeat(np.square(config.init_sigmas), 3))


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


def _recovery_candidates(smap, state, config, intr):
    """Clusters the camera could plausibly see from the current estimate."""
    out = []
    for c in smap.clusters:
        if np.linalg.norm(c.center - state.pose.pos) > config.score.max_range:
            continue
        if camera_point(c.center, state.pose, config.cam_ext)[2] < 1.0:
            continue
        pix = project(c.center, state.pose, config.cam_ext, intr)
        if pix is None or not intr.contains(pix, margin=-50.0):
            continue
        out.append(c)
    return out


def run_pipeline(scenario, smap=None, config=None, init_state=None, init_P=None):
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
    odom_ext = config.odom_ext
    if odom_ext is None:
        odom_ext = OdomExtrinsics(cov=np.eye(3) * scenario.odom_sigma**2)
    dt = 1.0 / scenario.imu_rate
    gyro_cov = np.eye(3) * scenario.gyro_sigma**2 / dt

    P = np.array(init_P, dtype=float) if init_P is not None else initial_covariance(config)
    if init_state is not None:
        state = init_state.copy()
    else:
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
    degen = DegenState(horizon=config.degen_horizon, th_line=config.degen_th_line)
    last_match_t = 0.0
    events = []
    frame_matches = []
    log = EstimateLog.empty(len(frames) + 1)
    log.record(0, 0.0, state, P)
    oi = fi = 0
    # extended and degeneration matches measure segmentation boxes
    box_sigma = config.extension_sigma_scale * scenario.pixel_sigma

    def camera_stage(ms, sigma, kind):
        """Camera update on ms's positive pairs; how many were applied.

        A rejected update applies none and is logged under kind.
        """
        nonlocal state, P
        n = ms.positive_count()
        if n:
            try:
                state, P = apply_camera_update(
                    state, P, ms, lookup, config.cam_ext, intr, sigma
                )
            except UpdateRejected:
                events.append((frame.t, "update_rejected", kind))
                return 0
            matched_pairs.extend(
                (cid, lookup[cid].center) for _, cid in ms.positive_pairs()
            )
        return n

    for k, s in enumerate(imu):
        state, P = propagate(state, P, s, dt, noise)
        kk = k + 1

        if config.use_odom and kk % step_odom == 0 and oi < len(odom):
            sample = odom[oi]
            oi += 1
            v_b, cov_b = transform_odom(
                sample, odom_ext, s.gyro, state.bias_gyro, gyro_cov, P[9:12, 9:12]
            )
            try:
                state, P = apply_odom_update(state, P, v_b, cov_b)
            except UpdateRejected:
                events.append((state.t, "update_rejected", "odom"))

        if kk % step_cam != 0 or fi >= len(frames):
            continue
        frame = frames[fi]
        fi += 1
        n_ass = n_ext = n_deg = 0
        matched_pairs = []  # (cluster id, world center) seen this frame

        if config.use_vision and not frame.blackout:
            lost = config.use_recovery and is_lost(
                state.t - last_match_t, config.recovery
            )
            if lost and frame.detections:
                cands = _recovery_candidates(smap, state, config, intr)
                found = attempt_recovery(
                    frame.detections,
                    cands,
                    state,
                    P,
                    config.recovery,
                    config.cam_ext,
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
                    ms = associate(
                        frame.detections,
                        smap.clusters,
                        state,
                        P,
                        config.score,
                        config.cam_ext,
                        intr,
                    )
                    ms = MatchSet(
                        ms.detections,
                        [
                            cid if s >= config.min_match_score else None
                            for cid, s in zip(ms.cluster_ids, ms.scores)
                        ],
                        ms.scores,
                    )
                    n_ass = camera_stage(ms, scenario.pixel_sigma, "camera")
                matched_ids = {cid for cid, _ in matched_pairs}

                run_degen = config.use_degeneration and degen.degenerate
                if config.use_extension or run_degen:
                    boxes = frame.boxes
                    taken = [
                        project(lookup[cid].center, state.pose, config.cam_ext, intr)
                        for cid in matched_ids
                    ]
                    free = [
                        b
                        for b in boxes
                        if not any(
                            px is not None and box_contains(b, px) for px in taken
                        )
                    ]
                else:
                    free = []

                if config.use_extension and free:
                    unmatched = [
                        c for c in smap.clusters if c.id not in matched_ids
                    ]
                    ems = extend_matches(
                        free,
                        unmatched,
                        state,
                        config.cam_ext,
                        intr,
                        config.extension_range,
                    )
                    n_ext = camera_stage(ems, box_sigma, "extension")
                    if n_ext:
                        used = {id(b) for b in ems.detections}
                        free = [b for b in free if id(b) not in used]
                        matched_ids.update(ems.matched_ids())

                if run_degen and free:
                    unmatched = [
                        c
                        for c in smap.clusters
                        if c.id not in matched_ids
                        and np.linalg.norm(c.center - state.pose.pos)
                        <= config.extension_range
                    ]
                    cands = offline_candidates(unmatched, degen)
                    dms = degeneration_match(
                        free,
                        cands,
                        state,
                        config.cam_ext,
                        intr,
                        config.rect_w,
                        config.rect_h,
                    )
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


def monte_carlo(scenario, runs, config=None):
    """Repeated runs over re-seeded copies of the scenario.

    Initial states are drawn from the filter's initial covariance so the
    NEES is meaningful from the first frame.
    """
    if config is None:
        config = PipelineConfig(perturb_init=True)
    base = scenario.to_dict()
    mean_nees = []
    finals = []
    for i in range(runs):
        sc = Scenario.from_dict({**base, "seed": int(base["seed"]) + i})
        result = run_pipeline(sc, config=config)
        mean_nees.append(float(result.nees.mean()))
        finals.append(float(result.trans_errors[-1]))
    return MonteCarloResult(np.array(mean_nees), np.array(finals))
