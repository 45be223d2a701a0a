"""End-to-end localization runs on simulated night drives.

localize is the filter loop: IMU propagation at full rate, odometer
updates, detector association, segmentation-driven match extension,
degeneration handling along lamp corridors, and combinatorial recovery
after long match gaps.  It reads only the sensor streams (each camera
frame with its segmentation boxes), the map and the scenario's sensor
settings, and records every frame's estimate and covariance.  Every
camera update goes through _camera_stage, and a frame's applied
cluster ids are kept in one ordered list.

run_pipeline simulates the streams, takes the initial state from the
truth, runs localize, and scores the log against the truth: NEES and
translation errors for all frames in one batched pass.

The loop's clock is the IMU grid: its propagation windows end at the
grid indices the streams carry for each odometer sample and frame
(odom_at, frame_at), where it applies that sample or frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .association import MAX_RANGE, MatchSet, associate
from .camera import apply_camera_update, camera_point, pinhole, project_many
from .extension import (
    ClusterTable,
    DegenState,
    boxes_containing,
    degeneration_match,
    extend_matches,
    offline_candidates,
    update_degeneracy,
    within_range,
)
from .inekf import FilterState, NoiseConfig, UpdateRejected, propagate_window
from .lie import Trajectory, dot_many, right_invariant_error_many, se23_exp
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
class EstimateLog(Trajectory):
    """Per-frame filter output, in arrays preallocated for a whole run:
    the estimated poses, the bias estimates and the covariance."""

    bias_gyro: np.ndarray  # (n, 3)
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


@dataclass
class RunResult:
    scenario_name: str
    log: EstimateLog  # the filter's output at t = 0 and at every frame
    truth: Trajectory  # the truth at the log's times
    nees: np.ndarray
    trans_errors: np.ndarray
    events: list  # (t, kind, detail)
    frame_matches: list  # (t, detections, associated, extended, degen-matched)
    final_state: FilterState
    final_P: np.ndarray
    path_length: float

    # read-only views that benchmarks/checks.py reads; every other reader
    # takes the arrays of log and truth
    times = property(lambda self: self.log.t)
    est_poses = property(lambda self: self.log.poses())
    truth_poses = property(lambda self: self.truth.poses())

    def metrics(self):
        ate_trans, ate_rot = compute_ate(self.log, self.truth)
        return {
            "scenario": self.scenario_name,
            "duration": float(self.log.t[-1]),
            "path_length": self.path_length,
            "ate_trans": ate_trans,
            "ate_rot_deg": ate_rot,
            "final_trans_err": float(self.trans_errors[-1]),
            "max_trans_err": float(self.trans_errors.max()),
            "mean_nees": float(self.nees.mean()),
            "frames": int(len(self.log) - 1),
            "recoveries": sum(1 for e in self.events if e[1] == "recovered"),
            "rejected_updates": sum(
                1 for e in self.events if e[1] == "update_rejected"
            ),
        }


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


def _recovery_candidates(table, pose, intr):
    """Clusters the camera could plausibly see from the current estimate."""
    near = np.flatnonzero(table.near(pose.pos, MAX_RANGE))
    c = camera_point(table.centers[near], pose)
    front = np.flatnonzero(c[:, 2] >= 1.0)
    seen = front[intr.contains(pinhole(c[front], intr), margin=-50.0)]
    return [table.clusters[i] for i in near[seen]]


def _camera_stage(state, P, ms, lookup, intr, sigma, kind, t, events):
    """Camera update on ms's positive pairs: (state, P, the cluster ids
    applied).  A rejected update applies none and is logged under kind."""
    ids = ms.matched_ids()
    if ids:
        try:
            state, P = apply_camera_update(state, P, ms, lookup, intr, sigma)
        except UpdateRejected:
            events.append((t, "update_rejected", kind))
            return state, P, []
    return state, P, ids


def localize(streams, smap, scenario, config, state, P):
    """Run the filter from (state, P) over the sensor streams.

    Of the streams it reads gyro, accel, odom, frames and the grid
    indices odom_at and frame_at; of the scenario only the sensor
    settings: IMU rate, camera intrinsics and noise sigmas.  Returns
    (log, events, frame_matches, state, P), the last two at the end of
    the stream.
    """
    gyro, accel, odom = streams.gyro, streams.accel, streams.odom
    frames = streams.frames
    intr = scenario.intrinsics()
    lookup = smap.by_id()
    table = ClusterTable(smap.clusters)
    noise = NoiseConfig.from_sigmas(
        scenario.gyro_sigma,
        scenario.accel_sigma,
        scenario.gyro_bias_sigma,
        scenario.accel_bias_sigma,
    )
    # the simulated odometer measures body-frame velocity (sim.simulate_odom)
    odom_cov = np.eye(3) * scenario.odom_sigma**2
    dt = 1.0 / scenario.imu_rate
    pixel_sigma = scenario.pixel_sigma
    # extended and degeneration matches measure segmentation boxes
    box_sigma = EXTENSION_SIGMA_SCALE * pixel_sigma

    degen = DegenState()
    last_match_t = 0.0
    events = []
    frame_matches = []
    log = EstimateLog.empty(len(frames) + 1)
    log.record(0, 0.0, state, P)

    # propagate in windows that end at each odometer sample and frame and at
    # the end of the stream; k, oi and fi count the IMU rows, odometer
    # samples and frames reached
    odom_at, frame_at = streams.odom_at.tolist(), streams.frame_at.tolist()
    k = oi = fi = 0
    for end in sorted({*odom_at, *frame_at, len(gyro)}):
        state, P = propagate_window(state, P, gyro[k:end], accel[k:end], dt, noise)
        k = end

        if oi < len(odom_at) and odom_at[oi] == end:
            if config.use_odom:
                try:
                    state, P = apply_odom_update(state, P, odom[oi], odom_cov)
                except UpdateRejected:
                    events.append((state.t, "update_rejected", "odom"))
            oi += 1

        if fi == len(frame_at) or frame_at[fi] != end:
            continue
        frame = frames[fi]
        t = frame.t
        fi += 1
        n_ass = n_ext = n_deg = 0
        matched = []  # cluster ids applied this frame, in update order

        if config.use_vision and not frame.blackout:
            lost = config.use_recovery and is_lost(state.t - last_match_t)
            if lost and frame.detections:
                cands = _recovery_candidates(table, state.pose, intr)
                found = attempt_recovery(
                    frame.detections, cands, state, P, _RECOVERY, intr, pixel_sigma
                )
                if found is not None:
                    state, P, ms = found
                    matched += ms.matched_ids()
                    n_ass = len(matched)
                    events.append((t, "recovered", n_ass))
                else:
                    events.append((t, "recovery_failed", len(frame.detections)))
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
                    state, P, ids = _camera_stage(
                        state, P, ms, lookup, intr, pixel_sigma, "camera", t, events
                    )
                    matched += ids
                    n_ass = len(ids)

                run_degen = config.use_degeneration and degen.degenerate
                if config.use_extension or run_degen:
                    taken = project_many(
                        [lookup[cid].center for cid in matched], state.pose, intr
                    )
                    hit = boxes_containing(frame.boxes, taken).any(axis=0)
                    free = [b for b, h in zip(frame.boxes, hit) if not h]
                else:
                    free = []

                if config.use_extension and free:
                    ems = extend_matches(
                        free, table.without(matched), state, intr, config.extension_range
                    )
                    state, P, ids = _camera_stage(
                        state, P, ems, lookup, intr, box_sigma, "extension", t, events
                    )
                    matched += ids
                    n_ext = len(ids)
                    if n_ext:
                        used = {id(b) for b in ems.detections}
                        free = [b for b in free if id(b) not in used]

                if run_degen and free:
                    unmatched = table.without(matched)
                    near = within_range(unmatched, state.pose.pos, config.extension_range)
                    cands = offline_candidates(near, degen)
                    dms = degeneration_match(free, cands, state, intr)
                    state, P, ids = _camera_stage(
                        state, P, dms, lookup, intr, box_sigma, "degeneration", t, events
                    )
                    matched += ids
                    n_deg = len(ids)

        if config.use_degeneration:
            was_degenerate = degen.degenerate
            update_degeneracy(degen, [(cid, lookup[cid].center) for cid in matched], t)
            if degen.degenerate and not was_degenerate:
                events.append((t, "degeneration_entered", len(degen.window)))
            if degen.just_ended:
                events.append((t, "degeneration_ended", n_deg))

        if matched:
            last_match_t = t

        log.record(fi, t, state, P)
        frame_matches.append((t, len(frame.detections), n_ass, n_ext, n_deg))
    return log, events, frame_matches, state, P


def run_pipeline(scenario, smap=None, config=None):
    """Simulate the scenario, localize over its sensors, score the run.

    simulate_streams' per-sensor child seeds of the scenario seed make a
    (scenario, config) pair reproduce bit-identical results run to run.
    The truth gives only the initial state (drawn about it from the
    streams' rng_init when config.perturb_init is set) and the scores.
    """
    config = config if config is not None else PipelineConfig()
    smap = smap if smap is not None else make_map(scenario)
    streams = simulate_streams(scenario, smap)
    truth, bias_g, bias_a = streams.truth, streams.bias_gyro, streams.bias_accel

    P = initial_covariance()
    pose0 = truth.pose(0).copy()
    bg0, ba0 = np.zeros(3), np.zeros(3)
    if config.perturb_init:
        delta = np.sqrt(np.diag(P)) * streams.rng_init.standard_normal(15)
        pose0 = se23_exp(delta[:9]) @ pose0
        bg0 = bias_g[0] + delta[9:12]
        ba0 = bias_a[0] + delta[12:15]
    state = FilterState(pose0, bg0, ba0, 0.0)
    log, events, frame_matches, state, P = localize(
        streams, smap, scenario, config, state, P
    )

    rows = streams.frame_rows()  # IMU-grid index of each log row
    truth_rows = truth[rows]
    nees, trans_errors = score_estimates(log, truth_rows, bias_g[rows], bias_a[rows])
    return RunResult(
        scenario_name=scenario.name,
        log=log,
        truth=truth_rows,
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
