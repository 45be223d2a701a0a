"""End-to-end acceptance gate.

Each test covers one numbered acceptance check and prints a single
[PASS]/[FAIL] line with the measured numbers (run with ``pytest -s`` to
see the lines for passing checks; on failure the same line is the
assertion message).  This is the slow suite in the repository: the
Monte-Carlo consistency check alone runs one hundred full pipelines.
"""

import itertools
import time

import numpy as np

from nightrider.association import (
    NO_MATCH_FLOOR,
    associate,
    hungarian,
    score_matrix,
)
from nightrider.camera import (
    CameraIntrinsics,
    DetectionBox,
    bearing_jacobians,
    camera_point,
)
from nightrider.cli import main as cli_main
from nightrider.inekf import FilterState
from nightrider.lie import (
    ExtendedPose,
    adjoint_se23,
    se23_exp,
    se23_hat,
    se23_log,
    se23_vee,
    so3_exp,
)
from nightrider.mapping import ClusterTable, build_map, dbscan
from nightrider.pipeline import PipelineConfig, monte_carlo, run_pipeline
from nightrider.sim import (
    blackout_scenario,
    corridor_scenario,
    default_scenario,
    ring_scenario,
)
from test_association import angle_gradients, left_fd, projection_jacobian
from test_extension import project
from test_inekf import build_error_dynamics

G = np.array([0.0, 0.0, -9.81])
INTR = CameraIntrinsics(
    fx=500.0, fy=500.0, cx=640.0, cy=360.0, width=1280, height=720
)


def _report(num, name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {num} ({name}): {detail}"
    print(line)
    assert ok, line


def _rand_state(rng):
    pose = se23_exp(
        np.concatenate([rng.normal(size=3) * 0.5, rng.normal(size=6) * 2.5])
    )
    return FilterState(pose, rng.normal(size=3) * 0.01, rng.normal(size=3) * 0.05)


def _max_rel(diff, ref, floor=1e-9):
    return float(np.abs(diff).max() / max(np.abs(ref).max(), floor))


# ----------------------------------------------------------- 1: Jacobians


def _error_flow_derivative(state, gyro, accel, err, h):
    """Central difference of d/dt [xi; zeta] for the nonlinear flow.

    Truth sits at exp(-xi) * estimate with biases (estimate - zeta); both
    are stepped by +-h with their own bias corrections and the invariant
    error is re-extracted.  Independent of propagate().
    """
    xi, zeta = err[0:9], err[9:15]

    def step(pose, bg, ba, dt):
        om = gyro - bg
        aw = pose.rot @ (accel - ba) + G
        return ExtendedPose(
            pose.rot @ so3_exp(om * dt),
            pose.vel + aw * dt,
            pose.pos + pose.vel * dt + 0.5 * aw * dt * dt,
        )

    true0 = se23_exp(-xi).compose(state.pose)
    bg_t = state.bias_gyro - zeta[0:3]
    ba_t = state.bias_accel - zeta[3:6]
    errs = []
    for dt in (h, -h):
        est = step(state.pose, state.bias_gyro, state.bias_accel, dt)
        true = step(true0, bg_t, ba_t, dt)
        errs.append(np.concatenate([se23_log(est.compose(true.inverse())), zeta]))
    return (errs[0] - errs[1]) / (2.0 * h)


def test_01_jacobian_suite():
    rng = np.random.default_rng(100)
    t0 = time.perf_counter()
    configs = 0

    # error dynamics A against the finite-differenced nonlinear flow
    worst_A = 0.0
    for _ in range(30):
        st = _rand_state(rng)
        gyro, accel = rng.normal(size=3) * 0.5, rng.normal(size=3) * 2.0
        A = build_error_dynamics(st)
        A_fd = np.zeros((15, 15))
        for k in range(15):
            e = np.zeros(15)
            e[k] = 1e-4
            A_fd[:, k] = _error_flow_derivative(st, gyro, accel, e, 1e-5) / 1e-4
        worst_A = max(worst_A, _max_rel(A_fd - A, A))
        configs += 1

    # camera measurement Jacobian against the perturbed innovation
    worst_H = 0.0
    checked = 0
    while checked < 30:
        st = _rand_state(rng)
        C = st.pose.pos + st.pose.rot @ np.array([20.0, 0.0, 4.0]) + rng.normal(size=3) * 2
        front, _, h, H, _, _ = bearing_jacobians([C], st)
        if not front[0]:
            continue
        H, h = H[0], h[0]
        H_fd = np.zeros((2, 9))
        eps = 1e-4
        for k in range(9):
            e = np.zeros(9)
            e[k] = eps
            zs = []
            for s in (eps, -eps):
                true = se23_exp(-(s / eps) * e).compose(st.pose)
                c = camera_point(C, true)
                zs.append(c[:2] / c[2] - h)
            H_fd[:, k] = -(zs[0] - zs[1]) / (2.0 * eps)
        worst_H = max(worst_H, _max_rel(H_fd - H[:, 0:9], H[:, 0:9]))
        checked += 1
        configs += 1

    # projected-center sensitivity (the reprojection covariance core) and
    # angular-residual gradients (the angle variance core), both against a
    # left perturbation se23_exp(-xi) X of the estimate, as the camera
    # Jacobian above
    worst_J = 0.0
    checked = 0
    while checked < 30:
        st = _rand_state(rng)
        C = st.pose.pos + st.pose.rot @ np.array([18.0, 0.0, 4.0]) + rng.normal(size=3)
        J = projection_jacobian(st, C, INTR)
        if J is None or project(C, st.pose, INTR) is None:
            continue
        J_fd = left_fd(lambda pose_: project(C, pose_, INTR), st.pose, 1e-6)
        worst_J = max(worst_J, _max_rel(J_fd - J[:, :9], J[:, :9]))
        checked += 1
        configs += 1

    worst_g = 0.0
    checked = 0
    while checked < 30:
        st = _rand_state(rng)
        pose = st.pose
        C = pose.pos + pose.rot @ np.array([18.0, 0.0, 4.0]) + rng.normal(size=3)
        pix_true = project(C, pose, INTR)
        if pix_true is None:
            continue
        pix = pix_true + rng.normal(size=2) * 30.0
        out = angle_gradients(st, pix, C, INTR)
        if out is None:
            continue
        _, d_pixel, grad = out

        def cos_of(pose_, pix_):
            return angle_gradients(FilterState(pose_), pix_, C, INTR)[0]

        h = 1e-6
        fd_pix = np.zeros(2)
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            fd_pix[k] = (cos_of(pose, pix + e) - cos_of(pose, pix - e)) / (2 * h)
        fd = left_fd(lambda pose_: cos_of(pose_, pix), pose, h)
        worst_g = max(
            worst_g,
            _max_rel(fd_pix - d_pixel[:2], d_pixel, floor=1e-6),
            _max_rel(fd - grad[:9], grad[:9], floor=1e-8),
        )
        checked += 1
        configs += 1

    elapsed = time.perf_counter() - t0
    worst = max(worst_A, worst_H, worst_J, worst_g)
    ok = configs >= 100 and worst < 1e-5 and elapsed < 10.0
    _report(
        1,
        "jacobians",
        ok,
        f"max FD rel err {worst:.2e} < 1e-5 over {configs} configs "
        f"(dynamics {worst_A:.1e}, camera {worst_H:.1e}, projection {worst_J:.1e}, "
        f"angle {worst_g:.1e}), {elapsed:.1f} s < 10 s",
    )


# ------------------------------------------------------------ 2: Lie group


def _expm_series(M):
    out = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, 80):
        term = term @ M / k
        out = out + term
        if np.abs(term).max() < 1e-18:
            break
    return out


def test_02_lie_group_suite():
    rng = np.random.default_rng(200)
    t0 = time.perf_counter()

    def sample_xi(scale):
        xi = rng.normal(size=9)
        # rotation part: uniform norm clear of the pi branch cut
        n = np.linalg.norm(xi[0:3])
        if n > 0:
            xi[0:3] *= rng.uniform(0.0, 2.9) / n
        xi[3:9] *= scale
        return xi

    worst_rt = 0.0
    for _ in range(10_000):
        xi = sample_xi(3.0)
        err = np.abs(se23_log(se23_exp(xi)) - xi).max()
        worst_rt = max(worst_rt, float(err))

    worst_exp = 0.0
    worst_adj = 0.0
    for _ in range(200):
        xi = sample_xi(2.0)
        X = se23_exp(xi)
        diff = X.as_matrix() - _expm_series(se23_hat(xi))
        worst_exp = max(worst_exp, float(np.abs(diff).max()))

        y = rng.normal(size=9)
        conj = X.as_matrix() @ se23_hat(y) @ X.inverse().as_matrix()
        diff = adjoint_se23(X) @ y - se23_vee(conj)
        worst_adj = max(worst_adj, float(np.abs(diff).max()))

    elapsed = time.perf_counter() - t0
    ok = worst_rt < 1e-9 and worst_exp < 1e-10 and worst_adj < 1e-10 and elapsed < 5.0
    _report(
        2,
        "lie group",
        ok,
        f"10^4 roundtrips max {worst_rt:.1e} < 1e-9, exp-vs-series {worst_exp:.1e} "
        f"< 1e-10, adjoint {worst_adj:.1e} < 1e-10, {elapsed:.1f} s < 5 s",
    )


# ----------------------------------------------------------- 3: assignment


def _best_assignment_value(S, no_match):
    """Exhaustive maximum over one-to-one detection-to-cluster maps."""
    n, m = S.shape
    total_nm = float(no_match.sum())
    best = total_nm
    for k in range(1, min(n, m) + 1):
        for rows in itertools.combinations(range(n), k):
            base = total_nm - sum(no_match[i] for i in rows)
            for cols in itertools.permutations(range(m), k):
                tot = base + sum(S[i, j] for i, j in zip(rows, cols))
                if tot > best:
                    best = tot
    return best


def _random_instance(rng):
    n = int(rng.integers(0, 7))
    m = int(rng.integers(0, 7))
    st = _rand_state(rng)
    clusters = []
    for i in range(m):
        c = st.pose.pos + st.pose.rot @ np.array(
            [rng.uniform(5.0, 55.0), rng.uniform(-10.0, 10.0), rng.uniform(2.0, 8.0)]
        )
        clusters.append(_Cluster(i, c))
    dets = []
    for _ in range(n):
        if m and rng.random() < 0.6:
            pix = project(clusters[int(rng.integers(m))].center, st.pose, INTR)
        else:
            pix = None
        if pix is None:
            pix = np.array([rng.uniform(0, 1280), rng.uniform(0, 720)])
        else:
            pix = np.asarray(pix) + rng.normal(size=2) * rng.uniform(1.0, 60.0)
        dets.append(DetectionBox(pix, rng.uniform(6.0, 20.0, size=2)))
    P = np.diag(np.repeat(rng.uniform(1e-6, 0.05, size=5) ** 2, 3))
    return dets, clusters, st, P


class _Cluster:
    def __init__(self, cid, center):
        self.id = cid
        self.center = np.asarray(center, dtype=float)
        self.points = None


def test_03_assignment_oracle_and_timing():
    rng = np.random.default_rng(300)
    t0 = time.perf_counter()

    worst = 0.0
    nontrivial = 0
    for _ in range(1000):
        dets, clusters, st, P = _random_instance(rng)
        ms = associate(dets, ClusterTable(clusters), st, P, INTR)
        realized = float(sum(ms.scores))
        if len(dets) == 0:
            assert ms.cluster_ids == [] and realized == 0.0
            continue
        S = score_matrix(dets, ClusterTable(clusters), st, P, INTR)
        no_match = np.maximum(1.0 - S.sum(axis=1), NO_MATCH_FLOOR)
        best = _best_assignment_value(S, no_match)
        worst = max(worst, abs(realized - best) / max(1.0, abs(best)))
        if any(c is not None for c in ms.cluster_ids):
            nontrivial += 1

    # the solver itself against brute force on dense random matrices
    for _ in range(200):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(n, 7))
        M = rng.normal(size=(n, m))
        cols = hungarian(M)
        got = sum(M[i, c] for i, c in enumerate(cols))
        best = max(
            sum(M[i, p[i]] for i in range(n))
            for p in itertools.permutations(range(m), n)
        )
        worst = max(worst, abs(got - best) / max(1.0, abs(best)))

    # timing at 10 detections x 20 clusters
    st = FilterState(ExtendedPose())
    P = np.diag(np.repeat(np.square([0.02, 0.05, 0.2, 1e-3, 5e-3]), 3))
    clusters = [
        _Cluster(
            i,
            [rng.uniform(10.0, 45.0), rng.uniform(-10.0, 10.0), rng.uniform(3.0, 7.0)],
        )
        for i in range(20)
    ]
    dets = [
        DetectionBox(
            np.asarray(project(clusters[i].center, st.pose, INTR))
            + rng.normal(size=2) * 5.0,
            np.array([12.0, 12.0]),
        )
        for i in range(10)
    ]
    table = ClusterTable(clusters)
    samples = []
    for _ in range(51):
        t1 = time.perf_counter()
        associate(dets, table, st, P, INTR)
        samples.append(time.perf_counter() - t1)
    median_ms = float(np.median(samples) * 1e3)

    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and nontrivial > 200 and median_ms < 5.0
    _report(
        3,
        "assignment",
        ok,
        f"1000 instances + 200 dense matrices match exhaustive (max rel gap "
        f"{worst:.1e} < 1e-9, {nontrivial} with cluster matches), 10x20 median "
        f"{median_ms:.2f} ms < 5 ms, {elapsed:.1f} s",
    )


# ---------------------------------------------- 4: Monte-Carlo consistency


def test_04_filter_consistency_monte_carlo():
    t0 = time.perf_counter()
    mc = monte_carlo(default_scenario(), 100)
    elapsed = time.perf_counter() - t0
    avg = mc.avg_nees
    worst_final = float(mc.final_errors.max())
    ok = 10.1 <= avg <= 20.9 and worst_final < 5.0 and elapsed < 300.0
    _report(
        4,
        "consistency",
        ok,
        f"100-run avg NEES {avg:.2f} in [10.1, 20.9], max final err "
        f"{worst_final:.3f} m < 5 m, {elapsed:.0f} s < 300 s",
    )


# -------------------------------------------------------- 5: ablation trend


def test_05_ring_ablation_trend():
    full = run_pipeline(ring_scenario())
    no_vision = run_pipeline(ring_scenario(), config=PipelineConfig(use_vision=False))
    no_ext = run_pipeline(ring_scenario(), config=PipelineConfig(use_extension=False))
    ate_full = full.metrics()["ate_trans"]
    ate_nv = no_vision.metrics()["ate_trans"]
    ate_ne = no_ext.metrics()["ate_trans"]
    bar = 0.005 * full.path_length
    ok = ate_full < bar and ate_nv >= 5.0 * ate_full and ate_ne > ate_full
    _report(
        5,
        "ablation",
        ok,
        f"ring ATE {ate_full:.3f} m < {bar:.2f} m (0.5% of {full.path_length:.0f} m), "
        f"no-vision {ate_nv:.3f} >= 5x, no-extension {ate_ne:.3f} > full",
    )


# ---------------------------------------------------------- 6: degeneration


def test_06_corridor_degeneration():
    sc = corridor_scenario()
    on = run_pipeline(
        sc, config=PipelineConfig(use_odom=False, extension_range=35.0)
    )
    off = run_pipeline(
        sc,
        config=PipelineConfig(
            use_odom=False, extension_range=35.0, use_degeneration=False
        ),
    )
    assert any(e[1] == "degeneration_entered" for e in on.events)

    # the corner: the first frame with the off-line lamp inside range
    lamp = np.array([110.0, -12.0, 4.0])
    in_range = np.linalg.norm(lamp - on.truth.pos, axis=1) <= 35.0
    assert in_range.any()
    corner = float(on.log.t[np.argmax(in_range)])

    def window_z_error(res):
        t = res.log.t
        rows = (corner < t) & (t <= corner + 5.0)
        return float(np.mean(np.abs(res.log.pos[rows, 2] - res.truth.pos[rows, 2])))

    z_on = window_z_error(on)
    z_off = window_z_error(off)
    ok = z_on < 0.5 * z_off
    _report(
        6,
        "degeneration",
        ok,
        f"corridor z error {z_on:.3f} m vs {z_off:.3f} m disabled in the 5 s "
        f"after the corner (t={corner:.1f}), ratio {z_on / z_off:.2f} < 0.5",
    )


# -------------------------------------------------------------- 7: recovery


def test_07_blackout_recovery():
    sc = blackout_scenario()  # detector dark over [15, 35)
    res = run_pipeline(sc)
    times, errs = res.log.t, res.trans_errors

    pre = float(errs[times < 15.0][-1])
    assert 0.0 < pre < 1.0

    recovered = [
        (float(t), int(n)) for t, kind, n in res.events if kind == "recovered"
    ]
    after = [(t, n) for t, n in recovered if t >= 35.0 and n >= 3]
    assert after, f"no recovery with >= 3 re-observed lights, events {recovered}"
    t_re, n_re = after[0]

    # the recovery frame itself plus up to three frames after it
    idx = int(np.searchsorted(times, t_re))
    window = errs[idx : idx + 4]
    best = float(window.min())
    ok = best < 2.0 * pre
    _report(
        7,
        "recovery",
        ok,
        f"pre-blackout err {pre:.3f} m, recovered at t={t_re:.1f} s with {n_re} "
        f"lights, err {best:.3f} m < {2 * pre:.3f} m within 3 frames",
    )


# ---------------------------------------------------------- 8: determinism


def test_08_deterministic_replay(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["localize", "default", "--out", str(a)]) == 0
    assert cli_main(["localize", "default", "--out", str(b)]) == 0
    ta = (a / "trajectory.csv").read_bytes()
    tb = (b / "trajectory.csv").read_bytes()
    ok = ta == tb and len(ta) > 0
    _report(
        8,
        "determinism",
        ok,
        f"two localize runs wrote byte-identical trajectories ({len(ta)} bytes)",
    )


# ------------------------------------------------------------ 9: map builder


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


def test_09_map_builder_oracle():
    rng = np.random.default_rng(900)
    t0 = time.perf_counter()

    for trial in range(100):
        dim = 2 if trial % 2 == 0 else 3
        parts = [np.empty((0, dim))]
        for _ in range(int(rng.integers(0, 6))):
            c = rng.uniform(-20, 20, size=dim)
            parts.append(c + rng.normal(scale=0.4, size=(int(rng.integers(3, 40)), dim)))
        parts.append(rng.uniform(-25, 25, size=(int(rng.integers(0, 30)), dim)))
        pts = np.concatenate(parts)[:200]
        rng.shuffle(pts)
        eps = float(rng.uniform(0.4, 2.0))
        min_pts = int(rng.integers(1, 9))
        np.testing.assert_array_equal(
            dbscan(pts, eps, min_pts), _dbscan_reference(pts, eps, min_pts)
        )

    # synthetic 20-lamp scene through the full map builder
    lamps = np.array(ring_scenario().lamps)
    clouds = [c + rng.normal(scale=0.12, size=(60, 3)) for c in lamps]
    pts = np.concatenate(clouds)
    rng.shuffle(pts)
    smap = build_map(pts, eps=1.0, min_pts=5)
    centers = smap.centers()
    worst = max(
        float(np.linalg.norm(centers - lamp, axis=1).min()) for lamp in lamps
    )
    elapsed = time.perf_counter() - t0
    ok = len(smap.clusters) == 20 and worst < 0.1
    _report(
        9,
        "map builder",
        ok,
        f"100 clouds match the quadratic reference, 20-lamp scene gives "
        f"{len(smap.clusters)} clusters within {worst:.3f} m < 0.1 m, {elapsed:.1f} s",
    )
