"""Benchmark of the nightrider localizer, end to end and per module.

    python3 benchmarks/run.py --workload mc-default --seed 0 --seconds 10 --trace 0

Runs one workload (mc-default, ring-lap or blackout) in this process
against the package under ``src/`` of the checkout that holds this
file.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See README.md in this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# numpy, nightrider and the modules that import them load inside the
# functions that need them, so that a set-up probe times their import.
from hooks import Hooks

ROOT = Path(__file__).resolve().parent.parent
MIN_FRAMES = 1000  # frame cycles per run at least, for the frame percentiles
SETUP_PROBES = 3
CYCLE_WINDOW = 5  # frame cycles per rolling median of propagate time
UPDATE_WINDOW = 51  # camera updates per rolling median, for recoveries
RECOVERY_UPDATES = 100  # camera updates that mark a recovery cycle
FASTEST_PCT = 0.1  # percentile of single call times taken as the host's fastest


def load_package():
    """Import nightrider from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import nightrider

    if Path(nightrider.__file__).resolve().parent != src / "nightrider":
        raise ImportError(f"nightrider imported from {nightrider.__file__}, not {src}")


def make_workload(name, seed):
    import workloads

    return workloads.WORKLOADS[name](seed, ROOT)


def probe_setup(name, seed):
    """Seconds to import nightrider and build the workload's inputs."""
    t0 = perf_counter()
    load_package()
    make_workload(name, seed).setup()
    return perf_counter() - t0


def setup_seconds(name, seed):
    """Median of SETUP_PROBES fresh processes, each timing its own set-up."""
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, __file__, "--probe-setup", "--workload", name,
             "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=50, check=True,
        )
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


class Tally:
    """Operations attempted and failed, and run-level check failures."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems = []

    def add_round(self, wl, recs):
        try:
            op_fails, round_fails = wl.check_round(recs)
        except Exception:
            traceback.print_exc()
            op_fails, round_fails = [["check raised"]] * wl.ops_per_round, []
        self.attempted += len(op_fails)
        for fails in op_fails:
            if fails:
                self.failed += 1
                print(f"{wl.name}: operation failed: {'; '.join(fails)}", file=sys.stderr)
        self.problem(round_fails)

    def problem(self, fails):
        for f in fails:
            print(f"check failed: {f}", file=sys.stderr)
        self.problems += fails


def round_digest(recs):
    from checks import result_digest

    return [result_digest(r.result) if r.result is not None else None for r in recs]


def release(recs):
    """Reduce checked runs to counts and frame stamps.

    Dropping their outputs keeps peak memory independent of how many
    rounds a run makes.
    """
    from checks import association_counts
    from workloads import recovery_candidates

    for rec in recs:
        if rec.frames is not None:
            rec.pairs, rec.hits = association_counts(rec)
        rec.candidates = sum(recovery_candidates(a, k) for a, k, _ in rec.recoveries)
        rec.result = rec.frames = None
        rec.associations, rec.recoveries = [], []


def run_rounds(wl, hooks, seconds, tally, min_frames=0):
    """Whole rounds until their wall time reaches `seconds` and they
    held `min_frames` frame cycles; checks run between rounds, untimed.

    Returns the (drive s, start, end) of every timed call, the wall time
    of each round and the result digests of the first round.  Every later
    round must reproduce them.
    """
    timed, round_walls, first = [], [], None
    while True:
        n0 = len(hooks.runs)
        t0 = perf_counter()
        calls = wl.run_round()
        round_walls.append(perf_counter() - t0)
        timed += calls
        recs = hooks.runs[n0:]
        tally.add_round(wl, recs)
        digest = round_digest(recs)
        if first is None:
            first = digest
        elif digest != first:
            tally.problem(["a repeated round computed a different result"])
        release(recs)
        cycles = sum(max(len(r.stamps) - 1, 0) for r in hooks.runs)
        if sum(round_walls) >= seconds and cycles >= min_frames:
            return timed, round_walls, first


def slowdown(times, window, fastest):
    """Rolling median of fixed-work call times over the fastest call."""
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    padded = np.pad(times, window // 2, mode="edge")
    return np.median(sliding_window_view(padded, window), axis=1) / fastest


def at_fastest_host(runs, calls):
    """Frame cycle times and call throughputs rescaled to the fastest
    host speed seen in the run.

    This shared host changes speed by up to about 2x, in spells from
    under a second to minutes, so raw wall times of one run depend on
    how much of it fell in slow spells.  Calls that do fixed work track
    the host's speed: every propagate call does the same fixed-size
    arithmetic, and a camera update's work is fixed by its number of
    matched lights.  A cycle's slowdown is the rolling median, over
    CYCLE_WINDOW cycles, of its mean propagate call time, over the
    FASTEST_PCT percentile of single propagate calls in the run.  The
    host's fast spells are often shorter than a cycle, so single calls
    find the fast speed where cycle means may not; the short window
    follows host stalls of a few cycles and passes over a one-cycle
    pause.  A cycle that makes more than RECOVERY_UPDATES camera updates
    (a recovery, which runs no propagate for seconds) takes instead the
    median slowdown of those updates, each a rolling median over
    UPDATE_WINDOW updates with as many matched lights, over the
    FASTEST_PCT percentile of such updates.  Each cycle is divided by
    its slowdown; a call's wall time is scaled like the cycles inside
    it.  A change that makes propagate or the camera update faster or
    slower scales every sample alike and cancels out of the ratio; its
    saving still shows in the cycle times.
    """
    import numpy as np

    runs = [r for r in runs if len(r.stamps) > 1]
    if not runs:
        raise RuntimeError("no frame cycles were stamped: propagate was not called")
    starts = np.concatenate([r.stamps[:-1] for r in runs])
    cycles = np.concatenate([np.diff(r.stamps) for r in runs])
    prop = np.concatenate([r.propagate_s[: len(r.stamps) - 1] for r in runs])
    calls_s = np.concatenate([np.frombuffer(r.propagate_calls) for r in runs])
    steps = np.array([r.frame_step for r in runs for _ in r.stamps[:-1]])
    slow = slowdown(prop / steps, CYCLE_WINDOW, np.percentile(calls_s, FASTEST_PCT))

    start, took, pairs = (
        np.concatenate([np.frombuffer(getattr(r, f"update_{a}"), dtype=d) for r in runs])
        for a, d in (("start", float), ("s", float), ("pairs", np.intc))
    )
    cycle = np.searchsorted(starts, start, side="right") - 1
    inside = (cycle >= 0) & (start < starts[cycle] + cycles[cycle])
    update_slow = np.full(len(start), np.nan)
    for n in np.unique(pairs):
        same = pairs == n
        if same.sum() >= UPDATE_WINDOW:
            ref = np.percentile(took[same], FASTEST_PCT)
            update_slow[same] = slowdown(took[same], UPDATE_WINDOW, ref)
    counts = np.bincount(cycle[inside], minlength=len(cycles))
    for i in np.flatnonzero(counts > RECOVERY_UPDATES):
        slow[i] = np.nanmedian(update_slow[inside & (cycle == i)])

    fastest = cycles / slow
    rates = []
    for drive, t0, t1 in calls:
        timed = (starts >= t0) & (starts < t1)
        rates.append(drive * cycles[timed].sum() / ((t1 - t0) * fastest[timed].sum()))
    print(
        f"host slowdown: median {np.median(slow):.3f}, max {slow.max():.3f}, "
        f"fastest propagate call {1e6 * np.percentile(calls_s, FASTEST_PCT):.4g} us; "
        f"raw frame p50 {1e3 * np.median(cycles):.4g} ms, "
        f"raw sensor_s_per_s {statistics.median(d / (t1 - t0) for d, t0, t1 in calls):.4g}",
        file=sys.stderr,
    )
    return fastest, rates


def end_to_end(wl, args, tally):
    import numpy as np

    with Hooks() as hooks:
        calls, _, _ = run_rounds(wl, hooks, args.seconds, tally, MIN_FRAMES)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        frames, rates = at_fastest_host(hooks.runs, calls)
        tally.problem(wl.check_once(hooks))
    return {
        "setup_s": (setup_seconds(wl.name, args.seed), "s"),
        "sensor_s_per_s": (statistics.median(rates), "s/s"),
        "frame_p50_ms": (1e3 * float(np.percentile(frames, 50)), "ms"),
        "frame_p90_ms": (1e3 * float(np.percentile(frames, 90)), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(wl, args, tally):
    """One untraced round, then traced rounds for `seconds`.

    The traced rounds must compute exactly what the untraced one did.
    Counts and totals are per round.
    """
    with Hooks() as plain:
        _, (untraced_wall,), untraced = run_rounds(wl, plain, 0.0, tally)
    with Hooks(timed=True) as hooks:
        _, traced_walls, traced = run_rounds(wl, hooks, args.seconds, tally)
    if traced != untraced:
        tally.problem(["the traced run computed a different result than the untraced run"])

    rounds = len(traced_walls)
    span = hooks.spans
    runs = hooks.runs
    pairs = sum(r.pairs for r in runs)
    hits = sum(r.hits for r in runs)
    candidates = sum(r.candidates for r in runs)
    recovery_s = span["recovery.attempt_recovery"].total_s

    def us(name):
        return span[name].us_per_call, "us"

    def per_round(value, unit):
        return value / rounds, unit

    return {
        "inekf.propagate.us_per_call": us("inekf.propagate"),
        "inekf.propagate.calls": per_round(span["inekf.propagate"].calls, "count"),
        "inekf.invariant_update.us_per_call": us("inekf.invariant_update"),
        "inekf.invariant_update.calls": per_round(span["inekf.invariant_update"].calls, "count"),
        "inekf.invariant_update.rejected": per_round(span["inekf.invariant_update"].raised, "count"),
        "camera.apply_camera_update.us_per_call": us("camera.apply_camera_update"),
        "camera.apply_camera_update.calls": per_round(span["camera.apply_camera_update"].calls, "count"),
        "odometry.apply_odom_update.us_per_call": us("odometry.apply_odom_update"),
        "association.associate.us_per_call": us("association.associate"),
        "association.score_matrix.us_per_call": us("association.score_matrix"),
        "association.hungarian.us_per_call": us("association.hungarian"),
        "association.pairs": per_round(pairs, "count"),
        "association.precision": (hits / pairs if pairs else 0.0, "ratio"),
        "extension.extend_matches.us_per_call": us("extension.extend_matches"),
        "extension.matches": per_round(sum(r.extended for r in runs), "count"),
        "extension.update_degeneracy.us_per_call": us("extension.update_degeneracy"),
        "sim.frame_boxes.us_per_call": us("sim.frame_boxes"),
        "recovery.attempt_recovery.s": per_round(recovery_s, "s"),
        "recovery.candidates": per_round(candidates, "count"),
        "recovery.us_per_candidate": (1e6 * recovery_s / candidates if candidates else 0.0, "us"),
        "sim.simulate.s": per_round(span["sim.simulate"].total_s, "s"),
        "io.write.s": per_round(span["io.write"].total_s, "s"),
        "pipeline.self_s": per_round(span["pipeline.run_pipeline"].self_s, "s"),
        "trace.overhead_pct": (
            100.0 * (statistics.median(traced_walls) / untraced_wall - 1.0), "%"
        ),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["mc-default", "ring-lap", "blackout"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.probe_setup:
        print(probe_setup(args.workload, args.seed))
        return 0

    load_package()
    wl = make_workload(args.workload, args.seed)
    wl.setup()
    tally = Tally()
    metrics = (per_layer if args.trace else end_to_end)(wl, args, tally)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} operations: {tally.attempted} attempted, {tally.failed} failed")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
