"""The three workloads: their inputs, one round of operations, checks.

An operation is one pipeline run.  A round is a fixed list of
operations built from the seed; a benchmark run repeats whole rounds,
so every round of a run computes exactly the same thing.  ``run_round``
returns one (drive seconds, start, end) triple per timed call, with
start and end read from ``perf_counter``.

Package functions are looked up on their module at call time, so that
the wrappers hooks.py installs are the ones called.
"""

from __future__ import annotations

import contextlib
import io
import math
import traceback
from time import perf_counter

from nightrider import cli, pipeline
from nightrider.pipeline import PipelineConfig
from nightrider.recovery import combination_count
from nightrider.sim import blackout_scenario, default_scenario, make_map, ring_scenario

import checks

RAISED = object()  # output of a call that raised


def timed_call(fn, *args, **kwargs):
    """(output or RAISED, (start, end)); a traceback goes to stderr."""
    t0 = perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception:
        out = RAISED
        traceback.print_exc()
    return out, (t0, perf_counter())


class McDefault:
    """Monte-Carlo over consecutive seeds of the figure-eight course."""

    name = "mc-default"
    # 8 x 400 frames per round; fewer runs let the average NEES leave
    # NEES_BAND on some seeds
    runs = ops_per_round = 8

    def __init__(self, seed, root):
        self.seed = seed

    def setup(self):
        # monte_carlo builds its own map per run; set-up still builds one,
        # as every workload's set-up does
        self.scenario = default_scenario(self.seed)
        self.smap = make_map(self.scenario)

    def run_round(self):
        self.mc, span = timed_call(pipeline.monte_carlo, self.scenario, self.runs)
        return [(self.runs * self.scenario.duration, *span)]

    def check_round(self, recs):
        mc = self.mc
        if mc is RAISED:
            return [["monte_carlo raised"]] * self.runs, []
        op_fails = []
        for i in range(self.runs):
            fails = []
            if not (math.isfinite(mc.mean_nees[i]) and mc.mean_nees[i] > 0.0):
                fails.append(f"mean NEES {mc.mean_nees[i]}")
            if not mc.final_errors[i] < checks.MAX_FINAL_ERR:
                fails.append(f"final error {mc.final_errors[i]:.3f} m")
            if i < len(recs):
                fails += checks.check_run(recs[i], checks.FIGURE_EIGHT)
            op_fails.append(fails)
        lo, hi = checks.NEES_BAND
        round_fails = []
        if not lo <= mc.avg_nees <= hi:
            round_fails.append(f"average NEES {mc.avg_nees:.2f} outside [{lo}, {hi}]")
        return op_fails, round_fails

    def check_once(self, hooks):
        """monte_carlo's first run must equal a separate run_pipeline."""
        res = pipeline.run_pipeline(self.scenario, config=PipelineConfig(perturb_init=True))
        fails = checks.check_run(hooks.runs[-1], checks.FIGURE_EIGHT)
        for label, alone, batched in (
            ("mean NEES", float(res.nees.mean()), self.mc.mean_nees[0]),
            ("final error", float(res.trans_errors[-1]), self.mc.final_errors[0]),
        ):
            if not abs(alone - batched) <= checks.TOL * abs(alone):
                fails.append(f"{label}: run_pipeline {alone!r} != monte_carlo {batched!r}")
        return fails


class RingLap:
    """`nightrider localize ring --write-frames`, called through cli.main."""

    name = "ring-lap"
    ops_per_round = 1

    def __init__(self, seed, root):
        self.seed = seed
        self.out = root / "benchmarks" / "out" / "ring-lap"

    def setup(self):
        # cli.main builds the scenario and map again inside each operation
        self.scenario = ring_scenario(self.seed)
        self.smap = make_map(self.scenario)

    def run_round(self):
        argv = ["localize", "ring", "--seed", str(self.seed), "--write-frames",
                "--out", str(self.out)]
        with contextlib.redirect_stdout(io.StringIO()):
            self.code, span = timed_call(cli.main, argv)
        return [(self.scenario.duration, *span)]

    def check_round(self, recs):
        if self.code is RAISED or self.code != 0:
            return [["localize did not exit with 0"]], []
        fails = checks.check_run(recs[0], checks.RING)
        fails += checks.check_localize_output(self.out, recs[0])
        return [fails], []

    def check_once(self, hooks):
        return []


class Blackout:
    """Figure-eight with the detector dark over [16.5, 36.5) s, then recovery.

    The blackout is blackout_scenario's 20 s, ending 1.5 s later than its
    default so that 8 lamps are in view when it ends instead of 7.  The
    recovery search then fills its 20,000-combination budget (19,081
    candidates) on 58 of seeds 0-59; with the default window it does on
    89 of seeds 0-99, and a dropped lamp or a failed first attempt moves
    one run's cost by a third or doubles it.
    """

    name = "blackout"
    window = (16.5, 36.5)
    ops_per_round = 3  # consecutive scenario seeds, 3 x 450 frames

    def __init__(self, seed, root):
        self.seed = seed

    def setup(self):
        t0, t1 = self.window
        self.scenarios = [
            blackout_scenario(self.seed + i, start=t0, length=t1 - t0)
            for i in range(self.ops_per_round)
        ]
        self.smap = make_map(self.scenarios[0])

    def run_round(self):
        timed = []
        self.outputs = []
        for sc in self.scenarios:
            out, span = timed_call(pipeline.run_pipeline, sc, smap=self.smap)
            self.outputs.append(out)
            timed.append((sc.duration, *span))
        return timed

    def check_round(self, recs):
        op_fails = []
        for out, rec in zip(self.outputs, recs):
            if out is RAISED:
                op_fails.append(["run_pipeline raised"])
                continue
            fails = checks.check_run(rec, checks.FIGURE_EIGHT)
            fails += checks.check_blackout(
                rec.result, self.window[1], checks.figure_eight_length(rec.result.times[-1])
            )
            op_fails.append(fails)
        return op_fails, []

    def check_once(self, hooks):
        return []


WORKLOADS = {w.name: w for w in (McDefault, RingLap, Blackout)}


def recovery_candidates(args, kwargs):
    """Combinations attempt_recovery evaluates, from its arguments.

    Mirrors its budget rule: keep at most max_detections detections,
    then drop the farthest clusters until combination_count fits.
    """
    names = ("detections", "clusters", "state", "P", "params")
    given = dict(zip(names, args), **kwargs)
    params = given["params"]
    n = min(len(given["detections"]), params.max_detections)
    m = len(given["clusters"])
    if n == 0 or m == 0:
        return 0
    while m > 1 and combination_count(n, m) > params.max_combinations:
        m -= 1
    return combination_count(n, m)
