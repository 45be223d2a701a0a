"""Wrappers placed around nightrider's public functions from outside.

Nothing inside the package changes.  ``Hooks.install`` swaps each target
function for a wrapper in every loaded ``nightrider`` module that holds a
reference to it (the defining module and every ``from .x import f``
binding), and ``uninstall`` puts the originals back.

Two levels:

* always: per ``run_pipeline`` call, keep the RunResult, the simulated
  camera frames, every ``associate`` result and every ``attempt_recovery``
  call; stamp the clock at the first ``propagate`` of each camera frame
  window; and time every ``propagate`` and ``apply_camera_update`` call,
  whose fixed-size work tells how fast the host ran (run.py).  These
  hooks append to lists, so the untraced run pays about one extra
  Python call per wrapped call.
* ``timed=True``: additionally time every target as a span.  A span adds
  its duration to its parent's child time, so self time is total minus
  child time; exceptions leaving a span are counted as raised.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field
from time import perf_counter

# (module, function) -> span name; several functions may share a span.
TIMED_TARGETS = {
    ("pipeline", "run_pipeline"): "pipeline.run_pipeline",
    ("inekf", "propagate"): "inekf.propagate",
    ("inekf", "invariant_update"): "inekf.invariant_update",
    ("camera", "apply_camera_update"): "camera.apply_camera_update",
    ("odometry", "apply_odom_update"): "odometry.apply_odom_update",
    ("association", "associate"): "association.associate",
    ("association", "score_matrix"): "association.score_matrix",
    ("association", "hungarian"): "association.hungarian",
    ("extension", "extend_matches"): "extension.extend_matches",
    ("extension", "update_degeneracy"): "extension.update_degeneracy",
    ("sim", "frame_boxes"): "sim.frame_boxes",
    ("recovery", "attempt_recovery"): "recovery.attempt_recovery",
    ("sim", "generate_truth"): "sim.simulate",
    ("sim", "simulate_imu"): "sim.simulate",
    ("sim", "simulate_odom"): "sim.simulate",
    ("sim", "simulate_detections"): "sim.simulate",
    ("io", "write_trajectory"): "io.write",
    ("io", "write_jsonl"): "io.write",
}


@dataclass
class Span:
    calls: int = 0
    total_s: float = 0.0
    child_s: float = 0.0
    raised: int = 0

    @property
    def self_s(self):
        return self.total_s - self.child_s

    @property
    def us_per_call(self):
        return 1e6 * self.total_s / self.calls if self.calls else 0.0


@dataclass
class RunRecord:
    """What one run_pipeline call computed, seen from outside."""

    frame_step: int  # IMU samples per camera frame
    steps: int = 0
    stamps: list = field(default_factory=list)  # clock at each frame window
    propagate_s: list = field(default_factory=list)  # propagate time per window
    propagate_calls: array = field(default_factory=lambda: array("d"))  # each call
    # every camera update: start, seconds and matched lights, as arrays
    # because recovery makes about 19,000 of them per run
    update_start: array = field(default_factory=lambda: array("d"))
    update_s: array = field(default_factory=lambda: array("d"))
    update_pairs: array = field(default_factory=lambda: array("i"))
    frames: list = None  # simulated CameraFrames
    associations: list = field(default_factory=list)  # MatchSets
    recoveries: list = field(default_factory=list)  # (args, kwargs, result)
    extended: int = 0  # positive extend_matches pairs
    result: object = None
    # filled in by release() once the run is checked
    pairs: int = 0  # associate's assigned pairs
    hits: int = 0  # of those, pairs that agree with truth_ids
    candidates: int = 0  # recovery combinations evaluated


class Hooks:
    def __init__(self, timed=False):
        self.timed = timed
        self.spans = {}
        self.runs = []
        self._stack = []  # child time accumulated by each open span
        self._saved = []  # (module, attribute, original)

    # -- installation -------------------------------------------------

    def install(self):
        modules = [
            m for name, m in sys.modules.items()
            if name == "nightrider" or name.startswith("nightrider.")
        ]
        targets = dict.fromkeys(TIMED_TARGETS if self.timed else ())
        for key in (
            ("pipeline", "run_pipeline"),
            ("inekf", "propagate"),
            ("sim", "simulate_detections"),
            ("association", "associate"),
            ("camera", "apply_camera_update"),
            ("recovery", "attempt_recovery"),
        ):
            targets.setdefault(key)
        for mod_name, fn_name in targets:
            original = getattr(sys.modules[f"nightrider.{mod_name}"], fn_name)
            wrapper = self._wrap(mod_name, fn_name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._saved.append((m, attr, original))
                        setattr(m, attr, wrapper)
        return self

    def uninstall(self):
        for m, attr, original in reversed(self._saved):
            setattr(m, attr, original)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- wrappers -----------------------------------------------------

    def _wrap(self, mod_name, fn_name, fn):
        observe = getattr(self, f"_observe_{fn_name}", None)
        if observe is not None:
            inner = fn

            def fn(*args, **kwargs):
                return observe(inner, args, kwargs)

        span_name = TIMED_TARGETS.get((mod_name, fn_name)) if self.timed else None
        if span_name is None:
            return fn
        span = self.spans.setdefault(span_name, Span())
        stack = self._stack
        inner_fn = fn

        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return inner_fn(*args, **kwargs)
            except Exception:
                span.raised += 1
                raise
            finally:
                dt = perf_counter() - t0
                span.calls += 1
                span.total_s += dt
                span.child_s += stack.pop()
                if stack:
                    stack[-1] += dt

        return timed

    def _observe_run_pipeline(self, fn, args, kwargs):
        scenario = args[0] if args else kwargs["scenario"]
        rec = RunRecord(frame_step=round(scenario.imu_rate / scenario.cam_rate))
        self.runs.append(rec)
        rec.result = fn(*args, **kwargs)
        return rec.result

    def _observe_propagate(self, fn, args, kwargs):
        rec = self.runs[-1]
        t0 = perf_counter()
        if rec.steps % rec.frame_step == 0:
            rec.stamps.append(t0)
            rec.propagate_s.append(0.0)
        rec.steps += 1
        out = fn(*args, **kwargs)
        took = perf_counter() - t0
        rec.propagate_s[-1] += took
        rec.propagate_calls.append(took)
        return out

    def _observe_apply_camera_update(self, fn, args, kwargs):
        rec = self.runs[-1]
        ids = args[2].cluster_ids
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        rec.update_s.append(perf_counter() - t0)
        rec.update_start.append(t0)
        rec.update_pairs.append(len(ids) - ids.count(None))
        return out

    def _observe_simulate_detections(self, fn, args, kwargs):
        frames = fn(*args, **kwargs)
        if self.runs:
            self.runs[-1].frames = frames
        return frames

    def _observe_associate(self, fn, args, kwargs):
        ms = fn(*args, **kwargs)
        self.runs[-1].associations.append(ms)
        return ms

    def _observe_attempt_recovery(self, fn, args, kwargs):
        found = fn(*args, **kwargs)
        self.runs[-1].recoveries.append((args, kwargs, found))
        return found

    def _observe_extend_matches(self, fn, args, kwargs):
        ms = fn(*args, **kwargs)
        self.runs[-1].extended += ms.positive_count()
        return ms
