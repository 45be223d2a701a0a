"""The benchmark observes the program only through benchmarks/hooks.py.

Its wrappers are swapped in by module and function name, read the
MatchSet from the third positional argument of apply_camera_update, and
read the recovery budget from the fifth positional argument of
attempt_recovery.  A refactor that renames, inlines or re-binds one of
those functions breaks the benchmark without breaking any other test;
this one catches that.
"""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

from nightrider import cli
from nightrider.association import MatchSet
from nightrider.sim import CameraFrame, default_scenario

_HOOKS = Path(__file__).resolve().parents[1] / "benchmarks" / "hooks.py"


def _load_hooks():
    spec = importlib.util.spec_from_file_location("bench_hooks", _HOOKS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


hooks = _load_hooks()


class CountingHooks(hooks.Hooks):
    """Timed hooks that also count calls per (module, function)."""

    def __init__(self):
        super().__init__(timed=True)
        self.called = Counter()

    def _wrap(self, mod_name, fn_name, fn):
        inner = super()._wrap(mod_name, fn_name, fn)
        called = self.called

        def counted(*args, **kwargs):
            called[mod_name, fn_name] += 1
            return inner(*args, **kwargs)

        return counted


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    """One short localize run with a blackout that forces a recovery."""
    tmp = tmp_path_factory.mktemp("contract")
    sc = default_scenario(0)
    sc.duration = 12.0
    sc.blackouts = [[3.0, 7.0]]  # longer than recovery.LOST_AFTER
    path = tmp / "scenario.json"
    sc.save(path)
    h = CountingHooks()
    with h:
        code = cli.main(
            ["localize", str(path), "--write-frames", "--out", str(tmp / "out")]
        )
    assert code == 0
    assert len(h.runs) == 1
    return h, h.runs[0], sc


def test_every_timed_target_is_called(observed):
    h, _, _ = observed
    missing = [key for key in hooks.TIMED_TARGETS if not h.called[key]]
    assert missing == []
    for name, span in h.spans.items():
        assert span.calls > 0 and span.raised == 0, name


def test_run_record_holds_frames_matches_and_recovery(observed):
    _, rec, sc = observed
    n_frames = round(sc.duration * sc.cam_rate)
    assert len(rec.frames) == n_frames
    assert all(isinstance(f, CameraFrame) for f in rec.frames)
    assert rec.associations
    assert all(isinstance(ms, MatchSet) for ms in rec.associations)
    # one recorded call per recovery event, on a simulated frame's detections
    kinds = Counter(kind for _, kind, _ in rec.result.events)
    assert len(rec.recoveries) == kinds["recovered"] + kinds["recovery_failed"] > 0
    frame_dets = {id(f.detections) for f in rec.frames}
    assert all(id(args[0]) in frame_dets for args, _, _ in rec.recoveries)
    # workloads.recovery_candidates reads the budget from the fifth argument
    for args, _, _ in rec.recoveries:
        assert isinstance(args[4].max_detections, int)
        assert isinstance(args[4].max_combinations, int)
    # apply_camera_update's third argument carried the matched pairs
    assert len(rec.update_pairs) > 0 and sum(rec.update_pairs) > 0


def test_one_propagate_stamp_per_frame_window(observed):
    _, rec, sc = observed
    assert rec.frame_step == round(sc.imu_rate / sc.cam_rate)
    assert rec.steps == len(rec.frames) * rec.frame_step
    assert len(rec.stamps) == len(rec.frames) == len(rec.propagate_s)
    assert len(rec.propagate_calls) == rec.steps
    assert rec.stamps == sorted(rec.stamps)


def test_hooks_leave_no_wrapper_behind(observed):
    h, _, _ = observed
    assert h._saved == []
    assert cli.run_pipeline.__module__ == "nightrider.pipeline"
    assert cli.run_pipeline.__name__ == "run_pipeline"
