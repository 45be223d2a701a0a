"""The scripts under tools/ import and run against this checkout's package.

Nothing else runs them, and they reach into the package by name: stage
functions, inekf.admissible and its arguments, the digested runs.  A
rename under src/ would break them without failing any other test.
"""

import argparse
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from nightrider import recovery
from nightrider.camera import MAX_BEARING_VAR

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name", ["stage_times", "update_margins", "fixed_seed_digests", "settables"]
)
def test_tool_imports(name):
    assert callable(_load(name).main)


def test_stage_times_prints_every_stage_with_a_finite_share(capsys):
    stage_times = _load("stage_times")
    stage_times.main(["default", "--runs", "1"])
    rows = capsys.readouterr().out.splitlines()[1:]
    shares = {}
    for row in rows:
        label, share, ms, unit = row.split()
        assert share.endswith("%") and unit == "ms"
        shares[label] = float(share[:-1])
    assert list(shares) == [fn for _, fn, _ in stage_times.STAGES] + ["rest"]
    assert all(math.isfinite(v) for v in shares.values())


def test_update_margins_sorts_each_call_of_the_rule_by_kind():
    update_margins = _load("update_margins")
    seen = {kind: [0, 0, math.inf] for kind in update_margins.KINDS}
    saved = update_margins.wrap_rule(seen)
    try:
        recovery._certifies(0.5 * np.eye(4))
        recovery.admissible(np.stack([np.eye(2)] * 3), MAX_BEARING_VAR)
    finally:
        for m, attr, original in reversed(saved):
            setattr(m, attr, original)
    recovery.admissible(np.eye(3))  # unwrapped again: counted nowhere
    assert [seen[kind][0] for kind in update_margins.KINDS] == [0, 0, 1, 3]
    assert seen["S_all"][1] == 4 and seen["candidate"][1] == 2


def test_fixed_seed_digests_lists_every_run():
    runs = list(_load("fixed_seed_digests").runs())
    assert len(runs) == 24  # and three more lines: Monte Carlo and two CLI calls
    assert len({label for label, _, _ in runs}) == len(runs)


def test_fixed_seed_digests_sweeps_blackout_seeds():
    digests = _load("fixed_seed_digests")
    sweep = list(digests.blackout_runs(*digests.seed_range("3-4")))
    assert [label for label, _, _ in sweep] == [
        "blackout seed=3 start=15",
        "blackout seed=3 start=16.5",
        "blackout seed=4 start=15",
        "blackout seed=4 start=16.5",
    ]
    assert [sc.blackouts for _, sc, _ in sweep[:2]] == [[[15.0, 35.0]], [[16.5, 36.5]]]
    assert [sc.seed for _, sc, _ in sweep] == [3, 3, 4, 4]
    for bad in ("4-3", "3", "a-b", "-1-2"):
        with pytest.raises(argparse.ArgumentTypeError):
            digests.seed_range(bad)


def test_settables_counts_defaults_and_defaulted_dataclass_fields(tmp_path, capsys):
    (tmp_path / "a.py").write_text(
        "from dataclasses import dataclass, field\n"
        "\n"
        "def f(x, y=1, *, z=2, w):\n"
        "    def inner(q=3):\n"
        "        return lambda r=4: r\n"
        "\n"
        "@dataclass(frozen=True)\n"
        "class Config:\n"
        "    a: int\n"
        "    b: int = 5\n"
        "    c: list = field(default_factory=list)\n"
        "    d = 6  # not a field\n"
        "    def g(self, k=7):\n"
        "        pass\n"
        "\n"
        "class Plain:\n"
        "    e: int = 8\n"
        "\n"
        "@dataclass\n"
        "class Scenario:\n"
        "    seed: int = 0\n"
    )
    settables = _load("settables")
    settables.main([str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "6",
        "a.py:3 f(y=)",
        "a.py:3 f(z=)",
        "a.py:4 inner(q=)",
        "a.py:10 Config.b",
        "a.py:11 Config.c",
        "a.py:13 g(k=)",
    ]
    # the package itself: one line per value after the count
    values = settables.settables()
    assert values and not any(name.startswith("Scenario.") for _, _, name in values)
