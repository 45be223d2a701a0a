"""Print each pipeline stage's share of run_pipeline wall time, and its time.

    PYTHONPATH=src python tools/stage_times.py ring --runs 7

Each stage function is wrapped from outside by tools/rebind.py, as
benchmarks/hooks.py does: the wrapper replaces every binding of the
function in the loaded nightrider modules, so nothing under src/ changes.  A stage's time is
its inclusive wall time summed over one run; its share is that time over
the run's run_pipeline time.  Both are printed as the median over the
runs: shares compare across hosts, milliseconds across trees on one
host.  Stages nest: `propagate` runs inside `propagate_window` and
`score_matrix` inside `associate`, so only the unindented stages add up;
"rest" is run_pipeline's time outside them.

Scenarios: default is default_scenario(0) with perturb_init, ring is
ring_scenario(0), blackout is blackout_scenario(0).
"""

from __future__ import annotations

import argparse
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

sys.path.insert(0, str(Path(__file__).resolve().parent))

from nightrider.pipeline import PipelineConfig, run_pipeline  # noqa: E402
from nightrider.sim import blackout_scenario, default_scenario, ring_scenario  # noqa: E402
from rebind import rebind, restore  # noqa: E402

# (module, function, indented): indented stages run inside the one above
STAGES = [
    ("sim", "simulate_streams", False),
    ("inekf", "propagate_window", False),
    ("inekf", "propagate", True),
    ("odometry", "apply_odom_update", False),
    ("association", "associate", False),
    ("association", "score_matrix", True),
    ("camera", "apply_camera_update", False),
    ("extension", "extend_matches", False),
    ("extension", "update_degeneracy", False),
    ("recovery", "attempt_recovery", False),
]

SCENARIOS = {
    "default": (lambda: default_scenario(0), PipelineConfig(perturb_init=True)),
    "ring": (lambda: ring_scenario(0), PipelineConfig()),
    "blackout": (lambda: blackout_scenario(0), PipelineConfig()),
}


def wrap_stages(totals):
    """Wrap every stage; returns the (module, attribute, original) list."""
    saved = []
    for mod_name, fn_name, _ in STAGES:
        original = getattr(sys.modules[f"nightrider.{mod_name}"], fn_name)

        def timed(*args, _fn=original, _name=fn_name, **kwargs):
            t0 = perf_counter()
            try:
                return _fn(*args, **kwargs)
            finally:
                totals[_name] += perf_counter() - t0

        saved += rebind(original, timed)
    return saved


def run_shares(name, runs):
    """Per-stage (share, seconds) lists and run_pipeline seconds, over runs."""
    make, config = SCENARIOS[name]
    shares = {fn: [] for _, fn, _ in STAGES}
    shares["rest"] = []
    seconds = {key: [] for key in shares}
    walls = []
    for _ in range(runs):
        scenario = make()
        totals = dict.fromkeys(shares, 0.0)
        saved = wrap_stages(totals)
        try:
            t0 = perf_counter()
            run_pipeline(scenario, config=config)
            wall = perf_counter() - t0
        finally:
            restore(saved)
        top = sum(totals[fn] for _, fn, nested in STAGES if not nested)
        totals["rest"] = wall - top
        walls.append(wall)
        for key, s in totals.items():
            shares[key].append(s / wall)
            seconds[key].append(s)
    return shares, seconds, walls


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("scenario", nargs="?", default="ring", choices=sorted(SCENARIOS))
    ap.add_argument("--runs", type=int, default=5)
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")

    shares, seconds, walls = run_shares(args.scenario, args.runs)
    print(
        f"host: {platform.python_version()}, numpy {np.__version__}, "
        f"scipy {scipy.__version__}, {args.runs} runs of {args.scenario}, "
        f"run_pipeline median {statistics.median(walls):.3f} s"
    )
    rows = [(("  " if nested else "") + fn, fn) for _, fn, nested in STAGES]
    for label, key in rows + [("rest", "rest")]:
        share = 100 * statistics.median(shares[key])
        ms = 1e3 * statistics.median(seconds[key])
        print(f"{label:<22} {share:5.1f}%  {ms:7.1f} ms")


if __name__ == "__main__":
    main()
