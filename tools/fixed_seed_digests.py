"""Print a SHA-256 digest of each fixed-seed run, one line per run.

A behaviour-preserving change must leave every line unchanged: run this
on the tree before and after the change and `diff` the two outputs.
The nightrider package is whichever one is importable, so point
PYTHONPATH at the tree under test:

    PYTHONPATH=src python tools/fixed_seed_digests.py > after.txt

With --blackout-seeds A-B it then prints one more line per run of
blackout_scenario(seed, start) for each seed from A to B and start 15
(the default window) and 16.5 (the benchmark's), two per seed.  The
20 s blackout leaves the filter lost, so the sweep shows whether
recovery still decides the same on each run.

Digests come from `result_digest` in benchmarks/checks.py, which hashes
everything a RunResult holds.  Then one line hashes a 3-run Monte Carlo,
the next two hash every file that `nightrider localize ring
--write-frames` and `nightrider simulate default` write, and the last
hashes the map `nightrider build-map --filter-outliers` writes for a
fixed seeded point file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from checks import result_digest  # noqa: E402
from nightrider import cli  # noqa: E402
from nightrider.pipeline import PipelineConfig, monte_carlo, run_pipeline  # noqa: E402
from nightrider.sim import (  # noqa: E402
    Scenario,
    blackout_scenario,
    corridor_scenario,
    default_scenario,
    ring_scenario,
)


def runs():
    """(label, scenario, config) for every digested run."""
    for s in range(8):
        yield f"default seed={s} perturb_init", default_scenario(s), PipelineConfig(
            perturb_init=True
        )
    for s in range(2):
        yield f"ring seed={s}", ring_scenario(s), PipelineConfig()
    yield "ring use_extension=False", ring_scenario(), PipelineConfig(use_extension=False)
    yield "corridor", corridor_scenario(), PipelineConfig()
    yield "corridor use_degeneration=False", corridor_scenario(), PipelineConfig(
        use_degeneration=False
    )
    # acceptance 6's configuration, the one run that sets extension_range
    yield "corridor use_odom=False extension_range=35", corridor_scenario(), PipelineConfig(
        use_odom=False, extension_range=35.0
    )
    for s in range(3):
        yield f"blackout seed={s} start=16.5", blackout_scenario(s, start=16.5), None
        yield f"blackout seed={s}", blackout_scenario(s), None
    # the recovery whose shared innovation covariance comes nearest the
    # bearing cap among the built-ins: lambda_max(S_all) = 4.4e-2 against
    # camera.MAX_BEARING_VAR = 1
    yield "blackout seed=0 start=10 length=30", blackout_scenario(
        0, start=10, length=30
    ), None
    # the one digested run whose recovery searches and fails: 18 failed
    # attempts before the first that recovers
    yield "blackout seed=0 start=10 length=20", blackout_scenario(0, start=10), None
    # the one trajectory kind no built-in uses: a closed spline loop
    # through the default lamp grid, built through the scenario checks
    loop = {
        "kind": "waypoints",
        "times": [0, 10, 20, 30, 40],
        "points": [[-20, 0, 0], [0, -10, 0], [20, 0, 0], [0, 10, 0], [-20, 0, 0]],
        "closed": True,
    }
    doc = {**default_scenario(0).to_dict(), "name": "waypoints", "trajectory": loop}
    yield "waypoints closed", Scenario.from_dict(doc), None
    # every built-in runs odometer and camera at 10 Hz; at 20 Hz the
    # odometer ends a propagation window between two camera frames
    doc = {**default_scenario(0).to_dict(), "odom_rate": 20.0}
    yield "default seed=0 odom_rate=20", Scenario.from_dict(doc), None


def blackout_runs(first, last):
    """(label, scenario, config) of the blackout sweep over seeds first..last."""
    for s in range(first, last + 1):
        for start in (15.0, 16.5):
            yield f"blackout seed={s} start={start:g}", blackout_scenario(s, start=start), None


def seed_range(text):
    """'A-B' as (A, B), for --blackout-seeds."""
    first, sep, last = text.partition("-")
    if not sep or not first.isdigit() or not last.isdigit() or int(first) > int(last):
        raise argparse.ArgumentTypeError(f"expected A-B with A <= B, got {text!r}")
    return int(first), int(last)


def files_digest(argv):
    """SHA-256 over the names and bytes of the files one CLI call writes
    to its --out directory, or of the one file it writes as --out."""
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "--out", str(out)])
        if code != 0:
            raise SystemExit(f"nightrider {' '.join(argv)} exited with {code}")
        for path in sorted(out.iterdir()) if out.is_dir() else [out]:
            h.update(path.name.encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def build_map_digest():
    """files_digest of `nightrider build-map --filter-outliers` on a seeded
    cloud: 12 lamps of 40 points 0.2 m apart, and 60 stray points."""
    rng = np.random.default_rng(30)
    lamps = rng.uniform([-60.0, -60.0, 3.0], [60.0, 60.0, 8.0], size=(12, 3))
    blobs = lamps[:, None] + 0.2 * rng.standard_normal((12, 40, 3))
    stray = rng.uniform([-70.0, -70.0, 0.0], [70.0, 70.0, 10.0], size=(60, 3))
    with tempfile.TemporaryDirectory() as tmp:
        points = Path(tmp) / "points.xyz"
        np.savetxt(points, np.concatenate([blobs.reshape(-1, 3), stray]))
        return files_digest(["build-map", str(points), "--filter-outliers"])


def print_digests(labelled_runs):
    for label, scenario, config in labelled_runs:
        print(f"{result_digest(run_pipeline(scenario, config=config))}  {label}", flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description="Digest every fixed-seed run.")
    parser.add_argument("--blackout-seeds", type=seed_range, metavar="A-B")
    args = parser.parse_args(argv)
    print_digests(runs())
    mc = monte_carlo(default_scenario(0), 3)
    h = hashlib.sha256()
    for a in (mc.mean_nees, mc.final_errors):
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    print(f"{h.hexdigest()}  monte_carlo default seed=0 runs=3", flush=True)
    for argv in (["localize", "ring", "--write-frames"], ["simulate", "default"]):
        print(f"{files_digest(argv)}  files of nightrider {' '.join(argv)}", flush=True)
    print(f"{build_map_digest()}  map of nightrider build-map --filter-outliers", flush=True)
    if args.blackout_seeds:
        print_digests(blackout_runs(*args.blackout_seeds))


if __name__ == "__main__":
    main()
