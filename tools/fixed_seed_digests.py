"""Print a SHA-256 digest of each fixed-seed run, one line per run.

A behaviour-preserving change must leave every line unchanged: run this
on the tree before and after the change and `diff` the two outputs.
The nightrider package is whichever one is importable, so point
PYTHONPATH at the tree under test:

    PYTHONPATH=src python tools/fixed_seed_digests.py > after.txt

Digests come from `result_digest` in benchmarks/checks.py, which hashes
everything a RunResult holds.  Then one line hashes a 3-run Monte Carlo,
and the last two hash every file that `nightrider localize ring
--write-frames` and `nightrider simulate default` write.
"""

from __future__ import annotations

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
    for s in range(3):
        yield f"blackout seed={s} start=16.5", blackout_scenario(s, start=16.5), None
        yield f"blackout seed={s}", blackout_scenario(s), None
    # the recovery whose shared innovation covariance is nearest the
    # condition limit among the built-ins (cond 4.4e10)
    yield "blackout seed=0 start=10 length=30", blackout_scenario(
        0, start=10, length=30
    ), None


def files_digest(argv):
    """SHA-256 over the names and bytes of the files one CLI call writes."""
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "--out", str(out)])
        if code != 0:
            raise SystemExit(f"nightrider {' '.join(argv)} exited with {code}")
        for path in sorted(out.iterdir()):
            h.update(path.name.encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def main():
    for label, scenario, config in runs():
        print(f"{result_digest(run_pipeline(scenario, config=config))}  {label}", flush=True)
    mc = monte_carlo(default_scenario(0), 3)
    h = hashlib.sha256()
    for a in (mc.mean_nees, mc.final_errors):
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    print(f"{h.hexdigest()}  monte_carlo default seed=0 runs=3", flush=True)
    for argv in (["localize", "ring", "--write-frames"], ["simulate", "default"]):
        print(f"{files_digest(argv)}  files of nightrider {' '.join(argv)}", flush=True)


if __name__ == "__main__":
    main()
