"""Print how close the fixed-seed runs come to the update rule's floor.

    PYTHONPATH=src python tools/update_margins.py

inekf.admissible, the update rule, is wrapped from outside by
tools/rebind.py, as tools/stage_times.py wraps stages: the wrapper replaces
every binding of the function in the loaded nightrider modules, so nothing
under src/ changes.  Then everything tools/fixed_seed_digests.py runs is run, its
digests discarded.  For each kind of update the wrapper records how many
innovation covariances S the rule judged, the largest, and the smallest
lambda_min / lambda_max among the finite ones; the rule refuses an S
whose ratio is at most inekf.RCOND.  Kinds follow the rule's arguments:

    bearing     an invariant_update with the camera.MAX_BEARING_VAR cap
    odometer    an invariant_update with no cap
    S_all       recovery's certificate, the one call with a margin
    candidate   recovery's per-lamp-set check, a stack of S
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import fixed_seed_digests  # noqa: E402
from nightrider import inekf  # noqa: E402
from rebind import rebind, restore  # noqa: E402

KINDS = ("bearing", "odometer", "S_all", "candidate")


def kind_of(S, max_var, margin):
    if margin > 0.0:
        return "S_all"
    if np.ndim(S) == 3:
        return "candidate"
    return "odometer" if max_var == math.inf else "bearing"


def wrap_rule(seen):
    """Wrap admissible in every loaded nightrider module so that each call
    updates seen[kind] = [S judged, largest n, least ratio]; returns the
    (module, attribute, original) list that undoes it."""
    original = inekf.admissible

    def recorded(S, max_var=math.inf, margin=0.0):
        stats = seen[kind_of(S, max_var, margin)]
        stack = np.reshape(S, (-1, *np.shape(S)[-2:]))
        stats[0] += len(stack)
        stats[1] = max(stats[1], stack.shape[-1])
        stack = stack[np.isfinite(stack).all(axis=(1, 2))]
        if len(stack):
            lam = np.linalg.eigvalsh(stack)
            stats[2] = min(stats[2], float((lam[:, 0] / lam[:, -1]).min()))
        return original(S, max_var, margin)

    return rebind(original, recorded)


def main():
    seen = {kind: [0, 0, math.inf] for kind in KINDS}
    saved = wrap_rule(seen)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            fixed_seed_digests.main([])
    finally:
        restore(saved)

    print(f"RCOND = {inekf.RCOND:g}; the runs of tools/fixed_seed_digests.py")
    head = ("kind", "S judged", "largest S", "least lambda_min/lambda_max")
    print(f"{head[0]:<10} {head[1]:>9} {head[2]:>10} {head[3]:>28}")
    for kind in KINDS:
        count, n, ratio = seen[kind]
        size = f"{n}x{n}" if count else "-"
        least = f"{ratio:.2e}" if ratio < math.inf else "-"
        print(f"{kind:<10} {count:>9} {size:>10} {least:>28}")


if __name__ == "__main__":
    main()
