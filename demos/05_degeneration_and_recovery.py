"""The two failure modes and their countermeasures.

Part 1 drives the corridor scenario: a long row of collinear streetlights
leaves a rotation-about-the-lamp-line unobservable, so height drifts away
until the degeneration handler picks up the first off-line lamp.

Part 2 drives the blackout scenario: the detector goes dark for twenty
seconds mid-run and the tracking-recovery search re-anchors the filter
from scratch once lights return.

Run with:  python3 demos/05_degeneration_and_recovery.py
"""

import numpy as np

from nightrider.pipeline import PipelineConfig, run_pipeline
from nightrider.sim import blackout_scenario, corridor_scenario


def z_error_after(res, t_from, t_to):
    t = res.log.t
    rows = (t_from < t) & (t <= t_to)
    return float(np.mean(np.abs(res.log.pos[rows, 2] - res.truth.pos[rows, 2])))


def main():
    print("== part 1: corridor degeneration ==")
    sc = corridor_scenario()
    cfg = dict(use_odom=False, extension_range=35.0)
    on = run_pipeline(sc, config=PipelineConfig(**cfg))
    off = run_pipeline(sc, config=PipelineConfig(use_degeneration=False, **cfg))

    for t, kind, detail in on.events:
        if kind.startswith("degeneration"):
            print(f"  t={t:5.1f} s  {kind} ({detail})")

    z_on = z_error_after(on, 38.7, 43.7)
    z_off = z_error_after(off, 38.7, 43.7)
    print(f"  mean height error in the 5 s after the off-line lamp appears:")
    print(f"    handler on  {z_on:.3f} m")
    print(f"    handler off {z_off:.3f} m")

    print("\n== part 2: blackout recovery ==")
    sc = blackout_scenario()  # detector dark over [15, 35)
    res = run_pipeline(sc)
    times, errs = res.log.t, res.trans_errors

    pre = float(errs[times < 15.0][-1])
    peak = float(errs[(times >= 15.0) & (times < 35.0)].max())
    print(f"  error before the blackout {pre:.3f} m, peak while dark {peak:.2f} m")
    for t, kind, detail in res.events:
        if kind in ("recovered", "recovery_failed"):
            print(f"  t={t:5.1f} s  {kind} ({detail})")
    print(f"  final error {errs[-1]:.3f} m over a "
          f"{res.path_length:.0f} m path")


if __name__ == "__main__":
    main()
