"""A full lap: simulate, localize, evaluate, and (optionally) plot.

Runs the 500 m ring with all sensors, then repeats it without vision and
without match extension to show what each stage buys.  If matplotlib is
installed the estimated and true paths are drawn to ring_demo.png.

Run with:  python3 demos/04_full_run.py
"""

import numpy as np

from nightrider.pipeline import PipelineConfig, run_pipeline
from nightrider.sim import ring_scenario


def describe(name, res):
    m = res.metrics()
    print(f"{name:28s} ATE {m['ate_trans']:7.3f} m   "
          f"final {m['final_trans_err']:7.3f} m   "
          f"mean NEES {m['mean_nees']:6.1f}")
    return m


def main():
    print("running the 500 m ring three ways (about ten seconds)...\n")
    full = run_pipeline(ring_scenario())
    no_vision = run_pipeline(ring_scenario(), config=PipelineConfig(use_vision=False))
    no_ext = run_pipeline(ring_scenario(), config=PipelineConfig(use_extension=False))

    m = describe("full pipeline", full)
    describe("no vision", no_vision)
    describe("no match extension", no_ext)

    pct = 100.0 * m["ate_trans"] / full.path_length
    print(f"\npath length {full.path_length:.0f} m; "
          f"full-pipeline ATE is {pct:.3f}% of the path.")

    matched = sum(row[2] for row in full.frame_matches)
    extended = sum(row[3] for row in full.frame_matches)
    print(f"camera frames: {len(full.frame_matches)}, "
          f"associated matches: {matched}, extended matches: {extended}")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("\nmatplotlib not installed; skipping the plot.")
        return

    est, tru, drift = full.log.pos, full.truth.pos, no_vision.log.pos
    fig, ax = plt.subplots(figsize=(7, 7))
    ax.plot(tru[:, 0], tru[:, 1], "k-", lw=1, label="truth")
    ax.plot(est[:, 0], est[:, 1], "g-", lw=1, label="full pipeline")
    ax.plot(drift[:, 0], drift[:, 1], "r--", lw=1, label="no vision")
    lamps = np.array(ring_scenario().lamps)
    ax.scatter(lamps[:, 0], lamps[:, 1], marker="*", s=60, c="orange", label="lamps")
    ax.set_aspect("equal")
    ax.legend()
    ax.set_title("ring scenario: estimated vs true path")
    fig.savefig("ring_demo.png", dpi=120)
    print("\nwrote ring_demo.png")


if __name__ == "__main__":
    main()
