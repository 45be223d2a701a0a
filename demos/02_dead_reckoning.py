"""How far the filter drifts without any exteroceptive aid.

Runs the same figure-eight three ways: IMU only, IMU + odometer, and the
full pipeline with streetlight vision.  Prints the error growth so the
value of each sensor is visible at a glance.

Run with:  python3 demos/02_dead_reckoning.py
"""

import numpy as np

from nightrider.pipeline import PipelineConfig, run_pipeline
from nightrider.sim import default_scenario


def run(name, config):
    res = run_pipeline(default_scenario(), config=config)
    m = res.metrics()
    times, errs = res.log.t, res.trans_errors
    print(f"\n== {name} ==")
    print(f"  ATE {m['ate_trans']:.3f} m   final error {m['final_trans_err']:.3f} m")
    for t in (10.0, 20.0, 30.0, 40.0):
        i = int(np.searchsorted(times, t))
        if i < len(errs):
            print(f"  error at t={t:4.0f} s: {errs[i]:.3f} m")
    return m


def main():
    imu_only = PipelineConfig(use_odom=False, use_vision=False)
    with_odom = PipelineConfig(use_vision=False)
    full = PipelineConfig()

    a = run("IMU only (pure dead reckoning)", imu_only)
    b = run("IMU + odometer", with_odom)
    c = run("full pipeline (IMU + odometer + streetlights)", full)

    print("\nATE ratios: odometer cuts drift by "
          f"{a['ate_trans'] / b['ate_trans']:.1f}x, "
          f"vision by another {b['ate_trans'] / c['ate_trans']:.1f}x.")


if __name__ == "__main__":
    main()
