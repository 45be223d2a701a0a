"""Nocturnal localization against a streetlight map.

A right-invariant extended Kalman filter on SE_2(3) fuses IMU, odometer,
and camera streetlight detections; supporting modules cover probabilistic
detection-to-map association, match extension from raw segmentation
boxes, corridor degeneration handling, tracking recovery after detector
blackouts, a DBSCAN map builder, and a deterministic simulation harness.
"""

from .association import MatchSet, associate
from .camera import CameraIntrinsics, DetectionBox
from .inekf import (
    FilterState,
    UpdateRejected,
    imu_noise,
    invariant_update,
    propagate_window,
)
from .lie import ExtendedPose, Trajectory, se23_exp, se23_log
from .mapping import (
    StreetlightCluster,
    StreetlightMap,
    build_map,
    load_map,
    save_map,
)
from .pipeline import (
    MonteCarloResult,
    PipelineConfig,
    RunResult,
    monte_carlo,
    run_pipeline,
)
from .sim import (
    Scenario,
    blackout_scenario,
    compute_ate,
    corridor_scenario,
    default_scenario,
    make_map,
    ring_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "MatchSet",
    "associate",
    "CameraIntrinsics",
    "DetectionBox",
    "FilterState",
    "UpdateRejected",
    "imu_noise",
    "invariant_update",
    "propagate_window",
    "ExtendedPose",
    "Trajectory",
    "se23_exp",
    "se23_log",
    "StreetlightCluster",
    "StreetlightMap",
    "build_map",
    "load_map",
    "save_map",
    "MonteCarloResult",
    "PipelineConfig",
    "RunResult",
    "monte_carlo",
    "run_pipeline",
    "Scenario",
    "blackout_scenario",
    "compute_ate",
    "corridor_scenario",
    "default_scenario",
    "make_map",
    "ring_scenario",
    "__version__",
]
