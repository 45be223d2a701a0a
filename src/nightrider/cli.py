"""Command-line entry point tying the toolkit together.

Subcommands:
  build-map  cluster labeled 3D points into a streetlight map
  simulate   write one scenario's sensor streams to disk
  localize   run the filter on a scenario, write trajectory and metrics
  evaluate   absolute trajectory error between two trajectory CSVs

Exit codes: 0 on success, 1 on runtime failures (missing or malformed
files, no trajectory overlap), 2 on empty input (nothing to cluster).
The seed resolution order everywhere is --seed flag, then the
NIGHTRIDER_SEED environment variable, then the scenario's own value.

All output files are byte-stable: rerunning a subcommand with the same
inputs and seed reproduces them exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .mapping import build_map, load_map, load_points, save_map
from .io import read_trajectory, write_csv, write_jsonl, write_trajectory
from .pipeline import PipelineConfig, monte_carlo, run_pipeline
from .sim import (
    Scenario,
    blackout_scenario,
    compute_ate,
    corridor_scenario,
    default_scenario,
    make_map,
    ring_scenario,
    simulate_streams,
)

BUILTIN_SCENARIOS = {
    "default": default_scenario,
    "figure-eight": default_scenario,
    "ring": ring_scenario,
    "corridor": corridor_scenario,
    "blackout": blackout_scenario,
}


def _resolve_seed(args):
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("NIGHTRIDER_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"NIGHTRIDER_SEED is not an integer: {env!r}")
    return None


def _load_scenario(name_or_path, seed):
    if name_or_path in BUILTIN_SCENARIOS:
        sc = BUILTIN_SCENARIOS[name_or_path]()
    elif Path(name_or_path).exists():
        sc = Scenario.load(name_or_path)
    else:
        raise FileNotFoundError(
            f"no such scenario: {name_or_path!r} is neither a built-in "
            f"({', '.join(sorted(BUILTIN_SCENARIOS))}) nor a file"
        )
    if seed is not None:
        sc = Scenario.from_dict({**sc.to_dict(), "seed": seed})  # checks the seed
    return sc


def _scenario_map(scenario, map_path):
    if map_path is None:
        return make_map(scenario)
    return load_map(map_path)


def _fmt(v):
    return repr(float(v))


def cmd_build_map(args):
    points = load_points(args.input)
    if len(points) == 0:
        print(f"{args.input}: no points to cluster", file=sys.stderr)
        return 2
    smap = build_map(
        points,
        eps=args.eps,
        min_pts=args.min_pts,
        map_id=args.map_id,
        filter_outliers=args.filter_outliers,
    )
    save_map(smap, args.out)
    n = len(smap.clusters)
    print(f"{n} cluster{'s' if n != 1 else ''} -> {args.out}")
    if n:
        centers = smap.centers()
        lo, hi = centers.min(axis=0), centers.max(axis=0)
        print(
            f"bbox x [{lo[0]:.2f}, {hi[0]:.2f}] "
            f"y [{lo[1]:.2f}, {hi[1]:.2f}] z [{lo[2]:.2f}, {hi[2]:.2f}]"
        )
    else:
        print("warning: every point was labeled noise", file=sys.stderr)
    return 0


def cmd_simulate(args):
    sc = _load_scenario(args.scenario, _resolve_seed(args))
    smap = _scenario_map(sc, args.map)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    streams = simulate_streams(sc, smap)
    truth, frames = streams.truth, streams.frames

    sc.save(out / "scenario.json")
    save_map(smap, out / "map.json")
    write_trajectory(out / "truth.csv", truth[streams.frame_rows()])
    gyro, accel, odom = streams.gyro, streams.accel, streams.odom
    write_csv(out / "imu.csv", "t,wx,wy,wz,ax,ay,az", truth.t[:-1], gyro, accel)
    write_csv(out / "odom.csv", "t,vx,vy,vz", truth.t[streams.odom_at], odom)
    write_jsonl(
        out / "frames.jsonl",
        [
            {
                "t": f.t,
                "blackout": sc.in_blackout(f.t),
                "detections": [
                    {
                        "center": [float(v) for v in d.center],
                        "extents": [float(v) for v in d.extents],
                    }
                    for d in f.detections
                ],
                "truth_ids": [
                    None if i is None else int(i) for i in f.truth_ids
                ],
            }
            for f in frames
        ],
    )
    print(
        f"{len(gyro)} imu, {len(odom)} odom, {len(frames)} frames -> {out}"
    )
    return 0


def cmd_localize(args):
    if args.runs < 1:
        raise ValueError("--runs must be at least 1")
    if args.runs > 1 and args.write_frames:
        raise ValueError("--write-frames needs a single run (--runs 1)")
    sc = _load_scenario(args.scenario, _resolve_seed(args))
    smap = _scenario_map(sc, args.map)
    config = PipelineConfig(
        use_vision=not args.no_vision,
        use_odom=not args.no_odom,
        use_extension=not args.no_extension,
        use_degeneration=not args.no_degeneration,
        use_recovery=not args.no_recovery,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if args.runs > 1:
        config.perturb_init = True
        mc = monte_carlo(sc, args.runs, config=config, smap=smap)
        report = {
            "scenario": sc.name,
            "runs": args.runs,
            "avg_nees": mc.avg_nees,
            "mean_nees": [float(v) for v in mc.mean_nees],
            "final_errors": [float(v) for v in mc.final_errors],
            "max_final_error": float(mc.final_errors.max()),
        }
        (out / "monte_carlo.json").write_text(
            json.dumps(report, sort_keys=True, indent=2) + "\n"
        )
        print(
            f"{args.runs} runs: avg NEES {mc.avg_nees:.2f}, "
            f"max final error {report['max_final_error']:.3f} m -> {out}"
        )
        return 0

    result = run_pipeline(sc, smap=smap, config=config)
    write_trajectory(out / "trajectory.csv", result.log)
    write_trajectory(out / "truth.csv", result.truth)
    metrics = result.metrics()
    (out / "metrics.json").write_text(
        json.dumps(metrics, sort_keys=True, indent=2) + "\n"
    )
    write_jsonl(
        out / "events.jsonl",
        [{"t": float(t), "kind": k, "detail": str(d)} for t, k, d in result.events],
    )
    if args.write_frames:
        lines = ["t,detections,associated,extended,degenerate"]
        for t, n_det, n_ass, n_ext, n_deg in result.frame_matches:
            lines.append(f"{_fmt(t)},{n_det},{n_ass},{n_ext},{n_deg}")
        (out / "frames.csv").write_text("\n".join(lines) + "\n")
    for key in ("ate_trans", "ate_rot_deg", "final_trans_err", "mean_nees"):
        print(f"{key} = {metrics[key]:.4f}")
    print(f"trajectory -> {out / 'trajectory.csv'}")
    return 0


def cmd_evaluate(args):
    ate_trans, ate_rot = compute_ate(
        read_trajectory(args.estimate), read_trajectory(args.truth)
    )
    report = {"ate_trans": ate_trans, "ate_rot_deg": ate_rot}
    print(f"ate_trans = {ate_trans:.6f} m")
    print(f"ate_rot = {ate_rot:.6f} deg")
    if args.out:
        Path(args.out).write_text(
            json.dumps(report, sort_keys=True, indent=2) + "\n"
        )
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="nightrider",
        description="Nocturnal streetlight-aided localization toolkit.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build-map", help="cluster labeled points into a map")
    b.add_argument("input", help="xyz text or map JSON point file")
    b.add_argument("--out", default="map.json")
    b.add_argument("--eps", type=float, default=1.0, help="DBSCAN radius (m)")
    b.add_argument("--min-pts", type=int, default=5)
    b.add_argument("--map-id", default="")
    b.add_argument(
        "--filter-outliers",
        action="store_true",
        help="drop k-NN distance outliers before clustering",
    )
    b.set_defaults(func=cmd_build_map)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "scenario",
        help=f"built-in name ({', '.join(sorted(BUILTIN_SCENARIOS))}) or scenario JSON path",
    )
    common.add_argument("--map", default=None, help="map JSON (default: from scenario lamps)")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--out", default="out")

    s = sub.add_parser(
        "simulate", parents=[common], help="write sensor streams to disk"
    )
    s.set_defaults(func=cmd_simulate)

    l = sub.add_parser(
        "localize", parents=[common], help="run the filter on a scenario"
    )
    l.add_argument("--no-vision", action="store_true")
    l.add_argument("--no-odom", action="store_true")
    l.add_argument("--no-extension", action="store_true")
    l.add_argument("--no-degeneration", action="store_true")
    l.add_argument("--no-recovery", action="store_true")
    l.add_argument("--runs", type=int, default=1, help="Monte Carlo run count")
    l.add_argument(
        "--write-frames",
        action="store_true",
        help="also write per-frame match counts",
    )
    l.set_defaults(func=cmd_localize)

    e = sub.add_parser("evaluate", help="ATE between two trajectory CSVs")
    e.add_argument("estimate")
    e.add_argument("truth")
    e.add_argument("--out", default=None, help="also write a JSON report")
    e.set_defaults(func=cmd_evaluate)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
