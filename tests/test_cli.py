import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nightrider
from nightrider.cli import main
from nightrider.io import TRAJECTORY_HEADER
from nightrider.mapping import load_map, save_map
from nightrider.sim import Scenario, default_scenario, make_map, simulate_streams


@pytest.fixture()
def short_scenario(tmp_path):
    sc = default_scenario()
    sc.duration = 6.0
    path = tmp_path / "short.json"
    sc.save(path)
    return str(path)


def _cloud_file(tmp_path, n_blobs=3):
    rng = np.random.default_rng(5)
    pts = [
        rng.normal([10.0 * i, 0.0, 4.0], 0.2, (30, 3)) for i in range(n_blobs)
    ]
    path = tmp_path / "cloud.xyz"
    np.savetxt(path, np.vstack(pts), fmt="%.6f")
    return str(path)


def test_build_map_counts_and_bbox(tmp_path, capsys):
    cloud = _cloud_file(tmp_path)
    out = tmp_path / "map.json"
    assert main(["build-map", cloud, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "3 clusters" in text and "bbox" in text
    smap = load_map(out)
    assert len(smap.clusters) == 3


def test_build_map_empty_input_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty.xyz"
    empty.write_text("")
    assert main(["build-map", str(empty), "--out", str(tmp_path / "m.json")]) == 2
    assert "no points" in capsys.readouterr().err


def test_simulate_writes_streams(tmp_path, short_scenario, capsys):
    out = tmp_path / "sim"
    assert main(["simulate", short_scenario, "--out", str(out)]) == 0
    for name in (
        "scenario.json",
        "map.json",
        "truth.csv",
        "imu.csv",
        "odom.csv",
        "frames.jsonl",
    ):
        assert (out / name).exists()
    # rate x duration rows plus a header
    assert len((out / "imu.csv").read_text().splitlines()) == 1200 + 1
    assert len((out / "odom.csv").read_text().splitlines()) == 60 + 1
    assert len((out / "frames.jsonl").read_text().splitlines()) == 60


def test_simulate_rerun_is_byte_identical(tmp_path, short_scenario):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", short_scenario, "--out", str(a)]) == 0
    assert main(["simulate", short_scenario, "--out", str(b)]) == 0
    for name in ("truth.csv", "imu.csv", "odom.csv", "frames.jsonl"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_simulate_writes_the_pipeline_streams(tmp_path, short_scenario):
    """imu.csv, odom.csv and frames.jsonl hold simulate_streams' samples
    bit for bit, the streams that run_pipeline filters."""
    out = tmp_path / "sim"
    assert main(["simulate", short_scenario, "--out", str(out)]) == 0
    sc = Scenario.load(short_scenario)
    streams = simulate_streams(sc, load_map(out / "map.json"))

    t = streams.truth.t
    for name, expected in (
        ("imu.csv", np.column_stack([t[:-1], streams.gyro, streams.accel])),
        ("odom.csv", np.column_stack([t[streams.odom_at], streams.odom])),
    ):
        rows = (out / name).read_text().splitlines()[1:]
        written = np.array([[float(v) for v in r.split(",")] for r in rows])
        assert written.tobytes() == expected.tobytes(), name

    frames = [json.loads(line) for line in (out / "frames.jsonl").open()]
    assert len(frames) == len(streams.frames)
    for rec, f in zip(frames, streams.frames):
        assert rec["t"] == f.t and rec["blackout"] == f.blackout
        assert rec["truth_ids"] == f.truth_ids
        for d_rec, d in zip(rec["detections"], f.detections, strict=True):
            assert np.array(d_rec["center"]).tobytes() == d.center.tobytes()
            assert np.array(d_rec["extents"]).tobytes() == d.extents.tobytes()


def test_localize_rerun_is_byte_identical(tmp_path, short_scenario):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["localize", short_scenario, "--out", str(a)]) == 0
    assert main(["localize", short_scenario, "--out", str(b)]) == 0
    assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()
    assert (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()


def test_localize_seed_changes_output(tmp_path, short_scenario):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["localize", short_scenario, "--out", str(a)]) == 0
    assert main(["localize", short_scenario, "--out", str(b), "--seed", "9"]) == 0
    assert (a / "trajectory.csv").read_bytes() != (b / "trajectory.csv").read_bytes()


def test_env_seed_fallback(tmp_path, short_scenario, monkeypatch):
    a, b = tmp_path / "a", tmp_path / "b"
    monkeypatch.setenv("NIGHTRIDER_SEED", "9")
    assert main(["localize", short_scenario, "--out", str(a)]) == 0
    monkeypatch.delenv("NIGHTRIDER_SEED")
    assert main(["localize", short_scenario, "--out", str(b), "--seed", "9"]) == 0
    assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()


def test_negative_seed_flag_or_env_exits_1(tmp_path, capsys, monkeypatch):
    assert main(["localize", "default", "--seed", "-1", "--out", str(tmp_path)]) == 1
    monkeypatch.setenv("NIGHTRIDER_SEED", "-1")
    assert main(["localize", "default", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.count("error: seed must be") == 2


def test_localize_ablation_flags_gate_the_pipeline(tmp_path, short_scenario):
    outs = {}
    for name, flags in [
        ("full", []),
        ("blind", ["--no-vision"]),
        ("noext", ["--no-extension"]),
    ]:
        out = tmp_path / name
        assert main(["localize", short_scenario, "--out", str(out), *flags]) == 0
        outs[name] = (out / "trajectory.csv").read_bytes()
    assert outs["full"] != outs["blind"]
    assert outs["full"] != outs["noext"]
    assert outs["blind"] != outs["noext"]


def test_localize_monte_carlo_mode(tmp_path, short_scenario):
    out = tmp_path / "mc"
    assert main(["localize", short_scenario, "--out", str(out), "--runs", "2"]) == 0
    report = json.loads((out / "monte_carlo.json").read_text())
    assert report["runs"] == 2 and len(report["mean_nees"]) == 2


def test_localize_monte_carlo_mode_uses_the_map(tmp_path, short_scenario):
    def report(*extra):
        out = tmp_path / f"mc{len(extra)}"
        assert main(["localize", short_scenario, "--out", str(out), "--runs", "2", *extra]) == 0
        return (out / "monte_carlo.json").read_text()

    shifted = make_map(Scenario.load(short_scenario))
    for c in shifted.clusters:
        c.center = c.center + [30.0, 0.0, 0.0]
    save_map(shifted, tmp_path / "shifted.json")
    assert report("--map", str(tmp_path / "shifted.json")) != report()


def test_localize_write_frames(tmp_path, short_scenario):
    out = tmp_path / "wf"
    assert (
        main(["localize", short_scenario, "--out", str(out), "--write-frames"]) == 0
    )
    lines = (out / "frames.csv").read_text().splitlines()
    assert lines[0] == "t,detections,associated,extended,degenerate"
    assert len(lines) == 60 + 1


def test_evaluate_identical_files(tmp_path, short_scenario, capsys):
    out = tmp_path / "loc"
    assert main(["localize", short_scenario, "--out", str(out)]) == 0
    truth = str(out / "truth.csv")
    report = tmp_path / "ate.json"
    assert main(["evaluate", truth, truth, "--out", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["ate_trans"] == 0.0 and data["ate_rot_deg"] == 0.0


def test_evaluate_matches_pipeline_metrics(tmp_path, short_scenario, capsys):
    out = tmp_path / "loc"
    assert main(["localize", short_scenario, "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    report = tmp_path / "ate.json"
    assert (
        main(
            [
                "evaluate",
                str(out / "trajectory.csv"),
                str(out / "truth.csv"),
                "--out",
                str(report),
            ]
        )
        == 0
    )
    data = json.loads(report.read_text())
    # quaternion roundtrip through the CSV costs a little precision
    assert data["ate_trans"] == pytest.approx(metrics["ate_trans"], abs=1e-9)


def test_unknown_scenario_exits_1(tmp_path, capsys):
    assert main(["localize", "nosuch", "--out", str(tmp_path / "x")]) == 1
    assert "no such scenario" in capsys.readouterr().err


def test_evaluate_missing_file_exits_1(tmp_path, capsys):
    assert main(["evaluate", "missing_a.csv", "missing_b.csv"]) == 1
    assert "error:" in capsys.readouterr().err


_GOOD_ROWS = ["0.0,1.0,2.0,3.0,1.0,0.0,0.0,0.0", "0.1,1.5,2.0,3.0,0.0,0.0,0.0,1.0"]


@pytest.mark.parametrize(
    "row, named",
    [
        ("0.2,nan,2.0,3.0,1.0,0.0,0.0,0.0", "non-finite"),
        ("nan,1.0,2.0,3.0,1.0,0.0,0.0,0.0", "non-finite"),
        ("0.2,1.0,2.0,3.0,1.0,0.0,inf,0.0", "non-finite"),
        ("0.2,1.0,2.0,3.0,1.0,0.0,0.0", "7 fields"),
        ("0.2,1.0,2.0,3.0,1.0,0.0,0.0,0.0,0.0", "9 fields"),
        ("0.2,1.0,2.0,3.0,abc,0.0,0.0,0.0", "abc"),
        ("0.2,1.0,2.0,3.0,0.0,0.0,0.0,-0.0", "zero-norm quaternion"),
        ("0.1,1.0,2.0,3.0,1.0,0.0,0.0,0.0", "does not increase"),
        ("0.05,1.0,2.0,3.0,1.0,0.0,0.0,0.0", "does not increase"),
    ],
    ids=[
        "nan-x", "nan-t", "inf-quaternion", "short-row", "long-row",
        "not-a-number", "zero-quaternion", "repeated-time", "earlier-time",
    ],
)
def test_evaluate_rejects_malformed_trajectory_rows(tmp_path, capsys, row, named):
    good = tmp_path / "good.csv"
    good.write_text("\n".join([TRAJECTORY_HEADER, *_GOOD_ROWS]) + "\n")
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join([TRAJECTORY_HEADER, *_GOOD_ROWS, row]) + "\n")
    assert main(["evaluate", str(bad), str(good)]) == 1
    err = capsys.readouterr().err
    assert f"{bad}, line 4" in err and named in err
    assert main(["evaluate", str(good), str(bad)]) == 1


def test_localize_and_evaluate_never_load_scipy(tmp_path):
    script = """
import sys
import nightrider
from nightrider import cli, default_scenario, run_pipeline

sc = default_scenario()
sc.duration = 2.0
run_pipeline(sc)
doc, out = sys.argv[1], sys.argv[2]
sc.save(doc)
assert cli.main(["localize", doc, "--write-frames", "--out", out]) == 0
assert cli.main(["evaluate", out + "/trajectory.csv", out + "/truth.csv"]) == 0
assert cli.main(["simulate", doc, "--out", out + "/streams"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(nightrider.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "sc.json"), str(tmp_path / "out")],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.splitlines()[-1] == "[]"


# lamps around the start of the default figure-eight, some of them in view
_LAMPS_IN_VIEW = '"lamps": [[20, 20, 4], [20, 0, 4], [0, 20, 4], [30, 10, 4]]'


def _waypoints(times="[0, 20, 40]", points="[[0, 0, 0], [50, 10, 0], [100, 0, 0]]", closed=None):
    """A waypoints trajectory document with one key replaced."""
    extra = "" if closed is None else f', "closed": {closed}'
    return f'{{"kind": "waypoints", "times": {times}, "points": {points}{extra}}}'


@pytest.mark.parametrize(
    "document, named",
    [
        ('{"bogus": 1}', "bogus"),
        ("[1, 2]", "JSON object"),
        ('{"duration": "abc"}', "duration"),
        ('{"lamps": 5}', "lamps"),
        ('{"trajectory": 3}', "trajectory"),
        ('{"trajectory": {"kind": "circle"}}', "radius"),
        ('{"seed": 1.5}', "seed"),
        ('{"dropout": "a", %s}' % _LAMPS_IN_VIEW, "dropout"),
        ('{"pixel_sigma": "x", %s}' % _LAMPS_IN_VIEW, "pixel_sigma"),
        ('{"fx": NaN}', "fx"),
        ('{"lamps": [[NaN, 0, 4]]}', "lamps"),
        ('{"blackouts": [[5, 3]]}', "blackouts"),
        ('{"trajectory": {"kind": "circle", "radius": [1], "speed": 5}}', "radius"),
        ('{"trajectory": {"kind": "circle", "radius": 0, "speed": 5}}', "radius"),
        (
            '{"trajectory": {"kind": "figure-eight", "amp_x": 25, "amp_y": 12, "period": 0}}',
            "period",
        ),
        ('{"image_width": 0.5}', "image_width"),
        ('{"image_height": 19}', "image_height"),
        ('{"name": 5}', "name"),
        (
            '{"trajectory": {"kind": "circle", "radius": 20, "speed": 5, "height": [1]}}',
            "height",
        ),
        ('{"trajectory": {"kind": "line", "velocity": [2, 0, 0], "yaw": [1]}}', "yaw"),
        (
            '{"trajectory": {"kind": "circle", "radius": 20, "speed": 5, "phase": "x"}}',
            "phase",
        ),
        (
            '{"trajectory": {"kind": "circle", "radius": 20, "speed": 5, "center": [0, NaN]}}',
            "center",
        ),
        ('{"trajectory": {"kind": "line", "velocity": [2, 0, 0], "start": [0, 0]}}', "start"),
        ('{"trajectory": {"kind": "line", "velocity": [2, true, 0]}}', "velocity"),
        (
            '{"trajectory": {"kind": "figure-eight", "amp_x": 25, "amp_y": 12, "period": 40, '
            '"height": "1"}}',
            "height",
        ),
        ('{"fx": 0}', "fx"),
        ('{"false_positives": -1}', "false_positives"),
        ('{"dropout": 2}', "dropout"),
        ('{"pixel_sigma": -1}', "pixel_sigma"),
        ('{"lamp_size": -1}', "lamp_size"),
        ('{"gyro_bias0": [1]}', "gyro_bias0"),
        ('{"odom_sigma": -1}', "odom_sigma"),
        ('{"odom_sigma": 0}', "odom_sigma"),
        ('{"pixel_sigma": 0}', "pixel_sigma"),
        ('{"pixel_sigma": 1e-9}', "pixel_sigma"),
        ('{"bloom": -1}', "bloom"),
        ('{"accel_sigma": -1}', "accel_sigma"),
        ('{"trajectory": %s}' % _waypoints(points="[[0, 0], [50, 0]]"), "points"),
        ('{"trajectory": %s}' % _waypoints(times="[40, 0]"), "times"),
        ('{"trajectory": %s}' % _waypoints(times='["0", "40"]'), "times"),
        ('{"trajectory": %s}' % _waypoints(closed='"yes"'), "closed"),
        ('{"trajectory": %s}' % _waypoints(times="[0, 40]"), "points"),
        ('{"trajectory": %s}' % _waypoints(closed="true"), "closed"),
        ('{"trajectory": {"kind": "circle", "radius": 20, "speed": 5, "hieght": 3}}', "hieght"),
        ('{"trajectory": {"kind": "spiral"}}', "trajectory"),
        ('{"imu_rate": 5, "odom_rate": 5, "cam_rate": 5}', "imu_rate"),
        ('{"cam_rate": 1e12}', "cam_rate"),
        ('{"seed": -1}', "seed"),
        ('{"lamps": [["1", "2", "3"]]}', "lamps"),
        ('{"lamps": [[true, 0, 4]]}', "lamps"),
        ('{"false_positives": 1e12}', "false_positives"),
        ('{"duration": 1e9}', "duration"),
        ('{"duration": 5000, "imu_rate": 100, "odom_rate": 100, "cam_rate": 100}', "cam_rate"),
        ('{"image_width": 1000000000000}', "image_width"),
        (
            '{"trajectory": {"kind": "figure-eight", "amp_x": 25, "amp_y": 12, "period": 1e-262}}',
            "period",
        ),
        ('{"gyro_sigma": 1e300}', "gyro_sigma"),
        ('{"trajectory": {"kind": "circle", "radius": 20, "speed": 1e300}}', "speed"),
    ],
    ids=[
        "unknown-key",
        "not-an-object",
        "string-duration",
        "scalar-lamps",
        "scalar-trajectory",
        "circle-without-radius",
        "fractional-seed",
        "string-dropout",
        "string-pixel-sigma",
        "nan-fx",
        "nan-lamp",
        "reversed-blackout",
        "list-radius",
        "zero-radius",
        "zero-period",
        "fractional-width",
        "narrow-height",
        "numeric-name",
        "list-height",
        "list-yaw",
        "string-phase",
        "nan-center",
        "short-start",
        "bool-velocity",
        "string-figure-eight-height",
        "zero-fx",
        "negative-false-positives",
        "dropout-over-one",
        "negative-pixel-sigma",
        "negative-lamp-size",
        "short-gyro-bias",
        "negative-odom-sigma",
        "zero-odom-sigma",
        "zero-pixel-sigma",
        "tiny-pixel-sigma",
        "negative-bloom",
        "negative-accel-sigma",
        "planar-waypoints",
        "unsorted-waypoint-times",
        "string-waypoint-times",
        "string-closed",
        "waypoint-count-mismatch",
        "closed-loop-open",
        "unknown-trajectory-key",
        "unknown-trajectory-kind",
        "imu-rate-below-max-dt",
        "camera-faster-than-imu",
        "negative-seed",
        "string-lamp",
        "bool-lamp",
        "huge-false-positives",
        "huge-duration",
        "huge-frame-count",
        "huge-image-width",
        "tiny-period",
        "huge-gyro-sigma",
        "huge-speed",
    ],
)
def test_malformed_scenario_exits_1(tmp_path, capsys, document, named):
    path = tmp_path / "x.json"
    path.write_text(document)
    assert main(["localize", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and named in err  # the message names the fault


def test_localize_runs_zero_exits_1(tmp_path, capsys):
    assert main(["localize", "default", "--runs", "0", "--out", str(tmp_path)]) == 1
    assert "error: --runs must be at least 1" in capsys.readouterr().err


def test_localize_monte_carlo_refuses_write_frames(tmp_path, capsys, short_scenario):
    out = tmp_path / "mc"
    argv = ["localize", short_scenario, "--runs", "2", "--write-frames", "--out", str(out)]
    assert main(argv) == 1
    assert "error: --write-frames needs a single run" in capsys.readouterr().err
    assert not out.exists()
