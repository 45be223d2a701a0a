import json

import numpy as np
import pytest

from nightrider.cli import main
from nightrider.mapping import load_map
from nightrider.sim import Scenario, default_scenario, simulate_streams


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

    for name, samples, fields in (
        ("imu.csv", streams.imu, lambda s: [s.t, *s.gyro, *s.accel]),
        ("odom.csv", streams.odom, lambda s: [s.t, *s.velocity]),
    ):
        rows = (out / name).read_text().splitlines()[1:]
        written = np.array([[float(v) for v in r.split(",")] for r in rows])
        expected = np.array([fields(s) for s in samples])
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


@pytest.mark.parametrize(
    "document",
    ['{"bogus": 1}', "[1, 2]", '{"duration": "abc"}'],
    ids=["unknown-key", "not-an-object", "string-duration"],
)
def test_malformed_scenario_exits_1(tmp_path, capsys, document):
    path = tmp_path / "x.json"
    path.write_text(document)
    assert main(["localize", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "error:" in capsys.readouterr().err
