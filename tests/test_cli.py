"""CLI flow: flag parsing, exit codes, and the CSV it writes."""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from beamlink import cli, experiments
from beamlink.cli import _parse_snr, build_parser, main
from beamlink.experiments import ConfigError, ExperimentConfig


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


FAST = {"scenario": {"node_count": 1, "packet_bits": 32}}


class TestParseSnr:
    def test_valid(self):
        assert _parse_snr("0:10:2") == {"start": 0.0, "stop": 10.0, "step": 2.0}

    @pytest.mark.parametrize("text", ["5", "0:10", "0:10:2:4", "a:b:c"])
    def test_invalid(self, text):
        with pytest.raises(ConfigError):
            _parse_snr(text)


class TestExitCodes:
    def test_success_writes_csv_and_reports(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        cfg = write_config(tmp_path, FAST)
        rc = main(
            ["--config", cfg, "--trials", "5", "--seed", "2", "--snr", "0:0:1",
             "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert f"custom: wrote 5 rows to {out}" in captured.out
        lines = out.read_text().splitlines()
        assert len(lines) == 6  # header + 1 snr point x 5 metrics

    def test_config_error_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"trials": -3})
        rc = main(["--config", cfg])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("config error:")
        assert "trials" in captured.err

    def test_bad_snr_flag_exits_1(self, capsys):
        rc = main(["--snr", "0:10"])
        assert rc == 1
        assert "start:stop:step" in capsys.readouterr().err

    def test_missing_config_exits_1(self, capsys):
        rc = main(["--config", "/nonexistent/path.json"])
        assert rc == 1
        assert "not found" in capsys.readouterr().err

    def test_runtime_error_exits_2(self, tmp_path, capsys, monkeypatch):
        # an I/O failure when the CSV is written, after a valid config ran
        def disk_full(series, path):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "emit_csv", disk_full)
        cfg = write_config(tmp_path, FAST)
        out = tmp_path / "x.csv"
        rc = main(["--config", cfg, "--trials", "3", "--snr", "0:0:1", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("runtime error:")

    def test_overflowing_power_exits_1_before_any_trial(self, tmp_path, capsys, monkeypatch):
        # at this power and snr the interference plus noise term would
        # underflow on 155 of 200 trials, an infinite capacity; the power
        # bound (MAX_POWER_SCALE) refuses it at load time instead
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(experiments, "run_trials", no_trials)
        cfg = write_config(tmp_path, {
            "trials": 200, "seed": 12345, "snr": {"start": 1000.0},
            "scenario": {"node_count": 1, "tx_power": 1e209, "packet_bits": 32},
        })
        out = tmp_path / "x.csv"
        rc = main(["--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "config error: field 'scenario.tx_power' must be <= 1e+50, got 1e+209\n"
        assert not out.exists()

    def test_unheard_network_exits_1_before_any_trial(self, tmp_path, capsys, monkeypatch):
        # two nodes 1e100 m apart with 1e100 m disks at a 100 m reference
        # distance: the path gain at a receive point is about 1e-294, so at
        # -1000 dB sigma2 W W^H overflowed and the run exited 2 with
        # "Eigenvalues did not converge"; the received-snr bound
        # (MIN_RECEIVED_SNR_DB), on each node's farthest drawn channel (5e99
        # m), refuses it at load time instead
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(experiments, "run_trials", no_trials)
        cfg = write_config(tmp_path, {
            "trials": 3, "snr": {"start": -1000.0},
            "scenario": {"reference_distance": 100.0, "range_radius": 1e100, "modulation": "qpsk",
                         "node_spacing": 1e100},
        })
        out = tmp_path / "x.csv"
        rc = main(["--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == (
            "config error: field 'scenario' must give every node a received snr of at least "
            "-2000 dB at its farthest channel, got -3930.97 dB for node 0 at snr -1000 dB\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("radius", [1e100, 1e150])
    def test_close_nodes_with_huge_disks_exit_0(self, tmp_path, capsys, radius):
        # every channel is drawn within 1 m of its sender, so the received-snr
        # bound passes although path_gain(radius) is about 1e-300 or, at
        # 1e150, underflows to 0
        cfg = write_config(tmp_path, {
            "trials": 2, "snr": {"start": 0.0},
            "scenario": {"node_spacing": 1.0, "range_radius": radius, "packet_bits": 8},
        })
        out = tmp_path / "x.csv"
        rc = main(["--config", cfg, "--out", str(out)])
        assert rc == 0
        assert f"custom: wrote 5 rows to {out}" in capsys.readouterr().out

    def test_near_tangent_nodes_exit_0(self, tmp_path, capsys):
        # the radii sum to the nodes' distance, which norm(axis=1) puts one
        # ulp lower: the disks are tangent, so the run is a single link
        cfg = write_config(tmp_path, {
            "trials": 2, "snr": {"start": 0.0},
            "scenario": {"packet_bits": 8, "nodes": [
                {"id": 0, "x": 9.699, "y": 41.769, "radius": 41.74885945846977},
                {"id": 1, "x": 18.963, "y": 0.036, "radius": 1.0},
            ]},
        })
        out = tmp_path / "x.csv"
        rc = main(["--config", cfg, "--out", str(out)])
        assert rc == 0
        assert f"custom: wrote 5 rows to {out}" in capsys.readouterr().out
        assert len(out.read_text().splitlines()) == 6

NONFINITE_FIELDS = (
    "nakagami_omega",
    "rotation_angle",
    "node_spacing",
    "range_radius",
    "path_loss_exponent",
    "reference_distance",
)
BAD_INPUTS = [
    (["--snr", "nan:1:1"], {}, "snr.start"),
    (["--snr", "0:1:nan"], {}, "snr.step"),
    (["--snr", "0:inf:1"], {}, "snr.stop"),
    (["--seed", "-1"], {}, "seed"),
    ([], {"nakagami_m": 1e308}, "scenario.nakagami_m"),
    ([], {"nakagami_m": math.nan}, "scenario.nakagami_m"),
    ([], {"nakagami_m": 1e8}, "scenario.nakagami_m"),
    ([], {"measured_pair": [0, 0]}, "scenario.measured_pair"),
    ([], {"tx_power": 10**400}, "scenario.tx_power"),
    ([], {"nodes": [{"id": 0, "x": 0.0, "y": 0.0, "radius": -1.0}]}, "scenario.nodes[0].radius"),
] + [
    ([], {name: value}, f"scenario.{name}")
    for name in NONFINITE_FIELDS
    for value in (math.nan, math.inf)
] + [
    # scenarios that only a sweep value or the built network rules out
    (
        ["--experiment", "ber_vs_dimension"],
        {"transmission_mode": "multiplexing", "packet_bits": 6},
        "scenario.packet_bits",
    ),
    (
        ["--experiment", "capacity_vs_nodes"],
        {"node_count": 8, "measured_node": 5},
        "scenario.measured_node",
    ),
    ([], {"node_count": 3, "measured_pair": [0, 2]}, "scenario.measured_pair"),
    ([], {"node_spacing": 20.0, "measured_pair": [0, 1]}, "scenario.measured_pair"),
    ([], {"node_count": 3, "measured_pair": [0, 1], "measured_node": 2}, "scenario.measured_node"),
    (
        [],
        {"nodes": [{"id": i, "x": 0.0, "y": 0.0, "radius": 6.0} for i in (0, 1)]},
        "scenario.nodes",
    ),
    # receive points outside the overlap lens (4, 6) m of the default pair
    ([], {"own_point_distance": 6.5}, "scenario.own_point_distance"),
    ([], {"own_point_distance": 100.0}, "scenario.own_point_distance"),
] + [
    # finite lengths whose squares would overflow
    ([], {name: 1e300}, f"scenario.{name}")
    for name in ("node_spacing", "range_radius", "reference_distance", "own_point_distance")
] + [
    ([], {"nodes": [{"id": 0, "x": 0.0, "y": 0.0, "radius": 6.0, key: value}]}, f"scenario.nodes[0].{key}")
    for key, value in (("x", 1e300), ("y", -1e300), ("radius", 1e300))
] + [
    # a grid whose point count overflows a float
    (["--snr=-1000:1000:1e-306"], {}, "snr.step"),
] + [
    # an output the CSV could not be written to, found before any trial runs
    (["--out", ""], {}, "output"),
    (["--out", "/nonexistent/dir/x.csv"], {}, "output"),
    (["--out", "."], {}, "output"),
] + [
    # snrs whose linear power would overflow or underflow at run time
    (["--snr=4000:4000:1"], {}, "snr.start"),
    (["--snr=-4000:-4000:1"], {}, "snr.start"),
] + [
    # measured-link selectors naming a node the network does not have
    ([], {"measured_pair": [0, 9]}, "scenario.measured_pair"),
    ([], {"measured_node": 9}, "scenario.measured_node"),
    ([], {"node_count": 1, "measured_node": 4}, "scenario.measured_node"),
] + [
    # explicit nodes leave nothing for a node count or spacing sweep to lay out
    (
        ["--experiment", "capacity_vs_nodes"],
        {"nodes": [{"id": i, "x": 10.0 * i, "y": 0.0, "radius": 6.0} for i in (0, 1)]},
        "scenario.nodes",
    ),
    (
        ["--experiment", "per_vs_distance"],
        {"nodes": [{"id": i, "x": 10.0 * i, "y": 0.0, "radius": 12.0} for i in (0, 1)]},
        "scenario.nodes",
    ),
] + [
    # sizes whose arrays would not fit in memory (MAX_DIMENSION, MAX_PACKET_BITS)
    ([], {"dimension": 33}, "scenario.dimension"),
    ([], {"packet_bits": 100_001}, "scenario.packet_bits"),
    # a valid network too dense for a task's channels (MAX_CHANNEL_ENTRIES):
    # 44,850 overlaps, so up to 179,700 draws for each of 256 trials
    (
        ["--trials", "256", "--snr", "0:0:1"],
        {"node_count": 300, "node_spacing": 0.01, "range_radius": 10.0, "packet_bits": 8},
        "scenario",
    ),
] + [
    # power scales whose SINR would overflow, or whose subnormal power would
    # leave NaN slicer statistics behind a written CSV (MAX_POWER_SCALE)
    (
        ["--trials", "200", "--seed", "12345", "--snr", "1000:1000:1"],
        {"node_count": 1, "tx_power": 1e209},
        "scenario.tx_power",
    ),
    (
        ["--trials", "20", "--seed", "12345", "--snr", "0:0:1"],
        {"node_count": 1, "tx_power": 1e-320},
        "scenario.tx_power",
    ),
    ([], {"node_count": 1, "nakagami_omega": 1e209}, "scenario.nakagami_omega"),
    ([], {"nodes": [{"id": 0, "x": 0.0, "y": 0.0, "radius": 6.0, "power": 1e-60}]}, "scenario.nodes[0].power"),
]


class TestBadInputExits1:
    @pytest.mark.parametrize(
        "flags, scenario, field",
        BAD_INPUTS,
        ids=[f"{i}-{field}" for i, (_, _, field) in enumerate(BAD_INPUTS)],
    )
    def test_named_config_error(self, tmp_path, capsys, flags, scenario, field):
        # json.dumps writes NaN and Infinity, which json.load reads back
        cfg = write_config(tmp_path, {"scenario": {"packet_bits": 32, **scenario}})
        rc = main(["--config", cfg, "--trials", "2", "--out", str(tmp_path / "x.csv"), *flags])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("config error:")
        assert f"'{field}'" in err
        assert not (tmp_path / "x.csv").exists()

    def test_trial_budget_is_bounded(self, tmp_path, capsys, monkeypatch):
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(experiments, "run_trials", no_trials)
        cfg = write_config(tmp_path, {"scenario": {"packet_bits": 32}})
        rc = main(["--config", cfg, "--trials", "100000000000", "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("config error:") and "'trials'" in err

    def test_value_the_sweep_replaces_is_not_checked(self, tmp_path, capsys):
        # 8 bits do not split into 3 streams, but the sweep runs dimensions 2 and 4
        cfg = write_config(
            tmp_path,
            {"scenario": {"dimension": 3, "transmission_mode": "multiplexing", "packet_bits": 8}},
        )
        rc = main(["--config", cfg, "--experiment", "ber_vs_dimension", "--trials", "2",
                   "--snr", "0:0:1", "--out", str(tmp_path / "x.csv")])
        capsys.readouterr()
        assert rc == 0


class TestErasedPoint:
    def test_all_trials_erased_is_named(self, tmp_path, capsys):
        # a valid config whose every trial is erased: an outcome, so exit 2;
        # identity channels make each pair's coupling singular
        cfg = write_config(tmp_path, {"scenario": {"packet_bits": 32, "identity_channel": True}})
        rc = main(["--config", cfg, "--trials", "3", "--snr", "4:4:1",
                   "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("runtime error:")
        assert "custom = 0 at snr 4 dB: all 3 trials erased" in err

    def test_first_erased_value_is_named_on_a_pool(self, tmp_path, capsys):
        # every value runs before any is estimated; the first one is named
        cfg = write_config(tmp_path, {
            "experiment": "capacity_vs_nodes", "trials": 5, "workers": 2,
            "scenario": {"identity_channel": True},
        })
        rc = main(["--config", cfg, "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "node_count = 2 at snr 5 dB: all 5 trials erased" in err


class TestFlagPrecedence:
    def test_flags_override_file(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        cfg = write_config(tmp_path, {**FAST, "seed": 1, "trials": 4})
        rc = main(["--config", cfg, "--seed", "2", "--snr", "0:0:1", "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert all(r[-1] == "2" for r in rows)  # seed column
        assert all(r[-2] == "4" for r in rows)  # trials from file survive

    def test_snr_grid_sets_row_count(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        cfg = write_config(tmp_path, FAST)
        rc = main(["--config", cfg, "--trials", "3", "--snr", "0:4:2", "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        assert len(out.read_text().splitlines()) == 1 + 3 * 5

    def test_experiment_flag_selects_sweep(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        cfg = write_config(tmp_path, {"scenario": {"node_count": 1, "packet_bits": 32}})
        rc = main(
            ["--config", cfg, "--experiment", "ber_vs_dimension", "--trials", "3",
             "--snr", "0:0:1", "--out", str(out)]
        )
        assert rc == 0
        capsys.readouterr()
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert {r[1] for r in rows} == {"dimension"}
        assert {r[2] for r in rows} == {f"{2.0:.16e}", f"{4.0:.16e}"}


class TestParser:
    def test_flags_are_named_after_config_fields(self):
        # main passes each flag on as the override of the field its dest names
        top = {f.name for f in fields(ExperimentConfig)}
        dests = [
            action.dest
            for action in build_parser()._actions
            if action.option_strings and action.dest not in ("help", "config")
        ]
        assert dests and [d for d in dests if d not in top] == []

    def test_experiment_choices_are_closed(self):
        parser = build_parser()
        with pytest.raises(ConfigError):
            parser.parse_args(["--experiment", "bogus"])

    @pytest.mark.parametrize(
        "flags",
        [["--trials", "abc"], ["--seed", "1.5"], ["--experiment", "bogus"], ["--bogus", "1"]],
    )
    def test_malformed_flag_exits_1(self, capsys, flags):
        rc = main(flags)
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("config error:")
        assert flags[0] in captured.err
        assert "usage" not in captured.err

    def test_module_entry_point(self):
        # the child finds the package where the tests found it, installed or not
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "beamlink.cli", "--help"],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert "usage" in proc.stdout.lower()
