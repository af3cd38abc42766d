"""Config resolution, experiment sweeps, and CSV emission."""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from beamlink import experiments
from beamlink.experiments import (
    DIMENSION_SWEEP,
    EXPERIMENTS,
    MAX_DIMENSION,
    MAX_NODES,
    MAX_SNR_POINTS,
    MAX_TRIALS,
    ConfigError,
    ExperimentConfig,
    ScenarioConfig,
    SnrGrid,
    emit_csv,
    load_config,
    run_experiment,
    serialize_config,
)
from beamlink.linksim import LinkConfig, run_trials
from beamlink.metrics import Estimate, MetricPoint, MetricSeries, packet_error_rate, uncoded_stream_params
from beamlink.topology import build_scenario


# small, fast sandbox config: one fading link, short packets
FAST_SCENARIO = {
    "node_count": 1,
    "packet_bits": 32,
    "dimension": 2,
}


def fast_config(**top):
    overrides = {"trials": 12, "seed": 99, "snr": {"start": 4.0, "stop": 4.0, "step": 1.0}}
    overrides.update(top)
    overrides.setdefault("scenario", FAST_SCENARIO)
    return load_config(overrides=overrides)


class TestLoadConfig:
    def test_all_defaults(self):
        cfg = load_config()
        assert cfg.experiment == "custom"
        assert cfg.trials == 200
        assert cfg.seed == 12345
        assert cfg.output == "results.csv"
        assert cfg.workers == 1
        assert cfg.scenario == ScenarioConfig()

    def test_experiment_defaults_applied(self):
        cfg = load_config(overrides={"experiment": "per_vs_distance"})
        assert cfg.snr.start == 120.0 and cfg.snr.stop == 120.0
        assert cfg.trials == 1200
        sc = cfg.scenario
        assert sc.transmission_mode == "diversity"
        assert sc.own_point_distance == 4.0
        assert sc.nakagami_m == 0.5
        assert sc.packet_bits == 192
        assert sc.range_radius == 12.0

    def test_override_beats_file_beats_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "per_vs_distance", "trials": 7, "seed": 3}))
        cfg = load_config(str(path), overrides={"trials": 9})
        assert cfg.trials == 9  # override wins
        assert cfg.seed == 3  # file wins over defaults
        assert cfg.snr.start == 120.0  # experiment default fills the silence

    def test_scenario_override_merges_with_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": {"nakagami_m": 2.0}}))
        cfg = load_config(str(path), overrides={"scenario": {"dimension": 4}})
        assert cfg.scenario.nakagami_m == 2.0
        assert cfg.scenario.dimension == 4

    def test_resolution_happens_at_load_time(self):
        # resolved configs carry explicit values, not experiment markers
        cfg = load_config(overrides={"experiment": "ber_vs_dimension"})
        assert cfg.scenario.node_count == 1
        assert cfg.scenario.include_interference is False

    @pytest.mark.parametrize(
        "raw, fragment",
        [
            ({"bogus": 1}, "bogus"),
            ({"scenario": {"antennas": 2}}, "antennas"),
            ({"snr": {"start": 0.0, "end": 4.0}}, "end"),
            ({"experiment": "nope"}, "nope"),
        ],
    )
    def test_unknown_fields_are_named(self, tmp_path, raw, fragment):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=fragment):
            load_config(str(path))

    def test_unknown_override_key_rejected(self):
        with pytest.raises(ConfigError, match="snr_start"):
            load_config(overrides={"snr_start": 3.0})

    @pytest.mark.parametrize(
        "raw, fragment",
        [
            ({"trials": 0}, "trials"),
            ({"workers": 0}, "workers"),
            ({"output": ""}, "output"),
            ({"snr": {"start": 0.0, "stop": 4.0, "step": 0.0}}, "step"),
            ({"snr": {"start": 5.0, "stop": 4.0, "step": 1.0}}, "stop"),
            ({"scenario": {"modulation": "pam"}}, "modulation"),
            ({"scenario": {"dimension": 0}}, "dimension"),
            ({"scenario": {"nakagami_m": 0.2}}, "nakagami_m"),
            ({"scenario": {"transmission_mode": "beam"}}, "transmission_mode"),
            ({"scenario": {"per_formula": "magic"}}, "per_formula"),
            ({"scenario": {"packet_bits": 3}}, "packet_bits"),
            ({"snr": {"start": 0.0, "stop": 1000.0, "step": 1e-4}}, "snr.step"),
            ({"experiment": "capacity_vs_nodes", "snr": None}, "snr"),
        ],
    )
    def test_bad_values_are_named(self, tmp_path, raw, fragment):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=fragment):
            load_config(str(path))

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"trials": 5,\n  "seed": }\n')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/beamlink.json")

    @pytest.mark.parametrize("content", [None, b"\xff\xfe{}"], ids=["directory", "not-utf8"])
    def test_unreadable_file(self, tmp_path, content):
        path = tmp_path
        if content is not None:
            path = tmp_path / "cfg.json"
            path.write_bytes(content)
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_config(str(path))

    def test_root_must_be_object(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigError, match="object"):
            load_config(str(path))

    def test_explicit_nodes_parsed(self, tmp_path):
        raw = {
            "scenario": {
                "nodes": [
                    {"id": 0, "x": 0.0, "y": 0.0, "radius": 6.0},
                    {"id": 1, "x": 4.0, "y": 0.0, "radius": 6.0, "power": 2.0},
                ],
                "measured_pair": [0, 1],
            }
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        cfg = load_config(str(path))
        assert cfg.scenario.nodes == ((0, 0.0, 0.0, 6.0, 1.0), (1, 4.0, 0.0, 6.0, 2.0))
        assert cfg.scenario.measured_pair == (0, 1)

    def test_duplicate_node_ids_rejected(self, tmp_path):
        raw = {
            "scenario": {
                "nodes": [
                    {"id": 0, "x": 0.0, "y": 0.0, "radius": 6.0},
                    {"id": 0, "x": 4.0, "y": 0.0, "radius": 6.0},
                ]
            }
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(str(path))

    @pytest.mark.parametrize("count", [MAX_NODES + 1, 10**5])
    def test_node_count_bounded_before_any_build(self, monkeypatch, count):
        def build_scenario(*args, **kwargs):
            raise AssertionError("a network was built")

        monkeypatch.setattr(experiments, "build_scenario", build_scenario)
        with pytest.raises(ConfigError, match="'scenario.node_count'"):
            load_config(overrides={"scenario": {"node_count": count}})
        nodes = [{"id": i, "x": 10.0 * i, "y": 0.0, "radius": 6.0} for i in range(count)]
        with pytest.raises(ConfigError, match="'scenario.nodes'"):
            load_config(overrides={"scenario": {"nodes": nodes}})

    def test_trial_budget_bounded_over_points_and_values(self):
        # loading runs no trial, so a budget past the bound is safe to try
        one_point = {"snr": {"start": 0.0}, "scenario": {"packet_bits": 32}}
        assert load_config(overrides={**one_point, "trials": MAX_TRIALS}).trials == MAX_TRIALS
        for overrides in (
            {**one_point, "trials": MAX_TRIALS + 1},
            # the generic grid has 6 points
            {"trials": MAX_TRIALS // 6 + 1},
            # capacity_vs_nodes runs 3 node counts at one point
            {"experiment": "capacity_vs_nodes", "trials": MAX_TRIALS // 3 + 1},
            {"trials": 10**11},
        ):
            with pytest.raises(ConfigError, match="'trials'"):
                load_config(overrides=overrides)
        assert load_config(overrides={"trials": MAX_TRIALS // 6}).trials == MAX_TRIALS // 6

    def test_node_entry_missing_coordinate(self, tmp_path):
        raw = {"scenario": {"nodes": [{"id": 0, "y": 0.0, "radius": 6.0}]}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="'x'"):
            load_config(str(path))

    def test_serialize_round_trip(self, tmp_path):
        cfg = load_config(
            overrides={
                "experiment": "per_vs_modulation",
                "trials": 33,
                "seed": 5,
                "scenario": {"nakagami_m": 2.5, "packet_bits": 64},
            }
        )
        path = tmp_path / "echo.json"
        path.write_text(serialize_config(cfg))
        again = load_config(str(path))
        assert again == cfg

    def test_serialize_round_trip_with_nodes(self, tmp_path):
        cfg = load_config(
            overrides={
                "scenario": {
                    "nodes": [
                        {"id": 0, "x": 0.0, "y": 0.0, "radius": 6.0},
                        {"id": 1, "x": 4.0, "y": 0.0, "radius": 6.0},
                    ],
                    "measured_pair": [0, 1],
                }
            }
        )
        path = tmp_path / "echo.json"
        path.write_text(serialize_config(cfg))
        assert load_config(str(path)) == cfg

    def test_modulation_name_is_folded(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": {"modulation": "QPSK"}}))
        cfg = load_config(str(path))
        assert cfg.scenario.modulation == "qpsk"
        assert json.loads(serialize_config(cfg))["scenario"]["modulation"] == "qpsk"


# resolved configs whose serialized text and scenario hashes are pinned: a
# change to either changes every run's recorded config, so it must be deliberate
PINNED_CONFIGS = {
    "explicit-nodes": (
        {
            "trials": 50,
            "seed": 7,
            "snr": {"start": 2.0, "stop": 6.0},
            "scenario": {
                "nodes": [
                    {"id": 0, "x": 0.0, "y": 0.0, "radius": 6.0},
                    {"id": 1, "x": 4.0, "y": 0.0, "radius": 6.0, "power": 2.0},
                ],
                "measured_pair": [1, 0],
            },
        },
        "0cff26cf9958622a7c58e21b00d5895fc35512f4eaef157668fdd3441b5b94de",
        ["5c42758a0dff"],
    ),
    "line-layout": (
        {
            "experiment": "capacity_vs_nodes",
            "scenario": {"node_spacing": 9.0, "range_radius": 5.0, "modulation": "QPSK"},
        },
        "1ced2442d6de85396dcdfc008cfff3d6e21f818ef87eccf0adf836b5a4c0c75c",
        ["1497f18effab", "db6a1db806d3", "4c4111930829"],
    ),
}


class TestResolvedConfigText:
    @pytest.mark.parametrize("name", PINNED_CONFIGS)
    def test_pinned_digests(self, name):
        raw, text_sha256, scenario_hashes = PINNED_CONFIGS[name]
        cfg = load_config(overrides=raw)
        assert hashlib.sha256(serialize_config(cfg).encode()).hexdigest() == text_sha256
        assert [experiments._scenario_hash(sc) for _, _, sc, _, _ in cfg.runs] == (
            scenario_hashes
        )


class TestRuns:
    CAPACITY = {"experiment": "capacity_vs_nodes", "trials": 2, "scenario": {"packet_bits": 32}}

    def test_each_sweep_value_built_once(self, monkeypatch):
        built = []

        def counting(*args, **kwargs):
            built.append(len(args[0]))
            return build_scenario(*args, **kwargs)

        monkeypatch.setattr(experiments, "build_scenario", counting)
        run_experiment(load_config(overrides=self.CAPACITY))
        assert built == [2, 4, 8]

    def test_runs_are_not_a_field(self):
        cfg = load_config(overrides=self.CAPACITY)
        assert [(name, value) for name, value, *_ in cfg.runs] == [
            ("node_count", 2.0), ("node_count", 4.0), ("node_count", 8.0)
        ]
        assert "runs" not in asdict(cfg)
        assert "runs" not in json.loads(serialize_config(cfg))
        same = replace(cfg)
        assert same == cfg and hash(same) == hash(cfg)
        # a replaced config builds its own runs: 6 m disks 20 m apart do not overlap
        apart = replace(cfg, scenario=replace(cfg.scenario, node_spacing=20.0))
        assert all(network.overlaps for *_, network, _ in cfg.runs)
        assert not any(network.overlaps for *_, network, _ in apart.runs)

    def test_default_link_is_link_configs_default(self):
        # LinkConfig repeats ScenarioConfig's link defaults; the two must agree
        cfg = load_config()
        assert cfg.runs[0][4] == LinkConfig(snr_db=cfg.snr_points())

    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_every_experiment_loads_at_max_dimension(self, name):
        # MAX_CHANNEL_ENTRIES leaves room for every named sweep at the most antennas
        scenario = {"dimension": MAX_DIMENSION, "packet_bits": 64 * MAX_DIMENSION}
        cfg = load_config(overrides={"experiment": name, "scenario": scenario})
        assert cfg.scenario.dimension == MAX_DIMENSION and cfg.runs


class TestSnrGrid:
    @pytest.mark.parametrize(
        "snr, points",
        [
            # a grid without a stop is the single point at its start
            ({"start": 3}, (3.0,)),
            ({"step": 1}, (0.0,)),
            ({"stop": 4}, (0.0, 2.0, 4.0)),
        ],
    )
    def test_partial_grid(self, snr, points):
        assert load_config(overrides={"snr": snr}).snr_points() == points

    def test_no_grid_anywhere(self):
        assert load_config().snr_points() == (0.0, 2.0, 4.0, 6.0, 8.0, 10.0)

    def test_partial_grid_replaces_experiment_default_whole(self, tmp_path):
        # capacity_vs_nodes defaults to 5:5:1; the file's grid takes none of it
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "capacity_vs_nodes", "snr": {"stop": 6.0}}))
        cfg = load_config(str(path))
        assert cfg.snr == SnrGrid(0.0, 6.0, 2.0)
        assert cfg.snr_points() == (0.0, 2.0, 4.0, 6.0)


class TestSnrPoints:
    def test_inclusive_grid(self):
        cfg = ExperimentConfig(snr=SnrGrid(0.0, 10.0, 2.0))
        assert cfg.snr_points() == (0.0, 2.0, 4.0, 6.0, 8.0, 10.0)

    def test_single_point(self):
        cfg = ExperimentConfig(snr=SnrGrid(5.0, 5.0, 1.0))
        assert cfg.snr_points() == (5.0,)

    def test_fractional_step(self):
        cfg = ExperimentConfig(snr=SnrGrid(0.0, 1.5, 0.5))
        pts = cfg.snr_points()
        assert len(pts) == 4
        assert pts[-1] == pytest.approx(1.5)

    def test_point_cap(self):
        fast = {"scenario": {"packet_bits": 32}}
        step = 0.0625
        stop = (MAX_SNR_POINTS - 1) * step
        cfg = load_config(overrides={**fast, "snr": {"start": 0.0, "stop": stop, "step": step}})
        assert len(cfg.snr_points()) == MAX_SNR_POINTS
        with pytest.raises(ConfigError, match="'snr.step'"):
            load_config(overrides={**fast, "snr": {"start": 0.0, "stop": stop + step, "step": step}})


class TestRunExperiment:
    def test_deterministic_repeat(self):
        cfg = fast_config()
        first = run_experiment(cfg)
        second = run_experiment(cfg)
        assert len(first) == len(second) == 1
        for a, b in zip(first[0].points, second[0].points):
            assert a.ber == b.ber
            assert a.per == b.per
            assert a.capacity == b.capacity

    def test_sweep_structure(self):
        cfg = fast_config(experiment="ber_vs_dimension", scenario=dict(FAST_SCENARIO))
        series = run_experiment(cfg)
        assert [s.param_value for s in series] == [float(d) for d in DIMENSION_SWEEP]
        for s in series:
            assert s.param_name == "dimension"
            assert len(s.points) == 1
            assert s.trials == cfg.trials and s.seed == cfg.seed
            assert len(s.scenario_hash) == 12
        # different scenario per dimension must hash differently
        assert series[0].scenario_hash != series[1].scenario_hash

    def test_per_model_matches_formula(self):
        cfg = fast_config(scenario={**FAST_SCENARIO, "per_formula": "conventional"})
        series = run_experiment(cfg)
        pt = series[0].points[0]
        exponents = uncoded_stream_params(32, bits_per_symbol=1, streams=2)
        assert pt.per_model is not None
        assert pt.per_model.value == pytest.approx(
            packet_error_rate(pt.ser.value, exponents, "conventional", min_distance=2.0)
        )

    def test_per_model_literal_mode(self):
        cfg = fast_config(scenario={**FAST_SCENARIO, "per_formula": "literal"})
        pt = run_experiment(cfg)[0].points[0]
        exponents = uncoded_stream_params(32, bits_per_symbol=1, streams=2)
        assert pt.per_model.value == pytest.approx(
            packet_error_rate(pt.ser.value, exponents, "literal", min_distance=2.0)
        )

    def test_custom_single_series(self):
        cfg = fast_config()
        series = run_experiment(cfg)
        assert series[0].param_name == "custom"
        assert series[0].param_value == 0.0

    def test_diversity_sweep_worker_count_invariance(self, tmp_path):
        # ber_vs_dimension's diversity link at full packet length, the path
        # that detects with one stream over 2304-symbol blocks
        def csv_bytes(workers):
            cfg = load_config(overrides={
                "experiment": "ber_vs_dimension",
                "trials": 5,
                "seed": 21,
                "workers": workers,
                "snr": {"start": 0.0, "stop": 6.0, "step": 6.0},
            })
            assert cfg.scenario.transmission_mode == "diversity"
            assert cfg.scenario.packet_bits == 2304
            path = tmp_path / f"w{workers}.csv"
            emit_csv(run_experiment(cfg), str(path))
            return path.read_bytes()

        assert csv_bytes(1) == csv_bytes(2)

    @pytest.mark.parametrize("node_count", [2, 8])
    def test_high_tx_power_erases_nothing(self, node_count):
        # g scales as 1 / tx_power (about 1e-18 here), so a fixed floor on
        # the normalization would erase every trial of this valid scenario
        cfg = fast_config(scenario={"node_count": node_count, "packet_bits": 32, "tx_power": 1e20})
        [(_, _, _, scenario, link)] = cfg.runs
        [point] = run_trials([(scenario, link)], cfg.trials, cfg.seed)
        assert point.stats.erasures == 0
        assert np.isfinite(point.capacity_samples).all()


def toy_series() -> list[MetricSeries]:
    est = lambda v: Estimate(value=v, ci_low=v / 2, ci_high=min(1.0, 2 * v + 1e-6))
    points = [
        MetricPoint(snr_db=snr, capacity=est(0.3), ber=est(0.1), ser=est(0.1), per=est(0.5),
                    per_model=est(0.4))
        for snr in (4.0, 0.0)
    ]
    mk = lambda val: MetricSeries(
        param_name="node_count", param_value=val, points=list(points), seed=1, trials=10,
        scenario_hash="abc123def456",
    )
    return [mk(4.0), mk(2.0)]


class TestEmitCsv:
    HEADER = "snr_db,param_name,param_value,metric,value,ci_low,ci_high,trials,seed"

    def test_header_and_row_count(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(toy_series(), str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == self.HEADER
        assert len(lines) == 1 + 2 * 2 * 5  # series x snr points x metrics

    def test_rows_sorted_by_snr_param_metric(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(toy_series(), str(path))
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        keys = [(float(r[0]), float(r[2]), r[3]) for r in rows]
        assert keys == sorted(keys)
        assert [r[3] for r in rows[:5]] == ["ber", "capacity", "per", "per_model", "ser"]

    def test_reemission_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(toy_series(), str(a))
        emit_csv(toy_series(), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_full_precision_floats(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(toy_series(), str(path))
        value_field = path.read_text().splitlines()[1].split(",")[4]
        mantissa = value_field.split("e")[0]
        assert len(mantissa.split(".")[1]) == 16

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no series"):
            emit_csv([], str(tmp_path / "out.csv"))

    def test_returns_the_rows_it_wrote(self, tmp_path):
        path = tmp_path / "out.csv"
        n_rows = emit_csv(toy_series(), str(path))
        assert n_rows == len(path.read_text().splitlines()) - 1 == 2 * 2 * 5

    def test_trailing_newline(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(toy_series(), str(path))
        assert path.read_bytes().endswith(b"\n")


class TestExperimentRegistry:
    def test_all_experiments_resolvable(self):
        for name in EXPERIMENTS:
            cfg = load_config(overrides={"experiment": name})
            assert cfg.experiment == name
            assert math.isfinite(cfg.snr.start)
