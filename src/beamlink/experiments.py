"""Experiment orchestration: config loading, figure-analogue sweeps, CSV output.

Config files are JSON.  Field resolution order is: CLI override > explicit
value in the file > experiment-specific default > generic default, and it
happens entirely at load time, so a loaded config is fully resolved and
serializing it round-trips exactly.  The dataclasses are the schema: each
field's generic default, JSON type and bounds are declared once, on its
field (see _spec), and the JSON objects snr and scenario are SnrGrid and
ScenarioConfig.  Each named experiment is declared once, in _EXPERIMENTS.
"""
from __future__ import annotations

import hashlib
import json
import math
import operator
import os
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from functools import cached_property
from itertools import islice

import numpy as np

from beamlink.linksim import _BATCH_TRIALS, MODULATIONS, LinkConfig, run_trials
from beamlink.channel import NakagamiParams
from beamlink.metrics import (
    Estimate,
    MetricPoint,
    MetricSeries,
    estimate_rates,
    mean_confidence,
    packet_error_rate,
    uncoded_stream_params,
)
from beamlink.topology import NetworkScenario, Node, ScenarioError, build_scenario

__all__ = [
    "ConfigError",
    "SnrGrid",
    "ScenarioConfig",
    "ExperimentConfig",
    "EXPERIMENTS",
    "load_config",
    "serialize_config",
    "run_experiment",
    "emit_csv",
]


class ConfigError(ValueError):
    """Configuration parse or validation failure (CLI exit code 1)."""


NODE_COUNT_SWEEP = (2, 4, 8)
SPACING_SWEEP = (5.0, 8.0, 11.0)
DIMENSION_SWEEP = (2, 4)

# each named experiment: the scenario field it sweeps, the values it takes,
# and its defaults, applied only where the config is silent
_EXPERIMENTS: dict[str, tuple[str, tuple, dict]] = {
    "capacity_vs_nodes": ("node_count", NODE_COUNT_SWEEP, {
        "snr": {"start": 5.0, "stop": 5.0, "step": 1.0}, "trials": 600
    }),
    # interference-limited operating point: the network normalization grows
    # like the inverse cross-link gain, so the transmit-referenced snr must be
    # large before thermal noise stops masking the interference floor.  The
    # receive point sits 4 m from its transmitter at every spacing, so the
    # interferer recedes 1 -> 4 -> 7 m across the sweep; worst-case fading
    # (m = 0.5) keeps the failure tail measurable.  Diversity mode avoids
    # inverting the driven effective channel, whose condition number is large
    # by construction.
    "per_vs_distance": ("node_spacing", SPACING_SWEEP, {
        "snr": {"start": 120.0, "stop": 120.0, "step": 1.0},
        "trials": 1200,
        "scenario": {
            "transmission_mode": "diversity",
            "range_radius": 12.0,
            "own_point_distance": 4.0,
            "nakagami_m": 0.5,
            "packet_bits": 192,
        },
    }),
    # single fading link: order constellations by their noise margin without
    # the coordinated-pair normalization dominating the comparison.
    "per_vs_modulation": ("modulation", tuple(MODULATIONS), {
        "snr": {"start": 0.0, "stop": 14.0, "step": 2.0},
        "trials": 400,
        "scenario": {"node_count": 1},
    }),
    # single fading link so the diversity order of the antenna count is
    # visible at moderate snr; a coordinated pair would bury the 8-12 dB
    # window under the network normalization.
    "ber_vs_dimension": ("dimension", DIMENSION_SWEEP, {
        "snr": {"start": 0.0, "stop": 14.0, "step": 2.0},
        "trials": 1500,
        "scenario": {
            "transmission_mode": "diversity",
            "include_interference": False,
            "node_count": 1,
            "nakagami_m": 1.0,
        },
    }),
    # runs the scenario as given, as the one value of a sweep named custom
    "custom": ("custom", (), {}),
}
EXPERIMENTS = tuple(_EXPERIMENTS)


_BOUND_CHECKS = {">=": operator.ge, ">": operator.gt, "<=": operator.le}
# largest magnitude of a length or coordinate (m): distances between nodes
# laid out at such lengths stay far from overflow when squared
MAX_LENGTH = 1e150
# most points an snr grid may hold: every point runs the full trial budget
MAX_SNR_POINTS = 10_000
# largest magnitude of an snr (dB): 10 ** (snr / 10) stays far from
# overflow and underflow
MAX_SNR_DB = 1000.0
# most nodes a scenario may hold: building a network checks all n^2/2 node pairs
MAX_NODES = 1000
# most trials a run may hold over its snr points and sweep values: run_trials
# keeps 8 bytes of capacity samples per trial, about 800 MB at this bound
MAX_TRIALS = 10**8
# most antennas: a task holds each of its up to 256 trials' channels, M^2 per
# draw, so capacity_vs_nodes peaks at about 590 MB at this bound
MAX_DIMENSION = 32
# most bits a packet may hold: a chunk holds at least one packet's bits and
# normals, so a 3-node chain peaks at about 50 MB at this bound
MAX_PACKET_BITS = 100_000
# most channel entries a task may hold: each of its up to _BATCH_TRIALS
# trials draws M^2 complex entries per channel, at most four channels per
# overlap and one per other node, and solving the pairs peaks near 73 bytes
# per entry, so about 730 MB at this bound (capacity_vs_nodes at
# MAX_DIMENSION counts 9.4 million)
MAX_CHANNEL_ENTRIES = 10_000_000
# largest power scale (tx_power, a node's power, nakagami_omega), whose
# inverse 1e-50 is the smallest: with the +-1000 dB snr bound, a transmit-
# referenced SNR stays within 2000 dB of unit (path gain is not bounded)
MAX_POWER_SCALE = 1e50


def _spec(default=MISSING, kind=float, *, ge=None, gt=None, le=None, choices=None, fold=False):
    """A config field: its default, and how load_config reads it from JSON.

    kind is the JSON type: float takes any finite number, int an integer,
    bool true or false, str a non-empty string (or one of choices, compared
    lower-cased when fold), tuple a pair of distinct integers kept sorted,
    and a dataclass a list of 1 to MAX_NODES objects with that dataclass's
    fields, each kept as a tuple.  Numbers must be >= ge, > gt and <= le.
    A field whose default is None also takes null; one without a default
    is required.
    """
    bounds = tuple((op, b) for op, b in ((">=", ge), (">", gt), ("<=", le)) if b is not None)
    return field(
        default=default,
        metadata={"kind": kind, "bounds": bounds, "choices": choices, "fold": fold},
    )


@dataclass(frozen=True)
class _NodeEntry:
    """Shape of one entry of ScenarioConfig.nodes, stored as a tuple in this order."""

    id: int = _spec(kind=int)
    x: float = _spec(ge=-MAX_LENGTH, le=MAX_LENGTH)
    y: float = _spec(ge=-MAX_LENGTH, le=MAX_LENGTH)
    radius: float = _spec(gt=0.0, le=MAX_LENGTH)
    power: float = _spec(1.0, ge=1e-50, le=MAX_POWER_SCALE)


@dataclass(frozen=True)
class ScenarioConfig:
    """Physical-layer and topology settings shared by every trial of a run."""

    dimension: int = _spec(2, int, ge=1, le=MAX_DIMENSION)
    modulation: str = _spec("bpsk", str, choices=tuple(MODULATIONS), fold=True)
    packet_bits: int = _spec(2304, int, ge=1, le=MAX_PACKET_BITS)
    # the log-gamma moments lose precision beyond m ~ 1e6
    nakagami_m: float = _spec(1.0, ge=0.5, le=1e6)
    nakagami_omega: float = _spec(1.0, ge=1e-50, le=MAX_POWER_SCALE)
    rotation_angle: float = _spec(math.pi)
    path_loss_exponent: float = _spec(3.0, ge=0.0)
    reference_distance: float = _spec(1.0, gt=0.0, le=MAX_LENGTH)
    node_count: int = _spec(2, int, ge=1, le=MAX_NODES)
    node_spacing: float = _spec(10.0, gt=0.0, le=MAX_LENGTH)
    range_radius: float = _spec(6.0, gt=0.0, le=MAX_LENGTH)
    tx_power: float = _spec(1.0, ge=1e-50, le=MAX_POWER_SCALE)
    per_formula: str = _spec("conventional", str, choices=("conventional", "literal"))
    transmission_mode: str = _spec("multiplexing", str, choices=("multiplexing", "diversity"))
    include_interference: bool = _spec(True, bool)
    identity_channel: bool = _spec(False, bool)
    own_point_distance: float | None = _spec(None, gt=0.0, le=MAX_LENGTH)
    nodes: tuple[tuple[int, float, float, float, float], ...] | None = _spec(None, _NodeEntry)
    measured_node: int | None = _spec(None, int)
    measured_pair: tuple[int, int] | None = _spec(None, tuple)


@dataclass(frozen=True)
class SnrGrid:
    """The snr points start, start + step, ... up to stop, in dB."""

    start: float = _spec(0.0, ge=-MAX_SNR_DB, le=MAX_SNR_DB)
    stop: float = _spec(10.0, ge=-MAX_SNR_DB, le=MAX_SNR_DB)
    step: float = _spec(2.0, gt=0.0)

    def count(self) -> float:
        """Points of the grid; inf when the count overflows."""
        steps = (self.stop - self.start) / self.step + 1e-9
        return math.floor(steps) + 1 if math.isfinite(steps) else math.inf


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved run: experiment, sweep, budget, seed, output."""

    experiment: str = _spec("custom", str, choices=EXPERIMENTS)
    snr: SnrGrid = SnrGrid()
    trials: int = _spec(200, int, ge=1)
    seed: int = _spec(12345, int, ge=0)
    output: str = _spec("results.csv", str)
    workers: int = _spec(1, int, ge=1)
    scenario: ScenarioConfig = ScenarioConfig()

    def snr_points(self) -> tuple[float, ...]:
        return tuple(self.snr.start + k * self.snr.step for k in range(self.snr.count()))

    @cached_property
    def runs(self) -> tuple[tuple[str, float, ScenarioConfig, NetworkScenario, LinkConfig], ...]:
        """(param_name, param_value, scenario, network, link) of each value the
        sweep runs, built and checked on first use (load_config makes it) and
        kept; a value the sweep replaces is not checked.  Not a field, so
        asdict, serialize_config, equality and hashing ignore it."""
        name, values, _ = _EXPERIMENTS[self.experiment]
        if self.scenario.nodes is not None and name in ("node_count", "node_spacing"):
            raise ConfigError(
                f"field 'scenario.nodes' cannot be given to {self.experiment}, "
                f"which sweeps scenario.{name}"
            )
        sweep = [("custom", 0.0, self.scenario)] if name == "custom" else [
            # a modulation is valued by its bits per symbol
            (name, float(MODULATIONS[v].bits_per_symbol if name == "modulation" else v),
             replace(self.scenario, **{name: v}))
            for v in values
        ]
        runs = []
        for param_name, param_value, sc in sweep:
            where = "" if param_name == "custom" else f" (with {param_name} = {param_value:g})"
            fading = None if sc.identity_channel else NakagamiParams(sc.nakagami_m, sc.nakagami_omega)
            try:
                # the field specs leave LinkConfig only the packet/stream split to reject
                link = LinkConfig(
                    snr_db=self.snr_points(),
                    dimension=sc.dimension,
                    modulation=MODULATIONS[sc.modulation],
                    packet_bits=sc.packet_bits,
                    fading=fading,
                    rotation_angle=sc.rotation_angle,
                    mode=sc.transmission_mode,
                    include_interference=sc.include_interference,
                )
            except ValueError as e:
                raise ConfigError(f"field 'scenario.packet_bits' must split evenly: {e}{where}") from None
            # the explicit nodes, or node_count nodes node_spacing apart on the x axis
            entries = sc.nodes if sc.nodes is not None else [
                (i, i * sc.node_spacing, 0.0, sc.range_radius, sc.tx_power)
                for i in range(sc.node_count)
            ]
            nodes = [
                Node(id=nid, position=np.array([x, y]), range_radius=radius, tx_power=power)
                for nid, x, y, radius, power in entries
            ]
            try:
                network = build_scenario(
                    nodes,
                    path_loss_exponent=sc.path_loss_exponent,
                    reference_distance=sc.reference_distance,
                    own_point_distance=sc.own_point_distance,
                    measured_pair=sc.measured_pair,
                    measured_node=sc.measured_node,
                )
            except ScenarioError as e:  # the field specs leave only the network rules to reject
                raise ConfigError(f"field 'scenario.{e.field}': {e}{where}") from None
            draws = 4 * len(network.pairs) + len(nodes) if network.pairs else 1
            trials = min(self.trials, _BATCH_TRIALS)
            if trials * draws * sc.dimension**2 > MAX_CHANNEL_ENTRIES:
                raise ConfigError(
                    f"field 'scenario' must give tasks of at most {MAX_CHANNEL_ENTRIES} channel "
                    f"entries, got {trials * draws * sc.dimension**2}: up to {draws} draws of "
                    f"{sc.dimension}x{sc.dimension} channels for each of {trials} trials{where}"
                )
            runs.append((param_name, param_value, sc, network, link))
        return tuple(runs)


_TOP_KEYS = {f.name for f in fields(ExperimentConfig)}
_NODE_KEYS = tuple(f.name for f in fields(_NodeEntry))


def _check_keys(mapping: dict, allowed, where: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown field {key!r} in {where}; expected one of {sorted(allowed)}")


def _read(f, value, name: str):
    """One JSON value checked and converted by the spec of field f."""
    spec, kind = f.metadata, f.metadata["kind"]
    if value is None and f.default is None:
        return None
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"field {name!r} must be true or false, got {value!r}")
    elif kind is str:
        if spec["fold"] and isinstance(value, str):
            value = value.lower()
        if spec["choices"] is not None and value not in spec["choices"]:
            raise ConfigError(f"field {name!r} must be one of {list(spec['choices'])}, got {value!r}")
        if not isinstance(value, str) or not value:
            raise ConfigError(f"field {name!r} must be a non-empty string, got {value!r}")
    elif kind is tuple:
        if (
            not isinstance(value, (list, tuple))
            or len(value) != 2
            or any(isinstance(v, bool) or not isinstance(v, int) for v in value)
            or value[0] == value[1]
        ):
            raise ConfigError(f"field {name!r} must be a pair of distinct node ids, got {value!r}")
        value = (min(value), max(value))
    elif is_dataclass(kind):
        if not isinstance(value, list) or not 0 < len(value) <= MAX_NODES:
            raise ConfigError(f"field {name!r} must be a list of 1 to {MAX_NODES} objects")
        value = tuple(
            tuple(_read_fields(kind, entry, f"{name}[{i}]").values())
            for i, entry in enumerate(value)
        )
    elif kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"field {name!r} must be an integer, got {value!r}")
    else:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"field {name!r} must be a number, got {value!r}")
        # an integer beyond the float range reads as infinite instead of overflowing
        value = math.inf if abs(value) > sys.float_info.max else float(value)
        if not math.isfinite(value):
            raise ConfigError(f"field {name!r} must be a finite number, got {value!r}")
    for op, bound in spec["bounds"]:
        if not _BOUND_CHECKS[op](value, bound):
            raise ConfigError(f"field {name!r} must be {op} {bound}, got {value!r}")
    return value


def _read_fields(cls, raw, where: str) -> dict:
    """Every spec'd field of cls, read from the JSON object raw or defaulted."""
    if not isinstance(raw, dict):
        raise ConfigError(f"field {where!r} must be an object")
    specs = [f for f in fields(cls) if "kind" in f.metadata]
    _check_keys(raw, {f.name for f in specs}, where)
    values = {}
    for f in specs:
        if f.name in raw:
            values[f.name] = _read(f, raw[f.name], f"{where}.{f.name}" if where else f.name)
        elif f.default is MISSING:
            raise ConfigError(f"field {where!r} is missing {f.name!r}")
        else:
            values[f.name] = f.default
    return values


def _resolve(raw: dict, overrides: dict | None) -> ExperimentConfig:
    overrides = overrides or {}
    _check_keys(raw, _TOP_KEYS, "config")
    _check_keys(overrides, _TOP_KEYS, "overrides")
    experiment = _read(
        ExperimentConfig.__dataclass_fields__["experiment"],
        overrides.get("experiment", raw.get("experiment", ExperimentConfig.experiment)),
        "experiment",
    )

    # later layers win; scenario objects merge field by field, snr is taken whole
    top: dict = {}
    scenario: dict = {}
    for layer in (_EXPERIMENTS[experiment][2], raw, overrides):
        top.update(layer)
        part = layer.get("scenario", {})
        if not isinstance(part, dict):
            raise ConfigError("field 'scenario' must be an object")
        scenario.update(part)
    top.pop("scenario", None)
    snr = top.pop("snr", asdict(SnrGrid()))
    if not isinstance(snr, dict):
        raise ConfigError(f"field 'snr' must be an object with {sorted(f.name for f in fields(SnrGrid))}")
    # no snr anywhere is the generic grid; one without a stop is the single point at its start
    grid = SnrGrid(**_read_fields(SnrGrid, {"stop": snr.get("start", SnrGrid.start), **snr}, "snr"))

    values = _read_fields(ExperimentConfig, top, "")
    if grid.stop < grid.start:
        raise ConfigError(f"field 'snr.stop' must be >= snr.start, got {grid.stop} < {grid.start}")
    # the CSV is written after every trial has run, so its path is checked now
    output = values["output"]
    if os.path.isdir(output):
        raise ConfigError(f"field 'output' must name a file, got the directory {output!r}")
    if not os.path.isdir(os.path.dirname(output) or os.curdir):
        raise ConfigError(f"field 'output' must be in an existing directory, got {output!r}")
    if grid.count() > MAX_SNR_POINTS:
        raise ConfigError(f"field 'snr.step' must give at most {MAX_SNR_POINTS} snr points, got {grid.count()}")
    # every snr point of every sweep value runs the full trial budget
    most = MAX_TRIALS // (grid.count() * (len(_EXPERIMENTS[experiment][1]) or 1))
    if values["trials"] > most:
        raise ConfigError(f"field 'trials' must be <= {most} for this snr grid and sweep, got {values['trials']}")
    config = ExperimentConfig(
        **values,
        snr=grid,
        scenario=ScenarioConfig(**_read_fields(ScenarioConfig, scenario, "scenario")),
    )
    config.runs  # builds and checks every sweep value now, and keeps them for the run
    return config


def load_config(path: str | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Load and fully validate a JSON config; overrides win over file fields.

    With path=None an all-defaults config (plus overrides) is produced.
    Every sweep value is built and checked here, and kept as config.runs.
    """
    raw: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as e:
            raise ConfigError(f"config parse error at line {e.lineno}, column {e.colno}: {e.msg}") from None
        except (OSError, ValueError) as e:  # unreadable path, bad encoding, oversized integer
            raise ConfigError(f"cannot read config file {path}: {e}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
    return _resolve(raw, overrides)


def serialize_config(config: ExperimentConfig) -> str:
    """JSON text that reloads to an equal config (all fields explicit)."""
    payload = asdict(config)
    sc = payload["scenario"]
    if sc["nodes"] is not None:
        sc["nodes"] = [dict(zip(_NODE_KEYS, n)) for n in sc["nodes"]]
    return json.dumps(payload, indent=2, sort_keys=True)


def _scenario_hash(sc: ScenarioConfig) -> str:
    blob = json.dumps(asdict(sc), sort_keys=True, default=list)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def run_experiment(config: ExperimentConfig) -> list[MetricSeries]:
    """Run the configured experiment's sweep; one MetricSeries per value.

    It builds nothing: one run_trials call runs the trials of every value
    of config.runs, as load_config built and checked them, on one pool for
    more than one worker.  Estimation walks its flat result in sweep order,
    so an SNR point whose trials were all erased is reported at the first
    value and point that has one, but only after every value's trials ran.
    """
    point_results = iter(
        run_trials(
            [(scenario, link) for *_, scenario, link in config.runs],
            config.trials,
            config.seed,
            workers=config.workers,
        )
    )
    out = []
    for param_name, param_value, sc, _, link in config.runs:
        exponents = uncoded_stream_params(
            sc.packet_bits, link.modulation.bits_per_symbol, link.streams
        )
        points = []
        for pr in islice(point_results, len(link.snr_db)):
            if pr.stats.erasures == pr.stats.packets_sent:
                raise RuntimeError(
                    f"{param_name} = {param_value:g} at snr {pr.snr_db:g} dB: "
                    f"all {pr.stats.packets_sent} trials erased, nothing to estimate"
                )
            rates = estimate_rates(pr.stats)
            ser = rates["ser"]
            # bracket the analytic value by evaluating at the SER interval ends
            model, *ends = (
                packet_error_rate(s, exponents, sc.per_formula, link.modulation.min_distance)
                for s in (ser.value, ser.ci_low, ser.ci_high)
            )
            per_model = Estimate(value=model, ci_low=min(*ends, model), ci_high=max(*ends, model))
            points.append(
                MetricPoint(
                    snr_db=pr.snr_db,
                    capacity=mean_confidence(pr.capacity_samples),
                    per_model=per_model,
                    **rates,
                )
            )
        series = MetricSeries(
            param_name=param_name,
            param_value=param_value,
            points=points,
            seed=config.seed,
            trials=config.trials,
            scenario_hash=_scenario_hash(sc),
        )
        out.append(series)
    return out


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def emit_csv(series: list[MetricSeries], path: str) -> int:
    """Write the deterministic CSV in one write: a row per estimate field of
    each MetricPoint, stably sorted by snr, parameter value and metric name.
    Returns the number of rows written, the header not counted."""
    if not series:
        raise ValueError("no series to emit")
    estimates = [f.name for f in fields(MetricPoint) if f.name != "snr_db"]
    rows = [
        (
            (p.snr_db, s.param_value, name),
            f"{_fmt(p.snr_db)},{s.param_name},{_fmt(s.param_value)},{name},{_fmt(est.value)},"
            f"{_fmt(est.ci_low)},{_fmt(est.ci_high)},{s.trials},{s.seed}\n",
        )
        for s in series
        for p in s.points
        for name in estimates
        for est in [getattr(p, name)]
    ]
    rows.sort(key=lambda row: row[0])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("snr_db,param_name,param_value,metric,value,ci_low,ci_high,trials,seed\n"
                 + "".join(line for _, line in rows))
    return len(rows)
