"""Experiment orchestration: config loading, figure-analogue sweeps, CSV output.

Config files are JSON.  Field resolution order is: CLI override > explicit
value in the file > experiment-specific default > generic default, and it
happens entirely at load time, so a loaded config is fully resolved and
serializing it round-trips exactly.  Each field's generic default, JSON
type and bounds are declared once, on its dataclass field (see _spec).
"""
from __future__ import annotations

import hashlib
import json
import math
import operator
import os
import sys
from collections.abc import Iterator
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace

import numpy as np

from beamlink.linksim import LinkConfig, measured_roles, modulation_by_name, run_trials
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
from beamlink.topology import (
    NetworkScenario,
    Node,
    build_scenario,
    detect_overlaps,
    lens_center_distance,
    lens_interval,
)

__all__ = [
    "ConfigError",
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


EXPERIMENTS = (
    "capacity_vs_nodes",
    "per_vs_distance",
    "per_vs_modulation",
    "ber_vs_dimension",
    "custom",
)

NODE_COUNT_SWEEP = (2, 4, 8)
SPACING_SWEEP = (5.0, 8.0, 11.0)
MODULATION_SWEEP = ("bpsk", "qpsk")
DIMENSION_SWEEP = (2, 4)


_BOUND_CHECKS = {">=": operator.ge, ">": operator.gt, "<=": operator.le}
# largest magnitude of a length or coordinate (m): distances between nodes
# laid out at such lengths stay far from overflow when squared
MAX_LENGTH = 1e150
# most points an snr grid may hold: every point runs the full trial budget
MAX_SNR_POINTS = 10_000
# largest magnitude of an snr (dB): 10 ** (snr / 10) stays far from
# overflow and underflow
MAX_SNR_DB = 1000.0


def _spec(
    default=MISSING, kind=float, *, ge=None, gt=None, le=None, choices=None, fold=False, key=None
):
    """A config field: its default, and how load_config reads it from JSON.

    kind is the JSON type: float takes any finite number, int an integer,
    bool true or false, str a non-empty string (or one of choices, compared
    lower-cased when fold), tuple a pair of distinct integers kept sorted,
    and a dataclass a non-empty list of objects with that dataclass's
    fields, each kept as a tuple.  Numbers must be >= ge, > gt and <= le.
    A field whose default is None also takes null; one without a default
    is required.  key is the dotted JSON path where it is not the name.
    """
    bounds = tuple((op, b) for op, b in ((">=", ge), (">", gt), ("<=", le)) if b is not None)
    return field(
        default=default,
        metadata={"kind": kind, "bounds": bounds, "choices": choices, "fold": fold, "key": key},
    )


@dataclass(frozen=True)
class _NodeEntry:
    """Shape of one entry of ScenarioConfig.nodes, stored as a tuple in this order."""

    id: int = _spec(kind=int)
    x: float = _spec(ge=-MAX_LENGTH, le=MAX_LENGTH)
    y: float = _spec(ge=-MAX_LENGTH, le=MAX_LENGTH)
    radius: float = _spec(gt=0.0, le=MAX_LENGTH)
    power: float = _spec(1.0, gt=0.0)


@dataclass(frozen=True)
class ScenarioConfig:
    """Physical-layer and topology settings shared by every trial of a run."""

    dimension: int = _spec(2, int, ge=1)
    modulation: str = _spec("bpsk", str, choices=("bpsk", "qpsk"), fold=True)
    packet_bits: int = _spec(2304, int, ge=1)
    # the log-gamma moments lose precision beyond m ~ 1e6
    nakagami_m: float = _spec(1.0, ge=0.5, le=1e6)
    nakagami_omega: float = _spec(1.0, gt=0.0)
    rotation_angle: float = _spec(math.pi)
    path_loss_exponent: float = _spec(3.0, ge=0.0)
    reference_distance: float = _spec(1.0, gt=0.0, le=MAX_LENGTH)
    node_count: int = _spec(2, int, ge=1)
    node_spacing: float = _spec(10.0, gt=0.0, le=MAX_LENGTH)
    range_radius: float = _spec(6.0, gt=0.0, le=MAX_LENGTH)
    tx_power: float = _spec(1.0, gt=0.0)
    per_formula: str = _spec("conventional", str, choices=("conventional", "literal"))
    transmission_mode: str = _spec("multiplexing", str, choices=("multiplexing", "diversity"))
    include_interference: bool = _spec(True, bool)
    identity_channel: bool = _spec(False, bool)
    own_point_distance: float | None = _spec(None, gt=0.0, le=MAX_LENGTH)
    nodes: tuple[tuple[int, float, float, float, float], ...] | None = _spec(None, _NodeEntry)
    measured_node: int | None = _spec(None, int)
    measured_pair: tuple[int, int] | None = _spec(None, tuple)


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved run: experiment, sweep, budget, seed, output."""

    experiment: str = _spec("custom", str, choices=EXPERIMENTS)
    snr_start: float = _spec(0.0, ge=-MAX_SNR_DB, le=MAX_SNR_DB, key="snr.start")
    snr_stop: float = _spec(10.0, ge=-MAX_SNR_DB, le=MAX_SNR_DB, key="snr.stop")
    snr_step: float = _spec(2.0, gt=0.0, key="snr.step")
    trials: int = _spec(200, int, ge=1)
    seed: int = _spec(12345, int, ge=0)
    output: str = _spec("results.csv", str)
    workers: int = _spec(1, int, ge=1)
    scenario: ScenarioConfig = ScenarioConfig()

    def snr_points(self) -> tuple[float, ...]:
        count = _snr_count(self.snr_start, self.snr_stop, self.snr_step)
        return tuple(self.snr_start + k * self.snr_step for k in range(count))


def _snr_count(start: float, stop: float, step: float) -> float:
    """Points of the grid start, start + step, ... up to stop; inf on overflow."""
    steps = (stop - start) / step + 1e-9
    return math.floor(steps) + 1 if math.isfinite(steps) else math.inf


# experiment-specific defaults, applied only where the config is silent
_EXPERIMENT_DEFAULTS: dict[str, dict] = {
    "capacity_vs_nodes": {
        "snr": {"start": 5.0, "stop": 5.0, "step": 1.0},
        "trials": 600,
    },
    # interference-limited operating point: the network normalization grows
    # like the inverse cross-link gain, so the transmit-referenced snr must be
    # large before thermal noise stops masking the interference floor.  The
    # receive point sits 4 m from its transmitter at every spacing, so the
    # interferer recedes 1 -> 4 -> 7 m across the sweep; worst-case fading
    # (m = 0.5) keeps the failure tail measurable.  Diversity mode avoids
    # inverting the driven effective channel, whose condition number is large
    # by construction.
    "per_vs_distance": {
        "snr": {"start": 120.0, "stop": 120.0, "step": 1.0},
        "trials": 1200,
        "scenario": {
            "transmission_mode": "diversity",
            "range_radius": 12.0,
            "own_point_distance": 4.0,
            "nakagami_m": 0.5,
            "packet_bits": 192,
        },
    },
    # single fading link: order constellations by their noise margin without
    # the coordinated-pair normalization dominating the comparison.
    "per_vs_modulation": {
        "snr": {"start": 0.0, "stop": 14.0, "step": 2.0},
        "trials": 400,
        "scenario": {"node_count": 1},
    },
    # single fading link so the diversity order of the antenna count is
    # visible at moderate snr; a coordinated pair would bury the 8-12 dB
    # window under the network normalization.
    "ber_vs_dimension": {
        "snr": {"start": 0.0, "stop": 14.0, "step": 2.0},
        "trials": 1500,
        "scenario": {
            "transmission_mode": "diversity",
            "include_interference": False,
            "node_count": 1,
            "nakagami_m": 1.0,
        },
    },
    "custom": {},
}

# JSON path of each ExperimentConfig field; the accepted top-level and snr keys follow
_FIELD_BY_KEY = {f.metadata.get("key") or f.name: f.name for f in fields(ExperimentConfig)}
_TOP_KEYS = {key.partition(".")[0] for key in _FIELD_BY_KEY}
_SNR_KEYS = {key[len("snr.") :] for key in _FIELD_BY_KEY if key.startswith("snr.")}
_NODE_KEYS = tuple(f.name for f in fields(_NodeEntry))


def _fail(msg: str) -> None:
    raise ConfigError(msg)


def _check_keys(mapping: dict, allowed, where: str) -> None:
    for key in mapping:
        if key not in allowed:
            _fail(f"unknown field {key!r} in {where}; expected one of {sorted(allowed)}")


def _read(f, value, name: str):
    """One JSON value checked and converted by the spec of field f."""
    spec, kind = f.metadata, f.metadata["kind"]
    if value is None and f.default is None:
        return None
    if kind is bool:
        if not isinstance(value, bool):
            _fail(f"field {name!r} must be true or false, got {value!r}")
    elif kind is str:
        if spec["fold"] and isinstance(value, str):
            value = value.lower()
        if spec["choices"] is not None and value not in spec["choices"]:
            _fail(f"field {name!r} must be one of {list(spec['choices'])}, got {value!r}")
        if not isinstance(value, str) or not value:
            _fail(f"field {name!r} must be a non-empty string, got {value!r}")
    elif kind is tuple:
        if (
            not isinstance(value, (list, tuple))
            or len(value) != 2
            or any(isinstance(v, bool) or not isinstance(v, int) for v in value)
            or value[0] == value[1]
        ):
            _fail(f"field {name!r} must be a pair of distinct node ids, got {value!r}")
        value = (min(value), max(value))
    elif is_dataclass(kind):
        if not isinstance(value, list) or not value:
            _fail(f"field {name!r} must be a non-empty list of objects")
        value = tuple(
            tuple(_read_fields(kind, entry, f"{name}[{i}]").values()) for i, entry in enumerate(value)
        )
    elif kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            _fail(f"field {name!r} must be an integer, got {value!r}")
    else:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            _fail(f"field {name!r} must be a number, got {value!r}")
        # an integer beyond the float range reads as infinite instead of overflowing
        value = math.inf if abs(value) > sys.float_info.max else float(value)
        if not math.isfinite(value):
            _fail(f"field {name!r} must be a finite number, got {value!r}")
    for op, bound in spec["bounds"]:
        if not _BOUND_CHECKS[op](value, bound):
            _fail(f"field {name!r} must be {op} {bound}, got {value!r}")
    return value


def _read_fields(cls, raw, where: str) -> dict:
    """Every spec'd field of cls, read from the JSON object raw or defaulted."""
    if not isinstance(raw, dict):
        _fail(f"field {where!r} must be an object")
    specs = [f for f in fields(cls) if "kind" in f.metadata]
    _check_keys(raw, {f.name for f in specs}, where)
    values = {}
    for f in specs:
        if f.name in raw:
            name = f.metadata["key"] or (f"{where}.{f.name}" if where else f.name)
            values[f.name] = _read(f, raw[f.name], name)
        elif f.default is MISSING:
            _fail(f"field {where!r} is missing {f.name!r}")
        else:
            values[f.name] = f.default
    return values


def _check_scenario(sc: ScenarioConfig) -> None:
    """The rules that tie scenario fields to each other."""
    ids = [n[0] for n in sc.nodes] if sc.nodes is not None else list(range(sc.node_count))
    if len(set(ids)) != len(ids):
        _fail(f"duplicate node ids in 'scenario.nodes': {ids}")
    measured = {"measured_node": [sc.measured_node], "measured_pair": sc.measured_pair or []}
    for name, picked in measured.items():
        for nid in picked:
            if nid is not None and nid not in ids:
                _fail(f"field 'scenario.{name}' references unknown node {nid}")


def _runs(
    config: ExperimentConfig,
) -> Iterator[tuple[str, float, ScenarioConfig, NetworkScenario, LinkConfig]]:
    """Build and check the network and link of each scenario the sweep runs,
    one sweep value at a time; load_config walks them all, so one that
    cannot run fails there rather than mid-run.  A value the sweep replaces
    is not checked."""
    snr_points = config.snr_points()
    for param_name, param_value, sc in _sweep(config):
        where = "" if param_name == "custom" else f" (with {param_name} = {param_value:g})"
        try:
            # the field specs leave LinkConfig only the packet/stream split to reject
            link = _build_link(sc, snr_points)
        except ValueError as e:
            _fail(f"field 'scenario.packet_bits' must split evenly: {e}{where}")
        try:
            _check_scenario(sc)
            scenario = _build_network(sc)
        except ConfigError as e:
            _fail(f"{e}{where}")
        # the pair alone first, so the error names the field at fault
        for name, node in (("measured_pair", None), ("measured_node", sc.measured_node)):
            try:
                measured_roles(scenario, sc.measured_pair, node)
            except ValueError as e:
                _fail(f"field 'scenario.{name}': {e}{where}")
        yield param_name, param_value, sc, scenario, link


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
    for layer in (_EXPERIMENT_DEFAULTS[experiment], raw, overrides):
        top.update(layer)
        part = layer.get("scenario", {})
        if not isinstance(part, dict):
            _fail("field 'scenario' must be an object")
        scenario.update(part)
    top.pop("scenario", None)
    if "snr" in top:
        snr = top.pop("snr")
        if not isinstance(snr, dict):
            _fail(f"field 'snr' must be an object with {sorted(_SNR_KEYS)}")
        _check_keys(snr, _SNR_KEYS, "snr")
        # a partial grid without a stop is the single point at its start
        snr = {"stop": snr.get("start", ExperimentConfig.snr_start), **snr}
        top.update({_FIELD_BY_KEY[f"snr.{k}"]: v for k, v in snr.items()})

    values = _read_fields(ExperimentConfig, top, "")
    if values["snr_stop"] < values["snr_start"]:
        _fail(
            f"field 'snr.stop' must be >= snr.start, got {values['snr_stop']} < {values['snr_start']}"
        )
    # the CSV is written after every trial has run, so its path is checked now
    output = values["output"]
    if os.path.isdir(output):
        _fail(f"field 'output' must name a file, got the directory {output!r}")
    if not os.path.isdir(os.path.dirname(output) or os.curdir):
        _fail(f"field 'output' must be in an existing directory, got {output!r}")
    count = _snr_count(values["snr_start"], values["snr_stop"], values["snr_step"])
    if count > MAX_SNR_POINTS:
        _fail(f"field 'snr.step' must give at most {MAX_SNR_POINTS} snr points, got {count}")
    config = ExperimentConfig(
        **values, scenario=ScenarioConfig(**_read_fields(ScenarioConfig, scenario, "scenario"))
    )
    for _ in _runs(config):
        pass
    return config


def load_config(path: str | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Load and fully validate a JSON config; overrides win over file fields.

    With path=None an all-defaults config (plus overrides) is produced.
    """
    raw: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            _fail(f"config file not found: {path}")
        except json.JSONDecodeError as e:
            _fail(f"config parse error at line {e.lineno}, column {e.colno}: {e.msg}")
        except (OSError, ValueError) as e:  # unreadable path, bad encoding, oversized integer
            _fail(f"cannot read config file {path}: {e}")
        if not isinstance(raw, dict):
            _fail("config root must be a JSON object")
    return _resolve(raw, overrides)


def serialize_config(config: ExperimentConfig) -> str:
    """JSON text that reloads to an equal config (all fields explicit)."""
    sc = asdict(config.scenario)
    if sc["nodes"] is not None:
        sc["nodes"] = [dict(zip(_NODE_KEYS, n)) for n in sc["nodes"]]
    payload: dict = {}
    for key, name in _FIELD_BY_KEY.items():
        value = sc if name == "scenario" else getattr(config, name)
        group, _, sub = key.partition(".")
        if sub:
            payload.setdefault(group, {})[sub] = value
        else:
            payload[group] = value
    return json.dumps(payload, indent=2, sort_keys=True)


def _scenario_hash(sc: ScenarioConfig) -> str:
    blob = json.dumps(asdict(sc), sort_keys=True, default=list)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _build_nodes(sc: ScenarioConfig) -> list[Node]:
    if sc.nodes is not None:
        return [
            Node(id=nid, position=np.array([x, y]), range_radius=radius, tx_power=power)
            for nid, x, y, radius, power in sc.nodes
        ]
    return [
        Node(
            id=i,
            position=np.array([i * sc.node_spacing, 0.0]),
            range_radius=sc.range_radius,
            tx_power=sc.tx_power,
        )
        for i in range(sc.node_count)
    ]


def _build_network(sc: ScenarioConfig):
    nodes = _build_nodes(sc)
    try:
        pairs = detect_overlaps(nodes)
    except ValueError as e:
        _fail(f"field 'scenario.nodes' has no overlap geometry: {e}")
    offsets = None
    if sc.own_point_distance is not None:
        by_id = {n.id: n for n in nodes}
        offsets = {}
        for i, j in pairs:
            a, c = by_id[i], by_id[j]
            d = float(np.linalg.norm(c.position - a.position))
            # node i's point sits at own_point_distance along i->j, node j's at
            # d - own_point_distance; both must stay inside the lens
            lo, hi = lens_interval(a, c)
            low, high = max(lo, d - hi), min(hi, d - lo)
            if not low < sc.own_point_distance < high:
                _fail(
                    f"field 'scenario.own_point_distance' must lie in ({low:g}, {high:g}) "
                    f"to keep both points of pair ({i}, {j}) inside its overlap, "
                    f"got {sc.own_point_distance:g}"
                )
            x = lens_center_distance(a, c)
            # park each pair point at the configured distance from its own node
            offsets[(i, j)] = (sc.own_point_distance - x, (d - sc.own_point_distance) - x)
    return build_scenario(
        nodes,
        path_loss_exponent=sc.path_loss_exponent,
        reference_distance=sc.reference_distance,
        point_offsets=offsets,
    )


def _build_link(sc: ScenarioConfig, snr_points: tuple[float, ...]) -> LinkConfig:
    return LinkConfig(
        snr_db=snr_points,
        dimension=sc.dimension,
        modulation=modulation_by_name(sc.modulation),
        packet_bits=sc.packet_bits,
        fading=None if sc.identity_channel else NakagamiParams(sc.nakagami_m, sc.nakagami_omega),
        rotation_angle=sc.rotation_angle,
        mode=sc.transmission_mode,
        include_interference=sc.include_interference,
        measured_pair=sc.measured_pair,
        measured_node=sc.measured_node,
    )


def _sweep(config: ExperimentConfig) -> list[tuple[str, float, ScenarioConfig]]:
    sc = config.scenario
    if config.experiment == "capacity_vs_nodes":
        return [("node_count", float(n), replace(sc, node_count=n)) for n in NODE_COUNT_SWEEP]
    if config.experiment == "per_vs_distance":
        return [("node_spacing", s, replace(sc, node_spacing=s)) for s in SPACING_SWEEP]
    if config.experiment == "per_vs_modulation":
        return [
            ("modulation", float(modulation_by_name(m).bits_per_symbol), replace(sc, modulation=m))
            for m in MODULATION_SWEEP
        ]
    if config.experiment == "ber_vs_dimension":
        return [("dimension", float(d), replace(sc, dimension=d)) for d in DIMENSION_SWEEP]
    return [("custom", 0.0, sc)]


def run_experiment(config: ExperimentConfig) -> list[MetricSeries]:
    """Run the configured experiment's sweep; one MetricSeries per value."""
    out = []
    for param_name, param_value, sc, scenario, link in _runs(config):
        point_results = run_trials(
            scenario, link, config.trials, config.seed, workers=config.workers
        )
        exponents = uncoded_stream_params(sc.packet_bits, link.modulation.bits_per_symbol, link.streams)
        points = []
        for pr in point_results:
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
                    ber=rates["ber"],
                    ser=ser,
                    per=rates["per"],
                    per_model=per_model,
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


def emit_csv(series: list[MetricSeries], path: str) -> None:
    """Write the deterministic CSV: built fully in memory, single write."""
    if not series:
        raise ValueError("no series to emit")
    rows = []
    for s in series:
        for p in s.points:
            metrics = {
                "ber": p.ber,
                "capacity": p.capacity,
                "per": p.per,
                "per_model": p.per_model,
                "ser": p.ser,
            }
            for name, est in metrics.items():
                rows.append(
                    (
                        p.snr_db,
                        s.param_name,
                        s.param_value,
                        name,
                        est.value,
                        est.ci_low,
                        est.ci_high,
                        s.trials,
                        s.seed,
                    )
                )
    rows.sort(key=lambda r: (r[0], r[2], r[3]))
    lines = ["snr_db,param_name,param_value,metric,value,ci_low,ci_high,trials,seed"]
    for snr, pname, pval, metric, value, lo, hi, trials, seed in rows:
        lines.append(
            f"{_fmt(snr)},{pname},{_fmt(pval)},{metric},{_fmt(value)},{_fmt(lo)},{_fmt(hi)},"
            f"{trials},{seed}"
        )
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
