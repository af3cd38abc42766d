"""The package namespace: re-exports every module's public names, nothing else."""
from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import beamlink
from beamlink import beamformer, channel, experiments, linksim, metrics, topology

MODULES = (channel, topology, beamformer, linksim, metrics, experiments)
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0*.py"))
SRC = Path(beamlink.__file__).resolve().parents[1]
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
BENCH = TRACER.with_name("bench.py")


def test_all_is_union_of_module_exports():
    union = [name for module in MODULES for name in module.__all__]
    assert len(set(union)) == len(union)
    assert set(beamlink.__all__) == set(union)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(beamlink, name) is getattr(module, name)


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    tree = ast.parse(demo.read_text())
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "beamlink"
        for alias in node.names
    ]
    assert names
    for name in names:
        assert name in beamlink.__all__ and hasattr(beamlink, name), name


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_benchmark_imports_resolve():
    # every benchmark run starts by importing these; a removed name fails
    # the whole benchmark at import
    imports = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(BENCH.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "beamlink"
        for alias in node.names
    ]
    assert ("beamlink.beamformer", "IllConditionedChannelError") in imports
    for module_name, name in imports:
        assert hasattr(importlib.import_module(module_name), name), f"{module_name}.{name}"


def _benchmark_tracer() -> types.ModuleType:
    # executed from its source text: importing it would write bytecode next
    # to the benchmark
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def _boundaries(tracer) -> list[tuple[str, str, str]]:
    """(namespace module, name, layer) of every name the benchmark wraps."""
    return [
        (module_name, attr, layer)
        for group in (tracer.PARENT_BOUNDARIES, tracer.TRIAL_BOUNDARIES)
        for module_name, names in group.items()
        for attr, layer in names
    ]


def test_benchmark_boundaries_exist():
    # the benchmark's tracer wraps these names where they are looked up;
    # a rename or a moved call would silently empty its per-layer numbers
    tracer = _benchmark_tracer()
    for module_name, attr, _ in _boundaries(tracer):
        module = importlib.import_module(f"beamlink.{module_name}")
        assert callable(getattr(module, attr, None)), f"beamlink.{module_name}.{attr}"
    for caller in tracer.LINALG_CALLERS:
        assert importlib.import_module(f"beamlink.{caller}").np is np


def test_benchmark_boundaries_are_called_through_their_namespace():
    tracer_module = _benchmark_tracer()
    tracer = tracer_module.Tracer()
    tracer.install(in_trial=True)
    try:
        # load_config builds the networks, so it runs traced, as in the benchmark's passes
        config = experiments.load_config(
            overrides={"experiment": "capacity_vs_nodes", "trials": 2, "seed": 1,
                       "scenario": {"packet_bits": 32}}
        )
        experiments.run_experiment(config)
    finally:
        tracer.uninstall()
    seen = Counter(span[0] for span in tracer.spans)
    for _, attr, layer in _boundaries(tracer_module):
        assert f"{layer}.{attr}" in seen
    # 3 node counts x 2 trials, none erased at seed 1: each node count's one
    # task draws its channels, computes its capacities and sends its two
    # packets as one chunk, each in one call
    for name in ("linksim.modulate", "linksim.received_signal", "linksim.detect",
                 "channel.sample_channel", "metrics.capacity", "metrics.effective_snr"):
        assert seen[name] == 3, name
    assert tracer.counts[("beamformer", "svd")] > 0
