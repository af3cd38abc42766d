"""The package namespace: re-exports every module's public names, nothing else."""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import beamlink
from beamlink import beamformer, channel, experiments, linksim, metrics, topology

MODULES = (channel, topology, beamformer, linksim, metrics, experiments)
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0*.py"))
SRC = Path(beamlink.__file__).resolve().parents[1]


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
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
