"""Planar node layout: transmission-range disks, overlap lenses, receive points.

Every pair of nodes whose range disks intersect with positive area gets an
overlap region carrying two designated receive points, one associated with
each node of the pair.  Path gains follow a log-distance law.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Node",
    "OverlapRegion",
    "NetworkScenario",
    "detect_overlaps",
    "lens_center_distance",
    "lens_interval",
    "interference_points",
    "path_gain",
    "build_scenario",
]


@dataclass
class Node:
    """A radio node: integer id, planar position (m), range disk, tx power."""

    id: int
    position: np.ndarray
    range_radius: float
    tx_power: float = 1.0

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        if self.position.shape != (2,):
            raise ValueError(f"position must be a 2-vector, got shape {self.position.shape}")
        if not self.range_radius > 0:
            raise ValueError(f"range_radius must be > 0, got {self.range_radius}")
        if not self.tx_power > 0:
            raise ValueError(f"tx_power must be > 0, got {self.tx_power}")


@dataclass
class OverlapRegion:
    """Receive points inside the lens where two range disks intersect.

    pair is ordered by node id; point_a is the receive point associated with
    pair[0], point_b with pair[1].  Both points lie strictly inside both
    disks.
    """

    pair: tuple[int, int]
    point_a: np.ndarray
    point_b: np.ndarray

    def __post_init__(self):
        self.point_a = np.asarray(self.point_a, dtype=float)
        self.point_b = np.asarray(self.point_b, dtype=float)
        if self.pair[0] >= self.pair[1]:
            raise ValueError(f"pair must be ordered by id, got {self.pair}")

    def point_for(self, node_id: int) -> np.ndarray:
        """The receive point associated with the given member of the pair."""
        if node_id == self.pair[0]:
            return self.point_a
        if node_id == self.pair[1]:
            return self.point_b
        raise KeyError(f"node {node_id} is not part of pair {self.pair}")


@dataclass
class NetworkScenario:
    """Nodes plus their detected overlaps and the propagation constants."""

    nodes: list[Node]
    overlaps: list[OverlapRegion]
    path_loss_exponent: float = 3.0
    reference_distance: float = 1.0

    def __post_init__(self):
        if not self.path_loss_exponent >= 0:
            raise ValueError(
                f"path_loss_exponent must be >= 0, got {self.path_loss_exponent}"
            )
        if not self.reference_distance > 0:
            raise ValueError(
                f"reference_distance must be > 0, got {self.reference_distance}"
            )
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ValueError(f"node ids must be unique, got {ids}")

    def node_by_id(self, node_id: int) -> Node:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise KeyError(f"no node with id {node_id}")


def detect_overlaps(nodes: list[Node]) -> list[tuple[int, int]]:
    """Id pairs (i, j), i < j, whose range disks intersect with positive area.

    Strict inequality: tangent disks do not overlap.  One disk containing
    the other does count (the intersection is the smaller disk).  The result
    is sorted, so it is independent of the input node order.
    """
    if len(nodes) < 1:
        raise ValueError("need at least one node")
    pairs = []
    for a, c in itertools.combinations(nodes, 2):
        d = float(np.linalg.norm(a.position - c.position))
        if d == 0.0:
            raise ValueError(
                f"nodes {a.id} and {c.id} are coincident; overlap geometry undefined"
            )
        if d < a.range_radius + c.range_radius:
            pairs.append((min(a.id, c.id), max(a.id, c.id)))
    return sorted(pairs)


def lens_center_distance(a: Node, c: Node) -> float:
    """Distance from a, along the segment a->c, of the lens center.

    For intersecting circles this is the foot of the common chord,
    x = (d^2 + r_a^2 - r_c^2) / (2 d); when one disk contains the other the
    formula still applies but may land outside the lens (callers clamp).
    """
    d = float(np.linalg.norm(c.position - a.position))
    return (d * d + a.range_radius**2 - c.range_radius**2) / (2.0 * d)


def lens_interval(a: Node, c: Node) -> tuple[float, float]:
    """Open interval (lo, hi) of distances t from a, along the line a->c,
    whose points lie strictly inside both disks: |t| < r_a and |d - t| < r_c."""
    d = float(np.linalg.norm(c.position - a.position))
    return max(-a.range_radius, d - c.range_radius), min(a.range_radius, d + c.range_radius)


def _clamp_into_lens(t: float, a: Node, c: Node) -> float:
    lo, hi = lens_interval(a, c)
    margin = 1e-9 * (hi - lo)
    return min(max(t, lo + margin), hi - margin)


def interference_points(
    a: Node, c: Node, offset_a: float = 0.0, offset_c: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Place the pair's two receive points inside the overlap lens.

    Both default to the lens center on the segment a->c.  offset_a and
    offset_c shift each point along that segment (positive toward c); the
    results are clamped so they stay strictly inside both disks, which also
    covers the containment case where the nominal lens center falls outside
    the smaller disk.
    """
    d = float(np.linalg.norm(c.position - a.position))
    if d == 0.0:
        raise ValueError("coincident nodes have no overlap geometry")
    if d >= a.range_radius + c.range_radius:
        raise ValueError(
            f"disks of nodes {a.id} and {c.id} do not overlap (d={d:.6g})"
        )
    direction = (c.position - a.position) / d
    x = lens_center_distance(a, c)
    t_a = _clamp_into_lens(x + offset_a, a, c)
    t_c = _clamp_into_lens(x + offset_c, a, c)
    return a.position + t_a * direction, a.position + t_c * direction


def path_gain(distance: float, scenario: NetworkScenario) -> float:
    """Log-distance power gain (max(d, d0)/d0)^(-eta), equal to 1 at or below d0."""
    if not distance > 0:
        raise ValueError(f"distance must be > 0, got {distance}")
    d0 = scenario.reference_distance
    return (max(distance, d0) / d0) ** (-scenario.path_loss_exponent)


def build_scenario(
    nodes: list[Node],
    path_loss_exponent: float = 3.0,
    reference_distance: float = 1.0,
    point_offsets: dict[tuple[int, int], tuple[float, float]] | None = None,
) -> NetworkScenario:
    """Assemble a scenario: detect every overlap and place its receive points.

    point_offsets maps an id pair (i, j), i < j, to segment offsets for the
    points associated with i and j respectively.
    """
    point_offsets = point_offsets or {}
    by_id = {n.id: n for n in nodes}
    overlaps = []
    for i, j in detect_overlaps(nodes):
        off_i, off_j = point_offsets.get((i, j), (0.0, 0.0))
        p_i, p_j = interference_points(by_id[i], by_id[j], off_i, off_j)
        overlaps.append(OverlapRegion(pair=(i, j), point_a=p_i, point_b=p_j))
    return NetworkScenario(
        nodes=list(nodes),
        overlaps=overlaps,
        path_loss_exponent=path_loss_exponent,
        reference_distance=reference_distance,
    )
