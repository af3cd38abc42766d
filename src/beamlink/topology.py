"""Planar node layout: transmission-range disks, overlap lenses, receive points.

Every pair of nodes whose range disks intersect with positive area gets an
overlap region carrying two designated receive points, one associated with
each node of the pair; interference_points alone decides where they sit.
build_scenario alone assembles and checks a network and picks its measured
link.  Path gains follow a log-distance law.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ScenarioError",
    "Node",
    "OverlapRegion",
    "NetworkScenario",
    "detect_overlaps",
    "interference_points",
    "path_gain",
    "build_scenario",
]


class ScenarioError(ValueError):
    """A network that cannot be built; field names the build_scenario argument at fault."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


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
    """Nodes, their detected overlaps, the measured link and the propagation
    constants: measured_node's packets are counted at its receive point in
    measured_region, or over a single link when that is None."""

    nodes: list[Node]
    overlaps: list[OverlapRegion]
    measured_node: int
    measured_region: OverlapRegion | None
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

    def node_by_id(self, node_id: int) -> Node:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise KeyError(f"no node with id {node_id}")


def detect_overlaps(nodes: list[Node]) -> list[tuple[int, int]]:
    """Id pairs (i, j), i < j, whose range disks intersect with positive area.

    Strict inequality: tangent disks do not overlap.  One disk containing
    the other does count (the intersection is the smaller disk).  The result
    is sorted, so it is independent of the input node order.  No nodes, or
    two at one point, raise ScenarioError.
    """
    if len(nodes) < 1:
        raise ScenarioError("nodes", "need at least one node")
    pairs = []
    for a, c in itertools.combinations(nodes, 2):
        d = float(np.linalg.norm(a.position - c.position))
        if d == 0.0:
            raise ScenarioError(
                "nodes", f"nodes {a.id} and {c.id} are coincident; overlap geometry undefined"
            )
        if d < a.range_radius + c.range_radius:
            pairs.append((min(a.id, c.id), max(a.id, c.id)))
    return sorted(pairs)


def interference_points(
    a: Node, c: Node, own_point_distance: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Place the pair's receive points, for a and for c, inside the overlap lens.

    The lens is the open interval of distances t from a, along a->c, with
    |t| < r_a and |d - t| < r_c, less 1e-9 of its width at each end so that
    rounding cannot put a point on a disk's edge.  By default both points
    sit at the foot of the common chord, (d^2 + r_a^2 - r_c^2) / (2 d),
    clamped into the lens (it falls outside when one disk contains the
    other).  With own_point_distance, a's point sits exactly that far from
    a and c's that far from c; ScenarioError names the interval it must lie
    in, or says that no distance keeps both points in the lens.
    """
    d = float(np.linalg.norm(c.position - a.position))
    if d == 0.0:
        raise ValueError("coincident nodes have no overlap geometry")
    if d >= a.range_radius + c.range_radius:
        raise ValueError(
            f"disks of nodes {a.id} and {c.id} do not overlap (d={d:.6g})"
        )
    lo = max(-a.range_radius, d - c.range_radius)
    hi = min(a.range_radius, d + c.range_radius)
    margin = 1e-9 * (hi - lo)
    lo, hi = lo + margin, hi - margin
    if own_point_distance is None:
        x = (d * d + a.range_radius**2 - c.range_radius**2) / (2.0 * d)
        t_a = t_c = min(max(x, lo), hi)
    else:
        low, high = max(lo, d - hi), min(hi, d - lo)
        if not low < high:
            raise ScenarioError(
                "own_point_distance",
                f"cannot keep both points of pair ({a.id}, {c.id}) inside its overlap "
                f"at any distance, got {own_point_distance:g}"
            )
        if not low < own_point_distance < high:
            raise ScenarioError(
                "own_point_distance",
                f"must lie in ({low:g}, {high:g}) to keep both points of pair "
                f"({a.id}, {c.id}) inside its overlap, got {own_point_distance:g}"
            )
        t_a, t_c = own_point_distance, d - own_point_distance
    direction = (c.position - a.position) / d
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
    own_point_distance: float | None = None,
    measured_pair: tuple[int, int] | None = None,
    measured_node: int | None = None,
) -> NetworkScenario:
    """Assemble and check a network: detect every overlap, place its receive
    points and pick the measured link.

    own_point_distance, when given, is each point's distance from its own
    node along the pair's axis (see interference_points).  measured_pair
    defaults to the first overlap and measured_node to the pair's lower id;
    with no overlap and no pair the link is single, by default the first
    node's.  Any rule broken raises ScenarioError naming its argument.
    """
    ids = [n.id for n in nodes]
    if len(set(ids)) != len(ids):
        raise ScenarioError("nodes", f"duplicate node ids in {ids}")
    by_id = {n.id: n for n in nodes}
    overlaps = []
    for i, j in detect_overlaps(nodes):
        p_i, p_j = interference_points(by_id[i], by_id[j], own_point_distance)
        overlaps.append(OverlapRegion(pair=(i, j), point_a=p_i, point_b=p_j))
    region, members = None, ids
    if measured_pair is not None or overlaps:
        pair = tuple(sorted(measured_pair)) if measured_pair is not None else overlaps[0].pair
        region = next((o for o in overlaps if o.pair == pair), None)
        if region is None:
            raise ScenarioError("measured_pair", f"measured pair {pair} has no overlap region")
        members = region.pair
    if measured_node is None:
        measured_node = members[0]
    elif measured_node not in members:
        where = f"pair {members}" if region is not None else "the network"
        raise ScenarioError("measured_node", f"measured node {measured_node} is not in {where}")
    return NetworkScenario(
        nodes=list(nodes),
        overlaps=overlaps,
        measured_node=measured_node,
        measured_region=region,
        path_loss_exponent=path_loss_exponent,
        reference_distance=reference_distance,
    )
