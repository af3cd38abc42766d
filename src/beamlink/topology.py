"""Planar node layout: transmission-range disks, overlap lenses, receive points.

Every pair of nodes whose range disks intersect with positive area gets two
designated receive points inside their lens, one for each node of the pair.
One pass measures each node pair's distance once; coincidence, overlap and
the receive points all read it, and the network keeps its sorted pairs and
their points as arrays.  build_scenario alone assembles and checks a
network, states where the points sit and picks its measured link.  Every
distance comes from _distance, and path gains follow a log-distance law.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ScenarioError",
    "Node",
    "NetworkScenario",
    "detect_overlaps",
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
class NetworkScenario:
    """Nodes, their overlaps, the measured link and the propagation constants.

    pairs lists every overlapping id pair (a, c), a < c, sorted; points[k]
    holds pair k's two receive points, a's first, so points is a
    (len(pairs), 2, 2) array.  measured_node's packets are counted at its
    receive point of measured_pair, or over a single link when that is None.
    """

    nodes: list[Node]
    pairs: list[tuple[int, int]]
    points: np.ndarray
    measured_node: int
    measured_pair: tuple[int, int] | None
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


def _distance(diff: np.ndarray) -> np.ndarray:
    """The lengths of (n, 2) difference vectors, each bit for bit its row's
    1-D np.linalg.norm, which norm(axis=1) and hypot are not: every
    node-to-node and node-to-point distance is measured here."""
    return np.sqrt((diff[:, None, :] @ diff[:, :, None])[:, 0, 0])


def _measure_pairs(
    nodes: list[Node], own_point_distance: float | None = None
) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Measure every node pair once: the overlapping id pairs, sorted, and
    their (pairs, 2, 2) receive points, the lower id's first, placed by
    build_scenario's rule.  No nodes, two at one point, or a lens that
    own_point_distance misses raise ScenarioError."""
    if len(nodes) < 1:
        raise ScenarioError("nodes", "need at least one node")
    if len(nodes) < 2:
        return [], np.empty((0, 2, 2))
    order = sorted(range(len(nodes)), key=lambda k: nodes[k].id)
    ranked = [nodes[k] for k in order]
    i, j = np.triu_indices(len(nodes), 1)  # every pair (a, c) by id, a below c, sorted
    positions = np.array([n.position for n in ranked])
    diff = positions[j] - positions[i]
    d = _distance(diff)
    coincident = np.flatnonzero(d == 0.0)
    if coincident.size:
        # name the first such pair in the caller's node order
        p, q = min(sorted((order[i[k]], order[j[k]])) for k in coincident.tolist())
        raise ScenarioError(
            "nodes", f"nodes {nodes[p].id} and {nodes[q].id} are coincident; overlap geometry undefined"
        )
    r = np.array([n.range_radius for n in ranked], dtype=float)
    hit = d < r[i] + r[j]
    i, j, d, diff = i[hit], j[hit], d[hit], diff[hit]
    lo, hi = np.maximum(-r[i], d - r[j]), np.minimum(r[i], d + r[j])
    margin = 1e-9 * (hi - lo)
    lo, hi = lo + margin, hi - margin
    if own_point_distance is None:
        # Python's float power, as the points were always placed with: numpy's
        # square differs from it in the last bit on about 1 in 1200 radii
        sq = np.array([n.range_radius**2 for n in ranked], dtype=float)
        t_a = t_c = np.minimum(np.maximum((d * d + sq[i] - sq[j]) / (2.0 * d), lo), hi)
    else:
        low, high = np.maximum(lo, d - hi), np.minimum(hi, d - lo)
        missed = np.flatnonzero(~((low < own_point_distance) & (own_point_distance < high)))
        if missed.size:
            k = missed[0]
            pair = f"pair ({ranked[i[k]].id}, {ranked[j[k]].id})"
            rule = (f"must lie in ({low[k]:g}, {high[k]:g}) to keep both points of {pair} inside its overlap"
                    if low[k] < high[k] else f"cannot keep both points of {pair} inside its overlap at any distance")
            raise ScenarioError("own_point_distance", f"{rule}, got {own_point_distance:g}")
        t_a, t_c = np.full_like(d, own_point_distance), d - own_point_distance
    t = np.stack([t_a, t_c], axis=1)[:, :, None]
    pairs = [(ranked[a].id, ranked[c].id) for a, c in zip(i.tolist(), j.tolist())]
    return pairs, positions[i, None] + t * (diff / d[:, None])[:, None]


def detect_overlaps(nodes: list[Node]) -> list[tuple[int, int]]:
    """Id pairs (i, j), i < j, whose range disks intersect with positive area.

    Strict inequality: tangent disks do not overlap.  One disk containing
    the other does count (the intersection is the smaller disk).  The result
    is sorted, so it is independent of the input node order.  No nodes, or
    two at one point, raise ScenarioError.
    """
    return _measure_pairs(nodes)[0]


def path_gain(distance: float | np.ndarray, scenario: NetworkScenario) -> float | np.ndarray:
    """Log-distance power gain (max(d, d0)/d0)^(-eta), 1 at or below d0 and
    at 0; an array of distances gives their gains, each by Python's float
    power, which numpy's power differs from in the last bit on some ratios."""
    d = np.asarray(distance, dtype=float)
    bad = ~(d >= 0)
    if bad.any():
        raise ValueError(f"distance must be >= 0, got {d[bad][0]}")
    d0, eta = scenario.reference_distance, -scenario.path_loss_exponent
    gains = [r**eta for r in (np.maximum(d, d0) / d0).ravel().tolist()]
    return np.reshape(gains, d.shape) if d.ndim else gains[0]


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

    An overlapping pair (a, c), a's id below c's and d apart, has both its
    points on the segment from a to c, inside the lens: the open interval
    of distances t from a with |t| < r_a and |d - t| < r_c, less 1e-9 of its
    width at each end so that rounding cannot put a point on a disk's edge.
    By default both sit at the foot of the common chord,
    (d^2 + r_a^2 - r_c^2) / (2 d), clamped into the lens (it falls outside
    when one disk contains the other).  With own_point_distance, a's point
    sits exactly that far from a and c's that far from c; for the first
    pair where that leaves the lens, ScenarioError names the interval the
    distance must lie in, or says that none keeps both points inside.
    measured_pair defaults to the first overlap and measured_node to the
    pair's lower id; with no overlap and no pair the link is single, by
    default the first node's.  Any rule broken raises ScenarioError naming
    its argument.
    """
    ids = [n.id for n in nodes]
    if len(set(ids)) != len(ids):
        raise ScenarioError("nodes", f"duplicate node ids in {ids}")
    pairs, points = _measure_pairs(nodes, own_point_distance)
    members = ids
    if measured_pair is not None or pairs:
        measured_pair = tuple(sorted(measured_pair)) if measured_pair is not None else pairs[0]
        if measured_pair not in pairs:
            raise ScenarioError("measured_pair", f"measured pair {measured_pair} has no overlap region")
        members = measured_pair
    if measured_node is None:
        measured_node = members[0]
    elif measured_node not in members:
        where = f"pair {members}" if measured_pair is not None else "the network"
        raise ScenarioError("measured_node", f"measured node {measured_node} is not in {where}")
    return NetworkScenario(
        nodes=list(nodes),
        pairs=pairs,
        points=points,
        measured_node=measured_node,
        measured_pair=measured_pair,
        path_loss_exponent=path_loss_exponent,
        reference_distance=reference_distance,
    )
