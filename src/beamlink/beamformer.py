"""Coordinated interference-driving beamformer construction.

Each node builds one driver matrix per overlapping neighbor by forcing its
stacked channel response onto a phase-rotated correlation target; the two
drivers of a pair are coupled through each other's channels and are solved
jointly in closed form.  A node's per-neighbor drivers multiply into a
single composite transmit matrix, and the squared Frobenius norms of all
composites sum into the shared power normalization.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from beamlink.channel import MomentDecomposition, StackedChannel

__all__ = [
    "RotatorMatrix",
    "DriverMatrix",
    "CompositeBeamformer",
    "NormalizationG",
    "IllConditionedChannelError",
    "NoUniqueSolutionError",
    "DegenerateNormalizationError",
    "build_rotator",
    "left_pseudoinverse",
    "solve_coupled_drivers",
    "compose",
    "normalization",
]

RANK_THRESHOLD = 1e-10  # relative singular-value cutoff for rank decisions
DEGENERATE_NORM = 1e-12


class IllConditionedChannelError(ValueError):
    """Stacked channel too close to rank deficiency to invert."""

    def __init__(self, condition: float):
        self.condition = condition
        super().__init__(f"stacked channel ill conditioned, cond ~ {condition:.3e}")


class NoUniqueSolutionError(ValueError):
    """The coupled driver system is singular or nearly so."""


class DegenerateNormalizationError(ValueError):
    """All composite beamformers are numerically zero; no power scale exists."""


@dataclass(frozen=True)
class RotatorMatrix:
    """Phase-rotated correlation target, 2M x M, every entry magnitude <= 1."""

    entries: np.ndarray


@dataclass(frozen=True)
class DriverMatrix:
    """M x M driver steering owner's signal at the pair it shares with target."""

    entries: np.ndarray
    owner: int
    target: int

    def __post_init__(self):
        if self.owner == self.target:
            raise ValueError(f"driver owner and target must differ, got {self.owner}")
        if not np.all(np.isfinite(self.entries)):
            raise ValueError("driver entries must be finite")


@dataclass(frozen=True)
class CompositeBeamformer:
    """Product of one node's drivers, taken in ascending target-id order."""

    entries: np.ndarray
    owner: int


@dataclass(frozen=True)
class NormalizationG:
    """Network power normalization: sum of squared Frobenius norms."""

    value: float


def build_rotator(
    moments: MomentDecomposition, dimension: int, rotation_angle: float = math.pi
) -> RotatorMatrix:
    """Rotator target: first M columns of the normalized correlation, phased.

    The 2M x 2M normalized element correlation has ones on the diagonal and
    squared_mean / (variance + squared_mean) elsewhere; its leading M
    columns, scaled by e^(j * rotation_angle), form the target the drivers
    must reproduce.
    """
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    n = 2 * dimension
    corr = np.full((n, n), moments.correlation, dtype=complex)
    np.fill_diagonal(corr, 1.0)
    phase = complex(math.cos(rotation_angle), math.sin(rotation_angle))
    return RotatorMatrix(entries=corr[:, :dimension] * phase)


def left_pseudoinverse(stacked: StackedChannel, threshold: float = RANK_THRESHOLD) -> np.ndarray:
    """Moore-Penrose left inverse of the tall 2M x M stacked channel.

    Computed from the SVD; the smallest-to-largest singular value ratio must
    exceed the threshold, otherwise the channel is declared ill conditioned.
    Satisfies P @ S = I to numerical tolerance on full-rank inputs.
    """
    s_mat = stacked.combined
    u, sv, vh = np.linalg.svd(s_mat, full_matrices=False)
    if sv[0] == 0.0 or sv[-1] / sv[0] <= threshold:
        cond = math.inf if sv[-1] == 0.0 else sv[0] / sv[-1]
        raise IllConditionedChannelError(cond)
    return (vh.conj().T * (1.0 / sv)) @ u.conj().T


def solve_coupled_drivers(
    stack_a: StackedChannel,
    cross_a: StackedChannel,
    rotator_a: RotatorMatrix,
    stack_c: StackedChannel,
    cross_c: StackedChannel,
    rotator_c: RotatorMatrix,
    owner_a: int = 0,
    owner_c: int = 1,
) -> tuple[DriverMatrix, DriverMatrix]:
    """Jointly solve the two coupled driver equations of an overlapping pair.

    The drivers satisfy

        M_ac = P_a (T_a - cross_a M_ca)
        M_ca = P_c (T_c - cross_c M_ac)

    with P the left pseudoinverse of the owner's stack and T the rotator
    target.  Eliminating M_ca gives the closed form

        (I - P_a cross_a P_c cross_c) M_ac = P_a (T_a - cross_a P_c T_c)

    solved directly; M_ca follows by back substitution.  Raises
    NoUniqueSolutionError when the coupling matrix is singular to working
    precision.
    """
    p_a = left_pseudoinverse(stack_a)
    p_c = left_pseudoinverse(stack_c)
    t_a = rotator_a.entries
    t_c = rotator_c.entries
    dim = stack_a.dimension
    k_mat = p_a @ cross_a.combined @ p_c @ cross_c.combined
    coupling = np.eye(dim, dtype=complex) - k_mat
    # judge singularity against the scale of the subtraction inputs: when
    # k_mat ~ I the difference is pure rounding noise and a relative check
    # on the tiny residue would wave it through
    scale = max(1.0, float(np.linalg.norm(k_mat, ord=2)))
    sv = np.linalg.svd(coupling, compute_uv=False)
    if sv[-1] <= RANK_THRESHOLD * scale:
        raise NoUniqueSolutionError(
            "coupling matrix singular to working precision; driver pair not unique"
        )
    rhs = p_a @ (t_a - cross_a.combined @ (p_c @ t_c))
    m_ac = np.linalg.solve(coupling, rhs)
    m_ca = p_c @ (t_c - cross_c.combined @ m_ac)
    return (
        DriverMatrix(entries=m_ac, owner=owner_a, target=owner_c),
        DriverMatrix(entries=m_ca, owner=owner_c, target=owner_a),
    )


def compose(drivers: list[DriverMatrix]) -> CompositeBeamformer:
    """Multiply one node's drivers left to right in ascending target-id order."""
    if not drivers:
        raise ValueError("cannot compose an empty driver list")
    owners = {d.owner for d in drivers}
    if len(owners) != 1:
        raise ValueError(f"drivers must share one owner, got {sorted(owners)}")
    targets = [d.target for d in drivers]
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate targets in driver list: {sorted(targets)}")
    ordered = sorted(drivers, key=lambda d: d.target)
    product = ordered[0].entries
    for d in ordered[1:]:
        product = product @ d.entries
    return CompositeBeamformer(entries=product, owner=drivers[0].owner)


def normalization(composites: list[CompositeBeamformer]) -> NormalizationG:
    """Sum of squared Frobenius norms over all participating composites."""
    if not composites:
        raise ValueError("normalization needs at least one composite")
    total = float(sum(np.sum(np.abs(c.entries) ** 2) for c in composites))
    if total < DEGENERATE_NORM:
        raise DegenerateNormalizationError(
            f"normalization {total:.3e} below {DEGENERATE_NORM:.0e}; cannot divide"
        )
    return NormalizationG(value=total)
