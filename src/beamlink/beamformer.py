"""Coordinated interference-driving beamformer construction.

Each node builds one driver matrix per overlapping neighbor by forcing its
stacked channel response onto a phase-rotated correlation target; the two
drivers of a pair are coupled through each other's channels and are solved
jointly as one square system [S_a S_c] [M_ac; M_ca] = T.  A node's
per-neighbor drivers multiply into a single composite transmit matrix, and
the squared Frobenius norms of all composites sum into the shared power
normalization.

left_pseudoinverse, solve_coupled_drivers, compose and normalization also
take stacks: arrays with leading axes in front of the matrix axes, solved
member by member (a single matrix is the no-leading-axis case).  Each
member's result is bit-identical to solving that member alone.  A failure
raises one SolveError whose mask marks every failing member.
"""
from __future__ import annotations

import math
import sys

import numpy as np

from beamlink.channel import MomentDecomposition

__all__ = [
    "SolveError",
    "IllConditionedChannelError",
    "NoUniqueSolutionError",
    "DegenerateNormalizationError",
    "build_rotator",
    "rank_deficient",
    "left_pseudoinverse",
    "solve_coupled_drivers",
    "compose",
    "normalization",
]

# relative singular-value cutoff for rank decisions: a member whose SVD has
# sigma_min / sigma_max <= RANK_THRESHOLD is rank deficient.  The pair solve
# first clears, with no SVD, the members whose bound on that ratio is above
# _CLEAR_MARGIN * RANK_THRESHOLD; the SVD decides the rest.
RANK_THRESHOLD = 1e-10
_CLEAR_MARGIN = 100.0


class SolveError(ValueError):
    """A solve step failed for some members of its input.

    mask is a boolean array over the input's leading axes marking the
    members that failed; for a single matrix it is a 0-d True.
    """

    def __init__(self, message: str, mask=True):
        super().__init__(message)
        self.mask = np.asarray(mask)


class IllConditionedChannelError(SolveError):
    """Channel too close to rank deficiency to invert."""

    def __init__(self, condition: float, mask=True):
        self.condition = condition
        super().__init__(f"channel ill conditioned, cond ~ {condition:.3e}", mask)


class NoUniqueSolutionError(SolveError):
    """The coupled driver system is singular or nearly so."""

    def __init__(self, ratio: float, mask=True):
        self.ratio = ratio  # the failing members' smallest sigma_min / sigma_max
        super().__init__(f"pair [S_a S_c] rank deficient, sigma ratio ~ {ratio:.3e}", mask)


class DegenerateNormalizationError(SolveError):
    """All composite beamformers are numerically zero; no power scale exists."""


def _herm(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each member of a stack."""
    return a.conj().swapaxes(-1, -2)


def build_rotator(
    moments: MomentDecomposition, dimension: int, rotation_angle: float = math.pi
) -> np.ndarray:
    """Rotator target, 2M x M: first M columns of the normalized correlation, phased.

    The 2M x 2M normalized element correlation has ones on the diagonal and
    squared_mean / (variance + squared_mean) elsewhere; its leading M
    columns, scaled by e^(j * rotation_angle), form the target the drivers
    must reproduce.  Every entry has magnitude <= 1.
    """
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    n = 2 * dimension
    corr = np.full((n, n), moments.correlation, dtype=complex)
    np.fill_diagonal(corr, 1.0)
    phase = complex(math.cos(rotation_angle), math.sin(rotation_angle))
    return corr[:, :dimension] * phase


def rank_deficient(sv: np.ndarray) -> np.ndarray:
    """Mask of the members whose singular values (last axis, descending)
    are all zero or whose smallest-to-largest ratio is <= RANK_THRESHOLD."""
    top = sv[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        return (top == 0.0) | (sv[..., -1] / top <= RANK_THRESHOLD)


def left_pseudoinverse(channel: np.ndarray) -> np.ndarray:
    """Moore-Penrose left inverse P of a tall or square channel S, by
    numpy.linalg.pinv's formula, bit for bit: of a 2M x M stacked channel,
    or of an M x K effective channel, the trials' zero-forcing equalizer
    (maximum-ratio combining for one column).  P @ S = I to numerical
    tolerance; IllConditionedChannelError's mask marks rank_deficient members.
    """
    u, sv, vh = np.linalg.svd(channel, full_matrices=False)
    bad = rank_deficient(sv)
    if bad.any():
        cond = max(math.inf if s[-1] == 0.0 else s[0] / s[-1] for s in sv[bad])
        raise IllConditionedChannelError(cond, bad)
    return _herm(vh) @ ((1.0 / sv)[..., :, None] * _herm(u))


def _cleared_by_bound(pair: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """Mask of the members of B (pair) whose bound 1 / (||B||_F ||B^-1||_F)
    on sigma_min / sigma_max (Golub & Van Loan, Matrix Computations, 4th
    ed., 2.3) is above _CLEAR_MARGIN * RANK_THRESHOLD: full rank without an
    SVD, since B^-1's error, of order cond(B) * eps (Higham, Accuracy and
    Stability, 2nd ed., ch. 14), is far inside that margin.  inverse is the
    real view of each member's B^-1; a squared norm that is not a normal,
    finite float clears nothing.
    """
    lo, hi = sys.float_info.min, sys.float_info.max
    with np.errstate(over="ignore", invalid="ignore"):
        norm_b, norm_inv = (
            np.einsum("...ij,...ij->...", v, v) for v in (pair.view(np.float64), inverse)
        )
        normal = (lo <= norm_b) & (norm_b <= hi) & (lo <= norm_inv) & (norm_inv <= hi)
        return normal & (norm_b * norm_inv < (_CLEAR_MARGIN * RANK_THRESHOLD) ** -2)


def solve_coupled_drivers(
    stack_a: np.ndarray, stack_c: np.ndarray, rotator: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Jointly solve the two coupled driver equations of an overlapping pair.

    Each node's stack is the other's cross term, and both share one rotator
    target T: the drivers are the mean-squared-error fit

        S_a M_ac + S_c M_ca = T

    With B = [S_a S_c] square (2M x 2M) and of full rank the fit is exact,
    so [M_ac; M_ca] = B^-1 T; it satisfies both M_ac = P_a (T - S_c M_ca)
    and M_ca = P_c (T - S_a M_ac), with P the left pseudoinverse of the
    owner's stack.  One LU solve against [T | I_2M] gives each member's
    drivers and its B^-1.  The rank rule is rank_deficient on B's singular
    values, but a member whose bound 1 / (||B||_F ||B^-1||_F) clears it
    (_cleared_by_bound) takes no SVD; the SVD decides the others, and every
    member when the solve meets an exactly singular one.  Returns (M_ac,
    M_ca), each M x M (each (..., M, M) for (..., 2M, M) stacks, which
    share the one 2M x M rotator).  Raises NoUniqueSolutionError, its mask
    over every leading axis, where B is rank_deficient.
    """
    # complex128 whatever the stacks' dtype: _cleared_by_bound reads its float64 view
    pair = np.concatenate([stack_a, stack_c], axis=-1, dtype=complex)
    dim = stack_a.shape[-1]
    rhs = np.concatenate([rotator, np.eye(2 * dim, dtype=complex)], axis=-1)
    try:
        solved = np.linalg.solve(pair, rhs)
    except np.linalg.LinAlgError:  # an exactly singular member
        solved, unsure = None, np.ones(pair.shape[:-2], dtype=bool)
    else:
        unsure = ~_cleared_by_bound(pair, solved.view(np.float64)[..., 2 * dim :])
    if unsure.any():
        sv = np.linalg.svd(pair[unsure], compute_uv=False)
        bad = rank_deficient(sv)
        if bad.any():
            mask = np.zeros(unsure.shape, dtype=bool)
            mask[unsure] = bad
            raise NoUniqueSolutionError(
                min(0.0 if s[0] == 0.0 else s[-1] / s[0] for s in sv[bad]), mask
            )
    drivers = np.linalg.solve(pair, rotator) if solved is None else solved[..., :dim]
    if not np.all(np.isfinite(drivers)):
        raise ValueError("driver entries must be finite")
    return drivers[..., :dim, :], drivers[..., dim:, :]


def compose(drivers: list[np.ndarray]) -> np.ndarray:
    """One node's composite beamformer: its drivers multiplied left to right.

    The caller passes the drivers in ascending order of the neighbor each
    one targets.
    """
    if not drivers:
        raise ValueError("cannot compose an empty driver list")
    product = drivers[0]
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan: degenerate at normalization
        for d in drivers[1:]:
            product = product @ d
    return product


def normalization(composites: list[np.ndarray]) -> float | np.ndarray:
    """Sum of squared Frobenius norms over all participating composites.

    A float for single matrices; for (..., M, M) stacks an array holding
    one sum per member.  Only a sum that is not positive or not finite is
    degenerate: g scales as 1 / tx_power, so any fixed floor would erase
    every trial of a valid high-power scenario.
    """
    if not composites:
        raise ValueError("normalization needs at least one composite")
    with np.errstate(over="ignore"):  # an overflow is inf: degenerate, not a warning
        total = sum(np.sum(np.abs(c) ** 2, axis=(-2, -1)) for c in composites)
    bad = ~((total > 0.0) & np.isfinite(total))
    if bad.any():
        raise DegenerateNormalizationError(
            f"normalization {np.asarray(total)[bad][0]:.3e} not positive and finite; "
            "cannot divide",
            bad,
        )
    return total
