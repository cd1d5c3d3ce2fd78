"""Polar sampling grids and the verdict record shared by inequality checks."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class PolarGrid:
    """Polar grid strictly inside the unit disk.

    Radii are Chebyshev-Lobatto nodes on (0, max_radius] (the zero node is
    dropped, the outermost circle is included); angles are uniform.  The
    clustering of nodes near the outer circle matters because inequality
    extrema of low-order series occur there.
    """

    max_radius: float = 0.95
    n_radii: int = 24
    n_angles: int = 96

    def __post_init__(self):
        if not (math.isfinite(self.max_radius) and 0.0 < self.max_radius < 1.0):
            raise DomainError(f"grid max_radius must lie in (0, 1), got {self.max_radius}")
        if self.n_radii < 1:
            raise DomainError("grid needs at least one radius")
        if self.n_angles < 4:
            raise DomainError("grid needs at least four angles")

    def radii(self) -> np.ndarray:
        """Ascending radii in (0, max_radius]."""
        j = np.arange(self.n_radii)
        nodes = self.max_radius * (1.0 + np.cos(np.pi * j / self.n_radii)) / 2.0
        return nodes[::-1].copy()

    def angles(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n_angles) / self.n_angles

    def phases(self) -> np.ndarray:
        """Unit phases ``exp(1j * angles())``; the points are radii times phases."""
        return np.exp(1j * self.angles())

    def points(self) -> np.ndarray:
        """Complex sample points, shape (n_radii, n_angles), radius-major."""
        return self.radii()[:, None] * self.phases()[None, :]

    def describe(self) -> str:
        return f"{self.n_radii}x{self.n_angles} polar grid, max radius {self.max_radius}"


@dataclass(frozen=True)
class MembershipVerdict:
    """Outcome of a sampled inequality test.

    A failing verdict is conclusive: the witness point violates the tested
    inequality.  A holding verdict is one-sided evidence, recorded in
    ``evidence`` as "not falsified" at the sampled resolution.
    """

    holds: bool
    margin: float
    witness: complex
    samples: int
    near_degenerate: bool = False
    evidence: str = ""


def verdict_from_margins(
    margins: np.ndarray, points: np.ndarray | tuple[np.ndarray, np.ndarray], description: str
) -> MembershipVerdict:
    """Reduce pointwise margins to a verdict.

    *points* holds the sample points in the layout of *margins*, or is the
    pair ``(radii, phases)`` of a polar grid's axes: the margin at ``[i, j]``
    then belongs to ``radii[i] * phases[j]``, and only the witness is formed
    (bitwise equal to ``PolarGrid.points()[i, j]``).

    The reduction is deterministic regardless of evaluation order: the
    argmin is taken over the C-order flattening, so ties break on the
    lexicographically first (radius, angle) index.
    """
    flat = np.ascontiguousarray(np.real(margins)).ravel()
    idx = int(np.argmin(flat))
    margin = float(flat[idx])
    if isinstance(points, tuple):
        radii, phases = points
        i, j = divmod(idx, len(phases))
        witness = complex(radii[i] * phases[j])
    else:
        witness = complex(np.asarray(points).ravel()[idx])
    holds = margin > 0.0
    if holds:
        evidence = f"not falsified at {description}"
    else:
        evidence = f"violated at witness (margin {margin:.6e})"
    return MembershipVerdict(
        holds=holds,
        margin=margin,
        witness=witness,
        samples=flat.size,
        evidence=evidence,
    )
