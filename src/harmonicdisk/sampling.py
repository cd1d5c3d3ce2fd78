"""Polar sampling grids and the verdict record shared by the ring-sampled checks."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, _as_count, _as_real


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PolarGrid:
    """Polar grid strictly inside the unit disk.

    Radii are Chebyshev-Lobatto nodes on (0, max_radius] (the zero node is
    dropped, the outermost circle is included); angles are uniform.  The
    clustering of nodes near the outer circle matters because inequality
    extrema of low-order series occur there.  A grid computes its radii and
    phases once and hands out the same read-only arrays, and it formats the
    text of a verdict on its outer circle once; these are not fields, so
    equality, hashing and repr see only the three parameters.
    """

    max_radius: float = 0.95
    n_radii: int = 24
    n_angles: int = 96

    def __post_init__(self):
        max_radius = _as_real(self.max_radius, "grid max_radius", 0, 1, "()")
        object.__setattr__(self, "max_radius", max_radius)
        for name, minimum in (("n_radii", 1), ("n_angles", 4)):
            object.__setattr__(self, name, _as_count(getattr(self, name), f"grid {name}", minimum))

    @cached_property
    def _radii(self) -> np.ndarray:
        j = np.arange(self.n_radii)
        nodes = self.max_radius * (1.0 + np.cos(np.pi * j / self.n_radii)) / 2.0
        return _read_only(nodes[::-1].copy())

    @cached_property
    def _phases(self) -> np.ndarray:
        return _read_only(np.exp(1j * self.angles()))

    @cached_property
    def _outer_circle_text(self) -> tuple[str, str]:
        """The evidence suffix of a failing verdict sampled on the outer circle, and the text of a holding one.

        The circle is where the grid's harmonic margins have their minimum
        (minimum principle).
        """
        circle = f"circle |z| = {self.max_radius} ({self.n_angles} angles)"
        return f" on {circle}", f"{circle}, where the {self.describe()} has its minimum (minimum principle)"

    def radii(self) -> np.ndarray:
        """Ascending radii in (0, max_radius]; the last is exactly max_radius."""
        return self._radii

    def angles(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n_angles) / self.n_angles

    def phases(self) -> np.ndarray:
        """Unit phases ``exp(1j * angles())``; the points are radii times phases."""
        return self._phases

    def points(self) -> np.ndarray:
        """Complex sample points, shape (n_radii, n_angles), radius-major."""
        return self.radii()[:, None] * self.phases()[None, :]

    def describe(self) -> str:
        return f"{self.n_radii}x{self.n_angles} polar grid, max radius {self.max_radius}"


@dataclass(frozen=True)
class MembershipVerdict:
    """Outcome of a sampled inequality test.

    A failing verdict names a witness point where the sampled margin is not
    positive; it is conclusive unless that margin is within rounding of 0.
    A holding verdict is one-sided evidence, recorded in ``evidence`` as
    "not falsified" at the sampled resolution.
    """

    holds: bool
    margin: float
    witness: complex
    samples: int
    near_degenerate: bool = False
    evidence: str = ""


def verdict_from_margins(
    margins: np.ndarray,
    axes: tuple[Sequence[float] | np.ndarray, Sequence[complex] | np.ndarray],
    description: str,
    *,
    samples: int | None = None,
    near_degenerate_below: float = 0.0,
    failing_suffix: str = "",
) -> MembershipVerdict:
    """Reduce margins sampled on rings to a verdict.

    *axes* is the pair ``(radii, phases)``: the margin at ``[i, j]`` belongs
    to the point ``radii[i] * phases[j]``, and only the witness point is
    formed (for a polar grid's axes it is bitwise equal to
    ``PolarGrid.points()[i, j]``).  Each axis may be any sequence with
    ``len`` and integer indexing: only ``len(phases)`` and the two entries
    at the argmin are read, so an axis can form its entries on demand
    (``geometry._circle_verdict`` names a circle's witness that way).

    The reduction is deterministic regardless of evaluation order: the
    argmin is taken over the C-order flattening, so ties break on the
    lexicographically first (radius, angle) index.  A NaN or infinite
    margin means the sampled values overflowed; that is a DomainError, not
    a verdict.

    The keywords complete the record, which is built once:

    - *samples* is the recorded sample count (default: the number of
      margins), for a check whose margins reduce more samples than they hold;
    - a holding verdict with margin below *near_degenerate_below* is flagged
      ``near_degenerate`` (the default 0 flags none);
    - *failing_suffix* is appended to the evidence of a failing verdict.
    """
    margins = np.asarray(margins)
    flat = (margins.real if margins.dtype.kind == "c" else margins).ravel()
    idx = int(flat.argmin())
    margin = float(flat[idx])
    if not math.isfinite(margin):
        raise DomainError(f"sampled margin is not finite ({margin}): the values overflowed")
    radii, phases = axes
    i, j = divmod(idx, len(phases))
    holds = margin > 0.0
    if holds:
        evidence = f"not falsified at {description}"
    else:
        evidence = f"violated at witness (margin {margin:.6e}){failing_suffix}"
    # filled without a class call: the frozen __init__ makes one
    # object.__setattr__ call per field
    verdict = object.__new__(MembershipVerdict)
    verdict.__dict__.update(
        holds=holds,
        margin=margin,
        witness=complex(radii[i] * phases[j]),
        samples=flat.size if samples is None else samples,
        near_degenerate=holds and margin < near_degenerate_below,
        evidence=evidence,
    )
    return verdict
