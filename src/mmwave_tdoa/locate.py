"""Least-squares position fix from three TOA estimates.

With the reference receiver at the origin, squaring the range differences
linearizes the hyperbolic equations: H [x; y] = R1 * c + d, where H stacks
the other two receiver coordinates, c holds the negated range differences
and d their squared corrections. H is 2x2 here, so the least-squares form
(H^T H)^-1 H^T reduces to a plain solve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import C0
from .errors import ConfigurationError


@dataclass(frozen=True)
class BsLayout:
    """Three receiver positions; the first must sit at the origin."""

    bs1: tuple[float, float]
    bs2: tuple[float, float]
    bs3: tuple[float, float]

    def __post_init__(self):
        if self.bs1 != (0.0, 0.0):
            raise ConfigurationError("reference receiver must sit at the origin")
        with np.errstate(invalid="ignore"):  # a NaN coordinate's NaN det fails the test too
            det = np.linalg.det(self.matrix())
        if not abs(det) >= 1e-12:
            raise ConfigurationError("receivers are collinear or not finite; H is singular")

    @classmethod
    def corner(cls, size: float) -> "BsLayout":
        """Reference at the origin, the others at (0, L) and (L, 0)."""
        return cls(bs1=(0.0, 0.0), bs2=(0.0, size), bs3=(size, 0.0))

    def matrix(self) -> np.ndarray:
        return np.array([self.bs2, self.bs3], dtype=np.float64)

    def positions(self) -> np.ndarray:
        return np.array([self.bs1, self.bs2, self.bs3], dtype=np.float64)


@dataclass(frozen=True)
class ToaTriplet:
    """TOA estimates at the three receivers, sharing one clock.

    common_offset_correction is subtracted from tau1 before converting it
    into the reference absolute range; it absorbs the estimator's common
    energy-peak offset, which cancels in the differences but not in tau1.
    """

    tau1: float
    tau2: float
    tau3: float
    common_offset_correction: float = 0.0

    def __post_init__(self):
        values = (self.tau1, self.tau2, self.tau3)
        if not all(np.isfinite(values)) or any(t < 0.0 for t in values):
            raise ConfigurationError("TOA estimates must be finite and non-negative")


def tdoa_ranges(t: ToaTriplet) -> tuple[float, float, float]:
    """(R21, R31, R1): range differences to the reference and its absolute
    range, negative when the offset correction exceeds tau1 (see solve_position)."""
    r21 = (t.tau2 - t.tau1) * C0
    r31 = (t.tau3 - t.tau1) * C0
    r1 = (t.tau1 - t.common_offset_correction) * C0
    return r21, r31, r1


def solve_position(
    layout: BsLayout,
    ranges: tuple[float, float, float],
    r1_mode: str = "known-clock",
) -> tuple[float, float]:
    """Position estimate from (R21, R31, R1): one solve of H [x; y] = R1 c + d.

    known-clock uses R1 as measured (transmitter and receivers share a
    clock) and rejects a negative one. quadratic discards R1 and takes the
    non-negative root of |R1 u + w| = R1, with u = H^-1 c and w = H^-1 d,
    whose R1 u + w lies nearest the receiver box widened by 1e-9 m; a tie
    goes to the smaller R1.
    """
    r21, r31, r1 = ranges
    h = layout.matrix()
    b2 = float(np.dot(h[0], h[0]))
    b3 = float(np.dot(h[1], h[1]))
    c = np.array([-r21, -r31])
    d = 0.5 * np.array([b2 - r21 * r21, b3 - r31 * r31])

    # `BsLayout` rejects a singular H, so neither solve raises LinAlgError.
    if r1_mode == "quadratic":
        uw = np.linalg.solve(h, np.column_stack((c, d)))
        r1 = _pick_quadratic_root(layout, uw[:, 0], uw[:, 1])
    elif r1_mode != "known-clock":
        raise ConfigurationError(f"unknown r1 mode {r1_mode!r}")
    elif r1 < 0.0:
        raise ConfigurationError("offset correction exceeds the reference TOA")
    xy = np.linalg.solve(h, r1 * c + d)
    return float(xy[0]), float(xy[1])


def _pick_quadratic_root(layout, u, w) -> float:
    # |r1 u + w|^2 = r1^2  ->  (|u|^2 - 1) r1^2 + 2 u.w r1 + |w|^2 = 0
    a = float(np.dot(u, u)) - 1.0
    b = 2.0 * float(np.dot(u, w))
    cc = float(np.dot(w, w))
    if abs(a) < 1e-15:
        roots = [] if b == 0.0 else [-cc / b]
    else:
        disc = b * b - 4.0 * a * cc
        if disc < 0.0:
            raise ConfigurationError("no real solution for the reference range")
        sq = np.sqrt(disc)
        roots = [(-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a)]
    roots = [r for r in roots if r >= 0.0]
    if not roots:
        raise ConfigurationError("no non-negative reference range satisfies the geometry")

    high = (np.max(np.abs(layout.positions()), axis=0) + 1e-9).tolist()

    def outside(r):  # distance of r u + w from the box widened by 1e-9 m, 0 inside
        xy = (r * u + w).tolist()
        return math.hypot(*(max(-1e-9 - v, 0.0, v - hi) for v, hi in zip(xy, high)))

    return float(min(roots, key=lambda r: (outside(r), r)))
