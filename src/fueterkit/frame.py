"""Biaxial coordinate frames.

A frame fixes the split R^m = R^p + R^q with coordinates x1..xp and
y1..yq (the latter attached to generators e_{p+1}..e_m), the radii
r = |x| and rho = |y|, and optionally a commuting scalar coordinate X0.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AxisFrame:
    """Axis configuration: group sizes and the optional scalar coordinate.

    q = 0 is single-axis mode; rho is disabled there and r plays the role
    of |X| for the generalized Cauchy-Riemann constructions.
    """

    p: int
    q: int = 0
    scalar_axis: bool = False

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("first group size p must be >= 1")
        if self.q < 0:
            raise ValueError("second group size q must be >= 0")

    @property
    def m(self) -> int:
        return self.p + self.q

    @property
    def ncoords(self) -> int:
        return self.m + (1 if self.scalar_axis else 0)

    @property
    def x_indices(self) -> range:
        base = 1 if self.scalar_axis else 0
        return range(base, base + self.p)

    @property
    def y_indices(self) -> range:
        base = (1 if self.scalar_axis else 0) + self.p
        return range(base, base + self.q)

    def group_indices(self, group: str) -> range:
        """The coordinate indices of axial group "x" or "y"."""
        if group == "x":
            return self.x_indices
        if group == "y":
            return self.y_indices
        raise ValueError(f"group must be 'x' or 'y', got {group!r}")

    def coord_name(self, index: int) -> str:
        base = 1 if self.scalar_axis else 0
        if self.scalar_axis and index == 0:
            return "X0"
        if base <= index < base + self.p:
            return f"x{index - base + 1}"
        if base + self.p <= index < self.ncoords:
            return f"y{index - base - self.p + 1}"
        raise ValueError(f"coordinate index {index} out of range for {self}")

    def coord_index(self, name: str) -> int:
        """The index of ``X0``, ``x``j or ``y``j, whose digits must be str(j):
        ``x01`` is no alias of ``x1``."""
        base = 1 if self.scalar_axis else 0
        if name == "X0":
            if not self.scalar_axis:
                raise ValueError("frame has no scalar axis X0")
            return 0
        digits = name[1:]
        j = int(digits) if digits.isdecimal() and str(int(digits)) == digits else 0
        if name[:1] == "x" and 1 <= j <= self.p:
            return base + j - 1
        if name[:1] == "y" and 1 <= j <= self.q:
            return base + self.p + j - 1
        raise ValueError(f"unknown coordinate {name!r} for frame p={self.p}, q={self.q}")

    def generator_of(self, coord_index: int) -> int:
        """Generator index e_j paired with a vector coordinate (1-based)."""
        base = 1 if self.scalar_axis else 0
        if coord_index < base:
            raise ValueError("X0 has no Clifford generator")
        return coord_index - base + 1

    def coord_names(self) -> list[str]:
        return [self.coord_name(i) for i in range(self.ncoords)]
