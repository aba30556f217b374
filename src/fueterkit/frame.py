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
        # The coordinate table, by index: X0 when the frame has it, then
        # x1..xp, then y1..yq.  Set here, with the fields, rather than on
        # first use: an attribute added later turns every attribute read
        # of the frame into a slower dict lookup.
        head = ["X0"] if self.scalar_axis else []
        names = head + [f"x{j}" for j in range(1, self.p + 1)] + [f"y{j}" for j in range(1, self.q + 1)]
        object.__setattr__(self, "_names", tuple(names))

    @property
    def m(self) -> int:
        return self.p + self.q

    @property
    def _base(self) -> int:
        """The index of x1: X0, when present, comes first."""
        return 1 if self.scalar_axis else 0

    @property
    def ncoords(self) -> int:
        return len(self._names)

    @property
    def x_indices(self) -> range:
        base = self._base
        return range(base, base + self.p)

    @property
    def y_indices(self) -> range:
        base = self._base + self.p
        return range(base, base + self.q)

    def group_indices(self, group: str) -> range:
        """The coordinate indices of axial group "x" or "y"."""
        if group == "x":
            return self.x_indices
        if group == "y":
            return self.y_indices
        raise ValueError(f"group must be 'x' or 'y', got {group!r}")

    def coord_name(self, index: int) -> str:
        if 0 <= index < self.ncoords:
            return self._names[index]
        raise ValueError(f"coordinate index {index} out of range for {self}")

    def coord_index(self, name: str) -> int:
        """The index of a name in the coordinate table; ``x01`` is no alias
        of ``x1``."""
        if name in self._names:
            return self._names.index(name)
        if name == "X0":
            raise ValueError("frame has no scalar axis X0")
        raise ValueError(f"unknown coordinate {name!r} for frame p={self.p}, q={self.q}")

    def generator_of(self, coord_index: int) -> int:
        """Generator index e_j paired with a vector coordinate (1-based)."""
        base = self._base
        if coord_index < base:
            raise ValueError("X0 has no Clifford generator")
        return coord_index - base + 1

    def coord_names(self) -> list[str]:
        return list(self._names)
