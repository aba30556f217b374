"""Built-in catalog of six reference constructions over (p, q) = (3, 3).

Each case pairs a seed and factor choice with a reference closed form of
the map's value.  The reference formulas are content-normalized for
presentation: the raw map output equals ``scale`` times the formula, with
``scale`` a fixed rational constant for every choice of the vectors t, s
(its magnitude is just the integer content of the raw output).  The
runner therefore checks exact proportionality at the frozen constant and
always reports that constant rather than normalizing silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .frame import AxisFrame
from .fueter import VARIANT_MINUS, VARIANT_PLUS, apply_map
from .parsing import parse_seed
from .radial import (
    RadialExpr,
    constant_vector_x,
    constant_vector_y,
    inner_x,
    inner_y,
    proportionality_constant,
    vector_x,
    vector_y,
)
from .seeds import SeedFunction

FRAME_33 = AxisFrame(3, 3)


@dataclass(frozen=True)
class ReferenceCase:
    index: int
    variant: str
    seed_text: str
    hk_power: int
    scale: Fraction
    build_reference: Callable[[AxisFrame, Sequence[Fraction], Sequence[Fraction]], RadialExpr]

    @property
    def name(self) -> str:
        sign = "+" if self.variant == VARIANT_PLUS else "-"
        hk = "ip(x,t)" if self.hk_power == 1 else f"ip(x,t)^{self.hk_power}"
        return f"Ft{sign}[{self.seed_text}, {hk}, ip(y,s)]"

    def build_seed(self) -> SeedFunction:
        return SeedFunction.create(parse_seed(self.seed_text))

    def run_engine(self, frame: AxisFrame, t: Sequence[Fraction], s: Sequence[Fraction]) -> RadialExpr:
        hk = inner_x(frame, t) ** self.hk_power
        hl = inner_y(frame, s)
        return apply_map(self.build_seed(), hk, hl, frame, self.variant)


def _parts(frame: AxisFrame, t: Sequence[Fraction], s: Sequence[Fraction]):
    x_vec, y_vec = vector_x(frame), vector_y(frame)
    t_vec, s_vec = constant_vector_x(frame, t), constant_vector_y(frame, s)
    xt, ys = inner_x(frame, t), inner_y(frame, s)
    radial = lambda a, b: RadialExpr.radial(frame, a, b)
    return x_vec, y_vec, t_vec, s_vec, xt, ys, radial


def _ref_1(frame, t, s):
    x_vec, y_vec, t_vec, s_vec, xt, ys, radial = _parts(frame, t, s)
    r2, rho2 = radial(2, 0), radial(0, 2)
    r_3, r_5 = radial(-3, 0), radial(-5, 0)
    return (10 * r_3 * xt * ys
            + 6 * r_5 * x_vec * y_vec * xt * ys
            - 2 * r_3 * t_vec * y_vec * ys
            + (5 * r2 + 3 * rho2) * r_5 * x_vec * s_vec * xt
            - (5 * r2 + rho2) * r_3 * t_vec * s_vec)


def _ref_2(frame, t, s):
    x_vec, y_vec, t_vec, s_vec, xt, ys, radial = _parts(frame, t, s)
    r2, rho2 = radial(2, 0), radial(0, 2)
    return (10 * xt * ys
            - 2 * t_vec * y_vec * ys
            + 2 * x_vec * s_vec * xt
            + (r2 - rho2) * t_vec * s_vec)


def _ref_3(frame, t, s):
    x_vec, y_vec, t_vec, s_vec, xt, ys, radial = _parts(frame, t, s)
    r2, rho2 = radial(2, 0), radial(0, 2)
    quartic = 5 * radial(4, 0) - 14 * radial(2, 2) + 5 * radial(0, 4)
    return (140 * (r2 - rho2) * xt * ys
            - 56 * x_vec * y_vec * xt * ys
            - 4 * (7 * r2 - 5 * rho2) * t_vec * y_vec * ys
            + 4 * (5 * r2 - 7 * rho2) * x_vec * s_vec * xt
            + quartic * t_vec * s_vec)


def _ref_4(frame, t, s):
    x_vec, y_vec, t_vec, s_vec, xt, ys, radial = _parts(frame, t, s)
    r2, rho2 = radial(2, 0), radial(0, 2)
    rho_3, rho_5 = radial(0, -3), radial(0, -5)
    return (2 * rho_3 * x_vec * xt * ys
            - (3 * r2 + 5 * rho2) * rho_5 * y_vec * xt * ys
            + (r2 + 5 * rho2) * rho_3 * (t_vec * ys + s_vec * xt))


def _ref_5(frame, t, s):
    x_vec, y_vec, t_vec, s_vec, xt, ys, radial = _parts(frame, t, s)
    r2, rho2 = radial(2, 0), radial(0, 2)
    return (2 * (x_vec - y_vec) * xt * ys
            + (r2 - rho2) * (t_vec * ys + s_vec * xt))


def _ref_6(frame, t, s):
    x_vec, y_vec, t_vec, s_vec, xt, ys, radial = _parts(frame, t, s)
    r2, rho2 = radial(2, 0), radial(0, 2)
    quartic = 5 * radial(4, 0) - 14 * radial(2, 2) + 5 * radial(0, 4)
    t_norm2 = sum(c * c for c in t)
    return (8 * (5 * x_vec - 7 * y_vec) * xt * xt * ys
            - 4 * (7 * r2 - 5 * rho2) * t_norm2 * y_vec * ys
            + 4 * (5 * r2 - 7 * rho2) * (2 * t_vec * xt * ys + t_norm2 * x_vec * ys + s_vec * xt * xt)
            + quartic * t_norm2 * s_vec)


REFERENCE_CASES: tuple[ReferenceCase, ...] = (
    ReferenceCase(1, VARIANT_PLUS, "zbar^5", 1, Fraction(-1536), _ref_1),
    ReferenceCase(2, VARIANT_PLUS, "zbar^8", 1, Fraction(172032), _ref_2),
    ReferenceCase(3, VARIANT_PLUS, "zbar^10", 1, Fraction(110592), _ref_3),
    ReferenceCase(4, VARIANT_MINUS, "i*zbar^6", 1, Fraction(-9216), _ref_4),
    ReferenceCase(5, VARIANT_MINUS, "zbar^9", 1, Fraction(1548288), _ref_5),
    ReferenceCase(6, VARIANT_MINUS, "zbar^11", 2, Fraction(12165120), _ref_6),
)


@dataclass(frozen=True)
class CaseResult:
    case: ReferenceCase
    passed: bool
    scale_found: Fraction | None
    engine_output: RadialExpr
    reference_output: RadialExpr


def run_case(case: ReferenceCase, t: Sequence[Fraction], s: Sequence[Fraction]) -> CaseResult:
    got = case.run_engine(FRAME_33, t, s)
    want = case.build_reference(FRAME_33, t, s)
    lam = proportionality_constant(got, want)
    return CaseResult(case, lam == case.scale, lam, got, want)
