"""Independent oracle: recompute one reference map with sympy.

The engine's Laplacian pipeline is exercised against a from-scratch
computation in a different codebase and representation (sympy
polynomials, componentwise second derivatives per Clifford blade).
Skipped when sympy is unavailable; everything here is exact.
"""

import pytest

sp = pytest.importorskip("sympy")

from fueterkit import AxisFrame, conj_power, ft_plus, inner_x, inner_y


def test_zbar8_map_matches_sympy_componentwise():
    x1, x2, x3, y1, y2, y3 = sp.symbols("x1 x2 x3 y1 y2 y3")
    xs, ys = [x1, x2, x3], [y1, y2, y3]

    X, Y = sp.symbols("X Y", real=True)
    w = sp.expand((X - sp.I * Y) ** 8)
    u, v = sp.re(w), sp.im(w)
    r2 = x1**2 + x2**2 + x3**2
    rho2 = y1**2 + y2**2 + y3**2

    def subst_even(poly):
        # the seed's u and v/(XY) carry only even powers, so the lift to the
        # radii is polynomial: X^(2a) Y^(2b) -> r2^a rho2^b
        out = 0
        for (a, b), coeff in sp.Poly(sp.expand(poly), X, Y).terms():
            assert a % 2 == 0 and b % 2 == 0
            out += coeff * r2 ** (a // 2) * rho2 ** (b // 2)
        return sp.expand(out)

    u_sub = subst_even(u)
    v_sub = subst_even(sp.cancel(v / (X * Y)))
    xt, ys_ip = x1, y2  # t = (1,0,0), s = (0,1,0)

    def lap_power(f, n):
        for _ in range(n):
            f = sp.expand(sum(sp.diff(f, c, 2) for c in xs + ys))
        return f

    # blade components of (u + sum x_i y_j e_i e_{3+j} v/(r rho)) * xt * ys
    expected = {
        (): lap_power(sp.expand(u_sub * xt * ys_ip), 4),
        (1, 5): lap_power(sp.expand(x1 * y2 * v_sub * xt * ys_ip), 4),
        (2, 5): lap_power(sp.expand(x2 * y2 * v_sub * xt * ys_ip), 4),
        (3, 6): lap_power(sp.expand(x3 * y3 * v_sub * xt * ys_ip), 4),
    }

    frame = AxisFrame(3, 3)
    out = ft_plus(conj_power(8), inner_x(frame, [1, 0, 0]), inner_y(frame, [0, 1, 0]), frame)
    terms = out.canonical_terms()
    names = frame.coord_names()
    symbols = {"x1": x1, "x2": x2, "x3": x3, "y1": y1, "y2": y2, "y3": y3}

    def engine_component(blade):
        total = sp.Integer(0)
        for (mono, b, a, bb), c in terms.items():
            if b != blade:
                continue
            # the normal form keeps r^2 and rho^2 in place of x3^2 and y3^2
            assert a % 2 == 0 and bb % 2 == 0 and a >= 0 and bb >= 0
            expr = sp.Rational(c.numerator, c.denominator) * r2 ** (a // 2) * rho2 ** (bb // 2)
            for i, e in enumerate(mono):
                if e:
                    expr *= symbols[names[i]] ** e
            total += expr
        return sp.expand(total)

    for blade, want in expected.items():
        assert sp.expand(engine_component(blade) - want) == 0, f"blade {blade} differs"
