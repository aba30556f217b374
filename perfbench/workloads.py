"""The benchmark's workloads: inputs drawn from a seed, timed calls, checks.

Every vector is drawn from the workload seed as a signed permutation of
fixed nonzero magnitudes, so the amount of work does not depend on the
seed.  A call's `run` is what the benchmark times; its `check` runs
after the timed region and compares the output with a reference that
does not come from the code path under test.  README.md says why each
workload was chosen.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from exact import LARGE_CASES, Point, large_reference, load_references, scaled
from fueterkit import cli, fueter
from fueterkit.catalog import FRAME_33, REFERENCE_CASES
from fueterkit.frame import AxisFrame
from fueterkit.parsing import parse_seed
from fueterkit.radial import RadialExpr, inner_x, inner_y
from fueterkit.seeds import SeedFunction

APPLY_LAYERS = frozenset({
    "cli", "parsing", "seeds.create", "seeds.lift", "radial.zero_test", "radial.canonical",
    "radial.laplacian", "radial.dirac", "radial.re_mul", "fueter.direct_map", "formatting"})
ROUTE_LAYERS = frozenset({
    "seeds.create", "seeds.lift", "bivariate", "radial.zero_test", "radial.canonical",
    "radial.laplacian", "radial.dirac", "radial.re_mul", "fueter.direct_map", "fueter.mu_map",
    "fueter.fischer_route", "fueter.fischer_decompose", "fueter.closed_form"})

# Term counts of the (3,3) zbar^11 <x,t>^2 <y,s> map at the commit that
# defined this benchmark: the integrand, the output of each Laplacian
# step, and the display canonical form of the result.
BASELINE_PIN = {"integrand": 1080, "laplacian": [1908, 2070, 2070, 1806, 1461], "canonical": 15714}


class CallFailed(RuntimeError):
    """A timed call ended without a usable output."""


@dataclass(frozen=True)
class Checked:
    ok: bool
    terms: int
    nbytes: int


@dataclass(frozen=True)
class Call:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Checked]


@dataclass(frozen=True)
class Workload:
    build: Callable[[int], list[Call]]
    layers: frozenset


MAGNITUDES = (Fraction(1, 2), Fraction(2), Fraction(3), Fraction(5, 3), Fraction(1))


def draw_vector(rng: random.Random, n: int) -> list[Fraction]:
    """A signed permutation of the first n MAGNITUDES.

    Permuting and reflecting coordinates is a symmetry of every map, so
    all seeds give outputs with the same term counts and coefficient
    sizes: the seed changes the inputs but not the amount of work.
    """
    return [rng.choice((-1, 1)) * m for m in rng.sample(MAGNITUDES[:n], n)]


def run_apply(argv: list[str]) -> str:
    """`fueterkit apply` in-process; the printed text."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise CallFailed(f"apply exited {rc}")
    return buf.getvalue()


def _vec_arg(flag: str, vec) -> str:
    # --t=-1,2,2: with a space argparse reads '-1,2,2' as an option.
    return f"{flag}=" + ",".join(map(str, vec))


# -- catalog_apply -------------------------------------------------------

CATALOG_DRAWS = 4


def _catalog_call(case, t, s) -> Call:
    hk = "ip(x,t)" if case.hk_power == 1 else f"ip(x,t)^{case.hk_power}"
    argv = ["apply", "--p", "3", "--q", "3", "--variant", case.variant, "--seed", case.seed_text,
            "--Hk", hk, "--Hl", "ip(y,s)", _vec_arg("--t", t), _vec_arg("--s", s)]
    point = Point(3, 3)

    def check(text: str) -> Checked:
        value, nterms = point.evaluate_plain(text)
        formula = case.build_reference(FRAME_33, t, s)
        want = scaled(point.evaluate_terms(formula.raw_terms.items()), case.scale)
        return Checked(value == want, nterms, len(text.encode()))

    return Call(f"example {case.index}", lambda: run_apply(argv), check)


def build_catalog(seed: int) -> list[Call]:
    rng = random.Random(seed)
    return [_catalog_call(case, draw_vector(rng, 3), draw_vector(rng, 3))
            for _ in range(CATALOG_DRAWS) for case in REFERENCE_CASES]


# -- large_apply ---------------------------------------------------------


def _large_call(case, table, t, s) -> Call:
    hk = "ip(x,t)" if case.k == 1 else f"ip(x,t)^{case.k}"
    hl = "ip(y,s)" if case.l == 1 else f"ip(y,s)^{case.l}"
    argv = ["apply", "--p", str(case.p), "--q", str(case.q), "--variant", case.variant,
            "--seed", case.seed, "--Hk", hk, "--Hl", hl, _vec_arg("--t", t), _vec_arg("--s", s)]
    point = Point(case.p, case.q)

    def check(text: str) -> Checked:
        value, nterms = point.evaluate_plain(text)
        return Checked(value == large_reference(table, t, s), nterms, len(text.encode()))

    return Call(case.name, lambda: run_apply(argv), check)


def build_large(seed: int) -> list[Call]:
    rng = random.Random(seed)
    tables = load_references()
    return [_large_call(case, tables[case.name], draw_vector(rng, case.p), draw_vector(rng, case.q))
            for case in LARGE_CASES]


# -- route_check ---------------------------------------------------------

# (seed power, degree of <x,t>, variant): direct map against the Fischer
# route over (3,3); each pair has a nonzero output.  (8, 2, "minus") is left
# out: alone it took 40% of a pass and its time jittered by 17% between
# runs, which left too few samples per call for a steady pass time.
FISCHER_GRID = ((5, 1, "plus"), (5, 2, "plus"), (8, 1, "plus"), (8, 1, "minus"), (8, 2, "plus"))
# (p = q, seed, its order mu, variant): ft_mu against the closed form with
# monogenic factors; each output is nonzero.
CLOSED_GRID = ((3, "zbar^5", 0, "plus"), (3, "zbar^5*z", 1, "minus"), (3, "zbar^6*z^2", 2, "minus"),
               (5, "zbar^7", 0, "plus"), (5, "zbar^7*z", 1, "minus"), (5, "zbar^7*z^2", 2, "plus"))


def _route_check(expr: RadialExpr) -> Checked:
    nterms = len(expr.canonical_terms())
    return Checked(nterms > 0, nterms, 0)


def _pair(label: str, first: Callable[[], RadialExpr], second: Callable[[], RadialExpr]) -> Call:
    def run() -> RadialExpr:
        a, b = first(), second()
        if a != b:
            raise CallFailed(f"{label}: routes disagree")
        return a

    return Call(label, run, _route_check)


def _monogenic_layer(expr: RadialExpr, group: str) -> RadialExpr:
    """The degree-preserving monogenic Fischer layer of a factor."""
    return fueter.fischer_decompose(expr, group)[0].component


def build_route(seed: int) -> list[Call]:
    rng = random.Random(seed)
    calls = []
    f33 = AxisFrame(3, 3)
    t, s = draw_vector(rng, 3), draw_vector(rng, 3)
    xt, ys = inner_x(f33, t), inner_y(f33, s)
    for power, k, variant in FISCHER_GRID:
        sd = SeedFunction.create(parse_seed(f"zbar^{power}"))
        hk = xt ** k
        direct = "ft_plus" if variant == "plus" else "ft_minus"
        # Entry points are looked up at call time, so traced runs see the span wrappers.
        calls.append(_pair(f"fischer zbar^{power} k={k} {variant}",
                           lambda sd=sd, hk=hk, direct=direct: getattr(fueter, direct)(sd, hk, ys, f33),
                           lambda sd=sd, hk=hk, variant=variant:
                               fueter.ft_general_via_fischer(sd, hk, ys, f33, variant)))
    f55 = AxisFrame(5, 5)
    factors = {
        3: (_monogenic_layer(xt, "x"), _monogenic_layer(ys, "y")),
        5: (_monogenic_layer(inner_x(f55, draw_vector(rng, 5)), "x"), RadialExpr.scalar(f55, 1)),
    }
    for p, text, mu, variant in CLOSED_GRID:
        frame = f33 if p == 3 else f55
        sd = SeedFunction.create(parse_seed(text))
        if sd.mu != mu:
            raise ValueError(f"seed {text} has order {sd.mu}, expected {mu}")
        pk, pl = factors[p]
        args = (sd, pk, pl, frame, variant)
        calls.append(_pair(f"closed ({p},{p}) {text} {variant}",
                           lambda args=args: fueter.ft_mu(*args),
                           lambda args=args: fueter.ft_closed_form(*args)))
    return calls


WORKLOADS = {
    "catalog_apply": Workload(build_catalog, APPLY_LAYERS),
    "large_apply": Workload(build_large, APPLY_LAYERS),
    "route_check": Workload(build_route, ROUTE_LAYERS),
}
