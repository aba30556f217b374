"""Command-line surface.

Exit codes: 0 success, 1 precondition violation (parity, monogenicity,
seed order, a radial exponent beyond +-2^62), 2 parse error (an argparse
usage error too), 3 internal verification failure or any other
unexpected error, each reported on one stderr line, 141 (128 + SIGPIPE)
when the reader closes stdout early, with nothing on stderr.  Random
vector draws are seeded from the FUETER_SEED environment variable when
set; the seed actually used is announced on stderr at the first draw so
runs can be reproduced.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from fractions import Fraction
from typing import NoReturn

from .bivariate import BiaxialParams, laplacian_expansion
from .catalog import REFERENCE_CASES, run_case
from .errors import ParseError, PreconditionError, VerificationError
from .formatting import STYLES, expression_json_object, format_bivariate, format_expression
from .frame import AxisFrame
from .fueter import apply_map, fischer_decompose
from .parsing import parse_bivariate, parse_expression, parse_seed, parse_vector
from .radial import SCOPE_CR, SCOPE_FIRST, SCOPE_FULL, SCOPE_SECOND, is_monogenic
from .seeds import SeedFunction


class _VectorReader:
    """The one reader of --t and --s, and the source of random vectors.

    One generator serves a command's draws.  It is made, and its seed
    announced as ``# rng-seed: N`` on stderr, at the first draw, so a
    command that draws nothing prints no seed line."""

    def __init__(self) -> None:
        self._rng: random.Random | None = None

    def draw(self, length: int) -> list[Fraction]:
        """A random nonzero vector."""
        if self._rng is None:
            env = os.environ.get("FUETER_SEED")
            seed = int(env) if env is not None else random.SystemRandom().randint(0, 2**31 - 1)
            print(f"# rng-seed: {seed}", file=sys.stderr)
            self._rng = random.Random(seed)
        while True:
            vec = [Fraction(self._rng.randint(-3, 3), self._rng.randint(1, 3)) for _ in range(length)]
            if any(vec):
                return vec

    def read(self, text: str | None, length: int, what: str) -> list[Fraction] | None:
        """The vector an option gives: None when absent, one announced draw
        for "random", else the parsed vector of the given length."""
        if text is None:
            return None
        if text == "random":
            vec = self.draw(length)
            print(f"# {what} = {','.join(str(c) for c in vec)}", file=sys.stderr)
            return vec
        vec = parse_vector(text)
        if len(vec) != length:
            raise ParseError(f"vector {what} must have {length} components, got {len(vec)}")
        return vec


def _bound_vectors(args, frame: AxisFrame) -> dict[str, list[Fraction]]:
    """The vectors that --t and --s (where the command has it) bind for
    ip(x,t) and ip(y,s); a random t is drawn before a random s."""
    reader = _VectorReader()
    vectors = {}
    for name, length in (("t", frame.p), ("s", frame.q)):
        vec = reader.read(getattr(args, name, None), length, name)
        if vec is not None:
            vectors[name] = vec
    return vectors


def _print_expression(expr, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(expression_json_object(expr), separators=(",", ":")))
    else:
        print(format_expression(expr, fmt))


def _cmd_apply(args) -> int:
    frame = AxisFrame(args.p, args.q)
    vectors = _bound_vectors(args, frame)
    seed = SeedFunction.create(parse_seed(args.seed))
    hk = parse_expression(args.Hk, frame, vectors)
    hl = parse_expression(args.Hl, frame, vectors)
    out = apply_map(seed, hk, hl, frame, args.variant, mu=args.mu)
    _print_expression(out, args.format)
    return 0


def _order(text: str) -> int | None:
    """The value of --mu: None for "auto", else an int >= 0."""
    if text == "auto":
        return None
    try:
        mu = int(text)
    except ValueError:
        mu = -1
    if mu < 0:
        raise argparse.ArgumentTypeError(f"expected auto or a nonnegative integer, got {text!r}")
    return mu


def _cmd_check_monogenic(args) -> int:
    frame = AxisFrame(args.p, args.q, scalar_axis=args.scalar_axis)
    expr = parse_expression(args.expr, frame, _bound_vectors(args, frame))
    print("true" if is_monogenic(expr, args.scope) else "false")
    return 0


def _cmd_fischer(args) -> int:
    frame = AxisFrame(args.p, 0)
    h = parse_expression(args.H, frame, _bound_vectors(args, frame))
    layers = fischer_decompose(h, "x")
    for layer in layers:
        print(f"n={layer.n}: {format_expression(layer.component, args.format)}")
    return 0


def _cmd_lemma5(args) -> int:
    h = parse_bivariate(args.h)
    params = BiaxialParams(args.k, args.l, args.p, args.q)
    out = laplacian_expansion(h, args.n, args.s1, args.s2, params)
    print(format_bivariate(out, args.format))
    return 0


def _cmd_examples(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    reader = _VectorReader()
    fixed = []
    for name in ("t", "s"):
        vec = reader.read(getattr(args, name), 3, name)
        if vec is not None and not any(vec):
            raise ValueError(f"--{name} must be a nonzero vector")
        fixed.append(vec)
    fixed_t, fixed_s = fixed
    passed = 0
    for case in REFERENCE_CASES:
        # One result per case: the last trial's CaseResult, or the exception
        # that ended the trials.
        for _ in range(args.trials):
            try:
                result = run_case(case, fixed_t or reader.draw(3), fixed_s or reader.draw(3))
            except Exception as exc:
                result = exc
            if isinstance(result, Exception) or not result.passed:
                break
        if isinstance(result, Exception):
            print(f"example {case.index} {case.name}: FAIL ({_error_report(result)[1]})")
        elif result.passed:
            passed += 1
            print(f"example {case.index} {case.name}: PASS (engine = {result.scale_found} * formula)")
        else:
            print(f"example {case.index} {case.name}: FAIL "
                  f"(proportionality {result.scale_found}, expected {case.scale})")
            print(f"  engine:  {format_expression(result.engine_output)}")
            print(f"  formula: {format_expression(result.reference_output)}")
    print(f"{passed}/{len(REFERENCE_CASES)} PASS")
    return 0 if passed == len(REFERENCE_CASES) else 3


def _cmd_selftest(args) -> int:
    # loaded here, so no other command compiles the self-test suites
    from .selfcheck import run_all

    results = run_all(args.seed)
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name} ({detail})")
    passed = sum(ok for _, ok, _ in results)
    print(f"{passed}/{len(results)} suites passed")
    return 0 if passed == len(results) else 3


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with its usage errors raised as ``ParseError``, so ``main``
    reports them on one stderr line; subparsers inherit the class."""

    def error(self, message: str) -> NoReturn:
        raise ParseError(message)


# Built once per process: building takes longer than parsing, and a
# parser holds no state between parse_args calls.
@functools.cache
def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="fueterkit",
        description="Exact construction and verification of monogenic functions over biaxial frames.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_apply = sub.add_parser("apply", help="compute a Fueter map value")
    p_apply.add_argument("--p", type=int, required=True)
    p_apply.add_argument("--q", type=int, required=True)
    p_apply.add_argument("--variant", choices=["plus", "minus"], required=True)
    p_apply.add_argument("--mu", type=_order, default="auto", help="annihilation order: auto or a nonnegative integer")
    p_apply.add_argument("--seed", required=True, help="seed polynomial, e.g. 'zbar^8' or '3/2*zbar^5 - i*zbar^3'")
    p_apply.add_argument("--Hk", required=True, help="first-group homogeneous factor expression")
    p_apply.add_argument("--Hl", required=True, help="second-group homogeneous factor expression")
    p_apply.add_argument("--t", help="comma-separated rationals or 'random'")
    p_apply.add_argument("--s", help="comma-separated rationals or 'random'")
    p_apply.add_argument("--format", choices=STYLES, default="plain")
    p_apply.set_defaults(fn=_cmd_apply)

    p_check = sub.add_parser("check-monogenic", help="test an expression for monogenicity")
    p_check.add_argument("--p", type=int, required=True)
    p_check.add_argument("--q", type=int, required=True)
    p_check.add_argument("--expr", required=True)
    p_check.add_argument("--scope", choices=(SCOPE_FIRST, SCOPE_SECOND, SCOPE_FULL, SCOPE_CR), default=SCOPE_FULL)
    p_check.add_argument("--scalar-axis", action="store_true")
    p_check.add_argument("--t")
    p_check.add_argument("--s")
    p_check.set_defaults(fn=_cmd_check_monogenic)

    p_fischer = sub.add_parser("fischer", help="decompose a homogeneous polynomial into monogenic layers")
    p_fischer.add_argument("--p", type=int, required=True)
    p_fischer.add_argument("--H", required=True)
    p_fischer.add_argument("--t")
    p_fischer.add_argument("--format", choices=STYLES, default="plain")
    p_fischer.set_defaults(fn=_cmd_fischer)

    p_exp = sub.add_parser("lemma5", help="expand a Laplacian power into radial operator terms")
    p_exp.add_argument("--h", required=True, help="scalar Laurent expression in r and rho")
    p_exp.add_argument("--n", type=int, required=True)
    p_exp.add_argument("--s1", type=int, choices=[0, 1], required=True)
    p_exp.add_argument("--s2", type=int, choices=[0, 1], required=True)
    p_exp.add_argument("--k", type=int, required=True)
    p_exp.add_argument("--l", type=int, required=True)
    p_exp.add_argument("--p", type=int, default=3)
    p_exp.add_argument("--q", type=int, default=3)
    p_exp.add_argument("--format", choices=STYLES, default="plain")
    p_exp.set_defaults(fn=_cmd_lemma5)

    p_examples = sub.add_parser("examples", help="run the built-in reference catalog")
    p_examples.add_argument("--trials", type=int, default=1)
    p_examples.add_argument("--t", help="fixed t vector instead of random draws")
    p_examples.add_argument("--s", help="fixed s vector instead of random draws")
    p_examples.set_defaults(fn=_cmd_examples)

    p_self = sub.add_parser("selftest", help="run the randomized invariant suites")
    p_self.add_argument("--seed", type=int, default=0)
    p_self.set_defaults(fn=_cmd_selftest)

    return parser


def _join_dash_values(argv: list[str]) -> list[str]:
    """Rewrite ``--opt -value`` as ``--opt=-value``.

    argparse reads a token that starts with "-" and is not a plain number
    as an option, so ``--t -1,2,2``, ``--seed -zbar^5`` or ``--expr -x1``
    would otherwise need the ``=`` form.  Every value-taking option here
    is a long option, so a "-" token after a bare ``--opt`` that is not
    itself an option string can only be meant as its value; a missing
    value (``--seed --Hk ...``) is left for argparse to reject.
    """
    out: list[str] = []
    for tok in argv:
        prev = out[-1] if out else ""
        if (prev.startswith("--") and "=" not in prev
                and tok.startswith("-") and not tok.startswith("--") and tok != "-h"):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


# Exit code and stderr prefix of each error a command raises, tried in
# order; any other exception exits 3 with its type name.
_EXIT_CODES = (
    (ParseError, 2, "parse error"),
    (PreconditionError, 1, "precondition violation"),
    (VerificationError, 3, "internal verification failure"),
    (ValueError, 1, "invalid input"),
)


def _error_report(exc: Exception) -> tuple[int, str]:
    """The exit code and the one-line text of an exception a command raised."""
    for kind, exit_code, prefix in _EXIT_CODES:
        if isinstance(exc, kind):
            return exit_code, f"{prefix}: {exc}"
    return 3, f"internal error: {type(exc).__name__}: {exc}"


def main(argv: list[str] | None = None) -> int:
    # Print every digit of an exact result (the parser bounds each
    # literal), and give the caller its own limit back on the way out.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = _build_parser().parse_args(_join_dash_values(sys.argv[1:] if argv is None else list(argv)))
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (`fueterkit apply ... | head`): not an
        # engine fault.  Point stdout at devnull so that the flush at
        # interpreter exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except MemoryError:
        # from bytes, allocating nothing: the failed call still holds the memory
        os.write(2, b"internal error: MemoryError: \n")
        return 3
    except Exception as exc:
        code, text = _error_report(exc)
        print(text, file=sys.stderr)
        return code
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
