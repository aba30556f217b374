"""Per-layer spans recorded from outside the program.

The benchmark does not edit fueterkit.  Tracer.install() replaces each
entry point listed in ENTRY_POINTS, and every module-level alias of it in
the fueterkit package (fueter holds its own `dirac`, cli its own
`format_expression`, ...), with a wrapper that records a span: layer,
start, end, the enclosing span, and the counts the layer's counter takes
from the arguments and the result.  Spans stay in memory until the
caller takes them.

The wrapper fails loudly: install() raises TraceError when a listed entry
point no longer exists, and check_reached() raises when a layer that a
workload should reach recorded no span, so a refactor cannot drop a layer
from the numbers silently.
"""

from __future__ import annotations

import functools
import statistics
import sys
from time import perf_counter


class TraceError(RuntimeError):
    """An entry point is missing, or a layer recorded no span."""


def _terms(expr) -> int:
    return len(expr.raw_terms)


def _count_zero_test(args, result):
    return {"terms_in": _terms(args[0])}


def _count_canonical(args, result):
    return {"terms_in": _terms(args[0]), "terms_out": len(result)}


def _count_laplacian(args, result):
    return {"terms_in": _terms(args[0]), "terms_out": _terms(result)}


def _count_dirac(args, result):
    return {"terms_out": _terms(result)}


def _count_re_mul(args, result):
    # re_mul takes one blade product per pair of input terms.
    return {"pairs": _terms(args[0]) * _terms(args[1]), "terms_out": _terms(result)}


def _count_format(args, result):
    return {"bytes_out": len(result.encode())}


# (layer, module, attribute path, counter)
ENTRY_POINTS = (
    ("cli", "fueterkit.cli", "main", None),
    ("parsing", "fueterkit.parsing", "parse_seed", None),
    ("parsing", "fueterkit.parsing", "parse_expression", None),
    ("parsing", "fueterkit.parsing", "parse_vector", None),
    ("seeds.create", "fueterkit.seeds", "SeedFunction.create", None),
    ("seeds.lift", "fueterkit.seeds", "split_uv", None),
    ("seeds.lift", "fueterkit.seeds", "lift_to_radial", None),
    ("bivariate", "fueterkit.bivariate", "delta2_power", None),
    ("bivariate", "fueterkit.bivariate", "apply_xinv_dx", None),
    ("bivariate", "fueterkit.bivariate", "apply_dx_xinv", None),
    ("radial.zero_test", "fueterkit.radial", "RadialExpr.is_zero", _count_zero_test),
    ("radial.zero_test", "fueterkit.radial", "RadialExpr.__bool__", _count_zero_test),
    ("radial.canonical", "fueterkit.radial", "RadialExpr.canonical_terms", _count_canonical),
    ("radial.laplacian", "fueterkit.radial", "laplacian", _count_laplacian),
    ("radial.dirac", "fueterkit.radial", "dirac", _count_dirac),
    ("radial.re_mul", "fueterkit.radial", "re_mul", _count_re_mul),
    ("fueter.direct_map", "fueterkit.fueter", "ft_plus", None),
    ("fueter.direct_map", "fueterkit.fueter", "ft_minus", None),
    ("fueter.mu_map", "fueterkit.fueter", "ft_mu", None),
    ("fueter.fischer_route", "fueterkit.fueter", "ft_general_via_fischer", None),
    ("fueter.fischer_decompose", "fueterkit.fueter", "fischer_decompose", None),
    ("fueter.closed_form", "fueterkit.fueter", "ft_closed_form", None),
    ("formatting", "fueterkit.formatting", "format_expression", _count_format),
)

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in ENTRY_POINTS))

# Per-layer metrics and their units, in report order.  Times are the
# inclusive time of a layer's outermost spans; counts are summed over all
# spans.  cli.self_ms is the cli.main span minus its child spans.
PER_LAYER_UNITS = {
    "radial.zero_test.ms": "ms",
    "radial.zero_test.calls": "count",
    "radial.zero_test.terms_in": "count",
    "radial.canonical.ms": "ms",
    "radial.canonical.terms_in": "count",
    "radial.canonical.terms_out": "count",
    "radial.canonical.growth": "ratio",
    "formatting.ms": "ms",
    "formatting.bytes_out": "bytes",
    "radial.laplacian.ms": "ms",
    "radial.laplacian.calls": "count",
    "radial.laplacian.terms_in": "count",
    "radial.laplacian.terms_out": "count",
    "radial.dirac.ms": "ms",
    "radial.dirac.terms_out": "count",
    "radial.re_mul.ms": "ms",
    "radial.re_mul.pairs": "count",
    "radial.re_mul.terms_out": "count",
    "fueter.direct_map.ms": "ms",
    "fueter.mu_map.ms": "ms",
    "fueter.fischer_route.ms": "ms",
    "fueter.fischer_decompose.ms": "ms",
    "fueter.closed_form.ms": "ms",
    "fueter.route_over_direct": "ratio",
    "bivariate.ms": "ms",
    "seeds.create.ms": "ms",
    "seeds.lift.ms": "ms",
    "parsing.ms": "ms",
    "cli.self_ms": "ms",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


class Span:
    __slots__ = ("layer", "parent", "start", "end", "child_time", "counts")

    def __init__(self, layer: str, parent: "Span | None"):
        self.layer = layer
        self.parent = parent
        self.child_time = 0.0
        self.counts = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _resolve(module_name: str, path: str):
    """(owner, attribute name, raw attribute, function) of a listed entry point."""
    module = sys.modules.get(module_name)
    if module is None:
        raise TraceError(f"entry point module {module_name} is not imported")
    owner = module
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TraceError(f"entry point {module_name}.{path} no longer exists")
    raw = vars(owner).get(name) if isinstance(owner, type) else getattr(owner, name, None)
    fn = raw.__func__ if isinstance(raw, classmethod) else raw
    if not callable(fn):
        raise TraceError(f"entry point {module_name}.{path} no longer exists")
    return owner, name, raw, fn


class Tracer:
    """Installs the span wrappers and collects the spans they record."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn, counter):
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(layer, stack[-1] if stack else None)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_time += span.end - span.start
                spans.append(span)
            if counter is not None:
                span.counts = counter(args, result)
            return result

        return wrapper

    def install(self) -> None:
        resolved = [(layer, counter, *_resolve(mod, path)) for layer, mod, path, counter in ENTRY_POINTS]
        package = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "fueterkit" or name.startswith("fueterkit."))]
        for layer, counter, owner, name, raw, fn in resolved:
            wrapper = self._wrap(layer, fn, counter)
            self._set(owner, name, classmethod(wrapper) if isinstance(raw, classmethod) else wrapper)
            for module in package:
                for alias, value in list(vars(module).items()):
                    if value is fn and not (module is owner and alias == name):
                        self._set(module, alias, wrapper)

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def take(self) -> list[Span]:
        out = list(self.spans)
        self.spans.clear()
        return out


def check_reached(spans: list[Span], expected: set[str], workload: str) -> None:
    seen = {span.layer for span in spans}
    missing = sorted(expected - seen)
    if missing:
        raise TraceError(f"workload {workload} recorded no span for layer(s) {', '.join(missing)}")


def _outermost(span: Span) -> bool:
    parent = span.parent
    while parent is not None:
        if parent.layer == span.layer:
            return False
        parent = parent.parent
    return True


def layer_metrics(calls: list[list[Span]], scales: list[float]) -> dict[str, float]:
    """Per-layer totals over one pass: every PER_LAYER_UNITS name except the
    trace.* ones, which come from timing whole passes.  `calls` holds each
    call's spans and `scales` its calibration factor, applied to times."""
    ms = dict.fromkeys(LAYERS, 0.0)
    calls_per_layer = dict.fromkeys(LAYERS, 0)
    counts: dict[str, int] = {}
    cli_self = 0.0
    for spans, scale in zip(calls, scales):
        for span in spans:
            calls_per_layer[span.layer] += 1
            if _outermost(span):
                ms[span.layer] += span.duration * 1000 * scale
            if span.layer == "cli":
                cli_self += (span.duration - span.child_time) * 1000 * scale
            for key, value in (span.counts or {}).items():
                name = f"{span.layer}.{key}"
                counts[name] = counts.get(name, 0) + value
    out: dict[str, float] = {}
    for name in PER_LAYER_UNITS:
        layer, _, key = name.rpartition(".")
        if key == "ms":
            out[name] = ms[layer]
        elif key == "calls":
            out[name] = calls_per_layer[layer]
        elif key in ("terms_in", "terms_out", "pairs", "bytes_out"):
            out[name] = counts.get(name, 0)
    canon_in = out["radial.canonical.terms_in"]
    out["radial.canonical.growth"] = out["radial.canonical.terms_out"] / canon_in if canon_in else 0.0
    direct = out["fueter.direct_map.ms"]
    out["fueter.route_over_direct"] = out["fueter.fischer_route.ms"] / direct if direct else 0.0
    out["cli.self_ms"] = cli_self
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
