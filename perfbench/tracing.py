"""Per-layer tracing of brokenline from outside the package.

``Tracer.installed()`` replaces public functions at the module attributes
where their callers look them up, so ``best_fit`` reaches the wrappers without
any change to the package, and puts the originals back on exit. Each wrapper
adds to an in-memory aggregate (calls, total time, self time); self time is a
call's duration minus the time spent in wrapped calls made from inside it.
Spans with start, end and parent are kept only for the coarse calls the
benchmark makes itself (``Tracer.span``), so millions of inner calls stay cheap.
"""

from __future__ import annotations

import contextlib
import importlib
from dataclasses import dataclass
from time import perf_counter

from brokenline.solver import FitResult, Infeasible

# (module the caller looks the name up in, attribute, layer name of the metric)
WRAPPED = (
    ("brokenline.solver", "enumerate_configs", "solver.enumerate_configs"),
    ("brokenline.solver", "solve_config", "solver.solve_config"),
    ("brokenline.solver", "fit_chain", "fixed_knot.fit_chain"),
    ("brokenline.solver", "error_norm", "norms.error_norm"),
    ("brokenline.solver", "classify_knots", "core.classify_knots"),
    ("brokenline.fixed_knot", "fit_line", "fixed_knot.fit_line"),
    ("brokenline.fixed_knot", "solve_lp", "simplex.solve_lp"),
)
COARSE = ("solver.best_fit", "solver.grid_oracle")


@dataclass
class Layer:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    instance: str
    start: float
    end: float = 0.0


class Tracer:
    """In-memory per-layer aggregates and coarse spans of one traced pass."""

    def __init__(self) -> None:
        self.layers = {name: Layer() for name in (*(w[2] for w in WRAPPED), *COARSE)}
        self.counts = dict.fromkeys(("configs", "chain_lookups", "infeasible", "fit_results"), 0)
        self.spans: list[Span] = []
        # One slot per open timed call: time spent in its wrapped children so far.
        self._child_s: list[float] = []
        self._open_spans: list[int] = []

    def _timed(self, name: str, fn, args, kwargs):
        layer = self.layers[name]
        stack = self._child_s
        stack.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            child = stack.pop()
            layer.calls += 1
            layer.s += dt
            layer.self_s += dt - child
            if stack:
                stack[-1] += dt

    def _wrapper(self, name: str, fn):
        counts = self.counts
        if name == "solver.enumerate_configs":

            def wrapper(*args, **kwargs):
                out = self._timed(name, fn, args, kwargs)
                counts["configs"] += len(out)
                return out

        elif name == "solver.solve_config":

            def wrapper(*args, **kwargs):
                inner = kwargs.get("_fit")
                if inner is not None:

                    def lookup(chain):
                        counts["chain_lookups"] += 1
                        return inner(chain)

                    kwargs["_fit"] = lookup
                out = self._timed(name, fn, args, kwargs)
                if isinstance(out, Infeasible):
                    counts["infeasible"] += 1
                elif isinstance(out, FitResult):
                    counts["fit_results"] += 1
                return out

        else:

            def wrapper(*args, **kwargs):
                return self._timed(name, fn, args, kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry of WRAPPED for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name in WRAPPED:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrapper(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def count_metrics(self) -> dict[str, int]:
        """Every count a traced run reports; none depends on the machine."""
        layers, counts = self.layers, self.counts
        return {
            "solver.enumerate_configs.configs": counts["configs"],
            "solver.solve_config.calls": layers["solver.solve_config"].calls,
            "solver.solve_config.infeasible": counts["infeasible"],
            "norms.error_norm.calls": layers["norms.error_norm"].calls,
            "core.classify_knots.calls": layers["core.classify_knots"].calls,
            "solver.chain_lookups": counts["chain_lookups"],
            "fixed_knot.fit_chain.calls": layers["fixed_knot.fit_chain"].calls,
            "fixed_knot.fit_line.calls": layers["fixed_knot.fit_line"].calls,
            "simplex.solve_lp.calls": layers["simplex.solve_lp"].calls,
            "solver.best_fit.calls": layers["solver.best_fit"].calls,
            "solver.grid_oracle.calls": layers["solver.grid_oracle"].calls,
        }

    def span(self, name: str, instance: str, fn, *args, **kwargs):
        """Call ``fn`` as a coarse layer ``name``, keeping a span for it."""
        span = Span(
            len(self.spans),
            self._open_spans[-1] if self._open_spans else None,
            name,
            instance,
            perf_counter(),
        )
        self.spans.append(span)
        self._open_spans.append(span.id)
        try:
            return self._timed(name, fn, args, kwargs)
        finally:
            span.end = perf_counter()
            self._open_spans.pop()

