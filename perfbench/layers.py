"""Per-layer call counts and self time, recorded from outside the program.

Each layer is a group of public mimocast functions.  Installing a Tracer
replaces every such function, in every loaded ``mimocast`` module that
binds it, with a wrapper that counts calls and measures time.  Patching
every binding (for example ``pareto.solve_mmf`` as well as
``allocation.solve_mmf``) catches cross-module calls, which resolve
through the importing module's globals.

Self time is a span's duration minus the time of the wrapped calls made
inside it, so the self times of all layers add up to the traced time
spent in wrapped calls.  A function missing at the commit under test is
listed as absent and its layer simply counts nothing from it.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

# name, wrapped (module, function) pairs, the end-to-end metric it should
# move, and the workloads where it runs.  A layer's self-time share of a
# workload bounds what speeding that layer up can gain there.
LAYERS = (
    ("scenario.place_users", (("scenario", "place_users"),),
     "throughput", "figure-grid"),
    ("scenario.config", (("scenario", "default_normalized_config"),
                         ("scenario", "normalize_powers")),
     "throughput", "figure-grid"),
    ("model.validate", (("model", "validate_config"), ("model", "require_valid")),
     "throughput; op_p50_ms", "figure-grid, operating-point, mc-paper-cell"),
    ("model.estimation", (("model", "estimation_variances"),),
     "op_p50_ms; throughput", "operating-point, mc-paper-cell"),
    ("closed_form.se_report", (("closed_form", "se_report"),),
     "op_p50_ms", "operating-point"),
    ("closed_form.sinr", (("closed_form", "sinr_mrt_unicast"),
                          ("closed_form", "sinr_mrt_multicast"),
                          ("closed_form", "sinr_zf_unicast"),
                          ("closed_form", "sinr_zf_multicast")),
     "op_p50_ms", "operating-point"),
    ("allocation.solve_mmf", (("allocation", "solve_mmf"),
                              ("allocation", "solve_mmf_mrt"),
                              ("allocation", "solve_mmf_zf")),
     "throughput", "figure-grid, operating-point"),
    ("allocation.solve_sse", (("allocation", "solve_sse"),
                              ("allocation", "solve_sse_mrt"),
                              ("allocation", "solve_sse_zf")),
     "throughput", "figure-grid, operating-point"),
    ("allocation.waterfill", (("allocation", "waterfill"),),
     "throughput", "figure-grid, operating-point"),
    ("allocation.score", (("allocation", "mmf_se_report"),
                          ("allocation", "sse_se_report")),
     "throughput", "operating-point"),
    ("pareto.sweep", (("pareto", "sweep_boundary"),),
     "op_p50_ms", "operating-point"),
    ("pareto.select", (("pareto", "select_operating_point"),),
     "op_p50_ms", "operating-point"),
    ("pareto.solve_split", (("pareto", "solve_split"),),
     "op_p50_ms", "operating-point"),
    ("pareto.convexity", (("pareto", "check_convexity"),),
     "op_p50_ms", "operating-point"),
    ("montecarlo.draw", (("montecarlo", "draw_channels"),),
     "throughput; peak_rss_mb", "mc-paper-cell"),
    ("montecarlo.estimate", (("montecarlo", "mmse_estimate"),),
     "throughput; peak_rss_mb", "mc-paper-cell"),
    ("montecarlo.precode", (("montecarlo", "build_mrt_precoders"),
                            ("montecarlo", "build_zf_precoders")),
     "throughput; peak_rss_mb", "mc-paper-cell"),
    ("montecarlo.validate", (("montecarlo", "validate_closed_form"),),
     "throughput; peak_rss_mb", "mc-paper-cell"),
    ("cli.main", (("cli", "main"),),
     "throughput", "figure-grid"),
)

# Counters read from the program's outputs rather than from spans:
# name, unit, better, the end-to-end metric it should move, workloads.
COUNTERS = (
    ("montecarlo.trials", "count", "higher", "throughput", "mc-paper-cell"),
    ("montecarlo.discard_ratio", "ratio", "lower", "throughput", "mc-paper-cell"),
    ("cli.bytes_written", "bytes", "lower", "throughput", "figure-grid"),
)


def layer_metric_specs():
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for name, *_ in LAYERS:
        specs.append((f"{name}.calls", "count", "lower"))
        specs.append((f"{name}.self_s", "s", "lower"))
    specs.extend((name, unit, better) for name, unit, better, *_ in COUNTERS)
    specs.append(("trace_overhead", "ratio", "lower"))
    return specs


PACKAGE = "mimocast"


class Tracer:
    """Counts calls and self time per layer while installed."""

    def __init__(self):
        self.calls = {name: 0 for name, *_ in LAYERS}
        self.self_s = {name: 0.0 for name, *_ in LAYERS}
        self.absent: list[str] = []
        self._open: list[float] = []   # child time accumulated per open span
        self._paused = False
        self._patched: list[tuple[object, str, object]] = []

    def _modules(self):
        return [m for key, m in list(sys.modules.items())
                if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]

    def _wrap(self, layer: str, fn):
        calls, self_s, open_spans = self.calls, self.self_s, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            open_spans.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - t0
                children = open_spans.pop()
                calls[layer] += 1
                self_s[layer] += span - children
                if open_spans:
                    open_spans[-1] += span
        return wrapper

    @contextlib.contextmanager
    def paused(self):
        """Leave calls made inside this block uncounted, as the benchmark's
        own output checks are not the program's work."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def __enter__(self):
        modules = self._modules()
        for layer, targets, *_ in LAYERS:
            for module, func in targets:
                home = sys.modules.get(f"{PACKAGE}.{module}")
                fn = getattr(home, func, None)
                if fn is None:
                    self.absent.append(f"{module}.{func}")
                    continue
                wrapper = self._wrap(layer, fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, fn))
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()
        return False
