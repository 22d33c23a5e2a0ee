"""Outside-in tracing of a `resil study` run.

The tracer patches the public functions of ``process_resilience`` from the
outside: every module-level alias of a function is replaced (``experiments``
and ``cli`` bind names with ``from .x import y``, so patching only the
defining module would miss their calls), and ``ProcessTrace.pairs`` and
``ProcessTrace.iter_pairs`` are replaced on the class. Nothing under
``src/`` changes.

A timed function gets a span per call. Its self time is the span's duration
minus the durations of the timed spans it contains. Spans are aggregated in
memory per name (calls, total, self, per-call totals). Work counts are read
from arguments and return values only; ``bipartitions_scanned`` is computed
from the input size as 2^(n-1) - 1 per exact threshold call, not measured.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time

PACKAGE = "process_resilience"

# layer (module) -> timed public functions, in report order
TIMED = {
    "process": ("ProcessTrace.pairs", "graph_at", "sample_gnm", "sample_gnp",
                "sample_coupled", "hitting_time_min_degree"),
    "graphs": ("induced_subgraph", "connected_components", "giant_component",
               "ball", "k_core", "is_k_connected", "is_connected"),
    "classify": ("classify_vertices", "audit_neighbourhoods",
                 "audit_edge_counts", "audit_atyp_size"),
    "resilience": ("threshold_exact", "threshold_local_search",
                   "greedy_partition_attack", "cherry_attack"),
    "experiments": ("run_study", "summarize_records", "emit"),
    "cli": ("main",),
}

# connectivity_resilience_threshold is reported as one span per mode
THRESHOLD_MODES = {"exact": "threshold_exact",
                   "local_search": "threshold_local_search"}

# spans whose wrappers also read work counts; install() builds them by hand
_SPECIAL = {"process.ProcessTrace.pairs", "resilience.threshold_exact",
            "resilience.threshold_local_search",
            "resilience.greedy_partition_attack"}

COUNTERS = ("process.pairs_streamed", "resilience.bipartitions_scanned",
            "resilience.greedy_moves", "resilience.greedy_sweeps",
            "resilience.greedy_failed", "rng.generator.calls",
            "rng.derive_seed.calls")


def span_names() -> list:
    return [f"{layer}.{fn}" for layer, fns in TIMED.items() for fn in fns]


def per_layer_metrics() -> list:
    """(name, unit, better) of every per-layer metric the traced run reports."""
    out = []
    for name in span_names():
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_ms", "ms", "lower"))
    out.extend((name, "count", "lower") for name in COUNTERS)
    out.append(("resilience.greedy_useful_ratio", "ratio", "higher"))
    out.append(("trace.overhead_frac", "ratio", "lower"))
    return out


class _Span:
    __slots__ = ("calls", "total_s", "self_s", "durations")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.durations = []


class Tracer:
    """Install with ``install()``; read one study's figures with
    ``snapshot()`` and start the next with ``reset()``."""

    def __init__(self):
        self._undo = []
        self.counts = {}  # wrappers hold this dict, so reset() clears in place
        self.reset()

    def reset(self) -> None:
        # each open span's frame accumulates the time of its timed children
        self._stack = [[0.0]]
        self.spans = {name: _Span() for name in span_names()}
        self.counts.update(dict.fromkeys(COUNTERS, 0))
        self.greedy_attempts = 0
        self.greedy_satisfied = 0

    # -- wrappers --------------------------------------------------------

    def _timed(self, name, fn):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stack[-1][0] += dur
                span = tracer.spans[name]
                span.calls += 1
                span.total_s += dur
                span.self_s += dur - frame[0]
                span.durations.append(dur)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _threshold(self, fn):
        by_mode = {mode: self._timed(f"resilience.{span}", fn)
                   for mode, span in THRESHOLD_MODES.items()}
        counts = self.counts

        def wrapper(g, *args, **kwargs):
            mode = kwargs.get("mode", args[0] if args else "exact")
            timed = by_mode.get(mode)
            if timed is None:  # unknown mode: let the library reject it
                return fn(g, *args, **kwargs)
            report = timed(g, *args, **kwargs)
            if mode == "exact":
                counts["resilience.bipartitions_scanned"] += 2 ** (g.n - 1) - 1
            return report

        wrapper.__wrapped__ = fn
        return wrapper

    def _greedy(self, fn, attack_error):
        timed = self._timed("resilience.greedy_partition_attack", fn)
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.greedy_attempts += 1
            try:
                outcome = timed(*args, **kwargs)
            except attack_error:
                tracer.counts["resilience.greedy_failed"] += 1
                raise
            tracer.counts["resilience.greedy_moves"] += outcome.diagnostics["moves"]
            tracer.counts["resilience.greedy_sweeps"] += outcome.diagnostics["sweeps"]
            tracer.greedy_satisfied += bool(outcome.satisfied)
            return outcome

        wrapper.__wrapped__ = fn
        return wrapper

    def _iter_pairs(self, fn):
        counts = self.counts

        def iter_pairs(trace):
            streamed = 0
            try:
                for pair in fn(trace):
                    streamed += 1
                    yield pair
            finally:
                counts["process.pairs_streamed"] += streamed

        iter_pairs.__wrapped__ = fn
        return iter_pairs

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_aliases(self, modules, original, wrapper):
        """Replace every module-level name bound to ``original``."""
        found = 0
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)
                    found += 1
        if not found:
            raise RuntimeError(f"no module binds {original!r}")

    def install(self) -> None:
        mods = {name: importlib.import_module(f"{PACKAGE}.{name}")
                for name in ("process", "graphs", "classify", "resilience",
                             "experiments", "rng", "cli")}
        package = [m for name, m in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        trace_cls = mods["process"].ProcessTrace
        self._set(trace_cls, "pairs",
                  self._timed("process.ProcessTrace.pairs", trace_cls.pairs))
        self._set(trace_cls, "iter_pairs", self._iter_pairs(trace_cls.iter_pairs))
        for name in span_names():
            if name in _SPECIAL:
                continue
            layer, fn_name = name.split(".", 1)
            original = getattr(mods[layer], fn_name)
            self._patch_aliases(package, original, self._timed(name, original))
        res = mods["resilience"]
        self._patch_aliases(package, res.connectivity_resilience_threshold,
                            self._threshold(res.connectivity_resilience_threshold))
        self._patch_aliases(package, res.greedy_partition_attack,
                            self._greedy(res.greedy_partition_attack,
                                         res.AttackError))
        for fn_name in ("generator", "derive_seed"):
            original = getattr(mods["rng"], fn_name)
            self._patch_aliases(package, original,
                                self._counted(f"rng.{fn_name}.calls", original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ---------------------------------------------------------

    def snapshot(self) -> dict:
        """One study's figures, JSON-ready."""
        return {
            "spans": {name: {"calls": s.calls, "total_s": s.total_s,
                             "self_s": s.self_s,
                             "median_call_s": (statistics.median(s.durations)
                                               if s.durations else 0.0)}
                      for name, s in self.spans.items()},
            "counts": dict(self.counts),
            "greedy_attempts": self.greedy_attempts,
            "greedy_satisfied": self.greedy_satisfied,
        }
