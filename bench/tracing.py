"""Spans around the calls into loft's layers, recorded from outside.

The tracer replaces each traced function, in every loft module that
binds it, with a wrapper that records one span per call: (name, start,
end, parent, run id).  Spans stay in memory until the benchmark ends.
A call a traced function makes to itself (recursion) gets no span of
its own.  Per-layer metrics are derived from the spans afterwards.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# (module, function); a span is named "<module>.<function>" and the
# module is its layer
TRACED = (
    ("tables", "load_corpus"),
    ("templates", "build_distribution"),
    ("synthesizer", "synthesize_candidates"),
    ("realizer", "realize_logic_form"),
    ("realizer", "serialize_table"),
    ("pipeline", "run_pipeline"),
    ("pipeline", "generate_statements"),
    ("pipeline", "verify_statements"),
    ("pipeline", "sample_outputs"),
    ("forms", "parse_logic_form"),
    ("forms", "print_logic_form"),
    ("forms", "type_check"),
    ("executor", "execute"),
    ("executor", "verify"),
    ("metrics", "score_output"),
    ("metrics", "corpus_bleu"),
    ("metrics", "distinct_n"),
    ("metrics", "self_bleu"),
)
HOOK_REQUEST = "hook.request"
PIPELINE_STAGES = (
    "synthesizer.synthesize_candidates",
    "pipeline.generate_statements",
    "pipeline.verify_statements",
    "pipeline.sample_outputs",
)
SCORE_PARTS = ("metrics.corpus_bleu", "metrics.distinct_n", "metrics.self_bleu")
LAYERS = ("pipeline", "synthesizer", "realizer", "hook", "forms", "executor", "metrics")

NS = 1e-9


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int
    run: int

    @property
    def seconds(self) -> float:
        return (self.end - self.start) * NS


@dataclass
class Tracer:
    """Records spans while installed; install() and remove() patch loft."""

    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    run: int = 0
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    def wrap(self, name: str, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]].name == name:
                return fn(*args, **kwargs)
            index = len(spans)
            span = Span(name, 0, 0, stack[-1] if stack else -1, self.run)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if observe is not None:
                observe(self.counts, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a loft module binds it."""
        modules = [m for key, m in sys.modules.items() if key == "loft" or key.startswith("loft.")]
        for module_name, attr in TRACED:
            original = getattr(sys.modules[f"loft.{module_name}"], attr)
            observe = _observe_synthesis if attr == "synthesize_candidates" else None
            wrapper = self.wrap(f"{module_name}.{attr}", original, observe)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, value))
                        setattr(module, key, wrapper)
        hook = sys.modules["loft.pipeline"]._HookProcess
        self._patches.append((hook, "request", hook.request))
        hook.request = self.wrap(HOOK_REQUEST, hook.request, _observe_request)

    def remove(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps([span.name, span.start, span.end, span.parent, span.run]) + "\n")


def _add(counts: dict, key: str, value: int) -> None:
    counts[key] = counts.get(key, 0) + value


def _observe_synthesis(counts: dict, result) -> None:
    for res in result.per_set:
        _add(counts, "synthesizer.attempts", res.attempts)
        _add(counts, "synthesizer.forms", len(res.forms))
        _add(counts, "synthesizer.shortfall", res.shortfall)


def _observe_request(counts: dict, result) -> None:
    _add(counts, "hook.requests", 1)
    _add(counts, "hook.dropped", result is None)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [span.seconds for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.seconds
    return own


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def layer_metrics(spans: list[Span], counts: dict, runs: int) -> dict[str, float]:
    """Per-layer metrics of the traced iterations, numbered 1..runs.

    Busy and self times are per iteration; per-call latencies are means
    over every call.  Spans of run 0 (set-up) are left out here.
    """
    by_name: dict[str, list[float]] = {}
    layer_self: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for span, own in zip(spans, self_times(spans)):
        if span.run < 1:
            continue
        by_name.setdefault(span.name, []).append(span.seconds)
        layer = span.name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += own

    def total(name: str) -> float:
        return sum(by_name.get(name, ())) / runs

    def mean_us(name: str) -> float:
        values = by_name.get(name, ())
        return 1e6 * sum(values) / len(values) if values else 0.0

    tables = by_name.get("synthesizer.synthesize_candidates", [])
    attempts = counts.get("synthesizer.attempts", 0) / runs
    forms = counts.get("synthesizer.forms", 0) / runs
    busy = total("synthesizer.synthesize_candidates")
    rtts = by_name.get(HOOK_REQUEST, [])
    out = {
        "synthesizer.busy_s": busy,
        "synthesizer.table_p50_ms": 1e3 * percentile(tables, 50),
        "synthesizer.table_p95_ms": 1e3 * percentile(tables, 95),
        "synthesizer.attempts": attempts,
        "synthesizer.forms": forms,
        "synthesizer.yield": forms / attempts if attempts else 0.0,
        "synthesizer.shortfall": counts.get("synthesizer.shortfall", 0) / runs,
        "synthesizer.us_per_attempt": 1e6 * busy / attempts if attempts else 0.0,
        "realizer.busy_s": total("realizer.realize_logic_form"),
        "realizer.serialize_table_us": mean_us("realizer.serialize_table"),
        "pipeline.generate_s": total("pipeline.generate_statements"),
        "pipeline.verify_s": total("pipeline.verify_statements"),
        "pipeline.sample_ms": 1e3 * total("pipeline.sample_outputs"),
        "pipeline.self_s": total("pipeline.run_pipeline")
        - sum(total(name) for name in PIPELINE_STAGES),
        "hook.requests": counts.get("hook.requests", 0) / runs,
        "hook.dropped": counts.get("hook.dropped", 0) / runs,
        "hook.rtt_p50_ms": 1e3 * percentile(rtts, 50),
        "hook.rtt_p95_ms": 1e3 * percentile(rtts, 95),
        "forms.parse_us": mean_us("forms.parse_logic_form"),
        "forms.print_us": mean_us("forms.print_logic_form"),
        "forms.type_check_us": mean_us("forms.type_check"),
        "executor.execute_us": mean_us("executor.execute"),
        "executor.verify_us": mean_us("executor.verify"),
        "metrics.self_bleu_s": total("metrics.self_bleu"),
        "metrics.bleu_s": total("metrics.corpus_bleu"),
        "metrics.distinct_ms": 1e3 * total("metrics.distinct_n"),
        "metrics.score_self_s": total("metrics.score_output")
        - sum(total(name) for name in SCORE_PARTS),
        "trace.spans": sum(len(v) for v in by_name.values()) / runs,
    }
    for layer in LAYERS:
        out[f"selftime.{layer}_s"] = layer_self[layer] / runs
    out["trace.self_sum_s"] = sum(layer_self.values()) / runs
    return out
