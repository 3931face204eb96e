"""In-memory span tracing around the layer entry points the drivers call.

Wrappers are installed on module and class attributes at run time and removed
afterwards; nothing under src/ is edited. A span records (name, start, end,
parent span, query id). Counts that need more than an increment are computed
after the query's root span has closed, so their cost lands in no span.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from divsel import harness, memory
from divsel.budget import LatencyReport, WorkloadShape, calibrate_constants, model_latency
from divsel.memory import Memory
from divsel.retrieval import ExactScanIndex

SELECTORS = ("greedy_select", "topk_select", "mmr_select", "fps_select", "random_select")

# Span name -> per-layer self-time metric (ms per query).
SELF_TIME_METRICS = {
    "memory.bm25": "memory.bm25_ms",
    "encoder.encode": "encoder.encode_ms",
    "retrieval.dense": "retrieval.dense_ms",
    "retrieval.rank": "retrieval.rank_ms",
    "selection.select": "selection.select_ms",
    "prompt.compose": "prompt.compose_ms",
    "verifier.decode": "verifier.decode_ms",
    "harness.randadd": "harness.randadd_ms",
    "harness.driver": "harness.driver_ms",
}

# Cost-model stage -> spans whose self times it covers.
STAGE_SPANS = {
    "ann": ("encoder.encode", "retrieval.dense", "memory.bm25", "retrieval.rank"),
    "div": ("selection.select",),
    "prompt": ("prompt.compose", "harness.randadd"),
    "llm": ("verifier.decode",),
}


# Deferred count hooks: (counts, args, kwargs, result) -> None.
def _count_bm25(counts, args, kwargs, out):
    counts["bm25_docs"] += len(out)
    counts["bm25_matched"] += int(np.count_nonzero(out))


def _count_retrieve(counts, args, kwargs, out):
    counts["items_scanned"] += len(args[0])


def _count_select(counts, args, kwargs, out):
    counts["select_calls"] += 1
    counts["sim_ops"] += out.sim_ops
    counts["selected"] += out.size


def _count_greedy(counts, args, kwargs, out):
    _count_select(counts, args, kwargs, out)
    pool, cfg = args[0], args[1]
    counts["pool_items"] += len(pool)
    counts["tau_pass"] += sum(1 for c in pool if c.vec_score >= cfg.tau)


def _count_compose(counts, args, kwargs, out):
    selected = args[2] if len(args) > 2 else kwargs["selected"]
    counts["compose_calls"] += 1
    counts["compose_in"] += len(selected.members) if hasattr(selected, "members") else len(selected)
    counts["compose_kept"] += len(out.exemplars)


def _count_score(counts, args, kwargs, out):
    labels = args[1] if len(args) > 1 else kwargs["labels"]
    counts["verifier_calls"] += len(labels)


class Tracer:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, query]
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._pending: list[tuple] = []
        self.query: str | None = None
        self.counts: dict[str, int] = defaultdict(int)
        self.query_counts: dict[str, dict[str, int]] = {}

    # -- spans ------------------------------------------------------------
    def wrap(self, owner, attr: str, span: str | None, hook=None) -> None:
        orig = vars(owner)[attr]
        spans, stack, pending = self.spans, self._stack, self._pending

        if span is None:  # bare counter: too hot for a span
            counts = self.counts

            @functools.wraps(orig)
            def counter(*args, **kwargs):
                counts[attr] += 1
                return orig(*args, **kwargs)

            wrapper = counter
        else:

            @functools.wraps(orig)
            def traced(*args, **kwargs):
                idx = len(spans)
                spans.append([span, perf_counter_ns(), 0, stack[-1] if stack else -1, self.query])
                stack.append(idx)
                try:
                    out = orig(*args, **kwargs)
                finally:
                    spans[idx][2] = perf_counter_ns()
                    stack.pop()
                if hook is not None:
                    pending.append((hook, args, kwargs, out))
                return out

            wrapper = traced
        setattr(owner, attr, wrapper)
        self._saved.append((owner, attr, orig))

    def install_setup(self) -> None:
        self.wrap(memory, "load", "memory.load")

    def install_layers(self) -> None:
        self.wrap(harness, "run_pipeline", "harness.driver")
        self.wrap(harness, "fairness_suite", "harness.driver")
        self.wrap(harness, "encode_context", "encoder.encode")
        self.wrap(harness, "retrieve_pool", "retrieval.rank", _count_retrieve)
        self.wrap(Memory, "bm25_scores", "memory.bm25", _count_bm25)
        self.wrap(ExactScanIndex, "query", "retrieval.dense")
        for name in SELECTORS:
            self.wrap(harness, name, "selection.select",
                       _count_greedy if name == "greedy_select" else _count_select)
        self.wrap(harness, "compose", "prompt.compose", _count_compose)
        self.wrap(harness, "candidate_labels", "verifier.decode")
        self.wrap(harness, "score_labels", "verifier.decode", _count_score)
        self.wrap(harness, "_rand_add_pairs", "harness.randadd")
        self.wrap(harness, "count_tokens", None)

    def install_verifier_counter(self) -> None:
        self.wrap(harness, "score_labels", "verifier.decode", _count_score)

    def restore(self) -> bool:
        """Put every wrapped attribute back; True when all are the originals again."""
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        ok = all(vars(owner)[attr] is orig for owner, attr, orig in self._saved)
        self._saved.clear()
        return ok

    def begin_query(self, query_id: str) -> None:
        self.query = query_id
        self.counts.clear()

    def end_query(self) -> None:
        counts = self.counts
        for hook, args, kwargs, out in self._pending:
            hook(counts, args, kwargs, out)
        self._pending.clear()
        self.query_counts[self.query] = dict(counts)
        self.query = None

    # -- derived metrics --------------------------------------------------
    def self_times(self) -> list[tuple[str, int, str | None]]:
        """(name, self-time ns, query) for every closed span."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(s[0], s[2] - s[1] - child[i], s[4]) for i, s in enumerate(self.spans)]

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, query) in enumerate(self.spans):
                fh.write(json.dumps({"i": i, "name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "query": query}) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, queries: list[str]) -> dict[str, tuple[float, str]]:
    """Per-query means of span self times and counts over the traced queries,
    as (value, unit)."""
    n = len(queries)
    self_ns: dict[str, int] = defaultdict(int)
    for name, ns, query in tracer.self_times():
        if query is not None:
            self_ns[name] += ns
    t: dict[str, int] = defaultdict(int)
    for q in queries:
        for key, v in tracer.query_counts[q].items():
            t[key] += v
    out = {metric: (self_ns[span] / n / 1e6, "ms") for span, metric in SELF_TIME_METRICS.items()}
    out.update({
        "memory.bm25_docs_scored": (t["bm25_docs"] / n, "count"),
        "memory.bm25_match_ratio": (_ratio(t["bm25_matched"], t["bm25_docs"]), "ratio"),
        "retrieval.items_scanned": (t["items_scanned"] / n, "count"),
        "selection.sim_ops": (t["sim_ops"] / n, "count"),
        "selection.size": (_ratio(t["selected"], t["select_calls"]), "count"),
        "selection.tau_pass_ratio": (_ratio(t["tau_pass"], t["pool_items"]), "ratio"),
        "prompt.compose_calls": (t["compose_calls"] / n, "count"),
        "prompt.kept_ratio": (_ratio(t["compose_kept"], t["compose_in"]), "ratio"),
        "verifier.calls": (t["verifier_calls"] / n, "count"),
        "harness.count_tokens_calls": (t["count_tokens"] / n, "count"),
    })
    return out


def load_seconds(tracer: Tracer) -> float:
    return statistics.median(
        (end - start) / 1e9 for name, start, end, _, _ in tracer.spans if name == "memory.load"
    )


def cost_model_residuals(tracer: Tracer, shapes: dict[str, dict]) -> tuple[dict[str, tuple[float, str]], dict]:
    """Fit the latency model to per-query measured stage times and report, per
    stage, sum |measured - modeled| as a percentage of sum measured."""
    stage_of = {span: stage for stage, names in STAGE_SPANS.items() for span in names}
    per_query: dict[str, dict[str, float]] = {q: dict.fromkeys(STAGE_SPANS, 0.0) for q in shapes}
    for name, ns, query in tracer.self_times():
        if query in per_query and name in stage_of:
            per_query[query][stage_of[name]] += ns / 1e9
    samples = []
    for q, t in per_query.items():
        report = LatencyReport(kind="measured", t_ann=t["ann"], t_div=t["div"],
                               t_prompt=t["prompt"], t_llm=t["llm"], t_total=sum(t.values()))
        samples.append((report, WorkloadShape(**shapes[q])))
    constants = calibrate_constants(samples)
    err = dict.fromkeys(STAGE_SPANS, 0.0)
    measured = dict.fromkeys(STAGE_SPANS, 0.0)
    for report, shape in samples:
        model = model_latency(constants, shape)
        for stage in STAGE_SPANS:
            m = getattr(report, f"t_{stage}")
            err[stage] += abs(m - getattr(model, f"t_{stage}"))
            measured[stage] += m
    resid = {f"budget.resid_pct.{s}": (100.0 * _ratio(err[s], measured[s]), "%") for s in STAGE_SPANS}
    return resid, constants.to_dict()

