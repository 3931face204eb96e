"""Latency model, per-stage measurement, and the anytime budget controller.

Modeled reports come from closed-form stage estimates over workload shape;
measured reports come from wall-clock stage timers plus operation counters.
The two kinds are never mixed in one report object.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.optimize import nnls

from .errors import ConfigError, InvariantViolation
from .files import open_output, overlay, read_object

STAGES = ("ann", "div", "prompt", "llm")


@dataclass(frozen=True)
class CostConstants:
    """Per-stage cost coefficients plus decoder throughput (tokens/second)."""

    c_ann: float = 1e-6
    c_bm25: float = 1e-7
    c_sim: float = 1e-7
    c_delta: float = 1e-7
    c_sum: float = 1e-6
    c_fmt: float = 1e-6
    r_tok: float = 50.0

    def __post_init__(self):
        for name in ("c_ann", "c_bm25", "c_sim", "c_delta", "c_sum", "c_fmt"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.r_tok <= 0:
            raise ConfigError("r_tok must be positive")

    def to_dict(self) -> dict[str, float]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, float]) -> "CostConstants":
        """Every constant, by name, each a JSON number; a missing or unknown
        key or a value of another type raises ConfigError."""
        defaults = cls().to_dict()
        missing = set(defaults) - set(data)
        if missing:
            raise ConfigError(f"missing cost constants: {sorted(missing)}")
        return cls(**{k: float(v) for k, v in overlay(defaults, data).items()})

    @classmethod
    def from_file(cls, path: str | Path) -> "CostConstants":
        return read_object(path, cls.from_dict)

    def to_file(self, path: str | Path) -> None:
        with open_output(path) as fh:
            fh.write(json.dumps(self.to_dict(), indent=2) + "\n")


@dataclass(frozen=True)
class WorkloadShape:
    """Per-query sizes the latency model depends on."""

    memory_size: int
    query_terms: int
    pool_size: int
    k: int
    turns: int
    prompt_tokens: int
    gen_tokens: int

    def __post_init__(self):
        if self.memory_size < 1:
            raise ConfigError("memory_size must be >= 1")
        for name in ("query_terms", "pool_size", "k", "turns", "prompt_tokens", "gen_tokens"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")


@dataclass(frozen=True)
class Counters:
    """Operation counts collected from an instrumented run."""

    sim_ops: int = 0
    verifier_calls: int = 0
    prompt_tokens: int = 0
    gen_tokens: int = 0
    turns: int = 0


@dataclass(frozen=True)
class LatencyReport:
    """Four-stage latency decomposition; kind is 'modeled' or 'measured'."""

    kind: str
    t_ann: float
    t_div: float
    t_prompt: float
    t_llm: float
    t_total: float
    counters: Counters | None = None

    def __post_init__(self):
        if self.kind not in ("modeled", "measured"):
            raise ConfigError(f"report kind must be 'modeled' or 'measured', got {self.kind!r}")


def model_latency(constants: CostConstants, shape: WorkloadShape) -> LatencyReport:
    """Closed-form stage estimates: retrieval is logarithmic in memory size
    plus linear in query terms; diversification is linear in pool x steps;
    prompt assembly is linear in turns and exemplars; decoding is token
    throughput."""
    t_ann = constants.c_ann * math.log(shape.memory_size) + constants.c_bm25 * shape.query_terms
    t_div = constants.c_sim * shape.pool_size * shape.k + constants.c_delta * shape.k
    t_prompt = constants.c_sum * shape.turns + constants.c_fmt * shape.k
    t_llm = (shape.prompt_tokens + shape.gen_tokens) / constants.r_tok
    return LatencyReport(
        kind="modeled",
        t_ann=t_ann,
        t_div=t_div,
        t_prompt=t_prompt,
        t_llm=t_llm,
        t_total=t_ann + t_div + t_prompt + t_llm,
    )


class StageClock:
    """Wall-clock accumulator for the four pipeline stages."""

    def __init__(self):
        self.times = {s: 0.0 for s in STAGES}

    @contextmanager
    def stage(self, name: str):
        if name not in self.times:
            raise ConfigError(f"unknown stage {name!r}")
        start = time.perf_counter()
        try:
            yield
        finally:
            self.times[name] += time.perf_counter() - start


def measured_report(
    clock: StageClock,
    counters: Counters,
    pool_size: int,
    k: int,
) -> LatencyReport:
    """Assemble a measured report and enforce the similarity-count bound
    (each of the k selection steps scans at most pool_size candidates)."""
    if counters.sim_ops > pool_size * k:
        raise InvariantViolation(
            f"selection performed {counters.sim_ops} similarity computations; "
            f"bound is pool_size*k = {pool_size * k}"
        )
    t = clock.times
    return LatencyReport(
        kind="measured",
        t_ann=t["ann"],
        t_div=t["div"],
        t_prompt=t["prompt"],
        t_llm=t["llm"],
        t_total=sum(t.values()),
        counters=counters,
    )


@dataclass(frozen=True)
class ControlDecision:
    """Outcome of the anytime budget controller."""

    pool_size: int
    k: int
    label_cap: int
    over_budget: bool
    modeled_total: float


def budget_control(
    constants: CostConstants,
    shape: WorkloadShape,
    pool_size: int,
    k: int,
    label_cap: int,
    budget: float,
) -> ControlDecision:
    """Greedily shrink (pool_size, k) until the modeled total fits the budget.

    Halves pool_size first (floored at k), then decrements k (floored at 1,
    pool_size following it down); the per-label cap is never touched. Returns
    the first feasible pair, or the floor pair flagged over budget.
    """
    if budget <= 0:
        raise ConfigError("budget must be positive")
    if k < 1 or pool_size < k:
        raise ConfigError("need pool_size >= k >= 1")
    while True:
        total = model_latency(constants, replace(shape, pool_size=pool_size, k=k)).t_total
        if total <= budget:
            return ControlDecision(pool_size, k, label_cap, False, total)
        if pool_size > k:
            pool_size = max(k, pool_size // 2)
        elif k > 1:
            k -= 1
            pool_size = k
        else:
            return ControlDecision(pool_size, k, label_cap, True, total)


def scalarized_objective(
    accuracy: float, t_total: float, budget: float, lambda_penalty: float
) -> float:
    """Accuracy minus a hinge penalty on relative budget overrun; no reward
    for slack."""
    if budget <= 0:
        raise ConfigError("budget must be positive")
    if lambda_penalty <= 0:
        raise ConfigError("lambda_penalty must be positive")
    return accuracy - lambda_penalty * max(0.0, t_total / budget - 1.0)


def calibrate_constants(
    samples: Sequence[tuple[LatencyReport, WorkloadShape]]
) -> CostConstants:
    """Fit stage coefficients to measured reports by non-negative least squares."""
    if not samples:
        raise ConfigError("calibration needs at least one sample")
    for report, _ in samples:
        if report.kind != "measured":
            raise ConfigError("calibration consumes measured reports only")

    def fit(columns: list[list[float]], target: list[float]) -> np.ndarray:
        a = np.array(columns, dtype=np.float64).T
        b = np.array(target, dtype=np.float64)
        coef, _ = nnls(a, b)
        return coef

    ann = fit(
        [
            [math.log(s.memory_size) for _, s in samples],
            [float(s.query_terms) for _, s in samples],
        ],
        [r.t_ann for r, _ in samples],
    )
    div = fit(
        [
            [float(s.pool_size * s.k) for _, s in samples],
            [float(s.k) for _, s in samples],
        ],
        [r.t_div for r, _ in samples],
    )
    prompt = fit(
        [
            [float(s.turns) for _, s in samples],
            [float(s.k) for _, s in samples],
        ],
        [r.t_prompt for r, _ in samples],
    )
    llm = fit(
        [[float(s.prompt_tokens + s.gen_tokens) for _, s in samples]],
        [r.t_llm for r, _ in samples],
    )
    slope = max(float(llm[0]), 1e-12)
    return CostConstants(
        c_ann=float(ann[0]),
        c_bm25=float(ann[1]),
        c_sim=float(div[0]),
        c_delta=float(div[1]),
        c_sum=float(prompt[0]),
        c_fmt=float(prompt[1]),
        r_tok=1.0 / slope,
    )


def latency_percentiles(reports: Iterable[LatencyReport]) -> dict[str, dict[str, float]]:
    """Per-stage and total p50 and p90 latencies across a run set."""
    rows = list(reports)
    if not rows:
        raise ConfigError("no reports to aggregate")
    out: dict[str, dict[str, float]] = {}
    fields = {"t_ann": "ann", "t_div": "div", "t_prompt": "prompt", "t_llm": "llm", "t_total": "total"}
    for attr, name in fields.items():
        values = np.array([getattr(r, attr) for r in rows])
        out[name] = {f"p{p}": float(np.percentile(values, p)) for p in (50, 90)}
    return out
