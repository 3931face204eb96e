"""Latency model, per-stage measurement, and the fit of its constants.

Modeled reports evaluate the cost terms in TERMS over a workload shape;
measured reports come from wall-clock stage timers.
The two kinds are never mixed in one report object.

scipy is needed only by `calibrate_constants` (and so `divsel budget
calibrate`), which imports its `nnls` on first use: importing this module,
or running any query, evaluation or fairness path, loads no scipy module.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError
from .files import open_output, overlay, read_object

STAGES = ("ann", "div", "prompt", "llm")

# The latency model, one (constant, sizes) row per cost term: a stage's time is
# the sum of its terms, each a CostConstants field times WorkloadShape sizes.
# Decoding is token throughput, decode_tokens / r_tok; the fit reads it as the
# one term of _DECODE_TERMS, whose slope is 1 / r_tok.
TERMS = {
    "ann": (("c_ann", ("log_memory_size",)), ("c_bm25", ("query_terms",))),
    "div": (("c_sim", ("pool_size", "k")), ("c_delta", ("k",))),
    "prompt": (("c_sum", ("turns",)), ("c_fmt", ("k",))),
}
_DECODE_TERMS = (("r_tok", ("decode_tokens",)),)


@dataclass(frozen=True)
class CostConstants:
    """Per-stage cost coefficients plus decoder throughput (tokens/second):
    every constant finite, each coefficient >= 0 and the throughput > 0."""

    c_ann: float = 1e-6
    c_bm25: float = 1e-7
    c_sim: float = 1e-7
    c_delta: float = 1e-7
    c_sum: float = 1e-6
    c_fmt: float = 1e-6
    r_tok: float = 50.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
            if value < 0:
                raise ConfigError(f"{f.name} must be >= 0")
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
        return cls(**overlay(defaults, data))

    @classmethod
    def from_file(cls, path: str | Path) -> "CostConstants":
        return read_object(path, cls.from_dict)

    def to_file(self, path: str | Path) -> None:
        with open_output(path) as fh:
            fh.write(json.dumps(self.to_dict(), indent=2) + "\n")


@dataclass(frozen=True)
class WorkloadShape:
    """Per-query sizes the latency model depends on, each an int (not a bool)."""

    memory_size: int
    query_terms: int
    pool_size: int
    k: int
    turns: int
    prompt_tokens: int
    gen_tokens: int

    def __post_init__(self):
        for f in fields(self):
            size = getattr(self, f.name)
            if isinstance(size, bool) or not isinstance(size, int):
                raise ConfigError(f"{f.name} must be an int, got {size!r}")
            floor = 1 if f.name == "memory_size" else 0
            if size < floor:
                raise ConfigError(f"{f.name} must be >= {floor}")

    @property
    def log_memory_size(self) -> float:
        return math.log(self.memory_size)

    @property
    def decode_tokens(self) -> int:
        return self.prompt_tokens + self.gen_tokens


@dataclass(frozen=True)
class LatencyReport:
    """Four-stage latency decomposition; kind is 'modeled' or 'measured', and
    every time is a number (not a bool), finite and >= 0."""

    kind: str
    t_ann: float
    t_div: float
    t_prompt: float
    t_llm: float
    t_total: float

    def __post_init__(self):
        if self.kind not in ("modeled", "measured"):
            raise ConfigError(f"report kind must be 'modeled' or 'measured', got {self.kind!r}")
        for stage in (*STAGES, "total"):
            t = getattr(self, f"t_{stage}")
            if isinstance(t, bool):
                raise ConfigError(f"t_{stage} must be a number, got {t!r}")
            if not (math.isfinite(t) and t >= 0.0):
                raise ConfigError(f"t_{stage} must be finite and >= 0, got {t}")

    @classmethod
    def of_stages(cls, kind: str, times: Mapping[str, float]) -> "LatencyReport":
        """The report of per-stage times keyed by STAGES; the total is their sum."""
        stage_times = [times[s] for s in STAGES]
        return cls(kind, *stage_times, t_total=sum(stage_times))


def model_latency(constants: CostConstants, shape: WorkloadShape) -> LatencyReport:
    """Evaluate TERMS, each term its constant times its sizes left to right."""
    times = {"llm": shape.decode_tokens / constants.r_tok}
    for stage, terms in TERMS.items():
        times[stage] = sum(
            math.prod((getattr(shape, n) for n in sizes), start=getattr(constants, c))
            for c, sizes in terms
        )
    return LatencyReport.of_stages("modeled", times)


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

    def report(self) -> LatencyReport:
        """The measured report of the stage times accumulated so far."""
        return LatencyReport.of_stages("measured", self.times)


def check_objective_terms(budget: float, lambda_penalty: float) -> None:
    """The rule on the objective's own terms: a budget that is not positive
    (NaN included) or a lambda_penalty that is not finite and positive raises
    ConfigError (inf times a zero overrun is NaN)."""
    if not budget > 0:
        raise ConfigError(f"budget must be positive, got {budget}")
    if not (math.isfinite(lambda_penalty) and lambda_penalty > 0):
        raise ConfigError(f"lambda_penalty must be finite and positive, got {lambda_penalty}")


def scalarized_objective(
    accuracy: float, t_total: float, budget: float, lambda_penalty: float
) -> float:
    """Accuracy minus a hinge penalty on relative budget overrun; no reward
    for slack. Terms that `check_objective_terms` refuses raise ConfigError."""
    check_objective_terms(budget, lambda_penalty)
    return accuracy - lambda_penalty * max(0.0, t_total / budget - 1.0)


def calibrate_constants(
    samples: Sequence[tuple[LatencyReport, WorkloadShape]]
) -> CostConstants:
    """Fit each stage's TERMS to measured reports by non-negative least
    squares, one column per term: the product of its sizes."""
    from scipy.optimize import nnls  # local: only a fit needs scipy, so the query path never loads it

    if not samples:
        raise ConfigError("calibration needs at least one sample")
    if any(report.kind != "measured" for report, _ in samples):
        raise ConfigError("calibration consumes measured reports only")
    fitted: dict[str, float] = {}
    for stage in STAGES:
        terms = TERMS.get(stage, _DECODE_TERMS)
        columns = [
            [float(math.prod(getattr(s, n) for n in sizes)) for _, s in samples] for _, sizes in terms
        ]
        target = np.array([getattr(r, f"t_{stage}") for r, _ in samples], dtype=np.float64)
        coef, _ = nnls(np.array(columns, dtype=np.float64).T, target)
        fitted.update((name, float(c)) for (name, _), c in zip(terms, coef))
    fitted["r_tok"] = 1.0 / max(fitted["r_tok"], 1e-12)
    return CostConstants(**fitted)


def latency_percentiles(reports: Iterable[LatencyReport]) -> dict[str, dict[str, float]]:
    """Per-stage and total p50 and p90 latencies across a run set."""
    rows = list(reports)
    if not rows:
        raise ConfigError("no reports to aggregate")
    out: dict[str, dict[str, float]] = {}
    for name in (*STAGES, "total"):
        values = np.array([getattr(r, f"t_{name}") for r in rows])
        out[name] = {f"p{p}": float(np.percentile(values, p)) for p in (50, 90)}
    return out
