import math

import numpy as np
import pytest

from divsel.budget import (
    TERMS,
    CostConstants,
    LatencyReport,
    StageClock,
    WorkloadShape,
    calibrate_constants,
    latency_percentiles,
    model_latency,
    scalarized_objective,
)
from divsel.errors import ConfigError


def shape(**kw):
    base = dict(
        memory_size=1000, query_terms=8, pool_size=128, k=6, turns=2,
        prompt_tokens=300, gen_tokens=100,
    )
    base.update(kw)
    return WorkloadShape(**base)


class TestModelLatency:
    def test_pure_decode_cost(self):
        constants = CostConstants(0, 0, 0, 0, 0, 0, r_tok=100.0)
        rep = model_latency(constants, shape(prompt_tokens=300, gen_tokens=100))
        assert rep.t_llm == 4.0
        assert rep.t_ann == rep.t_div == rep.t_prompt == 0.0
        assert rep.t_total == 4.0

    def test_doubling_pool_doubles_the_scan_term(self):
        constants = CostConstants(c_sim=1e-4, c_delta=3e-5, r_tok=100.0)
        base = model_latency(constants, shape(pool_size=64)).t_div
        double = model_latency(constants, shape(pool_size=128)).t_div
        scan, fixed = constants.c_sim * 64 * 6, constants.c_delta * 6
        np.testing.assert_allclose(double - fixed, 2 * (base - fixed), atol=1e-15)

    def test_memory_growth_is_logarithmic(self):
        constants = CostConstants(c_ann=2e-3, c_bm25=0.0, r_tok=100.0)
        small = model_latency(constants, shape(memory_size=500)).t_ann
        big = model_latency(constants, shape(memory_size=2000)).t_ann
        np.testing.assert_allclose(big - small, 2e-3 * math.log(4), atol=1e-12)

    def test_linear_in_pool_and_k_separately(self):
        constants = CostConstants(c_sim=1e-4, c_delta=0.0, r_tok=100.0)
        t1 = model_latency(constants, shape(pool_size=32, k=2)).t_div
        t2 = model_latency(constants, shape(pool_size=96, k=2)).t_div
        t3 = model_latency(constants, shape(pool_size=32, k=6)).t_div
        np.testing.assert_allclose(t2, 3 * t1, atol=1e-15)
        np.testing.assert_allclose(t3, 3 * t1, atol=1e-15)

    def test_every_constant_but_the_rate_is_one_term(self):
        names = [name for terms in TERMS.values() for name, _ in terms]
        assert sorted(names) == sorted(set(CostConstants().to_dict()) - {"r_tok"})

    def test_rate_must_be_positive(self):
        with pytest.raises(ConfigError):
            CostConstants(r_tok=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_every_constant_must_be_finite(self, bad):
        """An infinite rate would make decoding free, and a NaN constant
        would surface as a NaN stage time; both are refused by name."""
        for name in CostConstants().to_dict():
            with pytest.raises(ConfigError, match=f"^{name} must be finite, got {bad}$"):
                CostConstants.from_dict({**CostConstants().to_dict(), name: bad})


class TestMeasuredReport:
    def test_totals_are_stage_sums(self):
        clock = StageClock()
        clock.times = {"ann": 0.1, "div": 0.2, "prompt": 0.3, "llm": 0.4}
        rep = clock.report()
        np.testing.assert_allclose(rep.t_total, 1.0, atol=1e-12)
        assert rep.kind == "measured"

    def test_kind_validated(self):
        with pytest.raises(ConfigError):
            LatencyReport(kind="hybrid", t_ann=0, t_div=0, t_prompt=0, t_llm=0, t_total=0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1e-6])
    def test_times_finite_and_non_negative(self, bad):
        with pytest.raises(ConfigError, match="t_div must be finite and >= 0"):
            LatencyReport.of_stages("measured", {"ann": 0.1, "div": bad, "prompt": 0.0, "llm": 0.2})


class TestScalarizedObjective:
    def test_zero_penalty_at_the_boundary(self):
        assert scalarized_objective(0.8, 1.0, 1.0, 0.5) == 0.8

    def test_penalty_arithmetic(self):
        np.testing.assert_allclose(scalarized_objective(0.8, 2.0, 1.0, 0.5), 0.3, atol=1e-12)

    def test_no_reward_for_slack(self):
        assert scalarized_objective(0.8, 0.1, 1.0, 0.5) == 0.8

    def test_monotonicity(self):
        assert scalarized_objective(0.9, 3.0, 1.0, 0.5) > scalarized_objective(0.8, 3.0, 1.0, 0.5)
        assert scalarized_objective(0.8, 2.0, 1.0, 0.5) > scalarized_objective(0.8, 3.0, 1.0, 0.5)

    @pytest.mark.parametrize("budget, lam, message", [
        (math.nan, 0.5, "budget must be positive, got nan"),
        (0.0, 0.5, "budget must be positive, got 0.0"),
        (1.0, math.nan, "lambda_penalty must be finite and positive, got nan"),
        (1.0, math.inf, "lambda_penalty must be finite and positive, got inf"),
        (1.0, 0.0, "lambda_penalty must be finite and positive, got 0.0"),
    ], ids=["nan_budget", "zero_budget", "nan_penalty", "inf_penalty", "zero_penalty"])
    def test_arguments_validated(self, budget, lam, message):
        with pytest.raises(ConfigError, match=message):
            scalarized_objective(0.8, 0.5, budget, lam)

    def test_infinite_budget_means_no_penalty(self):
        assert scalarized_objective(0.8, 1e9, math.inf, 0.5) == 0.8


PLANTED = CostConstants(
    c_ann=2e-4, c_bm25=3e-5, c_sim=1e-6, c_delta=5e-6,
    c_sum=7e-4, c_fmt=2e-4, r_tok=80.0,
)


def planted_samples() -> list[tuple[LatencyReport, WorkloadShape]]:
    """Noiseless measured reports of 30 random shapes under PLANTED."""
    rng = np.random.default_rng(0)
    samples = []
    for _ in range(30):
        s = shape(
            memory_size=int(rng.integers(100, 5000)),
            query_terms=int(rng.integers(1, 20)),
            pool_size=int(rng.integers(16, 256)),
            k=int(rng.integers(1, 10)),
            turns=int(rng.integers(0, 8)),
            prompt_tokens=int(rng.integers(50, 500)),
            gen_tokens=int(rng.integers(0, 100)),
        )
        modeled = model_latency(PLANTED, s)
        clock = StageClock()
        clock.times = {
            "ann": modeled.t_ann, "div": modeled.t_div,
            "prompt": modeled.t_prompt, "llm": modeled.t_llm,
        }
        samples.append((clock.report(), s))
    return samples


def assert_planted(fitted: CostConstants) -> None:
    for name, _ in (term for terms in TERMS.values() for term in terms):
        np.testing.assert_allclose(getattr(fitted, name), getattr(PLANTED, name), rtol=1e-6)
    np.testing.assert_allclose(fitted.r_tok, PLANTED.r_tok, rtol=1e-6)


class TestCalibration:
    def test_recovers_planted_constants(self):
        """Generate noiseless stage timings from known constants; the fit must
        recover them."""
        assert_planted(calibrate_constants(planted_samples()))

    def test_rejects_modeled_reports(self):
        rep = model_latency(CostConstants(), shape())
        with pytest.raises(ConfigError):
            calibrate_constants([(rep, shape())])


class TestPercentiles:
    def test_p50_p90(self):
        reports = []
        for i in range(10):
            clock = StageClock()
            clock.times = {"ann": 0.0, "div": 0.0, "prompt": 0.0, "llm": float(i)}
            reports.append(clock.report())
        pct = latency_percentiles(reports)
        np.testing.assert_allclose(pct["llm"]["p50"], 4.5, atol=1e-12)
        np.testing.assert_allclose(pct["total"]["p90"], 8.1, atol=1e-12)


class TestConstantsFile:
    def test_round_trip(self, tmp_path):
        constants = CostConstants(c_ann=1.5e-4, r_tok=42.0)
        path = tmp_path / "constants.json"
        constants.to_file(path)
        assert CostConstants.from_file(path) == constants
