import math

import numpy as np
import pytest

from divsel.budget import (
    CostConstants,
    LatencyReport,
    StageClock,
    WorkloadShape,
    budget_control,
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

    def test_rate_must_be_positive(self):
        with pytest.raises(ConfigError):
            CostConstants(r_tok=0.0)


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


class TestBudgetControl:
    constants = CostConstants(c_sim=1e-4, c_delta=0.0, c_sum=0.0, c_fmt=0.0,
                              c_ann=0.0, c_bm25=0.0, r_tok=1e9)

    def test_already_under_budget_is_a_no_op(self):
        decision = budget_control(self.constants, shape(), 128, 6, 1, budget=10.0)
        assert (decision.pool_size, decision.k) == (128, 6)
        assert not decision.over_budget

    def test_halves_pool_when_scan_dominates(self):
        # t_div = 1e-4 * L * K; with L=128, K=6 that's 0.0768
        decision = budget_control(self.constants, shape(), 128, 6, 1, budget=0.05)
        assert decision.pool_size <= 64
        assert not decision.over_budget
        assert decision.modeled_total <= 0.05

    def test_floor_pair_with_flag_when_budget_unreachable(self):
        slow = CostConstants(c_sim=10.0, r_tok=1e9)
        decision = budget_control(slow, shape(), 128, 6, 1, budget=1e-9)
        assert (decision.pool_size, decision.k) == (1, 1)
        assert decision.over_budget

    def test_cap_is_preserved(self):
        decision = budget_control(self.constants, shape(), 128, 6, 3, budget=0.01)
        assert decision.label_cap == 3

    def test_never_increases_and_terminates(self):
        decision = budget_control(self.constants, shape(), 256, 8, 1, budget=0.001)
        assert decision.pool_size <= 256 and decision.k <= 8
        assert decision.pool_size >= decision.k or decision.k == 1


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


class TestCalibration:
    def test_recovers_planted_constants(self):
        """Generate noiseless stage timings from known constants; the fit must
        recover them."""
        truth = CostConstants(
            c_ann=2e-4, c_bm25=3e-5, c_sim=1e-6, c_delta=5e-6,
            c_sum=7e-4, c_fmt=2e-4, r_tok=80.0,
        )
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
            modeled = model_latency(truth, s)
            clock = StageClock()
            clock.times = {
                "ann": modeled.t_ann, "div": modeled.t_div,
                "prompt": modeled.t_prompt, "llm": modeled.t_llm,
            }
            samples.append((clock.report(), s))
        fitted = calibrate_constants(samples)
        for name in ("c_ann", "c_bm25", "c_sim", "c_delta", "c_sum", "c_fmt"):
            np.testing.assert_allclose(getattr(fitted, name), getattr(truth, name), rtol=1e-6)
        np.testing.assert_allclose(fitted.r_tok, truth.r_tok, rtol=1e-6)

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
