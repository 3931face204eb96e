import itertools
import json
import math
import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divsel import harness
from divsel.budget import CostConstants
from divsel.encoder import DialogueContext, Turn
from divsel.errors import CompositionError, ConfigError, InvariantViolation
from divsel.harness import (
    DEFAULT_GRIDS,
    EvalInstance,
    ExperimentConfig,
    FairnessConfig,
    derive_seed,
    evaluate,
    fairness_suite,
    grid_search,
    read_corpus,
    read_dialogue,
    run_pipeline,
    sweep,
    verify_run_invariants,
    write_corpus,
)
from divsel.prompt import BudgetConfig, Prompt, compose, count_tokens
from divsel.synth import synth_corpus
from divsel.verifier import candidate_labels, mock_verifier


@pytest.fixture(scope="module")
def small_world():
    mem, corpus = synth_corpus(labels=8, per_label=6, ambiguity=0.5, seed=5, dim=16, instances=24)
    return mem, corpus


def base_config(**kw):
    cfg = ExperimentConfig()
    sel = replace(cfg.selection, k=4)
    ret = replace(cfg.retrieval, pool_size=32)
    return replace(cfg, selection=sel, retrieval=ret, **kw)


class TestRunPipeline:
    def test_end_to_end_artifacts(self, small_world):
        mem, corpus = small_world
        cfg = base_config()
        inst = corpus[0]
        verifier = mock_verifier(inst.gold, 1, 2.0)
        result = run_pipeline(inst, cfg, mem, verifier, seed=0)
        assert result.prediction in result.candidate_set
        assert result.prompt.token_count <= cfg.budget.max_prompt_tokens
        assert len(result.pool) == 32
        assert result.latency.kind == "measured"
        assert list(result.output.scores) == list(result.candidate_set)

    def test_deterministic_prompt_and_prediction(self, small_world):
        mem, corpus = small_world
        cfg = base_config()
        inst = corpus[1]
        runs = [
            run_pipeline(inst, cfg, mem, mock_verifier(inst.gold, 1, 2.0), seed=9)
            for _ in range(2)
        ]
        assert runs[0].prompt.text == runs[1].prompt.text
        assert runs[0].prediction == runs[1].prediction

    def test_zero_shot_empty_history_instance(self, small_world):
        mem, _ = small_world
        dim = mem.dim
        emb = np.zeros(dim)
        emb[0], emb[1] = 1.0, -1.0
        emb /= np.linalg.norm(emb)
        inst = EvalInstance(
            id="zero",
            dialogue=DialogueContext(turns=(), current="hello", current_embedding=emb),
            gold="intent_00",
        )
        cfg = base_config()
        cfg = replace(cfg, selection=replace(cfg.selection, tau=0.99))
        verifier = mock_verifier(inst.gold, 1, 2.0)
        result = run_pipeline(inst, cfg, mem, verifier, seed=0)
        assert result.selection.size == 0  # threshold binds; zero-shot prompt
        assert result.prediction in result.candidate_set

    def test_all_methods_run(self, small_world):
        mem, corpus = small_world
        inst = corpus[2]
        for method in ("ldra", "topk", "mmr", "fps", "random", "topk_rand_add"):
            cfg = base_config(method=method)
            result = run_pipeline(inst, cfg, mem, mock_verifier(inst.gold, 1, 2.0), seed=3)
            assert result.prediction

    def test_rand_add_extends_exposure(self, small_world):
        mem, corpus = small_world
        inst = corpus[3]
        cfg_base = base_config(method="topk")
        cfg_add = base_config(method="topk_rand_add")
        v = mock_verifier(inst.gold, 1, 2.0)
        plain = run_pipeline(inst, cfg_base, mem, v, seed=4)
        padded = run_pipeline(inst, cfg_add, mem, v, seed=4)
        assert padded.prompt.token_count >= plain.prompt.token_count
        assert set(plain.candidate_set) <= set(padded.candidate_set)

    def test_rand_add_costs_each_line_once_per_memory(self, monkeypatch):
        """The per-exemplar line costs are counted on a memory's first rand-add
        only, equal a fresh count, and are dropped with the memory."""
        import gc
        import weakref

        from divsel.prompt import count_tokens, render_exemplar_line

        mem, _ = synth_corpus(labels=4, per_label=5, ambiguity=0.3, seed=2, dim=8, instances=1)
        calls = []
        monkeypatch.setattr(harness, "count_tokens", lambda text: calls.append(text) or count_tokens(text))
        first = harness._rand_add_pairs(mem, set(), 0, 60, seed=1)
        assert len(calls) == len(mem)
        assert harness._rand_add_pairs(mem, set(), 0, 60, seed=1) == first
        assert len(calls) == len(mem)
        expected = [count_tokens(render_exemplar_line(t, lab)) for t, lab in zip(mem.texts, mem.labels)]
        assert harness._LINE_COSTS[mem] == (expected, min(expected))
        freed = weakref.ref(mem)
        del mem
        gc.collect()
        assert freed() is None

    def test_given_pool_skips_the_retrieve_stage(self, small_world, monkeypatch):
        mem, corpus = small_world
        inst, cfg = corpus[5], base_config()
        v = mock_verifier(inst.gold, 1, 2.0)
        full = run_pipeline(inst, cfg, mem, v, seed=2)

        def no_encode(*args, **kwargs):
            raise AssertionError("a given pool must not re-encode the dialogue")

        monkeypatch.setattr(harness, "encode_context", no_encode)
        reused = run_pipeline(inst, cfg, mem, v, seed=2, pool=full.pool)
        assert reused.prompt.text == full.prompt.text
        assert reused.candidate_set == full.candidate_set

    def test_similarity_count_bound_is_a_run_invariant(self, small_world):
        """Each of the k selection steps scans at most the whole pool, so a
        selection that reports more than pool_size * k similarity computations
        fails the run's self-checks."""
        mem, corpus = small_world
        inst, cfg = corpus[6], base_config()
        result = run_pipeline(inst, cfg, mem, mock_verifier(inst.gold, 1, 2.0), seed=0)
        bound = len(result.pool) * cfg.selection.k
        result.selection.sim_ops = bound
        verify_run_invariants(result, cfg, inst)
        result.selection.sim_ops = bound + 1
        with pytest.raises(InvariantViolation, match="similarity computations"):
            verify_run_invariants(result, cfg, inst)


class TestEvaluate:
    def test_coverage_bridge_holds(self, small_world):
        mem, corpus = small_world
        rows, summary, reports = evaluate(mem, corpus, base_config(), seed=0)
        for row in rows:
            assert row["correct"] == row["covered"]
        assert summary["accuracy"] == summary["coverage_rate"]
        assert len(reports) == len(corpus)

    def test_accuracy_is_the_rows_exact_match_rate(self):
        """A prediction that differs from the gold label only in case is wrong,
        in the rows and in the summary alike."""
        mem, corpus = synth_corpus(labels=6, per_label=5, ambiguity=0.5, seed=3, dim=16, instances=12)
        upper = [replace(inst, gold=inst.gold.upper()) for inst in corpus]
        rows, summary, _ = evaluate(mem, upper, base_config(), seed=0)
        assert not any(row["correct"] for row in rows)
        assert summary["accuracy"] == sum(row["correct"] for row in rows) / len(rows) == 0.0

    def test_rows_are_deterministic(self, small_world):
        mem, corpus = small_world
        rows_a, summary_a, _ = evaluate(mem, corpus, base_config(), seed=0)
        rows_b, summary_b, _ = evaluate(mem, corpus, base_config(), seed=0)
        assert json.dumps(rows_a, sort_keys=True) == json.dumps(rows_b, sort_keys=True)
        assert summary_a == summary_b

    def test_counters_identical_across_runs_and_mock_decode_is_cheap(self, small_world):
        """Timings vary run to run; operation counts must not. The mock
        verifier runs in-process, so decode wall time stays near zero."""
        mem, corpus = small_world
        rows_a, _, reports_a = evaluate(mem, corpus, base_config(), seed=1)
        rows_b, _, _ = evaluate(mem, corpus, base_config(), seed=1)
        counts = [(r["sim_ops"], r["verifier_calls"], r["tokens"]) for r in rows_a]
        assert counts == [(r["sim_ops"], r["verifier_calls"], r["tokens"]) for r in rows_b]
        assert all(r.t_llm < 0.25 for r in reports_a)

    def test_counter_bound_at_small_pool(self, small_world):
        mem, corpus = small_world
        cfg = base_config()
        cfg = replace(
            cfg,
            retrieval=replace(cfg.retrieval, pool_size=16),
            selection=replace(cfg.selection, k=4),
        )
        rows, _, _ = evaluate(mem, corpus, cfg, seed=0)
        assert all(r["sim_ops"] <= 16 * 4 for r in rows)


class TestFairnessSuite:
    def test_equal_tokens_and_expected_orderings(self, small_world):
        mem, corpus = small_world
        cfg = base_config(fairness=FairnessConfig(token_targets=(200, 240)))
        rows = fairness_suite(mem, corpus, cfg)
        fair = [r for r in rows if r["type"] == "fairness"]
        assert fair
        by_target: dict[int, dict[str, dict]] = {}
        for r in fair:
            assert r["token_deviation_pct"] <= 2.0
            assert r["accuracy"] == r["coverage"]
            by_target.setdefault(r["target"], {})[r["arm"]] = r
        for target, arms in by_target.items():
            assert arms["ldra"]["coverage"] >= arms["topk"]["coverage"]
            assert arms["ldra_shuffle"]["accuracy"] == arms["ldra"]["accuracy"]
            assert arms["ldra"]["mean_tokens"] == target

    def test_unreachable_target_is_skipped_with_reason(self, small_world):
        mem, corpus = small_world
        big_instruction = " ".join(f"word{i}" for i in range(60))
        cfg = base_config(
            fairness=FairnessConfig(token_targets=(30,)),
            instruction=big_instruction,
            budget=replace(base_config().budget, summary_token_cap=20),
        )
        rows = fairness_suite(mem, corpus, cfg)
        assert any(r["type"] == "fairness_skip" and r["target"] == 30 for r in rows)

    def test_byte_identical_across_runs(self, small_world):
        mem, corpus = small_world
        cfg = base_config(fairness=FairnessConfig(token_targets=(220,)))
        a = json.dumps(fairness_suite(mem, corpus, cfg), sort_keys=True)
        b = json.dumps(fairness_suite(mem, corpus, cfg), sort_keys=True)
        assert a == b


def two_compose_prompt(dialogue, pairs, config, budget, permutation=None, memory=None,
                       exclude_ids=(), rand_add_seed=None):
    """An arm's prompt as it was built before the rand-add fill: compose the
    pairs, and with a rand-add seed compose again with the composed exemplars
    plus the pairs the walk adds."""
    prompt = compose(config.instruction, dialogue, pairs, budget, permutation=permutation,
                     answer_format=config.answer_format)
    if rand_add_seed is None:
        return prompt
    added, _ = harness._rand_add_pairs(
        memory, set(exclude_ids), prompt.token_count, budget.max_prompt_tokens, rand_add_seed
    )
    if added:
        prompt = compose(config.instruction, dialogue, list(prompt.exemplars) + added, budget,
                         answer_format=config.answer_format)
    return prompt


def fairness_reference(memory, corpus, config, dropped):
    """The suite as it ran before its shortcuts: every arm composed afresh at
    every target (rand-add composing twice), padded with a retaken count, its
    labels taken from the padded prompt. Appends to `dropped` the (target,
    arm) of every prompt that compression cut."""
    seed = config.base_seed
    arms = [a for a in harness.FAIRNESS_ARMS
            if a != "ldra_prefix_replace" or config.fairness.prefix_replace]
    rows = []
    for target in config.fairness.token_targets:
        budget = BudgetConfig(
            max_prompt_tokens=target,
            summary_token_cap=min(config.budget.summary_token_cap, target),
            compression_policy=config.budget.compression_policy,
        )
        try:
            tokens = {a: [] for a in arms}
            correct = dict.fromkeys(arms, 0)
            covered = dict.fromkeys(arms, 0)
            for inst in corpus:
                pool = harness.retrieve_stage(inst.dialogue, memory, config.retrieval)
                verifier = harness.instance_verifier(inst, config, seed)
                for arm in arms:
                    base = harness.select_for_method(
                        arm.split("_")[0], pool, config.selection, config.lambda_mmr, seed
                    )
                    pairs = base.pairs()
                    permutation = None
                    if arm == "ldra_shuffle":
                        permutation = list(range(len(pairs)))
                        random.Random(
                            derive_seed(config.fairness.shuffle_seed, inst.id)
                        ).shuffle(permutation)
                    elif arm == "ldra_prefix_replace":
                        pairs = harness._prefix_replace_pairs(
                            pairs, memory, base.ids(), derive_seed(seed, inst.id, "prefix")
                        )
                    rand_add_seed = (
                        derive_seed(seed, inst.id, "randadd", target) if arm == "topk_rand_add" else None
                    )
                    prompt = two_compose_prompt(
                        inst.dialogue, pairs, config, budget, permutation,
                        memory=memory, exclude_ids=base.ids(), rand_add_seed=rand_add_seed,
                    )
                    if prompt.dropped_summary_turns or prompt.dropped_exemplars:
                        dropped.append((target, arm))
                    text = prompt.text + " ." * (target - prompt.token_count)
                    prompt = replace(prompt, text=text, token_count=count_tokens(text))
                    labels = candidate_labels([lab for _, lab in prompt.exemplars], pool,
                                              config.shortlist_size)
                    output = harness.score_labels(prompt.text, labels, verifier, config.tau_c)
                    cov, ok = harness.mock_coverage(inst.id, inst.gold, output)
                    tokens[arm].append(prompt.token_count)
                    correct[arm] += ok
                    covered[arm] += cov
            means = {a: sum(v) / len(v) for a, v in tokens.items()}
            deviation = (max(means.values()) - min(means.values())) / min(means.values()) * 100.0
            if deviation > harness.TOKEN_DEVIATION_LIMIT_PCT:
                raise InvariantViolation(f"target {target}: deviation {deviation:.2f}%")
            n = len(corpus)
            rows.extend(
                {"type": "fairness", "target": target, "arm": a, "n": n,
                 "accuracy": correct[a] / n, "coverage": covered[a] / n,
                 "mean_tokens": means[a], "token_deviation_pct": deviation}
                for a in arms
            )
        except CompositionError as exc:
            rows.append({"type": "fairness_skip", "target": target, "reason": str(exc)})
    return rows


def with_long_history(inst, words):
    """The instance with two more turns: an old one of `words` words, then a
    short one, so the summary cap decides whether the old turn fits."""
    e = inst.dialogue.current_embedding
    old = Turn(user=" ".join(f"w{i}" for i in range(words)), agent="noted",
               user_embedding=e, agent_embedding=e)
    new = Turn(user="and then", agent="sure", user_embedding=e, agent_embedding=e)
    return replace(inst, dialogue=replace(inst.dialogue, turns=inst.dialogue.turns + (old, new)))


class TestFairnessShortcuts:
    """The suite composes a plain arm and takes its labels once while nothing
    is dropped and the summary cap holds, pads its text without recounting
    and replays rand-add lazily; its rows and verifier calls must equal the
    per-target reference loop's."""

    @pytest.mark.parametrize("policy", ["summary-first", "strict"])
    @pytest.mark.parametrize("words", [0, 90])
    @pytest.mark.parametrize("summary_cap", [90, 250])
    def test_rows_match_per_target_reference(self, small_world, monkeypatch, policy, words,
                                             summary_cap):
        """Rows and every verifier call (padded text, labels) agree, call for
        call. The targets straddle the summary cap: below it the budget's cap
        is the target itself, so it changes from target to target."""
        mem, corpus = small_world
        corpus = [with_long_history(inst, words) if words else inst for inst in corpus[:10]]
        cfg = base_config(
            fairness=FairnessConfig(token_targets=(40, 75, 100, 130, 220, 300)),
            budget=BudgetConfig(max_prompt_tokens=400, summary_token_cap=summary_cap,
                                compression_policy=policy),
        )
        scored = []
        score = harness.score_labels
        monkeypatch.setattr(
            harness, "score_labels",
            lambda text, labels, *a: scored.append((text, tuple(labels))) or score(text, labels, *a),
        )
        dropped = []
        expected = fairness_reference(mem, corpus, cfg, dropped)
        expected_calls, scored[:] = scored[:], []
        assert fairness_suite(mem, corpus, cfg) == expected
        assert scored == expected_calls
        # The run covers what the shortcuts must respect: an unreachable
        # target, and a reachable smallest target that compression cuts.
        assert expected[0]["type"] == "fairness_skip"
        if policy == "summary-first":
            assert expected[1]["type"] == "fairness"
            assert any(t == 75 for t, _ in dropped)

    @given(st.text(), st.integers(0, 40))
    @example("ends in a word", 3)
    @example("ends in punctuation!", 2)
    @example("ends in space \n\t ", 4)
    @example("", 1)
    @example("naïve café ß", 5)
    def test_padding_count_equals_a_fresh_count(self, text, pad):
        prompt = Prompt(
            instruction="", summary="", current="", exemplars=(), answer_format="",
            text=text, token_count=count_tokens(text),
        )
        target = prompt.token_count + pad
        padded = harness._pad_to_target(prompt, target)
        assert count_tokens(padded) == target

    def test_labels_are_taken_once_per_kept_prompt(self, small_world, monkeypatch):
        """Default targets, nothing dropped (each plain arm composed once, the
        rand-add fill never composing again): one label rule per plain arm
        and one per rand-add target, 9 and not 25, and one verifier call per
        (arm, target)."""
        mem, corpus = small_world
        calls = dict.fromkeys(("compose", "candidate_labels", "score_labels"), 0)
        for name in calls:
            def counted(*args, _name=name, _orig=getattr(harness, name), **kwargs):
                calls[_name] += 1
                return _orig(*args, **kwargs)
            monkeypatch.setattr(harness, name, counted)
        rows = fairness_suite(mem, corpus[:1], base_config())
        assert [r["type"] for r in rows] == ["fairness"] * 25
        assert calls == {"compose": 4, "candidate_labels": 4 + 5, "score_labels": 5 * 5}


def rand_add_case(small_world, idx, words, extra):
    """Instance idx (with the long history when words > 0), its topk pairs
    plus, when extra > 0, one exemplar of `extra` words that is not in the
    memory, and the topk ids the walk must skip. The long exemplar is the one
    compression drops, and dropping it leaves room for memory lines."""
    mem, corpus = small_world
    inst = with_long_history(corpus[idx], words) if words else corpus[idx]
    cfg = base_config()
    pool = harness.retrieve_stage(inst.dialogue, mem, cfg.retrieval)
    sel = harness.select_for_method("topk", pool, cfg.selection, cfg.lambda_mmr, 0)
    pairs = sel.pairs()
    if extra:
        pairs.append((" ".join(f"x{i}" for i in range(extra)), "long"))
    return inst.dialogue, pairs, sel.ids(), cfg


# Bases that drop the long exemplar, summary turns and the long exemplar, or
# summary turns alone, each with room left for a memory line: the fill
# composes again.
FALLBACK_EXAMPLES = (
    dict(idx=0, words=0, extra=40, target=130, cap=0, policy="summary-first", seed=0),
    dict(idx=0, words=0, extra=40, target=130, cap=128, policy="summary-first", seed=0),
    dict(idx=0, words=90, extra=0, target=140, cap=128, policy="summary-first", seed=0),
)


class TestRandAddFill:
    """rand_add_fill fills a base that dropped nothing without composing
    again; every field must equal the two-compose build."""

    @settings(max_examples=150, deadline=None)
    @given(idx=st.integers(0, 23), words=st.sampled_from([0, 90]), extra=st.sampled_from([0, 20, 40]),
           target=st.integers(20, 400), cap=st.integers(0, 400),
           policy=st.sampled_from(["summary-first", "strict"]), seed=st.integers(0, 2**64 - 1))
    @example(**FALLBACK_EXAMPLES[0])
    @example(**FALLBACK_EXAMPLES[1])
    @example(**FALLBACK_EXAMPLES[2])
    def test_fill_equals_two_composes(self, small_world, idx, words, extra, target, cap, policy,
                                      seed):
        mem, _ = small_world
        dialogue, pairs, ids, cfg = rand_add_case(small_world, idx, words, extra)
        budget = BudgetConfig(target, min(cap, target), policy)
        args = (dialogue, pairs, cfg, budget)

        def fill():
            return harness.rand_add_fill(harness.prompt_stage(*args), dialogue, cfg, budget, mem,
                                         ids, seed)

        try:
            expected = two_compose_prompt(*args, memory=mem, exclude_ids=ids, rand_add_seed=seed)
        except CompositionError as exc:
            with pytest.raises(CompositionError, match=re.escape(str(exc))):
                fill()
            return
        got = fill()
        assert got == expected
        assert count_tokens(got.text) == got.token_count

    def test_fallback_examples_drop_and_still_add_lines(self, small_world):
        drops = []
        for ex in FALLBACK_EXAMPLES:
            dialogue, pairs, ids, cfg = rand_add_case(small_world, ex["idx"], ex["words"],
                                                      ex["extra"])
            budget = BudgetConfig(ex["target"], min(ex["cap"], ex["target"]), ex["policy"])
            base = compose(cfg.instruction, dialogue, pairs, budget,
                           answer_format=cfg.answer_format)
            added, _ = harness._rand_add_pairs(small_world[0], set(ids), base.token_count,
                                               ex["target"], ex["seed"])
            assert added
            drops.append((bool(base.dropped_summary_turns), bool(base.dropped_exemplars)))
        assert drops == [(False, True), (True, True), (True, False)]

    def test_fairness_composes_each_plain_arm_once(self, small_world, monkeypatch):
        """With the default targets and nothing dropped, one instance costs one
        compose per plain arm: the rand-add arm fills the topk prompt."""
        mem, corpus = small_world
        prompts = []
        compose_ = harness.compose
        monkeypatch.setattr(harness, "compose",
                            lambda *a, **kw: prompts.append(compose_(*a, **kw)) or prompts[-1])
        cfg = base_config()
        rows = fairness_suite(mem, corpus[:1], cfg)
        assert [r["target"] for r in rows if r["type"] == "fairness"][::5] == list(
            cfg.fairness.token_targets
        )
        assert not any(p.dropped_summary_turns or p.dropped_exemplars for p in prompts)
        assert len(prompts) == 4


class TestSweep:
    def test_factorial_rows_and_determinism(self, small_world):
        mem, corpus = small_world
        grid = {"k": [1, 3], "alpha": [0.0, 1.0], "method": ["ldra", "topk"]}
        rows = sweep(mem, corpus, grid, seeds=[0, 1], config=base_config())
        assert len(rows) == 8
        again = sweep(mem, corpus, grid, seeds=[0, 1], config=base_config())
        assert json.dumps(rows, sort_keys=True) == json.dumps(again, sort_keys=True)

    def test_aggregates_recompute(self, small_world):
        mem, corpus = small_world
        grid = {"k": [2], "alpha": [0.5], "method": ["ldra"]}
        rows = sweep(mem, corpus, grid, seeds=[0, 1, 2], config=base_config())
        row = rows[0]
        accs = []
        for s in (0, 1, 2):
            cfg = base_config(method="ldra")
            cfg = replace(cfg, selection=replace(cfg.selection, k=2, alpha=0.5))
            _, summary, _ = evaluate(mem, corpus, cfg, seed=s)
            accs.append(summary["accuracy"])
        assert row["accuracy_mean"] == pytest.approx(float(np.mean(accs)))
        assert row["accuracy_std"] == pytest.approx(float(np.std(accs)))

    def test_empty_grid_rejected(self, small_world):
        mem, corpus = small_world
        with pytest.raises(ConfigError):
            sweep(mem, corpus, {"k": []}, seeds=[0], config=base_config())


class TestGridSearch:
    def test_single_point_grid(self, small_world):
        mem, corpus = small_world
        best, rows = grid_search(
            mem, corpus, {"alpha": [0.5]}, budget_b=10.0, lambda_penalty=1.0,
            config=base_config(),
        )
        assert len(rows) == 1
        assert best == rows[0]
        assert best["theta"] == {"alpha": 0.5}

    def test_heavy_overrun_loses_to_in_budget_point(self, small_world):
        """Two pool sizes where the larger one blows the modeled budget."""
        mem, corpus = small_world
        constants = CostConstants(c_sim=1.0, r_tok=1e9)  # 1 s per similarity
        best, rows = grid_search(
            mem, corpus, {"pool_size": [4, 32]}, budget_b=20.0, lambda_penalty=10.0,
            config=base_config(), constants=constants,
        )
        assert best["theta"]["pool_size"] == 4

    def test_unknown_key_rejected(self, small_world):
        mem, corpus = small_world
        with pytest.raises(ConfigError):
            grid_search(mem, corpus, {"widgets": [1]}, 1.0, 1.0, base_config())

    @pytest.mark.parametrize("budget_b, lambda_penalty, message", [
        (math.nan, 1.0, "budget must be positive, got nan"),
        (0.0, 1.0, "budget must be positive, got 0.0"),
        (1.0, math.nan, "lambda_penalty must be finite and positive, got nan"),
        (1.0, math.inf, "lambda_penalty must be finite and positive, got inf"),
    ])
    def test_objective_terms_are_checked_before_any_retrieval(
        self, small_world, monkeypatch, budget_b, lambda_penalty, message
    ):
        mem, corpus = small_world
        calls = []
        retrieve = harness.retrieve_stage
        monkeypatch.setattr(harness, "retrieve_stage",
                            lambda *a, **kw: calls.append(a) or retrieve(*a, **kw))
        with pytest.raises(ConfigError, match=re.escape(message)):
            grid_search(mem, corpus, {"alpha": [0.5]}, budget_b, lambda_penalty, base_config())
        assert calls == []

    def test_every_instance_is_checked_for_invariants(self, small_world, monkeypatch):
        mem, corpus = small_world
        checked = []
        monkeypatch.setattr(
            harness, "verify_run_invariants",
            lambda result, config, inst: checked.append((inst.id, config.selection.alpha)),
        )
        grid_search(mem, corpus, {"alpha": [0.2, 0.8]}, 10.0, 1.0, base_config())
        assert checked == [(i.id, a) for a in (0.2, 0.8) for i in corpus]

    def test_default_grids_stay_inside_quoted_bounds(self):
        assert all(0.2 <= a <= 0.8 for a in DEFAULT_GRIDS["alpha"])
        assert all(0.2 <= t <= 0.6 for t in DEFAULT_GRIDS["tau"])
        assert set(DEFAULT_GRIDS["label_cap"]) <= {1, 2}
        assert set(DEFAULT_GRIDS["pool_size"]) <= {64, 128, 256}
        assert set(DEFAULT_GRIDS["k"]) <= {4, 6, 8}
        assert all(0.4 <= v <= 0.8 for v in DEFAULT_GRIDS["lambda_vec"])
        assert all(0.0 <= m <= 0.2 for m in DEFAULT_GRIDS["mu"])



def apply_theta_reference(config, theta):
    """`config` with θ set by hand: method at the top, pool_size and
    lambda_vec in the retrieval section, every other key in the selection."""
    ret_keys = ("pool_size", "lambda_vec")
    return replace(
        config,
        method=theta.get("method", config.method),
        selection=replace(config.selection, **{key: v for key, v in theta.items()
                                               if key not in (*ret_keys, "method")}),
        retrieval=replace(config.retrieval, **{key: v for key, v in theta.items()
                                               if key in ret_keys}),
    )


def grid_runs_reference(memory, corpus, axes, seeds, config, weights):
    """The grid loop before pool reuse: one `evaluate` per θ and seed with no
    pools given, so each θ retrieves afresh at its own pool_size and
    lambda_vec."""
    for combo in itertools.product(*axes.values()):
        theta = dict(zip(axes, combo))
        cfg = apply_theta_reference(config, theta)
        yield theta, cfg, [evaluate(memory, corpus, cfg, s, weights=weights)[:2] for s in seeds]


GRID_AXES = {"pool_size": [8, 32], "k": [2, 4], "lambda_vec": [0.4, 0.8]}
SWEEP_GRID = {"method": ["ldra", "topk_rand_add"], "k": [2, 4], "alpha": [0.0, 0.5]}


class TestGridLoop:
    """sweep and grid_search share one loop, which retrieves each instance
    once per lambda_vec at the deepest pool size and slices that pool per θ;
    every row must equal the reference's, which retrieves afresh per θ."""

    def test_loop_equals_fresh_retrieval(self, small_world):
        mem, corpus = small_world
        args = (mem, corpus, GRID_AXES, [0, 3], base_config(), None)
        got = list(harness._grid_runs(*args))
        assert len(got) == 8
        assert got == list(grid_runs_reference(*args))

    def test_sweep_and_grid_search_equal_fresh_retrieval(self, small_world, monkeypatch):
        mem, corpus = small_world
        cfg = base_config()
        configs = [
            replace(cfg, retrieval=replace(cfg.retrieval, pool_size=size, lambda_vec=lam))
            for size, lam in itertools.product((8, 32), (0.4, 0.8))
        ]

        def both():
            return ([sweep(mem, corpus, SWEEP_GRID, [0, 3], c) for c in configs],
                    grid_search(mem, corpus, GRID_AXES, 2.0, 1.0, cfg))

        got = both()
        monkeypatch.setattr(harness, "_grid_runs", grid_runs_reference)
        assert got == both()

    def test_each_instance_is_retrieved_once_per_lambda_vec(self, small_world, monkeypatch):
        mem, corpus = small_world
        calls = []
        retrieve = harness.retrieve_stage

        def counted(dialogue, memory, retrieval, weights=None):
            calls.append((dialogue, retrieval.pool_size, retrieval.lambda_vec))
            return retrieve(dialogue, memory, retrieval, weights)

        monkeypatch.setattr(harness, "retrieve_stage", counted)
        sweep(mem, corpus, SWEEP_GRID, [0, 1, 2], base_config())
        assert calls == [(inst.dialogue, 32, 0.6) for inst in corpus]
        calls.clear()
        grid_search(mem, corpus, GRID_AXES, 2.0, 1.0, base_config())
        assert calls == [(inst.dialogue, 32, lam) for lam in (0.4, 0.8) for inst in corpus]

    def test_grid_rows_keep_theta_values_as_given(self, small_world):
        mem, corpus = small_world
        _, rows = grid_search(mem, corpus, {"alpha": [1], "k": [3]}, 2.0, 1.0, base_config())
        assert [(r["theta"], type(r["theta"]["alpha"])) for r in rows] == [
            ({"alpha": 1, "k": 3}, int)
        ]

    def test_empty_corpus_rejected_by_evaluate_sweep_and_grid_search(self, small_world):
        mem, _ = small_world
        for run in (
            lambda: evaluate(mem, [], base_config(), 0),
            lambda: sweep(mem, [], {"k": [2]}, [0], base_config()),
            lambda: grid_search(mem, [], {"k": [2]}, 2.0, 1.0, base_config()),
        ):
            with pytest.raises(ConfigError, match="non-empty corpus"):
                run()

    @pytest.mark.parametrize("grids, message", [
        ({"pool_size": [math.inf]}, "grid pool_size must be a non-empty list of distinct integers"),
        ({"k": [math.nan]}, "grid k must be a non-empty list of distinct integers"),
        ({"k": [2.5]}, "grid k must be a non-empty list of distinct integers"),
        ({"k": [True]}, "grid k must be a non-empty list of distinct integers"),
        ({"label_cap": [1.5]}, "grid label_cap must be a non-empty list of distinct integers"),
        ({"alpha": [math.nan]}, "grid alpha must be a non-empty list of distinct finite numbers"),
        ({"tau": [-math.inf]}, "grid tau must be a non-empty list of distinct finite numbers"),
        ({"alpha": [0.5, 0.5]}, "grid alpha must be a non-empty list of distinct finite numbers"),
        ({"mu": [0, 0.0]}, "grid mu must be a non-empty list of distinct finite numbers"),
        ({"pool_size": [16, 16]}, "grid pool_size must be a non-empty list of distinct integers"),
        ({"method": ["ldra"]}, "unknown grid keys: ['method']"),
    ], ids=["inf_pool_size", "nan_k", "float_k", "bool_k", "float_label_cap", "nan_alpha",
            "inf_tau", "repeated_alpha", "repeated_mu", "repeated_pool_size", "method_key"])
    def test_grid_values_checked_against_their_parameter(self, grids, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            harness.check_grids(grids)

    @pytest.mark.parametrize("grid, seeds, message", [
        ({"method": ["ldra", "ldra"]}, [0], "grid method must be a non-empty list of distinct strings"),
        ({"k": [2, 2]}, [0], "grid k must be a non-empty list of distinct integers"),
        ({"alpha": [math.nan]}, [0], "grid alpha must be a non-empty list of distinct finite numbers"),
        ({"k": [2]}, [0, 0], "sweep seeds must be a non-empty list of distinct integers"),
        ({"k": [2]}, [], "sweep seeds must be a non-empty list of distinct integers"),
        ({"tau": [0.2]}, [0], "unknown sweep grid keys: ['tau']"),
    ], ids=["repeated_method", "repeated_k", "nan_alpha", "repeated_seed", "no_seeds", "tau_key"])
    def test_sweep_axes_and_seeds_checked(self, small_world, grid, seeds, message):
        mem, corpus = small_world
        with pytest.raises(ConfigError, match=re.escape(message)):
            sweep(mem, corpus, grid, seeds, base_config())

class TestCorpusIO:
    def test_round_trip(self, small_world, tmp_path):
        _, corpus = small_world
        path = tmp_path / "corpus.jsonl"
        write_corpus(corpus, path)
        back = read_corpus(path)
        assert len(back) == len(corpus)
        for a, b in zip(corpus, back):
            assert a.id == b.id and a.gold == b.gold
            assert np.array_equal(
                a.dialogue.current_embedding, b.dialogue.current_embedding
            )
            assert len(a.dialogue.turns) == len(b.dialogue.turns)

    def test_empty_corpus_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ConfigError):
            read_corpus(path)

    @pytest.mark.parametrize(
        "bad",
        ['{"id": "x", "gold": ', '{"id": "x", "current": "hi", "gold": "g"}', "[1, 2]"],
        ids=["invalid-json", "missing-key", "not-an-object"],
    )
    def test_malformed_row_names_its_line(self, small_world, tmp_path, bad):
        _, corpus = small_world
        corpus_path, dialogue_path = tmp_path / "corpus.jsonl", tmp_path / "dialogue.json"
        write_corpus(corpus[:2], corpus_path)
        corpus_path.write_text(corpus_path.read_text() + "\n" + bad + "\n")
        dialogue_path.write_text("\n" + bad + "\n")
        with pytest.raises(ConfigError, match=re.escape(f"{corpus_path}:4:")):
            read_corpus(corpus_path)
        with pytest.raises(ConfigError, match=re.escape(f"{dialogue_path}:2:")):
            read_dialogue(dialogue_path)

    def test_rows_carrying_slots_load_as_rows_without_them(self, small_world, tmp_path):
        """`slots` is not read: a list of slot maps and a non-list value both
        load to the instance of the same row without the key."""
        _, corpus = small_world
        plain, slotted = tmp_path / "plain.jsonl", tmp_path / "slotted.jsonl"
        write_corpus(corpus[:2], plain)
        rows = [json.loads(line) for line in plain.read_text(encoding="utf-8").splitlines()]
        rows[0]["slots"] = [{"hotel-area": "north"}, {"taxi-dest": "not_mentioned"}]
        rows[1]["slots"] = 7
        slotted.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        rewritten = tmp_path / "rewritten.jsonl"
        write_corpus(read_corpus(slotted), rewritten)
        assert rewritten.read_bytes() == plain.read_bytes()

    def test_empty_dialogue_file_rejected(self, tmp_path):
        path = tmp_path / "dialogue.json"
        path.write_text("\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            read_dialogue(path)


class TestConfig:
    def test_round_trip_through_dict(self):
        cfg = base_config(method="mmr", runs=5)
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_hash_is_stable_and_sensitive(self):
        a = base_config()
        b = base_config()
        assert a.config_hash() == b.config_hash()
        c = base_config(method="topk")
        assert a.config_hash() != c.config_hash()

    def test_default_hash_is_pinned(self):
        # The eval header row carries this hash; it moves only with a config field.
        assert ExperimentConfig().config_hash() == "1131f3ddbdd2"

    @pytest.mark.parametrize("data", [
        {"tau_c": 2},
        {"selection": {"alpha": 1}},
        {"retrieval": {"lambda_vec": 0}},
    ])
    def test_integer_spelling_of_a_float_hashes_the_same(self, data):
        def spelled_as_float(value):
            if isinstance(value, dict):
                return {k: spelled_as_float(v) for k, v in value.items()}
            return float(value) if isinstance(value, int) else value

        as_int = ExperimentConfig.from_dict(data)
        as_float = ExperimentConfig.from_dict(spelled_as_float(data))
        assert as_int == as_float
        assert as_int.config_hash() == as_float.config_hash()

    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(method="quantum")
        with pytest.raises(ConfigError):
            ExperimentConfig(runs=0)
        with pytest.raises(ConfigError):
            FairnessConfig(token_targets=(300, 200))

    def test_derive_seed_is_stable(self):
        assert derive_seed(1, "x") == derive_seed(1, "x")
        assert derive_seed(1, "x") != derive_seed(2, "x")
