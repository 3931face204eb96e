import json
import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
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
from divsel.prompt import BudgetConfig, Prompt, count_tokens
from divsel.synth import synth_corpus
from divsel.verifier import mock_verifier


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
        expected = [count_tokens(render_exemplar_line(ex.text, ex.label)) for ex in mem.exemplars]
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


def fairness_reference(memory, corpus, config, dropped):
    """The suite as it ran before its shortcuts: every arm composed afresh
    through prompt_stage at every target, padded with a retaken count. Appends
    to `dropped` the (target, arm) of every prompt that compression cut."""
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
                    pairs = [(c.text, c.label) for c in base.members]
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
                    prompt = harness.prompt_stage(
                        inst.dialogue, pairs, config, budget, permutation,
                        memory=memory, exclude_ids=base.ids(), rand_add_seed=rand_add_seed,
                    )
                    if prompt.dropped_summary_turns or prompt.dropped_exemplars:
                        dropped.append((target, arm))
                    text = prompt.text + " ." * (target - prompt.token_count)
                    prompt = replace(prompt, text=text, token_count=count_tokens(text))
                    output = harness.decode_stage(prompt, pool, verifier, config)
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
    """The suite composes a plain arm once while nothing is dropped and the
    summary cap holds, pads without recounting and replays rand-add lazily;
    its rows must equal the per-target reference loop's."""

    @pytest.mark.parametrize("policy", ["summary-first", "strict"])
    @pytest.mark.parametrize("words", [0, 90])
    @pytest.mark.parametrize("summary_cap", [90, 250])
    def test_rows_match_per_target_reference(self, small_world, monkeypatch, policy, words,
                                             summary_cap):
        """Rows and every decoded prompt (text, token count, exemplars) agree.
        The targets straddle the summary cap: below it the budget's cap is the
        target itself, so it changes from target to target."""
        mem, corpus = small_world
        corpus = [with_long_history(inst, words) if words else inst for inst in corpus[:10]]
        cfg = base_config(
            fairness=FairnessConfig(token_targets=(40, 75, 100, 130, 220, 300)),
            budget=BudgetConfig(max_prompt_tokens=400, summary_token_cap=summary_cap,
                                compression_policy=policy),
        )
        decoded = []
        decode = harness.decode_stage
        monkeypatch.setattr(
            harness, "decode_stage",
            lambda prompt, *a: decoded.append(prompt) or decode(prompt, *a),
        )
        dropped = []
        expected = fairness_reference(mem, corpus, cfg, dropped)
        expected_prompts, decoded[:] = decoded[:], []
        assert fairness_suite(mem, corpus, cfg) == expected
        assert decoded == expected_prompts
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
        assert padded.token_count == target == count_tokens(padded.text)


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
