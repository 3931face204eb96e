"""The names and shapes that the benchmark's span tracer (`bench/spans.py`)
wraps: every layer entry point it patches exists, its deferred count hooks
can read their arguments (the greedy hook iterates the pool and reads
`.vec_score`), tracing leaves results unchanged, and every wrapper comes off
again."""

import sys
from dataclasses import replace
from pathlib import Path

from divsel import harness
from divsel.synth import synth_corpus

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import spans  # noqa: E402


def _pipeline(mem, inst, config):
    verifier = harness.mock_verifier(
        inst.gold, harness.derive_seed(config.base_seed, inst.id, "mock"), config.mock_margin
    )
    result = harness.run_pipeline(inst, config, mem, verifier, seed=config.base_seed)
    return (
        result.prediction,
        result.selection.ids(),
        result.selection.sim_ops,
        (result.selection.g, result.selection.dtext, result.selection.r),
        result.prompt,
        list(result.candidate_set),
    )


def _calls(mem, corpus, config):
    """Both pipeline paths (ldra, and topk_rand_add, which fills its prompt),
    a one-target fairness run and one with several targets, where the plain
    arms reuse their prompts and rand-add fills the topk prompt."""
    several = replace(config, fairness=replace(config.fairness, token_targets=(220, 260, 300)))
    return (
        _pipeline(mem, corpus[0], config),
        _pipeline(mem, corpus[0], replace(config, method="topk_rand_add")),
        harness.fairness_suite(mem, [corpus[1]], config),
        harness.fairness_suite(mem, corpus, several),
    )


def test_traced_layers_match_untraced_and_restore():
    """At a pool of 16 from 30 rows the float32 pre-scan runs, and the tracer
    times it as `retrieval.dense`; at a pool of 64 every row is scored exactly
    and no pre-scan runs."""
    mem, corpus = synth_corpus(labels=6, per_label=5, ambiguity=0.6, seed=3, dim=16, instances=2)
    for pool_size, prunes in ((16, True), (64, False)):
        config = replace(
            harness.ExperimentConfig(),
            retrieval=replace(harness.ExperimentConfig().retrieval, pool_size=pool_size),
            fairness=replace(harness.ExperimentConfig().fairness, token_targets=(300,)),
        )
        untraced = _calls(mem, corpus, config)
        # The rand-add paths add lines here, so the fill itself is traced.
        assert len(untraced[1][4].exemplars) > len(untraced[1][1])

        tracer = spans.Tracer()
        tracer.install_layers()
        try:
            tracer.begin_query("q")
            traced = _calls(mem, corpus, config)
            tracer.end_query()
        finally:
            restored = tracer.restore()

        assert restored
        assert traced == untraced
        counts = tracer.query_counts["q"]
        for key in ("select_calls", "tau_pass", "compose_calls"):
            assert counts.get(key, 0) > 0, key
        # One walk for the rand-add pipeline run and one per instance and target
        # in each fairness run, every one through the wrapped global.
        assert sum(1 for span in tracer.spans if span[0] == "harness.randadd") == 1 + 1 * 1 + 2 * 3
        assert any(span[0] == "retrieval.dense" for span in tracer.spans) is prunes
