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


def _calls(mem, corpus, config):
    inst = corpus[0]
    verifier = harness.mock_verifier(
        inst.gold, harness.derive_seed(config.base_seed, inst.id, "mock"), config.mock_margin
    )
    result = harness.run_pipeline(inst, config, mem, verifier, seed=config.base_seed)
    pipeline = (
        result.prediction,
        result.selection.ids(),
        result.selection.sim_ops,
        (result.selection.g, result.selection.dtext, result.selection.r),
        result.prompt.text,
        list(result.candidate_set),
    )
    return pipeline, harness.fairness_suite(mem, [corpus[1]], config)


def test_traced_layers_match_untraced_and_restore():
    mem, corpus = synth_corpus(labels=6, per_label=5, ambiguity=0.6, seed=3, dim=16, instances=2)
    config = replace(
        harness.ExperimentConfig(),
        retrieval=replace(harness.ExperimentConfig().retrieval, pool_size=16),
        fairness=replace(harness.ExperimentConfig().fairness, token_targets=(300,)),
    )
    untraced = _calls(mem, corpus, config)

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
