import json
from dataclasses import replace

import numpy as np
import pytest

from divsel.encoder import EncoderWeights, encode_context
from divsel.errors import ConfigError
from divsel.harness import ExperimentConfig, evaluate, write_corpus
from divsel.retrieval import RetrievalConfig, retrieve_pool
from divsel.selection import SelectionConfig, greedy_select, topk_select
from divsel.synth import synth_corpus
from divsel.verifier import candidate_labels


def coverage_oracle(memory, corpus, config, select_fn):
    """Independent gold-coverage computation: rerun retrieval and selection,
    then check label membership directly (no harness bookkeeping involved)."""
    weights = EncoderWeights.default(memory.dim)
    hits = 0
    for inst in corpus:
        z = encode_context(inst.dialogue, weights)
        pool = retrieve_pool(memory, z, inst.dialogue.current, config.retrieval)
        selected = select_fn(pool)
        labels = set(candidate_labels(selected.labels(), pool, config.shortlist_size))
        hits += inst.gold in labels
    return hits / len(corpus)


class TestSynthCorpus:
    def test_shape_and_reproducibility(self):
        mem_a, corpus_a = synth_corpus(labels=6, per_label=4, ambiguity=0.5, seed=3, instances=10)
        mem_b, corpus_b = synth_corpus(labels=6, per_label=4, ambiguity=0.5, seed=3, instances=10)
        assert len(mem_a) == 24
        assert len(corpus_a) == 10
        assert mem_a.ids == mem_b.ids
        assert np.array_equal(mem_a.embedding_matrix, mem_b.embedding_matrix)
        for a, b in zip(corpus_a, corpus_b):
            assert a.id == b.id and a.gold == b.gold
            assert np.array_equal(a.dialogue.current_embedding, b.dialogue.current_embedding)
            assert a.dialogue.current == b.dialogue.current

    def test_byte_identical_serialization(self, tmp_path):
        _, corpus_a = synth_corpus(labels=5, per_label=3, ambiguity=0.3, seed=11, instances=8)
        _, corpus_b = synth_corpus(labels=5, per_label=3, ambiguity=0.3, seed=11, instances=8)
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_corpus(corpus_a, pa)
        write_corpus(corpus_b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seeds_differ(self):
        mem_a, _ = synth_corpus(labels=5, per_label=3, ambiguity=0.3, seed=1, instances=4)
        mem_b, _ = synth_corpus(labels=5, per_label=3, ambiguity=0.3, seed=2, instances=4)
        assert not np.array_equal(mem_a.embedding_matrix, mem_b.embedding_matrix)

    def test_embeddings_survive_layer_norm(self):
        """Generated embeddings are zero-mean, so the default encoder's layer
        normalization preserves their direction."""
        mem, corpus = synth_corpus(labels=4, per_label=3, ambiguity=0.5, seed=9, instances=6)
        weights = EncoderWeights.default(mem.dim)
        for inst in corpus:
            z = encode_context(inst.dialogue, weights)
            e = inst.dialogue.current_embedding
            cos = float(z @ e / (np.linalg.norm(z) * np.linalg.norm(e)))
            assert cos > 0.999999

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            synth_corpus(labels=1, per_label=3, ambiguity=0.3, seed=0)
        with pytest.raises(ConfigError):
            synth_corpus(labels=3, per_label=3, ambiguity=1.5, seed=0)

    def test_zero_ambiguity_makes_topk_cover_gold(self):
        """With no ambiguous queries, relevance-only retrieval finds the gold
        cluster; verified with the independent coverage oracle."""
        mem, corpus = synth_corpus(labels=10, per_label=8, ambiguity=0.0, seed=21, instances=40)
        cfg = ExperimentConfig(retrieval=RetrievalConfig(pool_size=64))
        cov = coverage_oracle(mem, corpus, cfg, lambda pool: topk_select(pool, 7))
        assert cov >= 0.95

    def test_full_ambiguity_separates_topk_from_diverse_selection(self):
        """With every query pulled toward a distractor cluster, top-k coverage
        collapses while label-diverse greedy selection keeps exposing gold."""
        mem, corpus = synth_corpus(labels=10, per_label=8, ambiguity=1.0, seed=22, instances=40)
        cfg = ExperimentConfig(retrieval=RetrievalConfig(pool_size=64), shortlist_size=0)
        sel = SelectionConfig(alpha=1.0, k=7, tau=0.0, label_cap=1, mu=0.05)
        cov_topk = coverage_oracle(mem, corpus, cfg, lambda pool: topk_select(pool, 7))
        cov_ldra = coverage_oracle(mem, corpus, cfg, lambda pool: greedy_select(pool, sel))
        assert cov_topk <= 0.2
        assert cov_ldra >= cov_topk + 0.5

    def test_pipeline_accuracy_matches_oracle_coverage(self):
        mem, corpus = synth_corpus(labels=8, per_label=6, ambiguity=0.6, seed=23, instances=30)
        cfg = ExperimentConfig(retrieval=RetrievalConfig(pool_size=48))
        cfg = replace(cfg, selection=replace(cfg.selection, k=5))
        _, summary, _ = evaluate(mem, corpus, cfg, seed=0)
        oracle = coverage_oracle(
            mem, corpus, cfg, lambda pool: greedy_select(pool, cfg.selection)
        )
        assert summary["accuracy"] == oracle
