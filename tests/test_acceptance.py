"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Expected values are either
hand-derivable, verified against independent scratch oracles defined in this
module, or margins first established with the coverage oracle and then frozen.
Criterion 8, gradient checks of the encoder's training losses, is retired: no
encoder is trained, so nothing in the pipeline called those losses.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from divsel.budget import CostConstants, WorkloadShape, model_latency
from divsel.encoder import (
    EncoderWeights,
    encode_context,
)
from divsel.harness import (
    ExperimentConfig,
    FairnessConfig,
    evaluate,
    fairness_suite,
    sweep,
)
from divsel.memory import load, persist
from divsel.retrieval import Candidate, Pool, retrieve_pool
from divsel.selection import (
    SelectedSet,
    SelectionConfig,
    greedy_select,
    topk_select,
)
from divsel.synth import synth_corpus
from divsel.verifier import calibrate, candidate_labels, decide_from_scores
from oracles import bm25_score, brute_force_select

# --- independent scratch oracles --------------------------------------------


def scratch_g(labels):
    counts = {}
    for lab in labels:
        counts[lab] = counts.get(lab, 0) + 1
    n = len(labels)
    return 1.0 - sum(c * c for c in counts.values()) / (n * n)


def scratch_d(embeddings):
    m = len(embeddings)
    if m == 1:
        return 1.0
    total = 0.0
    for i in range(m):
        for j in range(i + 1, m):
            total += max(0.0, min(1.0, float(embeddings[i] @ embeddings[j])))
    return 1.0 - total / (m * (m - 1) / 2)


def scratch_r(labels, embeddings, alpha):
    if not labels:
        return 0.0
    return alpha * scratch_g(labels) + (1 - alpha) * scratch_d(embeddings)


def make_pool(rng, n, n_labels, dim=4):
    embs = rng.normal(size=(n, dim))
    embs /= np.linalg.norm(embs, axis=1, keepdims=True)
    return Pool.from_candidates(
        Candidate(
            exemplar_id=f"c{i:03d}",
            text=f"text {i}",
            label=f"l{int(rng.integers(n_labels))}",
            embedding=embs[i],
            relevance=float(rng.uniform(0, 1)),
            vec_score=float(rng.uniform(-1, 1)),
            lex_score=0.0,
            bm25_raw=0.0,
        )
        for i in range(n)
    )


@pytest.fixture(scope="module")
def fixed_corpus():
    """The frozen desk-scale corpus: 50 labels, 20 exemplars each, ambiguity
    0.6, 200 instances, seed 20240810."""
    return synth_corpus(labels=50, per_label=20, ambiguity=0.6, seed=20240810, instances=200)


def _report(n, name):
    print(f"\nACCEPTANCE {n}: PASS — {name}")


def test_criterion_1_closed_form_increment_equivalence():
    """Closed-form label/text diversity increments match scratch recomputation
    within 1e-9 over 10,000 random (set, candidate) instances in under 10 s."""
    rng = np.random.default_rng(1)
    start = time.time()
    worst = 0.0
    for _ in range(10_000):
        size = int(rng.integers(1, 9))
        dim = 6
        embs = rng.normal(size=(size + 1, dim))
        embs /= np.linalg.norm(embs, axis=1, keepdims=True)
        labels = [f"l{int(x)}" for x in rng.integers(0, 3, size=size + 1)]
        pool = Pool.from_candidates(
            Candidate(f"c{i}", "", labels[i], embs[i], 0.5, 0.5, 0.0, 0.0) for i in range(size)
        )
        selected = SelectedSet(float(rng.uniform(0, 1)), pool)
        for i in range(size):
            selected.add(i, float(np.clip(embs[:i] @ embs[i], 0.0, 1.0).sum()))
        incoming_a = float(np.clip(embs[:size] @ embs[size], 0.0, 1.0).sum())
        g, d = selected.after_add(selected.label_counts.get(labels[size], 0), incoming_a)[2:]
        dg, dd = g - selected.g, d - selected.dtext
        g_direct = scratch_g(labels) - scratch_g(labels[:size])
        d_direct = scratch_d(list(embs)) - scratch_d(list(embs[:size]))
        worst = max(worst, abs(dg - g_direct), abs(dd - d_direct))
    elapsed = time.time() - start
    assert worst <= 1e-9, f"worst deviation {worst}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _report(1, f"closed-form increments (worst dev {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_greedy_step_optimality():
    """Every greedy step picks the feasible candidate with maximal
    prior-adjusted gain, and no output violates tau or the label cap;
    exhaustive per-step audit over 1,000 random pools."""
    rng = np.random.default_rng(2)
    for _ in range(1_000):
        n = int(rng.integers(4, 65))
        pool = make_pool(rng, n, n_labels=int(rng.integers(2, 9)))
        cfg = SelectionConfig(
            alpha=float(rng.uniform(0, 1)),
            k=int(rng.integers(1, min(9, n + 1))),
            tau=float(rng.uniform(-1, 0.4)),
            label_cap=int(rng.integers(1, 4)),
            mu=float(rng.uniform(0, 0.2)),
        )
        result = greedy_select(pool, cfg)
        assert np.all(pool.vec_score[result.rows] >= cfg.tau)
        for count in result.label_counts.values():
            assert count <= cfg.label_cap

        cands = list(pool)
        sims = np.stack([c.embedding for c in cands])
        sims = np.clip(sims @ sims.T, 0.0, 1.0)
        by_id = {c.exemplar_id: i for i, c in enumerate(cands)}
        chosen_indices: list[int] = []
        remaining = set(range(n))
        for cid in result.ids():
            counts: dict[str, int] = {}
            for j in chosen_indices:
                counts[cands[j].label] = counts.get(cands[j].label, 0) + 1
            labels_before = [cands[j].label for j in chosen_indices]
            embs_before = [cands[j].embedding for j in chosen_indices]
            r_before = scratch_r(labels_before, embs_before, cfg.alpha)
            best = None
            for i in remaining:
                cand = cands[i]
                if cand.vec_score < cfg.tau:
                    continue
                if counts.get(cand.label, 0) >= cfg.label_cap:
                    continue
                gain = (
                    scratch_r(
                        labels_before + [cand.label],
                        embs_before + [cand.embedding],
                        cfg.alpha,
                    )
                    - r_before
                    + cfg.mu * cand.vec_score
                )
                if best is None or gain > best:
                    best = gain
            i_star = by_id[cid]
            chosen = cands[i_star]
            chosen_gain = (
                scratch_r(
                    labels_before + [chosen.label],
                    embs_before + [chosen.embedding],
                    cfg.alpha,
                )
                - r_before
                + cfg.mu * chosen.vec_score
            )
            assert chosen_gain >= best - 1e-9
            chosen_indices.append(i_star)
            remaining.discard(i_star)
    _report(2, "greedy per-step optimality and constraint safety (1,000 pools)")


def test_criterion_3_oracle_comparison():
    """The exhaustive selector never scores below greedy; the greedy-optimal
    match rate is recorded, not asserted."""
    rng = np.random.default_rng(3)
    matches = 0
    total = 0
    for _ in range(500):
        n = int(rng.integers(3, 11))
        pool = make_pool(rng, n, n_labels=int(rng.integers(2, 5)))
        cfg = SelectionConfig(
            alpha=float(rng.uniform(0, 1)),
            k=int(rng.integers(1, min(4, n + 1))),
            tau=float(rng.uniform(-1, 0.4)),
            label_cap=int(rng.integers(1, 3)),
            mu=0.0,
        )
        greedy = greedy_select(pool, cfg)
        oracle = brute_force_select(pool, cfg)
        assert oracle.r >= greedy.r - 1e-12
        assert oracle.size == greedy.size
        total += 1
        if abs(oracle.r - greedy.r) <= 1e-12:
            matches += 1
    rate = matches / total
    _report(3, f"oracle dominance over 500 instances; greedy-optimal rate {rate:.3f} (recorded)")


def test_criterion_4_coverage_separation(fixed_corpus):
    """On the frozen ambiguous corpus with equal token budgets and K=7, the
    diversity selector beats similarity top-k by at least 5 points, and
    padding top-k with random exemplars does not close the gap to within 2
    points. Reported accuracies are cross-checked against an independent
    coverage oracle. Margins first measured: ldra 0.93, topk 0.375,
    rand-add <= 0.56 across targets."""
    start = time.time()
    memory, corpus = fixed_corpus
    config = ExperimentConfig()
    config = replace(config, selection=replace(config.selection, k=7))
    rows = [r for r in fairness_suite(memory, corpus, config) if r["type"] == "fairness"]
    assert rows, "no fairness emissions"

    weights = EncoderWeights.default(memory.dim)
    oracle_hits = {"ldra": 0, "topk": 0}
    for inst in corpus:
        z = encode_context(inst.dialogue, weights)
        pool = retrieve_pool(memory, z, inst.dialogue.current, config.retrieval)
        for arm, selector in (
            ("ldra", lambda p: greedy_select(p, config.selection)),
            ("topk", lambda p: topk_select(p, config.selection.k)),
        ):
            labels = candidate_labels(selector(pool).labels(), pool, config.shortlist_size)
            oracle_hits[arm] += inst.gold in labels
    oracle_cov = {arm: hits / len(corpus) for arm, hits in oracle_hits.items()}

    for target in config.fairness.token_targets:
        arms = {r["arm"]: r for r in rows if r["target"] == target}
        assert arms["ldra"]["accuracy"] >= arms["topk"]["accuracy"] + 0.05
        assert arms["ldra"]["accuracy"] - arms["topk_rand_add"]["accuracy"] >= 0.02
        assert arms["ldra"]["accuracy"] == oracle_cov["ldra"]
        assert arms["topk"]["accuracy"] == oracle_cov["topk"]
    elapsed = time.time() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    ldra = oracle_cov["ldra"]
    topk = oracle_cov["topk"]
    _report(4, f"coverage separation ldra {ldra:.3f} vs topk {topk:.3f} ({elapsed:.1f}s)")


def test_criterion_5_equal_token_fairness(fixed_corpus):
    """Every fairness emission at the standard targets keeps cross-arm prompt
    token deviation at or below 2%."""
    memory, corpus = fixed_corpus
    config = ExperimentConfig()
    config = replace(config, selection=replace(config.selection, k=7))
    assert config.fairness.token_targets == (260, 285, 310, 330, 360)
    rows = [r for r in fairness_suite(memory, corpus, config) if r["type"] == "fairness"]
    targets_seen = {r["target"] for r in rows}
    assert targets_seen == {260, 285, 310, 330, 360}
    for r in rows:
        assert r["token_deviation_pct"] <= 2.0
    _report(5, "equal-token fairness at {260,285,310,330,360}")


def test_criterion_6_cost_model_conformance(fixed_corpus):
    """Measured greedy similarity counters never exceed pool x steps, and the
    modeled diversification time doubles exactly when the pool doubles."""
    memory, corpus = fixed_corpus
    config = ExperimentConfig()
    config = replace(config, selection=replace(config.selection, k=6))
    rows, _, _ = evaluate(memory, corpus[:60], config, seed=0)
    bound = config.retrieval.pool_size * config.selection.k
    for row in rows:
        assert row["sim_ops"] <= bound

    constants = CostConstants(c_sim=3.3e-6, c_delta=0.0, r_tok=100.0)
    shape = WorkloadShape(
        memory_size=1000, query_terms=8, pool_size=64, k=6, turns=2,
        prompt_tokens=300, gen_tokens=10,
    )
    t1 = model_latency(constants, shape).t_div
    t2 = model_latency(constants, replace(shape, pool_size=128)).t_div
    assert abs(t2 - 2.0 * t1) <= 1e-12
    # with a per-step overhead the scan term still doubles exactly
    with_delta = CostConstants(c_sim=3.3e-6, c_delta=7e-6, r_tok=100.0)
    s1 = model_latency(with_delta, shape).t_div - with_delta.c_delta * shape.k
    s2 = model_latency(with_delta, replace(shape, pool_size=128)).t_div - with_delta.c_delta * shape.k
    assert abs(s2 - 2.0 * s1) <= 1e-12
    _report(6, "similarity counters bounded and modeled scan term doubles with pool")


def test_criterion_7_decision_invariance():
    """The decoded label is the arg max of the calibrated probabilities at
    temperatures 0.9, 1.0 and 1.3 for 1,000 random score maps, so the decode
    takes no temperature."""
    rng = np.random.default_rng(7)
    for _ in range(1_000):
        n_labels = int(rng.integers(2, 9))
        scores = {f"l{i}": float(rng.normal(scale=3.0)) for i in range(n_labels)}
        decision = decide_from_scores(scores).decision
        for t in (0.9, 1.0, 1.3):
            calibrated = calibrate(scores, t)
            assert decision == max(calibrated, key=calibrated.get)
    _report(7, "temperature-invariant decisions on 1,000 score maps")


def test_criterion_9_determinism_and_round_trip(fixed_corpus, tmp_path):
    """Harness emissions are byte-identical across reruns with the same seeds,
    and memory persistence preserves every observable score bit-exactly."""
    memory, corpus = fixed_corpus
    config = ExperimentConfig()
    config = replace(
        config,
        selection=replace(config.selection, k=7),
        fairness=FairnessConfig(token_targets=(260, 310)),
    )
    sub = corpus[:60]
    fair_a = json.dumps(fairness_suite(memory, sub, config), sort_keys=True)
    fair_b = json.dumps(fairness_suite(memory, sub, config), sort_keys=True)
    assert fair_a.encode() == fair_b.encode()

    grid = {"k": [3, 7], "alpha": [0.0, 1.0], "method": ["ldra", "topk"]}
    sweep_a = json.dumps(sweep(memory, sub, grid, [0, 1, 2], config), sort_keys=True)
    sweep_b = json.dumps(sweep(memory, sub, grid, [0, 1, 2], config), sort_keys=True)
    assert sweep_a.encode() == sweep_b.encode()

    path = tmp_path / "roundtrip.divmem"
    persist(memory, path)
    loaded = load(path)
    assert np.array_equal(loaded.embedding_matrix, memory.embedding_matrix)
    queries = [inst.dialogue.current for inst in corpus[:5]]
    for q in queries:
        for eid in memory.ids[::97]:
            assert bm25_score(loaded, q, eid) == bm25_score(memory, q, eid)
    _report(9, "byte-identical reruns and bit-exact memory round-trip")


def test_criterion_10_default_configuration_smoke(fixed_corpus):
    """The documented default configuration (lambda_vec 0.6, alpha 0.5,
    tau 0.4, cap 1, mu 0.05, pool 128, k in {4, 6}) runs end-to-end on the
    synthetic corpus with the mock verifier in under 30 s with zero invariant
    violations."""
    memory, corpus = fixed_corpus
    start = time.time()
    base = ExperimentConfig()
    assert base.retrieval.lambda_vec == 0.6
    assert base.retrieval.pool_size == 128
    assert base.selection.alpha == 0.5
    assert base.selection.tau == 0.4
    assert base.selection.label_cap == 1
    assert base.selection.mu == 0.05
    for k in (4, 6):
        config = replace(base, selection=replace(base.selection, k=k))
        rows, summary, reports = evaluate(memory, corpus, config, seed=0)
        assert summary["n"] == len(corpus)
        assert 0.0 <= summary["accuracy"] <= 1.0
        assert len(reports) == len(corpus)
    elapsed = time.time() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _report(10, f"default configuration smoke in {elapsed:.1f}s")
