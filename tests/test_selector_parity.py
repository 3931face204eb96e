"""The vectorized greedy, MMR and farthest-point selectors against scalar
references: per-candidate scans over a `remaining` set that break ties with a
descending-string key, as the selectors did before they scored every
candidate at once. Results must be identical, not merely close: the
arithmetic per candidate is unchanged, only its batching and the tie-break
mechanism differ. Each reference keeps its own clamped pair sums, one pair
at a time through `similarities`, whose value for a pair does not depend on
the rows it is computed with (`test_similarities_do_not_depend_on_the_batch`);
the greedy reference adds them to its tau-passing rows only, as greedy
does."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divsel.retrieval import Candidate, Pool, RetrievalConfig, retrieve_pool
from divsel.selection import (
    SelectedSet,
    SelectionConfig,
    StepRecord,
    fps_select,
    greedy_select,
    mmr_select,
    similarities,
)
from divsel.synth import synth_corpus


class _ReverseStr(str):
    """Orders strings descending inside an otherwise max-key tuple."""

    def __lt__(self, other):
        return str.__gt__(self, other)

    def __gt__(self, other):
        return str.__lt__(self, other)


def _unit_rows(pool):
    mat = np.stack([c.embedding for c in pool]).astype(np.float64)
    return mat / np.linalg.norm(mat, axis=1, keepdims=True)


def _sim(mat, i, j):
    return float(similarities(mat[i], mat[j]))


def greedy_reference(pool, cfg):
    cands = list(pool)
    mat = _unit_rows(pool)
    pair_sums = np.zeros(len(pool))
    tau_rows = [i for i in range(len(pool)) if cands[i].vec_score >= cfg.tau]
    remaining = set(tau_rows)
    out = SelectedSet(cfg.alpha, pool)
    while out.size < cfg.k:
        best = None
        best_idx = -1
        best_gain = 0.0
        for i in remaining:
            c = cands[i]
            count = out.label_counts.get(c.label, 0)
            if count >= cfg.label_cap:
                continue
            _, _, g, dtext = out.after_add(count, float(pair_sums[i]))
            gain = cfg.alpha * (g - out.g) + (1.0 - cfg.alpha) * (dtext - out.dtext)
            tilde = gain + cfg.mu * c.vec_score
            key = (tilde, c.relevance, _ReverseStr(c.exemplar_id))
            if best is None or key > best:
                best = key
                best_idx = i
                best_gain = gain
        if best is None:
            if out.size == 0:
                out.stop_reason = "infeasible"
                out.binding_constraint = "cap" if remaining else "tau"
            else:
                out.stop_reason = "cap-limited" if remaining else "threshold-limited"
            return out
        chosen = cands[best_idx]
        out.add(best_idx, incoming_a=float(pair_sums[best_idx]))
        out.steps.append(
            StepRecord(out.size - 1, chosen.exemplar_id, best_gain, best[0], out.g, out.dtext, out.r)
        )
        remaining.discard(best_idx)
        for i in tau_rows:
            pair_sums[i] += np.clip(_sim(mat, i, best_idx), 0.0, 1.0)
            out.sim_ops += 1
    out.stop_reason = "complete"
    return out


def mmr_reference(pool, k, lambda_mmr, alpha):
    cands = list(pool)
    mat = _unit_rows(pool)
    n = len(pool)
    max_sim = np.zeros(n)
    pair_sums = np.zeros(n)
    remaining = set(range(n))
    out = SelectedSet(alpha, pool)
    while out.size < min(k, n) and remaining:
        best_key = None
        best_idx = -1
        for i in remaining:
            penalty = max_sim[i] if out.size else 0.0
            score = lambda_mmr * cands[i].vec_score - (1.0 - lambda_mmr) * penalty
            key = (score, _ReverseStr(cands[i].exemplar_id))
            if best_key is None or key > best_key:
                best_key = key
                best_idx = i
        out.add(best_idx, incoming_a=float(pair_sums[best_idx]))
        remaining.discard(best_idx)
        for i in remaining:
            sim = _sim(mat, i, best_idx)
            pair_sums[i] += np.clip(sim, 0.0, 1.0)
            max_sim[i] = np.maximum(max_sim[i], sim)
            out.sim_ops += 1
    out.stop_reason = "complete"
    return out


def fps_reference(pool, k, alpha):
    cands = list(pool)
    mat = _unit_rows(pool)
    n = len(pool)
    out = SelectedSet(alpha, pool)
    pair_sums = np.zeros(n)
    min_dist = np.full(n, np.inf)
    chosen = set()

    def take(best_idx):
        out.add(best_idx, incoming_a=float(pair_sums[best_idx]))
        chosen.add(best_idx)
        for i in set(range(n)) - chosen:
            sim = _sim(mat, i, best_idx)
            pair_sums[i] += np.clip(sim, 0.0, 1.0)
            min_dist[i] = np.minimum(min_dist[i], 1.0 - sim)
            out.sim_ops += 1

    take(min(range(n), key=lambda i: (-cands[i].relevance, cands[i].exemplar_id)))
    while out.size < min(k, n):
        best_key = None
        best_idx = -1
        for i in range(n):
            if i in chosen:
                continue
            key = (float(min_dist[i]), _ReverseStr(cands[i].exemplar_id))
            if best_key is None or key > best_key:
                best_key = key
                best_idx = i
        take(best_idx)
    out.stop_reason = "complete"
    return out


@pytest.mark.parametrize("n", [1, 2, 6, 16, 42, 128, 300])
@pytest.mark.parametrize("d", [3, 16, 32, 33])
def test_similarities_do_not_depend_on_the_batch(n, d):
    """A subset of rows equals the same rows of the full product, a Gram row
    equals its row product, a sub-Gram equals its block, and a pair equals
    its entry, bit for bit: what lets a selector compute only the rows it
    reads and a reference take one pair at a time. A numpy whose einsum
    broke this fails here rather than as a changed digest."""
    rng = np.random.default_rng(1000 * n + d)
    for _ in range(10):
        mat = rng.normal(size=(n, d))
        mat /= np.linalg.norm(mat, axis=1, keepdims=True)
        x = int(rng.integers(n))
        full = similarities(mat, mat[x])
        gram = similarities(mat, mat)
        sub = rng.choice(n, int(rng.integers(1, n + 1)), replace=False)
        assert np.array_equal(similarities(mat[sub], mat[x]), full[sub])
        assert np.array_equal(gram[x], full)
        assert np.array_equal(similarities(mat[sub], mat[sub]), gram[np.ix_(sub, sub)])
        i, j = (int(v) for v in rng.integers(n, size=2))
        assert similarities(mat[i], mat[j]) == gram[i, j]


def outcome(result: SelectedSet):
    return (
        result.ids(),
        result.steps,
        result.sim_ops,
        (result.g, result.dtext, result.r),
        result.stop_reason,
        result.binding_constraint,
    )


# Few distinct values per field, so that ties are common: repeated embeddings
# (equal similarities), equal scores, duplicate ids, and a vec_score exactly
# at the tau values below.
_DIRECTIONS = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 1), (-1, 0, 2), (2, 1, -1)]
_SCORES = [-0.3, 0.0, 0.4, 0.5, 0.9]


@st.composite
def pools(draw):
    n = draw(st.integers(1, 12))
    pool = []
    for i in range(n):
        direction = draw(
            st.one_of(
                st.sampled_from(_DIRECTIONS),
                st.tuples(*[st.floats(-1, 1, allow_nan=False)] * 3).filter(
                    lambda v: np.linalg.norm(v) > 1e-3
                ),
            )
        )
        emb = np.asarray(direction, dtype=np.float64)
        score = st.one_of(st.sampled_from(_SCORES), st.floats(-1, 1, allow_nan=False))
        pool.append(
            Candidate(
                exemplar_id=draw(st.sampled_from([f"c{i:02d}", "c00", "c03", "b"])),
                text="t",
                label=draw(st.sampled_from("xyz")),
                embedding=emb / np.linalg.norm(emb),
                relevance=draw(score),
                vec_score=draw(score),
                lex_score=0.0,
                bm25_raw=0.0,
            )
        )
    return Pool.from_candidates(pool)


@settings(max_examples=200, deadline=None)
@given(
    pool=pools(),
    data=st.data(),
    alpha=st.sampled_from([0.0, 0.5, 1.0]),
    tau=st.sampled_from([-1.0, 0.4, 0.5]),
    label_cap=st.integers(1, 3),
    mu=st.sampled_from([0.0, 0.05]),
)
def test_greedy_matches_scalar_reference(pool, data, alpha, tau, label_cap, mu):
    k = data.draw(st.integers(1, len(pool)))
    cfg = SelectionConfig(alpha=alpha, k=k, tau=tau, label_cap=label_cap, mu=mu)
    assert outcome(greedy_select(pool, cfg)) == outcome(greedy_reference(pool, cfg))


@settings(max_examples=200, deadline=None)
@given(pool=pools(), data=st.data(), lambda_mmr=st.sampled_from([0.0, 0.3, 0.5, 1.0]))
def test_mmr_matches_scalar_reference(pool, data, lambda_mmr):
    k = data.draw(st.integers(1, len(pool)))
    assert outcome(mmr_select(pool, k, lambda_mmr, 0.5)) == outcome(
        mmr_reference(pool, k, lambda_mmr, 0.5)
    )


@settings(max_examples=200, deadline=None)
@given(pool=pools(), data=st.data())
def test_fps_matches_scalar_reference(pool, data):
    k = data.draw(st.integers(1, len(pool)))
    assert outcome(fps_select(pool, k, 0.5)) == outcome(fps_reference(pool, k, 0.5))


def test_full_ties_pick_smallest_id_then_lowest_index():
    """Identical candidates: every selector takes them in (id, index) order."""
    e = np.array([1.0, 0.0])
    pool = Pool.from_candidates(Candidate(eid, "t", lab, e, 0.5, 0.5, 0.0, 0.0)
                                for eid, lab in (("b", "x"), ("a", "y"), ("b", "z"), ("a", "w")))
    cfg = SelectionConfig(alpha=0.0, k=4, tau=0.0, label_cap=1, mu=0.0)
    for result in (greedy_select(pool, cfg), mmr_select(pool, 4, 1.0), fps_select(pool, 4)):
        assert result.labels() == ["y", "w", "x", "z"]


@pytest.fixture(scope="module")
def synth_pools():
    """Retrieved pools of a synthetic memory (24 labels x 10 exemplars) at
    the benchmark's pool size L=128 and at L=16, queried by each instance's
    current utterance and embedding."""
    mem, corpus = synth_corpus(labels=24, per_label=10, ambiguity=0.5, seed=17, dim=32,
                               instances=4)
    return [
        retrieve_pool(mem, inst.dialogue.current_embedding, inst.dialogue.current,
                      RetrievalConfig(pool_size=size))
        for inst in corpus
        for size in (16, 128)
    ]


@pytest.mark.parametrize("tau", [-1.0, 0.4, 0.8])
@pytest.mark.parametrize("label_cap", [1, 2, 3])
def test_greedy_matches_scalar_reference_on_retrieved_pools(synth_pools, tau, label_cap):
    """Realistic pools: many labels, K up to 32, tau passing all, some or
    few candidates, and caps that bind."""
    rng = np.random.default_rng(int(tau * 10) + 100 * label_cap)
    for pool in synth_pools:
        cfg = SelectionConfig(
            alpha=float(rng.choice([0.0, 0.3, 0.5, 1.0])),
            k=int(rng.integers(1, min(32, len(pool)) + 1)),
            tau=tau,
            label_cap=label_cap,
            mu=float(rng.choice([0.0, 0.05, 0.5])),
        )
        assert outcome(greedy_select(pool, cfg)) == outcome(greedy_reference(pool, cfg)), cfg
