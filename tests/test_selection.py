import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataclasses import replace

from conftest import make_candidate, pool_of, random_pool, unit
from divsel.errors import ConfigError, DimensionError, SelectionError
from divsel.retrieval import Candidate
from divsel.selection import (
    SelectedSet,
    SelectionConfig,
    brute_force_select,
    fps_select,
    greedy_select,
    label_diversity,
    mmr_select,
    r_score,
    random_select,
    text_diversity,
    topk_select,
)

# --- independent scratch oracles (no incremental bookkeeping) ---------------


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
            sim = float(embeddings[i] @ embeddings[j])
            total += max(0.0, min(1.0, sim))
    return 1.0 - total / (m * (m - 1) / 2)


def clamped_sum(candidate, members):
    """The candidate's clamped-similarity sum against the members."""
    return sum(max(0.0, min(1.0, float(candidate.embedding @ m.embedding))) for m in members)


def scratch_r(members, alpha):
    if not members:
        return 0.0
    g = scratch_g([c.label for c in members])
    d = scratch_d([c.embedding for c in members])
    return alpha * g + (1 - alpha) * d


class TestLabelDiversity:
    def test_single_label_collapses_to_zero(self):
        assert label_diversity(["a", "a", "a"]) == 0.0

    def test_mixed_counts(self):
        np.testing.assert_allclose(label_diversity(["a", "a", "b", "c"]), 0.625, atol=1e-12)

    def test_uniform_distinct(self):
        for k in (2, 3, 7):
            np.testing.assert_allclose(
                label_diversity([f"l{i}" for i in range(k)]), 1 - 1 / k, atol=1e-12
            )

    def test_empty_rejected(self):
        with pytest.raises(SelectionError):
            label_diversity([])


class TestTextDiversity:
    def test_identical_pair(self):
        e = unit(1.0, 0.0)
        assert text_diversity([e, e]) == 0.0

    def test_orthogonal_pair(self):
        assert text_diversity([unit(1, 0), unit(0, 1)]) == 1.0

    def test_three_vector_mean(self):
        """Direct evaluation: pairwise sims are 0, cos45, cos45."""
        embs = [unit(1, 0), unit(0, 1), unit(math.sqrt(2) / 2, math.sqrt(2) / 2)]
        expected = 1.0 - (0.0 + math.cos(math.pi / 4) * 2) / 3
        got = text_diversity(embs)
        np.testing.assert_allclose(got, expected, atol=1e-12)
        np.testing.assert_allclose(got, 0.5286, atol=5e-5)

    def test_singleton_is_one(self):
        assert text_diversity([unit(0.3, 0.4)]) == 1.0

    def test_negative_similarities_clamped(self):
        assert text_diversity([unit(1, 0), unit(-1, 0)]) == 1.0

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            embs = [unit(*rng.normal(size=3)) for _ in range(rng.integers(2, 6))]
            d = text_diversity(embs)
            assert 0.0 <= d <= 1.0


class TestRScore:
    def test_arithmetic(self):
        np.testing.assert_allclose(r_score(0.625, 0.5, 0.5), 0.5625, atol=1e-12)

    def test_endpoints(self):
        assert r_score(0.3, 0.9, 1.0) == 0.3
        assert r_score(0.3, 0.9, 0.0) == 0.9

    def test_alpha_validated(self):
        with pytest.raises(ConfigError):
            r_score(0.5, 0.5, 1.5)


class TestClosedFormDeltas:
    """The change in g and dtext from one more member, read off
    `SelectedSet.after_add(count, incoming_a)[2:]`."""

    def test_new_label_on_two_distinct(self):
        """{a, b} gaining c: label diversity moves 1/2 -> 2/3."""
        s = SelectedSet(1.0, pool_of(make_candidate("1", "a", (1, 0, 0), 0.5),
                                     make_candidate("2", "b", (0, 1, 0), 0.5)))
        s.add(0, 0.0)
        s.add(1, 0.0)
        g, _ = s.after_add(0, 0.0)[2:]
        np.testing.assert_allclose(g - s.g, 2 / 3 - 1 / 2, atol=1e-12)
        np.testing.assert_allclose(1 - (2 + 0 + 1) / 9, 2 / 3, atol=1e-12)

    def test_repeated_label_keeps_zero(self):
        s = SelectedSet(1.0, pool_of(*(make_candidate(str(i), "a", (1, 0), 0.5) for i in range(3))))
        for i in range(3):
            s.add(i, float(i))
        g, _ = s.after_add(s.label_counts["a"], 3.0)[2:]
        assert g - s.g == 0.0

    def test_empty_set_delta_is_zero(self):
        s = SelectedSet(0.5, pool_of())
        g, _ = s.after_add(0, 0.0)[2:]
        assert g - s.g == 0.0

    def test_orthogonal_add_keeps_text_diversity(self):
        s = SelectedSet(0.5, pool_of(make_candidate("1", "a", (1, 0), 0.5)))
        s.add(0, 0.0)
        _, d = s.after_add(0, 0.0)[2:]
        assert d - s.dtext == 0.0

    def test_duplicate_add_drops_text_diversity_to_zero(self):
        s = SelectedSet(0.5, pool_of(make_candidate("1", "a", (1, 0), 0.5)))
        s.add(0, 0.0)
        _, d = s.after_add(0, 1.0)[2:]
        assert d - s.dtext == -1.0

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_deltas_match_scratch_recomputation(self, seed):
        """Closed-form increments equal scratch recomputation on random sets."""
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 9))
        pool = random_pool(rng, size + 1, n_labels=3, dim=4)
        s = SelectedSet(float(rng.uniform(0, 1)), pool)
        *members, incoming = pool
        for i, c in enumerate(members):
            s.add(i, clamped_sum(c, members[:i]))
        g, d = s.after_add(s.label_counts.get(incoming.label, 0), clamped_sum(incoming, members))[2:]
        dg, dd = g - s.g, d - s.dtext
        labels_before = [c.label for c in members]
        embs_before = [c.embedding for c in members]
        g_direct = scratch_g(labels_before + [incoming.label]) - scratch_g(labels_before)
        d_direct = scratch_d(embs_before + [incoming.embedding]) - scratch_d(embs_before)
        assert abs(dg - g_direct) <= 1e-12
        assert abs(dd - d_direct) <= 1e-12


class TestGreedySelect:
    def cfg(self, **kw):
        base = dict(alpha=0.5, k=2, tau=0.0, label_cap=2, mu=0.05)
        base.update(kw)
        return SelectionConfig(**base)

    def test_three_candidate_walkthrough(self, abc_pool):
        """Per-step oracle: step one is relevance-driven; at step two the
        fresh-label orthogonal candidate beats the near-duplicate."""
        result = greedy_select(abc_pool, self.cfg())
        assert result.ids() == ["A", "C"]
        assert result.stop_reason == "complete"
        # step-2 audit by scratch evaluation of both alternatives
        a, b, c = abc_pool
        r_ab = scratch_r([a, b], 0.5)
        r_ac = scratch_r([a, c], 0.5)
        np.testing.assert_allclose(r_ac, 0.75, atol=1e-12)
        assert r_ab < 0.01
        assert result.steps[1].r == result.r

    def test_cap_limits_single_label_pool(self):
        pool = pool_of(*(make_candidate(f"c{i}", "only", (1, 0.01 * i), 0.8) for i in range(4)))
        result = greedy_select(pool, self.cfg(k=3, label_cap=1))
        assert result.size == 1
        assert result.stop_reason == "cap-limited"

    def test_threshold_makes_selection_infeasible(self, abc_pool):
        result = greedy_select(abc_pool, self.cfg(tau=0.95))
        assert result.size == 0
        assert result.stop_reason == "infeasible"
        assert result.binding_constraint == "tau"

    def test_k_cannot_exceed_pool(self, abc_pool):
        with pytest.raises(SelectionError):
            greedy_select(abc_pool, self.cfg(k=4))

    def test_empty_pool_rejected(self):
        with pytest.raises(SelectionError):
            greedy_select(pool_of(), self.cfg())

    def test_alpha_one_cap_one_yields_distinct_labels(self):
        rng = np.random.default_rng(11)
        pool = random_pool(rng, 30, n_labels=6)
        result = greedy_select(pool, self.cfg(alpha=1.0, k=5, label_cap=1, tau=-1.0))
        labels = result.labels()
        assert len(labels) == len(set(labels))

    def test_alpha_zero_r_equals_d(self):
        rng = np.random.default_rng(12)
        pool = random_pool(rng, 20, n_labels=4)
        result = greedy_select(pool, self.cfg(alpha=0.0, k=4, tau=-1.0))
        assert result.r == result.dtext

    def test_similarity_ops_bounded(self):
        rng = np.random.default_rng(13)
        pool = random_pool(rng, 64, n_labels=8)
        cfg = self.cfg(k=4, label_cap=8, tau=-1.0)
        result = greedy_select(pool, cfg)
        assert result.sim_ops <= 64 * 4

    SELECTORS = {
        "greedy": lambda pool, cfg, x: greedy_select(pool, cfg),
        "topk": lambda pool, cfg, x: topk_select(pool, cfg.k, cfg.alpha),
        "mmr": lambda pool, cfg, x: mmr_select(pool, cfg.k, x, cfg.alpha),
        "fps": lambda pool, cfg, x: fps_select(pool, cfg.k, cfg.alpha),
        "random": lambda pool, cfg, x: random_select(pool, cfg.k, int(x * 1000), cfg.alpha),
        "brute_force": lambda pool, cfg, x: brute_force_select(pool, cfg),
    }

    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from(sorted(SELECTORS)))
    @settings(max_examples=120, deadline=None)
    def test_incremental_state_matches_scratch(self, seed, selector):
        """Every selector's running G/D/R agree with scratch recomputation,
        and sim_ops counts the similarities its steps took: the tau-passing
        rows at each greedy step, the open rows after each MMR or
        farthest-point step, or K(K-1)/2 for a set built from chosen
        indices."""
        rng = np.random.default_rng(seed)
        pool = random_pool(rng, int(rng.integers(3, 20)), n_labels=4)
        cfg = SelectionConfig(
            alpha=float(rng.uniform(0, 1)),
            k=int(rng.integers(1, len(pool) + 1)),
            tau=float(rng.uniform(-1, 0.5)),
            label_cap=int(rng.integers(1, 4)),
            mu=float(rng.uniform(0, 0.2)),
        )
        result = self.SELECTORS[selector](pool, cfg, float(rng.uniform(0, 1)))
        if result.size:
            g, d, r = result.recompute()
            assert abs(g - result.g) <= 1e-9
            assert abs(d - result.dtext) <= 1e-9
            assert abs(r - result.r) <= 1e-9
        size = result.size
        if selector in ("topk", "random", "brute_force"):
            assert result.sim_ops == size * (size - 1) // 2
        elif selector == "greedy":
            assert result.sim_ops == size * int(np.sum(pool.vec_score >= cfg.tau))
        else:
            assert result.sim_ops == sum(len(pool) - step for step in range(1, size + 1))
        if selector in ("greedy", "brute_force"):
            assert np.all(pool.vec_score[result.rows] >= cfg.tau)
            for n in result.label_counts.values():
                assert n <= cfg.label_cap

    def test_per_step_choice_is_optimal(self):
        """Exhaustive per-step audit: the chosen candidate's prior-adjusted
        gain is maximal among feasible alternatives."""
        rng = np.random.default_rng(14)
        for _ in range(30):
            pool = random_pool(rng, int(rng.integers(4, 24)), n_labels=5)
            cfg = SelectionConfig(
                alpha=float(rng.uniform(0, 1)),
                k=int(rng.integers(1, 6)),
                tau=float(rng.uniform(-1, 0.3)),
                label_cap=int(rng.integers(1, 3)),
                mu=0.05,
            )
            if cfg.k > len(pool):
                continue
            result = greedy_select(pool, cfg)
            chosen_ids = result.ids()
            members: list = []
            remaining = {c.exemplar_id: c for c in pool}
            for step, cid in enumerate(chosen_ids):
                counts: dict[str, int] = {}
                for m in members:
                    counts[m.label] = counts.get(m.label, 0) + 1
                r_before = scratch_r(members, cfg.alpha)
                best_gain = None
                for cand in remaining.values():
                    if cand.vec_score < cfg.tau:
                        continue
                    if counts.get(cand.label, 0) >= cfg.label_cap:
                        continue
                    gain = (
                        scratch_r(members + [cand], cfg.alpha)
                        - r_before
                        + cfg.mu * cand.vec_score
                    )
                    if best_gain is None or gain > best_gain:
                        best_gain = gain
                chosen = remaining.pop(cid)
                chosen_gain = (
                    scratch_r(members + [chosen], cfg.alpha)
                    - r_before
                    + cfg.mu * chosen.vec_score
                )
                assert chosen_gain >= best_gain - 1e-9
                members.append(chosen)


class TestBruteForce:
    def test_matches_greedy_on_walkthrough(self, abc_pool):
        cfg = SelectionConfig(alpha=0.5, k=2, tau=0.0, label_cap=2, mu=0.05)
        oracle = brute_force_select(abc_pool, cfg)
        assert sorted(oracle.ids()) == ["A", "C"]

    def test_identical_candidates_pick_lexicographically_first(self):
        pool = pool_of(*(make_candidate(c, "same", (1, 0), 0.5) for c in ("d", "b", "c", "a")))
        cfg = SelectionConfig(alpha=0.5, k=2, tau=0.0, label_cap=4, mu=0.0)
        oracle = brute_force_select(pool, cfg)
        assert sorted(oracle.ids()) == ["a", "b"]

    def test_forced_whole_pool(self, abc_pool):
        cfg = SelectionConfig(alpha=0.5, k=3, tau=0.0, label_cap=3, mu=0.0)
        oracle = brute_force_select(abc_pool, cfg)
        assert sorted(oracle.ids()) == ["A", "B", "C"]

    def test_combinatorial_guard(self):
        rng = np.random.default_rng(15)
        pool = random_pool(rng, 40, n_labels=10)
        cfg = SelectionConfig(alpha=0.5, k=12, tau=-1.0, label_cap=12, mu=0.0)
        with pytest.raises(SelectionError, match="guard"):
            brute_force_select(pool, cfg)

    def test_never_below_greedy(self):
        rng = np.random.default_rng(16)
        for _ in range(40):
            pool = random_pool(rng, int(rng.integers(3, 10)), n_labels=3)
            cfg = SelectionConfig(
                alpha=float(rng.uniform(0, 1)),
                k=int(rng.integers(1, 4)),
                tau=float(rng.uniform(-1, 0.4)),
                label_cap=int(rng.integers(1, 3)),
                mu=0.0,
            )
            if cfg.k > len(pool):
                continue
            greedy = greedy_select(pool, cfg)
            oracle = brute_force_select(pool, cfg)
            assert oracle.r >= greedy.r - 1e-12
            assert oracle.size == greedy.size


class TestMmr:
    def test_lambda_one_matches_vector_order(self):
        rng = np.random.default_rng(17)
        pool = random_pool(rng, 12, n_labels=4)
        result = mmr_select(pool, 5, lambda_mmr=1.0)
        expected = sorted(pool, key=lambda c: (-c.vec_score, c.exemplar_id))[:5]
        assert result.ids() == [c.exemplar_id for c in expected]

    def test_three_candidate_walkthrough(self, abc_pool):
        """Hand evaluation at lambda 0.5: the near-duplicate scores
        0.445 - 0.495 < 0, the orthogonal candidate scores 0.3."""
        result = mmr_select(abc_pool, 2, lambda_mmr=0.5)
        assert result.ids() == ["A", "C"]
        sim_ba = float(abc_pool.embeddings[1] @ abc_pool.embeddings[0])
        assert 0.5 * 0.89 - 0.5 * sim_ba < 0.5 * 0.6 - 0.5 * 0.0

    def test_duplicate_never_second(self, abc_pool):
        dup = make_candidate("A2", "x", (1.0, 0.0), 0.9)
        pool = pool_of(*abc_pool, dup)
        result = mmr_select(pool, 3, lambda_mmr=0.5)
        assert result.ids()[1] != "A2"

    def test_lambda_validated(self, abc_pool):
        with pytest.raises(ConfigError):
            mmr_select(abc_pool, 2, lambda_mmr=1.5)


class TestFps:
    def test_seeds_at_max_relevance_then_farthest(self, abc_pool):
        result = fps_select(abc_pool, 2)
        assert result.ids() == ["A", "C"]

    def test_identical_pool_fills_by_id(self):
        pool = pool_of(*(make_candidate(c, "same", (1, 0), 0.5) for c in ("c", "a", "b")))
        result = fps_select(pool, 3)
        assert result.ids() == ["a", "b", "c"]  # relevance ties seed by id too

    def test_k_one_is_just_the_seed(self, abc_pool):
        result = fps_select(abc_pool, 1)
        assert result.ids() == ["A"]

    def test_k_zero_selects_nothing_like_the_other_selectors(self, abc_pool):
        for result in (fps_select(abc_pool, 0), mmr_select(abc_pool, 0, 0.5),
                       topk_select(abc_pool, 0)):
            assert result.ids() == []
            assert result.sim_ops == 0


class TestTopkAndRandom:
    def test_topk_prefix(self, abc_pool):
        assert topk_select(abc_pool, 2).ids() == ["A", "B"]

    def test_random_seeded_repeatability(self):
        rng = np.random.default_rng(18)
        pool = random_pool(rng, 20, n_labels=4)
        a = random_select(pool, 6, seed=123)
        b = random_select(pool, 6, seed=123)
        assert a.ids() == b.ids()
        c = random_select(pool, 6, seed=124)
        assert a.ids() != c.ids()

    def test_random_exhausts_pool(self, abc_pool):
        assert sorted(random_select(abc_pool, 3, seed=1).ids()) == ["A", "B", "C"]


class TestNonFinitePool:
    SELECTORS = (
        lambda p: greedy_select(p, SelectionConfig(k=2, tau=-1.0)),
        lambda p: mmr_select(p, 2, 0.5),
        lambda p: fps_select(p, 2),
    )

    @pytest.mark.parametrize("field", ["vec_score", "relevance"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_score_rejected(self, abc_pool, field, bad):
        a, b, c = abc_pool
        pool = pool_of(a, replace(b, **{field: bad}), c)
        for select in self.SELECTORS:
            with pytest.raises(SelectionError, match="non-finite"):
                select(pool)

    def test_non_finite_embedding_rejected(self, abc_pool):
        a, b, c = abc_pool
        pool = pool_of(a, replace(b, embedding=np.array([np.nan, 1.0])), c)
        for select in self.SELECTORS + (lambda p: brute_force_select(p, SelectionConfig(k=2)),):
            with pytest.raises(DimensionError, match="non-finite"):
                select(pool)

    def test_topk_and_random_validate_the_rows_they_choose(self):
        """A non-finite or zero embedding among the chosen rows raises, as it
        does for the other selectors; one that is not chosen is never read."""
        rows = {"a": [1.0, 0.0], "nan": [np.nan, 1.0], "b": [0.0, 1.0], "zero": [0.0, 0.0]}

        def pool(*names):
            return pool_of(*(Candidate(n, "t", n, np.array(rows[n]), 0.5, 0.5, 0.0, 0.0) for n in names))

        with pytest.raises(DimensionError, match="non-finite"):
            topk_select(pool("a", "nan", "b", "zero"), 2)
        with pytest.raises(DimensionError, match="zero"):
            topk_select(pool("zero", "a"), 1)
        with pytest.raises(DimensionError, match="non-finite"):
            random_select(pool("a", "nan", "b"), 3, seed=1)
        result = topk_select(pool("a", "b", "nan", "zero"), 2)
        assert result.ids() == ["a", "b"]
        assert (result.g, result.dtext, result.sim_ops) == (0.5, 1.0, 1)

    def test_mixed_dimensions_rejected(self, abc_pool):
        """A pool holds one embedding matrix, so candidates of two dimensions
        never become a pool that a selector could read."""
        a, b, _ = abc_pool
        with pytest.raises(DimensionError, match="shape"):
            fps_select(pool_of(a, replace(b, embedding=unit(1, 0, 0))), 2)
