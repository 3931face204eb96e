"""The array-native candidate pool: a `Pool` iterates its candidates, and
every selector returns the same result for a Pool as for the Pool rebuilt
from that list."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_candidate
from divsel import harness
from divsel.errors import DimensionError, SelectionError
from divsel.memory import ingest, load, persist
from divsel.retrieval import Candidate, Pool, RetrievalConfig, read_pool, retrieve_pool, write_pool
from divsel.selection import (
    SelectionConfig,
    _argmax,
    _unit_rows,
    brute_force_select,
    fps_select,
    greedy_select,
    mmr_select,
    random_select,
    topk_select,
)
from divsel.synth import synth_corpus
from divsel.verifier import candidate_labels
from test_selector_parity import outcome, pools


def small_memory(rng: np.random.Generator, n: int):
    """Few distinct embeddings, texts and labels, so that scores tie; ids are
    shuffled so that their string order differs from memory order."""
    vecs = rng.normal(size=(3, 3))
    ids = [f"e{i}" for i in rng.permutation(n)]  # "e10" sorts before "e9"
    return ingest(
        {"id": ids[i], "text": f"word{i % 3} filler", "label": "xyz"[int(rng.integers(3))],
         "embedding": vecs[int(rng.integers(3))].tolist()}
        for i in range(n)
    ), vecs[0]


@st.composite
def retrieved_pools(draw):
    n = draw(st.integers(1, 10))
    mem, z = small_memory(np.random.default_rng(draw(st.integers(0, 2**16))), n)
    cfg = RetrievalConfig(
        lambda_vec=draw(st.sampled_from((0.0, 0.6, 1.0))), pool_size=draw(st.integers(1, n))
    )
    return retrieve_pool(mem, z, "word1", cfg)


def fields(c):
    return (c.exemplar_id, c.text, c.label, c.embedding.tolist(), c.relevance, c.vec_score,
            c.lex_score, c.bm25_raw)


def select_all(pool, k, tau, label_cap, seed):
    cfg = SelectionConfig(alpha=0.5, k=k, tau=tau, label_cap=label_cap, mu=0.05)
    results = (
        greedy_select(pool, cfg),
        topk_select(pool, k),
        mmr_select(pool, k, 0.5),
        fps_select(pool, k),
        random_select(pool, k, seed),
        brute_force_select(pool, cfg),
    )
    return [(outcome(r), r.labels()) for r in results]


@settings(max_examples=150, deadline=None)
@given(
    pool=st.one_of(retrieved_pools(), pools()),
    data=st.data(),
    tau=st.sampled_from([-1.0, 0.4]),
    label_cap=st.integers(1, 3),
    seed=st.integers(0, 9),
)
def test_every_selector_reads_a_pool_as_its_candidate_list(pool, data, tau, label_cap, seed):
    """Retrieved pools rank by the memory's id ranks, pools rebuilt from
    their candidate list by their own; both must give the same ids, labels,
    steps, sim_ops, g/d/r, stop reason and binding constraint."""
    k = data.draw(st.integers(1, len(pool)))
    assert select_all(pool, k, tau, label_cap, seed) == select_all(
        Pool.from_candidates(list(pool)), k, tau, label_cap, seed
    )


class TestPool:
    def pool(self, n=9, size=7):
        mem, z = small_memory(np.random.default_rng(4), n)
        return mem, retrieve_pool(mem, z, "word1", RetrievalConfig(pool_size=size))

    def test_candidates_come_from_the_memory_rows(self):
        mem, pool = self.pool()
        assert len(pool) == 7
        for i, c in enumerate(pool):
            ex = mem.get(c.exemplar_id)
            assert (c.text, c.label) == (ex.text, ex.label)
            assert np.array_equal(c.embedding, ex.embedding)
            assert np.array_equal(pool.embeddings[i], mem.embedding_matrix[pool.rows[i]])
            assert type(c.relevance) is float
        ids = [c.exemplar_id for c in pool]
        assert sorted(range(7), key=lambda i: ids[i]) == list(np.argsort(pool.rank))

    def test_candidate_embeddings_are_read_only_memory_rows(self, tmp_path):
        """A candidate's embedding is its pool's own read-only row and equals
        the memory row, for an ingested and a loaded memory, and in a pool
        built from those candidates."""
        mem, z = small_memory(np.random.default_rng(4), 9)
        persist(mem, tmp_path / "mem.divmem")
        for source in (mem, load(tmp_path / "mem.divmem")):
            pool = retrieve_pool(source, z, "word1", RetrievalConfig(pool_size=7))
            for built in (pool, Pool.from_candidates(list(pool))):
                for i, c in enumerate(built):
                    assert np.array_equal(c.embedding, source.get(c.exemplar_id).embedding)
                    assert not c.embedding.flags.writeable
                    assert np.shares_memory(c.embedding, built.embeddings[i])

    def test_slices_are_pools_that_read_like_list_slices(self):
        _, pool = self.pool()
        whole = [fields(c) for c in pool]
        for s in (slice(None, 3), slice(2, None), slice(None, None, 2), slice(-3, None),
                  slice(5, 2), slice(None, 100)):
            part = pool[s]
            assert isinstance(part, Pool)
            assert [fields(c) for c in part] == whole[s]
        assert not pool[5:2]
        # A Pool is not a sequence of candidates: an integer index is refused.
        for i in (0, -1, np.int64(2), 7):
            with pytest.raises(TypeError):
                pool[i]

    def test_iteration_builds_each_candidate_on_read(self):
        _, pool = self.pool()
        first, again = list(pool), list(pool)
        assert [fields(c) for c in first] == [fields(c) for c in again]
        assert all(a is not b for a, b in zip(first, again))

    def test_labels_read_without_candidates(self):
        _, pool = self.pool()
        labels = [c.label for c in pool]
        assert pool.labels() == labels
        for stop in (0, 3, 100):
            assert pool.labels(stop) == labels[:stop]
        assert pool[2:].labels(2) == labels[2:4]
        for shortlist in (0, 2, 9):
            assert candidate_labels(["q"], pool, shortlist) == candidate_labels(
                ["q"], Pool.from_candidates(list(pool)), shortlist
            )

    def test_arrays_are_read_only(self):
        _, pool = self.pool()
        for arr in (pool.relevance, pool.embeddings, pool.rank, pool[:3].vec_score):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_from_candidates_keeps_duplicate_ids_in_index_order(self):
        cands = [
            make_candidate(eid, lab, (1.0, float(i)), 0.5)
            for i, (eid, lab) in enumerate((("b", "x"), ("a", "y"), ("b", "x"), ("a", "w")))
        ]
        pool = Pool.from_candidates(cands)
        assert pool.rank.tolist() == [2, 0, 3, 1]
        assert pool.label_codes.tolist() == [0, 1, 0, 2]
        assert [fields(c) for c in pool] == [fields(c) for c in cands]

    def test_from_candidates_rejects_mixed_shapes_and_accepts_none(self):
        with pytest.raises(DimensionError):
            Pool.from_candidates(
                [make_candidate("a", "x", (1.0, 0.0), 0.5), make_candidate("b", "x", (1.0, 0.0, 0.0), 0.5)]
            )
        empty = Pool.from_candidates([])
        assert len(empty) == 0 and list(empty) == []
        with pytest.raises(SelectionError):
            topk_select(empty, 1)

    def test_pool_file_round_trip(self, tmp_path):
        _, pool = self.pool()
        path = tmp_path / "pool.jsonl"
        write_pool(pool, path)
        back = read_pool(path)
        assert isinstance(back, Pool)
        assert [fields(c) for c in back] == [fields(c) for c in pool]
        for name in ("embeddings", "relevance", "vec_score", "lex_score", "bm25_raw"):
            assert np.array_equal(getattr(back, name), getattr(pool, name))
        assert np.array_equal(np.argsort(back.rank), np.argsort(pool.rank))


class TestSelectedSetKeepsRows:
    def test_no_candidate_is_built(self, monkeypatch):
        """A selection keeps pool rows. With `Pool.__iter__` raising, every
        selector runs and its ids, labels and pairs are read from the pool's
        columns; a pipeline query of each method, with its invariant checks,
        and a fairness-suite instance complete too."""
        mem, corpus = synth_corpus(8, 6, 0.6, seed=5, dim=16, instances=2)
        inst = corpus[0]
        pool = retrieve_pool(mem, inst.dialogue.current_embedding, inst.dialogue.current,
                             RetrievalConfig(pool_size=16))

        def no_candidates(self):
            raise AssertionError("a Candidate was built")

        monkeypatch.setattr(Pool, "__iter__", no_candidates)
        cfg = SelectionConfig(k=4, tau=-1.0)
        results = [
            greedy_select(pool, cfg), topk_select(pool, 4), mmr_select(pool, 4, 0.5),
            fps_select(pool, 4), random_select(pool, 4, 3), brute_force_select(pool, cfg),
        ]
        for r in results:
            sources = pool.rows[r.rows].tolist()
            assert r.ids() == [mem.ids[i] for i in sources]
            assert r.labels() == [mem.labels[i] for i in sources]
            assert r.pairs() == [(mem.texts[i], mem.labels[i]) for i in sources]
        for method in harness.METHODS:
            config = harness.ExperimentConfig(method=method)
            result = harness.run_pipeline(inst, config, mem, harness.instance_verifier(inst, config, 0))
            harness.verify_run_invariants(result, config, inst)
        harness.fairness_suite(mem, [inst], harness.ExperimentConfig())


class TestRowNorms:
    """A pool carries its rows' norms, gathered from the memory's, and the
    selectors' unit rows divide by them. A row's norm does not depend on the
    rows it is taken with, so the unit rows equal a fresh normalization of
    the pool's embeddings bit for bit: a numpy whose row reduction did depend
    on them fails here rather than as a changed golden digest."""

    @pytest.fixture(scope="class")
    def memory_1k(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("norms") / "mem.divmem"
        persist(synth_corpus(50, 20, 0.6, seed=1, instances=1)[0], path)
        return load(path)

    def test_memory_norms_are_the_unit_check_norms(self, memory_1k):
        assert np.array_equal(memory_1k.row_norms,
                              np.linalg.norm(memory_1k.embedding_matrix, axis=1))
        assert not memory_1k.row_norms.flags.writeable

    def test_gathered_norms_equal_fresh_norms(self, memory_1k):
        rng = np.random.default_rng(0)
        for size in (6, 128, 1000):
            for _ in range(20):
                rows = rng.choice(len(memory_1k), size, replace=False)
                assert np.array_equal(memory_1k.row_norms[rows],
                                      np.linalg.norm(memory_1k.embedding_matrix[rows], axis=1))

    def test_unit_rows_of_every_pool_kind_equal_a_fresh_normalization(self, memory_1k):
        rng = np.random.default_rng(1)
        for size in (6, 128, 1000):
            z = rng.normal(size=memory_1k.dim)
            pool = retrieve_pool(memory_1k, z, "", RetrievalConfig(pool_size=size))
            for built in (pool, pool[: size // 2], pool[1::3], Pool.from_candidates(list(pool))):
                fresh = np.linalg.norm(built.embeddings, axis=1, keepdims=True)
                assert np.array_equal(built.row_norms, fresh[:, 0])
                assert np.array_equal(_unit_rows(built), built.embeddings / fresh)

    def test_bad_rows_raise_as_without_norms(self):
        """A non-finite or zero row raises; so does a finite row whose squares
        overflow, as its norm is infinite too and it has no unit row."""

        def pool(*rows):
            return Pool.from_candidates(
                Candidate(f"e{i}", "t", f"l{i}", np.array(r), 0.5, 0.5, 0.0, 0.0)
                for i, r in enumerate(rows)
            )

        for bad, message in (([np.inf, 0.0], "non-finite"), ([np.nan, 1.0], "non-finite"),
                             ([0.0, 0.0], "zero")):
            with pytest.raises(DimensionError, match=message):
                topk_select(pool([1.0, 0.0], bad), 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflow is kept as an inf norm, not warned
            overflow = pool([1e200, 1e200], [0.0, 1.0])
        assert np.isinf(overflow.row_norms[0])
        with pytest.raises(DimensionError, match="non-finite norm"):
            topk_select(overflow, 2)


class TestArgmax:
    @staticmethod
    def pick(cand, first, *rest):
        """The pool index `_argmax` picks, `first` given over the pool."""
        return int(cand[_argmax(cand, first[cand], *rest)])

    def test_ties_break_on_later_keys_within_the_candidates(self):
        first = np.array([3.0, 5.0, 5.0, 5.0, 1.0])
        second = np.array([9.0, 2.0, 4.0, 4.0, 9.0])
        last = np.array([0, -1, -2, -3, -4])
        assert self.pick(np.arange(5), first, second, last) == 2
        assert self.pick(np.array([0, 3, 4]), first, second, last) == 3
        assert self.pick(np.array([0, 4]), first, second, last) == 0
        assert self.pick(np.array([4]), first, second, last) == 4

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12), n_keys=st.integers(1, 3))
    def test_matches_the_tuple_maximum(self, data, n, n_keys):
        keys = [np.array(data.draw(st.lists(st.sampled_from([-1.0, 0.0, 2.0, np.inf]),
                                            min_size=n, max_size=n)))
                for _ in range(n_keys - 1)]
        keys.append(-np.array(data.draw(st.permutations(range(n)))))
        cand = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
        expected = max(cand.tolist(), key=lambda i: tuple(key[i] for key in keys))
        assert self.pick(cand, *keys) == expected
