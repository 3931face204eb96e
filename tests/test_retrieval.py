import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divsel import retrieval
from divsel.errors import ConfigError, DimensionError
from divsel.memory import Memory, ingest
from divsel.retrieval import (
    ExactScanIndex,
    RetrievalConfig,
    cosine,
    read_pool,
    retrieve_pool,
    write_pool,
)


class TestCosine:
    def test_identical(self):
        assert cosine(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 1.0

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_opposite(self):
        assert cosine(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == -1.0

    def test_scale_invariant_and_symmetric(self):
        rng = np.random.default_rng(0)
        u, v = rng.normal(size=5), rng.normal(size=5)
        np.testing.assert_allclose(cosine(u, v), cosine(3.7 * v, u), atol=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(DimensionError):
            cosine(np.zeros(3), np.ones(3))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            cosine(np.ones(3), np.ones(4))


def make_memory(rng, n=40, n_labels=5, dim=6):
    rows = []
    for i in range(n):
        v = rng.normal(size=dim)
        rows.append(
            {
                "id": f"e{i:03d}",
                "text": f"word{i % 7} word{i % 3} filler",
                "label": f"lab{i % n_labels}",
                "embedding": (v / np.linalg.norm(v)).tolist(),
            }
        )
    return ingest(rows)


class TestRetrievePool:
    def test_pool_size_and_order(self):
        rng = np.random.default_rng(1)
        mem = make_memory(rng)
        z = rng.normal(size=6)
        pool = retrieve_pool(mem, z, "word1 filler", RetrievalConfig(pool_size=10))
        assert len(pool) == 10
        rels = [c.relevance for c in pool]
        assert rels == sorted(rels, reverse=True)

    def test_pool_capped_at_memory_size(self):
        rng = np.random.default_rng(2)
        mem = make_memory(rng, n=8)
        pool = retrieve_pool(mem, rng.normal(size=6), "word1", RetrievalConfig(pool_size=50))
        assert len(pool) == 8

    def test_pure_vector_ranking_at_lambda_one(self):
        rng = np.random.default_rng(3)
        mem = make_memory(rng)
        z = rng.normal(size=6)
        pool = retrieve_pool(
            mem, z, "word1", RetrievalConfig(lambda_vec=1.0, pool_size=40)
        )
        vecs = [c.vec_score for c in pool]
        assert vecs == sorted(vecs, reverse=True)

    def test_pure_lexical_ranking_at_lambda_zero(self):
        rng = np.random.default_rng(4)
        mem = make_memory(rng)
        pool = retrieve_pool(
            mem, rng.normal(size=6), "word1 word2", RetrievalConfig(lambda_vec=0.0, pool_size=40)
        )
        raws = [c.bm25_raw for c in pool]
        assert raws == sorted(raws, reverse=True)

    def test_mixture_arithmetic(self):
        """relevance = lambda * normalized cosine + (1 - lambda) * normalized bm25."""
        norm_vec, norm_lex, lam = 0.8, 0.5, 0.6
        np.testing.assert_allclose(lam * norm_vec + (1 - lam) * norm_lex, 0.68, atol=1e-12)

    def test_relevance_recomputes_from_components(self):
        rng = np.random.default_rng(5)
        mem = make_memory(rng)
        cfg = RetrievalConfig(lambda_vec=0.7, pool_size=20)
        pool = retrieve_pool(mem, rng.normal(size=6), "word1 filler", cfg)
        for c in pool:
            rebuilt = cfg.lambda_vec * (c.vec_score + 1.0) / 2.0 + (1 - cfg.lambda_vec) * c.lex_score
            assert rebuilt == c.relevance

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        mem = make_memory(rng)
        z = rng.normal(size=6)
        cfg = RetrievalConfig(pool_size=15)
        a = retrieve_pool(mem, z, "word2", cfg)
        b = retrieve_pool(mem, z, "word2", cfg)
        assert [c.exemplar_id for c in a] == [c.exemplar_id for c in b]

    def test_monotone_in_vector_score(self):
        """Raising one candidate's cosine (all else fixed) never lowers its rank."""
        rng = np.random.default_rng(7)
        mem = make_memory(rng, n=20)
        cfg = RetrievalConfig(lambda_vec=0.6, pool_size=20)
        target = mem.get(mem.ids[4])
        base_pool = retrieve_pool(mem, rng.normal(size=6), "word1", cfg)
        base_rank = [c.exemplar_id for c in base_pool].index(target.id)
        boosted = retrieve_pool(mem, np.array(target.embedding), "word1", cfg)
        new_rank = [c.exemplar_id for c in boosted].index(target.id)
        assert new_rank <= base_rank

    def test_query_dimension_checked(self):
        rng = np.random.default_rng(8)
        mem = make_memory(rng)
        with pytest.raises(DimensionError):
            retrieve_pool(mem, rng.normal(size=5), "word1", RetrievalConfig())

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_query_rejected(self, bad):
        rng = np.random.default_rng(8)
        mem = make_memory(rng)
        z = rng.normal(size=6)
        z[2] = bad
        with pytest.raises(DimensionError, match="non-finite"):
            retrieve_pool(mem, z, "word1", RetrievalConfig())

    @pytest.mark.parametrize("pool_size", [4, 64])
    def test_query_whose_norm_overflows_rejected(self, pool_size):
        """A finite query whose squared norm overflows is refused, with no
        numpy warning, whether or not the pre-scan runs."""
        rng = np.random.default_rng(8)
        mem = make_memory(rng)
        with pytest.raises(DimensionError, match="too large to normalize"):
            retrieve_pool(mem, np.full(6, 1e300), "word1", RetrievalConfig(pool_size=pool_size))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            RetrievalConfig(lambda_vec=1.2)
        with pytest.raises(ConfigError):
            RetrievalConfig(pool_size=0)


@st.composite
def ranking_cases(draw):
    """A memory with many relevance ties (repeated embeddings and texts, ids
    whose string order differs from memory order) plus a retrieval config."""
    n = draw(st.integers(1, 30))
    n_vecs = draw(st.integers(1, 4))
    n_texts = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    vecs = rng.normal(size=(n_vecs, 3))
    ids = [f"e{i}" for i in rng.permutation(n)]  # "e10" sorts before "e9"
    rows = [
        {"id": ids[i], "text": f"word{i % n_texts} filler", "label": "x",
         "embedding": vecs[int(rng.integers(n_vecs))].tolist()}
        for i in range(n)
    ]
    cfg = RetrievalConfig(
        lambda_vec=draw(st.sampled_from((0.0, 0.5, 1.0))),
        pool_size=draw(st.integers(1, n + 3)),
    )
    query = draw(st.sampled_from(("word0", "word1 word1", "filler", "zebra")))
    return ingest(rows), vecs[0] + draw(st.sampled_from((0.0, 0.3))), query, cfg


def reference_pool(mem, z, query, cfg):
    """The oracle: every row scored exactly with one einsum over the whole
    matrix, then a full sort by (-relevance, id). Returns (rows, relevance)."""
    vec = np.clip(np.einsum("ij,j->i", mem.embedding_matrix, z / np.linalg.norm(z)), -1.0, 1.0)
    lex = mem.bm25_scores(query)
    vec = (vec + 1.0) / 2.0
    span = lex.max() - lex.min()
    lex = np.full_like(lex, 0.5) if span <= 1e-12 else (lex - lex.min()) / span
    rel = cfg.lambda_vec * vec + (1.0 - cfg.lambda_vec) * lex
    ids = mem.ids
    rows = sorted(range(len(mem)), key=lambda i: (-rel[i], ids[i]))[: cfg.pool_size]
    return rows, [float(rel[i]) for i in rows]


def assert_reference_pool(mem, z, query, cfg):
    rows, rel = reference_pool(mem, z, query, cfg)
    pool = retrieve_pool(mem, z, query, cfg)
    assert pool.rows.tolist() == rows
    assert pool.relevance.tolist() == rel


class TestRankingParity:
    @given(case=ranking_cases())
    @settings(max_examples=300, deadline=None)
    def test_pool_equals_full_sort_reference(self, case):
        """The float32 pre-scan, the exact scoring of its candidates and the
        partial rank return exactly the first pool_size items of a full exact
        scan sorted by (-relevance, id), ties at the threshold included, at
        lambda 0, 0.5 and 1 and at pool sizes below, at and above N."""
        assert_reference_pool(*case)

    def test_non_unit_rows_are_clipped_before_ranking(self):
        """Row "b" = [3, 4] has a dot product of 5 with the query and row "a" =
        [0, 2] one of 1.6; both clip to 1, so the tie goes to the smaller id.
        Ranking the pre-scan's unclipped values would keep only "b"."""
        mem = Memory(("b", "a"), ("x", "x"), ("l", "l"), np.array([[3.0, 4.0], [0.0, 2.0]]),
                     k1=1.2, b=0.75)
        for lam in (0.0, 0.5, 1.0):
            for size in (1, 2, 3):
                assert_reference_pool(mem, np.array([0.6, 0.8]), "x", RetrievalConfig(lam, size))
        pool = retrieve_pool(mem, np.array([0.6, 0.8]), "x", RetrievalConfig(1.0, 1))
        assert [c.exemplar_id for c in pool] == ["a"]

    def test_row_beyond_float32_scans_every_row_without_a_warning(self, monkeypatch):
        """A row entry of 1e39 is inf in the float32 copy; its memory's margin
        is not finite, so no pre-scan runs, and no numpy warning is raised
        (warnings are errors under this suite)."""
        matrix = np.array([[1e39, 0.0], [0.6, 0.8], [0.0, 1.0]])
        mem = Memory(("a", "b", "c"), ("x", "y", "z"), ("l", "l", "m"), matrix, k1=1.2, b=0.75)
        assert np.isinf(mem.embedding_matrix32[0, 0])
        assert np.array_equal(mem.embedding_matrix32[1:], matrix[1:].astype(np.float32))
        assert not mem.embedding_matrix32.flags.writeable
        assert retrieval._margin(mem.dim, mem.max_row_norm, 0.6) == float("inf")

        def no_scan(self, vector, weight):
            raise AssertionError("the pre-scan ran")

        monkeypatch.setattr(ExactScanIndex, "query", no_scan)
        for lam in (0.0, 0.5, 1.0):
            assert_reference_pool(mem, np.array([1.0, 1.0]), "y", RetrievalConfig(lam, 2))

    def test_margin_is_load_bearing(self, monkeypatch):
        """Rows "a" and "b" differ below float32's resolution at their size, so
        the pre-scan puts "b" first by about 7e-5 where the exact scan puts "a"
        first. With the proven margin the pool is the oracle's; with a margin
        of 0 the pre-scan drops "a" from the candidates and the pool leaves it."""
        h = 2.0 ** -12  # float32's spacing in [2048, 4096)
        matrix = np.array([[4000 + 0.49 * h, -3000 + 0.49 * h], [4000 + 0.51 * h, -3000.0]])
        mem = Memory(("a", "b"), ("x", "y"), ("l", "m"), matrix, k1=1.2, b=0.75)
        z, cfg = np.array([3.0, 4.0]), RetrievalConfig(lambda_vec=1.0, pool_size=1)
        rows, _ = reference_pool(mem, z, "q", cfg)
        assert rows == [0]
        assert_reference_pool(mem, z, "q", cfg)
        monkeypatch.setattr(retrieval, "_margin", lambda dim, max_norm, lam: 0.0)
        assert retrieve_pool(mem, z, "q", cfg).rows.tolist() == [1]

    def test_unit_rows_are_pruned_to_about_the_pool(self, monkeypatch):
        """On unit rows the margin is a few float32 roundoffs, so of 600 rows
        only about pool_size are scored exactly."""
        assert retrieval._margin(32, 1.0, 0.6) < 2e-6
        rng = np.random.default_rng(12)
        mem = make_memory(rng, n=600, dim=32)
        scored, exact = [], retrieval.similarities

        def spy(a, b):
            scored.append(len(a))
            return exact(a, b)

        monkeypatch.setattr(retrieval, "similarities", spy)
        for lam in (0.0, 0.5, 1.0):
            scored.clear()
            assert_reference_pool(mem, rng.normal(size=32), "word1 filler",
                                  RetrievalConfig(lambda_vec=lam, pool_size=20))
            assert 20 <= scored[0] < 100, scored


class TestIndexBoundary:
    def test_exact_scan_rejects_zero_query(self):
        rng = np.random.default_rng(11)
        mem = make_memory(rng)
        with pytest.raises(DimensionError):
            ExactScanIndex(mem).query(np.zeros(6), 0.5)


class TestPoolIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        mem = make_memory(rng)
        pool = retrieve_pool(mem, rng.normal(size=6), "word1", RetrievalConfig(pool_size=12))
        path = tmp_path / "pool.jsonl"
        write_pool(pool, path)
        back = read_pool(path)
        assert len(back) == len(pool)
        for a, b in zip(pool, back):
            assert a.exemplar_id == b.exemplar_id
            assert a.relevance == b.relevance
            assert np.array_equal(a.embedding, b.embedding)
