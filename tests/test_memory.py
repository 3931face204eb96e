import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divsel.errors import (
    ConfigError,
    IngestError,
    MemoryFormatError,
    UnknownIdError,
    VersionMismatchError,
)
from divsel.memory import Exemplar, Memory, ingest, load, persist, tokenize


def rec(rid, text, label, emb):
    return {"id": rid, "text": text, "label": label, "embedding": emb}


def small_records():
    return [
        rec("e1", "need a taxi now", "taxi", [1.0, 0.0, 0.0, 0.0]),
        rec("e2", "cancel flight", "flight", [0.0, 1.0, 0.0, 0.0]),
        rec("e3", "book a hotel room", "hotel", [0.0, 0.0, 1.0, 0.0]),
    ]


class TestTokenize:
    def test_lowercase_and_punctuation_split(self):
        assert tokenize("Book a Taxi, now!") == ["book", "a", "taxi", "now"]

    def test_underscore_is_a_delimiter(self):
        assert tokenize("not_mentioned") == ["not", "mentioned"]

    def test_pure(self):
        text = "Mixed CASE; with-punct 123"
        assert tokenize(text) == tokenize(text)


class TestIngest:
    def test_basic_build(self):
        mem = ingest(small_records())
        assert len(mem) == 3
        assert mem.dim == 4
        assert sum(len(ids) for ids in mem.label_index.values()) == 3

    def test_renormalizes_embeddings(self):
        mem = ingest([rec("e1", "a", "x", [2.0, 0.0, 0.0, 0.0])])
        assert abs(np.linalg.norm(mem.get("e1").embedding) - 1.0) <= 1e-6

    def test_duplicate_id_rejected(self):
        rows = [rec("e1", "a", "x", [1.0, 0.0]), rec("e1", "b", "y", [0.0, 1.0])]
        with pytest.raises(IngestError, match="duplicate"):
            ingest(rows)

    def test_dimension_mismatch_names_offender(self):
        rows = [rec("e1", "a", "x", [1.0, 0.0]), rec("e2", "b", "y", [0.0, 1.0, 0.0])]
        with pytest.raises(IngestError, match="e2"):
            ingest(rows)

    def test_empty_stream_rejected(self):
        with pytest.raises(IngestError, match="empty"):
            ingest([])

    def test_empty_label_rejected(self):
        with pytest.raises(IngestError, match="label"):
            ingest([rec("e1", "a", "", [1.0, 0.0])])

    def test_zero_norm_rejected(self):
        with pytest.raises(IngestError, match="zero norm"):
            ingest([rec("e1", "a", "x", [0.0, 0.0])])

    def test_non_finite_rejected(self):
        with pytest.raises(IngestError, match="non-finite"):
            ingest([rec("e1", "a", "x", [float("nan"), 0.0])])

    def test_constructor_rejects_duplicate_ids(self):
        emb = np.array([1.0, 0.0])
        exemplars = (Exemplar("e1", "a", "x", emb), Exemplar("e1", "b", "y", emb))
        with pytest.raises(IngestError, match="duplicate exemplar id 'e1'"):
            Memory(exemplars, k1=1.2, b=0.75)

    @pytest.mark.parametrize(
        "label, k1, b, message",
        [
            ("x", float("nan"), 0.75, "k1"),
            ("x", float("inf"), 0.75, "k1"),
            ("x", -5.0, 0.75, "k1"),
            ("x", 1.2, 7.0, "b must be"),
            ("x", 1.2, -0.1, "b must be"),
            ("x", 1.2, float("nan"), "b must be"),
            ("", 1.2, 0.75, "empty label"),
        ],
    )
    def test_constructor_rejects_bad_bm25_knobs_and_empty_labels(self, label, k1, b, message):
        exemplars = (Exemplar("e1", "a", label, np.array([1.0, 0.0])),)
        with pytest.raises(IngestError, match=message):
            Memory(exemplars, k1=k1, b=b)


class TestBm25:
    def test_no_overlap_scores_zero(self):
        mem = ingest(small_records())
        assert mem.bm25_score("refund order", "e2") == 0.0

    def test_matches_textbook_okapi(self):
        """Independent computation of the standard Okapi formula with
        idf = ln(1 + (N - df + 0.5) / (df + 0.5)), k1=1.2, b=0.75."""
        mem = ingest(small_records())
        n_docs = 3
        df = 1  # "taxi" occurs in one document
        idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        tf, doc_len, avg_len = 1, 4, (4 + 2 + 4) / 3
        k1, b = 1.2, 0.75
        expected = idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * doc_len / avg_len))
        got = mem.bm25_score("taxi", "e1")
        assert got > 0
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_deterministic(self):
        mem = ingest(small_records())
        assert mem.bm25_score("need a room", "e3") == mem.bm25_score("need a room", "e3")

    def test_unknown_id(self):
        mem = ingest(small_records())
        with pytest.raises(UnknownIdError):
            mem.bm25_score("taxi", "nope")

    @given(extra=st.integers(min_value=1, max_value=6))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_term_frequency(self, extra):
        """Duplicating a matching query term's occurrences never lowers the score."""
        base = small_records()
        boosted = [dict(r) for r in base]
        boosted[0]["text"] = "need a taxi now" + " taxi" * extra
        low = ingest(base).bm25_score("taxi", "e1")
        high = ingest(boosted).bm25_score("taxi", "e1")
        assert high >= low


WORDS = ("taxi", "hotel", "book", "a", "room", "cancel", "flight", "now")


@st.composite
def bm25_cases(draw):
    """A memory over a small vocabulary (duplicate and empty texts allowed)
    and a query with repeated, unknown and no terms."""
    texts = draw(st.lists(st.lists(st.sampled_from(WORDS), max_size=6).map(" ".join),
                          min_size=1, max_size=12))
    if draw(st.booleans()):
        texts = texts + texts[: draw(st.integers(1, len(texts)))]
    query = draw(st.lists(st.sampled_from(WORDS + ("zebra", "QUEUE")), max_size=8))
    k1 = draw(st.sampled_from((0.0, 1.2, 2.0)))
    b = draw(st.sampled_from((0.0, 0.75, 1.0)))
    rows = [rec(f"e{i}", t, "x", [1.0, float(i)]) for i, t in enumerate(texts)]
    return ingest(rows, k1=k1, b=b), " ".join(query)


class TestBm25Parity:
    @given(case=bm25_cases())
    @settings(max_examples=150, deadline=None)
    def test_postings_scores_equal_scalar_oracle(self, case):
        """The scatter-add scores are bit-identical to the per-exemplar
        oracle, which re-tokenizes each exemplar's text."""
        mem, query = case
        oracle = np.array([mem.bm25_score(query, ex.id) for ex in mem.exemplars])
        assert np.array_equal(mem.bm25_scores(query), oracle)

    def test_every_document_frequency_matches_the_oracle(self):
        """Row i holds terms w0..w(i-1), so document frequencies run through
        1..n-1 and row lengths through 0..n-1; a vectorized log of the idf is
        off in the last bit for some of them."""
        n = 600
        rows = [rec(f"e{i}", " ".join(f"w{j}" for j in range(i)), "x", [1.0, 0.0])
                for i in range(n)]
        mem = ingest(rows)
        query = " ".join(f"w{j}" for j in range(n)) + " w7 w7 w300"
        oracle = np.array([mem.bm25_score(query, ex.id) for ex in mem.exemplars])
        assert np.array_equal(mem.bm25_scores(query), oracle)

    def test_repeated_query_term_counts_each_occurrence(self):
        mem = ingest(small_records())
        once = mem.bm25_scores("taxi")
        assert once[0] > 0
        assert np.array_equal(mem.bm25_scores("taxi taxi"), once + once)

    def test_empty_and_unknown_queries_score_zero(self):
        mem = ingest(small_records())
        for query in ("", "zebra", "!!"):
            assert np.array_equal(mem.bm25_scores(query), np.zeros(3))


class TestPersistence:
    def test_round_trip_reproduces_postings(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = [
            rec(f"e{i}", " ".join(rng.choice(WORDS, size=rng.integers(0, 7))), f"lab{i % 4}",
                list(rng.normal(size=4)))
            for i in range(60)
        ]
        mem = ingest(rows)
        path = tmp_path / "mem.divmem"
        persist(mem, path)
        loaded = load(path)
        assert loaded.vocab == mem.vocab
        for attr in ("post_docs", "post_tfs", "offsets", "norm"):
            assert np.array_equal(getattr(loaded, attr), getattr(mem, attr)), attr
        assert loaded.avg_doc_len == mem.avg_doc_len

    def test_load_rejects_duplicate_ids(self, tmp_path):
        mem = ingest(small_records())
        path = tmp_path / "mem.divmem"
        persist(mem, path)
        data = path.read_bytes()
        path.write_bytes(data.replace(b'"e2"', b'"e1"', 1))  # same length keeps the layout
        with pytest.raises(MemoryFormatError, match="duplicate exemplar id 'e1'"):
            load(path)

    @pytest.mark.parametrize(
        "field, value",
        [("dim", -1), ("dim", 0), ("dim", "4"), ("count", -1), ("count", 2.0),
         ("ids", 5), ("labels", [1, 2, 3]), ("texts", None), ("k1", [1]),
         ("k1", 10**400), ("b", "x"), ("k1", float("nan")), ("b", 7.0),
         ("labels", ["", "flight", "hotel"])],
    )
    def test_load_rejects_bad_header_fields(self, tmp_path, field, value):
        """Mistyped fields fail inside the header parse, out-of-range ones in
        the Memory constructor; both as MemoryFormatError."""
        mem = ingest(small_records())
        path = tmp_path / "mem.divmem"
        persist(mem, path)
        data = path.read_bytes()
        header_len = int.from_bytes(data[14:22], "little")
        header = json.loads(data[22 : 22 + header_len])
        blob = json.dumps({**header, field: value}).encode("utf-8")
        tail = data[22 + header_len :]
        path.write_bytes(data[:14] + len(blob).to_bytes(8, "little") + blob + tail)
        with pytest.raises(MemoryFormatError, match="corrupt memory"):
            load(path)

    def test_oversized_length_fails_before_reading(self, tmp_path):
        mem = ingest(small_records())
        path = tmp_path / "mem.divmem"
        persist(mem, path)
        data = bytearray(path.read_bytes())
        data[14:22] = (2**63).to_bytes(8, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(MemoryFormatError, match="truncated file while reading header"):
            load(path)

    def test_missing_file_raises_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot open"):
            load(tmp_path / "absent.divmem")

    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        rows = [
            rec(f"e{i}", f"utterance number {i} about topic {i % 5}", f"lab{i % 5}",
                list(rng.normal(size=8)))
            for i in range(100)
        ]
        mem = ingest(rows)
        path = tmp_path / "mem.divmem"
        persist(mem, path)
        loaded = load(path)
        assert len(loaded) == len(mem)
        assert loaded.dim == mem.dim
        assert np.array_equal(loaded.embedding_matrix, mem.embedding_matrix)
        for query in ("utterance topic", "number 3", "zzz"):
            for ex in mem.exemplars[:10]:
                assert loaded.bm25_score(query, ex.id) == mem.bm25_score(query, ex.id)

    def test_truncated_file_fails_loudly(self, tmp_path):
        mem = ingest(small_records())
        path = tmp_path / "mem.divmem"
        persist(mem, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 9])
        with pytest.raises(MemoryFormatError, match="truncated"):
            load(path)

    def test_version_mismatch(self, tmp_path):
        mem = ingest(small_records())
        path = tmp_path / "mem.divmem"
        persist(mem, path)
        data = bytearray(path.read_bytes())
        data[10:14] = (0).to_bytes(4, "little")  # patch version field to v0
        path.write_bytes(bytes(data))
        with pytest.raises(VersionMismatchError):
            load(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "mem.divmem"
        path.write_bytes(b"NOT-A-MEMORY-FILE")
        with pytest.raises(MemoryFormatError, match="magic"):
            load(path)
