import json
import math
import warnings

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
from divsel import memory as memory_module
from divsel.memory import Memory, Postings, ingest, load, persist, tokenize


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

    def test_overflowing_norm_rejected_without_a_warning(self):
        """Finite entries whose squares overflow are refused, naming the
        exemplar, instead of being stored as a zero row."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IngestError, match="exemplar 'e1' embedding norm overflows"):
                ingest([rec("e1", "a", "x", [1e300, 1e300])])

    def test_constructor_rejects_duplicate_ids(self):
        with pytest.raises(IngestError, match="duplicate exemplar id 'e1'"):
            Memory(("e1", "e1"), ("a", "b"), ("x", "y"), np.eye(2), k1=1.2, b=0.75)

    @pytest.mark.parametrize(
        "ids, texts, labels, rows, message",
        [
            (("e1", "e2"), ("a",), ("x", "y"), 2, "columns disagree"),
            (("e1", "e2"), ("a", "b"), ("x", "y", "z"), 2, "columns disagree"),
            (("e1", "e2"), ("a", "b"), ("x", "y"), 3, "shape \\(3, 2\\)"),
            (("e1", "e2"), ("a", "b"), ("x", "y"), 1, "shape \\(1, 2\\)"),
            (("e1",), ("a",), ("x",), None, "shape \\(2,\\)"),
        ],
    )
    def test_constructor_rejects_columns_of_unequal_length(self, ids, texts, labels, rows, message):
        """Every column and the matrix's row count must agree; a flat vector
        is not a matrix."""
        matrix = np.array([1.0, 0.0]) if rows is None else np.eye(rows, 2)
        with pytest.raises(IngestError, match=message):
            Memory(ids, texts, labels, matrix, k1=1.2, b=0.75)

    def test_constructor_takes_row_norms_of_one_per_row(self):
        """Row norms are taken when not given and checked for shape when
        given."""
        matrix = np.array([[3.0, 4.0], [0.0, 2.0]])
        mem = Memory(("e1", "e2"), ("a", "b"), ("x", "y"), matrix, k1=1.2, b=0.75)
        assert mem.row_norms.tolist() == [5.0, 2.0] and not mem.row_norms.flags.writeable
        with pytest.raises(IngestError, match=r"\(3,\) row norms given for 2 rows"):
            Memory(("e1", "e2"), ("a", "b"), ("x", "y"), matrix, k1=1.2, b=0.75,
                   row_norms=np.ones(3))

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
        with pytest.raises(IngestError, match=message):
            Memory(("e1",), ("a",), (label,), np.array([[1.0, 0.0]]), k1=k1, b=b)


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
        """The postings scores are bit-identical to the per-exemplar
        oracle, which re-tokenizes each exemplar's text."""
        mem, query = case
        oracle = np.array([mem.bm25_score(query, eid) for eid in mem.ids])
        assert mem.bm25_scores(query).tobytes() == oracle.tobytes()

    def test_every_document_frequency_matches_the_oracle(self):
        """Row i holds terms w0..w(i-1), so document frequencies run through
        1..n-1 and row lengths through 0..n-1; a vectorized log of the idf is
        off in the last bit for some of them."""
        n = 600
        rows = [rec(f"e{i}", " ".join(f"w{j}" for j in range(i)), "x", [1.0, 0.0])
                for i in range(n)]
        mem = ingest(rows)
        query = " ".join(f"w{j}" for j in range(n)) + " w7 w7 w300"
        oracle = np.array([mem.bm25_score(query, eid) for eid in mem.ids])
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

    @pytest.mark.parametrize("query", [
        "taxi flight taxi a taxi",  # repeated terms, one of them in two rows
        "zebra unicorn",  # only unknown terms
        "",  # no term at all
        "common",  # a term in every row
        "hotel",  # a term in exactly one row
        "room common zebra a common",  # known, unknown and repeated mixed
    ])
    def test_scores_equal_the_oracle_bit_for_bit(self, query):
        """The one-bincount scores equal the scalar oracle's bytes on every
        row, and a query without a known term gives N zeros."""
        texts = ["need a taxi now common", "cancel flight common taxi taxi",
                 "book a hotel room common", "common", "nothing shared here common"]
        mem = ingest([rec(f"e{i}", t, "x", [1.0, float(i)]) for i, t in enumerate(texts)])
        scores = mem.bm25_scores(query)
        oracle = np.array([mem.bm25_score(query, eid) for eid in mem.ids])
        assert scores.dtype == np.float64 and scores.shape == (len(texts),)
        assert scores.tobytes() == oracle.tobytes()
        if not any(t in mem.vocab for t in tokenize(query)):
            assert scores.tobytes() == np.zeros(len(texts)).tobytes()


class TestPersistence:
    def test_round_trip_reproduces_postings(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = [
            rec(f"e{i}", " ".join(rng.choice(WORDS, size=rng.integers(0, 7))), f"lab{i % 4}",
                rng.normal(size=4).tolist())
            for i in range(60)
        ]
        mem = ingest(rows)
        path = tmp_path / "mem.divmem"
        persist(mem, path)
        loaded = load(path)
        assert loaded.vocab == mem.vocab
        for attr in ("post_docs", "post_tfs", "post_weights", "offsets", "norm"):
            assert np.array_equal(getattr(loaded, attr), getattr(mem, attr)), attr
        assert loaded.avg_doc_len == mem.avg_doc_len
        # The loaded memory scores every query bit for bit as the ingested one.
        for query in (" ".join(rng.choice(WORDS, size=6)) for _ in range(20)):
            assert loaded.bm25_scores(query).tobytes() == mem.bm25_scores(query).tobytes()

    def test_loaded_memory_holds_one_embedding_buffer(self, tmp_path):
        """Every exemplar read from a loaded memory views the one matrix the
        file was read into; nothing is re-stacked."""
        mem = ingest(small_records())
        path = tmp_path / "mem.divmem"
        persist(mem, path)
        loaded = load(path)
        matrix = loaded.embedding_matrix
        assert matrix.dtype == np.float64 and matrix.dtype.isnative
        assert not matrix.flags.writeable
        assert matrix.base is not None and matrix.base.nbytes == len(mem) * mem.dim * 8
        for eid in mem.ids:
            ex, orig = loaded.get(eid), mem.get(eid)
            assert np.shares_memory(matrix, ex.embedding)
            assert not ex.embedding.flags.writeable
            assert (ex.id, ex.text, ex.label) == (orig.id, orig.text, orig.label)
            assert np.array_equal(ex.embedding, orig.embedding)
        assert np.array_equal(matrix, mem.embedding_matrix)

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
         ("labels", ["", "flight", "hotel"]), ("vocab", ["need", "a"]), ("vocab", None),
         ("texts", ["need a taxi", "lone \ud800", "book"])],
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
                rng.normal(size=8).tolist())
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
            for eid in mem.ids[:10]:
                assert loaded.bm25_score(query, eid) == mem.bm25_score(query, eid)

    def test_truncated_file_fails_loudly(self, tmp_path):
        mem = ingest(small_records())
        path = tmp_path / "mem.divmem"
        persist(mem, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 9])
        with pytest.raises(MemoryFormatError, match="truncated"):
            load(path)

    def test_overflowing_stored_norm_refused_without_a_warning(self, tmp_path):
        mem = ingest(small_records())
        path = tmp_path / "mem.divmem"
        persist(mem, path)
        data = path.read_bytes()
        row = mem.get("e1").embedding.astype("<f8").tobytes()
        path.write_bytes(data.replace(row, np.array([1e300, 1e300, 0.0, 0.0], "<f8").tobytes(), 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MemoryFormatError, match="not unit vectors"):
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

    def test_v1_file_must_be_rebuilt(self, tmp_path):
        """Format 1 stored no postings; no reader for it is kept."""
        mem = ingest(small_records())
        path = tmp_path / "mem.divmem"
        persist(mem, path)
        data = bytearray(path.read_bytes())
        data[10:14] = (1).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(VersionMismatchError, match="version 1 unsupported.*rebuild"):
            load(path)


def _split(data: bytes) -> tuple[dict, int]:
    """A memory file's header and the offset of its first postings byte."""
    header_len = int.from_bytes(data[14:22], "little")
    header = json.loads(data[22 : 22 + header_len])
    return header, 22 + header_len + header["count"] * header["dim"] * 8


def _rewrite(path, terms, offsets, docs, tfs, postings=None) -> None:
    """Replace a persisted memory's postings sections (and the header fields
    naming them) with the given ones, the rest of the file kept."""
    data = path.read_bytes()
    header, start = _split(data)
    blob = json.dumps({**header, "vocab": " ".join(terms),
                       "postings": len(docs) if postings is None else postings}).encode("utf-8")
    matrix = data[start - header["count"] * header["dim"] * 8 : start]
    path.write_bytes(
        data[:14] + len(blob).to_bytes(8, "little") + blob + matrix
        + np.asarray(offsets, "<i8").tobytes() + np.asarray(docs, "<i4").tobytes()
        + np.asarray(tfs, "<i4").tobytes()
    )


def _postings(mem: Memory) -> tuple[list, list, list, list]:
    return list(mem.vocab), mem.offsets.tolist(), mem.post_docs.tolist(), mem.post_tfs.tolist()


def _set(values: list, index: int, value) -> list:
    out = list(values)
    out[index] = value
    return out


class TestStoredPostings:
    """Format 2 stores the postings; a load reads them and never tokenizes."""

    def test_load_never_tokenizes(self, tmp_path, monkeypatch):
        mem = ingest(small_records())
        path = tmp_path / "mem.divmem"
        persist(mem, path)

        def refuse(text):
            raise AssertionError("load tokenized a text")

        monkeypatch.setattr(memory_module, "tokenize", refuse)
        loaded = load(path)
        monkeypatch.undo()
        assert loaded.vocab == mem.vocab
        assert loaded.bm25_scores("need a taxi").tobytes() == mem.bm25_scores("need a taxi").tobytes()

    def test_stored_postings_score_as_the_texts_do(self, tmp_path):
        """The scalar oracle tokenizes the loaded texts itself, so this ties
        the postings read from the file to the texts stored beside them."""
        rng = np.random.default_rng(11)
        rows = [
            rec(f"e{i}", " ".join(rng.choice(WORDS + ("Taxi!", "a_room"), size=rng.integers(0, 9))),
                f"lab{i % 3}", rng.normal(size=3).tolist())
            for i in range(40)
        ]
        path = tmp_path / "mem.divmem"
        persist(ingest(rows), path)
        loaded = load(path)
        queries = ["", "zebra", "taxi taxi room", "A room, now!"]
        queries += [" ".join(rng.choice(WORDS, size=5)) for _ in range(15)]
        for query in queries:
            scores = loaded.bm25_scores(query)
            for i, eid in enumerate(loaded.ids):
                assert scores[i] == loaded.bm25_score(query, eid), (query, eid)

    def test_memory_without_tokens_round_trips(self, tmp_path):
        mem = ingest([rec("e1", "", "x", [1.0, 0.0]), rec("e2", "!?", "y", [0.0, 1.0])])
        path = tmp_path / "mem.divmem"
        persist(mem, path)
        loaded = load(path)
        assert loaded.vocab == {} and len(loaded.post_docs) == 0
        assert np.array_equal(loaded.bm25_scores("anything"), np.zeros(2))

    def test_constructor_takes_given_postings_and_checks_their_shapes(self):
        mem = ingest(small_records())
        terms, offsets, docs, tfs = _postings(mem)
        columns = (mem.ids, mem.texts, mem.labels, mem.embedding_matrix)
        given = Memory(*columns, k1=1.2, b=0.75, postings=Postings(
            terms, np.array(offsets), np.array(docs, np.int32), np.array(tfs, np.int32)))
        assert given.vocab == mem.vocab
        assert given.post_weights.tobytes() == mem.post_weights.tobytes()
        short = Postings(terms, np.array(offsets[:-1]), np.array(docs, np.int32),
                         np.array(tfs, np.int32))
        with pytest.raises(IngestError, match="postings shapes disagree"):
            Memory(*columns, k1=1.2, b=0.75, postings=short)

    # small_records' postings: terms need a taxi now cancel flight book hotel
    # room; offsets [0 1 3 4 5 6 7 8 9 10]; rows [0 0 2 0 0 1 1 2 2 2]
    # ("a" holds rows 0 and 2); every term frequency 1.
    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda t, o, d, f: (t, _set(o, 0, 1), d, f), "offsets start at 1, not at 0"),
            (lambda t, o, d, f: (t, _set(o, 2, 0), d, f), "offsets decrease"),
            (lambda t, o, d, f: (t, _set(o, -1, 9), d, f),
             "offsets end at 9, not at the postings count 10"),
            (lambda t, o, d, f: (t, o, _set(d, 0, 3), f), "row is outside \\[0, 3\\)"),
            (lambda t, o, d, f: (t, o, _set(d, 0, -1), f), "row is outside \\[0, 3\\)"),
            (lambda t, o, d, f: (t, o, d[:1] + [2, 0] + d[3:], f),
             "not strictly ascending within a term"),
            (lambda t, o, d, f: (t, o, _set(d, 2, 0), f), "not strictly ascending within a term"),
            (lambda t, o, d, f: (t, o, d, _set(f, 4, 0)), "term frequency is below 1"),
            (lambda t, o, d, f: (t, o, d, _set(f, 4, -3)), "term frequency is below 1"),
            (lambda t, o, d, f: (_set(t, 3, "need"), o, d, f), "vocabulary repeats a term"),
        ],
        ids=["offsets-start", "offsets-decrease", "offsets-end", "row-too-large", "row-negative",
             "rows-descend", "row-repeated", "tf-zero", "tf-negative", "term-repeated"],
    )
    def test_load_rejects_malformed_postings(self, tmp_path, mutate, message):
        mem = ingest(small_records())
        assert _postings(mem)[1:] == ([0, 1, 3, 4, 5, 6, 7, 8, 9, 10],
                                      [0, 0, 2, 0, 0, 1, 1, 2, 2, 2], [1] * 10)
        path = tmp_path / "mem.divmem"
        persist(mem, path)
        _rewrite(path, *mutate(*_postings(mem)))
        with pytest.raises(MemoryFormatError, match=f"corrupt memory: .*{message}"):
            load(path)

    def test_rows_may_fall_between_terms(self, tmp_path):
        """Only rows within one term must rise; the unmutated postings above
        fall from "a"'s row 2 to "taxi"'s row 0, and from a term to an empty
        one and on."""
        mem = ingest(small_records())
        path = tmp_path / "mem.divmem"
        persist(mem, path)
        terms, offsets, docs, tfs = _postings(mem)
        _rewrite(path, terms + ["zebra"], offsets + [offsets[-1]], docs, tfs)
        loaded = load(path)
        assert loaded.vocab["zebra"] == len(terms)
        assert np.array_equal(loaded.bm25_scores("zebra taxi"), mem.bm25_scores("taxi"))

    @pytest.mark.parametrize(
        "count, message",
        [(-1, "postings count -1 must be an integer"),
         (True, "postings count True must be an integer"),
         (2**62, "truncated file while reading posting rows")],
    )
    def test_bad_postings_count_is_rejected_before_reading(self, tmp_path, count, message):
        """A negative or bool count fails in the header parse; one larger than
        the bytes left fails its read's bound check, before any allocation."""
        mem = ingest(small_records())
        path = tmp_path / "mem.divmem"
        persist(mem, path)
        _rewrite(path, *_postings(mem), postings=count)
        with pytest.raises(MemoryFormatError, match=message):
            load(path)
