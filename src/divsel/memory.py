"""Labeled exemplar memory: ingestion, Okapi BM25 lexical scoring, persistence.

BM25 statistics rest on CSR postings: a term -> id vocabulary, the (row, term
frequency) pairs of every term grouped by term id, and the offsets of each
term's group. Ingest builds them by tokenizing the texts once; the memory file
stores them, so a load never tokenizes. From the postings every memory derives
each row's length normalization and each posting's BM25 weight.
``Memory.bm25_scores`` scores a query by summing the weights of its terms'
postings per row in one weighted ``bincount``; ``Memory.bm25_score`` is the
scalar oracle it must match bit for bit, re-tokenizing one exemplar's text and
computing its idf and weights from scratch.

The memory is immutable after build; any number of readers may share it.
"""

from __future__ import annotations

import json
import math
import re
import struct
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import IngestError, MemoryFormatError, UnknownIdError, VersionMismatchError
from .files import (
    json_vector, one_dimension, open_input, open_output, parse_json, read_exact, read_unique_rows
)

MAGIC = b"DIVSEL-MEM"
FORMAT_VERSION = 2

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75

NORM_TOLERANCE = 1e-6

# Lowercase, split on whitespace and punctuation (underscore included), no stemming.
_TERM_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Deterministic lexical tokenization used for all BM25 statistics."""
    return _TERM_RE.findall(text.lower())


class Postings(NamedTuple):
    """CSR postings of a memory's texts. ``terms`` is the vocabulary in term-id
    order; the postings of term t are the rows ``docs[offsets[t]:offsets[t+1]]``,
    strictly ascending, with their term frequencies ``tfs`` at the same
    positions."""

    terms: Sequence[str]
    offsets: np.ndarray  # int64, len(terms) + 1
    docs: np.ndarray  # int32
    tfs: np.ndarray  # int32


def _build_postings(texts: Sequence[str]) -> Postings:
    """Tokenize every text once into its CSR postings.

    Term ids are assigned document by document, so no list of every token
    string is ever held; one sort of term*n + row then groups the postings by
    term with rows ascending and counts each (term, row).
    """
    vocab: dict[str, int] = {}
    term_id = vocab.setdefault
    term_ids, doc_lens = array("q"), array("q")
    for text in texts:
        terms = tokenize(text)
        doc_lens.append(len(terms))
        term_ids.extend([term_id(t, len(vocab)) for t in terms])
    n = len(texts)
    rows = np.repeat(np.arange(n, dtype=np.int64), np.frombuffer(doc_lens, dtype=np.int64))
    keys, tfs = np.unique(np.frombuffer(term_ids, dtype=np.int64) * n + rows, return_counts=True)
    offsets = np.zeros(len(vocab) + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=len(vocab)), out=offsets[1:])
    return Postings(tuple(vocab), offsets, (keys % n).astype(np.int32), tfs.astype(np.int32))


def _check_postings(postings: Postings, n: int) -> None:
    """Raise IngestError unless given postings are well formed for n rows; the
    one check not made here, that no term repeats, falls out of building the
    vocabulary."""
    offsets, docs, tfs = postings.offsets, postings.docs, postings.tfs
    count = len(docs)
    if offsets.shape != (len(postings.terms) + 1,) or docs.ndim != 1 or tfs.shape != docs.shape:
        raise IngestError(f"postings shapes disagree: {len(postings.terms)} terms, offsets "
                          f"{offsets.shape}, rows {docs.shape}, term frequencies {tfs.shape}")
    if offsets[0] != 0:
        raise IngestError(f"postings offsets start at {offsets[0]}, not at 0")
    if np.any(offsets[1:] < offsets[:-1]):
        raise IngestError("postings offsets decrease")
    if offsets[-1] != count:
        raise IngestError(f"postings offsets end at {offsets[-1]}, not at the postings count {count}")
    if count and not (docs.min() >= 0 and docs.max() < n):
        raise IngestError(f"a posting row is outside [0, {n})")
    # A repeated (term, row) pair would add its weight twice in `bm25_scores`,
    # so rows must rise strictly within a term; only a term's first row may not.
    rising = docs[1:] > docs[:-1]
    starts = offsets[1:-1]
    rising[starts[(starts > 0) & (starts < count)] - 1] = True
    if not rising.all():
        raise IngestError("posting rows are not strictly ascending within a term")
    if count and tfs.min() < 1:
        raise IngestError("a posting term frequency is below 1")


@dataclass(frozen=True)
class Exemplar:
    """One labeled memory item: utterance text, intent label, unit embedding."""

    id: str
    text: str
    label: str
    embedding: np.ndarray


class Memory:
    """Built exemplar memory. Construct via :func:`ingest` or :func:`load`.

    Row i is ``ids[i]``, ``texts[i]``, ``labels[i]`` and the unit embedding
    ``embedding_matrix[i]``: three tuples and one read-only float64 matrix,
    each held once. :meth:`get` builds an :class:`Exemplar` on read.

    Lexical statistics are CSR postings (:class:`Postings`), built from the
    texts unless given, as :func:`load` gives them: ``vocab`` maps a term to
    its id, and the postings of term t are ``post_docs[offsets[t]:offsets[t+1]]``
    (ascending memory row) with term frequencies ``post_tfs`` and BM25
    weights ``post_weights`` at the same positions. ``norm`` holds each row's
    BM25 length normalization. Given postings are checked for structure, not
    against the texts.
    ``id_rank`` holds each row's rank in id order, ``label_codes`` each
    row's label code and ``row_norms`` each embedding row's L2 norm, taken
    unless given, as :func:`load` gives them (checked for shape, not against
    the matrix); retrieval builds its pools from them.
    ``embedding_matrix32`` is a read-only float32 copy of the matrix (N·d·4
    bytes, not persisted) and ``max_row_norm`` the largest row norm: the
    dense pass of retrieval's pre-scan and the bound on its error, so given
    norms must be the matrix's own, as load's are.
    """

    def __init__(self, ids: Sequence[str], texts: Sequence[str], labels: Sequence[str],
                 embeddings: np.ndarray, k1: float, b: float, postings: Postings | None = None,
                 row_norms: np.ndarray | None = None):
        ids, texts, labels = tuple(ids), tuple(texts), tuple(labels)
        n = len(ids)
        if not n:
            raise IngestError("cannot build a memory from zero exemplars")
        if not (len(texts) == len(labels) == n and embeddings.ndim == 2
                and embeddings.shape[0] == n):
            raise IngestError(f"columns disagree: {n} ids, {len(texts)} texts, {len(labels)} "
                              f"labels, embedding matrix of shape {embeddings.shape}")
        if not (math.isfinite(k1) and k1 >= 0.0):
            raise IngestError(f"k1 must be finite and >= 0, got {k1}")
        if not 0.0 <= b <= 1.0:
            raise IngestError(f"b must be in [0, 1], got {b}")
        self.ids, self.texts, self.labels = ids, texts, labels
        self.k1, self.b = float(k1), float(b)
        self.dim = int(embeddings.shape[1])
        self._index: dict[str, int] = {}
        for i, eid in enumerate(ids):
            if self._index.setdefault(eid, i) != i:
                raise IngestError(f"duplicate exemplar id {eid!r}")

        label_index: dict[str, list[str]] = {}
        for eid, label in zip(ids, labels):
            label_index.setdefault(label, []).append(eid)
        if "" in label_index:
            raise IngestError(f"exemplar {label_index[''][0]!r} has an empty label")
        self.label_index = {k: tuple(v) for k, v in label_index.items()}

        # Per-row order and label keys for array-native pools: each row's rank
        # in id order (ids are unique, so ranks are too; a Python sort keeps
        # ids that differ only in trailing NULs apart, which numpy strings do
        # not), and each row's label code, numbered in first-seen order.
        self.id_rank = np.empty(n, dtype=np.int64)
        self.id_rank[sorted(range(n), key=ids.__getitem__)] = np.arange(n)
        code = {label: c for c, label in enumerate(label_index)}
        self.label_codes = np.fromiter(map(code.__getitem__, labels), np.int64, n)

        if postings is None:
            postings = _build_postings(texts)
        else:
            _check_postings(postings, n)
        terms, self.offsets, self.post_docs, self.post_tfs = postings
        self.vocab = dict(zip(terms, range(len(terms))))
        if len(self.vocab) != len(terms):
            raise IngestError("postings vocabulary repeats a term")
        # Row lengths are the sums of their term frequencies (exact in float64).
        # A memory without a single token scores every query 0; the floor of
        # one token only keeps the normalization finite.
        lengths = np.bincount(self.post_docs, weights=self.post_tfs, minlength=n)
        self.avg_doc_len = max(int(lengths.sum()), 1) / n
        self.norm = self.k1 * (1.0 - self.b + self.b * lengths / self.avg_doc_len)
        # Each posting's weight idf * tf * (k1 + 1) / (tf + norm[row]), in the
        # order of operations of `bm25_score`. The idf is taken per term with
        # math.log, once per distinct document frequency: numpy's vectorized
        # log differs from it in the last bit.
        df = np.diff(self.offsets)
        dfs, term_df = np.unique(df, return_inverse=True)
        idf = np.array([math.log(1.0 + (n - d + 0.5) / (d + 0.5)) for d in dfs.tolist()])
        self.post_weights = (np.repeat(idf[term_df], df) * self.post_tfs * (self.k1 + 1.0)
                             / (self.post_tfs + self.norm[self.post_docs]))
        # The matrix is kept as given (load's file view, ingest's one stack).
        self.embedding_matrix = embeddings
        if row_norms is None:
            row_norms = np.linalg.norm(embeddings, axis=1)
        elif row_norms.shape != (n,):
            raise IngestError(f"{row_norms.shape} row norms given for {n} rows")
        self.row_norms = row_norms
        self.max_row_norm = float(row_norms.max())
        # Retrieval's pre-scan reads this float32 copy, half the matrix's
        # bytes. An entry beyond float32's range becomes inf; retrieval never
        # pre-scans a memory with rows that large, and numpy need not warn.
        with np.errstate(over="ignore"):
            self.embedding_matrix32 = embeddings.astype(np.float32)
        for arr in (self.post_docs, self.post_tfs, self.post_weights, self.offsets, self.norm,
                    self.id_rank, self.label_codes, embeddings, self.row_norms,
                    self.embedding_matrix32):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.ids)

    def _row(self, exemplar_id: str) -> int:
        try:
            return self._index[exemplar_id]
        except KeyError:
            raise UnknownIdError(f"no exemplar with id {exemplar_id!r}") from None

    def get(self, exemplar_id: str) -> Exemplar:
        """The exemplar of an id, its embedding a read-only row of the matrix."""
        i = self._row(exemplar_id)
        return Exemplar(self.ids[i], self.texts[i], self.labels[i], self.embedding_matrix[i])

    def _idf(self, term_id: int) -> float:
        df = int(self.offsets[term_id + 1] - self.offsets[term_id])
        n = len(self.ids)
        return math.log(1.0 + (n - df + 0.5) / (df + 0.5))

    def bm25_score(self, query_text: str, exemplar_id: str) -> float:
        """Okapi BM25 score of one exemplar against a raw query string.

        The scalar reference for :meth:`bm25_scores`: it re-tokenizes the
        exemplar's text instead of reading the postings. Zero when no query
        term occurs in the exemplar text.
        """
        counts = Counter(tokenize(self.texts[self._row(exemplar_id)]))
        dl = sum(counts.values())
        norm = self.k1 * (1.0 - self.b + self.b * dl / self.avg_doc_len)
        score = 0.0
        for term in tokenize(query_text):
            tf = counts.get(term, 0)
            if tf == 0:
                continue
            score += self._idf(self.vocab[term]) * tf * (self.k1 + 1.0) / (tf + norm)
        return score

    def bm25_scores(self, query_text: str) -> np.ndarray:
        """BM25 scores of every exemplar against the query, in memory order.

        Concatenates the postings of the query's known terms, a repeated term
        once per occurrence and in query order, and sums their weights per
        row in one weighted ``bincount``. It adds in input order from 0.0 and
        a term names each row at most once, so every row adds its terms' weights
        in query order and its score is bit-identical to :meth:`bm25_score`.
        """
        n = len(self.ids)
        offsets, vocab = self.offsets, self.vocab
        spans = [slice(offsets[t], offsets[t + 1])
                 for t in map(vocab.get, tokenize(query_text)) if t is not None]
        if not spans:
            return np.zeros(n, dtype=np.float64)
        docs = np.concatenate([self.post_docs[s] for s in spans])
        weights = np.concatenate([self.post_weights[s] for s in spans])
        return np.bincount(docs, weights=weights, minlength=n)


def _parse_record(rec: Mapping) -> Exemplar:
    """One exemplar record {id, text, label, embedding}, its embedding (a
    flat list of finite JSON numbers, `files.json_vector`) re-normalized to
    unit L2 norm; a malformed record raises IngestError."""
    try:
        rid = str(rec["id"])
        text = str(rec["text"])
        label = str(rec["label"])
        raw = json_vector(rec["embedding"], f"exemplar {rid!r} embedding")
    except (KeyError, TypeError, ValueError) as exc:
        raise IngestError(f"malformed record: {exc}") from exc
    if not label:
        raise IngestError(f"exemplar {rid!r} has an empty label")
    # Finite entries whose squares overflow give an infinite norm, refused
    # here rather than stored as a zero row; numpy need not warn as well.
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(raw))
    if not math.isfinite(norm):
        raise IngestError(f"exemplar {rid!r} embedding norm overflows")
    if norm <= 0.0:
        raise IngestError(f"exemplar {rid!r} embedding has zero norm")
    return Exemplar(rid, text, label, raw / norm)


def _record_parser() -> Callable[[Mapping], Exemplar]:
    """A parser of one stream's records (`_parse_record`) that also rejects an
    embedding whose dimension differs from the stream's first."""
    return one_dimension(_parse_record, lambda ex: f"exemplar {ex.id!r}", IngestError)


def _build(exemplars: Iterable[Exemplar], k1: float, b: float) -> Memory:
    """A Memory over parsed exemplars of one dimension; none at all raises."""
    out = list(exemplars)
    if not out:
        raise IngestError("empty record stream")
    return Memory([ex.id for ex in out], [ex.text for ex in out], [ex.label for ex in out],
                  np.stack([ex.embedding for ex in out]), k1=k1, b=b)


def ingest(records: Iterable[Mapping], k1: float = DEFAULT_K1, b: float = DEFAULT_B) -> Memory:
    """Build a Memory from exemplar records {id, text, label, embedding}.

    Each embedding is a flat list of finite JSON numbers, as a JSONL file
    gives it (an entry that is a bool, a string or a numpy scalar is
    rejected), re-normalized to unit L2 norm. Duplicate ids, dimension
    mismatches, and empty streams are rejected.
    """
    return _build(map(_record_parser(), records), k1, b)


def ingest_jsonl(path: str | Path, k1: float = DEFAULT_K1, b: float = DEFAULT_B) -> Memory:
    """Build a Memory from a line-delimited JSON file of exemplar records; a
    malformed record, a repeated id or a dimension unlike the first record's
    raises ConfigError naming path:line."""
    rows = read_unique_rows(path, _record_parser(), key=lambda ex: ex.id, what="exemplar id")
    return _build(rows, k1, b)


def persist(memory: Memory, path: str | Path) -> None:
    """Write a memory to a single versioned binary file: magic, version, the
    JSON header, the float64 embedding matrix, then the postings offsets
    (int64), rows and term frequencies (int32), all little-endian."""
    header = {
        "dim": memory.dim,
        "count": len(memory),
        "k1": memory.k1,
        "b": memory.b,
        "ids": memory.ids,
        "labels": memory.labels,
        "texts": memory.texts,
        # Terms in id order; a token never holds whitespace.
        "vocab": " ".join(memory.vocab),
        "postings": len(memory.post_docs),
    }
    blob = json.dumps(header, ensure_ascii=False).encode("utf-8")
    with open_output(path, binary=True) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(np.ascontiguousarray(memory.embedding_matrix, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(memory.offsets, dtype="<i8").tobytes())
        fh.write(np.ascontiguousarray(memory.post_docs, dtype="<i4").tobytes())
        fh.write(np.ascontiguousarray(memory.post_tfs, dtype="<i4").tobytes())


def _native(raw: bytes, dtype: str) -> np.ndarray:
    """A read-only native array over little-endian file bytes (a no-copy view
    on little-endian hosts)."""
    arr = np.frombuffer(raw, dtype=dtype)
    return arr.astype(arr.dtype.newbyteorder("="), copy=False)


def load(path: str | Path) -> Memory:
    """Load a memory persisted by :func:`persist`; never returns a partial
    memory and never tokenizes: the postings come from the file."""
    with open_input(path, binary=True) as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise MemoryFormatError(f"{path} is not a memory file (bad magic)")
        (version,) = struct.unpack("<I", read_exact(fh, 4, "version"))
        if version != FORMAT_VERSION:
            raise VersionMismatchError(
                f"memory format version {version} unsupported (reader expects {FORMAT_VERSION}; "
                "rebuild the file with `memory build` or `eval synth`)"
            )
        (blob_len,) = struct.unpack("<Q", read_exact(fh, 8, "header length"))
        try:
            header = parse_json(read_exact(fh, blob_len, "header").decode("utf-8"))
            dim, count, n_post = header["dim"], header["count"], header["postings"]
            k1, b = float(header["k1"]), float(header["b"])
            ids, labels, texts = header["ids"], header["labels"], header["texts"]
            vocab = header["vocab"]
            if type(dim) is not int or type(count) is not int or dim < 1 or count < 0:
                raise ValueError(f"dim {dim!r} and count {count!r} must be integers >= 1 and >= 0")
            if type(n_post) is not int or n_post < 0:
                raise ValueError(f"postings count {n_post!r} must be an integer >= 0")
            for name, values in (("ids", ids), ("labels", labels), ("texts", texts)):
                if type(values) is not list or not all(type(v) is str for v in values):
                    raise TypeError(f"{name} must be a list of strings")
            if type(vocab) is not str:
                raise TypeError("vocab must be a string")
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise MemoryFormatError(f"corrupt memory header: {exc}") from exc
        terms = vocab.split()
        raw = read_exact(fh, count * dim * 8, "embedding matrix")
        offsets = read_exact(fh, (len(terms) + 1) * 8, "postings offsets")
        docs = read_exact(fh, n_post * 4, "posting rows")
        tfs = read_exact(fh, n_post * 4, "posting term frequencies")
        if fh.read(1):
            raise MemoryFormatError("trailing data after postings")
    # One native float64 matrix, which the memory keeps as its only copy of
    # the embeddings, and its row norms, which it keeps too.
    matrix = _native(raw, "<f8").reshape(count, dim)
    # A corrupt row whose squares overflow fails the unit-norm check below;
    # numpy need not warn about it as well.
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(matrix, axis=1)
    if not np.all(np.abs(norms - 1.0) <= NORM_TOLERANCE):
        raise MemoryFormatError("corrupt memory: stored embeddings are not unit vectors")
    postings = Postings(terms, _native(offsets, "<i8"), _native(docs, "<i4"), _native(tfs, "<i4"))
    try:
        return Memory(ids, texts, labels, matrix, k1=k1, b=b, postings=postings, row_norms=norms)
    except IngestError as exc:
        raise MemoryFormatError(f"corrupt memory: {exc}") from exc
