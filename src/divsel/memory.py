"""Labeled exemplar memory: ingestion, Okapi BM25 lexical scoring, persistence.

BM25 statistics are built once per memory as CSR postings: a term -> id
vocabulary, the (row, term frequency) pairs of every term grouped by term id,
the offsets of each term's group, each row's length normalization, and each
posting's BM25 weight. ``Memory.bm25_scores`` scores a query by scatter-adding
the weights of its terms' postings; ``Memory.bm25_score`` is the scalar oracle
it must match bit for bit, re-tokenizing one exemplar's text and computing its
idf and weights from scratch.

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
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import IngestError, MemoryFormatError, UnknownIdError, VersionMismatchError
from .files import open_input, open_output, read_exact, read_unique_rows

MAGIC = b"DIVSEL-MEM"
FORMAT_VERSION = 1

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75

NORM_TOLERANCE = 1e-6

# Lowercase, split on whitespace and punctuation (underscore included), no stemming.
_TERM_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Deterministic lexical tokenization used for all BM25 statistics."""
    return _TERM_RE.findall(text.lower())


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

    Lexical statistics are CSR postings built once: ``vocab`` maps a term to
    its id, and the postings of term t are ``post_docs[offsets[t]:offsets[t+1]]``
    (ascending memory row) with term frequencies ``post_tfs`` and BM25
    weights ``post_weights`` at the same positions. ``norm`` holds each row's
    BM25 length normalization.
    ``id_rank`` holds each row's rank in id order and ``label_codes`` each
    row's label code; retrieval builds its pools from them.
    """

    def __init__(self, ids: Sequence[str], texts: Sequence[str], labels: Sequence[str],
                 embeddings: np.ndarray, k1: float, b: float):
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

        # Term ids are assigned document by document, so no list of every
        # token string is ever held; one sort of term*n + row then groups the
        # postings by term with rows ascending and counts each (term, row).
        vocab: dict[str, int] = {}
        term_id = vocab.setdefault
        term_ids, doc_lens = array("q"), array("q")
        for text in texts:
            terms = tokenize(text)
            doc_lens.append(len(terms))
            term_ids.extend([term_id(t, len(vocab)) for t in terms])
        lengths = np.frombuffer(doc_lens, dtype=np.int64)
        rows = np.repeat(np.arange(n, dtype=np.int64), lengths)
        keys, tfs = np.unique(
            np.frombuffer(term_ids, dtype=np.int64) * n + rows, return_counts=True
        )
        self.vocab = vocab
        self.post_docs = (keys % n).astype(np.int32)
        self.post_tfs = tfs.astype(np.int32)
        self.offsets = np.zeros(len(vocab) + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // n, minlength=len(vocab)), out=self.offsets[1:])
        # A memory without a single token scores every query 0; the floor of
        # one token only keeps the normalization finite.
        self.avg_doc_len = max(int(lengths.sum()), 1) / n
        self.norm = self.k1 * (1.0 - self.b + self.b * lengths / self.avg_doc_len)
        # Each posting's weight idf * tf * (k1 + 1) / (tf + norm[row]), in the
        # order of operations of `bm25_score`. The idf is taken per term with
        # math.log: numpy's vectorized log differs from it in the last bit.
        df = np.diff(self.offsets)
        idf = np.array([math.log(1.0 + (n - d + 0.5) / (d + 0.5)) for d in df.tolist()])
        self.post_weights = (np.repeat(idf, df) * self.post_tfs * (self.k1 + 1.0)
                             / (self.post_tfs + self.norm[self.post_docs]))
        # The matrix is kept as given (load's file view, ingest's one stack).
        self.embedding_matrix = embeddings
        for arr in (self.post_docs, self.post_tfs, self.post_weights, self.offsets, self.norm,
                    self.id_rank, self.label_codes, embeddings):
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

        Scatter-adds the weights of each query term's postings, repeated terms
        once per occurrence and in query order, so every score is
        bit-identical to :meth:`bm25_score`.
        """
        out = np.zeros(len(self.ids), dtype=np.float64)
        for term in tokenize(query_text):
            t = self.vocab.get(term)
            if t is None:
                continue
            lo, hi = self.offsets[t], self.offsets[t + 1]
            out[self.post_docs[lo:hi]] += self.post_weights[lo:hi]
        return out


def _parse_record(rec: Mapping) -> Exemplar:
    """One exemplar record {id, text, label, embedding}, its embedding
    re-normalized to unit L2 norm; a malformed record raises IngestError."""
    try:
        rid = str(rec["id"])
        text = str(rec["text"])
        label = str(rec["label"])
        raw = np.asarray(rec["embedding"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise IngestError(f"malformed record: {exc}") from exc
    if not label:
        raise IngestError(f"exemplar {rid!r} has an empty label")
    if raw.ndim != 1:
        raise IngestError(f"exemplar {rid!r} embedding is not a flat vector")
    if not np.all(np.isfinite(raw)):
        raise IngestError(f"exemplar {rid!r} embedding has non-finite entries")
    norm = float(np.linalg.norm(raw))
    if norm <= 0.0:
        raise IngestError(f"exemplar {rid!r} embedding has zero norm")
    return Exemplar(rid, text, label, raw / norm)


def _record_parser() -> Callable[[Mapping], Exemplar]:
    """A parser of one stream's records (`_parse_record`) that also rejects an
    embedding whose dimension differs from the stream's first."""
    first_dim = None

    def parse(rec: Mapping) -> Exemplar:
        nonlocal first_dim
        ex = _parse_record(rec)
        dim = ex.embedding.shape[0]
        if first_dim is None:
            first_dim = dim
        elif dim != first_dim:
            raise IngestError(
                f"exemplar {ex.id!r} has embedding dimension {dim}, expected {first_dim}"
            )
        return ex

    return parse


def _build(exemplars: Iterable[Exemplar], k1: float, b: float) -> Memory:
    """A Memory over parsed exemplars of one dimension; none at all raises."""
    out = list(exemplars)
    if not out:
        raise IngestError("empty record stream")
    return Memory([ex.id for ex in out], [ex.text for ex in out], [ex.label for ex in out],
                  np.stack([ex.embedding for ex in out]), k1=k1, b=b)


def ingest(records: Iterable[Mapping], k1: float = DEFAULT_K1, b: float = DEFAULT_B) -> Memory:
    """Build a Memory from exemplar records {id, text, label, embedding}.

    Embeddings are re-normalized to unit L2 norm. Duplicate ids, dimension
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
    """Write a memory to a single versioned binary file."""
    header = {
        "dim": memory.dim,
        "count": len(memory),
        "k1": memory.k1,
        "b": memory.b,
        "ids": memory.ids,
        "labels": memory.labels,
        "texts": memory.texts,
    }
    blob = json.dumps(header, ensure_ascii=False).encode("utf-8")
    with open_output(path, binary=True) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(np.ascontiguousarray(memory.embedding_matrix, dtype=np.float64).tobytes())


def load(path: str | Path) -> Memory:
    """Load a memory persisted by :func:`persist`; never returns a partial memory."""
    with open_input(path, binary=True) as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise MemoryFormatError(f"{path} is not a memory file (bad magic)")
        (version,) = struct.unpack("<I", read_exact(fh, 4, "version"))
        if version != FORMAT_VERSION:
            raise VersionMismatchError(
                f"memory format version {version} unsupported (reader expects {FORMAT_VERSION})"
            )
        (blob_len,) = struct.unpack("<Q", read_exact(fh, 8, "header length"))
        try:
            header = json.loads(read_exact(fh, blob_len, "header").decode("utf-8"))
            dim, count = header["dim"], header["count"]
            k1, b = float(header["k1"]), float(header["b"])
            ids, labels, texts = header["ids"], header["labels"], header["texts"]
            if type(dim) is not int or type(count) is not int or dim < 1 or count < 0:
                raise ValueError(f"dim {dim!r} and count {count!r} must be integers >= 1 and >= 0")
            for name, values in (("ids", ids), ("labels", labels), ("texts", texts)):
                if type(values) is not list or not all(type(v) is str for v in values):
                    raise TypeError(f"{name} must be a list of strings")
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise MemoryFormatError(f"corrupt memory header: {exc}") from exc
        raw = read_exact(fh, count * dim * 8, "embedding matrix")
        if fh.read(1):
            raise MemoryFormatError("trailing data after embedding matrix")
    # One native float64 matrix (a no-copy view on little-endian hosts), which
    # the memory keeps as its only copy of the embeddings.
    matrix = np.frombuffer(raw, dtype="<f8").reshape(count, dim).astype(np.float64, copy=False)
    norms = np.linalg.norm(matrix, axis=1)
    if not np.all(np.abs(norms - 1.0) <= NORM_TOLERANCE):
        raise MemoryFormatError("corrupt memory: stored embeddings are not unit vectors")
    try:
        return Memory(ids, texts, labels, matrix, k1=k1, b=b)
    except IngestError as exc:
        raise MemoryFormatError(f"corrupt memory: {exc}") from exc
