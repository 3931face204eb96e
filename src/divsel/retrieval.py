"""Hybrid relevance scoring: a convex mix of query-vector cosine and BM25.

Scores are normalized onto [0, 1] before mixing because the two components
live on incommensurate scales; see RetrievalConfig.normalization.

A retrieved pool is a :class:`Pool`: the pool's scores, label codes, id order,
embedding rows and their norms held as arrays, which the selectors read
directly, over the memory's id, text and label columns. Every selector,
the pipeline and the verifier's label rule take a Pool; a pool file is read
into one (:func:`read_pool`). Iterating a Pool yields each item as a
:class:`Candidate`, built when it is read.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import ConfigError, DimensionError, SelectionError
from .files import json_number, one_dimension, open_output, read_unique_rows
from .memory import Memory

NORMALIZATION_MODES = ("minmax", "none")


class ExactScanIndex:
    """Exact dense scan: the raw cosine of a non-zero query against every
    memory item, in memory order."""

    def __init__(self, memory: Memory):
        self._matrix = memory.embedding_matrix

    def query(self, vector: np.ndarray) -> np.ndarray:
        norm = float(np.linalg.norm(vector))
        if norm == 0.0:
            raise DimensionError("cosine is undefined for a zero query vector")
        return np.clip(self._matrix @ (vector / norm), -1.0, 1.0)


@dataclass(frozen=True)
class RetrievalConfig:
    """Pool retrieval knobs: mixing weight, pool size, normalization mode."""

    lambda_vec: float = 0.6
    pool_size: int = 128
    normalization: str = "minmax"

    def __post_init__(self):
        if not 0.0 <= self.lambda_vec <= 1.0:
            raise ConfigError(f"lambda_vec must be in [0, 1], got {self.lambda_vec}")
        if self.pool_size < 1:
            raise ConfigError(f"pool_size must be >= 1, got {self.pool_size}")
        if self.normalization not in NORMALIZATION_MODES:
            raise ConfigError(f"unknown normalization mode {self.normalization!r}")


@dataclass(frozen=True)
class Candidate:
    """One scored pool member.

    vec_score is the raw query cosine; lex_score is BM25 after the configured
    normalization (so relevance always recomputes from the stored components);
    bm25_raw keeps the unnormalized lexical score for audit.
    """

    exemplar_id: str
    text: str
    label: str
    embedding: np.ndarray
    relevance: float
    vec_score: float
    lex_score: float
    bm25_raw: float


# The id, text and label columns of a Pool built from candidates; a Memory has
# the same three.
Columns = namedtuple("Columns", "ids texts labels")


class Pool:
    """A candidate pool held as arrays, in pool order.

    ``source.ids[rows[i]]``, ``source.texts[rows[i]]`` and
    ``source.labels[rows[i]]`` give item i's id, text and label, where the
    source is the Memory it was retrieved from or the :class:`Columns` of the
    candidates it was built from; ``embeddings[i]`` is its float64 embedding
    row and ``row_norms[i]`` that row's L2 norm, gathered from the memory's
    ``row_norms`` or taken by :meth:`from_candidates`. ``relevance``,
    ``vec_score``, ``lex_score`` and ``bm25_raw`` are the Candidate scores,
    ``label_codes`` are equal exactly where labels are, and ``rank`` orders
    the items by (id, pool index). Every array is read-only.

    Iteration builds each Candidate when it is read, its embedding a row of
    ``embeddings``; a slice is a Pool over the same source, and an integer
    index raises TypeError. ``labels`` reads labels alone.
    """

    __slots__ = ("source", "rows", "embeddings", "row_norms", "relevance", "vec_score",
                 "lex_score", "bm25_raw", "label_codes", "rank")

    def __init__(self, source: Memory | Columns, *arrays: np.ndarray):
        """Pool(source, rows, embeddings, row_norms, relevance, vec_score,
        lex_score, bm25_raw, label_codes, rank), each array made read-only."""
        self.source = source
        for name, arr in zip(Pool.__slots__[1:], arrays, strict=True):
            arr.setflags(write=False)
            setattr(self, name, arr)

    @classmethod
    def from_candidates(cls, candidates: Iterable[Candidate]) -> "Pool":
        """A Pool of the candidates in order. Duplicate ids are kept, ranked
        by pool index; embeddings of different shapes raise DimensionError."""
        cands = list(candidates)
        n = len(cands)
        if n:
            try:
                embeddings = np.stack([c.embedding for c in cands], dtype=np.float64)
            except ValueError as exc:
                raise DimensionError(f"pool embeddings do not share one shape: {exc}") from exc
        else:
            embeddings = np.zeros((0, 0))

        def column(name: str) -> tuple:
            return tuple(getattr(c, name) for c in cands)

        # A finite row whose squares overflow gets an infinite norm, which
        # the selectors reject; numpy need not warn about it as well.
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(embeddings, axis=1)
        ids, labels = column("exemplar_id"), column("label")
        codes: dict[str, int] = {}
        rank = np.empty(n, dtype=np.int64)
        rank[sorted(range(n), key=ids.__getitem__)] = np.arange(n)
        return cls(
            Columns(ids, column("text"), labels),
            np.arange(n),
            embeddings,
            norms,
            *(np.array(column(name), dtype=np.float64)
              for name in ("relevance", "vec_score", "lex_score", "bm25_raw")),
            np.array([codes.setdefault(label, len(codes)) for label in labels], dtype=np.int64),
            rank,
        )

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index: slice) -> "Pool":
        if not isinstance(index, slice):
            raise TypeError(f"a Pool takes a slice, not {type(index).__name__}")
        return Pool(self.source, *(getattr(self, name)[index] for name in Pool.__slots__[1:]))

    def __iter__(self) -> Iterator[Candidate]:
        ids, texts, labels = self.source.ids, self.source.texts, self.source.labels
        scores = zip(self.relevance.tolist(), self.vec_score.tolist(), self.lex_score.tolist(),
                     self.bm25_raw.tolist())
        for row, embedding, score in zip(self.rows.tolist(), self.embeddings, scores):
            yield Candidate(ids[row], texts[row], labels[row], embedding, *score)

    def labels(self, stop: int | None = None) -> list[str]:
        """The labels of the first `stop` items (all by default), in pool
        order, read without building candidates."""
        return [self.source.labels[row] for row in self.rows[:stop].tolist()]


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity in [-1, 1]; raises on zero vectors or dim mismatch."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise DimensionError(f"cosine over mismatched shapes {u.shape} vs {v.shape}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise DimensionError("cosine is undefined for a zero vector")
    # Python min/max clamp like np.clip (NaN and -0.0 pass through) at a
    # fraction of its per-call cost on a scalar.
    return min(max(float(np.dot(u, v) / (nu * nv)), -1.0), 1.0)


def _minmax(raw: np.ndarray) -> np.ndarray:
    lo = float(raw.min())
    hi = float(raw.max())
    if hi - lo <= 1e-12:
        return np.full_like(raw, 0.5)
    return (raw - lo) / (hi - lo)


def retrieve_pool(
    memory: Memory,
    query_vector: np.ndarray,
    query_text: str,
    cfg: RetrievalConfig,
) -> Pool:
    """Score every memory item and return the top pool_size by hybrid relevance.

    Deterministic: ties are broken by ascending exemplar id.
    """
    z = np.asarray(query_vector, dtype=np.float64)
    if z.ndim != 1 or z.shape[0] != memory.dim:
        raise DimensionError(
            f"query vector has dimension {z.shape}, memory expects ({memory.dim},)"
        )
    if not np.all(np.isfinite(z)):
        raise DimensionError("query vector has non-finite entries")
    vec_raw = ExactScanIndex(memory).query(z)
    lex_raw = memory.bm25_scores(query_text)
    vec_n, lex_n = vec_raw, lex_raw
    if cfg.normalization == "minmax":
        vec_n, lex_n = (vec_raw + 1.0) / 2.0, _minmax(lex_raw)
    rel = cfg.lambda_vec * vec_n + (1.0 - cfg.lambda_vec) * lex_n

    # Only items at or above the L-th largest relevance can make the pool;
    # ordering those alone by (-relevance, id) keeps the full sort's order.
    n = len(memory)
    size = min(cfg.pool_size, n)
    if size < n:
        above = np.flatnonzero(rel >= np.partition(rel, n - size)[n - size])
    else:
        above = np.arange(n)
    top = above[np.lexsort((memory.id_rank[above], -rel[above]))[:size]]
    return Pool(
        memory,
        top,
        memory.embedding_matrix[top],
        memory.row_norms[top],
        rel[top],
        vec_raw[top],
        lex_n[top],
        lex_raw[top],
        memory.label_codes[top],
        memory.id_rank[top],
    )


def pool_row(c: Candidate) -> dict:
    """The pool-file record of one candidate, component scores included."""
    return {
        "id": c.exemplar_id,
        "text": c.text,
        "label": c.label,
        "relevance": c.relevance,
        "vec_score": c.vec_score,
        "lex_score": c.lex_score,
        "bm25_raw": c.bm25_raw,
        "embedding": [float(x) for x in c.embedding],
    }


def write_pool(pool: Pool, path: str | Path) -> None:
    """Emit a pool as line-delimited records with component scores."""
    with open_output(path) as fh:
        for c in pool:
            fh.write(json.dumps(pool_row(c), ensure_ascii=False) + "\n")


def _parse_candidate(row: Mapping) -> Candidate:
    """One pool-file row; every score and embedding entry a finite JSON number."""
    scores = [json_number(row[key]) for key in ("relevance", "vec_score", "lex_score", "bm25_raw")]
    if not isinstance(row["embedding"], list):
        raise TypeError("embedding must be a list of JSON numbers")
    emb = np.array([json_number(x) for x in row["embedding"]], dtype=np.float64)
    if not np.all(np.isfinite(emb)):
        raise ConfigError("embedding must be a vector of finite numbers")
    if not all(map(math.isfinite, scores)):
        raise ConfigError("scores must be finite")
    return Candidate(str(row["id"]), str(row["text"]), str(row["label"]), emb, *scores)


def read_pool(path: str | Path) -> Pool:
    """Read a pool written by :func:`write_pool`; a malformed row, a repeated
    id or an embedding dimension unlike the first row's raises ConfigError
    naming path:line."""
    parse = one_dimension(_parse_candidate, lambda c: f"candidate {c.exemplar_id!r}")
    rows = read_unique_rows(path, parse, lambda c: c.exemplar_id, "id")
    out = Pool.from_candidates(rows)
    if not out:
        raise SelectionError(f"pool file {path} holds no candidates")
    return out
