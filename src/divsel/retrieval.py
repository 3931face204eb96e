"""Hybrid relevance scoring: a convex mix of query-vector cosine and BM25.

Scores are normalized onto [0, 1] before mixing because the two components
live on incommensurate scales; see RetrievalConfig.normalization.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, DimensionError, SelectionError
from .files import read_rows
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


def _normalize_cosines(raw: np.ndarray) -> np.ndarray:
    return (raw + 1.0) / 2.0


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
) -> list[Candidate]:
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
    if cfg.normalization == "minmax":
        vec_n = _normalize_cosines(vec_raw)
        lex_n = _minmax(lex_raw)
    else:
        vec_n = vec_raw
        lex_n = lex_raw
    rel = cfg.lambda_vec * vec_n + (1.0 - cfg.lambda_vec) * lex_n

    # Only items at or above the L-th largest relevance can make the pool;
    # ordering those alone by (-relevance, id) keeps the full sort's order.
    n = len(memory)
    size = min(cfg.pool_size, n)
    if size < n:
        above = np.flatnonzero(rel >= np.partition(rel, n - size)[n - size]).tolist()
    else:
        above = range(n)
    top = sorted(above, key=lambda i: (-rel[i], memory.exemplars[i].id))[:size]
    return [
        Candidate(
            exemplar_id=memory.exemplars[i].id,
            text=memory.exemplars[i].text,
            label=memory.exemplars[i].label,
            embedding=memory.exemplars[i].embedding,
            relevance=float(rel[i]),
            vec_score=float(vec_raw[i]),
            lex_score=float(lex_n[i]),
            bm25_raw=float(lex_raw[i]),
        )
        for i in top
    ]


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


def write_pool(candidates: Sequence[Candidate], path: str | Path) -> None:
    """Emit a pool as line-delimited records with component scores."""
    with open(path, "w", encoding="utf-8") as fh:
        for c in candidates:
            fh.write(json.dumps(pool_row(c), ensure_ascii=False) + "\n")


def _parse_candidate(row: Mapping) -> Candidate:
    emb = np.asarray(row["embedding"], dtype=np.float64)
    emb.setflags(write=False)
    c = Candidate(
        exemplar_id=str(row["id"]),
        text=str(row["text"]),
        label=str(row["label"]),
        embedding=emb,
        relevance=float(row["relevance"]),
        vec_score=float(row["vec_score"]),
        lex_score=float(row["lex_score"]),
        bm25_raw=float(row.get("bm25_raw", row["lex_score"])),
    )
    if emb.ndim != 1 or not np.all(np.isfinite(emb)):
        raise ConfigError("embedding must be a flat vector of finite numbers")
    if not all(map(math.isfinite, (c.relevance, c.vec_score, c.lex_score, c.bm25_raw))):
        raise ConfigError("scores must be finite")
    return c


def read_pool(path: str | Path) -> list[Candidate]:
    """Read a pool written by :func:`write_pool`; a malformed row or a repeated
    id raises ConfigError naming path:line."""
    seen: set[str] = set()

    def parse(row: Mapping) -> Candidate:
        c = _parse_candidate(row)
        if c.exemplar_id in seen:
            raise ConfigError(f"duplicate id {c.exemplar_id!r}")
        seen.add(c.exemplar_id)
        return c

    out = list(read_rows(path, parse))
    if not out:
        raise SelectionError(f"pool file {path} holds no candidates")
    return out
