"""Hybrid relevance scoring: a convex mix of query-vector cosine and BM25.

Both scores are normalized onto [0, 1] before mixing, because the two
components live on incommensurate scales: the cosine as (cos + 1) / 2, BM25
min-max over the memory.

Retrieval scores in two stages. A float32 pre-scan values every memory row
from the memory's float32 copy, at half the bytes of the float64 matrix, and
keeps as candidates the rows within a proven error margin of its L-th best
value (:func:`_margin`). Only the candidates are scored exactly, with the one
pair-similarity formula (:func:`similarities`), and ranked; the pool is the
one a full exact scan and full sort would give, ties included.

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
from .files import json_number, json_vector, one_dimension, open_output, read_unique_rows
from .memory import Memory


_SIM_SPECS = {(2, 1): "ij,j->i", (2, 2): "ij,kj->ik", (1, 1): "j,j->"}


def similarities(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of unit rows, the one pair-similarity formula: rows `a`
    (n x d) against one row `b` give n values, against rows `b` (m x d) an
    n x m Gram, and one row against one row a scalar. Retrieval's exact
    dense scores and every selector's pair similarities come from it.

    An einsum sums each pair over d on its own, so a pair's value does not
    depend on the other rows of the call, as a BLAS product's can: a subset
    of rows, a row or block of a Gram and a single pair all equal the same
    entries of the full product, bit for bit."""
    return np.einsum(_SIM_SPECS[a.ndim, b.ndim], a, b)


class ExactScanIndex:
    """The dense pass of :func:`retrieve_pool`'s float32 pre-scan, over the
    memory's float32 copy.

    The pass is approximate: it only picks the candidates that
    :func:`retrieve_pool` scores exactly. The name stays only for the
    benchmark's span tracer, which times this pass as ``retrieval.dense``,
    until ROADMAP item 7 removes the class."""

    def __init__(self, memory: Memory):
        self._matrix = memory.embedding_matrix32

    def query(self, vector: np.ndarray, weight: float) -> np.ndarray:
        """`weight` times the dot product of every row with the unit `vector`,
        in float32 and memory order; a zero vector raises DimensionError."""
        if not vector.any():
            raise DimensionError("cosine is undefined for a zero query vector")
        return self._matrix @ (weight * vector).astype(np.float32)


@dataclass(frozen=True)
class RetrievalConfig:
    """Pool retrieval knobs: mixing weight and pool size."""

    lambda_vec: float = 0.6
    pool_size: int = 128

    def __post_init__(self):
        if not 0.0 <= self.lambda_vec <= 1.0:
            raise ConfigError(f"lambda_vec must be in [0, 1], got {self.lambda_vec}")
        if self.pool_size < 1:
            raise ConfigError(f"pool_size must be >= 1, got {self.pool_size}")


@dataclass(frozen=True)
class Candidate:
    """One scored pool member.

    vec_score is the raw query cosine; lex_score is BM25 after min-max
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


def _minmax(raw: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """BM25 scores min-max normalized by the memory-wide `lo` and `hi`; 0.5
    throughout when they (nearly) coincide."""
    if hi - lo <= 1e-12:
        return np.full_like(raw, 0.5)
    return (raw - lo) / (hi - lo)


# The unit roundoff of float32.
_U32 = 2.0 ** -24


def _margin(dim: int, max_norm: float, lam: float) -> float:
    """The pre-scan's error margin η: with K one constant for all rows,
    |r_i + K - rel_i| <= η for every row i of a memory of dimension `dim`
    whose row norms are at most `max_norm`, at mixing weight `lam`. inf where
    the proof does not hold, dim above 2^14 or `max_norm` above 2^64 or NaN;
    then no row is pruned.

    Notation: U = 2^-24 and e = 2^-53, the unit roundoffs of float32 and
    float64; v the float64 unit query and a a float64 row; c = a·v exactly.
    ``retrieve_pool`` ranks by rel_i = lam·(clip(c64) + 1)/2 + (1 - lam)·l_i
    in float64, where c64 is the einsum of a and v and l_i the min-max BM25
    score. The pre-scan value is r_i = fl32(s_i + t_i): s_i the float32 dot
    of fl32(a) with q = fl32(lam/2·v), and t_i = fl32((1 - lam)·(lex_i - lo)
    / (hi - lo)), or 0 when hi - lo <= 1e-12, where l_i is 0.5 for every row
    and so joins K, as does the lam/2 of rel.

    Let B = max_norm·(1 + 2^-30). For dim <= 2^14, numpy's norms, the rows'
    and the query's, are exact to 2^-38 (or within 2^-500 where squares
    underflow, which step 5's slack covers), so sum_j |a_j·v_j| <= |a|·|v|
    <= B, and |c| <= B. Then:

    1. Dense. fl32(a) and q differ from a and lam/2·v by a relative 1.01U
       each, and a float32 dot of dim terms, summed in any order, with or
       without fused multiply-adds, errs by at most g = dim·U/(1 - dim·U)
       (under 0.001) relative to the sum of its absolute products (Higham,
       *Accuracy and Stability of Numerical Algorithms*, 3.1). So
       |s_i - lam/2·c| <= lam/2·(g + 2.03U)·B, and |s_i| <= 1.01·lam/2·B.
    2. Clipping. rel clips c64 to [-1, 1] and the pre-scan does not; as
       |c| <= B, |lam/2·c - lam/2·clip(c)| <= lam/2·max(0, B - 1).
    3. Lexical and sum. t_i is within 1.01U of its exact value, which lies
       in [0, 1 - lam]; the float32 add errs by at most
       U·(1.01·lam/2·B + 1.01).
    4. The float64 side. |c64 - c| <= dim·e/(1 - dim·e)·B <= 2^-38·B, which
       the clip and lam/2 only shrink, and the other float64 operations of
       rel and l_i add under 10e.
    5. Underflow. Subnormal operands and products add under 2^-120·(B + 1).

    The sum is below lam/2·((g + 5U)·B + max(0, B - 1)) + 3U, which is
    η. With max_norm <= 2^64 no float32 value overflows. For unit rows at
    dim = 32 and lam = 0.6, η is 8.4e-7.

    Why the candidates r_i >= T - 2η, with T the L-th largest r, hold the
    exact pool: at least L rows have r >= T, so rel >= T - η + K for each,
    and the L-th largest rel, R, is at least T - η + K. Every row with
    rel_i >= R then has r_i >= R - K - η >= T - 2η. So the candidates hold
    every row at or above R: the exact top L and every tie at R.
    """
    if not (dim <= 2 ** 14 and max_norm <= 2.0 ** 64):
        return math.inf
    b = max_norm * (1.0 + 2.0 ** -30)
    g = dim * _U32 / (1.0 - dim * _U32)
    return lam / 2 * ((g + 5 * _U32) * b + max(0.0, b - 1.0)) + 3 * _U32


def retrieve_pool(
    memory: Memory,
    query_vector: np.ndarray,
    query_text: str,
    cfg: RetrievalConfig,
) -> Pool:
    """Score every memory item and return the top pool_size by hybrid relevance.

    Deterministic: ties are broken by ascending exemplar id. When the pool
    is smaller than the memory, a float32 pre-scan of every row picks the
    candidates (:func:`_margin`); the rest of the work reads only those.
    The relevance, vec_score and lex_score of a row are the same bits
    whichever rows are candidates: the exact cosine is an einsum, which sums
    each row on its own, and both normalizations use the memory-wide BM25
    range. So the pool equals, bit for bit, the first pool_size rows of a
    full exact scan sorted by (-relevance, id). No row is pruned when the
    pool holds every row or the margin is not finite.
    """
    z = np.asarray(query_vector, dtype=np.float64)
    if z.ndim != 1 or z.shape[0] != memory.dim:
        raise DimensionError(
            f"query vector has dimension {z.shape}, memory expects ({memory.dim},)"
        )
    # The norm is finite exactly when every entry is finite and the squares
    # do not overflow, so it is the one check of a finite query.
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(z))
    if not math.isfinite(norm):
        if np.all(np.isfinite(z)):
            raise DimensionError("query vector is too large to normalize")
        raise DimensionError("query vector has non-finite entries")
    if norm == 0.0:
        raise DimensionError("cosine is undefined for a zero query vector")
    u = z / norm
    lam = cfg.lambda_vec
    lex_raw = memory.bm25_scores(query_text)
    lo, hi = float(lex_raw.min()), float(lex_raw.max())

    n = len(memory)
    size = min(cfg.pool_size, n)
    eta = _margin(memory.dim, memory.max_row_norm, lam)
    if size < n and math.isfinite(eta):
        r = ExactScanIndex(memory).query(u, lam / 2)
        if hi - lo > 1e-12:
            r += ((lex_raw - lo) * ((1.0 - lam) / (hi - lo))).astype(np.float32)
        # The cutoff T - 2η, lowered by more than the float32 rounding the
        # comparison applies to it, so that it stays at or below T - 2η.
        cut = float(np.partition(r, n - size)[n - size]) - 2.0 * eta
        cut -= abs(cut) * 2.0 ** -23 + 2.0 ** -149
        rows = (r >= cut).nonzero()[0]
    else:
        rows = np.arange(n)

    # Each candidate's embedding row and BM25 score are gathered from the
    # memory once; the pool takes its rows of them from those gathers. The
    # maximum and minimum give np.clip's bits, NaN included, without its
    # slower dispatch.
    embeddings, lex_c = memory.embedding_matrix[rows], lex_raw[rows]
    vec_raw = np.minimum(np.maximum(similarities(embeddings, u), -1.0), 1.0)
    lex_n = _minmax(lex_c, lo, hi)
    rel = lam * ((vec_raw + 1.0) / 2.0) + (1.0 - lam) * lex_n

    # The candidates hold every row at or above the L-th largest relevance,
    # so their first pool_size by (-relevance, id) are the full sort's.
    order = np.lexsort((memory.id_rank[rows], -rel))[:size]
    top = rows[order]
    return Pool(
        memory,
        top,
        embeddings[order],
        memory.row_norms[top],
        rel[order],
        vec_raw[order],
        lex_n[order],
        lex_c[order],
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
    emb = json_vector(row["embedding"], "embedding")
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
