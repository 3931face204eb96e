"""Slow reference implementations the tests compare the fast paths against.

No query path calls them, so they live beside the tests rather than in the
package: the scalar BM25 score of one exemplar (against
``Memory.bm25_scores``), the scalar cosine and text diversity (against the
selectors' incremental diversity and ``SelectedSet.recompute``) and the
exhaustive selector (against greedy).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Sequence

import numpy as np

from divsel.errors import DimensionError, SelectionError
from divsel.memory import Memory, tokenize
from divsel.retrieval import Pool, similarities
from divsel.selection import (
    SelectedSet,
    SelectionConfig,
    _check_pool,
    _set_from_indices,
    _unit_rows,
    r_score,
)

BRUTE_FORCE_GUARD = 1_000_000


def idf(memory: Memory, term_id: int) -> float:
    """The BM25 idf of a term, from its document frequency in the postings."""
    df = int(memory.offsets[term_id + 1] - memory.offsets[term_id])
    n = len(memory.ids)
    return math.log(1.0 + (n - df + 0.5) / (df + 0.5))


def bm25_score(memory: Memory, query_text: str, exemplar_id: str) -> float:
    """Okapi BM25 score of one exemplar against a raw query string.

    The scalar reference for ``Memory.bm25_scores``: it re-tokenizes the
    exemplar's text instead of reading the postings. Zero when no query
    term occurs in the exemplar text; an unknown id raises UnknownIdError.
    """
    counts = Counter(tokenize(memory.texts[memory._row(exemplar_id)]))
    dl = sum(counts.values())
    norm = memory.k1 * (1.0 - memory.b + memory.b * dl / memory.avg_doc_len)
    score = 0.0
    for term in tokenize(query_text):
        tf = counts.get(term, 0)
        if tf == 0:
            continue
        score += idf(memory, memory.vocab[term]) * tf * (memory.k1 + 1.0) / (tf + norm)
    return score


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


def text_diversity(embeddings: Sequence[np.ndarray]) -> float:
    """One minus the mean clamped pairwise similarity; a singleton scores 1."""
    m = len(embeddings)
    if m == 0:
        raise SelectionError("text diversity of an empty set is undefined")
    if m == 1:
        if float(np.linalg.norm(embeddings[0])) == 0.0:
            raise DimensionError("similarity is undefined for a zero vector")
        return 1.0
    total = 0.0
    for i in range(m):
        for j in range(i + 1, m):
            total += max(0.0, cosine(embeddings[i], embeddings[j]))
    return 1.0 - total / (m * (m - 1) / 2)


def brute_force_select(pool: Pool, cfg: SelectionConfig) -> SelectedSet:
    """Exhaustive arg-max over feasible subsets.

    Enumerates subsets at the largest feasible cardinality (at most k): the
    per-label cap is a partition matroid, so that cardinality matches what
    greedy filling can reach. Ties in the objective break lexicographically
    on the sorted id tuple.
    """
    if not pool:
        raise SelectionError("cannot select from an empty pool")
    if cfg.k > len(pool):
        raise SelectionError(f"k={cfg.k} exceeds pool size {len(pool)}")
    feasible = np.flatnonzero(pool.vec_score >= cfg.tau).tolist()
    labels = pool.label_codes.tolist()
    per_label: dict[int, int] = {}
    for i in feasible:
        per_label[labels[i]] = per_label.get(labels[i], 0) + 1
    max_size = min(cfg.k, sum(min(cfg.label_cap, n) for n in per_label.values()))
    if max_size == 0:  # nothing passed tau: any passing item fits under a cap >= 1
        out = SelectedSet(cfg.alpha, pool)
        out.stop_reason, out.binding_constraint = "infeasible", "tau"
        return out
    if math.comb(len(feasible), max_size) > BRUTE_FORCE_GUARD:
        raise SelectionError(
            f"brute force would enumerate C({len(feasible)}, {max_size}) subsets; "
            f"guard is {BRUTE_FORCE_GUARD}"
        )

    _check_pool(pool)
    mat = _unit_rows(pool)
    sims = np.clip(similarities(mat, mat), 0.0, 1.0)
    ids = [pool.source.ids[row] for row in pool.rows.tolist()]

    # A cap-respecting subset of max_size items always exists, so one is found.
    best_key: tuple[float, tuple[str, ...]] | None = None
    best_combo: tuple[int, ...] = ()
    for combo in itertools.combinations(feasible, max_size):
        counts: dict[int, int] = {}
        ok = True
        for i in combo:
            counts[labels[i]] = counts.get(labels[i], 0) + 1
            if counts[labels[i]] > cfg.label_cap:
                ok = False
                break
        if not ok:
            continue
        g = 1.0 - sum(n * n for n in counts.values()) / (max_size * max_size)
        if max_size == 1:
            d = 1.0
        else:
            total = 0.0
            for a in range(max_size):
                for b in range(a + 1, max_size):
                    total += sims[combo[a], combo[b]]
            d = 1.0 - total / (max_size * (max_size - 1) / 2)
        r = r_score(g, d, cfg.alpha)
        combo_ids = tuple(sorted(ids[i] for i in combo))
        if best_key is None or r > best_key[0] or (r == best_key[0] and combo_ids < best_key[1]):
            best_key = (r, combo_ids)
            best_combo = combo
    return _set_from_indices(pool, sorted(best_combo), cfg.alpha)
