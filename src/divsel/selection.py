"""Diversity-aware subset selection over a retrieved candidate pool.

The objective is a convex mixture of label diversity (one minus the sum of
squared label proportions) and text diversity (one minus the mean pairwise
embedding similarity). Greedy selection uses closed-form marginal gains that
need only running label counts and per-candidate similarity sums, so each
step costs O(pool) similarity updates. Top-K, MMR, farthest-point, random,
and an exhaustive oracle selector share the same result shape.

Greedy, MMR and farthest-point share one selection step: score every open
candidate at once and take the lexicographic maximum of the selector's keys
(`_argmax`, one `np.lexsort`). The last key is always the negated id rank, so
every tie breaks to the smallest exemplar id and, among duplicate ids, to the
lowest pool index.

Conventions for tiny sets (the objective is otherwise undefined): the label
diversity of a singleton is 0, its text diversity is 1, and the empty set
scores 0. Pairwise similarities are clamped at 0 from below inside the text
diversity so the score stays in [0, 1] even for anti-correlated embeddings.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, DimensionError, SelectionError
from .retrieval import Candidate, cosine

BRUTE_FORCE_GUARD = 1_000_000


@dataclass(frozen=True)
class SelectionConfig:
    """Knobs for constrained greedy selection."""

    alpha: float = 0.5
    k: int = 6
    tau: float = 0.4
    label_cap: int = 1
    mu: float = 0.05

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.label_cap < 1:
            raise ConfigError(f"label_cap must be >= 1, got {self.label_cap}")
        if self.mu < 0.0:
            raise ConfigError(f"mu must be >= 0, got {self.mu}")


@dataclass(frozen=True)
class StepRecord:
    """Audit row for one greedy step."""

    index: int
    exemplar_id: str
    gain: float
    tilde_gain: float
    g: float
    dtext: float
    r: float


def clamped_similarity(u: np.ndarray, v: np.ndarray) -> float:
    """Pairwise cosine clamped at 0 from below, as used inside text diversity."""
    return max(0.0, cosine(u, v))


def label_diversity(labels: Iterable[str]) -> float:
    """One minus the sum of squared label proportions; 0 iff a single label."""
    counts: dict[str, int] = {}
    n = 0
    for lab in labels:
        counts[lab] = counts.get(lab, 0) + 1
        n += 1
    if n == 0:
        raise SelectionError("label diversity of an empty set is undefined")
    return 1.0 - sum(c * c for c in counts.values()) / (n * n)


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
            total += clamped_similarity(embeddings[i], embeddings[j])
    return 1.0 - total / (m * (m - 1) / 2)


def r_score(g: float, dtext: float, alpha: float) -> float:
    """Convex mixture of label and text diversity."""
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha must be in [0, 1], got {alpha}")
    return alpha * g + (1.0 - alpha) * dtext


class SelectedSet:
    """Incrementally maintained subset with O(1) diversity bookkeeping.

    Tracks running label counts, the sum of squared counts, and the clamped
    mean pairwise similarity, so adding a member never rescans old pairs.
    Selector metadata (per-step records, stop reason, similarity-op counter)
    rides along for audits.
    """

    def __init__(self, alpha: float):
        if not 0.0 <= alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {alpha}")
        self.alpha = alpha
        self.members: list[Candidate] = []
        self.label_counts: dict[str, int] = {}
        self.sum_sq_counts = 0
        self.mean_pairwise_sim = 0.0  # defined 0 for sets of size <= 1
        self.g = 0.0
        self.dtext = 0.0
        self.r = 0.0
        self.steps: list[StepRecord] = []
        self.stop_reason = "empty"
        self.binding_constraint: str | None = None
        self.sim_ops = 0

    @property
    def size(self) -> int:
        return len(self.members)

    def ids(self) -> list[str]:
        return [c.exemplar_id for c in self.members]

    def labels(self) -> list[str]:
        return [c.label for c in self.members]

    def incoming_similarity(self, candidate: Candidate) -> float:
        """Sum of clamped similarities between the candidate and all members."""
        total = 0.0
        for m in self.members:
            total += clamped_similarity(candidate.embedding, m.embedding)
            self.sim_ops += 1
        return total

    def after_add(self, count: int | np.ndarray, incoming_a: float | np.ndarray):
        """Closed-form (sum of squared counts, mean pairwise similarity, g,
        dtext) after adding one member of a label already counted `count`
        times, whose clamped-similarity sum against the current members is
        incoming_a. Elementwise over arrays of counts and sums."""
        sum_sq = self.sum_sq_counts + 2 * count + 1
        m = len(self.members)
        if m == 0:
            return sum_sq, 0.0, 0.0, 1.0  # singleton conventions: g = 0, dtext = 1
        sbar = (m * (m - 1) / 2 * self.mean_pairwise_sim + incoming_a) / ((m + 1) * m / 2)
        return sum_sq, sbar, 1.0 - sum_sq / ((m + 1) * (m + 1)), 1.0 - sbar

    def add(self, candidate: Candidate, incoming_a: float | None = None) -> None:
        """Append a candidate, updating diversity terms via closed-form increments.

        incoming_a is the candidate's clamped-similarity sum against current
        members; it is computed here when not supplied by the caller.
        """
        if incoming_a is None:
            incoming_a = self.incoming_similarity(candidate)
        count = self.label_counts.get(candidate.label, 0)
        self.sum_sq_counts, self.mean_pairwise_sim, self.g, self.dtext = self.after_add(
            count, incoming_a
        )
        self.label_counts[candidate.label] = count + 1
        self.members.append(candidate)
        self.r = self.alpha * self.g + (1.0 - self.alpha) * self.dtext

    def recompute(self) -> tuple[float, float, float]:
        """Diversity terms recomputed from scratch (audit path, no increments)."""
        if not self.members:
            return 0.0, 0.0, 0.0
        g = label_diversity(self.labels())
        d = text_diversity([c.embedding for c in self.members])
        return g, d, self.alpha * g + (1.0 - self.alpha) * d


def delta_label_diversity(selected: SelectedSet, incoming_label: str) -> float:
    """Closed-form change in label diversity from adding one more of a label."""
    return selected.after_add(selected.label_counts.get(incoming_label, 0), 0.0)[2] - selected.g


def delta_text_diversity(selected: SelectedSet, incoming_a: float) -> float:
    """Closed-form change in text diversity given the candidate's similarity sum."""
    return selected.after_add(0, incoming_a)[3] - selected.dtext


def _pool_matrix(pool: Sequence[Candidate]) -> np.ndarray:
    try:
        mat = np.stack([c.embedding for c in pool]).astype(np.float64)
    except ValueError as exc:
        raise DimensionError(f"pool embeddings do not share one shape: {exc}") from exc
    if not np.all(np.isfinite(mat)):
        raise DimensionError("pool contains a non-finite embedding")
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise DimensionError("pool contains a zero embedding")
    return mat / norms


def _pool_arrays(pool: Sequence[Candidate]):
    """Unit embedding rows, vec_score, relevance, and each candidate's rank
    in (id, pool index) order."""
    mat = _pool_matrix(pool)
    vec = np.array([c.vec_score for c in pool], dtype=np.float64)
    rel = np.array([c.relevance for c in pool], dtype=np.float64)
    if not (np.all(np.isfinite(vec)) and np.all(np.isfinite(rel))):
        raise SelectionError("pool contains a non-finite vec_score or relevance")
    rank = np.empty(len(pool), dtype=np.int64)
    rank[sorted(range(len(pool)), key=lambda i: pool[i].exemplar_id)] = np.arange(len(pool))
    return mat, vec, rel, rank


def _argmax(cand: np.ndarray, *keys: np.ndarray) -> int:
    """The pool index in `cand` whose (keys[0][i], keys[1][i], ...) is the
    lexicographic maximum; the last key must be unique per candidate."""
    return int(cand[np.lexsort([key[cand] for key in reversed(keys)])[-1]])


def greedy_select(pool: Sequence[Candidate], cfg: SelectionConfig) -> SelectedSet:
    """Greedy arg-max of the marginal diversity gain plus a relevance prior.

    Feasibility demands query cosine >= tau and per-label count < label_cap.
    Ties on the prior-adjusted gain break by candidate relevance, then id,
    then pool index. When no candidate is feasible at the first step, the result is empty and
    carries the binding constraint.
    """
    if not pool:
        raise SelectionError("cannot select from an empty pool")
    if cfg.k > len(pool):
        raise SelectionError(f"k={cfg.k} exceeds pool size {len(pool)}")
    mat, vec, rel, rank = _pool_arrays(pool)
    label_code: dict[str, int] = {}
    codes = np.array([label_code.setdefault(c.label, len(label_code)) for c in pool])
    counts = np.zeros(len(label_code), dtype=np.int64)
    tau_pass = vec >= cfg.tau
    prior = cfg.mu * vec
    pair_sums = np.zeros(len(pool))
    chosen = np.zeros(len(pool), dtype=bool)
    out = SelectedSet(cfg.alpha)

    while out.size < cfg.k:
        open_tau = tau_pass & ~chosen
        cand = np.flatnonzero(open_tau & (counts[codes] < cfg.label_cap))
        if cand.size == 0:
            saw_tau_pass = bool(open_tau.any())
            if out.size == 0:
                out.stop_reason = "infeasible"
                out.binding_constraint = "cap" if saw_tau_pass else "tau"
            else:
                out.stop_reason = "cap-limited" if saw_tau_pass else "threshold-limited"
            return out

        _, _, g, dtext = out.after_add(counts[codes], pair_sums)
        gain = np.broadcast_to(
            cfg.alpha * (g - out.g) + (1.0 - cfg.alpha) * (dtext - out.dtext), vec.shape
        )
        tilde = gain + prior
        best = _argmax(cand, tilde, rel, -rank)
        chosen[best] = True
        counts[codes[best]] += 1
        out.add(pool[best], incoming_a=float(pair_sums[best]))
        out.steps.append(
            StepRecord(
                index=out.size - 1,
                exemplar_id=pool[best].exemplar_id,
                gain=float(gain[best]),
                tilde_gain=float(tilde[best]),
                g=out.g,
                dtext=out.dtext,
                r=out.r,
            )
        )
        idx = np.flatnonzero(~chosen)
        if idx.size:
            pair_sums[idx] += np.clip(mat[idx] @ mat[best], 0.0, 1.0)
            out.sim_ops += idx.size

    out.stop_reason = "complete" if out.size == cfg.k else "exhausted"
    return out


def _set_from_indices(
    pool: Sequence[Candidate], indices: Sequence[int], alpha: float
) -> SelectedSet:
    out = SelectedSet(alpha)
    for i in indices:
        out.add(pool[i])
    out.stop_reason = "complete"
    return out


def brute_force_select(
    pool: Sequence[Candidate],
    cfg: SelectionConfig,
    max_subsets: int = BRUTE_FORCE_GUARD,
) -> SelectedSet:
    """Exhaustive arg-max over feasible subsets; test/audit oracle only.

    Enumerates subsets at the largest feasible cardinality (at most k): the
    per-label cap is a partition matroid, so that cardinality matches what
    greedy filling can reach. Ties in the objective break lexicographically
    on the sorted id tuple.
    """
    if not pool:
        raise SelectionError("cannot select from an empty pool")
    if cfg.k > len(pool):
        raise SelectionError(f"k={cfg.k} exceeds pool size {len(pool)}")
    feasible = [i for i, c in enumerate(pool) if c.vec_score >= cfg.tau]
    per_label: dict[str, int] = {}
    for i in feasible:
        lab = pool[i].label
        per_label[lab] = per_label.get(lab, 0) + 1
    max_size = min(cfg.k, sum(min(cfg.label_cap, n) for n in per_label.values()))
    if max_size == 0:
        out = SelectedSet(cfg.alpha)
        out.stop_reason = "infeasible"
        out.binding_constraint = "tau" if not feasible else "cap"
        return out
    if math.comb(len(feasible), max_size) > max_subsets:
        raise SelectionError(
            f"brute force would enumerate C({len(feasible)}, {max_size}) subsets; "
            f"guard is {max_subsets}"
        )

    mat = _pool_matrix(pool)
    sims = np.clip(mat @ mat.T, 0.0, 1.0)
    labels = [c.label for c in pool]

    best_key: tuple[float, tuple[str, ...]] | None = None
    best_combo: tuple[int, ...] | None = None
    for combo in itertools.combinations(feasible, max_size):
        counts: dict[str, int] = {}
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
        r = cfg.alpha * g + (1.0 - cfg.alpha) * d
        ids = tuple(sorted(pool[i].exemplar_id for i in combo))
        if best_key is None or r > best_key[0] or (r == best_key[0] and ids < best_key[1]):
            best_key = (r, ids)
            best_combo = combo
    if best_combo is None:
        out = SelectedSet(cfg.alpha)
        out.stop_reason = "infeasible"
        out.binding_constraint = "cap"
        return out
    return _set_from_indices(pool, sorted(best_combo), cfg.alpha)


def topk_select(pool: Sequence[Candidate], k: int, alpha: float = 0.5) -> SelectedSet:
    """Prefix of the pool's relevance order."""
    if not pool:
        raise SelectionError("cannot select from an empty pool")
    out = _set_from_indices(pool, range(min(k, len(pool))), alpha)
    return out


def random_select(
    pool: Sequence[Candidate], k: int, seed: int, alpha: float = 0.5
) -> SelectedSet:
    """Uniform sample without replacement, reproducible from the seed."""
    if not pool:
        raise SelectionError("cannot select from an empty pool")
    rng = random.Random(seed)
    indices = rng.sample(range(len(pool)), min(k, len(pool)))
    return _set_from_indices(pool, indices, alpha)


def mmr_select(
    pool: Sequence[Candidate], k: int, lambda_mmr: float, alpha: float = 0.5
) -> SelectedSet:
    """Maximal marginal relevance: query cosine traded against the max
    similarity to anything already chosen. Ties break by id, then pool index."""
    if not pool:
        raise SelectionError("cannot select from an empty pool")
    if not 0.0 <= lambda_mmr <= 1.0:
        raise ConfigError(f"lambda_mmr must be in [0, 1], got {lambda_mmr}")
    mat, vec, _, rank = _pool_arrays(pool)
    n = len(pool)
    max_sim = np.zeros(n)
    chosen = np.zeros(n, dtype=bool)
    out = SelectedSet(alpha)
    while out.size < min(k, n):
        score = lambda_mmr * vec - (1.0 - lambda_mmr) * max_sim
        best = _argmax(np.flatnonzero(~chosen), score, -rank)
        out.add(pool[best])
        chosen[best] = True
        idx = np.flatnonzero(~chosen)
        if idx.size:
            max_sim[idx] = np.maximum(max_sim[idx], mat[idx] @ mat[best])
            out.sim_ops += idx.size
    out.stop_reason = "complete"
    return out


def fps_select(pool: Sequence[Candidate], k: int, alpha: float = 0.5) -> SelectedSet:
    """Farthest-point traversal in embedding space, seeded at the most
    relevant item; distance is one minus cosine, criterion is the minimum
    distance to the chosen set."""
    if not pool:
        raise SelectionError("cannot select from an empty pool")
    mat, _, rel, rank = _pool_arrays(pool)
    n = len(pool)
    out = SelectedSet(alpha)
    chosen = np.zeros(n, dtype=bool)
    min_dist = np.full(n, np.inf)
    while out.size < min(k, n):
        keys = (min_dist, -rank) if out.size else (rel, -rank)
        best = _argmax(np.flatnonzero(~chosen), *keys)
        out.add(pool[best])
        chosen[best] = True
        if out.size < n:
            min_dist = np.minimum(min_dist, 1.0 - mat @ mat[best])
            out.sim_ops += n - out.size
    out.stop_reason = "complete"
    return out
