"""Diversity-aware subset selection over a retrieved candidate pool.

The objective is a convex mixture of label diversity (one minus the sum of
squared label proportions) and text diversity (one minus the mean pairwise
embedding similarity). Greedy selection uses closed-form marginal gains that
need only running label counts and per-candidate similarity sums, so each
step costs O(pool) similarity updates. Top-K, MMR, farthest-point, random,
and an exhaustive oracle selector share the same result shape.

Every selector reads the pool as a `retrieval.Pool` (`Pool.from_candidates`
turns a list of candidates into one) and builds a `Candidate` only for the
items it chooses. Greedy, MMR and farthest-point share one selection step:
score every candidate at once and take the lexicographic maximum of the
selector's keys (`_argmax`). The last key is always the negated id rank, so
every tie breaks to the smallest exemplar id and, among duplicate ids, to the
lowest pool index. MMR and farthest-point score every open row; greedy keeps
its candidates, the open rows that pass tau under a label cap not yet
reached, as it goes, and scores only those.

Every selector adds members through one similarity step (`_take`): one matvec
of the open rows of unit embeddings against the new member's row. Its clamped
values accumulate each open row's similarity sum to the members, which `add`
takes as the closed-form increment, and `sim_ops` counts the similarities it
computed. Greedy, MMR and farthest-point step over the whole pool; top-K,
random and the brute-force result over the unit rows of their chosen items
only. A unit row is a pool embedding divided by the pool's ``row_norms``,
which a retrieved pool gathers from its memory, so no selector takes a norm.
The scalar `text_diversity`, `SelectedSet.recompute` and the
brute-force Gram enumeration stay as independent oracles.

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
from .retrieval import Candidate, Pool, cosine

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
        if not math.isfinite(self.tau):
            raise ConfigError(f"tau must be finite, got {self.tau}")
        if not (math.isfinite(self.mu) and self.mu >= 0.0):
            raise ConfigError(f"mu must be finite and >= 0, got {self.mu}")


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
            total += max(0.0, cosine(embeddings[i], embeddings[j]))
    return 1.0 - total / (m * (m - 1) / 2)


def r_score(g: float | np.ndarray, dtext: float | np.ndarray, alpha: float):
    """Convex mixture of label and text diversity (elementwise over arrays)."""
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

    def add(self, candidate: Candidate, incoming_a: float) -> None:
        """Append a candidate whose clamped-similarity sum against the current
        members is incoming_a, updating diversity terms via closed-form
        increments."""
        count = self.label_counts.get(candidate.label, 0)
        self.sum_sq_counts, self.mean_pairwise_sim, self.g, self.dtext = self.after_add(
            count, incoming_a
        )
        self.label_counts[candidate.label] = count + 1
        self.members.append(candidate)
        self.r = r_score(self.g, self.dtext, self.alpha)

    def recompute(self) -> tuple[float, float, float]:
        """Diversity terms recomputed from scratch (audit path, no increments)."""
        if not self.members:
            return 0.0, 0.0, 0.0
        g = label_diversity(self.labels())
        d = text_diversity([c.embedding for c in self.members])
        return g, d, r_score(g, d, self.alpha)


def _unit_rows(embeddings: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """The embeddings divided by their row norms (a Pool's ``row_norms``); a
    non-finite or zero row raises DimensionError. A non-finite row has a
    non-finite norm, so the entries are read only when some norm is one (a
    finite row whose squares overflow has an infinite norm too)."""
    if not np.all(np.isfinite(norms)) and not np.all(np.isfinite(embeddings)):
        raise DimensionError("pool contains a non-finite embedding")
    if np.any(norms == 0.0):
        raise DimensionError("pool contains a zero embedding")
    return embeddings / norms[:, None]


def _pool_arrays(pool: Sequence[Candidate]) -> tuple[Pool, np.ndarray]:
    """The pool as a Pool and its unit embedding rows (`_unit_rows`); a
    non-finite vec_score or relevance raises SelectionError."""
    pool = Pool.from_candidates(pool)
    mat = _unit_rows(pool.embeddings, pool.row_norms)
    if not (np.all(np.isfinite(pool.vec_score)) and np.all(np.isfinite(pool.relevance))):
        raise SelectionError("pool contains a non-finite vec_score or relevance")
    return pool, mat


def _take(out: SelectedSet, member: Candidate, mat: np.ndarray, best: int,
          chosen: np.ndarray, pair_sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The similarity step: add `member` (row `best` of `mat`) with incoming_a
    `pair_sums[best]`, mark it chosen, and return the open rows and their raw
    similarities to it, whose clamped values go into `pair_sums`."""
    out.add(member, float(pair_sums[best]))
    chosen[best] = True
    open_rows = np.flatnonzero(~chosen)
    sims = mat[open_rows] @ mat[best]
    pair_sums[open_rows] += np.clip(sims, 0.0, 1.0)
    out.sim_ops += open_rows.size
    return open_rows, sims


def _argmax(cand: np.ndarray, first: np.ndarray, *rest: np.ndarray) -> int:
    """The position j in `cand` whose (first[j], rest[0][cand[j]], ...) is the
    lexicographic maximum: `first` is scored over the candidates, the other
    keys over the pool, and the last key must be unique per candidate. One
    `argmax` finds the maximum; only a tie on it sorts the tied candidates
    by the rest."""
    j = int(first.argmax())
    tied = np.flatnonzero(first == first[j])
    if tied.size > 1:
        rows = cand[tied]
        j = int(tied[np.lexsort([key[rows] for key in reversed(rest)])[-1]])
    return j


def greedy_select(pool: Sequence[Candidate], cfg: SelectionConfig) -> SelectedSet:
    """Greedy arg-max of the marginal diversity gain plus a relevance prior.

    Feasibility demands vec_score >= tau and per-label count < label_cap.
    The feasible open rows are kept as the loop goes: a step drops the row it
    takes, and every row of a label that reaches the cap. Ties on the
    prior-adjusted gain break by candidate relevance, then id, then pool
    index. When no candidate is feasible at the first step, the result is
    empty and carries the binding constraint.
    """
    if not pool:
        raise SelectionError("cannot select from an empty pool")
    if cfg.k > len(pool):
        raise SelectionError(f"k={cfg.k} exceeds pool size {len(pool)}")
    pool, mat = _pool_arrays(pool)
    vec, codes, neg_rank = pool.vec_score, pool.label_codes, -pool.rank
    counts = np.zeros(int(codes.max()) + 1, dtype=np.int64)
    prior = cfg.mu * vec
    pair_sums = np.zeros(len(pool))
    chosen = np.zeros(len(pool), dtype=bool)
    # The open rows that pass tau and whose label is under the cap, ascending.
    cand = np.flatnonzero(vec >= cfg.tau)
    n_tau = cand.size
    out = SelectedSet(cfg.alpha)

    while out.size < cfg.k:
        if cand.size == 0:
            if out.size == 0:
                # Counts start at 0 and label_cap >= 1, so only tau can bind.
                out.stop_reason, out.binding_constraint = "infeasible", "tau"
            else:
                # Every member passed tau; any other open row that did is capped.
                out.stop_reason = "cap-limited" if n_tau > out.size else "threshold-limited"
            return out

        # Under a cap of 1 every candidate's label is still uncounted.
        count = 0 if cfg.label_cap == 1 else counts[codes[cand]]
        _, _, g, dtext = out.after_add(count, pair_sums[cand])
        gain = r_score(g - out.g, dtext - out.dtext, cfg.alpha)  # a scalar at the first step
        tilde = gain + prior[cand]
        j = _argmax(cand, tilde, pool.relevance, neg_rank)
        best = int(cand[j])
        label = codes[best]
        counts[label] += 1
        cand = cand[cand != best] if counts[label] < cfg.label_cap else cand[codes[cand] != label]
        member = pool[best]
        step_gain = float(gain[j]) if out.size else float(gain)
        _take(out, member, mat, best, chosen, pair_sums)
        out.steps.append(
            StepRecord(
                index=out.size - 1,
                exemplar_id=member.exemplar_id,
                gain=step_gain,
                tilde_gain=float(tilde[j]),
                g=out.g,
                dtext=out.dtext,
                r=out.r,
            )
        )

    out.stop_reason = "complete"
    return out


def _set_from_indices(pool: Pool, indices: Sequence[int], alpha: float) -> SelectedSet:
    """The pool items at `indices`, added in order through `_take` over their
    unit rows alone: K(K-1)/2 similarities, and only those rows are validated."""
    indices = list(indices)
    mat = _unit_rows(pool.embeddings[indices], pool.row_norms[indices])
    chosen = np.zeros(len(indices), dtype=bool)
    pair_sums = np.zeros(len(indices))
    out = SelectedSet(alpha)
    for j, i in enumerate(indices):
        _take(out, pool[i], mat, j, chosen, pair_sums)
    out.stop_reason = "complete"
    return out


def brute_force_select(
    pool: Sequence[Candidate],
    cfg: SelectionConfig,
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
    pool = Pool.from_candidates(pool)
    feasible = np.flatnonzero(pool.vec_score >= cfg.tau).tolist()
    labels = pool.label_codes.tolist()
    per_label: dict[int, int] = {}
    for i in feasible:
        per_label[labels[i]] = per_label.get(labels[i], 0) + 1
    max_size = min(cfg.k, sum(min(cfg.label_cap, n) for n in per_label.values()))
    if max_size == 0:  # nothing passed tau: any passing item fits under a cap >= 1
        out = SelectedSet(cfg.alpha)
        out.stop_reason, out.binding_constraint = "infeasible", "tau"
        return out
    if math.comb(len(feasible), max_size) > BRUTE_FORCE_GUARD:
        raise SelectionError(
            f"brute force would enumerate C({len(feasible)}, {max_size}) subsets; "
            f"guard is {BRUTE_FORCE_GUARD}"
        )

    pool, mat = _pool_arrays(pool)
    sims = np.clip(mat @ mat.T, 0.0, 1.0)
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


def topk_select(pool: Sequence[Candidate], k: int, alpha: float = 0.5) -> SelectedSet:
    """Prefix of the pool's relevance order."""
    if not pool:
        raise SelectionError("cannot select from an empty pool")
    return _set_from_indices(Pool.from_candidates(pool), range(min(k, len(pool))), alpha)


def random_select(
    pool: Sequence[Candidate], k: int, seed: int, alpha: float = 0.5
) -> SelectedSet:
    """Uniform sample without replacement, reproducible from the seed."""
    if not pool:
        raise SelectionError("cannot select from an empty pool")
    rng = random.Random(seed)
    indices = rng.sample(range(len(pool)), min(k, len(pool)))
    return _set_from_indices(Pool.from_candidates(pool), indices, alpha)


def mmr_select(
    pool: Sequence[Candidate], k: int, lambda_mmr: float, alpha: float = 0.5
) -> SelectedSet:
    """Maximal marginal relevance: query similarity traded against the max
    similarity to anything already chosen. Ties break by id, then pool index."""
    if not pool:
        raise SelectionError("cannot select from an empty pool")
    if not 0.0 <= lambda_mmr <= 1.0:
        raise ConfigError(f"lambda_mmr must be in [0, 1], got {lambda_mmr}")
    pool, mat = _pool_arrays(pool)
    vec, neg_rank = pool.vec_score, -pool.rank
    n = len(pool)
    max_sim = np.zeros(n)
    pair_sums = np.zeros(n)
    chosen = np.zeros(n, dtype=bool)
    out = SelectedSet(alpha)
    while out.size < min(k, n):
        score = lambda_mmr * vec - (1.0 - lambda_mmr) * max_sim
        open_rows = np.flatnonzero(~chosen)
        best = int(open_rows[_argmax(open_rows, score[open_rows], neg_rank)])
        open_rows, sims = _take(out, pool[best], mat, best, chosen, pair_sums)
        max_sim[open_rows] = np.maximum(max_sim[open_rows], sims)
    out.stop_reason = "complete"
    return out


def fps_select(pool: Sequence[Candidate], k: int, alpha: float = 0.5) -> SelectedSet:
    """Farthest-point traversal in embedding space, seeded at the most
    relevant item; distance is one minus similarity, criterion is the minimum
    distance to the chosen set."""
    if not pool:
        raise SelectionError("cannot select from an empty pool")
    pool, mat = _pool_arrays(pool)
    neg_rank = -pool.rank
    n = len(pool)
    out = SelectedSet(alpha)
    chosen = np.zeros(n, dtype=bool)
    pair_sums = np.zeros(n)
    min_dist = np.full(n, np.inf)
    while out.size < min(k, n):
        first = min_dist if out.size else pool.relevance
        open_rows = np.flatnonzero(~chosen)
        best = int(open_rows[_argmax(open_rows, first[open_rows], neg_rank)])
        open_rows, sims = _take(out, pool[best], mat, best, chosen, pair_sums)
        min_dist[open_rows] = np.minimum(min_dist[open_rows], 1.0 - sims)
    out.stop_reason = "complete"
    return out
