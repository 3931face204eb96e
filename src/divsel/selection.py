"""Diversity-aware subset selection over a retrieved candidate pool.

The objective is a convex mixture of label diversity (one minus the sum of
squared label proportions) and text diversity (one minus the mean pairwise
embedding similarity). Greedy selection uses closed-form marginal gains that
need only running label counts and per-candidate similarity sums, so each
step costs one similarity per candidate that passes tau. Top-K, MMR,
farthest-point and random selectors share the same result shape.

Every selector takes a `retrieval.Pool` and builds no `Candidate`: a
`SelectedSet` keeps the pool rows it took and reads its members' ids,
labels and texts from the pool's source. Greedy, MMR and farthest-point
share one selection step: score every candidate at once and take the
lexicographic maximum of the selector's keys (`_argmax`). The last key is
always the negated id rank, so every tie breaks to the smallest exemplar id
and, among duplicate ids, to the lowest pool index. MMR and farthest-point
score every open row; greedy keeps its candidates, the rows that pass tau
under a label cap not yet reached, as it goes, and scores only those.

Every pair similarity is one formula (`retrieval.similarities`, which also
gives retrieval's exact dense scores): an einsum over unit rows, whose value
for a pair does not depend on which other rows share the call. So each
selector computes only the similarities it can read, and a scalar reference
that takes one pair at a time gets the same bits. Greedy
gathers the unit rows of its tau-passing items once and, after each step,
adds the new member's clamped similarities to those rows alone into their
pair sums, which `add` takes as the closed-form increment; no other row is
ever read. MMR and farthest-point step (`_take`) over every open pool row.
Top-K and random take one Gram of their chosen rows and add each member's
incoming sum in member order. `sim_ops` counts the similarities computed.
A unit row is a pool embedding divided by the pool's ``row_norms``, which a
retrieved pool gathers from its memory, so no selector takes a norm.
`SelectedSet.recompute` (one Gram of rows it normalizes itself) stays as the
independent check of the incremental terms.

Conventions for tiny sets (the objective is otherwise undefined): the label
diversity of a singleton is 0, its text diversity is 1, and the empty set
scores 0. Pairwise similarities are clamped at 0 from below inside the text
diversity so the score stays in [0, 1] even for anti-correlated embeddings.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, DimensionError, SelectionError
from .retrieval import Pool, similarities

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


def r_score(g: float | np.ndarray, dtext: float | np.ndarray, alpha: float):
    """Convex mixture of label and text diversity (elementwise over arrays)."""
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha must be in [0, 1], got {alpha}")
    return alpha * g + (1.0 - alpha) * dtext


class SelectedSet:
    """Incrementally maintained subset of a pool with O(1) diversity bookkeeping.

    Keeps the pool and its members' pool indices in order (`rows`); `ids`,
    `labels` and `pairs` read the pool's source columns, and
    ``pool.embeddings[rows]`` holds the members' embeddings. Tracks running
    label counts, the sum of squared counts, and the clamped mean pairwise
    similarity, so adding a member never rescans old pairs. Selector
    metadata (per-step records, stop reason, similarity-op counter) rides
    along for audits.
    """

    def __init__(self, alpha: float, pool: Pool):
        if not 0.0 <= alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {alpha}")
        self.alpha = alpha
        self.pool = pool
        self.rows: list[int] = []
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
        return len(self.rows)

    def _source_rows(self) -> list[int]:
        return self.pool.rows[self.rows].tolist()

    def ids(self) -> list[str]:
        ids = self.pool.source.ids
        return [ids[r] for r in self._source_rows()]

    def labels(self) -> list[str]:
        labels = self.pool.source.labels
        return [labels[r] for r in self._source_rows()]

    def pairs(self) -> list[tuple[str, str]]:
        """The members' (text, label) pairs, in order."""
        source = self.pool.source
        return [(source.texts[r], source.labels[r]) for r in self._source_rows()]

    def after_add(self, count: int | np.ndarray, incoming_a: float | np.ndarray):
        """Closed-form (sum of squared counts, mean pairwise similarity, g,
        dtext) after adding one member of a label already counted `count`
        times, whose clamped-similarity sum against the current members is
        incoming_a. Elementwise over arrays of counts and sums."""
        sum_sq = self.sum_sq_counts + 2 * count + 1
        m = len(self.rows)
        if m == 0:
            return sum_sq, 0.0, 0.0, 1.0  # singleton conventions: g = 0, dtext = 1
        sbar = (m * (m - 1) / 2 * self.mean_pairwise_sim + incoming_a) / ((m + 1) * m / 2)
        return sum_sq, sbar, 1.0 - sum_sq / ((m + 1) * (m + 1)), 1.0 - sbar

    def add(self, index: int, incoming_a: float) -> None:
        """Append pool item `index`, whose clamped-similarity sum against the
        current members is incoming_a, updating diversity terms via
        closed-form increments."""
        label = self.pool.source.labels[self.pool.rows[index]]
        count = self.label_counts.get(label, 0)
        self.sum_sq_counts, self.mean_pairwise_sim, self.g, self.dtext = self.after_add(
            count, incoming_a
        )
        self.label_counts[label] = count + 1
        self.rows.append(index)
        self.r = r_score(self.g, self.dtext, self.alpha)

    def recompute(self) -> tuple[float, float, float]:
        """Diversity terms recomputed from scratch (audit path, no increments).

        The text diversity comes from one Gram of the members' embeddings,
        normalized here with their own norms: it reads neither `similarities`
        nor the pool's ``row_norms``, so it stays independent of the
        selectors' fast path. Pair similarities are clamped to [0, 1], as
        the objective clamps them."""
        m = len(self.rows)
        if not m:
            return 0.0, 0.0, 0.0
        g = label_diversity(self.labels())
        raw = self.pool.embeddings[self.rows]
        norms = np.linalg.norm(raw, axis=1)
        if not norms.all():
            raise DimensionError("similarity is undefined for a zero vector")
        d = 1.0
        if m > 1:
            unit = raw / norms[:, None]
            sims = np.clip(unit @ unit.T, 0.0, 1.0)[np.triu_indices(m, 1)]
            d = 1.0 - float(sims.sum()) / (m * (m - 1) / 2)
        return g, d, r_score(g, d, self.alpha)


def _check_norms(norms: np.ndarray) -> None:
    """Raise DimensionError unless every row norm is finite and non-zero. A
    row with a non-finite entry has a non-finite norm, and so has a finite
    row whose squares overflow; neither has a unit row."""
    if not np.isfinite(norms).all():
        raise DimensionError("pool contains an embedding with a non-finite norm")
    if not norms.all():
        raise DimensionError("pool contains a zero embedding")


def _check_pool(pool: Pool) -> None:
    """Raise unless every row norm passes `_check_norms` and every vec_score
    and relevance is finite (else SelectionError)."""
    _check_norms(pool.row_norms)
    if not (np.isfinite(pool.vec_score).all() and np.isfinite(pool.relevance).all()):
        raise SelectionError("pool contains a non-finite vec_score or relevance")


def _unit_rows(pool: Pool, rows=slice(None)) -> np.ndarray:
    """The pool's embeddings at `rows` (all by default) divided by their row
    norms, which the caller has checked."""
    return pool.embeddings[rows] / pool.row_norms[rows, None]


def _take(out: SelectedSet, mat: np.ndarray, best: int,
          chosen: np.ndarray, pair_sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The MMR and farthest-point step: add pool item `best` (row `best` of
    the unit rows `mat`) with incoming_a `pair_sums[best]`, mark it chosen,
    and return the open rows and their raw similarities to it, whose clamped
    values go into `pair_sums`."""
    out.add(best, float(pair_sums[best]))
    chosen[best] = True
    open_rows = np.flatnonzero(~chosen)
    sims = similarities(mat[open_rows], mat[best])
    pair_sums[open_rows] += np.clip(sims, 0.0, 1.0)
    out.sim_ops += open_rows.size
    return open_rows, sims


def _argmax(cand: np.ndarray, first: np.ndarray, *rest: np.ndarray) -> int:
    """The position j in `cand` whose (first[j], rest[0][cand[j]], ...) is the
    lexicographic maximum: `first` is scored over the candidates, the other
    keys are indexed by `cand`'s entries, and the last key must be unique per
    candidate. One
    `argmax` finds the maximum; only a tie on it sorts the tied candidates
    by the rest."""
    j = int(first.argmax())
    tied = np.flatnonzero(first == first[j])
    if tied.size > 1:
        rows = cand[tied]
        j = int(tied[np.lexsort([key[rows] for key in reversed(rest)])[-1]])
    return j


def greedy_select(pool: Pool, cfg: SelectionConfig) -> SelectedSet:
    """Greedy arg-max of the marginal diversity gain plus a relevance prior.

    Feasibility demands vec_score >= tau and per-label count < label_cap.
    Only the rows that pass tau can be taken, so their unit rows, keys and
    pair sums are gathered once, and each step adds the new member's
    similarities to those rows alone (n_tau similarities a step). The
    feasible rows are kept as the loop goes: a step drops the row it takes,
    and every row of a label that reaches the cap. Ties on the prior-adjusted
    gain break by candidate relevance, then id, then pool index. When no
    candidate is feasible at the first step, the result is empty and carries
    the binding constraint.
    """
    if not pool:
        raise SelectionError("cannot select from an empty pool")
    if cfg.k > len(pool):
        raise SelectionError(f"k={cfg.k} exceeds pool size {len(pool)}")
    _check_pool(pool)
    rows = np.flatnonzero(pool.vec_score >= cfg.tau)
    mat = _unit_rows(pool, rows)
    codes, relevance, neg_rank = pool.label_codes[rows], pool.relevance[rows], -pool.rank[rows]
    counts = np.zeros(int(pool.label_codes.max()) + 1, dtype=np.int64)
    prior = cfg.mu * pool.vec_score[rows]
    pair_sums = np.zeros(rows.size)
    # Positions in `rows` of the rows not taken whose label is under the cap, ascending.
    cand = np.arange(rows.size)
    out = SelectedSet(cfg.alpha, pool)

    while out.size < cfg.k:
        if cand.size == 0:
            if out.size == 0:
                # Counts start at 0 and label_cap >= 1, so only tau can bind.
                out.stop_reason, out.binding_constraint = "infeasible", "tau"
            else:
                # Every member passed tau; any other row that did is capped.
                out.stop_reason = "cap-limited" if rows.size > out.size else "threshold-limited"
            return out

        # Under a cap of 1 every candidate's label is still uncounted.
        count = 0 if cfg.label_cap == 1 else counts[codes[cand]]
        _, _, g, dtext = out.after_add(count, pair_sums[cand])
        gain = r_score(g - out.g, dtext - out.dtext, cfg.alpha)  # a scalar at the first step
        tilde = gain + prior[cand]
        j = _argmax(cand, tilde, relevance, neg_rank)
        best = int(cand[j])
        label = codes[best]
        counts[label] += 1
        cand = cand[cand != best] if counts[label] < cfg.label_cap else cand[codes[cand] != label]
        step_gain = float(gain[j]) if out.size else float(gain)
        index = int(rows[best])
        out.add(index, float(pair_sums[best]))
        pair_sums += np.clip(similarities(mat, mat[best]), 0.0, 1.0)
        out.sim_ops += rows.size
        out.steps.append(
            StepRecord(
                index=out.size - 1,
                exemplar_id=pool.source.ids[pool.rows[index]],
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
    """The pool items at `indices`, added in order; only their norms are
    checked. One Gram of their unit rows gives the K(K-1)/2 similarities, and
    each member's incoming sum adds its clamped similarities to the members
    before it one at a time, in member order (`np.add.accumulate` adds row
    after row, so ``acc[j - 1, j]`` is member j's sum)."""
    indices = list(indices)
    _check_norms(pool.row_norms[indices])
    mat = _unit_rows(pool, indices)
    acc = np.add.accumulate(np.clip(similarities(mat, mat), 0.0, 1.0), axis=0)
    out = SelectedSet(alpha, pool)
    for i, incoming_a in zip(indices, [0.0, *np.diagonal(acc, 1).tolist()]):
        out.add(i, incoming_a)
    out.sim_ops = len(indices) * (len(indices) - 1) // 2
    out.stop_reason = "complete"
    return out


def topk_select(pool: Pool, k: int, alpha: float = 0.5) -> SelectedSet:
    """Prefix of the pool's relevance order."""
    if not pool:
        raise SelectionError("cannot select from an empty pool")
    return _set_from_indices(pool, range(min(k, len(pool))), alpha)


def random_select(
    pool: Pool, k: int, seed: int, alpha: float = 0.5
) -> SelectedSet:
    """Uniform sample without replacement, reproducible from the seed."""
    if not pool:
        raise SelectionError("cannot select from an empty pool")
    rng = random.Random(seed)
    indices = rng.sample(range(len(pool)), min(k, len(pool)))
    return _set_from_indices(pool, indices, alpha)


def mmr_select(
    pool: Pool, k: int, lambda_mmr: float, alpha: float = 0.5
) -> SelectedSet:
    """Maximal marginal relevance: query similarity traded against the max
    similarity to anything already chosen. Ties break by id, then pool index."""
    if not pool:
        raise SelectionError("cannot select from an empty pool")
    if not 0.0 <= lambda_mmr <= 1.0:
        raise ConfigError(f"lambda_mmr must be in [0, 1], got {lambda_mmr}")
    _check_pool(pool)
    mat = _unit_rows(pool)
    vec, neg_rank = pool.vec_score, -pool.rank
    n = len(pool)
    max_sim = np.zeros(n)
    pair_sums = np.zeros(n)
    chosen = np.zeros(n, dtype=bool)
    out = SelectedSet(alpha, pool)
    while out.size < min(k, n):
        score = lambda_mmr * vec - (1.0 - lambda_mmr) * max_sim
        open_rows = np.flatnonzero(~chosen)
        best = int(open_rows[_argmax(open_rows, score[open_rows], neg_rank)])
        open_rows, sims = _take(out, mat, best, chosen, pair_sums)
        max_sim[open_rows] = np.maximum(max_sim[open_rows], sims)
    out.stop_reason = "complete"
    return out


def fps_select(pool: Pool, k: int, alpha: float = 0.5) -> SelectedSet:
    """Farthest-point traversal in embedding space, seeded at the most
    relevant item; distance is one minus similarity, criterion is the minimum
    distance to the chosen set."""
    if not pool:
        raise SelectionError("cannot select from an empty pool")
    _check_pool(pool)
    mat = _unit_rows(pool)
    neg_rank = -pool.rank
    n = len(pool)
    out = SelectedSet(alpha, pool)
    chosen = np.zeros(n, dtype=bool)
    pair_sums = np.zeros(n)
    min_dist = np.full(n, np.inf)
    while out.size < min(k, n):
        first = min_dist if out.size else pool.relevance
        open_rows = np.flatnonzero(~chosen)
        best = int(open_rows[_argmax(open_rows, first[open_rows], neg_rank)])
        open_rows, sims = _take(out, mat, best, chosen, pair_sums)
        min_dist[open_rows] = np.minimum(min_dist[open_rows], 1.0 - sims)
    out.stop_reason = "complete"
    return out
