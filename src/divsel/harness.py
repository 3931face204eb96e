"""End-to-end pipeline driver, metrics, fairness protocol, sweeps, grid search.

The pipeline is four stage functions: retrieve (`retrieve_stage`: encode the
dialogue, rank the memory into a pool), select (`select_for_method`, the one
selector dispatch), prompt (`prompt_stage`: budgeted compose, whose result the
random-add method fills through `rand_add_fill`) and decode, in two parts: the
label rule (`prompt_labels`: the labels the prompt exposes, extended by the
pool's shortlist) and scoring (`score_labels`: a prompt text and those labels
scored through the verifier). The stages are composed by
`run_pipeline` (and through it `evaluate`, and through that the one grid loop
of `sweep` and `grid_search`), every `fairness_suite` arm and the CLI's
retrieve and select commands.

Every run is deterministic given its seeds: per-instance randomness is derived
from (run seed, instance id) with a stable hash, and emitted report rows carry
only deterministic fields (wall-clock timings live in separate measured
reports, never in the byte-comparable emissions).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import weakref
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .budget import (
    CostConstants,
    LatencyReport,
    StageClock,
    WorkloadShape,
    check_objective_terms,
    model_latency,
    scalarized_objective,
)
from .encoder import DialogueContext, EncoderWeights, Turn, encode_context
from .errors import CompositionError, ConfigError, InvariantViolation
from .files import json_vector, open_output, overlay, read_object, read_rows, read_unique_rows
from .memory import Memory, tokenize
from .prompt import (
    BudgetConfig,
    DEFAULT_ANSWER_FORMAT,
    DEFAULT_INSTRUCTION,
    Prompt,
    append_exemplars,
    compose,
    count_tokens,
    render_exemplar_line,
)
from .retrieval import Pool, RetrievalConfig, retrieve_pool
from .selection import (
    SelectedSet,
    SelectionConfig,
    fps_select,
    greedy_select,
    mmr_select,
    random_select,
    topk_select,
)
from .verifier import VerifierOutput, candidate_labels, mock_verifier, score_labels

METHODS = ("ldra", "topk", "mmr", "fps", "random", "topk_rand_add")

FAIRNESS_ARMS = ("ldra", "topk", "topk_rand_add", "ldra_shuffle", "ldra_prefix_replace")

TOKEN_DEVIATION_LIMIT_PCT = 2.0


def derive_seed(*parts) -> int:
    """Stable cross-platform seed from arbitrary parts."""
    digest = hashlib.blake2s(":".join(str(p) for p in parts).encode("utf-8"), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


# ---------------------------------------------------------------------------
# Eval corpus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvalInstance:
    """One evaluation dialogue with its gold label."""

    id: str
    dialogue: DialogueContext
    gold: str

    def __post_init__(self):
        if not self.gold:
            raise ConfigError(f"instance {self.id!r} has an empty gold label")


def write_corpus(instances: Sequence[EvalInstance], path: str | Path) -> None:
    with open_output(path) as fh:
        for inst in instances:
            row = {
                "id": inst.id,
                "turns": [
                    {
                        "user": t.user,
                        "agent": t.agent,
                        "user_embedding": [float(x) for x in t.user_embedding],
                        "agent_embedding": [float(x) for x in t.agent_embedding],
                    }
                    for t in inst.dialogue.turns
                ],
                "current": inst.dialogue.current,
                "current_embedding": [float(x) for x in inst.dialogue.current_embedding],
                "gold": inst.gold,
            }
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def _parse_dialogue(row: Mapping) -> DialogueContext:
    """The dialogue of one corpus row (also the dialogue-file format); every
    embedding a flat list of finite JSON numbers (`files.json_vector`)."""
    turns = tuple(
        Turn(
            user=str(t["user"]),
            agent=str(t["agent"]),
            user_embedding=json_vector(t["user_embedding"], "turn user embedding"),
            agent_embedding=json_vector(t["agent_embedding"], "turn agent embedding"),
        )
        for t in row.get("turns", [])
    )
    return DialogueContext(
        turns=turns,
        current=str(row["current"]),
        current_embedding=json_vector(row["current_embedding"], "current embedding"),
    )


def _parse_instance(row: Mapping) -> EvalInstance:
    """One corpus row; keys other than the ones read here are ignored."""
    return EvalInstance(
        id=str(row["id"]),
        dialogue=_parse_dialogue(row),
        gold=str(row["gold"]),
    )


def read_corpus(path: str | Path) -> list[EvalInstance]:
    """The instances of a corpus file; a malformed row or a repeated instance
    id raises ConfigError naming path:line."""
    out = list(read_unique_rows(path, _parse_instance, lambda inst: inst.id, "instance id"))
    if not out:
        raise ConfigError(f"corpus file {path} holds no instances")
    return out


def read_dialogue(path: str | Path) -> DialogueContext:
    """The dialogue of a file's first row; a corpus line works as-is."""
    for dialogue in read_rows(path, _parse_dialogue):
        return dialogue
    raise ConfigError(f"dialogue file {path} holds no rows")


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FairnessConfig:
    """Equal-budget protocol knobs."""

    shuffle_seed: int = 13
    token_targets: tuple[int, ...] = (260, 285, 310, 330, 360)

    def __post_init__(self):
        if not self.token_targets:
            raise ConfigError("token_targets must not be empty")
        if any(t <= 0 for t in self.token_targets):
            raise ConfigError("token_targets must be positive")
        if any(a >= b for a, b in zip(self.token_targets, self.token_targets[1:])):
            raise ConfigError(f"token_targets must be strictly ascending, got {self.token_targets}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment run depends on."""

    method: str = "ldra"
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)
    budget: BudgetConfig = field(default_factory=BudgetConfig)
    fairness: FairnessConfig = field(default_factory=FairnessConfig)
    runs: int = 3
    base_seed: int = 0
    shortlist_size: int = 3
    mock_margin: float = 2.0
    lambda_mmr: float = 0.5
    instruction: str = DEFAULT_INSTRUCTION
    answer_format: str = DEFAULT_ANSWER_FORMAT

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if self.shortlist_size < 0:
            raise ConfigError("shortlist_size must be >= 0")
        if not (math.isfinite(self.mock_margin) and self.mock_margin > 0):
            raise ConfigError(f"mock_margin must be finite and positive, got {self.mock_margin}")
        if not 0.0 <= self.lambda_mmr <= 1.0:
            raise ConfigError(f"lambda_mmr must be finite and in [0, 1], got {self.lambda_mmr}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "ExperimentConfig":
        """Defaults overlaid with `data`; an unknown key or a value of another
        JSON type than its default, at any level, raises ConfigError."""
        merged = overlay(cls().to_dict(), data)
        for f in fields(cls):
            if f.default_factory is not MISSING:
                merged[f.name] = f.default_factory(**merged[f.name])
        return cls(**merged)

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        return read_object(path, cls.from_dict)

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineResult:
    """All artifacts of one end-to-end run, retrievable for audit."""

    instance_id: str
    prediction: str
    output: VerifierOutput
    prompt: Prompt
    selection: SelectedSet
    pool: Pool
    candidate_set: tuple[str, ...]
    latency: LatencyReport


# Token cost of each exemplar's rendered prompt line, and the smallest of them,
# per memory. Filled on a memory's first rand-add; weak keys let a replaced
# memory be freed.
_LINE_COSTS: "weakref.WeakKeyDictionary[Memory, tuple[list[int], int]]" = weakref.WeakKeyDictionary()


def _rand_add_pairs(
    memory: Memory,
    exclude_ids: set[str],
    base_tokens: int,
    target: int,
    seed: int,
) -> tuple[list[tuple[str, str]], int]:
    """Random exemplars whose rendered lines still fit under the target, and
    the token count the walk reached (base_tokens plus their line costs).

    Walks the memory in the order of `random.Random(seed).sample(range(N), N)`
    and keeps every exemplar outside exclude_ids whose line still fits. The
    order is replayed lazily rather than drawn whole: for k = n, CPython's
    `Random.sample` always takes its pool branch, whose i-th pick is
    `pool[j]` with `j = _randbelow(n - i)`, after which `pool[j]` takes the
    last open slot `pool[n - i - 1]`. A dict holds only the slots that moved,
    and the walk stops once what the target leaves is below the cheapest line,
    so a call costs the picks it makes, not N.
    `tests/test_rand_add_parity.py` pins this to the full permutation.
    """
    entry = _LINE_COSTS.get(memory)
    ids, texts, labels = memory.ids, memory.texts, memory.labels
    if entry is None:
        costs = [count_tokens(render_exemplar_line(t, lab)) for t, lab in zip(texts, labels)]
        entry = _LINE_COSTS[memory] = (costs, min(costs))
    costs, cheapest = entry
    randbelow = random.Random(seed)._randbelow
    moved: dict[int, int] = {}
    used = base_tokens
    out: list[tuple[str, str]] = []
    for last in range(len(ids) - 1, -1, -1):
        if target - used < cheapest:
            break
        j = randbelow(last + 1)
        i = moved.get(j, j)
        moved[j] = moved.get(last, last)
        if ids[i] in exclude_ids:
            continue
        cost = costs[i]
        if used + cost > target:
            continue
        used += cost
        exclude_ids.add(ids[i])
        out.append((texts[i], labels[i]))
    return out, used


def instance_verifier(inst: EvalInstance, config: ExperimentConfig, seed: int):
    """The mock verifier of one instance under a run seed."""
    return mock_verifier(inst.gold, derive_seed(seed, inst.id, "mock"), config.mock_margin)


def mock_coverage(where: str, gold: str, output: VerifierOutput) -> tuple[bool, bool]:
    """(covered, correct) of one decode under the mock verifier, which answers
    the gold label exactly when it is a candidate, so the two must agree."""
    covered = gold in output.candidate_set
    correct = output.decision == gold
    if covered != correct:
        raise InvariantViolation(f"{where}: mock accuracy diverged from gold coverage")
    return covered, correct


# The four pipeline stages. Every driver composes them, and they call the layer
# functions (encode_context, retrieve_pool, the selectors, compose,
# candidate_labels, score_labels, count_tokens) through this module's globals,
# so wrappers installed on those names at run time (bench/spans.py) see every
# call from every driver.


def retrieve_stage(
    dialogue: DialogueContext,
    memory: Memory,
    retrieval: RetrievalConfig,
    weights: EncoderWeights | None = None,
) -> Pool:
    """Encode the dialogue and rank the memory into a candidate pool."""
    if weights is None:
        weights = EncoderWeights.default(memory.dim)
    z = encode_context(dialogue, weights)
    return retrieve_pool(memory, z, dialogue.current, retrieval)


def select_for_method(
    method: str,
    pool: Pool,
    selection: SelectionConfig,
    lambda_mmr: float,
    seed: int,
) -> SelectedSet:
    """The one selector dispatch, by harness method. Only the random
    selector reads the seed."""
    if method == "ldra":
        return greedy_select(pool, selection)
    if method in ("topk", "topk_rand_add"):
        return topk_select(pool, selection.k, selection.alpha)
    if method == "mmr":
        return mmr_select(pool, selection.k, lambda_mmr, selection.alpha)
    if method == "fps":
        return fps_select(pool, selection.k, selection.alpha)
    if method == "random":
        return random_select(pool, selection.k, seed, selection.alpha)
    raise ConfigError(f"unknown method {method!r}")


def prompt_stage(
    dialogue: DialogueContext,
    pairs: Sequence[tuple[str, str]],
    config: ExperimentConfig,
    budget: BudgetConfig,
    permutation: Sequence[int] | None = None,
) -> Prompt:
    """Compose the prompt under the budget."""
    return compose(config.instruction, dialogue, pairs, budget, permutation=permutation,
                   answer_format=config.answer_format)


def rand_add_fill(
    base: Prompt,
    dialogue: DialogueContext,
    config: ExperimentConfig,
    budget: BudgetConfig,
    memory: Memory,
    exclude_ids: Sequence[str],
    seed: int,
) -> Prompt:
    """`base`, a prompt_stage composition of `dialogue` under the budget, filled
    with random memory exemplars outside exclude_ids; the added pairs are the
    tail of the prompt's exemplars.

    A base that dropped nothing gets the added lines appended and the count
    the walk reached (base plus their line costs): the walk adds only lines
    that fit, so composing again would drop nothing and return the same bytes.
    A base that compression cut is composed again with the added pairs, so
    its drop record comes out as compose writes it."""
    added, reached = _rand_add_pairs(
        memory, set(exclude_ids), base.token_count, budget.max_prompt_tokens, seed
    )
    if not added:
        return base
    if base.dropped_summary_turns or base.dropped_exemplars:
        return compose(config.instruction, dialogue, base.exemplars + tuple(added), budget,
                       answer_format=config.answer_format)
    return append_exemplars(base, added, reached)


def prompt_labels(
    prompt: Prompt, pool: Pool, config: ExperimentConfig
) -> tuple[str, ...]:
    """The label rule: the labels the prompt exposes, extended by the pool's
    shortlist."""
    exposed = [label for _, label in prompt.exemplars]
    return candidate_labels(exposed, pool, config.shortlist_size)


def run_pipeline(
    instance: EvalInstance,
    config: ExperimentConfig,
    memory: Memory,
    verifier,
    weights: EncoderWeights | None = None,
    seed: int = 0,
    pool: Pool | None = None,
) -> PipelineResult:
    """Retrieve, select, prompt and decode one instance; a given pool skips
    the retrieve stage.

    Deterministic under the mock verifier and fixed seeds. Candidate labels
    are derived from the exemplars actually present in the composed prompt,
    extended by the retrieval shortlist.
    """
    clock = StageClock()
    with clock.stage("ann"):
        if pool is None:
            pool = retrieve_stage(instance.dialogue, memory, config.retrieval, weights)
    with clock.stage("div"):
        selection = select_for_method(
            config.method,
            pool,
            config.selection,
            config.lambda_mmr,
            derive_seed(seed, instance.id, "random"),
        )
    with clock.stage("prompt"):
        prompt = prompt_stage(
            instance.dialogue, selection.pairs(), config, config.budget
        )
        if config.method == "topk_rand_add":
            prompt = rand_add_fill(
                prompt, instance.dialogue, config, config.budget, memory, selection.ids(),
                derive_seed(seed, instance.id, "randadd"),
            )
    with clock.stage("llm"):
        output = score_labels(prompt.text, prompt_labels(prompt, pool, config), verifier)
    return PipelineResult(
        instance_id=instance.id,
        prediction=output.decision,
        output=output,
        prompt=prompt,
        selection=selection,
        pool=pool,
        candidate_set=output.candidate_set,
        latency=clock.report(),
    )


def verify_run_invariants(
    result: PipelineResult,
    config: ExperimentConfig,
    instance: EvalInstance,
    mock: bool = True,
) -> None:
    """Runtime self-checks; raises InvariantViolation when any fails."""
    sel = result.selection
    bound = len(result.pool) * config.selection.k
    if sel.sim_ops > bound:
        # Each of the k selection steps scans at most the whole pool.
        raise InvariantViolation(
            f"{instance.id}: selection performed {sel.sim_ops} similarity "
            f"computations; bound is pool_size*k = {bound}"
        )
    if config.method == "ldra":
        for eid, vec_score in zip(sel.ids(), sel.pool.vec_score[sel.rows].tolist()):
            if vec_score < config.selection.tau - 1e-12:
                raise InvariantViolation(f"{instance.id}: selected {eid} below tau")
        for label, n in sel.label_counts.items():
            if n > config.selection.label_cap:
                raise InvariantViolation(f"{instance.id}: label {label} exceeds cap")
    g, d, r = sel.recompute()
    if sel.size and (
        abs(g - sel.g) > 1e-9 or abs(d - sel.dtext) > 1e-9 or abs(r - sel.r) > 1e-9
    ):
        raise InvariantViolation(f"{instance.id}: incremental diversity terms drifted")
    if result.prompt.token_count > config.budget.max_prompt_tokens:
        raise InvariantViolation(f"{instance.id}: prompt exceeds its token budget")
    if mock:
        mock_coverage(instance.id, instance.gold, result.output)


def evaluate(
    memory: Memory,
    corpus: Sequence[EvalInstance],
    config: ExperimentConfig,
    seed: int,
    weights: EncoderWeights | None = None,
    pools: Sequence[Pool] | None = None,
) -> tuple[list[dict], dict, list[LatencyReport]]:
    """Run the pipeline over a corpus; returns per-instance rows, a summary,
    and the measured latency reports (kept out of the deterministic rows).
    Given pools (one per instance, in corpus order) skip the retrieve stage.
    The summary's accuracy is the share of rows whose prediction matches the
    gold label exactly. An empty corpus raises ConfigError."""
    if not corpus:
        raise ConfigError("evaluation needs a non-empty corpus")
    rows: list[dict] = []
    reports: list[LatencyReport] = []
    for i, inst in enumerate(corpus):
        result = run_pipeline(
            inst, config, memory, instance_verifier(inst, config, seed), weights=weights,
            seed=seed, pool=None if pools is None else pools[i],
        )
        verify_run_invariants(result, config, inst)
        reports.append(result.latency)
        rows.append(
            {
                "type": "instance",
                "id": inst.id,
                "method": config.method,
                "seed": seed,
                "prediction": result.prediction,
                "gold": inst.gold,
                "correct": result.prediction == inst.gold,
                "covered": inst.gold in result.candidate_set,
                "tokens": result.prompt.token_count,
                "selected": result.selection.ids(),
                "g": result.selection.g,
                "d": result.selection.dtext,
                "r": result.selection.r,
                "sim_ops": result.selection.sim_ops,
                "verifier_calls": len(result.candidate_set),
            }
        )
    summary = {
        "type": "summary",
        "method": config.method,
        "seed": seed,
        "n": len(corpus),
        "accuracy": sum(1 for r in rows if r["correct"]) / len(rows),
        "coverage_rate": sum(1 for r in rows if r["covered"]) / len(rows),
        "mean_r": sum(r["r"] for r in rows) / len(rows),
        "mean_tokens": sum(r["tokens"] for r in rows) / len(rows),
    }
    return rows, summary, reports


# ---------------------------------------------------------------------------
# Fairness suite
# ---------------------------------------------------------------------------


def _pad_to_target(prompt: Prompt, target: int) -> str:
    """The prompt's text with single-token pad marks appended until it holds
    exactly `target` tokens.

    The count is not retaken: each " ." is one token, and its leading space
    keeps it from joining whatever token the text ends with."""
    if prompt.token_count > target:
        raise CompositionError(
            f"prompt holds {prompt.token_count} tokens, above the {target} target"
        )
    return prompt.text + " ." * (target - prompt.token_count)


def _prefix_replace_pairs(
    pairs: list[tuple[str, str]],
    memory: Memory,
    exclude_ids: Sequence[str],
    seed: int,
) -> list[tuple[str, str]]:
    """Replace the first ceil(n/2) exemplars with random ones of the same label."""
    rng = random.Random(seed)
    out = list(pairs)
    taken = set(exclude_ids)
    for i in range(math.ceil(len(pairs) / 2)):
        label = pairs[i][1]
        choices = [eid for eid in memory.label_index.get(label, ()) if eid not in taken]
        if not choices:
            continue  # label too rare to replace; keep the original
        pick = choices[rng.randrange(len(choices))]
        taken.add(pick)
        out[i] = (memory.get(pick).text, label)
    return out


def fairness_suite(
    memory: Memory,
    corpus: Sequence[EvalInstance],
    config: ExperimentConfig,
    weights: EncoderWeights | None = None,
) -> list[dict]:
    """Budget- and position-controlled comparison across selection arms.

    For every token target, each arm's prompt is composed under that budget and
    its text padded to exactly the target, so realized token counts match
    across arms; the rand-add arm reaches the target with random exemplars
    first (which do extend its exposed label set) and pad marks after. The
    verifier scores each padded text over the labels of the unpadded prompt
    (pad marks expose none). Emits accuracy and coverage per (target, arm) and
    asserts the cross-arm token deviation bound.
    """
    if not corpus:
        raise ConfigError("fairness suite needs a non-empty corpus")
    seed = config.base_seed

    # Retrieval, the base selections, each arm's exemplars and the verifier are
    # target-independent; build them once per instance.
    per_instance = []
    for inst in corpus:
        pool = retrieve_stage(inst.dialogue, memory, config.retrieval, weights)
        bases = {
            m: select_for_method(m, pool, config.selection, config.lambda_mmr, seed)
            for m in ("ldra", "topk")
        }
        arm_inputs = {}
        for arm in FAIRNESS_ARMS:
            base = bases[arm.split("_")[0]]  # each arm is named after its base
            pairs = base.pairs()
            permutation = None
            if arm == "ldra_shuffle":
                permutation = list(range(len(pairs)))
                random.Random(derive_seed(config.fairness.shuffle_seed, inst.id)).shuffle(permutation)
            elif arm == "ldra_prefix_replace":
                pairs = _prefix_replace_pairs(
                    pairs, memory, base.ids(), derive_seed(seed, inst.id, "prefix")
                )
            arm_inputs[arm] = (pairs, permutation, base.ids())
        per_instance.append((inst, pool, arm_inputs, instance_verifier(inst, config, seed)))

    # A plain arm's prompt that dropped nothing is what compose returns at
    # every larger target under the same summary cap; keyed by (instance, arm,
    # summary cap), it is composed and its labels taken once, and it is only
    # padded further. The rand-add arm fills the topk arm's unpadded prompt at
    # the same target, which the arm order composes first; its exemplars
    # change with the target, so its labels are taken at each.
    kept_whole: dict[tuple[int, str, int], tuple[Prompt, tuple[str, ...]]] = {}
    rows: list[dict] = []
    for target in config.fairness.token_targets:
        budget = BudgetConfig(
            max_prompt_tokens=target,
            summary_token_cap=min(config.budget.summary_token_cap, target),
            compression_policy=config.budget.compression_policy,
        )
        try:
            arm_tokens: dict[str, list[int]] = {a: [] for a in FAIRNESS_ARMS}
            arm_correct: dict[str, int] = {a: 0 for a in FAIRNESS_ARMS}
            arm_covered: dict[str, int] = {a: 0 for a in FAIRNESS_ARMS}
            for i, (inst, pool, arm_inputs, verifier) in enumerate(per_instance):
                unpadded: dict[str, Prompt] = {}
                for arm in FAIRNESS_ARMS:
                    pairs, permutation, exclude_ids = arm_inputs[arm]
                    key = (i, arm, budget.summary_token_cap)
                    kept = kept_whole.get(key)
                    if kept is not None:
                        prompt, labels = kept
                        text = _pad_to_target(prompt, target)
                    else:
                        if arm == "topk_rand_add":
                            prompt = rand_add_fill(
                                unpadded["topk"], inst.dialogue, config, budget, memory,
                                exclude_ids, derive_seed(seed, inst.id, "randadd", target),
                            )
                        else:
                            prompt = prompt_stage(inst.dialogue, pairs, config, budget, permutation)
                        # Padding first: a prompt above its target skips the
                        # target before its labels are taken.
                        text = _pad_to_target(prompt, target)
                        labels = prompt_labels(prompt, pool, config)
                        if (arm != "topk_rand_add" and not prompt.dropped_summary_turns
                                and not prompt.dropped_exemplars):
                            kept_whole[key] = (prompt, labels)
                    unpadded[arm] = prompt
                    output = score_labels(text, labels, verifier)
                    covered, correct = mock_coverage(f"{inst.id}/{arm}", inst.gold, output)
                    arm_tokens[arm].append(target)
                    arm_correct[arm] += correct
                    arm_covered[arm] += covered
            means = {a: sum(v) / len(v) for a, v in arm_tokens.items()}
            deviation_pct = (max(means.values()) - min(means.values())) / min(means.values()) * 100.0
            if deviation_pct > TOKEN_DEVIATION_LIMIT_PCT:
                raise InvariantViolation(
                    f"target {target}: cross-arm token deviation {deviation_pct:.2f}% "
                    f"exceeds {TOKEN_DEVIATION_LIMIT_PCT}%"
                )
            n = len(per_instance)
            for arm in FAIRNESS_ARMS:
                rows.append(
                    {
                        "type": "fairness",
                        "target": target,
                        "arm": arm,
                        "n": n,
                        "accuracy": arm_correct[arm] / n,
                        "coverage": arm_covered[arm] / n,
                        "mean_tokens": means[arm],
                        "token_deviation_pct": deviation_pct,
                    }
                )
        except CompositionError as exc:
            rows.append(
                {"type": "fairness_skip", "target": target, "reason": str(exc)}
            )
    return rows


# ---------------------------------------------------------------------------
# Sweeps and grid search
# ---------------------------------------------------------------------------


# Each grid parameter: the config section it sets, its type and its default
# grid. `sweep`'s method axis is no grid parameter.
GRID_PARAMS: dict[str, tuple[str, type, tuple]] = {
    "alpha": ("selection", float, (0.2, 0.5, 0.8)),
    "tau": ("selection", float, (0.2, 0.4, 0.6)),
    "label_cap": ("selection", int, (1, 2)),
    "pool_size": ("retrieval", int, (64, 128, 256)),
    "k": ("selection", int, (4, 6, 8)),
    "lambda_vec": ("retrieval", float, (0.4, 0.6, 0.8)),
    "mu": ("selection", float, (0.0, 0.1, 0.2)),
}

DEFAULT_GRIDS: dict[str, tuple] = {key: grid for key, (_, _, grid) in GRID_PARAMS.items()}

_KIND_NAMES = {int: "integers", float: "finite numbers", str: "strings"}


def _check_axis(name: str, values, kind: type) -> list:
    """The values of one axis; anything but a non-empty list of distinct
    values of the kind (an int, not a bool, for int; a finite int or float for
    float) raises ConfigError."""
    if not (
        isinstance(values, (list, tuple))
        and values
        and all(type(v) is kind or (kind is float and type(v) is int) for v in values)
        and (kind is not float or all(math.isfinite(v) for v in values))
        and len(set(values)) == len(values)
    ):
        raise ConfigError(
            f"{name} must be a non-empty list of distinct {_KIND_NAMES[kind]}, got {values!r}"
        )
    return list(values)


def check_grids(grids: Mapping) -> dict[str, list]:
    """Grid lists keyed by parameter name; no grid, an unknown key, or an axis
    that is not a non-empty list of distinct values of its parameter's type
    raises ConfigError."""
    if not grids:
        raise ConfigError("grid search needs non-empty grids")
    unknown = set(grids) - set(GRID_PARAMS)
    if unknown:
        raise ConfigError(f"unknown grid keys: {sorted(unknown)}")
    return {key: _check_axis(f"grid {key}", v, GRID_PARAMS[key][1]) for key, v in grids.items()}


def _apply_theta(config: ExperimentConfig, theta: Mapping) -> ExperimentConfig:
    """`config` with θ's method and each grid parameter, cast to its type, set
    in its section."""
    changes = {"method": theta["method"]} if "method" in theta else {}
    for key, value in theta.items():
        if key in GRID_PARAMS:
            section, kind, _ = GRID_PARAMS[key]
            changes[section] = replace(changes.get(section, getattr(config, section)),
                                       **{key: kind(value)})
    return replace(config, **changes)


def _grid_runs(memory: Memory, corpus: Sequence[EvalInstance], axes: Mapping[str, Sequence],
               seeds: Sequence[int], config: ExperimentConfig, weights: EncoderWeights | None):
    """The one grid loop: for each θ of the axes' product (keys in axis order,
    values as given), yields θ, its config and one (rows, summary) of
    `evaluate` per seed.

    Each instance is retrieved once per lambda_vec, at the deepest pool_size
    any θ asks for, and each θ scores the prefix its own pool_size keeps: a
    pool is ranked by (-relevance, id), so that prefix is what retrieving at
    the smaller size returns."""
    thetas = [dict(zip(axes, combo)) for combo in itertools.product(*axes.values())]
    configs = [_apply_theta(config, theta) for theta in thetas]
    deepest = max(cfg.retrieval.pool_size for cfg in configs)
    deep_pools: dict[float, list[Pool]] = {}
    for theta, cfg in zip(thetas, configs):
        ret = cfg.retrieval
        if ret.lambda_vec not in deep_pools:
            deep = replace(ret, pool_size=deepest)
            deep_pools[ret.lambda_vec] = [
                retrieve_stage(inst.dialogue, memory, deep, weights) for inst in corpus
            ]
        pools = [pool[: ret.pool_size] for pool in deep_pools[ret.lambda_vec]]
        yield theta, cfg, [evaluate(memory, corpus, cfg, s, pools=pools)[:2] for s in seeds]


def sweep(
    memory: Memory,
    corpus: Sequence[EvalInstance],
    grid: Mapping[str, Sequence],
    seeds: Sequence[int],
    config: ExperimentConfig,
    weights: EncoderWeights | None = None,
) -> list[dict]:
    """Full factorial over {method, k, alpha} (an absent axis takes the
    config's value) with mean/std aggregation over seeds. Each row also
    carries the mean diversity score of the selected sets so score-vs-accuracy
    trends can be read off directly. Another key, or an axis or seed list that
    is empty or repeats a value, raises ConfigError."""
    unknown = set(grid) - {"method", "k", "alpha"}
    if unknown:
        raise ConfigError(f"unknown sweep grid keys: {sorted(unknown)}")
    axes = {
        "method": _check_axis("grid method", grid.get("method", [config.method]), str),
        **check_grids({"k": grid.get("k", [config.selection.k]),
                       "alpha": grid.get("alpha", [config.selection.alpha])}),
    }
    seeds = _check_axis("sweep seeds", seeds, int)
    rows: list[dict] = []
    for _, cfg, runs in _grid_runs(memory, corpus, axes, seeds, config, weights):
        acc = np.array([summary["accuracy"] for _, summary in runs])
        rows.append(
            {
                "type": "sweep",
                "method": cfg.method,
                "k": cfg.selection.k,
                "alpha": cfg.selection.alpha,
                "seeds": list(seeds),
                "accuracy_mean": float(acc.mean()),
                "accuracy_std": float(acc.std()),
                "coverage_mean": float(np.mean([summary["coverage_rate"] for _, summary in runs])),
                "r_mean": float(np.mean([summary["mean_r"] for _, summary in runs])),
            }
        )
    return rows


def grid_search(
    memory: Memory,
    corpus: Sequence[EvalInstance],
    grids: Mapping[str, Sequence],
    budget_b: float,
    lambda_penalty: float,
    config: ExperimentConfig,
    constants: CostConstants | None = None,
    weights: EncoderWeights | None = None,
) -> tuple[dict, list[dict]]:
    """Exhaustive search over bounded grids maximizing the scalarized
    objective on the given dev corpus.

    The latency term is the modeled per-query total under the supplied cost
    constants with empirical mean workload sizes, so the search result is
    deterministic given seeds. Returns (best row, all rows). Grids, budget_b
    and lambda_penalty are checked before the first θ runs.
    """
    grids = check_grids(grids)
    check_objective_terms(budget_b, lambda_penalty)
    if constants is None:
        constants = CostConstants()
    axes = {key: grids[key] for key in GRID_PARAMS if key in grids}
    rows: list[dict] = []
    best: dict | None = None
    mean_terms = mean_turns = 0.0
    for theta, cfg, [(inst_rows, summary)] in _grid_runs(
        memory, corpus, axes, [config.base_seed], config, weights
    ):
        n = len(inst_rows)
        if best is None:  # evaluate has refused an empty corpus by now
            mean_terms = sum(len(tokenize(i.dialogue.current)) for i in corpus) / n
            mean_turns = sum(len(i.dialogue.turns) for i in corpus) / n
        shape = WorkloadShape(
            memory_size=len(memory),
            query_terms=round(mean_terms),
            pool_size=cfg.retrieval.pool_size,
            k=cfg.selection.k,
            turns=round(mean_turns),
            prompt_tokens=round(sum(r["tokens"] for r in inst_rows) / n),
            gen_tokens=round(sum(r["verifier_calls"] for r in inst_rows) / n),
        )
        t_model = model_latency(constants, shape).t_total
        accuracy = summary["accuracy"]
        objective = scalarized_objective(accuracy, t_model, budget_b, lambda_penalty)
        row = {"type": "grid", "theta": theta, "accuracy": accuracy, "modeled_latency": t_model,
               "objective": objective}
        rows.append(row)
        if best is None or objective > best["objective"]:
            best = row
    assert best is not None
    return best, rows
