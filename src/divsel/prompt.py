r"""Structured prompt assembly with exact token accounting and compression.

The default token counter takes a token to be a run of word characters or a
single character that is neither a word character nor whitespace, the tokens
of the regex ``\w+|[^\w\s]``, which the tests keep as its oracle. It does not
build the token list: one ``str.translate`` maps each character onto its
class (word, whitespace or other), with the classes taken from that regex's
own ``\w`` and ``\s`` the first time a code point is seen, and the count is
the "other" characters plus the word runs. It is deterministic across
platforms, and count_tokens is still where an external tokenizer plugs in.
Compression shrinks the history summary first (oldest turn out first), then
drops trailing exemplars, and records everything it removed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from .encoder import DialogueContext
from .errors import CompositionError, ConfigError
from .files import read_text

_WORD_RE = re.compile(r"\w")
_SPACE_RE = re.compile(r"\s")


class _TokenClasses(dict):
    """A ``str.translate`` table from code point to token class: "a" for a
    word character, " " for whitespace, "." for anything else. A code point
    is classified by the regexes on first sight and kept."""

    def __missing__(self, code: int) -> str:
        char = chr(code)
        cls = "a" if _WORD_RE.match(char) else " " if _SPACE_RE.match(char) else "."
        self[code] = cls
        return cls


_TOKEN_CLASSES = _TokenClasses()

DEFAULT_INSTRUCTION = (
    "You are an intent classifier. Use the exemplars to label the current "
    "user utterance with exactly one intent."
)
DEFAULT_ANSWER_FORMAT = "Answer with a single intent label and nothing else."

DEFAULT_TEMPLATE = """{INSTRUCTION}

Conversation so far:
{SUMMARY}

Current utterance:
User: {CURRENT}

Exemplars:
{EXEMPLARS}

{ANSWER_FORMAT}"""

PLACEHOLDERS = ("{INSTRUCTION}", "{SUMMARY}", "{CURRENT}", "{EXEMPLARS}", "{ANSWER_FORMAT}")
_PLACEHOLDER_RE = re.compile("|".join(map(re.escape, PLACEHOLDERS)))

COMPRESSION_POLICIES = ("summary-first", "strict")


def count_tokens(text: str) -> int:
    r"""The number of ``\w+|[^\w\s]`` tokens in `text`: each non-word,
    non-space character plus each run of word characters."""
    classes = text.translate(_TOKEN_CLASSES)
    return classes.count(".") + len(classes.replace(".", " ").split())


@dataclass(frozen=True)
class BudgetConfig:
    """Prompt budget: overall cap, summary cap, and what to do when over."""

    max_prompt_tokens: int = 400
    summary_token_cap: int = 128
    compression_policy: str = "summary-first"

    def __post_init__(self):
        if self.max_prompt_tokens <= 0:
            raise ConfigError("max_prompt_tokens must be positive")
        if self.summary_token_cap < 0:
            raise ConfigError("summary_token_cap must be >= 0")
        if self.summary_token_cap > self.max_prompt_tokens:
            raise ConfigError("summary_token_cap cannot exceed max_prompt_tokens")
        if self.compression_policy not in COMPRESSION_POLICIES:
            raise ConfigError(f"unknown compression policy {self.compression_policy!r}")


@dataclass(frozen=True)
class Prompt:
    """A fully rendered prompt with its exact token count and drop record."""

    instruction: str
    summary: str
    current: str
    exemplars: tuple[tuple[str, str], ...]
    answer_format: str
    text: str
    token_count: int
    dropped_summary_turns: int = 0
    dropped_exemplars: tuple[str, ...] = ()


def render_exemplar_line(text: str, label: str) -> str:
    return f"User: {text} => Intent: {label}"


def _render_turn(user: str, agent: str) -> str:
    return f"User: {user}\nAgent: {agent}"


def _summary_turns(ctx: DialogueContext, cap: int) -> list[str]:
    """Whole-turn renderings that fit the cap, most recent backward, returned
    in chronological order."""
    if cap < 0:
        raise ConfigError("summary cap must be >= 0")
    kept: list[str] = []
    used = 0
    for turn in reversed(ctx.turns):
        rendered = _render_turn(turn.user, turn.agent)
        cost = count_tokens(rendered)
        if used + cost > cap:
            break
        kept.append(rendered)
        used += cost
    kept.reverse()
    return kept


def load_template(path: str | Path) -> str:
    template = read_text(path)
    for placeholder in PLACEHOLDERS:
        if placeholder not in template:
            raise ConfigError(f"template is missing the {placeholder} placeholder")
    return template


def _render(
    template: str,
    instruction: str,
    summary: str,
    current: str,
    lines: Sequence[str],
    answer_format: str,
) -> str:
    """Fill the template's placeholders in one pass over the template alone,
    so a placeholder inside an inserted text stays as written."""
    values = {
        "{INSTRUCTION}": instruction,
        "{SUMMARY}": summary,
        "{CURRENT}": current,
        "{EXEMPLARS}": "\n".join(lines),
        "{ANSWER_FORMAT}": answer_format,
    }
    return _PLACEHOLDER_RE.sub(lambda m: values[m.group()], template)


def append_exemplars(prompt: Prompt, pairs: Sequence[tuple[str, str]], token_count: int) -> Prompt:
    """`prompt`, composed under DEFAULT_TEMPLATE, with `pairs` appended to its
    exemplar block, counted as `token_count` without retokenizing. The caller
    adds each added line's count to the prompt's: in DEFAULT_TEMPLATE the block
    sits between newlines and its lines are joined by newlines, so no token
    spans a junction."""
    exemplars = prompt.exemplars + tuple(pairs)
    lines = [render_exemplar_line(t, l) for t, l in exemplars]
    text = _render(DEFAULT_TEMPLATE, prompt.instruction, prompt.summary, prompt.current, lines,
                   prompt.answer_format)
    return replace(prompt, exemplars=exemplars, text=text, token_count=token_count)


def compose(
    instruction: str,
    ctx: DialogueContext,
    selected,
    budget: BudgetConfig,
    permutation: Sequence[int] | None = None,
    template: str = DEFAULT_TEMPLATE,
    answer_format: str = DEFAULT_ANSWER_FORMAT,
) -> Prompt:
    """Assemble the prompt sections in fixed order under the token budget.

    `selected` is a sequence of (text, label) pairs; an empty sequence
    composes a zero-shot prompt. A permutation reorders the exemplar block
    without changing the token count.
    """
    pairs = [(str(t), str(l)) for t, l in selected]
    if permutation is not None:
        if sorted(permutation) != list(range(len(pairs))):
            raise ConfigError("permutation must reorder exactly the selected exemplars")
        pairs = [pairs[i] for i in permutation]

    turns = _summary_turns(ctx, budget.summary_token_cap)
    dropped_turns = 0
    dropped_exemplars: list[str] = []
    while True:
        lines = [render_exemplar_line(t, l) for t, l in pairs]
        text = _render(template, instruction, "\n".join(turns), ctx.current, lines, answer_format)
        tokens = count_tokens(text)
        if tokens <= budget.max_prompt_tokens:
            return Prompt(
                instruction=instruction,
                summary="\n".join(turns),
                current=ctx.current,
                exemplars=tuple(pairs),
                answer_format=answer_format,
                text=text,
                token_count=tokens,
                dropped_summary_turns=dropped_turns,
                dropped_exemplars=tuple(dropped_exemplars),
            )
        if budget.compression_policy == "strict":
            raise CompositionError(
                f"prompt needs {tokens} tokens but the budget is {budget.max_prompt_tokens}"
            )
        if turns:
            turns.pop(0)
            dropped_turns += 1
        elif pairs:
            text_dropped, label_dropped = pairs.pop()
            dropped_exemplars.append(f"{text_dropped} => {label_dropped}")
        else:
            raise CompositionError(
                f"fixed sections need {tokens} tokens but the budget is "
                f"{budget.max_prompt_tokens}; nothing left to drop"
            )
