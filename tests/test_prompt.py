import numpy as np
import pytest

from divsel.encoder import DialogueContext, Turn
from divsel.errors import CompositionError, ConfigError
from divsel.prompt import (
    BudgetConfig,
    DEFAULT_TEMPLATE,
    compose,
    count_tokens,
    load_template,
    render_exemplar_line,
)

E = np.array([1.0, 0.0])


def ctx_with_turns(n_turns, words_per_side=3):
    turns = tuple(
        Turn(
            user=" ".join(f"u{t}w{i}" for i in range(words_per_side)),
            agent=" ".join(f"a{t}w{i}" for i in range(words_per_side)),
            user_embedding=E,
            agent_embedding=E,
        )
        for t in range(n_turns)
    )
    return DialogueContext(turns=turns, current="book a taxi", current_embedding=E)


class TestCountTokens:
    def test_empty(self):
        assert count_tokens("") == 0

    def test_whitespace_split(self):
        assert count_tokens("book a taxi") == 3

    def test_punctuation_counts_separately(self):
        assert count_tokens("taxi, now!") == 4

    def test_newlines_are_free(self):
        assert count_tokens("a\nb\n\nc") == count_tokens("a b c")


def compose_summary(ctx, cap):
    """The summary section compose keeps under a summary cap of `cap` when the
    prompt budget drops nothing."""
    return compose("Classify.", ctx, [], BudgetConfig(max_prompt_tokens=10_000, summary_token_cap=cap)).summary


class TestSummarizeHistory:
    def test_empty_history(self):
        assert compose_summary(ctx_with_turns(0), cap=100) == ""

    def test_everything_fits_verbatim(self):
        ctx = ctx_with_turns(2)
        summary = compose_summary(ctx, cap=1000)
        assert "u0w0" in summary and "a1w2" in summary
        assert summary.index("u0w0") < summary.index("u1w0")

    def test_cap_keeps_most_recent_turns_in_order(self):
        """Each rendered turn costs 10 tokens here ('User:' adds 2, 'Agent:' adds 2,
        three words per side); a 30-token cap admits exactly the last 3 of 10."""
        ctx = ctx_with_turns(10)
        per_turn = count_tokens("User: u0w0 u0w1 u0w2\nAgent: a0w0 a0w1 a0w2")
        summary = compose_summary(ctx, cap=3 * per_turn)
        assert [f"u{t}w0" in summary for t in range(10)] == [t >= 7 for t in range(10)]
        assert summary.index("u7w0") < summary.index("u8w0") < summary.index("u9w0")

    def test_zero_cap_is_empty(self):
        assert compose_summary(ctx_with_turns(3), cap=0) == ""


class TestCompose:
    def pairs(self, n):
        return [(f"exemplar text number {i}", f"label_{i}") for i in range(n)]

    def test_exact_token_accounting(self):
        ctx = ctx_with_turns(1)
        prompt = compose("Classify.", ctx, self.pairs(2), BudgetConfig(max_prompt_tokens=500))
        assert prompt.token_count == count_tokens(prompt.text)
        for text, label in self.pairs(2):
            assert render_exemplar_line(text, label) in prompt.text

    def test_section_order(self):
        ctx = ctx_with_turns(1)
        prompt = compose("INSTRUCT", ctx, self.pairs(1), BudgetConfig())
        t = prompt.text
        assert (
            t.index("INSTRUCT")
            < t.index("u0w0")
            < t.index("book a taxi")
            < t.index("exemplar text number 0")
            < t.index(prompt.answer_format)
        )

    def test_budget_drops_trailing_exemplar_and_records_it(self):
        ctx = ctx_with_turns(0)
        full = compose("Classify.", ctx, self.pairs(3), BudgetConfig(max_prompt_tokens=500))
        line_cost = count_tokens(render_exemplar_line(*self.pairs(3)[2]))
        tight = BudgetConfig(max_prompt_tokens=full.token_count - 1, summary_token_cap=0)
        squeezed = compose("Classify.", ctx, self.pairs(3), tight)
        assert len(squeezed.exemplars) == 2
        assert squeezed.dropped_exemplars
        assert squeezed.token_count == full.token_count - line_cost

    def test_summary_shrinks_before_exemplars(self):
        ctx = ctx_with_turns(4)
        roomy = compose("Classify.", ctx, self.pairs(2), BudgetConfig(max_prompt_tokens=500))
        cap = roomy.token_count - 1
        tight = BudgetConfig(max_prompt_tokens=cap, summary_token_cap=cap)
        squeezed = compose("Classify.", ctx, self.pairs(2), tight)
        assert squeezed.dropped_summary_turns >= 1
        assert len(squeezed.exemplars) == 2

    def test_permutation_preserves_token_count(self):
        ctx = ctx_with_turns(2)
        budget = BudgetConfig(max_prompt_tokens=500)
        base = compose("Classify.", ctx, self.pairs(4), budget)
        permuted = compose("Classify.", ctx, self.pairs(4), budget, permutation=[3, 1, 0, 2])
        assert permuted.token_count == base.token_count
        assert permuted.exemplars == tuple(base.exemplars[i] for i in [3, 1, 0, 2])
        assert permuted.text != base.text

    def test_bad_permutation_rejected(self):
        ctx = ctx_with_turns(0)
        with pytest.raises(ConfigError):
            compose("x", ctx, self.pairs(2), BudgetConfig(), permutation=[0, 0])

    def test_instruction_alone_over_budget_fails(self):
        ctx = ctx_with_turns(0)
        instruction = " ".join(f"w{i}" for i in range(50))
        with pytest.raises(CompositionError):
            compose(instruction, ctx, [], BudgetConfig(max_prompt_tokens=20, summary_token_cap=0))

    def test_strict_policy_fails_instead_of_compressing(self):
        ctx = ctx_with_turns(3)
        roomy = compose("Classify.", ctx, self.pairs(2), BudgetConfig(max_prompt_tokens=500))
        cap = roomy.token_count - 1
        tight = BudgetConfig(
            max_prompt_tokens=cap, summary_token_cap=cap, compression_policy="strict"
        )
        with pytest.raises(CompositionError):
            compose("Classify.", ctx, self.pairs(2), tight)

    def test_compression_monotone(self):
        """Every compression step strictly shrinks the prompt, so composing at
        successively tighter budgets never grows the token count."""
        ctx = ctx_with_turns(5)
        budgets = [400, 150, 120, 90, 60]
        counts = [
            compose(
                "Classify.",
                ctx,
                self.pairs(3),
                BudgetConfig(max_prompt_tokens=b, summary_token_cap=min(b, 128)),
            ).token_count
            for b in budgets
        ]
        assert counts == sorted(counts, reverse=True)
        assert all(c <= b for c, b in zip(counts, budgets))

    def test_zero_shot_mode(self):
        ctx = ctx_with_turns(0)
        prompt = compose("Classify.", ctx, [], BudgetConfig())
        assert prompt.exemplars == ()
        assert prompt.token_count > 0

    def test_deterministic_bytes(self):
        ctx = ctx_with_turns(3)
        a = compose("Classify.", ctx, self.pairs(3), BudgetConfig())
        b = compose("Classify.", ctx, self.pairs(3), BudgetConfig())
        assert a.text == b.text


class TestTemplate:
    def test_custom_template_round_trip(self, tmp_path):
        path = tmp_path / "tpl.txt"
        path.write_text(
            "{INSTRUCTION}|{SUMMARY}|{CURRENT}|{EXEMPLARS}|{ANSWER_FORMAT}", encoding="utf-8"
        )
        template = load_template(path)
        ctx = ctx_with_turns(0)
        prompt = compose("I", ctx, [("t", "l")], BudgetConfig(), template=template)
        assert prompt.text.startswith("I|")

    def test_missing_placeholder_rejected(self, tmp_path):
        path = tmp_path / "tpl.txt"
        path.write_text("{INSTRUCTION} only", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_template(path)

    def test_default_template_has_all_placeholders(self):
        for ph in ("{INSTRUCTION}", "{SUMMARY}", "{CURRENT}", "{EXEMPLARS}", "{ANSWER_FORMAT}"):
            assert ph in DEFAULT_TEMPLATE


class TestPlaceholdersInText:
    """The template is filled in one pass over the template itself, so a
    placeholder written inside user text is kept verbatim."""

    def test_placeholders_in_inserted_text_stay_literal(self):
        turn = Turn(
            user="say {SUMMARY} twice",
            agent="ok {CURRENT}",
            user_embedding=E,
            agent_embedding=E,
        )
        ctx = DialogueContext(
            turns=(turn,), current="book it {ANSWER_FORMAT} now", current_embedding=E
        )
        p = compose(
            "Classify {EXEMPLARS}.",
            ctx,
            [("find {INSTRUCTION} please", "lab{CURRENT}")],
            BudgetConfig(),
            answer_format="Answer briefly.",
        )
        expected = (
            "Classify {EXEMPLARS}.\n\n"
            "Conversation so far:\nUser: say {SUMMARY} twice\nAgent: ok {CURRENT}\n\n"
            "Current utterance:\nUser: book it {ANSWER_FORMAT} now\n\n"
            "Exemplars:\nUser: find {INSTRUCTION} please => Intent: lab{CURRENT}\n\n"
            "Answer briefly."
        )
        assert p.text == expected
        assert p.text.count("Answer briefly.") == 1
        assert p.token_count == count_tokens(p.text)


class TestBudgetConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            BudgetConfig(max_prompt_tokens=0)
        with pytest.raises(ConfigError):
            BudgetConfig(max_prompt_tokens=100, summary_token_cap=200)
        with pytest.raises(ConfigError):
            BudgetConfig(compression_policy="yolo")
