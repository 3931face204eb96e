import math
import warnings

import numpy as np
import pytest

from divsel.encoder import (
    DialogueContext,
    EncoderWeights,
    Turn,
    encode_context,
    layer_norm,
    load_weights,
    save_weights,
)
from divsel.errors import (
    DimensionError,
    EncodingError,
    MemoryFormatError,
    VersionMismatchError,
)

D = 6


def unit(rng):
    v = rng.normal(size=D)
    return v / np.linalg.norm(v)


def make_ctx(rng, n_turns):
    turns = tuple(
        Turn(f"user {t}", f"agent {t}", unit(rng), unit(rng)) for t in range(n_turns)
    )
    return DialogueContext(turns=turns, current="current", current_embedding=unit(rng))


def full_attention(ctx, w):
    """The encoder formula in full, with no shortcut for zero value
    projections: softmax attention over user and agent turns with the
    recency kernel, value projections, sum, layer norm."""
    d = w.dim
    e_q = ctx.current_embedding
    n = len(ctx.turns) + 1
    user_sum, agent_sum = np.zeros(d), np.zeros(d)
    if ctx.turns:
        h = np.stack([t.user_embedding for t in ctx.turns])
        g = np.stack([t.agent_embedding for t in ctx.turns])
        q_proj = w.w_q @ e_q
        rec = np.array([w.recency_weight * (-w.recency_lambda * (n - t)) for t in range(1, n)])

        def softmax(x):
            e = np.exp(x - x.max())
            return e / e.sum()

        beta = softmax((h @ w.w_k.T) @ q_proj / math.sqrt(d) + rec)
        gamma = softmax((g @ w.w_k.T) @ q_proj / math.sqrt(d) + rec)
        user_sum = w.w_v @ (beta @ h)
        agent_sum = w.w_v_prime @ (gamma @ g)
    return layer_norm(e_q + user_sum + agent_sum)


def history_ctx(e_q, history):
    """A context over the current embedding e_q whose turn t has user and
    agent embeddings history[t]."""
    turns = tuple(Turn(f"u{t}", f"a{t}", np.array(u), np.array(a))
                  for t, (u, a) in enumerate(history))
    return DialogueContext(turns=turns, current="x", current_embedding=np.array(e_q))


class TestZeroValueProjections:
    """Under all-zero value projections `encode_context` skips the attention
    arithmetic; `full_attention` is its oracle."""

    def test_zero_values_is_derived_from_the_value_projections(self):
        eye, zero = np.eye(3), np.zeros((3, 3))
        assert EncoderWeights.default(3).zero_values
        assert EncoderWeights(eye, eye, zero, zero, 0.5, 1.0).zero_values
        assert not EncoderWeights(eye, eye, 1e-300 * eye, zero).zero_values
        assert not EncoderWeights(eye, eye, zero, -eye).zero_values
        with pytest.raises(TypeError):
            EncoderWeights(eye, eye, zero, zero, zero_values=True)

    @pytest.mark.parametrize("seed", range(8))
    def test_bit_equal_to_full_attention_on_random_history(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 12))
        zero = np.zeros((d, d))
        weights = [EncoderWeights.default(d),
                   EncoderWeights(rng.normal(size=(d, d)), rng.normal(size=(d, d)), zero, zero,
                                  float(rng.uniform(0, 2)), float(rng.uniform(0, 2)))]
        for n_turns in range(4):
            e_q = rng.normal(size=d)
            e_q[rng.random(d) < 0.3] = -0.0
            history = [(rng.normal(scale=10.0 ** rng.integers(-3, 4), size=d),
                        rng.normal(size=d)) for _ in range(n_turns)]
            ctx = history_ctx(e_q, history)
            for w in weights:
                assert w.zero_values
                assert encode_context(ctx, w).tobytes() == full_attention(ctx, w).tobytes()
            assert encode_context(ctx, weights[0]).tobytes() == layer_norm(
                e_q + np.zeros(d) + np.zeros(d)).tobytes()

    def test_negative_zero_rounds_as_the_full_formula(self):
        """With a mean of exactly 0, a -0.0 entry of e_q would come out -0.0
        without the zero sums; the full formula adds them and gives +0.0."""
        e_q = [-0.0, 1.0, -1.0, -0.0, 0.5, -0.5]
        for history in ([], [([0.3] * 6, [-0.2] * 6)]):
            ctx = history_ctx(e_q, history)
            w = EncoderWeights.default(6)
            out = encode_context(ctx, w)
            assert out.tobytes() == full_attention(ctx, w).tobytes()
            assert not np.signbit(out[[0, 3]]).any()

    def test_history_that_overflows_the_logits_contributes_nothing(self):
        """Every history entry 1e308 at d=8 overflows the attention logits:
        the full formula's blended vector comes out NaN, which layer_norm
        refuses, and the zero-projection path gives the no-history encoding."""
        e_q = np.linspace(0.1, 0.8, 8)
        ctx = history_ctx(e_q, [([1e308] * 8, [1e308] * 8)] * 2)
        w = EncoderWeights.default(8)
        with np.errstate(all="ignore"), pytest.raises(EncodingError, match="too large"):
            full_attention(ctx, w)
        out = encode_context(ctx, w)
        assert out.tobytes() == encode_context(history_ctx(e_q, []), w).tobytes()
        assert np.isfinite(out).all()

    @pytest.mark.parametrize("bad, error", [
        (np.full(D, np.nan), EncodingError),
        (np.array([0.0, np.inf, 0.0, 0.0, 0.0, 0.0]), EncodingError),
        (np.zeros(D + 1), DimensionError),
        (np.zeros((2, D)), DimensionError),
    ])
    @pytest.mark.parametrize("side", ["user", "agent"])
    def test_bad_turn_embedding_still_raises(self, bad, error, side):
        rng = np.random.default_rng(2)
        good = unit(rng)
        turn = (bad, good) if side == "user" else (good, bad)
        ctx = DialogueContext(turns=(Turn("u0", "a0", good, good), Turn("u1", "a1", *turn)),
                              current="x", current_embedding=unit(rng))
        with pytest.raises(error, match=f"turn 1 {side} embedding"):
            encode_context(ctx, EncoderWeights.default(D))

    def test_non_zero_weights_run_the_full_formula(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            mats = [rng.normal(size=(D, D)) for _ in range(4)]
            mats[int(rng.integers(2, 4))] = np.zeros((D, D))  # one value projection zero
            w = EncoderWeights(*mats, float(rng.uniform(0, 2)), float(rng.uniform(0, 2)))
            assert not w.zero_values
            ctx = make_ctx(rng, int(rng.integers(1, 5)))
            assert encode_context(ctx, w).tobytes() == full_attention(ctx, w).tobytes()


class TestEncodeContext:
    def test_empty_history_is_layer_normed_current(self):
        rng = np.random.default_rng(0)
        ctx = make_ctx(rng, 0)
        w = EncoderWeights.default(D)
        z = encode_context(ctx, w)
        np.testing.assert_allclose(z, layer_norm(ctx.current_embedding), atol=1e-12)

    def test_single_turn_gets_full_attention(self):
        """With one history turn the softmax is over a single element, so the
        result must not depend on the recency knobs."""
        rng = np.random.default_rng(1)
        ctx = make_ctx(rng, 1)
        w_mix = EncoderWeights(
            w_q=np.eye(D), w_k=np.eye(D), w_v=0.3 * np.eye(D), w_v_prime=0.2 * np.eye(D),
            recency_lambda=0.0, recency_weight=0.0,
        )
        w_recency = EncoderWeights(
            w_q=np.eye(D), w_k=np.eye(D), w_v=0.3 * np.eye(D), w_v_prime=0.2 * np.eye(D),
            recency_lambda=2.5, recency_weight=3.0,
        )
        np.testing.assert_allclose(
            encode_context(ctx, w_mix), encode_context(ctx, w_recency), atol=1e-12
        )
        expected = layer_norm(
            ctx.current_embedding
            + 0.3 * ctx.turns[0].user_embedding
            + 0.2 * ctx.turns[0].agent_embedding
        )
        np.testing.assert_allclose(encode_context(ctx, w_mix), expected, atol=1e-12)

    def test_recency_prefers_later_of_identical_turns(self):
        """Two identical history embeddings: the dot-product logits tie, so the
        recency kernel alone decides and the later turn gets more weight.
        Verified against a direct evaluation of the attention formula."""
        rng = np.random.default_rng(2)
        h = unit(rng)
        g = unit(rng)
        cur = unit(rng)
        ctx = DialogueContext(
            turns=(Turn("u1", "a1", h, g), Turn("u2", "a2", h, g)),
            current="now",
            current_embedding=cur,
        )
        lam, rho = 0.7, 1.3
        w = EncoderWeights(
            w_q=np.eye(D), w_k=np.eye(D), w_v=np.eye(D), w_v_prime=np.zeros((D, D)),
            recency_lambda=lam, recency_weight=rho,
        )
        # direct evaluation: logits = <cur, h>/sqrt(D) + rho * (-lam * (n - t)), n = 3
        dot = float(cur @ h) / math.sqrt(D)
        logits = np.array([dot + rho * -lam * 2, dot + rho * -lam * 1])
        beta = np.exp(logits - logits.max())
        beta /= beta.sum()
        assert beta[1] > beta[0]
        expected = layer_norm(cur + (beta[0] + beta[1]) * h)
        np.testing.assert_allclose(encode_context(ctx, w), expected, atol=1e-12)

    def test_attention_weights_sum_to_one_indirectly(self):
        """With W_v = identity and all user embeddings equal, the attention sum
        collapses to that embedding regardless of weight distribution."""
        rng = np.random.default_rng(3)
        h = unit(rng)
        turns = tuple(Turn(f"u{t}", f"a{t}", h, unit(rng)) for t in range(4))
        ctx = DialogueContext(turns=turns, current="x", current_embedding=unit(rng))
        w = EncoderWeights(
            w_q=np.eye(D), w_k=np.eye(D), w_v=np.eye(D), w_v_prime=np.zeros((D, D)),
            recency_lambda=0.9, recency_weight=1.0,
        )
        expected = layer_norm(ctx.current_embedding + h)
        np.testing.assert_allclose(encode_context(ctx, w), expected, atol=1e-10)

    def test_zero_value_projections_ignore_history(self):
        rng = np.random.default_rng(4)
        ctx = make_ctx(rng, 3)
        z = encode_context(ctx, EncoderWeights.default(D))
        np.testing.assert_allclose(z, layer_norm(ctx.current_embedding), atol=1e-12)

    def test_zero_recency_weight_kills_the_kernel(self):
        """With rho = 0 the recency decay cannot influence the encoding."""
        rng = np.random.default_rng(14)
        ctx = make_ctx(rng, 4)
        base = dict(w_q=np.eye(D), w_k=np.eye(D), w_v=0.4 * np.eye(D),
                    w_v_prime=0.1 * np.eye(D), recency_weight=0.0)
        a = encode_context(ctx, EncoderWeights(**base, recency_lambda=0.0))
        b = encode_context(ctx, EncoderWeights(**base, recency_lambda=5.0))
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(5)
        ctx = make_ctx(rng, 1)
        with pytest.raises(DimensionError):
            encode_context(ctx, EncoderWeights.default(D + 1))

    @pytest.mark.parametrize("current, cause", [
        ([0.5] * D, "constant across its dimensions to zero"),
        ([1e300, -1e300] * (D // 2), "too large to normalize"),
        ([1e308] * D, "too large to normalize"),
    ])
    def test_degenerate_current_embedding_names_its_cause(self, current, cause):
        """A constant embedding layer-normalizes to zero and one whose
        centred squares (or whose mean) overflow to no direction at all;
        either raises EncodingError naming why, and numpy warns of nothing."""
        ctx = DialogueContext(turns=(), current="x", current_embedding=np.array(current))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EncodingError, match=cause):
                encode_context(ctx, EncoderWeights.default(D))

    def test_nan_embedding_rejected(self):
        bad = np.full(D, np.nan)
        ctx = DialogueContext(turns=(), current="x", current_embedding=bad)
        with pytest.raises(EncodingError):
            encode_context(ctx, EncoderWeights.default(D))


class TestWeightsIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        w = EncoderWeights(
            w_q=rng.normal(size=(D, D)), w_k=rng.normal(size=(D, D)),
            w_v=rng.normal(size=(D, D)), w_v_prime=rng.normal(size=(D, D)),
            recency_lambda=0.4, recency_weight=1.7,
        )
        path = tmp_path / "enc.divenc"
        save_weights(w, path)
        back = load_weights(path)
        for name in ("w_q", "w_k", "w_v", "w_v_prime"):
            assert np.array_equal(getattr(back, name), getattr(w, name))
        assert back.recency_lambda == w.recency_lambda
        assert back.recency_weight == w.recency_weight
        ctx = make_ctx(rng, 3)
        assert np.array_equal(encode_context(ctx, back), encode_context(ctx, w))

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "enc.divenc"
        save_weights(EncoderWeights.default(3), path)
        data = bytearray(path.read_bytes())
        data[10:14] = (9).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(VersionMismatchError):
            load_weights(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "enc.divenc"
        save_weights(EncoderWeights.default(3), path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(MemoryFormatError, match="truncated"):
            load_weights(path)

    def test_oversized_dimension_fails_before_reading(self, tmp_path):
        path = tmp_path / "enc.divenc"
        save_weights(EncoderWeights.default(3), path)
        data = bytearray(path.read_bytes())
        data[14:18] = (2**32 - 1).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(MemoryFormatError, match="truncated file while reading w_q"):
            load_weights(path)

    def test_zero_dimension_rejected(self, tmp_path):
        path = tmp_path / "enc.divenc"
        save_weights(EncoderWeights.default(3), path)
        data = path.read_bytes()
        path.write_bytes(data[:14] + (0).to_bytes(4, "little") + data[-16:])
        with pytest.raises(DimensionError, match="dimension >= 1"):
            load_weights(path)

    def test_default_weights_are_built_once_per_dimension_and_read_only(self):
        w = EncoderWeights.default(5)
        assert EncoderWeights.default(5) is w
        assert EncoderWeights.default(4).dim == 4
        with pytest.raises(ValueError):
            w.w_q[0, 0] = 2.0

    @pytest.mark.parametrize("field", ["w_q", "w_v_prime", "recency_lambda", "recency_weight"])
    def test_non_finite_entries_rejected(self, field):
        values = {"w_q": np.eye(3), "w_k": np.eye(3), "w_v": np.zeros((3, 3)),
                  "w_v_prime": np.zeros((3, 3)), "recency_lambda": 0.0, "recency_weight": 0.0}
        if field.startswith("w_"):
            values[field] = values[field].copy()
            values[field][1, 2] = np.nan
        else:
            values[field] = float("nan")
        with pytest.raises(EncodingError, match="finite"):
            EncoderWeights(**values)
