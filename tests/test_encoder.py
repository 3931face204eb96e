import math

import numpy as np
import pytest

from divsel.encoder import (
    DialogueContext,
    EncoderWeights,
    Turn,
    distill_loss,
    distill_loss_gradient,
    encode_context,
    finite_difference_check,
    layer_norm,
    load_weights,
    metric_loss,
    metric_loss_gradient,
    save_weights,
)
from divsel.errors import (
    ConfigError,
    DimensionError,
    EncodingError,
    MemoryFormatError,
    NonSmoothError,
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


class TestMetricLoss:
    def test_perfect_same_pair_contributes_zero(self):
        e = np.array([1.0, 0.0])
        assert metric_loss([(e, e, True)], margin=0.2) == 0.0

    def test_different_pair_above_margin(self):
        u = np.array([1.0, 0.0])
        v = np.array([0.5, math.sqrt(0.75)])  # cosine 0.5
        np.testing.assert_allclose(metric_loss([(u, v, False)], 0.2), 0.3, atol=1e-12)

    def test_different_pair_below_margin(self):
        u = np.array([1.0, 0.0])
        s = 0.1
        v = np.array([s, math.sqrt(1 - s * s)])
        assert metric_loss([(u, v, False)], 0.2) == 0.0

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(7)
        pairs = [(unit(rng), unit(rng), bool(rng.integers(2))) for _ in range(50)]
        assert metric_loss(pairs, 0.2) >= 0.0

    def test_margin_validation(self):
        with pytest.raises(ConfigError):
            metric_loss([], margin=1.5)


class TestDistillLoss:
    def test_uniform_self_distillation_is_ln2(self):
        t = {"a": 0.0, "b": 0.0}
        np.testing.assert_allclose(distill_loss(t, 1.0, t), math.log(2), atol=1e-12)

    def test_identical_distributions_give_entropy(self):
        t = {"a": 3.0, "b": 0.0, "c": -1.0}
        z = np.array([3.0, 0.0, -1.0])
        p = np.exp(z - z.max())
        p /= p.sum()
        entropy = float(-(p * np.log(p)).sum())
        np.testing.assert_allclose(distill_loss(t, 1.0, dict(t)), entropy, atol=1e-12)

    def test_perturbing_wrong_label_increases_loss(self):
        """Numeric check: bumping the low-probability label's student logit by
        0.1 moves the student away from the teacher."""
        teacher = {"a": 2.0, "b": 0.0}
        base = distill_loss(teacher, 1.0, {"a": 2.0, "b": 0.0})
        perturbed = distill_loss(teacher, 1.0, {"a": 2.0, "b": 0.1})
        assert perturbed > base

    def test_shift_invariance_in_student_logits(self):
        rng = np.random.default_rng(8)
        teacher = {f"l{i}": float(rng.normal()) for i in range(5)}
        student = {f"l{i}": float(rng.normal()) for i in range(5)}
        shifted = {k: v + 17.3 for k, v in student.items()}
        np.testing.assert_allclose(
            distill_loss(teacher, 1.1, student), distill_loss(teacher, 1.1, shifted), atol=1e-9
        )

    def test_label_set_mismatch(self):
        with pytest.raises(ConfigError):
            distill_loss({"a": 0.0}, 1.0, {"b": 0.0})

    def test_temperature_must_be_positive(self):
        with pytest.raises(ConfigError):
            distill_loss({"a": 0.0}, 0.0, {"a": 0.0})


def _metric_point_fns(same_flags, margin, dim=4):
    """Bundle metric_loss over a flat parameter vector of stacked pair vectors."""
    n = len(same_flags)

    def unpack(x):
        vecs = x.reshape(2 * n, dim)
        return [(vecs[2 * i], vecs[2 * i + 1], same_flags[i]) for i in range(n)]

    def f(x):
        return metric_loss(unpack(x), margin)

    def grad(x):
        gu, gv = metric_loss_gradient(unpack(x), margin)
        out = np.zeros((2 * n, dim))
        for i in range(n):
            out[2 * i] = gu[i]
            out[2 * i + 1] = gv[i]
        return out.ravel()

    return f, grad


class TestFiniteDifferenceCheck:
    def test_metric_loss_gradient_matches(self):
        rng = np.random.default_rng(9)
        flags = [True, False, True]
        f, grad = _metric_point_fns(flags, margin=0.2)
        point = rng.normal(size=2 * 3 * 4)
        err = finite_difference_check(f, grad, point, step=1e-5)
        assert err <= 1e-4

    def test_distill_loss_gradient_matches(self):
        rng = np.random.default_rng(10)
        labels = [f"l{i}" for i in range(6)]
        teacher = {y: float(rng.normal()) for y in labels}

        def f(x):
            return distill_loss(teacher, 1.2, dict(zip(labels, x)))

        def grad(x):
            g = distill_loss_gradient(teacher, 1.2, dict(zip(labels, x)))
            return np.array([g[y] for y in labels])

        err = finite_difference_check(f, grad, rng.normal(size=6), step=1e-5)
        assert err <= 1e-4

    def test_exact_hinge_kink_is_flagged(self):
        """A different-label pair sitting exactly at cosine == margin is not
        differentiable; the check must refuse rather than report an error."""
        margin = 0.5
        u = np.array([1.0, 0.0, 0.0, 0.0])
        v = np.array([margin, math.sqrt(1 - margin**2), 0.0, 0.0])
        flags = [False]
        f, grad = _metric_point_fns(flags, margin)
        point = np.concatenate([u, v])
        with pytest.raises(NonSmoothError):
            finite_difference_check(f, grad, point, step=1e-5)

    def test_non_finite_loss_is_an_error(self):
        def f(x):
            return float("inf") if x[0] > 0.5 else float(x @ x)

        def grad(x):
            return 2 * x

        with pytest.raises(EncodingError):
            finite_difference_check(f, grad, np.array([0.5, 0.0]), step=1e-5)

    def test_step_range_validated(self):
        with pytest.raises(ConfigError):
            finite_difference_check(lambda x: 0.0, lambda x: x, np.zeros(2), step=1e-2)
