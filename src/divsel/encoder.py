"""Context-aware query encoding plus the pure metric / distillation losses.

The encoder cross-attends the current utterance to per-turn history embeddings
with a recency bias, then layer-normalizes the blended vector. Losses are
exposed as pure functions with analytic gradients so they can be checked by
central differences; no training loop lives here.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DimensionError,
    EncodingError,
    MemoryFormatError,
    NonSmoothError,
    VersionMismatchError,
)
from .files import open_input, read_exact
from .retrieval import cosine

WEIGHTS_MAGIC = b"DIVSEL-ENC"
WEIGHTS_VERSION = 1

LN_EPSILON = 1e-5


@dataclass(frozen=True)
class Turn:
    """One past exchange: user and agent texts with their embeddings."""

    user: str
    agent: str
    user_embedding: np.ndarray
    agent_embedding: np.ndarray


@dataclass(frozen=True)
class DialogueContext:
    """Ordered history turns plus the current user utterance and its embedding."""

    turns: tuple[Turn, ...]
    current: str
    current_embedding: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.current_embedding.shape[0])


@dataclass(frozen=True)
class EncoderWeights:
    """Attention projections and recency knobs; immutable after load.

    The defaults degrade the encoder to current-utterance-only: identity
    query/key projections with zero value projections.
    """

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_v_prime: np.ndarray
    recency_lambda: float = 0.0
    recency_weight: float = 0.0
    ln_epsilon: float = LN_EPSILON

    def __post_init__(self):
        d = self.w_q.shape[0]
        if d < 1:
            raise DimensionError("encoder weights need dimension >= 1")
        for name in ("w_q", "w_k", "w_v", "w_v_prime"):
            m = getattr(self, name)
            if m.shape != (d, d):
                raise DimensionError(f"{name} must be {d}x{d}, got {m.shape}")
            if not np.all(np.isfinite(m)):
                raise EncodingError(f"{name} has non-finite entries")
        if not (math.isfinite(self.recency_lambda) and math.isfinite(self.recency_weight)):
            raise EncodingError("recency terms must be finite")
        if self.recency_lambda < 0:
            raise ConfigError("recency_lambda must be >= 0")
        if self.recency_weight < 0:
            raise ConfigError("recency_weight must be >= 0")
        if self.ln_epsilon <= 0:
            raise ConfigError("ln_epsilon must be positive")

    @property
    def dim(self) -> int:
        return int(self.w_q.shape[0])

    @classmethod
    @functools.lru_cache(maxsize=None)
    def default(cls, dim: int) -> "EncoderWeights":
        """The degenerate weights of a dimension. Retrieval falls back to them
        on every query without weights, so they are built and validated once
        per dimension and shared, their matrices read-only."""
        eye = np.eye(dim)
        zero = np.zeros((dim, dim))
        for m in (eye, zero):
            m.setflags(write=False)
        return cls(w_q=eye, w_k=eye, w_v=zero, w_v_prime=zero)


def layer_norm(x: np.ndarray, epsilon: float = LN_EPSILON) -> np.ndarray:
    """Layer normalization without a learned affine."""
    centered = x - x.mean()
    return centered / math.sqrt(float((centered**2).mean()) + epsilon)


def _check_embedding(vec: np.ndarray, dim: int, what: str) -> np.ndarray:
    v = np.asarray(vec, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] != dim:
        raise DimensionError(f"{what} has shape {v.shape}, expected ({dim},)")
    if not np.all(np.isfinite(v)):
        raise EncodingError(f"{what} contains non-finite values")
    return v


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    e = np.exp(shifted)
    return e / e.sum()


def encode_context(ctx: DialogueContext, weights: EncoderWeights) -> np.ndarray:
    """Blend the current utterance with recency-weighted attention over history.

    With empty history both attention sums vanish and the result is simply the
    layer-normalized current embedding. Attention weights over user turns and
    over agent turns each sum to one when history is present.
    """
    d = weights.dim
    e_q = _check_embedding(ctx.current_embedding, d, "current embedding")
    n = len(ctx.turns) + 1
    user_sum = np.zeros(d)
    agent_sum = np.zeros(d)
    if ctx.turns:
        h = np.stack(
            [_check_embedding(t.user_embedding, d, f"turn {i} user embedding") for i, t in enumerate(ctx.turns)]
        )
        g = np.stack(
            [_check_embedding(t.agent_embedding, d, f"turn {i} agent embedding") for i, t in enumerate(ctx.turns)]
        )
        q_proj = weights.w_q @ e_q
        scale = math.sqrt(d)
        # turn index t runs 1..n-1; recency kernel is -lambda * (n - t)
        rec = np.array(
            [weights.recency_weight * (-weights.recency_lambda * (n - t)) for t in range(1, n)]
        )
        beta = _softmax((h @ weights.w_k.T) @ q_proj / scale + rec)
        gamma = _softmax((g @ weights.w_k.T) @ q_proj / scale + rec)
        user_sum = weights.w_v @ (beta @ h)
        agent_sum = weights.w_v_prime @ (gamma @ g)
    return layer_norm(e_q + user_sum + agent_sum, weights.ln_epsilon)


def save_weights(weights: EncoderWeights, path: str | Path) -> None:
    """Versioned binary: magic, version, d, four dxd row-major matrices, lambda, rho."""
    d = weights.dim
    with open(path, "wb") as fh:
        fh.write(WEIGHTS_MAGIC)
        fh.write(struct.pack("<I", WEIGHTS_VERSION))
        fh.write(struct.pack("<I", d))
        for m in (weights.w_q, weights.w_k, weights.w_v, weights.w_v_prime):
            fh.write(np.ascontiguousarray(m, dtype=np.float64).tobytes())
        fh.write(struct.pack("<dd", weights.recency_lambda, weights.recency_weight))


def load_weights(path: str | Path) -> EncoderWeights:
    with open_input(path, binary=True) as fh:
        if fh.read(len(WEIGHTS_MAGIC)) != WEIGHTS_MAGIC:
            raise MemoryFormatError(f"{path} is not an encoder weight file (bad magic)")
        version, d = struct.unpack("<II", read_exact(fh, 8, "header"))
        if version != WEIGHTS_VERSION:
            raise VersionMismatchError(
                f"weight format version {version} unsupported (reader expects {WEIGHTS_VERSION})"
            )
        mats = []
        for name in ("w_q", "w_k", "w_v", "w_v_prime"):
            raw = read_exact(fh, d * d * 8, name)
            mats.append(np.frombuffer(raw, dtype="<f8").reshape(d, d).copy())
        lam, rho = struct.unpack("<dd", read_exact(fh, 16, "recency terms"))
        if fh.read(1):
            raise MemoryFormatError("trailing data in weight file")
    return EncoderWeights(mats[0], mats[1], mats[2], mats[3], lam, rho)


# ---------------------------------------------------------------------------
# Pure loss functions (evaluation + analytic gradients only; no training).
# ---------------------------------------------------------------------------

Pair = tuple[np.ndarray, np.ndarray, bool]


def _validate_margin(margin: float) -> None:
    if not 0.0 < margin < 1.0:
        raise ConfigError(f"margin must lie in (0, 1), got {margin}")


def metric_loss(pairs: Sequence[Pair], margin: float) -> float:
    """Hinge contrastive loss: same-label pairs pulled to cosine 1, different-
    label pairs pushed below the margin. Always non-negative."""
    _validate_margin(margin)
    total = 0.0
    for e_u, e_v, same in pairs:
        s = cosine(e_u, e_v)
        total += max(0.0, 1.0 - s) if same else max(0.0, s - margin)
    return total


def _cosine_grads(u: np.ndarray, v: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise DimensionError("cosine is undefined for a zero vector")
    s = float(np.dot(u, v) / (nu * nv))
    du = v / (nu * nv) - s * u / (nu * nu)
    dv = u / (nu * nv) - s * v / (nv * nv)
    return s, du, dv


def metric_loss_gradient(
    pairs: Sequence[Pair], margin: float
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Analytic gradients of metric_loss with respect to each pair's vectors."""
    _validate_margin(margin)
    grads_u, grads_v = [], []
    for e_u, e_v, same in pairs:
        u = np.asarray(e_u, dtype=np.float64)
        v = np.asarray(e_v, dtype=np.float64)
        s, du, dv = _cosine_grads(u, v)
        if same:
            active = s < 1.0
            sign = -1.0
        else:
            active = s > margin
            sign = 1.0
        if active:
            grads_u.append(sign * du)
            grads_v.append(sign * dv)
        else:
            grads_u.append(np.zeros_like(u))
            grads_v.append(np.zeros_like(v))
    return grads_u, grads_v


def _check_label_sets(teacher: Mapping[str, float], student: Mapping[str, float]) -> list[str]:
    if set(teacher) != set(student):
        raise ConfigError(
            f"teacher and student label sets differ: {sorted(teacher)} vs {sorted(student)}"
        )
    if not teacher:
        raise ConfigError("distillation needs at least one label")
    return sorted(teacher)


def distill_loss(
    teacher_logodds: Mapping[str, float],
    temperature: float,
    student_logits: Mapping[str, float],
) -> float:
    """Cross-entropy of the student softmax against the tempered teacher softmax."""
    if temperature <= 0:
        raise ConfigError(f"temperature must be positive, got {temperature}")
    labels = _check_label_sets(teacher_logodds, student_logits)
    t = np.array([teacher_logodds[y] for y in labels]) / temperature
    z = np.array([student_logits[y] for y in labels])
    p_teacher = _softmax(t)
    log_p_student = z - (z.max() + math.log(np.exp(z - z.max()).sum()))
    return float(-(p_teacher * log_p_student).sum())


def distill_loss_gradient(
    teacher_logodds: Mapping[str, float],
    temperature: float,
    student_logits: Mapping[str, float],
) -> dict[str, float]:
    """Gradient of distill_loss with respect to each student logit."""
    if temperature <= 0:
        raise ConfigError(f"temperature must be positive, got {temperature}")
    labels = _check_label_sets(teacher_logodds, student_logits)
    t = np.array([teacher_logodds[y] for y in labels]) / temperature
    z = np.array([student_logits[y] for y in labels])
    grad = _softmax(z) - _softmax(t)
    return {y: float(grad[i]) for i, y in enumerate(labels)}


def finite_difference_check(
    loss_fn: Callable[[np.ndarray], float],
    gradient_fn: Callable[[np.ndarray], np.ndarray],
    point: np.ndarray,
    step: float = 1e-5,
) -> float:
    """Max relative error between the analytic gradient and central differences.

    Raises NonSmoothError when one-sided differences disagree enough to signal
    a hinge kink at (or within step of) the evaluation point, and EncodingError
    when the loss is non-finite at a perturbed point.
    """
    if not 1e-6 <= step <= 1e-3:
        raise ConfigError(f"step must lie in [1e-6, 1e-3], got {step}")
    x = np.asarray(point, dtype=np.float64).copy()
    analytic = np.asarray(gradient_fn(x), dtype=np.float64)
    if analytic.shape != x.shape:
        raise DimensionError("gradient shape does not match the evaluation point")
    f0 = float(loss_fn(x))
    worst = 0.0
    for i in range(x.size):
        orig = x[i]
        x[i] = orig + step
        f_plus = float(loss_fn(x))
        x[i] = orig - step
        f_minus = float(loss_fn(x))
        x[i] = orig
        if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
            raise EncodingError(f"loss is non-finite near coordinate {i}")
        forward = (f_plus - f0) / step
        backward = (f0 - f_minus) / step
        if abs(forward - backward) > 1e-3 * max(1.0, abs(forward), abs(backward)):
            raise NonSmoothError(
                f"one-sided differences disagree at coordinate {i}; "
                "evaluation point sits on a hinge kink"
            )
        central = (f_plus - f_minus) / (2.0 * step)
        err = abs(analytic[i] - central) / max(1.0, abs(analytic[i]), abs(central))
        worst = max(worst, err)
    return worst
