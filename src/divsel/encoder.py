"""Context-aware query encoding and the encoder weight file.

The encoder cross-attends the current utterance to per-turn history embeddings
with a recency bias, then layer-normalizes the blended vector. Its weights are
fixed inputs, read from a versioned binary file; nothing here trains them.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DimensionError,
    EncodingError,
    MemoryFormatError,
    VersionMismatchError,
)
from .files import open_input, open_output, read_exact

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
    return layer_norm(e_q + user_sum + agent_sum)


def save_weights(weights: EncoderWeights, path: str | Path) -> None:
    """Versioned binary: magic, version, d, four dxd row-major matrices, lambda, rho."""
    d = weights.dim
    with open_output(path, binary=True) as fh:
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

