"""Intent decoding through a yes/no log-odds verifier with temperature scaling.

A verifier answers one question per candidate label and returns the two log
probabilities; the decision is the arg max of the log odds, which temperature
scaling never changes, so a decode takes no calibrated probabilities and
`calibrate` computes them for whoever reports them. A deterministic in-process mock implements the same
boundary for closed-loop testing, and an HTTP client speaks it to an external
endpoint.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence

from .errors import (
    CandidateSetError,
    ConfigError,
    VerifierProtocolError,
    VerifierTransportError,
)
from .files import json_number
from .retrieval import Pool

PAYLOAD_VERSION = 1
TOKEN_ENV = "DIVSEL_VERIFIER_TOKEN"
DEFAULT_TAU_C = 1.0


class VerifierBoundary(Protocol):
    """Request/response protocol every verifier speaks."""

    def score(self, prompt_text: str, question_text: str, label: str) -> tuple[float, float]:
        """Return (logp_yes, logp_no) for one label question."""
        ...


@dataclass(frozen=True)
class VerifierOutput:
    """Scores and the decoded label."""

    scores: dict[str, float]
    decision: str
    candidate_set: tuple[str, ...]


def question_for(label: str) -> str:
    return f"Is intent = {label}?"


def candidate_labels(
    selected: Sequence[str], pool: Pool, shortlist_size: int
) -> tuple[str, ...]:
    """Unique labels exposed by the selection, extended by the labels of the
    top shortlist_size pool items; order is first-seen and deterministic."""
    if shortlist_size < 0:
        raise ConfigError("shortlist_size must be >= 0")
    labels = [*map(str, selected), *pool.labels(shortlist_size)]
    out = tuple(dict.fromkeys(labels))
    if not out:
        raise CandidateSetError("no candidate labels: empty selection and zero shortlist")
    return out


def _logistic(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def check_tau_c(tau_c: float) -> None:
    """Raise ConfigError unless the temperature is finite and positive."""
    if not (math.isfinite(tau_c) and tau_c > 0):
        raise ConfigError(f"tau_c must be finite and positive, got {tau_c}")


def calibrate(scores: Mapping[str, float], tau_c: float = DEFAULT_TAU_C) -> dict[str, float]:
    """The temperature-calibrated probability of each label's log odds."""
    check_tau_c(tau_c)
    return {y: _logistic(s / tau_c) for y, s in scores.items()}


def decide_from_scores(scores: Mapping[str, float]) -> VerifierOutput:
    """Decode the arg max of a score map: the smallest label among those with
    the top score.

    The logistic is monotone, so the decision is the arg max of `calibrate`
    at every temperature and takes none. A NaN score, which would decide by
    map order, raises VerifierProtocolError naming its label.
    """
    if not scores:
        raise CandidateSetError("cannot decide over an empty score map")
    for label, s in scores.items():
        if math.isnan(s):
            raise VerifierProtocolError(f"label {label!r} scored NaN (logp_yes - logp_no)")
    top = max(scores.values())
    return VerifierOutput(
        scores=dict(scores),
        decision=min(y for y, s in scores.items() if s == top),
        candidate_set=tuple(scores),
    )


def score_labels(
    prompt_text: str,
    labels: Sequence[str],
    verifier: VerifierBoundary,
) -> VerifierOutput:
    """Query the verifier once per label and decode the best-scoring intent.

    Assembly keys on label, so per-label calls could run concurrently; a
    transport failure discards all partial results, and a NaN log-odds
    raises VerifierProtocolError (`decide_from_scores`).
    """
    if not labels:
        raise CandidateSetError("score_labels needs at least one candidate label")
    scores: dict[str, float] = {}
    for label in labels:
        logp_yes, logp_no = verifier.score(prompt_text, question_for(label), label)
        scores[label] = logp_yes - logp_no
    return decide_from_scores(scores)


def _log_sigmoid(x: float) -> float:
    # log(1 / (1 + e^-x)) computed stably
    if x >= 0:
        return -math.log1p(math.exp(-x))
    return x - math.log1p(math.exp(x))


class MockVerifier:
    """Deterministic stand-in: the gold label scores +margin iff queried; any
    other label scores -margin plus noise uniform on [-margin/4, margin/4).
    End-to-end accuracy under this mock equals the rate at which selection
    exposes the gold label; the noise decides only among non-gold labels, so
    it moves only the prediction of an instance whose gold label is not a
    candidate. A label's score depends on nothing but the label, so each is
    drawn once.

    The noise is one keyed hash: the top 53 bits of the 8-byte BLAKE2s digest
    of "noise_seed:label" (UTF-8, which refuses a lone surrogate), scaled to
    [0, 1) and mapped as ``uniform(a, b) = a + (b - a)·u``. It is the same in
    every process and on every platform, as the builtin hash() is not."""

    def __init__(self, gold_label: str, noise_seed: int, margin: float = 2.0):
        if not (math.isfinite(margin) and margin > 0):
            raise ConfigError(f"margin must be finite and positive, got {margin}")
        self.gold_label = gold_label
        self.noise_seed = noise_seed
        self.margin = margin
        self._scores: dict[str, tuple[float, float]] = {}

    def score(self, prompt_text: str, question_text: str, label: str) -> tuple[float, float]:
        scores = self._scores.get(label)
        if scores is None:
            if label == self.gold_label:
                s = self.margin
            else:
                key = f"{self.noise_seed}:{label}".encode("utf-8")
                bits = int.from_bytes(hashlib.blake2s(key, digest_size=8).digest(), "big") >> 11
                s = -self.margin + (-self.margin / 4 + (self.margin / 2) * (bits * 2.0 ** -53))
            scores = self._scores[label] = (_log_sigmoid(s), _log_sigmoid(-s))
        return scores


def mock_verifier(gold_label: str, noise_seed: int, margin: float = 2.0) -> MockVerifier:
    return MockVerifier(gold_label, noise_seed, margin)


class EndpointVerifier:
    """HTTP adapter for the verifier boundary.

    POSTs {"v", "prompt_text", "question_text", "label"} as JSON and expects
    {"logp_yes", "logp_no"}. A bearer token is read from the TOKEN_ENV
    environment variable when present.
    """

    def __init__(self, url: str, timeout: float = 10.0):
        if not (math.isfinite(timeout) and timeout > 0):
            raise ConfigError(f"timeout must be finite and positive, got {timeout}")
        self.url = url
        self.timeout = timeout

    def score(self, prompt_text: str, question_text: str, label: str) -> tuple[float, float]:
        import urllib.error  # local: only an endpoint call needs urllib, so the query path never loads it
        import urllib.request

        payload = {
            "v": PAYLOAD_VERSION,
            "prompt_text": prompt_text,
            "question_text": question_text,
            "label": label,
        }
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(TOKEN_ENV)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        req = urllib.request.Request(
            self.url, data=json.dumps(payload).encode("utf-8"), headers=headers, method="POST"
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                body = resp.read()
        except (urllib.error.URLError, OSError) as exc:
            raise VerifierTransportError(f"verifier endpoint unreachable: {exc}") from exc
        try:
            reply = json.loads(body.decode("utf-8"))
            logp_yes, logp_no = json_number(reply["logp_yes"]), json_number(reply["logp_no"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise VerifierProtocolError(f"malformed verifier reply: {body!r}") from exc
        return logp_yes, logp_no
