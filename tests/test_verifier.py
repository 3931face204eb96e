import json
import math
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from conftest import make_candidate
from divsel.errors import CandidateSetError, ConfigError, VerifierProtocolError, VerifierTransportError
from divsel.prompt import Prompt, count_tokens
from divsel.verifier import (
    EndpointVerifier,
    candidate_labels,
    decide_from_scores,
    mock_verifier,
    question_for,
    score_labels,
)


def shell_prompt(text="Some prompt."):
    return Prompt(
        instruction="",
        summary="",
        current="",
        exemplars=(),
        answer_format="",
        text=text,
        token_count=count_tokens(text),
    )


class TestCandidateLabels:
    def pool(self):
        return [
            make_candidate("p1", "c", (1, 0), 0.9),
            make_candidate("p2", "d", (0, 1), 0.8),
            make_candidate("p3", "a", (1, 1), 0.7),
        ]

    def test_dedup_in_first_seen_order(self):
        labels = candidate_labels(["a", "a", "b"], self.pool(), shortlist_size=0)
        assert labels == ("a", "b")

    def test_shortlist_extends_from_pool_head(self):
        labels = candidate_labels(["a", "b"], self.pool(), shortlist_size=2)
        assert labels == ("a", "b", "c", "d")

    def test_shortlist_covering_known_labels_is_idempotent(self):
        labels = candidate_labels(["c", "d"], self.pool(), shortlist_size=2)
        assert labels == ("c", "d")

    def test_empty_everything_is_an_error(self):
        with pytest.raises(CandidateSetError):
            candidate_labels([], self.pool(), shortlist_size=0)


class TestDecide:
    def test_argmax(self):
        assert decide_from_scores({"a": 2.0, "b": 1.0}).decision == "a"

    def test_lexicographic_tie_break(self):
        assert decide_from_scores({"b": 0.0, "a": 0.0}).decision == "a"

    def test_temperature_never_changes_the_decision(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            scores = {f"l{i}": float(rng.normal()) for i in range(6)}
            decisions = {decide_from_scores(scores, t).decision for t in (0.9, 1.0, 1.3)}
            assert len(decisions) == 1

    def test_calibrated_values_in_unit_interval_and_monotone(self):
        scores = {"a": -3.0, "b": 0.0, "c": 4.0}
        out = decide_from_scores(scores, tau_c=1.1)
        assert 0.0 < out.calibrated["a"] < out.calibrated["b"] < out.calibrated["c"] < 1.0

    def test_tau_c_validated(self):
        with pytest.raises(ConfigError):
            decide_from_scores({"a": 1.0}, tau_c=0.0)


class TestMockVerifier:
    def test_gold_in_candidates_wins(self):
        v = mock_verifier("gold", noise_seed=1, margin=2.0)
        out = score_labels(shell_prompt(), ["a", "gold", "b"], v)
        assert out.decision == "gold"

    def test_gold_absent_never_predicted(self):
        v = mock_verifier("gold", noise_seed=1, margin=2.0)
        out = score_labels(shell_prompt(), ["a", "b"], v)
        assert out.decision != "gold"

    def test_seeded_determinism_and_order_independence(self):
        v = mock_verifier("gold", noise_seed=7, margin=2.0)
        a = score_labels(shell_prompt(), ["x", "y", "z"], v)
        b = score_labels(shell_prompt(), ["z", "y", "x"], v)
        assert a.scores == b.scores
        assert a.decision == b.decision

    def test_repeated_and_interleaved_calls_match_a_fresh_mock(self):
        """Each label's score is drawn once and kept; what a call returns must
        not depend on which labels were asked before, or how often."""
        labels = ["gold", "a", "b", "a", "gold", "c", "b", "a"]
        v = mock_verifier("gold", noise_seed=11, margin=2.0)
        for label in labels + labels[::-1]:
            fresh = mock_verifier("gold", noise_seed=11, margin=2.0)
            assert v.score("p", question_for(label), label) == fresh.score("q", "other", label)
        other = mock_verifier("gold", noise_seed=12, margin=2.0)
        assert v.score("p", "", "a") != other.score("p", "", "a")

    def test_replies_are_log_probabilities(self):
        v = mock_verifier("gold", noise_seed=3, margin=1.5)
        yes, no = v.score("p", question_for("gold"), "gold")
        assert yes <= 0.0 and no <= 0.0
        np.testing.assert_allclose(math.exp(yes) + math.exp(no), 1.0, atol=1e-12)
        np.testing.assert_allclose(yes - no, 1.5, atol=1e-12)

    def test_margin_validated(self):
        with pytest.raises(ConfigError):
            mock_verifier("g", 0, margin=0.0)

    def test_call_count_matches_labels(self):
        calls = []

        class Counting:
            def score(self, p, q, label):
                calls.append(label)
                return (-0.1, -2.0)

        labels = ["a", "b", "c", "d"]
        score_labels(shell_prompt(), labels, Counting())
        assert calls == labels


class _Handler(BaseHTTPRequestHandler):
    behavior = "ok"

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        assert body["v"] == 1
        assert set(body) == {"v", "prompt_text", "question_text", "label"}
        if self.behavior == "malformed":
            payload = b'{"oops": true}'
        else:
            gold = body["label"] == "gold"
            payload = json.dumps(
                {"logp_yes": -0.1 if gold else -3.0, "logp_no": -3.0 if gold else -0.1}
            ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_verifier_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()


class TestEndpointVerifier:
    def test_wire_round_trip(self, http_verifier_server):
        _Handler.behavior = "ok"
        port = http_verifier_server.server_address[1]
        v = EndpointVerifier(f"http://127.0.0.1:{port}/score", timeout=5.0)
        out = score_labels(shell_prompt(), ["a", "gold"], v)
        assert out.decision == "gold"
        assert out.scores["gold"] > 0 > out.scores["a"]

    def test_malformed_reply_is_a_protocol_error(self, http_verifier_server):
        _Handler.behavior = "malformed"
        port = http_verifier_server.server_address[1]
        v = EndpointVerifier(f"http://127.0.0.1:{port}/score", timeout=5.0)
        with pytest.raises(VerifierProtocolError):
            score_labels(shell_prompt(), ["a"], v)
        _Handler.behavior = "ok"

    def test_unreachable_endpoint_is_retryable_transport_error(self):
        v = EndpointVerifier("http://127.0.0.1:1/score", timeout=0.3)
        with pytest.raises(VerifierTransportError):
            score_labels(shell_prompt(), ["a"], v)

    def test_bearer_token_header_sent(self, http_verifier_server, monkeypatch):
        seen = {}

        original = _Handler.do_POST

        def spy(handler):
            seen["auth"] = handler.headers.get("Authorization")
            return original(handler)

        monkeypatch.setattr(_Handler, "do_POST", spy)
        monkeypatch.setenv("DIVSEL_VERIFIER_TOKEN", "sekret")
        port = http_verifier_server.server_address[1]
        v = EndpointVerifier(f"http://127.0.0.1:{port}/score", timeout=5.0)
        score_labels(shell_prompt(), ["gold"], v)
        assert seen["auth"] == "Bearer sekret"
