import json
import math
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from conftest import make_candidate, pool_of
from divsel.cli import main
from divsel.errors import CandidateSetError, ConfigError, VerifierProtocolError, VerifierTransportError
from divsel.verifier import (
    EndpointVerifier,
    calibrate,
    candidate_labels,
    decide_from_scores,
    mock_verifier,
    question_for,
    score_labels,
)


class TestCandidateLabels:
    def pool(self):
        return pool_of(
            make_candidate("p1", "c", (1, 0), 0.9),
            make_candidate("p2", "d", (0, 1), 0.8),
            make_candidate("p3", "a", (1, 1), 0.7),
        )

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
        calibrated = calibrate({"a": -3.0, "b": 0.0, "c": 4.0}, tau_c=1.1)
        assert 0.0 < calibrated["a"] < calibrated["b"] < calibrated["c"] < 1.0

    def test_tau_c_validated(self):
        for check in (decide_from_scores, calibrate):
            with pytest.raises(ConfigError):
                check({"a": 1.0}, tau_c=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_tau_c_rejected(self, bad):
        for check in (decide_from_scores, calibrate):
            with pytest.raises(ConfigError, match="tau_c must be finite and positive"):
                check({"a": 1.0}, tau_c=bad)

    def test_decision_is_the_smallest_label_with_the_top_score(self):
        """The rule the decode used before: min over (-score, label)."""
        rng = np.random.default_rng(3)
        for _ in range(200):
            labels = [f"l{i}" for i in rng.permutation(6)]
            scores = {y: float(rng.choice([-math.inf, -1.0, -0.0, 0.0, 0.5, math.inf]))
                      for y in labels}
            expected = min(scores, key=lambda y: (-scores[y], y))
            assert decide_from_scores(scores).decision == expected

    @pytest.mark.parametrize("scores", [{"a": math.nan, "b": 1.9}, {"b": 1.9, "a": math.nan}])
    def test_nan_score_rejected_in_any_position(self, scores):
        with pytest.raises(VerifierProtocolError, match="label 'a' scored NaN"):
            decide_from_scores(scores)

    @pytest.mark.parametrize("labels", [["a", "b"], ["b", "a"]])
    def test_nan_log_odds_rejected_whatever_the_label_order(self, labels):
        """A NaN log-odds would otherwise decide by list order: first `a`,
        then `b`."""

        class NanForA:
            def score(self, prompt_text, question_text, label):
                return (math.nan, 0.0) if label == "a" else (-0.1, -2.0)

        with pytest.raises(VerifierProtocolError, match="label 'a' scored NaN"):
            score_labels("x", labels, NanForA())

    def test_infinite_log_odds_still_decide(self):
        class Certain:
            def score(self, prompt_text, question_text, label):
                return (0.0, -math.inf) if label == "b" else (-0.1, -2.0)

        assert score_labels("x", ["a", "b"], Certain()).decision == "b"


class TestMockVerifier:
    def test_gold_in_candidates_wins(self):
        v = mock_verifier("gold", noise_seed=1, margin=2.0)
        out = score_labels("Some prompt.", ["a", "gold", "b"], v)
        assert out.decision == "gold"

    def test_gold_absent_never_predicted(self):
        v = mock_verifier("gold", noise_seed=1, margin=2.0)
        out = score_labels("Some prompt.", ["a", "b"], v)
        assert out.decision != "gold"

    def test_seeded_determinism_and_order_independence(self):
        v = mock_verifier("gold", noise_seed=7, margin=2.0)
        a = score_labels("Some prompt.", ["x", "y", "z"], v)
        b = score_labels("Some prompt.", ["z", "y", "x"], v)
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_margin_rejected(self, bad):
        with pytest.raises(ConfigError, match="margin must be finite and positive"):
            mock_verifier("g", 0, margin=bad)

    def test_call_count_matches_labels(self):
        calls = []

        class Counting:
            def score(self, p, q, label):
                calls.append(label)
                return (-0.1, -2.0)

        labels = ["a", "b", "c", "d"]
        score_labels("Some prompt.", labels, Counting())
        assert calls == labels


class _Handler(BaseHTTPRequestHandler):
    behavior = "ok"

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        assert body["v"] == 1
        assert set(body) == {"v", "prompt_text", "question_text", "label"}
        if self.behavior == "malformed":
            payload = b'{"oops": true}'
        elif self.behavior == "nan":
            payload = b'{"logp_yes": NaN, "logp_no": 0.0}'
        elif self.behavior == "bool":
            payload = b'{"logp_yes": true, "logp_no": false}'
        elif self.behavior == "string":
            payload = b'{"logp_yes": "-0.1", "logp_no": "-2.5"}'
        elif self.behavior == "int":
            payload = b'{"logp_yes": 0, "logp_no": -3}'
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
        out = score_labels("Some prompt.", ["a", "gold"], v)
        assert out.decision == "gold"
        assert out.scores["gold"] > 0 > out.scores["a"]

    def test_malformed_reply_is_a_protocol_error(self, http_verifier_server):
        _Handler.behavior = "malformed"
        port = http_verifier_server.server_address[1]
        v = EndpointVerifier(f"http://127.0.0.1:{port}/score", timeout=5.0)
        with pytest.raises(VerifierProtocolError):
            score_labels("Some prompt.", ["a"], v)
        _Handler.behavior = "ok"

    def test_nan_reply_is_a_protocol_error_and_decide_exits_one(
        self, http_verifier_server, tmp_path, capsys
    ):
        _Handler.behavior = "nan"
        try:
            url = f"http://127.0.0.1:{http_verifier_server.server_address[1]}/score"
            with pytest.raises(VerifierProtocolError, match="label 'a' scored NaN"):
                score_labels("Some prompt.", ["a"], EndpointVerifier(url, timeout=5.0))
            prompt, labels = tmp_path / "prompt.txt", tmp_path / "labels.txt"
            prompt.write_text("hello")
            labels.write_text("a\nb\n")
            code = main(["decide", "--prompt", str(prompt), "--labels", str(labels),
                         "--verifier", "endpoint", "--url", url])
            captured = capsys.readouterr()
            assert code == 1
            assert "error: label 'a' scored NaN" in captured.err
            assert "NaN" not in captured.out
        finally:
            _Handler.behavior = "ok"

    @pytest.mark.parametrize("behavior", ["bool", "string"])
    def test_non_number_reply_is_a_protocol_error_and_decide_exits_one(
        self, http_verifier_server, tmp_path, capsys, behavior
    ):
        """float() would read true as 1.0 and "-0.1" as -0.1."""
        _Handler.behavior = behavior
        try:
            url = f"http://127.0.0.1:{http_verifier_server.server_address[1]}/score"
            with pytest.raises(VerifierProtocolError, match="malformed verifier reply"):
                EndpointVerifier(url, timeout=5.0).score("p", question_for("a"), "a")
            prompt, labels = tmp_path / "prompt.txt", tmp_path / "labels.txt"
            prompt.write_text("hello")
            labels.write_text("a\nb\n")
            code = main(["decide", "--prompt", str(prompt), "--labels", str(labels),
                         "--verifier", "endpoint", "--url", url])
            assert code == 1
            assert "error: malformed verifier reply" in capsys.readouterr().err
        finally:
            _Handler.behavior = "ok"

    def test_integer_reply_is_a_number(self, http_verifier_server):
        _Handler.behavior = "int"
        try:
            url = f"http://127.0.0.1:{http_verifier_server.server_address[1]}/score"
            assert EndpointVerifier(url, timeout=5.0).score("p", "q", "a") == (0.0, -3.0)
        finally:
            _Handler.behavior = "ok"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_timeout_must_be_finite_and_positive(self, bad):
        with pytest.raises(ConfigError, match="timeout must be finite and positive"):
            EndpointVerifier("http://127.0.0.1:1/score", timeout=bad)

    def test_unreachable_endpoint_is_retryable_transport_error(self):
        v = EndpointVerifier("http://127.0.0.1:1/score", timeout=0.3)
        with pytest.raises(VerifierTransportError):
            score_labels("Some prompt.", ["a"], v)

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
        score_labels("Some prompt.", ["gold"], v)
        assert seen["auth"] == "Bearer sekret"
