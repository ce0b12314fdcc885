"""Remote backend tests against a local stdlib HTTP stub.

The stub speaks just enough of the chat-completions shape to pin the wire
format (auth header, temperature, model), the retry ladder (which statuses
are retried and which fail at once), and one full episode where every
manager decision crosses HTTP while members stay structured.
"""

from __future__ import annotations

import pytest

from stubserver import approve_candidates, completion
from homecrew.errors import RemoteBackendError
from homecrew.harness import EpisodeConfig, RemoteConfig, replay_trace, run_episode
from homecrew.reasoner import PROPOSE, ReasonerRequest, RemoteReasoner


def wire_request(prompt="ping"):
    return ReasonerRequest(kind=PROPOSE, structured_payload=None, rendered_prompt=prompt)


def remote(url, transport_retries=2, timeout_s=5.0):
    return RemoteReasoner(
        url, "m", timeout_s=timeout_s, transport_retries=transport_retries
    )


class TestWireFormat:
    def test_request_shape_and_auth_from_env(self, stub, monkeypatch):
        monkeypatch.setenv("STUB_KEY", "sk-test-123")
        stub.replies = [(200, completion("propose: IDLE", total_tokens=11))]
        reasoner = RemoteReasoner(stub.url, "house-7b", api_key_env="STUB_KEY")
        response = reasoner.invoke(wire_request("hello robots"))
        assert response.raw_text == "propose: IDLE"
        assert response.token_counts == {"total_tokens": 11}
        assert len(stub.seen) == 1
        seen = stub.seen[0]
        assert seen["path"] == "/chat/completions"
        assert seen["authorization"] == "Bearer sk-test-123"
        assert seen["body"]["model"] == "house-7b"
        assert seen["body"]["temperature"] == 0
        assert seen["body"]["messages"] == [
            {"role": "user", "content": "hello robots"}
        ]

    def test_missing_key_sends_no_auth_header(self, stub, monkeypatch):
        monkeypatch.delenv("HOMECREW_API_KEY", raising=False)
        stub.replies = [(200, completion("ok"))]
        RemoteReasoner(stub.url, "house-7b").invoke(wire_request())
        assert stub.seen[0]["authorization"] is None


class TestRetries:
    def test_recovers_after_one_500(self, stub):
        stub.replies = [(500, {"error": "boom"}), (200, completion("ok"))]
        response = remote(stub.url).invoke(wire_request())
        assert response.raw_text == "ok"
        assert len(stub.seen) == 2

    def test_persistent_500_raises_after_budget(self, stub):
        stub.replies = [(500, {"error": "boom"})] * 5
        with pytest.raises(RemoteBackendError) as err:
            remote(stub.url, transport_retries=2).invoke(wire_request())
        assert "HTTP 500" in str(err.value)
        assert "3 attempt(s)" in str(err.value)
        assert len(stub.seen) == 3

    @pytest.mark.parametrize("status", [408, 429])
    def test_timeout_and_throttle_statuses_are_retried(self, stub, status):
        stub.replies = [(status, {"error": "later"}), (200, completion("ok"))]
        response = remote(stub.url).invoke(wire_request())
        assert response.raw_text == "ok"
        assert len(stub.seen) == 2

    @pytest.mark.parametrize("status", [400, 401, 404, 422])
    def test_other_client_errors_fail_after_one_attempt(self, stub, status):
        stub.replies = [(status, {"error": "bad request"})] * 3
        with pytest.raises(RemoteBackendError) as err:
            remote(stub.url, transport_retries=2).invoke(wire_request())
        assert f"HTTP {status} after 1 attempt(s)" in str(err.value)
        assert len(stub.seen) == 1

    def test_budget_timeout_bounds_each_attempt(self, stub):
        stub.delay_s = 0.3
        with pytest.raises(RemoteBackendError) as err:
            remote(stub.url, transport_retries=0, timeout_s=0.05).invoke(wire_request())
        assert "transport error: ReadTimeout" in str(err.value)

    def test_malformed_payload_retries_then_succeeds(self, stub):
        stub.replies = [(200, {"nope": True}), (200, completion("fine"))]
        response = remote(stub.url).invoke(wire_request())
        assert response.raw_text == "fine"

    def test_unreachable_endpoint_raises(self):
        reasoner = remote("http://127.0.0.1:1", transport_retries=0, timeout_s=0.5)
        with pytest.raises(RemoteBackendError) as err:
            reasoner.invoke(wire_request("x"))
        assert "transport error" in str(err.value)


def remote_manager_config(stub, **overrides):
    base = dict(
        task="WashDishes",
        num_agents=2,
        seed=1,
        manager_backend="remote",
        member_backend="heuristic",
        max_steps=60,
        remote=RemoteConfig(
            endpoint_url=stub.url,
            model="house-7b",
            timeout_s=5.0,
            transport_retries=1,
        ),
    )
    base.update(overrides)
    return EpisodeConfig(**base)


class TestRemoteEpisode:
    def test_manager_decisions_travel_over_http(self, stub):
        stub.policy = approve_candidates
        # one transport blip up front must not surface anywhere
        stub.replies = [(500, {"error": "flaky"})]
        result = run_episode(remote_manager_config(stub))
        assert result.success
        assert result.num_summaries >= 1
        assert result.degraded_exchanges == 0
        assert len(stub.seen) > result.steps  # allocations plus summaries
        for seen in stub.seen:
            assert seen["body"]["temperature"] == 0
            assert seen["body"]["model"] == "house-7b"
        exchanges = [r for r in result.records if r.get("type") == "exchange"]
        assert exchanges and all(r["response"] is not None for r in exchanges)
        kinds = {r["kind"] for r in exchanges}
        assert kinds == {"ALLOCATE", "SUMMARIZE"}

    def test_remote_trace_replays_offline(self, stub):
        stub.policy = approve_candidates
        result = run_episode(remote_manager_config(stub))
        requests_before = len(stub.seen)
        replayed, ok, message = replay_trace(list(result.records))
        assert ok, message
        assert replayed.steps == result.steps
        # scripted playback of the recorded exchanges, no network involved
        assert len(stub.seen) == requests_before

    def test_garbage_allocation_degrades_and_recovers(self, stub):
        stub.policy = approve_candidates
        garbage = (200, completion("not an assignment at all"))
        stub.replies = [garbage, garbage, garbage]
        result = run_episode(remote_manager_config(stub))
        assert result.success
        assert result.degraded_exchanges >= 1

    def test_degraded_allocation_records_its_reason(self, stub):
        def garbage_allocations(body):
            prompt = body["messages"][0]["content"]
            if prompt.startswith("You are the team manager writing"):
                return approve_candidates(body)
            return 200, completion("not an assignment at all")

        stub.policy = garbage_allocations
        result = run_episode(remote_manager_config(stub))
        allocations = [r for r in result.records if r["type"] == "allocation"]
        assert allocations
        for record in allocations:
            assert record["degraded"] and record["attempts"] == 3
            assert isinstance(record["note"], str) and record["note"]
        _, ok, message = replay_trace(list(result.records))
        assert ok, message
        clean = run_episode(EpisodeConfig(task="WashDishes", num_agents=2, seed=1))
        assert all(
            "note" not in r for r in clean.records if r["type"] == "allocation"
        )
