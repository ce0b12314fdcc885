"""Remote backend tests against a local stdlib HTTP stub.

The stub speaks just enough of the chat-completions shape to pin the wire
format (auth header, temperature, model), the retry ladder (which statuses
are retried and which fail at once), how the client reuses and replaces
connections, that the keep-alive transport answers every scripted plain-http
reply as requests' stock adapter does, that https and proxied requests both
go through that stock adapter, which verifies TLS (homecrew holds no TLS
code), and one full episode where every manager decision crosses HTTP while
members stay structured.
"""

from __future__ import annotations

import contextlib
import dataclasses
import datetime
import gzip
import ipaddress
import json
import socket
import ssl
import struct
import sys
import time
import zlib

import pytest
import requests
from cryptography import x509
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.x509.oid import NameOID
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import serve
from stubserver import (
    RESET,
    STALL,
    StubServer,
    approve_candidates,
    completion,
    propose_goal_objects,
)
from homecrew.errors import ConfigError, RemoteBackendError
from homecrew.harness.config import EpisodeConfig, RemoteConfig
from homecrew.harness.episode import replay_trace, run_episode
from homecrew.harness.trace import check_trace
from homecrew.reasoner import remote as remote_module
from homecrew.reasoner.base import PARSE_RETRIES, PROPOSE, ReasonerRequest
from homecrew.reasoner.remote import RemoteReasoner


def wire_request(prompt="ping"):
    return ReasonerRequest(kind=PROPOSE, structured_payload=None, rendered_prompt=prompt)


def remote(url, timeout_s=5.0):
    return RemoteReasoner(RemoteConfig(url, "m", timeout_s=timeout_s))


class TestWireFormat:
    def test_request_shape_and_auth_from_env(self, stub, monkeypatch):
        monkeypatch.setenv("STUB_KEY", "sk-test-123")
        stub.replies = [(200, completion("propose: IDLE", total_tokens=11))]
        reasoner = RemoteReasoner(RemoteConfig(stub.url, "house-7b", api_key_env="STUB_KEY"))
        assert reasoner.invoke(wire_request("hello robots")) == "propose: IDLE"
        assert len(stub.seen) == 1
        seen = stub.seen[0]
        assert seen["path"] == "/chat/completions"
        assert seen["authorization"] == "Bearer sk-test-123"
        assert seen["body"]["model"] == "house-7b"
        assert seen["body"]["temperature"] == 0
        assert seen["body"]["messages"] == [
            {"role": "user", "content": "hello robots"}
        ]

    def test_empty_endpoint_is_a_config_error(self):
        with pytest.raises(ConfigError, match="endpoint URL with a host and a model, got endpoint ''"):
            RemoteReasoner(RemoteConfig("", "house-7b"))

    def test_empty_model_is_a_config_error(self):
        with pytest.raises(ConfigError, match="got endpoint 'http://127.0.0.1:1' and model ''"):
            RemoteReasoner(RemoteConfig("http://127.0.0.1:1", ""))

    def test_without_requests_the_backend_is_a_config_error(self, monkeypatch):
        # None in sys.modules makes ``import requests`` raise ImportError.
        monkeypatch.setitem(sys.modules, "requests", None)
        with pytest.raises(ConfigError, match="remote backend needs the requests package"):
            RemoteReasoner(RemoteConfig("http://127.0.0.1:1", "m"))

    @settings(max_examples=300, deadline=None)
    @given(
        endpoint=st.one_of(
            st.text(),
            st.builds(
                "{}://{}{}".format,
                st.sampled_from(["http", "https", "HTTP", "ftp", ""]),
                st.text(st.characters(codec="utf-8"), max_size=12),
                st.sampled_from(
                    ["", "/v1", ":8080/v1", ":0", ":99999", ":x", "/v1?x=1", "/v1#frag", "?"]
                ),
            ),
        )
    )
    @example("http://[::1")
    @example("http://[::1]:8080/v1")
    @example("http://h:1/v1?x=1")
    @example("http://h:1/v1#frag")
    @example("http://h:1/v1?")
    def test_any_endpoint_builds_or_is_a_config_error(self, endpoint):
        try:
            reasoner = RemoteReasoner(RemoteConfig(endpoint, "m"))
        except ConfigError as exc:
            assert repr(endpoint) in str(exc)
        else:
            reasoner.close()
            # /chat/completions is appended to the text, so it must end the path.
            assert "?" not in endpoint and "#" not in endpoint

    def test_missing_key_sends_no_auth_header(self, stub, monkeypatch):
        monkeypatch.delenv("HOMECREW_API_KEY", raising=False)
        stub.replies = [(200, completion("ok"))]
        RemoteReasoner(RemoteConfig(stub.url, "house-7b")).invoke(wire_request())
        assert stub.seen[0]["authorization"] is None


class TestRetries:
    def test_recovers_after_one_500(self, stub):
        stub.replies = [(500, {"error": "boom"}), (200, completion("ok"))]
        assert remote(stub.url).invoke(wire_request()) == "ok"
        assert len(stub.seen) == 2

    def test_persistent_500_raises_after_budget(self, stub):
        stub.replies = [(500, {"error": "boom"})] * 5
        with pytest.raises(RemoteBackendError) as err:
            remote(stub.url).invoke(wire_request())
        assert "HTTP 500" in str(err.value)
        assert "3 attempt(s)" in str(err.value)
        assert len(stub.seen) == 3

    @pytest.mark.parametrize("status", [408, 429])
    def test_timeout_and_throttle_statuses_are_retried(self, stub, status):
        stub.replies = [(status, {"error": "later"}), (200, completion("ok"))]
        assert remote(stub.url).invoke(wire_request()) == "ok"
        assert len(stub.seen) == 2

    @pytest.mark.parametrize("status", [400, 401, 404, 422])
    def test_other_client_errors_fail_after_one_attempt(self, stub, status):
        stub.replies = [(status, {"error": "bad request"})] * 3
        with pytest.raises(RemoteBackendError) as err:
            remote(stub.url).invoke(wire_request())
        assert f"HTTP {status} after 1 attempt(s)" in str(err.value)
        assert len(stub.seen) == 1

    def test_budget_timeout_bounds_each_attempt(self, stub):
        stub.delay_s = 0.3
        with pytest.raises(RemoteBackendError) as err:
            remote(stub.url, timeout_s=0.05).invoke(wire_request())
        assert "transport error: ReadTimeout" in str(err.value)

    def test_malformed_payload_retries_then_succeeds(self, stub):
        stub.replies = [(200, {"nope": True}), (200, completion("fine"))]
        assert remote(stub.url).invoke(wire_request()) == "fine"

    def test_unreachable_endpoint_raises(self):
        reasoner = remote("http://127.0.0.1:1", timeout_s=0.5)
        with pytest.raises(RemoteBackendError) as err:
            reasoner.invoke(wire_request("x"))
        assert "transport error" in str(err.value)


class TestTransport:
    """Replies framed and ended the ways an HTTP/1.1 server may choose."""

    def test_idle_connection_closed_by_the_server_is_replaced(self, keep_alive_stub):
        keep_alive_stub.keep_alive_s = 0.05
        keep_alive_stub.replies = [(200, completion("one")), (200, completion("two"))]
        with contextlib.closing(remote(keep_alive_stub.url)) as reasoner:
            assert reasoner.invoke(wire_request()) == "one"
            keep_alive_stub.wait_closed(1)
            assert reasoner.invoke(wire_request()) == "two"
        assert len(keep_alive_stub.seen) == 2
        assert keep_alive_stub.connections == 2

    def test_body_cut_short_is_a_transport_error(self, keep_alive_stub, monkeypatch):
        monkeypatch.setattr(remote_module, "RETRY_BACKOFF_S", 0.0)
        attempts = 1 + remote_module.TRANSPORT_RETRIES
        cut_short = (200, b"0123456789", {"Content-Length": "100"})
        keep_alive_stub.replies = [cut_short] * (2 * attempts)
        with contextlib.closing(remote(keep_alive_stub.url)) as reasoner:
            for call in (1, 2):
                with pytest.raises(RemoteBackendError) as err:
                    reasoner.invoke(wire_request())
                assert str(err.value).startswith("transport error:")
                assert f"after {attempts} attempt(s)" in str(err.value)
                assert len(keep_alive_stub.seen) == 3 * call

    def test_reset_mid_response_is_a_transport_error(self, keep_alive_stub, monkeypatch):
        monkeypatch.setattr(remote_module, "RETRY_BACKOFF_S", 0.0)
        attempts = 1 + remote_module.TRANSPORT_RETRIES
        reset = (200, b"0123456789", {"Content-Length": "100", RESET: ""})
        keep_alive_stub.replies = [reset] * attempts
        with contextlib.closing(remote(keep_alive_stub.url)) as reasoner:
            with pytest.raises(RemoteBackendError) as err:
                reasoner.invoke(wire_request())
        assert str(err.value).startswith("transport error:")
        assert f"after {attempts} attempt(s)" in str(err.value)
        assert len(keep_alive_stub.seen) == attempts
        assert keep_alive_stub.connections == attempts

    def test_chunked_replies_share_one_connection(self, keep_alive_stub):
        chunked = {"Transfer-Encoding": "chunked"}
        keep_alive_stub.replies = [(200, completion(text), chunked) for text in ("one", "two")]
        with contextlib.closing(remote(keep_alive_stub.url)) as reasoner:
            assert [reasoner.invoke(wire_request()) for _ in range(2)] == ["one", "two"]
        assert len(keep_alive_stub.seen) == 2
        assert keep_alive_stub.connections == 1

    def test_connection_close_replies_take_a_connection_each(self, keep_alive_stub):
        close = {"Connection": "close"}
        keep_alive_stub.replies = [(200, completion(text), close) for text in ("one", "two")]
        with contextlib.closing(remote(keep_alive_stub.url)) as reasoner:
            assert [reasoner.invoke(wire_request()) for _ in range(2)] == ["one", "two"]
        assert len(keep_alive_stub.seen) == 2
        assert keep_alive_stub.connections == 2

    def test_request_body_bytes(self, keep_alive_stub):
        prompt = 'say "hi"\n\tto the café ☕'
        with contextlib.closing(remote(keep_alive_stub.url)) as reasoner:
            assert reasoner.invoke(wire_request(prompt)) == "propose: IDLE"
        body = {"model": "m", "temperature": 0, "messages": [{"role": "user", "content": prompt}]}
        expected = json.dumps(body, allow_nan=False).encode("utf-8")
        assert [seen["raw"] for seen in keep_alive_stub.seen] == [expected]

    def test_a_client_that_hangs_up_early_leaves_the_stub_quiet(self, stub, capsys):
        # The stub holds the reply while the client resets the connection,
        # so writing the reply fails.
        stub.delay_s = 0.2
        host, port = stub.server_address
        with socket.create_connection((host, port)) as client:
            client.sendall(b"POST /chat/completions HTTP/1.0\r\nContent-Length: 2\r\n\r\n{}")
            deadline = time.monotonic() + 5.0
            while not stub.seen:
                assert time.monotonic() < deadline, "the stub never read the request"
                time.sleep(0.005)
            client.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        stub.wait_closed(1)
        assert "Exception occurred during processing of request" not in capsys.readouterr().err


# One reply from the stub's vocabulary: a status, how the body is framed and
# ended, a usable completion or not, and how the body is encoded: as it is,
# compressed to match its Content-Encoding, or not gzip under a gzip header.
# A redirect sends the client to /v2.
_REDIRECT = {"Location": "/v2/chat/completions"}
_FRAMINGS = {
    "content-length": {},
    "chunked": {"Transfer-Encoding": "chunked"},
    "connection close": {"Connection": "close"},
    "cut short": {"Content-Length": "1000"},
    "reset": {"Content-Length": "1000", RESET: ""},
}
_ENCODINGS = {
    "identity": ({}, lambda data: data),
    "gzip": ({"Content-Encoding": "gzip"}, gzip.compress),
    "deflate": ({"Content-Encoding": "deflate"}, zlib.compress),
    "broken gzip": ({"Content-Encoding": "gzip"}, lambda data: b"not gzip"),
}
_SCRIPTED_REPLY = st.builds(
    lambda status, framing, payload, encoding: (
        status,
        _ENCODINGS[encoding][1](json.dumps(payload).encode()),
        {
            **_FRAMINGS[framing],
            **_ENCODINGS[encoding][0],
            **(_REDIRECT if 300 <= status < 400 else {}),
        },
    ),
    st.sampled_from([200, 301, 307, 308, 404, 429, 500]),
    st.sampled_from(sorted(_FRAMINGS)),
    st.sampled_from([completion("propose: IDLE"), {"choices": []}]),
    st.sampled_from(list(_ENCODINGS)),
)


# The session's transport adapter class, then requests' stock one.
ADAPTERS = (remote_module._keep_alive_adapter(), requests.adapters.HTTPAdapter)


def answer(adapter, monkeypatch, url, timeout_s=5.0):
    """invoke's reply, or its RemoteBackendError message up to " to http",
    with ``adapter`` built as the session's transport."""
    with monkeypatch.context() as patch:
        patch.setattr(remote_module, "_keep_alive_adapter", lambda: adapter)
        with contextlib.closing(remote(url, timeout_s)) as reasoner:
            try:
                return reasoner.invoke(wire_request())
            except RemoteBackendError as exc:
                return str(exc).split(" to http")[0]


def self_signed(path):
    """A certificate for 127.0.0.1 signed by its own key, written to
    ``path``.pem with the key in ``path``.key; returns both file names."""
    key = ec.generate_private_key(ec.SECP256R1())
    name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, "127.0.0.1")])
    now = datetime.datetime.now(datetime.timezone.utc)
    cert = (
        x509.CertificateBuilder()
        .subject_name(name)
        .issuer_name(name)
        .public_key(key.public_key())
        .serial_number(x509.random_serial_number())
        .not_valid_before(now - datetime.timedelta(hours=1))
        .not_valid_after(now + datetime.timedelta(days=1))
        .add_extension(
            x509.SubjectAlternativeName([x509.IPAddress(ipaddress.ip_address("127.0.0.1"))]),
            critical=False,
        )
        .add_extension(x509.BasicConstraints(ca=True, path_length=None), critical=True)
        .sign(key, hashes.SHA256())
    )
    cert_path, key_path = f"{path}.pem", f"{path}.key"
    with open(cert_path, "wb") as handle:
        handle.write(cert.public_bytes(serialization.Encoding.PEM))
    with open(key_path, "wb") as handle:
        handle.write(
            key.private_bytes(
                serialization.Encoding.PEM,
                serialization.PrivateFormat.PKCS8,
                serialization.NoEncryption(),
            )
        )
    return cert_path, key_path


@pytest.fixture
def tls_stub(monkeypatch, tmp_path):
    """A keep-alive stub speaking TLS with a certificate for 127.0.0.1 that
    only the file ``cert_path`` vouches for."""
    server = StubServer(keep_alive_s=1.0)
    server.cert_path, key_path = self_signed(tmp_path / "stub")
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(server.cert_path, key_path)
    server.socket = context.wrap_socket(server.socket, server_side=True)
    server.scheme = "https"
    yield from serve(monkeypatch, server)


class TestKeepAliveAdapter:
    """What the transport adapter keeps of requests' stock one on plain http:
    the answer to every scripted reply, encoded body and stalled body,
    cookies, and no more connections than calls in flight. An https or a
    proxied request goes through the stock adapter itself, so TLS
    verification and its failures are requests' own."""

    def test_set_cookie_reaches_the_next_request(self, keep_alive_stub, monkeypatch):
        monkeypatch.setattr(remote_module, "RETRY_BACKOFF_S", 0.0)
        keep_alive_stub.replies = [
            (200, {"nope": True}, {"Set-Cookie": "sid=abc; Path=/"}),
            (200, completion("ok")),
        ]
        with contextlib.closing(remote(keep_alive_stub.url)) as reasoner:
            assert reasoner.invoke(wire_request()) == "ok"
        assert [seen["cookie"] for seen in keep_alive_stub.seen] == [None, "sid=abc"]

    def test_a_proxied_endpoint_goes_through_the_stock_adapter(
        self, stub, other_stub, monkeypatch
    ):
        monkeypatch.setenv("HTTP_PROXY", other_stub.url)
        for name in ("NO_PROXY", "no_proxy"):
            monkeypatch.delenv(name, raising=False)
        other_stub.replies = [(200, completion("via the proxy"))]
        with contextlib.closing(remote(stub.url)) as reasoner:
            assert reasoner.invoke(wire_request()) == "via the proxy"
        assert stub.seen == []
        # A proxy is sent the request line in absolute form.
        assert [seen["path"] for seen in other_stub.seen] == [f"{stub.url}/chat/completions"]

    def test_an_https_endpoint_goes_through_the_stock_adapter(self):
        with contextlib.closing(remote("https://127.0.0.1:1")) as reasoner:
            adapter = reasoner._session.get_adapter
            assert type(adapter("https://127.0.0.1:1/v1")) is requests.adapters.HTTPAdapter
            assert type(adapter("http://127.0.0.1:1/v1")) is ADAPTERS[0]

    def test_an_episode_opens_no_more_connections_than_calls_in_flight(self, keep_alive_stub):
        keep_alive_stub.policy = propose_goal_objects
        config = remote_manager_config(
            keep_alive_stub,
            task="PrepareAMeal",
            num_agents=3,
            member_backend="remote",
            max_steps=20,
            remote=RemoteConfig(keep_alive_stub.url, "house-7b", max_concurrency=2),
        )
        keep_alive_stub.delay_s = 0.002  # so that the round's calls overlap
        run_episode(config)
        assert keep_alive_stub.connections <= 2 < len(keep_alive_stub.seen)
        # Closing the reasoner at the episode's end closed every connection.
        keep_alive_stub.wait_closed(keep_alive_stub.connections)

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(script=st.lists(_SCRIPTED_REPLY, min_size=1, max_size=3))
    def test_replies_are_answered_as_the_stock_adapter_answers_them(self, monkeypatch, script):
        monkeypatch.setattr(remote_module, "RETRY_BACKOFF_S", 0.0)
        monkeypatch.setenv("HOMECREW_API_KEY", "sk-test-123")
        outcomes = []
        for adapter in ADAPTERS:
            server = StubServer(keep_alive_s=1.0)
            server.replies = list(script)
            with contextlib.contextmanager(serve)(monkeypatch, server):
                result = answer(adapter, monkeypatch, server.url)
            sent = [(seen["path"], seen["raw"], seen["authorization"]) for seen in server.seen]
            outcomes.append((result, sent))
        transport, stock = outcomes
        assert transport == stock

    def test_https_verifies_against_the_bundle_requests_names(self, tls_stub, monkeypatch):
        monkeypatch.setenv("REQUESTS_CA_BUNDLE", tls_stub.cert_path)
        with contextlib.closing(remote(tls_stub.url)) as reasoner:
            assert [reasoner.invoke(wire_request()) for _ in range(2)] == ["propose: IDLE"] * 2
        assert len(tls_stub.seen) == 2
        assert tls_stub.connections == 1

    @pytest.mark.parametrize(
        "status, framing, coding, body, expected",
        [
            (200, {}, "gzip", gzip.compress(json.dumps(completion("zipped")).encode()), "zipped"),
            (200, {}, "deflate", zlib.compress(json.dumps(completion("deflated")).encode()), "deflated"),
            (200, {}, "gzip", b"not gzip", "transport error: ContentDecodingError after 3 attempt(s)"),
            # Once decoding a redirect's body has failed, requests reads it
            # again undecoded, and what that read raises escapes Session.post.
            (
                307,
                {**_FRAMINGS["cut short"], **_REDIRECT},
                "gzip",
                gzip.compress(json.dumps(completion("moved")).encode()),
                "transport error: RuntimeError after 3 attempt(s)",
            ),
            (
                307,
                {**_FRAMINGS["cut short"], **_REDIRECT},
                "gzip",
                b"not gzip",
                "transport error: ProtocolError after 3 attempt(s)",
            ),
        ],
        ids=["gzip", "deflate", "broken gzip", "307 gzip cut short", "307 broken gzip cut short"],
    )
    def test_encoded_bodies_are_decoded_as_by_the_stock_adapter(
        self, monkeypatch, status, framing, coding, body, expected
    ):
        monkeypatch.setattr(remote_module, "RETRY_BACKOFF_S", 0.0)
        answers = []
        for adapter in ADAPTERS:
            server = StubServer(keep_alive_s=1.0)
            server.replies = [(status, body, {"Content-Encoding": coding, **framing})] * 3
            with contextlib.contextmanager(serve)(monkeypatch, server):
                answers.append(answer(adapter, monkeypatch, server.url))
        transport, stock = answers
        assert transport == stock == expected

    def test_a_body_that_stalls_mid_read_times_out_as_with_the_stock_adapter(self, monkeypatch):
        monkeypatch.setattr(remote_module, "RETRY_BACKOFF_S", 0.0)
        stalled = (200, completion("slow"), {"Content-Length": "1000", STALL: "0.4"})
        answers = []
        for adapter in ADAPTERS:
            server = StubServer(keep_alive_s=1.0)
            server.replies = [stalled] * 3
            with contextlib.contextmanager(serve)(monkeypatch, server):
                answers.append(answer(adapter, monkeypatch, server.url, timeout_s=0.1))
        assert answers == ["transport error: ConnectionError after 3 attempt(s)"] * 2

    def test_an_unknown_certificate_fails_as_with_the_stock_adapter(self, tls_stub, monkeypatch):
        monkeypatch.setattr(remote_module, "RETRY_BACKOFF_S", 0.0)
        for name in ("REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE"):
            monkeypatch.delenv(name, raising=False)
        with contextlib.closing(remote(tls_stub.url)) as reasoner:
            with pytest.raises(RemoteBackendError) as raised:
                reasoner.invoke(wire_request())
        assert str(raised.value).startswith("transport error: SSLError after 3 attempt(s)")
        assert tls_stub.seen == []

    def test_a_stalled_tls_handshake_times_out_as_with_the_stock_adapter(self, monkeypatch):
        # The kernel completes the TCP handshake for a socket that is
        # listening, but nothing ever answers the TLS handshake.
        monkeypatch.setattr(remote_module, "RETRY_BACKOFF_S", 0.0)
        with socket.create_server(("127.0.0.1", 0)) as listener:
            url = f"https://127.0.0.1:{listener.getsockname()[1]}"
            with contextlib.closing(remote(url, timeout_s=0.1)) as reasoner:
                with pytest.raises(RemoteBackendError) as raised:
                    reasoner.invoke(wire_request())
            assert str(raised.value).startswith("transport error: ReadTimeout after 3 attempt(s)")


class TestRedirects:
    """What the client does with a 3xx, chosen and pinned: a 307 or 308 is
    followed with the same POST, and the API key never goes to another host.
    After a 301, 302 or 303 the Location never receives a POST: the client
    re-sends the request there as a GET, which the stub answers 501, so the
    retry POSTs to the configured URL again."""

    @pytest.mark.parametrize("status", [307, 308])
    def test_307_and_308_repost_the_same_body(self, keep_alive_stub, monkeypatch, status):
        monkeypatch.setenv("STUB_KEY", "sk-test-123")
        keep_alive_stub.replies = [
            (status, {}, {"Location": "/v2/chat/completions"}),
            (200, completion("moved")),
        ]
        config = RemoteConfig(keep_alive_stub.url, "m", api_key_env="STUB_KEY")
        with contextlib.closing(RemoteReasoner(config)) as reasoner:
            assert reasoner.invoke(wire_request()) == "moved"
        first, second = keep_alive_stub.seen
        assert [first["path"], second["path"]] == ["/chat/completions", "/v2/chat/completions"]
        assert second["raw"] == first["raw"]
        assert first["authorization"] == second["authorization"] == "Bearer sk-test-123"

    def test_307_to_another_host_drops_the_api_key(self, stub, other_stub, monkeypatch):
        monkeypatch.setenv("STUB_KEY", "sk-test-123")
        # The first stub is reached as 127.0.0.1, the second as localhost.
        location = f"http://localhost:{other_stub.server_address[1]}/v2/chat/completions"
        stub.replies = [(307, {}, {"Location": location})]
        other_stub.replies = [(200, completion("moved"))]
        config = RemoteConfig(stub.url, "m", api_key_env="STUB_KEY")
        with contextlib.closing(RemoteReasoner(config)) as reasoner:
            assert reasoner.invoke(wire_request()) == "moved"
        assert [seen["authorization"] for seen in stub.seen] == ["Bearer sk-test-123"]
        assert [seen["authorization"] for seen in other_stub.seen] == [None]
        assert other_stub.seen[0]["raw"] == stub.seen[0]["raw"]

    @pytest.mark.parametrize("status", [301, 302, 303])
    def test_301_302_303_never_post_to_the_location(self, stub, monkeypatch, status):
        monkeypatch.setattr(remote_module, "RETRY_BACKOFF_S", 0.0)
        stub.replies = [
            (status, {}, {"Location": "/v2/chat/completions"}),
            (200, completion("here")),
        ]
        with contextlib.closing(remote(stub.url)) as reasoner:
            assert reasoner.invoke(wire_request()) == "here"
        assert [seen["path"] for seen in stub.seen] == ["/chat/completions"] * 2


_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)

# Any JSON value, and each step of the path to the content broken in turn.
_PAYLOAD = st.one_of(
    _JSON,
    st.builds(lambda choices: {"choices": choices}, _JSON),
    st.builds(lambda choice: {"choices": [choice]}, _JSON),
    st.builds(lambda message: {"choices": [{"message": message}]}, _JSON),
    st.builds(
        lambda content, usage: {"choices": [{"message": {"content": content}}], "usage": usage},
        st.text() | _JSON,
        _JSON,
    ),
)


def content_of(payload):
    """The reply text a completion payload carries, or None if it has none."""
    try:
        text = payload["choices"][0]["message"]["content"]
    except (LookupError, TypeError):
        return None
    return text if isinstance(text, str) else None


class TestPayloadBoundary:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(payload=_PAYLOAD)
    @example(payload=completion(None))
    @example(payload={"choices": [{"message": {"content": "ok"}}], "usage": "lots"})
    # Sent as raw bytes: json gives up on this nesting with RecursionError.
    @example(payload=b"[" * 200_000)
    def test_invoke_returns_the_content_or_raises_backend_error(
        self, stub, monkeypatch, payload
    ):
        monkeypatch.setattr(remote_module, "RETRY_BACKOFF_S", 0.0)
        stub.replies = [(200, payload)] * (1 + remote_module.TRANSPORT_RETRIES)
        content = content_of(payload)
        reasoner = remote(stub.url)
        try:
            reply = reasoner.invoke(wire_request())
        except RemoteBackendError as exc:
            assert content is None, exc
            assert "malformed completion payload" in str(exc)
        else:
            assert content is not None and reply == content
        finally:
            reasoner.close()


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
        ),
    )
    base.update(overrides)
    return EpisodeConfig(**base)


def garbage_allocations(body):
    """Sensible summaries, but no usable ALLOCATE reply ever."""
    prompt = body["messages"][0]["content"]
    if prompt.startswith("You are the team manager writing"):
        return approve_candidates(body)
    return 200, completion("not an assignment at all")


class TestRemoteEpisode:
    def test_manager_decisions_travel_over_http(self, stub):
        stub.policy = approve_candidates
        # one transport blip up front must not surface anywhere
        stub.replies = [(500, {"error": "flaky"})]
        result = run_episode(remote_manager_config(stub))
        assert result.success
        assert result.end["summaries"] >= 1
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

    def test_header_names_every_setting_the_exchanges_depend_on(self, stub):
        # Degraded allocations make the exchange count depend on the retry
        # count, so the header must pin it for the trace to replay.
        stub.policy = garbage_allocations
        config = remote_manager_config(stub)
        records = list(run_episode(config).records)
        allocations = [r for r in records if r["type"] == "allocation"]
        assert allocations
        assert all(r["attempts"] == 1 + PARSE_RETRIES for r in allocations)
        # Only where the replies came from is left out of the header.
        rebuilt = check_trace(records)[0]
        assert rebuilt == dataclasses.replace(config, remote=RemoteConfig())
        _, ok, message = replay_trace(records)
        assert ok, message
