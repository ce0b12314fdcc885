"""Client for an OpenAI-compatible chat-completions endpoint.

Requests are sent at temperature 0 with the rendered prompt as a single user
message. The API key is read from an environment variable at call time and
never stored on the instance, logged, or echoed into traces. Transport
failures, timeouts (408), throttling (429) and server errors retry with a
short backoff up to TRANSPORT_RETRIES times; any other 4xx cannot succeed on a
retry and fails at once. Either way the failure surfaces as
RemoteBackendError for the caller's fallback path to handle. A transport
failure is named by its class, including the urllib3 error or RuntimeError
that requests lets escape when a redirect's encoded body breaks.

One instance may serve several threads at once; how many calls are in flight
is bounded by the caller (the episode loop's round pool), not here.
``requests`` builds each request and follows redirects. A plain-http request
is sent over a kept-alive ``http.client`` connection from an idle stack those
threads share. urllib3's HTTPResponse reads the reply, as it does for
requests' stock HTTPAdapter, and puts the connection back once it has read
the whole body, so no more are open than calls in flight. A failure closes
its connection, is not re-sent, and raises what the stock adapter raises.
An https request and a request sent to a proxy both go through that stock
adapter, so TLS verification is requests' own and homecrew holds no TLS code.

An instance reads its settings from a RemoteConfig and refuses, with
ConfigError, an endpoint that is not an http(s) URL with a host, one with a
query or fragment (even an empty one), or an empty model. ``requests`` and
``http.client`` are imported when the first instance is built, so a run with
no remote backend never loads the HTTP stack.
"""

from __future__ import annotations

import functools
import os
import time
from typing import TYPE_CHECKING
from urllib.parse import urlsplit

from ..errors import ConfigError, RemoteBackendError
from .base import TEXT, Reasoner, ReasonerRequest

if TYPE_CHECKING:
    from ..harness.config import RemoteConfig

TRANSPORT_RETRIES = 2
RETRY_BACKOFF_S = 0.05
# Client errors that a later attempt can still get past.
RETRYABLE_4XX = (408, 429)


class RemoteReasoner(Reasoner):
    name = "remote"
    produces = TEXT

    def __init__(self, config: RemoteConfig):
        try:
            parts = urlsplit(config.endpoint_url)
            parts.port  # raises ValueError for a port that is not a number in range
        except ValueError:
            parts = None
        if not (parts and parts.scheme in ("http", "https") and parts.hostname and config.model):
            raise ConfigError(
                "remote backend needs an http(s) endpoint URL with a host and a model, "
                f"got endpoint {config.endpoint_url!r} and model {config.model!r}"
            )
        if "?" in config.endpoint_url or "#" in config.endpoint_url:
            raise ConfigError(
                f"remote endpoint {config.endpoint_url!r} has a query or fragment, "
                "which would swallow the /chat/completions appended to its path"
            )
        self.config = config
        self._url = f"{config.endpoint_url.rstrip('/')}/chat/completions"
        try:
            import requests
        except ImportError as exc:
            raise ConfigError(f"remote backend needs the requests package: {exc}") from exc
        from urllib3.exceptions import HTTPError

        # Following a redirect whose encoded body broke, requests reads that body
        # again, and the second read's urllib3 error or RuntimeError escapes post.
        self._transport_error = (requests.RequestException, HTTPError, RuntimeError)
        self._session = requests.Session()
        # https:// keeps the stock adapter that Session() mounts for it.
        self._session.mount("http://", _keep_alive_adapter()())

    def close(self) -> None:
        self._session.close()

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.config.api_key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        return headers

    def invoke(self, request: ReasonerRequest) -> str:
        body = {
            "model": self.config.model,
            "temperature": 0,
            "messages": [{"role": "user", "content": request.rendered_prompt}],
        }
        attempts = 1 + TRANSPORT_RETRIES
        last_error = "no attempt made"
        made = 0
        while made < attempts:
            if made:
                time.sleep(RETRY_BACKOFF_S)
            made += 1
            try:
                reply = self._session.post(
                    self._url,
                    json=body,
                    headers=self._headers(),
                    timeout=self.config.timeout_s,
                )
            except self._transport_error as exc:
                last_error = f"transport error: {exc.__class__.__name__}"
                continue
            status = reply.status_code
            if status != 200:
                last_error = f"HTTP {status}"
                if 400 <= status < 500 and status not in RETRYABLE_4XX:
                    break
                continue
            try:
                text = reply.json()["choices"][0]["message"]["content"]
            except (ValueError, LookupError, TypeError, RecursionError):
                text = None
            if isinstance(text, str):
                return text
            last_error = "malformed completion payload"
        raise RemoteBackendError(f"{last_error} after {made} attempt(s) to {self._url}")


@functools.lru_cache(maxsize=None)
def _keep_alive_adapter():
    """The session's transport adapter class, built on first use, not at import."""
    import http.client
    import select
    import threading

    import requests
    from requests import exceptions
    from urllib3 import HTTPHeaderDict, HTTPResponse

    class KeepAliveAdapter(requests.adapters.HTTPAdapter):
        def __init__(self):
            super().__init__()
            self._idle = {}  # (host, port) -> connections free for reuse
            self._lock = threading.Lock()
            self._closed = False

        def send(self, request, stream=False, timeout=None, verify=True, cert=None, proxies=None):
            if requests.utils.select_proxy(request.url, proxies):
                # Only the stock adapter this class extends speaks to a proxy.
                return super().send(request, stream, timeout, verify, cert, proxies)
            parts = urlsplit(request.url)
            origin = (parts.hostname, parts.port)
            with self._lock:
                idle = self._idle.get(origin)
                conn = idle.pop() if idle else None
            if conn is not None and select.select([conn.sock], [], [], 0)[0]:
                conn.close()  # something to read on an idle connection: the server closed it
                conn = None
            if conn is None:
                conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=timeout)
                conn.origin = origin
            # What HTTPAdapter raises on a timeout: connecting, then reading.
            on_timeout = exceptions.ConnectTimeout
            try:
                if conn.sock is None:
                    conn.connect()
                on_timeout = exceptions.ReadTimeout
                conn.sock.settimeout(timeout)
                conn.request(request.method, request.path_url, request.body, request.headers)
                reply = conn.getresponse()
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                error = on_timeout if isinstance(exc, TimeoutError) else exceptions.ConnectionError
                raise error(exc, request=request) from None
            # The body is read, decoded and its failures raised by urllib3's
            # reply, as for the stock adapter; it hands the connection to _put_conn.
            raw = HTTPResponse(
                body=reply, headers=HTTPHeaderDict(reply.msg.items()), status=reply.status,
                version=reply.version, reason=reply.reason, preload_content=False,
                decode_content=False, original_response=reply, pool=self, connection=conn,
                request_method=request.method, request_url=request.url,
            )
            return self.build_response(request, raw)

        def _put_conn(self, conn):
            """Called by urllib3's reply once it has read the body or closed the
            connection on a failure: keep the connection only while it is open."""
            with self._lock:
                if conn.sock is not None and not self._closed:
                    self._idle.setdefault(conn.origin, []).append(conn)
                    return
            conn.close()

        def close(self):
            with self._lock:
                self._closed = True
                idle, self._idle = self._idle, {}
            for conn in (conn for conns in idle.values() for conn in conns):
                conn.close()
            super().close()

    return KeepAliveAdapter
