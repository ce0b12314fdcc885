"""Client for an OpenAI-compatible chat-completions endpoint.

Requests are sent at temperature 0 with the rendered prompt as a single user
message. The API key is read from an environment variable at call time and
never stored on the instance, logged, or echoed into traces. Transport
failures, timeouts (408), throttling (429) and server errors retry with a
short backoff up to TRANSPORT_RETRIES times; any other 4xx cannot succeed on a
retry and fails at once. Either way the failure surfaces as
RemoteBackendError for the caller's fallback path to handle.

One instance may serve several threads at once; how many calls are in flight
is bounded by the caller (the episode loop's round pool), not here.

An instance reads its settings from a RemoteConfig and refuses, with
ConfigError, an endpoint that is not an http(s) URL with a host or an empty
model. ``requests`` is imported when the first instance is built, so a run
that uses no remote backend never loads the HTTP stack.
"""

from __future__ import annotations

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
        self.config = config
        self._url = f"{config.endpoint_url.rstrip('/')}/chat/completions"
        try:
            import requests
        except ImportError as exc:
            raise ConfigError(f"remote backend needs the requests package: {exc}") from exc
        self._transport_error = requests.RequestException
        self._session = requests.Session()

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
