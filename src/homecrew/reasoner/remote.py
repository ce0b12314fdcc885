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

``requests`` is imported when the first instance is built, so a run that
uses no remote backend never loads the HTTP stack.
"""

from __future__ import annotations

import os
import time

from ..errors import ConfigError, RemoteBackendError
from .base import TEXT, Reasoner, ReasonerRequest

DEFAULT_KEY_ENV = "HOMECREW_API_KEY"
# Each attempt's connect and each wait for reply data.
DEFAULT_TIMEOUT_S = 30.0
TRANSPORT_RETRIES = 2
RETRY_BACKOFF_S = 0.05
# Client errors that a later attempt can still get past.
RETRYABLE_4XX = (408, 429)


class RemoteReasoner(Reasoner):
    name = "remote"
    produces = TEXT

    def __init__(
        self,
        endpoint_url: str,
        model: str,
        api_key_env: str = DEFAULT_KEY_ENV,
        timeout_s: float = DEFAULT_TIMEOUT_S,
    ):
        if not endpoint_url:
            raise ConfigError("remote backend needs an endpoint URL")
        self.endpoint_url = endpoint_url.rstrip("/")
        self.model = model
        self.api_key_env = api_key_env
        self.timeout_s = timeout_s
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
        api_key = os.environ.get(self.api_key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        return headers

    def invoke(self, request: ReasonerRequest) -> str:
        body = {
            "model": self.model,
            "temperature": 0,
            "messages": [{"role": "user", "content": request.rendered_prompt}],
        }
        url = f"{self.endpoint_url}/chat/completions"
        attempts = 1 + TRANSPORT_RETRIES
        last_error = "no attempt made"
        made = 0
        while made < attempts:
            if made:
                time.sleep(RETRY_BACKOFF_S)
            made += 1
            try:
                reply = self._session.post(
                    url,
                    json=body,
                    headers=self._headers(),
                    timeout=self.timeout_s,
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
            except (ValueError, LookupError, TypeError):
                text = None
            if isinstance(text, str):
                return text
            last_error = "malformed completion payload"
        raise RemoteBackendError(f"{last_error} after {made} attempt(s) to {url}")
