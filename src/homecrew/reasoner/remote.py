"""Client for an OpenAI-compatible chat-completions endpoint.

Requests are sent at temperature 0 with the rendered prompt as a single user
message. The API key is read from an environment variable at call time and
never stored on the instance, logged, or echoed into traces. Transport
failures, timeouts (408), throttling (429) and server errors retry with a
short backoff up to transport_retries times; any other 4xx cannot succeed on a
retry and fails at once. Either way the failure surfaces as
RemoteBackendError for the caller's fallback path to handle.

One instance may serve several threads at once; how many calls are in flight
is bounded by the caller (the episode loop's round pool), not here.
"""

from __future__ import annotations

import os
import time

import requests

from ..errors import RemoteBackendError
from .base import TEXT, Reasoner, ReasonerRequest, ReasonerResponse

DEFAULT_KEY_ENV = "HOMECREW_API_KEY"
# Each attempt's connect and each wait for reply data.
DEFAULT_TIMEOUT_S = 30.0
DEFAULT_TRANSPORT_RETRIES = 2
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
        transport_retries: int = DEFAULT_TRANSPORT_RETRIES,
    ):
        if not endpoint_url:
            raise RemoteBackendError("remote backend needs an endpoint URL")
        self.endpoint_url = endpoint_url.rstrip("/")
        self.model = model
        self.api_key_env = api_key_env
        self.timeout_s = timeout_s
        self.transport_retries = transport_retries
        self._session = requests.Session()

    def close(self) -> None:
        self._session.close()

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.api_key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        return headers

    def invoke(self, request: ReasonerRequest) -> ReasonerResponse:
        body = {
            "model": self.model,
            "temperature": 0,
            "messages": [{"role": "user", "content": request.rendered_prompt}],
        }
        url = f"{self.endpoint_url}/chat/completions"
        attempts = 1 + self.transport_retries
        last_error = "no attempt made"
        made = 0
        while made < attempts:
            if made:
                time.sleep(RETRY_BACKOFF_S)
            made += 1
            started = time.monotonic()
            try:
                reply = self._session.post(
                    url,
                    json=body,
                    headers=self._headers(),
                    timeout=self.timeout_s,
                )
            except requests.RequestException as exc:
                last_error = f"transport error: {exc.__class__.__name__}"
                continue
            latency = time.monotonic() - started
            status = reply.status_code
            if status != 200:
                last_error = f"HTTP {status}"
                if 400 <= status < 500 and status not in RETRYABLE_4XX:
                    break
                continue
            try:
                payload = reply.json()
                text = payload["choices"][0]["message"]["content"]
            except (ValueError, LookupError, TypeError):
                last_error = "malformed completion payload"
                continue
            usage = payload.get("usage") or {}
            counts = {
                key: int(value)
                for key, value in usage.items()
                if isinstance(value, int)
            }
            return ReasonerResponse(
                raw_text=str(text), latency_s=latency, token_counts=counts
            )
        raise RemoteBackendError(f"{last_error} after {made} attempt(s) to {url}")
