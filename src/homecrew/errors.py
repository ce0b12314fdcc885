"""Shared exception types, and the checks their messages rely on.

Callers distinguish bad configuration (reject before running), contract
violations (a caller broke a documented precondition), and recoverable
reasoner problems (parse failures, exhausted fixtures, transport errors).
"""

from __future__ import annotations

# The longest message a refused reply leaves in a degraded decision's note.
# The trace's exchange record keeps the whole reply.
NOTE_LIMIT = 200


def clip(text: str) -> str:
    """``text`` cut to NOTE_LIMIT characters, the last being an ellipsis."""
    return text if len(text) <= NOTE_LIMIT else text[: NOTE_LIMIT - 1] + "\u2026"


def is_int(value) -> bool:
    """An integer that is not a bool, as a JSON field."""
    return isinstance(value, int) and not isinstance(value, bool)


class EngineError(Exception):
    """Base class for engine-raised errors."""


class ConfigError(EngineError):
    """Invalid configuration or scenario definition."""


class ContractViolation(EngineError):
    """A documented precondition was broken by the caller."""


class ResponseParseError(EngineError):
    """A reasoner response did not match the expected grammar."""

    def __init__(self, reason: str, line: str | None = None):
        detail = reason if line is None else f"{reason}: {line!r}"
        super().__init__(clip(detail))


class FixtureExhausted(EngineError):
    """The scripted backend ran out of recorded responses for a key."""


class RemoteBackendError(EngineError):
    """The remote endpoint failed after exhausting transport retries."""
