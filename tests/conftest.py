"""Shared fixtures, and scripts/ on the import path: the tests share
update_goldens' pinned episodes, capture backend and reply writer."""

from __future__ import annotations

import os
import sys
import threading

import pytest

from stubserver import StubServer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "scripts"))


def serve(monkeypatch, server):
    # requests must not route loopback through a proxy
    for name in ("HTTP_PROXY", "HTTPS_PROXY", "http_proxy", "https_proxy"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("NO_PROXY", "127.0.0.1,localhost")
    # a short poll keeps shutdown() from waiting out the default 0.5 s
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


@pytest.fixture
def stub(monkeypatch):
    yield from serve(monkeypatch, StubServer())


@pytest.fixture
def keep_alive_stub(monkeypatch):
    """An HTTP/1.1 stub that closes a connection idle for a second."""
    yield from serve(monkeypatch, StubServer(keep_alive_s=1.0))


@pytest.fixture
def other_stub(monkeypatch):
    """A second stub, for replies that send the client to another host."""
    yield from serve(monkeypatch, StubServer())
