"""A local stdlib HTTP stub speaking just enough of the chat-completions
shape for backend tests: queued replies first, then a policy callable that
answers from the request body. A reply is a status and a JSON payload, or
raw bytes sent as they are, optionally followed by headers that replace the
stub's own: ``Transfer-Encoding: chunked`` sends the body in two chunks, a
``Content-Length`` past the body's end closes the connection after it, and a
``RESET`` header is not sent but resets the connection after the body
(``SO_LINGER`` 0, then close). A ``STALL`` header is not sent either: the
stub waits its value in seconds after a body that is not chunked, so a body
short of its ``Content-Length`` stalls mid-read before the connection ends.
The stub answers POST only, so a client that follows a redirect with a GET
is answered 501.
Every request lands in ``seen`` with its path, Authorization and Cookie
headers, and its body both parsed and as the raw bytes received; each one
is held for ``delay_s`` before the reply goes out, and ``max_in_flight`` is
the most requests it was handling at once. A client that hangs up before
its reply is written ends its connection quietly.

The stub speaks HTTP/1.0 and closes each connection after one reply. Built
with ``keep_alive_s``, it speaks HTTP/1.1 and keeps a connection open until
it has been idle that long. ``connections`` counts the connections accepted
and ``closed`` those closed again."""

from __future__ import annotations

import json
import re
import socket
import struct
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


RESET = "X-Stub-Reset"
STALL = "X-Stub-Stall"


def completion(text, **usage):
    return {
        "choices": [{"message": {"content": text}}],
        "usage": usage or {"total_tokens": 7},
    }


class StubServer(ThreadingHTTPServer):
    """Queued replies are consumed first; afterwards the policy callable
    answers from the request body. Every request is recorded in ``seen``."""

    def __init__(self, keep_alive_s=None):
        super().__init__(("127.0.0.1", 0), _StubHandler)
        self.keep_alive_s = keep_alive_s
        self.scheme = "http"  # "https" once the caller wraps the socket in TLS
        self.connections = 0
        self.closed = 0
        self.seen = []
        self.replies = []
        self.policy = None
        self.delay_s = 0.0
        self.in_flight = 0
        self.max_in_flight = 0
        self.lock = threading.Lock()

    @property
    def url(self):
        return f"{self.scheme}://127.0.0.1:{self.server_address[1]}"

    def next_reply(self, body):
        with self.lock:
            if self.replies:
                return self.replies.pop(0)
        if self.policy is not None:
            return self.policy(body)
        return 200, completion("propose: IDLE")

    def shutdown_request(self, request):
        super().shutdown_request(request)
        with self.lock:
            self.closed += 1

    def wait_closed(self, count, timeout_s=5.0):
        """Block until ``count`` connections have been closed."""
        deadline = time.monotonic() + timeout_s
        while self.closed < count:
            assert time.monotonic() < deadline, f"{self.closed} of {count} connections closed"
            time.sleep(0.005)


class _StubHandler(BaseHTTPRequestHandler):
    def setup(self):
        if self.server.keep_alive_s is not None:
            self.protocol_version = "HTTP/1.1"
            # An idle read times out and ends the connection.
            self.timeout = self.server.keep_alive_s
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        body = json.loads(raw or b"{}")
        server = self.server
        with server.lock:
            server.seen.append(
                {
                    "path": self.path,
                    "authorization": self.headers.get("Authorization"),
                    "cookie": self.headers.get("Cookie"),
                    "body": body,
                    "raw": raw,
                }
            )
            server.in_flight += 1
            server.max_in_flight = max(server.max_in_flight, server.in_flight)
        try:
            status, payload, *headers = server.next_reply(body)
            time.sleep(server.delay_s)
            data = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
            self.send_reply(status, data, *headers)
        except (BrokenPipeError, ConnectionResetError):
            # The client hung up before the reply went out; nobody reads it.
            self.close_connection = True
        finally:
            with server.lock:
                server.in_flight -= 1

    def send_reply(self, status, data, headers=()):
        headers = {
            "Content-Type": "application/json",
            "Content-Length": str(len(data)),
            **dict(headers),
        }
        reset = headers.pop(RESET, None) is not None
        stall_s = float(headers.pop(STALL, 0))
        chunked = headers.get("Transfer-Encoding") == "chunked"
        if chunked:
            del headers["Content-Length"]
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        if chunked:
            half = len(data) // 2
            for piece in (data[:half], data[half:], b""):
                self.wfile.write(b"%x\r\n%s\r\n" % (len(piece), piece))
        else:
            self.wfile.write(data)
            # The client waits for the rest of a short body until the connection ends.
            if int(headers["Content-Length"]) > len(data):
                self.close_connection = True
            time.sleep(stall_s)
        if reset:
            # A zero linger turns close into a reset (RST) instead of a FIN.
            linger = struct.pack("ii", 1, 0)
            self.connection.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, linger)
            self.connection.close()
            self.close_connection = True

    def log_message(self, *args):
        pass


def approve_candidates(body):
    """Manager policy: give each member its own candidate, falling back to
    its alternatives (then IDLE) when another member already took the same
    object or goal slot; answer summary prompts with a fixed note."""
    prompt = body["messages"][0]["content"]
    if prompt.startswith("You are the team manager writing"):
        return 200, completion("the team kept placing goal items")
    blocks = re.findall(
        r"### agent (\d+)\nproposal: (.+)\n(?:reason: .+\n)?alternatives: (.+)",
        prompt,
    )
    taken = set()
    lines = []
    for agent_id, candidate, alts in blocks:
        options = [candidate]
        if alts.strip() != "(none)":
            options += [alt.strip() for alt in alts.split(" | ")]
        options.append("IDLE")
        for option in options:
            fetch = re.match(r"FETCH\((\w+),", option)
            if fetch:
                name = fetch.group(1)
                keys = {name, name.rsplit("_", 1)[0]}
            else:
                keys = set()
            if keys & taken:
                continue
            taken |= keys
            lines.append(f"{agent_id}: {option}")
            break
    return 200, completion("```\n" + "\n".join(lines) + "\n```")


def propose_goal_objects(body):
    """Member policy on top of approve_candidates: propose fetching the
    remembered goal objects (by predicate, then object id) that are neither at
    their target nor in another agent's hand, while the predicate still has
    units to place; otherwise explore, unvisited rooms first, starting at a
    room picked by agent id."""
    prompt = body["messages"][0]["content"]
    me = re.match(r"You are household robot agent (\d+)", prompt)
    if me is None:
        return approve_candidates(body)
    agent = int(me.group(1))
    facts = re.findall(r"^fact: (\S+) \((\S+)\) at (\S+) t=", prompt, re.M)
    options = []
    for count, cls, rel, target in re.findall(
        r"^- (?:place|put) (\d+) x (\S+) (ON|IN) (\S+)$", prompt, re.M
    ):
        goal = ("container:" if rel == "IN" else "surface:") + target
        if sum(1 for _, c, loc in facts if c == cls and loc == goal) >= int(count):
            continue
        for object_id, c, loc in sorted(facts):
            held_elsewhere = loc.startswith("agent:") and loc != f"agent:{agent}"
            if c == cls and loc != goal and not held_elsewhere:
                options.append(f"FETCH({object_id}, {rel}, {target})")
    rooms = re.search(r" rooms: (.+)$", prompt, re.M).group(1).split(", ")
    visited = set(re.findall(r"^visited: (\S+) t=", prompt, re.M))
    rooms = rooms[agent % len(rooms):] + rooms[: agent % len(rooms)]
    rooms.sort(key=lambda room: room in visited)
    options.append(f"EXPLORE({rooms[0]})")
    lines = [f"propose: {options[0]}"] + [f"alt: {task}" for task in options[1:4]]
    return 200, completion("\n".join(lines))


def unavailable(body):
    """Policy of an endpoint that is down: every request is answered 503."""
    return 503, {"error": {"message": "service unavailable"}}
