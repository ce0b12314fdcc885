"""Deterministic loopback chat-completions stub for the remote-stub workload.

Every reply is a pure function of the request body; the server adds one fixed
delay per request to stand in for model latency. The policies read only the
prompt text (never the workload name) and play a competent team:

- PROPOSE: fetch a believed goal object that is not yet at its target and not
  in another agent's hand (the held one first), else sweep a room that can
  still hide objects.
- ALLOCATE: give each agent, in id order, the first of its proposal,
  alternatives and IDLE that binds no object already taken and keeps every
  goal predicate within its remaining units. The remaining units are counted
  from the union of the members' belief digests, which never undercounts the
  merged team belief, so the reply always passes the conflict check.
- SUMMARIZE: restate what changed in one line.

The server speaks HTTP/1.1 so one client session keeps one connection, counts
every request, and records the most connections open at once.
"""

from __future__ import annotations

import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Tuple

DELAY_S = 0.010
MODEL = "homecrew-loopback"

_PRED_RE = re.compile(r"^- (?:place|put) (\d+) x (\S+) (ON|IN) (\S+)$")
_FACT_RE = re.compile(r"^fact: (\S+) \((\S+)\) at (\S+) t=\d+$")
_VISIT_RE = re.compile(r"^visited: (\S+) t=(\d+)$")
_FETCH_RE = re.compile(r"^FETCH\((\S+), (ON|IN), (\S+)\)$")


def _sections(prompt: str) -> Dict[str, List[str]]:
    """Prompt lines grouped under their ``## `` headings."""
    out: Dict[str, List[str]] = {"": []}
    current = ""
    for line in prompt.split("\n"):
        if line.startswith("## "):
            current = line[3:].strip()
            out[current] = []
        else:
            out[current].append(line)
    return out


def _predicates(lines: List[str]) -> List[Tuple[int, str, str, str]]:
    """(count, object_class, relation, target) per objective line."""
    preds = []
    for line in lines:
        match = _PRED_RE.match(line.strip())
        if match:
            count, cls, rel, target = match.groups()
            preds.append((int(count), cls, rel, target))
    return preds


def _goal_location(relation: str, target: str) -> str:
    return f"{'container' if relation == 'IN' else 'surface'}:{target}"


def _class_of(object_id: str) -> str:
    return object_id.rsplit("_", 1)[0]


def _form_list(forms: List[str], label: str) -> List[str]:
    for line in forms:
        if f" {label}: " in line:
            return [item.strip() for item in line.split(f" {label}: ", 1)[1].split(",")]
    return []


def propose_reply(prompt: str) -> str:
    sec = _sections(prompt)
    me = int(re.search(r"robot agent (\d+) on a team", prompt).group(1))
    preds = _predicates(sec.get("Objective", []))
    facts: Dict[str, Tuple[str, str]] = {}
    visited: Dict[str, int] = {}
    for line in sec.get("Your memory", []):
        fact = _FACT_RE.match(line)
        if fact:
            facts[fact.group(1)] = (fact.group(2), fact.group(3))
        visit = _VISIT_RE.match(line)
        if visit:
            visited[visit.group(1)] = int(visit.group(2))
    observation = sec.get("Current observation", [])
    room = re.match(r"observation: agent \d+ in (\S+)", observation[0]).group(1)
    closed_here = [line for line in observation if re.match(r"container: \S+ closed$", line)]
    rooms = _form_list(sec.get("Response format", []), "rooms")

    mine = f"agent:{me}"
    ranked = []
    for idx, (count, cls, rel, target) in enumerate(preds):
        goal_loc = _goal_location(rel, target)
        placed = sum(1 for c, loc in facts.values() if c == cls and loc == goal_loc)
        if placed >= count:
            continue
        for object_id in sorted(facts):
            c, loc = facts[object_id]
            if c != cls or loc == goal_loc:
                continue
            if loc.startswith("agent:") and loc != mine:
                continue
            rank = (0 if loc == mine else 1, object_id, idx)
            ranked.append((rank, f"FETCH({object_id}, {rel}, {target})"))
    ranked.sort()
    fetches = [task for _, task in ranked]

    if closed_here:
        sweep = [room]
    else:
        unvisited = [r for r in rooms if r not in visited]
        if unvisited:
            shift = (me - 1) % len(unvisited)
            sweep = unvisited[shift:] + unvisited[:shift]
        else:
            sweep = sorted((r for r in rooms if r != room), key=lambda r: (visited[r], r))
    explores = [f"EXPLORE({r})" for r in sweep[:2]] or ["IDLE"]

    if fetches:
        lines = [f"propose: {fetches[0]}"]
        lines += [f"alt: {task}" for task in fetches[1:3]]
        lines.append(f"alt: {explores[0]}")
        lines.append("why: nearest known goal object")
    else:
        lines = [f"propose: {explores[0]}"]
        lines += [f"alt: {task}" for task in explores[1:]]
        lines.append("why: no usable goal object known")
    return "\n".join(lines)


def allocate_reply(prompt: str) -> str:
    sec = _sections(prompt)
    preds = _predicates(sec.get("Objective", []))
    blocks = re.findall(
        r"### agent (\d+)\nproposal: (.+)\n(?:reason: .*\n)?alternatives: (.+)\n"
        r"belief:\n  goal objects: (.+)\n",
        "\n".join(sec.get("Team context", [])) + "\n",
    )
    at_target: Dict[str, set] = {}
    for _, _, _, digest in blocks:
        for item in digest.split():
            if "@" in item:
                object_id, loc = item.split("@", 1)
                at_target.setdefault(loc, set()).add(object_id)
    remaining: Dict[Tuple[str, str, str], int] = {}
    placed_ids = set()
    for count, cls, rel, target in preds:
        ids = {o for o in at_target.get(_goal_location(rel, target), ()) if _class_of(o) == cls}
        placed_ids |= ids
        remaining[(rel, cls, target)] = max(0, count - len(ids))

    taken = set()
    load: Dict[Tuple[str, str, str], int] = {}
    lines = []
    for agent_id, proposal, alts, _ in blocks:
        options = [proposal.strip()]
        if alts.strip() != "(none)":
            options += [alt.strip() for alt in alts.split(" | ")]
        options.append("IDLE")
        for option in options:
            fetch = _FETCH_RE.match(option)
            if fetch:
                ref, rel, target = fetch.groups()
                key = (rel, _class_of(ref), target)
                if ref in taken or ref in placed_ids:
                    continue
                if key in remaining and load.get(key, 0) >= remaining[key]:
                    continue
                taken.add(ref)
                load[key] = load.get(key, 0) + 1
            lines.append(f"{agent_id}: {option}")
            break
    return "```\n" + "\n".join(lines) + "\n```"


def summarize_reply(prompt: str) -> str:
    changed = " ".join(_sections(prompt).get("What changed", [])).strip()
    return f"The team moved the goal forward. {changed}"


def reply_text(body: dict) -> str:
    """The completion text for one request body."""
    prompt = body["messages"][0]["content"]
    if prompt.startswith("You are household robot agent"):
        return propose_reply(prompt)
    if prompt.startswith("You are the manager"):
        return allocate_reply(prompt)
    if prompt.startswith("You are the team manager writing"):
        return summarize_reply(prompt)
    return "IDLE"


def completion(body: dict) -> dict:
    text = reply_text(body)
    prompt_tokens = len(body["messages"][0]["content"]) // 4
    completion_tokens = len(text) // 4
    return {
        "model": body.get("model", MODEL),
        "choices": [{"message": {"role": "assistant", "content": text}}],
        "usage": {
            "prompt_tokens": prompt_tokens,
            "completion_tokens": completion_tokens,
            "total_tokens": prompt_tokens + completion_tokens,
        },
    }


class LoopbackStub(ThreadingHTTPServer):
    """Chat-completions server on 127.0.0.1 with a fixed per-request delay."""

    daemon_threads = True

    def __init__(self, delay_s: float = DELAY_S):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.delay_s = delay_s
        self.requests = 0
        self.errors = 0
        self.open_connections = 0
        self.max_connections = 0
        self.lock = threading.Lock()
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}"

    def start(self) -> "LoopbackStub":
        self._thread.start()
        return self

    def stop(self) -> None:
        self.shutdown()
        self.server_close()
        self._thread.join(timeout=5)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Headers and body go out in two writes; without this the client's
    # delayed ACK stalls every keep-alive reply by about 40 ms.
    disable_nagle_algorithm = True

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.open_connections += 1
            self.server.max_connections = max(
                self.server.max_connections, self.server.open_connections
            )

    def finish(self):
        try:
            super().finish()
        finally:
            with self.server.lock:
                self.server.open_connections -= 1

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        with self.server.lock:
            self.server.requests += 1
        try:
            status, payload = 200, completion(json.loads(raw))
        except (ValueError, LookupError, TypeError, AttributeError) as exc:
            with self.server.lock:
                self.server.errors += 1
            status, payload = 400, {"error": f"{exc.__class__.__name__}: {exc}"}
        time.sleep(self.server.delay_s)
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass
