"""Line-oriented grammar for text-backend responses.

Allocations are one assignment line per agent, ``<agent_id>: MACRO(args)``,
preferably inside a fenced block; proposals are ``propose:``/``alt:``/``why:``
lines. Every referenced id is validated against the round's vocabulary, and a
parsed allocation must also pass the conflict rules before it is accepted.
All violations raise ResponseParseError so callers can retry or fall back.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..agents.execution import MacroTask
from ..errors import ResponseParseError

if TYPE_CHECKING:
    from ..coordination.types import CrossAgentContext, JointAction, Proposal, Vocabulary

_ASSIGN_RE = re.compile(r"^\s*(?:agent\s+)?(\d+)\s*[:.]\s*(.+?)\s*$", re.IGNORECASE)
_MACRO_RE = re.compile(r"^([A-Za-z_]+)\s*(?:\((.*)\))?\s*$")


def parse_task(text: str, vocabulary: Vocabulary) -> MacroTask:
    """One task expression: FETCH(ref, ON|IN, target), EXPLORE(room), IDLE."""
    match = _MACRO_RE.match(text.strip())
    if not match:
        raise ResponseParseError("task does not match MACRO(args)", text)
    name = match.group(1).upper()
    raw_args = match.group(2)
    args = [a.strip() for a in raw_args.split(",")] if raw_args else []
    if name == "IDLE":
        if args:
            raise ResponseParseError("IDLE takes no arguments", text)
        return MacroTask.idle()
    if name == "EXPLORE":
        if len(args) != 1:
            raise ResponseParseError("EXPLORE takes exactly one room", text)
        room = args[0]
        if room not in vocabulary.rooms:
            raise ResponseParseError(f"unknown room {room!r}", text)
        return MacroTask.explore(room)
    if name == "FETCH":
        if len(args) != 3:
            raise ResponseParseError("FETCH takes (object, relation, target)", text)
        ref, relation, target = args
        relation = relation.upper()
        if relation == "ON":
            if target not in vocabulary.surfaces:
                raise ResponseParseError(f"unknown surface {target!r}", text)
        elif relation == "IN":
            if target not in vocabulary.containers:
                raise ResponseParseError(f"unknown container {target!r}", text)
        else:
            raise ResponseParseError(f"relation must be ON or IN, got {relation!r}", text)
        if ref in vocabulary.objects:
            return MacroTask.fetch(
                vocabulary.objects[ref], relation, target, object_id=ref
            )
        if ref in vocabulary.classes:
            return MacroTask.fetch(ref, relation, target)
        raise ResponseParseError(f"unknown object or class {ref!r}", text)
    raise ResponseParseError(f"unknown task form {name!r}", text)


def _fenced_body(text: str) -> str:
    """Content of the first fenced block, or the whole text if none."""
    lines = text.split("\n")
    start = None
    for idx, line in enumerate(lines):
        if line.lstrip().startswith("```"):
            start = idx
            break
    if start is None:
        return text
    body: List[str] = []
    for line in lines[start + 1 :]:
        if line.lstrip().startswith("```"):
            break
        body.append(line)
    return "\n".join(body)


def parse_allocation(
    raw_response: str,
    context: CrossAgentContext,
    remaining: Optional[Dict[Tuple[str, str, str], int]] = None,
) -> JointAction:
    """Parse and validate a full allocation response: exactly one well-formed
    task per context agent, no unknown agents, and no conflicts."""
    # Deferred: coordination imports this module for its text path.
    from ..coordination.types import JointAction, check_conflicts

    expected = set(context.agent_ids())
    vocabulary = context.vocabulary
    tasks: Dict[int, MacroTask] = {}
    for line in _fenced_body(raw_response).split("\n"):
        if not line.strip():
            continue
        match = _ASSIGN_RE.match(line)
        if not match:
            continue
        agent_id = int(match.group(1))
        if agent_id not in expected:
            raise ResponseParseError(f"unknown agent id {agent_id}", line)
        if agent_id in tasks:
            raise ResponseParseError(f"agent {agent_id} assigned twice", line)
        tasks[agent_id] = parse_task(match.group(2), vocabulary)
    missing = sorted(expected - set(tasks))
    if missing:
        raise ResponseParseError(f"no assignment for agent(s) {missing}")
    joint = JointAction(tasks=tasks)
    violations = check_conflicts(joint, remaining)
    if violations:
        raise ResponseParseError("conflicting assignments: " + "; ".join(violations))
    return joint


def format_allocation(joint: JointAction) -> str:
    """Inverse of parse_allocation, used by fixtures and round-trip tests."""
    lines = [f"{agent_id}: {task.render()}" for agent_id, task in joint.items()]
    return "```\n" + "\n".join(lines) + "\n```"


def parse_proposal(
    raw_response: str,
    vocabulary: Vocabulary,
    agent_id: int,
    max_alternatives: int = 3,
) -> Proposal:
    """Parse a member proposal: one propose line, optional alt/why lines."""
    # Deferred: coordination imports this module for its text path.
    from ..coordination.types import Proposal

    candidate: Optional[MacroTask] = None
    alternatives: List[MacroTask] = []
    rationale = ""
    for line in _fenced_body(raw_response).split("\n"):
        stripped = line.strip()
        lowered = stripped.lower()
        if lowered.startswith("propose:"):
            if candidate is not None:
                raise ResponseParseError("multiple propose lines", line)
            candidate = parse_task(stripped[len("propose:") :], vocabulary)
        elif lowered.startswith("alt:"):
            task = parse_task(stripped[len("alt:") :], vocabulary)
            if task != candidate and task not in alternatives:
                alternatives.append(task)
        elif lowered.startswith("why:"):
            rationale = stripped[len("why:") :].strip()
    if candidate is None:
        raise ResponseParseError("missing propose line")
    return Proposal(
        agent_id=agent_id,
        candidate=candidate,
        rationale=rationale,
        alternatives=tuple(alternatives[:max_alternatives]),
    )
