"""Line-oriented grammar for text-backend responses.

Allocations are one assignment line per agent, ``<agent_id>: MACRO(args)``,
preferably inside a fenced block; proposals are ``propose:``/``alt:``/``why:``
lines; a summary is any non-blank text, read as one line. ``parse_reply``
reads a reply by its request kind, as prompts.render_prompt renders it. Every
referenced name is validated against the house (its rooms, surfaces,
containers, object ids and classes), and a parsed allocation must also pass
the conflict rules before it is accepted.
All violations raise ResponseParseError so callers can retry or fall back.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Dict, List, Optional

from ..agents.execution import MacroTask
from ..coordination.types import (
    MAX_ALTERNATIVES, JointAction, Proposal, check_conflicts, remaining_by_predicate
)
from ..errors import ContractViolation, ResponseParseError
from .base import ALLOCATE, PROPOSE, SUMMARIZE

if TYPE_CHECKING:
    from ..coordination.types import AllocationInputs
    from ..world.types import HouseMap

_ASSIGN_RE = re.compile(r"^\s*(?:agent\s+)?(\d+)\s*[:.]\s*(.+?)\s*$", re.IGNORECASE)
_MACRO_RE = re.compile(r"^([A-Za-z_]+)\s*(?:\((.*)\))?\s*$")


def parse_task(text: str, house: HouseMap) -> MacroTask:
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
        if room not in house.rooms:
            raise ResponseParseError(f"unknown room {room!r}", text)
        return MacroTask.explore(room)
    if name == "FETCH":
        if len(args) != 3:
            raise ResponseParseError("FETCH takes (object, relation, target)", text)
        ref, relation, target = args
        relation = relation.upper()
        if relation == "ON":
            if target not in house.surfaces:
                raise ResponseParseError(f"unknown surface {target!r}", text)
        elif relation == "IN":
            if target not in house.containers:
                raise ResponseParseError(f"unknown container {target!r}", text)
        else:
            raise ResponseParseError(f"relation must be ON or IN, got {relation!r}", text)
        if ref in house.object_classes:
            return MacroTask.fetch(
                house.object_classes[ref], relation, target, object_id=ref
            )
        if ref in house.object_classes.values():
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


def parse_allocation(raw_response: str, inputs: AllocationInputs) -> JointAction:
    """Parse and validate a full allocation response: exactly one well-formed
    task per agent of ``inputs``, no unknown agents, and no conflicts under
    the quota that the inputs' goal and progress leave."""
    expected = set(inputs.agent_ids())
    tasks: Dict[int, MacroTask] = {}
    for line in _fenced_body(raw_response).split("\n"):
        if not line.strip():
            continue
        match = _ASSIGN_RE.match(line)
        if not match:
            continue
        try:
            agent_id = int(match.group(1))
        except ValueError:  # more digits than int() converts
            raise ResponseParseError(f"unknown agent id {match.group(1)}", line) from None
        if agent_id not in expected:
            raise ResponseParseError(f"unknown agent id {agent_id}", line)
        if agent_id in tasks:
            raise ResponseParseError(f"agent {agent_id} assigned twice", line)
        tasks[agent_id] = parse_task(match.group(2), inputs.house)
    missing = sorted(expected - set(tasks))
    if missing:
        raise ResponseParseError(f"no assignment for agent(s) {missing}")
    joint = JointAction(tasks=tasks)
    violations = check_conflicts(joint, remaining_by_predicate(inputs.goal, inputs.progress))
    if violations:
        raise ResponseParseError("conflicting assignments: " + "; ".join(violations))
    return joint


def parse_proposal(
    raw_response: str,
    house: HouseMap,
    agent_id: int,
) -> Proposal:
    """Parse a member proposal: one propose line, optional alt/why lines.
    Alternatives past the first MAX_ALTERNATIVES are dropped."""
    candidate: Optional[MacroTask] = None
    alternatives: List[MacroTask] = []
    rationale = ""
    for line in _fenced_body(raw_response).split("\n"):
        stripped = line.strip()
        lowered = stripped.lower()
        if lowered.startswith("propose:"):
            if candidate is not None:
                raise ResponseParseError("multiple propose lines", line)
            candidate = parse_task(stripped[len("propose:") :], house)
        elif lowered.startswith("alt:"):
            task = parse_task(stripped[len("alt:") :], house)
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
        alternatives=tuple(alternatives[:MAX_ALTERNATIVES]),
    )


def parse_note(raw: str) -> str:
    """A summary reply as one line of text; an empty reply is refused."""
    text = " ".join(raw.split())
    if not text:
        raise ResponseParseError("empty summary")
    return text


def parse_reply(kind: str, raw: str, inputs):
    """The decision a text reply to a ``kind`` request on ``inputs`` states:
    the counterpart of prompts.render_prompt."""
    if kind == PROPOSE:
        return parse_proposal(raw, inputs.house, inputs.agent_id)
    if kind == ALLOCATE:
        return parse_allocation(raw, inputs)
    if kind == SUMMARIZE:
        return parse_note(raw)
    raise ContractViolation(f"unknown request kind: {kind}")
