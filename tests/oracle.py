"""Test-side reference for the allocator: an exhaustive argmax.

``exhaustive_argmax`` lists each agent's options, runs its own product loop
and its own conflict filter, and keeps the first strict maximum of
``score_joint`` in the canonical order the allocator documents. The
allocator tests check ``heuristic_allocation`` and ``enumerate_joint_space``
against it.
"""

from __future__ import annotations

import itertools

from homecrew.agents.execution import MacroTask
from homecrew.coordination.allocate import score_joint
from homecrew.coordination.types import AllocationInputs, JointAction, remaining_by_predicate


def options_for(entry) -> list:
    """An agent's options in canonical order: its candidate, then up to three
    alternatives not listed yet, then IDLE unless already listed."""
    options = [entry.proposal.candidate]
    for task in entry.proposal.alternatives[:3]:
        if task not in options:
            options.append(task)
    if MacroTask.idle() not in options:
        options.append(MacroTask.idle())
    return options


def conflict_violations(joint: JointAction, remaining) -> list:
    """Re-stated conflict rules: one agent per bound object, and no goal
    predicate loaded past its remaining unit count."""
    violations = []
    owners = {}
    load = {}
    for agent_id, task in sorted(joint.tasks.items()):
        if task.object_id is not None:
            owners.setdefault(task.object_id, []).append(agent_id)
        key = task.predicate_key()
        if key is not None:
            load[key] = load.get(key, 0) + 1
    for object_id, agents in sorted(owners.items()):
        if len(agents) > 1:
            violations.append(f"object {object_id} double-booked by {agents}")
    for key, count in sorted(load.items()):
        if key in remaining and count > remaining[key]:
            violations.append(f"predicate {key} oversubscribed: {count}")
    return violations


def conflict_free_joints(inputs: AllocationInputs) -> list:
    """Every conflict-free joint action over the agents' options, in
    product order."""
    remaining = remaining_by_predicate(inputs.goal, inputs.progress)
    agent_ids = [entry.agent_id for entry in inputs.entries]
    joints = (
        JointAction(tasks=dict(zip(agent_ids, combo)))
        for combo in itertools.product(*[options_for(entry) for entry in inputs.entries])
    )
    return [joint for joint in joints if not conflict_violations(joint, remaining)]


def exhaustive_argmax(inputs: AllocationInputs) -> JointAction:
    """The first strict maximum of ``score_joint`` over conflict_free_joints."""
    best, best_score = None, None
    for joint in conflict_free_joints(inputs):
        score = score_joint(joint, inputs)
        if best is None or score > best_score:
            best, best_score = joint, score
    return best
