"""homecrew: a desk-scale multi-agent household coordination engine.

A team of embodied agents tidies a symbolic house. Members propose tasks
from what they have individually seen; a manager merges the team's beliefs,
allocates one conflict-free task per agent, and keeps a running summary of
collaboration milestones so prompts stay small on long episodes. Reasoning
backends are pluggable: a deterministic heuristic, a scripted replay, or a
remote chat-completions endpoint.
"""
