"""Symbolic household world: rooms, furniture, objects, and dynamics."""

# perfbench/run.py's setup_probe imports init_world from this package.
from .scenarios import init_world
