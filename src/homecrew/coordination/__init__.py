"""Negotiation round and centralized allocation."""

# perfbench's test_hook_modules_resolve_through_sys_modules asserts it shadows its module.
from .allocate import allocate
