"""Spans and counters around the calls into each homecrew layer.

Hooks are installed from outside the program: each hook names a module and
an attribute (``Class.method`` for methods). The module is taken from
``sys.modules`` after importing it by name, never by attribute access on its
package, because a package attribute can shadow a submodule (the
``coordination`` package exports an ``allocate`` function under the name of
its ``allocate`` module). A function is replaced in every loaded module that
holds it, so names bound by ``from x import f`` are wrapped too. A hook whose
module or attribute no longer exists is reported absent; its metrics read 0.

Spans are kept per thread on a stack; a span opened on a thread with an empty
stack hangs off the current episode's root span. All spans of one episode
share its id, and self time is computed from them when the episode ends, so
memory holds one episode's spans at a time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from stats import Span, self_times

SPAN = "span"
COUNT = "count"
ROOT = "episode"


@dataclass(frozen=True)
class Hook:
    """``key`` is ``<layer>.<name>``; the layer is this repo's module."""

    key: str
    module: str
    attr: str
    kind: str = SPAN
    # Also add len(return value) to Totals.sizes[key].
    sizes: bool = False
    # Also keep every call's duration in Totals.durations[key].
    durations: bool = False


HOOKS: Tuple[Hook, ...] = (
    Hook("world.load_catalog", "homecrew.world.scenarios", "load_catalog"),
    Hook("world.init_world", "homecrew.world.scenarios", "init_world"),
    Hook("world.distance", "homecrew.world.types", "HouseMap.distance"),
    Hook("world.next_hop", "homecrew.world.types", "HouseMap.next_hop"),
    Hook("world.observe", "homecrew.world.engine", "observe"),
    Hook("world.transition", "homecrew.world.engine", "transition"),
    Hook("world.evaluate_progress", "homecrew.world.engine", "evaluate_progress"),
    Hook("agents.perceive", "homecrew.agents.belief", "perceive"),
    Hook("agents.merge_team_belief", "homecrew.agents.belief", "merge_team_belief"),
    Hook("agents.expand_macro", "homecrew.agents.execution", "expand_macro"),
    Hook("agents.sweep_targets", "homecrew.agents.execution", "sweep_targets"),
    Hook("agents.believed_instance", "homecrew.agents.execution", "believed_instance"),
    Hook("agents.belief_digest", "homecrew.agents.textify", "belief_digest"),
    Hook("agents.render_belief", "homecrew.agents.textify", "render_belief"),
    Hook("agents.render_observation", "homecrew.agents.textify", "render_observation"),
    Hook("agents.render_history", "homecrew.agents.textify", "render_history"),
    Hook("coordination.make_proposal", "homecrew.coordination.negotiate", "make_proposal"),
    Hook(
        "coordination.heuristic_proposal",
        "homecrew.coordination.negotiate",
        "heuristic_proposal",
    ),
    Hook(
        "coordination.assemble_context", "homecrew.coordination.allocate", "assemble_context"
    ),
    Hook(
        "coordination.allocate_with_report",
        "homecrew.coordination.allocate",
        "allocate_with_report",
    ),
    Hook(
        "coordination.heuristic_allocation",
        "homecrew.coordination.allocate",
        "heuristic_allocation",
    ),
    Hook(
        "coordination.enumerate_joint_space",
        "homecrew.coordination.allocate",
        "enumerate_joint_space",
        sizes=True,
    ),
    Hook("coordination.score_joint", "homecrew.coordination.allocate", "score_joint"),
    Hook(
        "coordination.check_conflicts",
        "homecrew.coordination.types",
        "check_conflicts",
        kind=COUNT,
    ),
    Hook("summaries.summarize", "homecrew.summaries", "summarize"),
    Hook("summaries.slice_history", "homecrew.summaries", "slice_history"),
    Hook("reasoner.render_prompt", "homecrew.reasoner.prompts", "render_prompt"),
    Hook("reasoner.parse_proposal", "homecrew.reasoner.parsing", "parse_proposal"),
    Hook("reasoner.parse_allocation", "homecrew.reasoner.parsing", "parse_allocation"),
    Hook("reasoner.heuristic", "homecrew.reasoner.heuristic", "HeuristicReasoner.invoke"),
    Hook(
        "reasoner.remote",
        "homecrew.reasoner.remote",
        "RemoteReasoner.invoke",
        durations=True,
    ),
    Hook("reasoner.scripted", "homecrew.reasoner.scripted", "ScriptedReasoner.invoke"),
    Hook("reasoner.http_post", "requests.sessions", "Session.post", kind=COUNT),
    Hook("harness.run_episode", "homecrew.harness.episode", "run_episode"),
    Hook("harness.render_trace", "homecrew.harness.trace", "render_trace"),
)


@dataclass
class Totals:
    """What the traced episodes add up to. Times are seconds."""

    episodes: int = 0
    ticks: int = 0
    root_s: float = 0.0
    calls: Dict[str, int] = field(default_factory=dict)
    total_s: Dict[str, float] = field(default_factory=dict)
    self_s: Dict[str, float] = field(default_factory=dict)
    raised: Dict[str, int] = field(default_factory=dict)
    sizes: Dict[str, int] = field(default_factory=dict)
    durations: Dict[str, List[float]] = field(default_factory=dict)
    # (hook key, key of the innermost enclosing span) -> count
    nested: Dict[Tuple[str, str], int] = field(default_factory=dict)
    absent: Tuple[str, ...] = ()

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer)


def resolve_module(name: str):
    """The module object registered under ``name``, or None."""
    try:
        importlib.import_module(name)
    except ImportError:
        return None
    return sys.modules.get(name)


class Tracer:
    def __init__(self, hooks: Tuple[Hook, ...] = HOOKS, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.totals = Totals()
        self._local = threading.local()
        self._spans: List[Span] = []
        self._root: Optional[int] = None
        self._episode = 0
        self._sites: List[Tuple[object, str, object, object]] = []
        absent = []
        for hook in hooks:
            sites = self._resolve(hook)
            if sites:
                self._sites.extend(sites)
            else:
                absent.append(hook.key)
        self.totals.absent = tuple(absent)

    # -- installation -------------------------------------------------------

    def _resolve(self, hook: Hook) -> List[Tuple[object, str, object, object]]:
        module = resolve_module(hook.module)
        if module is None:
            return []
        owner_name, _, attr = hook.attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            original = vars(owner).get(attr) if isinstance(owner, type) else None
            if not callable(original):
                return []
            return [(owner, attr, original, self._wrap(hook, original))]
        original = getattr(module, attr, None)
        if not callable(original):
            return []
        wrapper = self._wrap(hook, original)
        sites = []
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "") or ""
            if not (name == hook.module or name.split(".", 1)[0] == "homecrew"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    sites.append((mod, key, original, wrapper))
        return sites

    def install(self) -> None:
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._sites:
            setattr(owner, attr, original)

    # -- recording ----------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: List[int]) -> int:
        return stack[-1] if stack else self._root

    def _wrap(self, hook: Hook, fn):
        tracer = self
        key = hook.key
        totals = self.totals
        if hook.kind == COUNT:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if tracer._root is not None:
                    pkey = (key, tracer._spans[tracer._parent(tracer._stack())].name)
                    totals.nested[pkey] = totals.nested.get(pkey, 0) + 1
                    totals.calls[key] = totals.calls.get(key, 0) + 1
                return fn(*args, **kwargs)

            return counted

        sizes, durations = hook.sizes, hook.durations

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if tracer._root is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = tracer._parent(stack)
            spans = tracer._spans
            span = Span(key, 0.0, 0.0, parent, tracer._episode)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span.start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                totals.raised[key] = totals.raised.get(key, 0) + 1
                raise
            finally:
                span.end = tracer.clock()
                stack.pop()
            if sizes:
                totals.sizes[key] = totals.sizes.get(key, 0) + len(result)
            if durations:
                totals.durations.setdefault(key, []).append(span.end - span.start)
            return result

        return spanned

    def begin_episode(self) -> None:
        self._episode += 1
        self._spans = [Span(ROOT, self.clock(), 0.0, None, self._episode)]
        self._root = 0

    def end_episode(self, ticks: int) -> None:
        """Close the root span and fold the episode's spans into the totals."""
        spans = self._spans
        spans[0].end = self.clock()
        self._root = None
        totals = self.totals
        totals.episodes += 1
        totals.ticks += ticks
        totals.root_s += spans[0].duration
        for span, own in zip(spans[1:], self_times(spans)[1:]):
            name = span.name
            totals.calls[name] = totals.calls.get(name, 0) + 1
            totals.total_s[name] = totals.total_s.get(name, 0.0) + span.duration
            totals.self_s[name] = totals.self_s.get(name, 0.0) + own
        self._spans = []
