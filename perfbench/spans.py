"""Layer spans recorded from outside the library.

Spans come from wrapping names as the calling module sees them (for example
``croopt.algorithms.on_wall_collision``), from a wrapped
``ObjectiveSpec.evaluate`` and from a proxy that forwards the four Generator
methods the library draws from. Nothing inside ``croopt`` changes and the
random stream is the real generator's, so traced runs reproduce untraced ones
bit for bit.

Spans are aggregated in memory per (parent, name): call count, total time
and self time (total minus the time covered by child spans).
"""

from __future__ import annotations

import contextlib
import time

RNG_METHODS = ("integers", "normal", "uniform", "random")

#: (calling module, attribute, span name) wrapped in every traced run. The
#: name is replaced where the caller looks it up, so the span sits at the
#: boundary the call crosses.
LAYER_NAMES = (
    ("croopt.reactions", "neighborhood_search", "operators.neighborhood_search"),
    ("croopt.reactions", "decompose_structure", "operators.decompose_structure"),
    ("croopt.reactions", "synthesize_structure", "operators.synthesize_structure"),
    ("croopt.algorithms", "on_wall_collision", "reactions.on_wall_collision"),
    ("croopt.algorithms", "intermolecular_collision", "reactions.intermolecular_collision"),
    ("croopt.algorithms", "decomposition", "reactions.decomposition"),
    ("croopt.algorithms", "synthesis", "reactions.synthesis"),
    ("croopt.algorithms", "update_best", "core.update_best"),
)
REACTIONS = ("on_wall_collision", "intermolecular_collision", "decomposition", "synthesis")


class Tracer:
    """Aggregated span table for one process."""

    def __init__(self):
        self.table = {}  # (parent, name) -> [calls, total_ns, self_ns]
        self.successes = {}  # reaction span name -> successful outcomes
        self._stack = []

    def wrap(self, name, fn, count_success=False):
        """``fn`` timed as span ``name``; reactions also count successes."""
        clock = time.perf_counter_ns
        stack = self._stack
        table = self.table
        successes = self.successes

        def traced(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += elapsed
                key = (parent[0] if parent is not None else "", name)
                row = table.get(key)
                if row is None:
                    row = table[key] = [0, 0, 0]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - frame[1]
            if count_success and result.success:
                successes[name] = successes.get(name, 0) + 1
            return result

        return traced

    def take(self):
        """Hand over and reset the accumulated table (one run's worth)."""
        snapshot = {"table": self.table.copy(), "successes": dict(self.successes)}
        self.table.clear()
        self.successes.clear()
        return snapshot


def merge(total, part):
    """Add one snapshot from ``Tracer.take`` into an accumulating one."""
    for key, row in part["table"].items():
        acc = total["table"].setdefault(key, [0, 0, 0])
        for k in range(3):
            acc[k] += row[k]
    for name, count in part["successes"].items():
        total["successes"][name] = total["successes"].get(name, 0) + count
    return total


def empty():
    return {"table": {}, "successes": {}}


class TracedGenerator:
    """Forwards the library's Generator methods to the real generator, timed."""

    def __init__(self, rng, tracer):
        for method in RNG_METHODS:
            setattr(self, method, tracer.wrap(f"rng.{method}", getattr(rng, method)))


@contextlib.contextmanager
def patched(replacements):
    """Temporarily replace module attributes; ``replacements`` maps
    (module, attribute) to the new value. Everything is restored on exit."""
    saved = []
    try:
        for (module, attr), value in replacements.items():
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)
