"""In-memory span tracer for the benchmark's traced run.

Spans are recorded around calls into the package's layers by replacing the
names the callers look up (``edhsim.harness`` imports ``pedh``,
``sample_stream`` and the others by name, so patching them where they are
defined would miss those calls). Only functions that run a few times per
exposure are wrapped; per-cycle functions such as ``BinnerBank.step_cycle``
are not, because a wrapper there would cost more than the work it measures.

A span's name is ``<module>.<qualname>`` of the function it wraps, with the
package prefix dropped (``histogrammer.pedh``, ``binner.BinnerBank.run``).
Its self time is its duration minus the durations of its child spans; the
benchmark runs in one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path


def span_name(fn) -> str:
    """``<module>.<qualname>`` without the top-level package name."""
    module = fn.__module__.split(".", 1)[-1]
    return f"{module}.{fn.__qualname__}"


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved: list = []

    def replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


class Tracer:
    """Collects spans ``[id, parent_id, name, start_s, end_s]`` and work counts.

    ``counters`` maps a span name to a function ``(args, kwargs, result) ->
    {count_name: amount}`` evaluated after each call of that span.
    """

    def __init__(self, counters: dict):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._counters = counters
        self._stack: list[int] = []
        self._clock = time.perf_counter
        self._origin = self._clock()

    def wrap(self, fn):
        name = span_name(fn)
        spans, stack, clock = self.spans, self._stack, self._clock
        counter = self._counters.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, clock(), 0.0]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if counter is not None:
                self.counts.update(counter(args, kwargs, result))
            return result

        return traced

    def install(self, targets, patches: Patches) -> None:
        """Wrap ``getattr(owner, attr)`` for every ``(owner, attr)`` target."""
        for owner, attr in targets:
            patches.replace(owner, attr, self.wrap(getattr(owner, attr)))

    def layer_table(self) -> dict[str, tuple[int, float]]:
        """``{span name: (calls, self seconds)}`` over every recorded span."""
        child_s: dict[int, float] = defaultdict(float)
        for sid, parent, _name, start, end in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        for sid, _parent, name, start, end in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - child_s[sid]
        return {name: (calls[name], self_s[name]) for name in calls}

    def root_seconds(self) -> float:
        """Wall time covered by top-level spans."""
        return sum(end - start for _sid, parent, _n, start, end in self.spans if parent < 0)

    def dump(self, path: Path, record: dict) -> None:
        """Write the run record, the counts and every span as one JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "record": record,
            "counts": dict(self.counts),
            "span_fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": [
                [sid, parent, name, start - self._origin, end - self._origin]
                for sid, parent, name, start, end in self.spans
            ],
        }
        path.write_text(json.dumps(payload))
