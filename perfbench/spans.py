"""In-memory span tracer that wraps a program's functions from outside.

Each wrapped call records one span: name, start, end, parent span and the
decode step it belongs to. Wrappers are installed on the name where the call
site looks it up (``encoder.chunk_attention``, not ``attention.chunk_attention``)
and ``restore`` puts every original back, so nothing in the program changes.
Counters attached to a wrapper see the call's arguments and result, so
ratios are measured where the work happens.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    """Span recorder: ``wrap`` names, run the calls, then ``restore``."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, step]
        self.counts: Counter = Counter()
        self.samples: dict[str, list] = defaultdict(list)
        self.step: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, count=None, enter=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``enter(tracer)`` runs before the span opens, so it can move the step
        id; ``count(tracer, args, result)`` runs after the span closes.
        """
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if enter is not None:
                enter(self)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.step]
            stack.append(len(spans))
            spans.append(span)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                span[1] = start
                stack.pop()
            if count is not None:
                count(self, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Per-name sum of self time: duration minus direct children's."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            totals[name] += (end - start) - inner
        return dict(totals)

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def write_jsonl(self, fh, rep: int) -> None:
        """One JSON object per span; ``parent`` indexes spans of the same rep."""
        for i, (name, start, end, parent, step) in enumerate(self.spans):
            fh.write(json.dumps({"rep": rep, "id": i, "name": name,
                                 "start": start, "end": end,
                                 "parent": parent, "step": step}) + "\n")
