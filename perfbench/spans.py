"""Spans recorded around calls into the asdnlms package, from outside it.

A wrapper replaces a function on the module that calls it (for example
``asdnlms.cli.materialize``), so only calls made through that module are
seen.  Each call becomes one span ``[name, start, end, parent, kept]``:
``parent`` is the index of the span that was open when the call began (-1
for none), ``kept`` an optional value derived from the call's arguments and
result.  The program is single-threaded, so a stack gives the parent.
"""

from __future__ import annotations

import time
from collections import defaultdict

NAME, START, END, PARENT, KEPT = range(5)


class Tracer:
    """Records spans in memory; one tracer per measured round."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, module, attr: str, name: str, keep=None) -> None:
        """Replace ``module.attr`` by a recording wrapper.

        ``keep(args, result)`` runs after the span has ended, so its cost is
        not charged to the span.
        """
        fn = getattr(module, attr)
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                open_.pop()
            if keep is not None:
                span[KEPT] = keep(args, result)
            return result

        setattr(module, attr, traced)

    def totals(self) -> tuple[dict, dict, dict]:
        """Per name: summed duration, summed self time and call count.

        Self time is a span's duration minus the durations of the spans it
        directly caused.
        """
        total: dict[str, float] = defaultdict(float)
        children: dict[int, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for span in self.spans:
            dur = span[END] - span[START]
            total[span[NAME]] += dur
            calls[span[NAME]] += 1
            if span[PARENT] >= 0:
                children[span[PARENT]] += dur
        self_time: dict[str, float] = defaultdict(float)
        for i, span in enumerate(self.spans):
            self_time[span[NAME]] += span[END] - span[START] - children[i]
        return total, self_time, calls

    def kept(self, name: str) -> list:
        return [s[KEPT] for s in self.spans if s[NAME] == name]
