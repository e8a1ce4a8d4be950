"""Spans recorded around calls into spinchsh's public functions.

The benchmark never edits the library: it rebinds a public function inside
the module that calls it (``spinchsh.scan``, ``spinchsh.cli``) to a wrapper
for the duration of a traced call, and restores it afterwards.  Each span
has a name, start, end, the name of the span that caused it, the id of the
call it belongs to, and optional attributes such as array bytes.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from time import perf_counter

# Traced and untraced calls alternate in pairs, the order swapped from one
# pair to the next, so that a drift in machine speed over the run does not
# read as tracing overhead.
MIN_TRACED_PAIRS = 2


class Recorder:
    """In-memory span store for one benchmark process and its forked workers.

    ``Pool`` workers are forked inside ``run_scan`` and terminated without
    running exit handlers, so a span recorded in a worker is appended to
    ``spill_path`` at once; ``collect`` merges those lines back in.
    ``perf_counter`` is CLOCK_MONOTONIC on Linux, so worker and parent
    timestamps share one clock.
    """

    def __init__(self, spill_path):
        self.spill_path = spill_path
        self.owner = os.getpid()
        self.call_id = 0
        self.spans = []
        self.last_end = {}

    def record(self, name, parent, start, end, **attrs):
        span = {"call": self.call_id, "name": name, "parent": parent,
                "start": start, "end": end, "pid": os.getpid(), **attrs}
        self.last_end[name] = end
        if span["pid"] == self.owner:
            self.spans.append(span)
        else:
            with open(self.spill_path, "a") as fh:
                fh.write(json.dumps(span) + "\n")

    def wrap(self, fn, name, parent, attrs=None):
        """``fn`` with a span around each call; ``attrs(args, result)`` adds fields."""
        def traced(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            extra = attrs(args, result) if attrs else {}
            self.record(name, parent, start, perf_counter(), **extra)
            return result
        return traced

    def collect(self) -> list:
        """Every span recorded since the last collect, workers' included."""
        spans, self.spans = self.spans, []
        if os.path.exists(self.spill_path):
            with open(self.spill_path) as fh:
                spans += [json.loads(line) for line in fh]
            os.remove(self.spill_path)
        return spans


@contextmanager
def patched(module, wrappers: dict):
    """Rebind ``module.<name>`` to each wrapper, restoring the originals on exit."""
    originals = {name: getattr(module, name) for name in wrappers}
    try:
        for name, wrapper in wrappers.items():
            setattr(module, name, wrapper)
        yield
    finally:
        for name, original in originals.items():
            setattr(module, name, original)


def total(spans, name) -> float:
    """Summed duration in seconds of the spans called ``name``."""
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)
