"""In-memory span recorder for the traced run.

A span has a name, start and end (CLOCK seconds), the id of
the span open around it, and the run id of the pass it belongs to.  Garbage
collection time reported through ``gc.callbacks`` is charged to every span
open while the collector runs.  Spans and counts are only kept in memory and
written out once, when the benchmark ends.
"""

from __future__ import annotations

import gc
import json
import time
from contextlib import contextmanager

# The clock of every timed call, span and reference work: CPU seconds of this
# process.  On a shared host the process is descheduled now and then, and
# wall time charges those gaps to whatever call is running; CPU time does
# not.  The library is single-threaded, so for it CPU time is the work done;
# a change that moved work into other threads would show its total CPU time.
CLOCK = time.process_time


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.run = 0
        self._open: list[dict] = []
        self._gc_started = 0.0

    def __enter__(self) -> "Tracer":
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = CLOCK()
            return
        spent = CLOCK() - self._gc_started
        for span in self._open:
            span["gc_s"] += spent
            span["gc_collections"] += 1

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "run": self.run,
            "start": CLOCK(),
            "end": None,
            "gc_s": 0.0,
            "gc_collections": 0,
            "counts": {},
        }
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record["end"] = CLOCK()
            self._open.pop()

    def in_run(self, run: int) -> list[dict]:
        return [s for s in self.spans if s["run"] == run]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_time(span: dict, spans: list[dict]) -> float:
    """The span's duration minus that of its direct children."""
    return duration(span) - sum(duration(s) for s in spans if s["parent"] == span["id"])


def total(spans: list[dict], name: str) -> float:
    """Summed duration of the spans with this name."""
    return sum(duration(s) for s in spans if s["name"] == name)
