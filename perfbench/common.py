"""Shared helpers of the benchmark: percentiles and the span recorder."""

from __future__ import annotations

import json
import os
import pathlib
import time

import numpy as np


def pctl(values, q: float) -> float:
    """The ``q``-th percentile (0-100) of ``values``; 0.0 when empty."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return pctl(values, 50)


class Spans:
    """In-memory spans, written out once as chrome-trace JSON.

    Every span has a name, start, end, the id of the span that caused it
    and a step or request id. The file has the same shape as
    ``repro.perf.OpProfiler.dump_trace``, and profiler timelines are
    merged into it, so training steps, their forward/backward ops and
    served requests open together in chrome://tracing or Perfetto.
    """

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.events: list[dict] = []
        self.threads: dict[int, str] = {}
        self._next_id = 1

    def add(self, name: str, track: tuple[int, str], start: float, end: float,
            parent: int | None = None, **args) -> int:
        """Record a span between two ``time.perf_counter`` readings."""
        span_id = self._next_id
        self._next_id += 1
        tid, thread_name = track
        self.threads[tid] = thread_name
        self.events.append({
            "name": name,
            "cat": thread_name,
            "ph": "X",
            "ts": round((start - self.origin) * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
            "pid": os.getpid(),
            "tid": tid,
            "args": {"span_id": span_id, "parent": parent, **args},
        })
        return span_id

    def merge_profile(self, profiler, profiler_origin: float, parent: int,
                      workdir: pathlib.Path) -> None:
        """Fold an ``OpProfiler`` timeline in, shifted onto this clock."""
        path = profiler.dump_trace(workdir / "profile-trace.json")
        shift_us = (profiler_origin - self.origin) * 1e6
        for event in json.loads(path.read_text())["traceEvents"]:
            if event["ph"] == "M":
                self.threads[event["tid"]] = event["args"]["name"]
                continue
            event["ts"] = round(event["ts"] + shift_us, 3)
            event["args"] = {"parent": parent}
            self.events.append(event)
        path.unlink()

    def write(self, path: pathlib.Path) -> pathlib.Path:
        pid = os.getpid()
        meta = [
            {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid, "args": {"name": name}}
            for tid, name in sorted(self.threads.items())
        ]
        path.write_text(
            json.dumps({"traceEvents": meta + self.events, "displayTimeUnit": "ms"}) + "\n"
        )
        return path
