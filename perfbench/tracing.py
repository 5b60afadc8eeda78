"""An in-memory span recorder for the traced run.

A span is ``{id, name, parent, request, pid, start, end, ...attrs}`` on
the ``time.perf_counter`` clock (CLOCK_MONOTONIC on Linux, so spans
from worker processes share the parent's time base).  Spans come from
two places, both in this package: the replay opens them around the
calls it makes into each layer, and :meth:`Tracer.instrument` wraps a
public function of the program for the length of the traced run, so
calls the program makes internally open spans too.

The program's process pool forks its workers, so the wrappers are live
in them as well.  A forked worker cannot hand spans back through the
pool, so it appends each finished top-level span tree to
``spans-<pid>.jsonl`` in the spool directory, which :meth:`collect`
reads back into this process.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Callable, Iterator


class Tracer:
    def __init__(self, spool: Path):
        self.spool = spool
        self.spans: list[dict] = []
        self.request: int | None = None
        self.enabled = False
        self._main_pid = os.getpid()
        self._stack: list[int] = []
        self._counter = 0
        self._patches: list[tuple[Any, str, Any]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.spans = []
        self._stack = []

    def _next_id(self) -> int:
        self._counter += 1
        return (os.getpid() << 32) | self._counter

    def span(self, name: str, **attrs: Any):
        """Record one span around the ``with`` body (a no-op while the
        tracer is disabled).  The yielded record takes extra attributes."""
        if not self.enabled:
            return nullcontext()
        return self._span(name, attrs)

    @contextmanager
    def _span(self, name: str, attrs: dict) -> Iterator[dict]:
        record = {
            "id": self._next_id(),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "request": self.request,
            "pid": os.getpid(),
            **attrs,
        }
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)
            if not self._stack and os.getpid() != self._main_pid:
                self._flush_worker()

    def _flush_worker(self) -> None:
        path = self.spool / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as out:
            for record in self.spans:
                out.write(json.dumps(record) + "\n")
        self.spans = []

    def collect(self, parent: dict) -> None:
        """Adopt the spans forked workers spooled while ``parent`` was
        open: they become its (remote) children under its request id."""
        for path in sorted(self.spool.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as spool:
                for line in spool:
                    record = json.loads(line)
                    if record["parent"] is None:
                        record["parent"] = parent["id"]
                    record["request"] = parent["request"]
                    self.spans.append(record)
            path.unlink()

    def instrument(
        self,
        owner: Any,
        attr: str,
        name: str,
        annotate: Callable[[dict, Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper that records a ``name``
        span per call; ``annotate(record, result)`` adds attributes."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
                if annotate is not None and record is not None:
                    annotate(record, result)
                return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstrument(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for record in self.spans:
                out.write(json.dumps(record) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Seconds of each span not covered by its same-process children.

    Children in another process (forked pool workers) ran while the
    parent waited, so they do not reduce its self time."""
    by_id = {span["id"]: span for span in spans}
    own = {span["id"]: span["end"] - span["start"] for span in spans}
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is not None and parent["pid"] == span["pid"]:
            own[parent["id"]] -= span["end"] - span["start"]
    return own
