"""In-memory spans around calls into the library's public functions."""

from __future__ import annotations

import itertools
import statistics
from pathlib import Path
from time import perf_counter_ns


class Tracer:
    """Spans (id, parent id, op id, name, start ns, end ns), kept in memory
    until write() at the end of the run."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)

    def start(self, name: str, op: int, parent: int = 0) -> list:
        return [next(self._ids), parent, op, name, perf_counter_ns()]

    def end(self, span: list) -> int:
        span.append(perf_counter_ns())
        self.spans.append(tuple(span))
        return span[5] - span[4]

    def call(self, name: str, op: int, parent: int, fn, *args):
        span = self.start(name, op, parent)
        try:
            return fn(*args)
        finally:
            self.end(span)

    def durations(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = {}
        for _, _, _, name, start, end in self.spans:
            out.setdefault(name, []).append(end - start)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\top\tname\tstart_ns\tend_ns\n")
            for span in self.spans:
                fh.write("\t".join(str(v) for v in span) + "\n")


def median(values) -> float:
    return statistics.median(values) if values else 0.0
