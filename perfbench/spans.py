"""Operation timing, and the spans of the traced run.

A :class:`Meter` times each operation of a workload for the end-to-end
metrics and records nothing else; given a :class:`speed.Speed`, it runs the
calibration probe between operations.  A :class:`Tracer` also records a span
around every call the benchmark makes into a public kguess function: name,
start, end, parent span and operation id.  Spans stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

SELF_REPEATS = 5


class Meter:
    """Times operations for the end-to-end metrics; records no spans."""

    traced = False

    def __init__(self, speed=None) -> None:
        self.times: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.speed = speed  # a speed.Speed to run calibration probes between operations

    def op(self, kind: str) -> "Meter":
        self._kind = kind
        return self

    def __enter__(self) -> "Meter":
        self.attempted += 1
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        seconds = perf_counter() - self._start
        self.times[self._kind].append(seconds)
        if self.speed is not None:
            self.speed.after(seconds)

    def call(self, name: str, fn, *args):
        """A call inside the current operation."""
        return fn(*args)

    def aside(self, name: str, fn, *args):
        """A call outside any timed operation: the untimed reference the
        workload needs, or in a traced round a lower-layer call made only
        to time it."""
        return fn(*args)

    def count(self, name: str, value: float) -> None:
        pass


class Tracer(Meter):
    """Records spans as well, and the self times of whole calls."""

    traced = True

    def __init__(self, workload: str, speed=None) -> None:
        super().__init__(speed)
        self.workload = workload
        self.spans: list[tuple] = []  # (name, start, end, parent, op_id, workload)
        self.counts: dict[tuple[str, str], list[float]] = defaultdict(list)
        self._op_id = 0
        self._root: int | None = None

    def __enter__(self) -> "Tracer":
        self._op_id += 1
        self._root = len(self.spans)
        self.spans.append(None)
        super().__enter__()
        return self

    def __exit__(self, *exc) -> None:
        super().__exit__()
        end = perf_counter()
        self.spans[self._root] = ("op." + self._kind, self._start, end, None, self._op_id, self.workload)
        self._root = None

    def _span(self, name: str, fn, args, parent):
        start = perf_counter()
        out = fn(*args)
        self.spans.append((name, start, perf_counter(), parent, self._op_id, self.workload))
        return out

    def call(self, name, fn, *args):
        return self._span(name, fn, args, self._root)

    def aside(self, name, fn, *args):
        return self._span(name, fn, args, None)

    def self_time(self, name: str, whole, parts) -> None:
        """Count, in microseconds, the time of ``whole()`` minus that of
        ``parts()``, the public lower-layer calls the whole call is made of.  Each is the
        fastest of SELF_REPEATS alternating timings, so a drift of the
        machine between them does not swamp a difference under 1% of the
        call, as the glue of alpha_leakage is."""
        best_whole = best_parts = float("inf")
        for _ in range(SELF_REPEATS):
            t0 = perf_counter()
            whole()
            t1 = perf_counter()
            parts()
            t2 = perf_counter()
            best_whole, best_parts = min(best_whole, t1 - t0), min(best_parts, t2 - t1)
        self.count(name, (best_whole - best_parts) * 1e6)

    def count(self, name, value):
        self.counts[(name, self.workload)].append(float(value))

    def adopt(self, other: "Tracer") -> None:
        """Take over the spans and counts of another tracer (another workload)."""
        offset = len(self.spans)
        for name, start, end, parent, op_id, workload in other.spans:
            parent = None if parent is None else parent + offset
            self.spans.append((name, start, end, parent, op_id, workload))
        for key, values in other.counts.items():
            self.counts[key].extend(values)

    # -- analysis ---------------------------------------------------------

    def durations(self, name: str, workload: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name and s[5] == workload]

    def per_op(self, names: set[str], workload: str) -> dict:
        """Sum of span durations per operation id, for each name."""
        out: dict = defaultdict(lambda: defaultdict(float))
        for name, start, end, _, op_id, wl in self.spans:
            if wl == workload and name in names:
                out[op_id][name] += end - start
        return out

    def self_times(self) -> dict[tuple[str, str], tuple[int, float, float]]:
        """(workload, name) -> (count, mean duration, mean self time).

        The self time of a span is its duration minus the part of it that
        its child spans cover.
        """
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        table: dict = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, _, workload) in enumerate(self.spans):
            row = table[(workload, name)]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - covered[i]
        return {key: (n, total / n, own / n) for key, (n, total, own) in table.items()}

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        t0 = min((s[1] for s in self.spans), default=0.0)
        doc = {
            "columns": ["name", "start_us", "end_us", "parent", "op", "workload"],
            "names": names,
            "spans": [
                [index[n], round((a - t0) * 1e6, 1), round((b - t0) * 1e6, 1), p, op, w]
                for n, a, b, p, op, w in self.spans
            ],
            "counts": {f"{w}:{n}": v for (n, w), v in self.counts.items()},
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))
