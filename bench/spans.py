"""In-memory spans around the public calls the CLI makes into each layer.

The program is traced from outside: :func:`traced` swaps the module
attributes the CLI path looks up at call time for timing wrappers, and
puts the originals back on exit. A name a later version of the program
no longer has is skipped, so its layer reports no calls instead of
breaking the run.

A wrapper only appends ``(name, start_ns, end_ns)``; :func:`analyze` later
recovers the nesting from the intervals. The parse of a record opens its
row, and every later span until the next parse belongs to that row. Self
time is a span's duration minus its direct children's, less the tracing
cost that :func:`calibrate` measures on a no-op call.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Iterator

ROW_SPAN = "records.parse"
MIN_SUM_SPAN = "oracle.min_sum"

# (owner, attribute, span name) in the order the CLI path reaches them.
# ``records.parse`` wraps the record iterators, one span per record.
CALLS = (
    ("cli", "read_measurements", ROW_SPAN),
    ("cli", "read_pairs", ROW_SPAN),
    ("cli", "solve_record", "cli.solve_record"),
    ("cli", "verify_record", "cli.verify_record"),
    ("cli", "PhaseToPhaseVoltages", "circuit.validate"),
    ("cli", "validate_angles", "circuit.validate"),
    ("cli", "solve_general_star", "circuit.solve"),
    ("cli", "solve_symmetric_star", "circuit.solve"),
    ("circuit", "general_distances_closed_form", "general.closed_form"),
    ("circuit", "fermat_distances_closed_form", "fermat.closed_form"),
    ("cli", "verify_solution", "circuit.residual"),
    ("cli", "general_solve_by_circles", "general.circles"),
    ("cli", "minimize_distance_sum", MIN_SUM_SPAN),
    ("records.RowWriter", "write", "records.write"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in CALLS))
LAYERS = tuple(dict.fromkeys(name.split(".")[0] for name in SPAN_NAMES))

_END = object()


class Tracer:
    """Collects spans, and the oracle's iterations, until discarded."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int]] = []
        self.min_sum_iterations = 0

    def wrap(self, name: str, fn: Callable) -> Callable:
        append = self.spans.append

        def call(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                append((name, start, perf_counter_ns()))
        return call

    def wrap_min_sum(self, name: str, fn: Callable) -> Callable:
        timed = self.wrap(name, fn)

        def call(*args, **kwargs):
            result = timed(*args, **kwargs)
            self.min_sum_iterations += result.iterations
            return result
        return call

    def wrap_iterator(self, name: str, fn: Callable) -> Callable:
        append = self.spans.append

        def call(*args, **kwargs) -> Iterator:
            records = fn(*args, **kwargs)
            while True:
                start = perf_counter_ns()
                item = next(records, _END)
                end = perf_counter_ns()
                if item is _END:
                    return
                append((name, start, end))
                yield item
        return call

    def wrapper(self, name: str) -> Callable:
        if name == ROW_SPAN:
            return self.wrap_iterator
        return self.wrap_min_sum if name == MIN_SUM_SPAN else self.wrap


@contextmanager
def traced(modules: dict[str, object], tracer: Tracer):
    """Route the CLI path's calls through ``tracer`` inside the block."""
    saved = []
    try:
        for owner_name, attr, name in CALLS:
            owner = modules[owner_name]
            original = getattr(owner, attr, None)
            if original is None:
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrapper(name)(name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def calibrate(calls: int = 20_000, repeats: int = 5) -> tuple[float, float]:
    """Tracing cost per span in ns: the part inside the recorded interval,
    and the part outside it, which lands in the parent's self time.
    Minima over ``repeats`` loops of wrapped and direct no-op calls, since
    interference only ever adds time."""
    inside, outside = [], []
    for _ in range(repeats):
        tracer = Tracer()
        wrapped = tracer.wrap("calibrate", _noop)
        start = perf_counter_ns()
        for _ in range(calls):
            _noop(tracer, calls)
        direct = perf_counter_ns() - start
        start = perf_counter_ns()
        for _ in range(calls):
            wrapped(tracer, calls)
        total = perf_counter_ns() - start
        recorded = sum(end - begin for _, begin, end in tracer.spans)
        inside.append((recorded - direct) / calls)
        outside.append((total - recorded) / calls)
    return min(inside), min(outside)


def _noop(first: object, second: object) -> None:
    pass


def analyze(spans: list[tuple[str, int, int]], cost: tuple[float, float]
            ) -> list[tuple[str, int, float, float]]:
    """(name, row, inclusive_ns, self_ns) per span, with the calibrated
    tracing ``cost`` (inside, outside) of the span and of its descendants
    taken out."""
    ordered = sorted(spans, key=lambda s: (s[1], -s[2]))
    parents, rows, stack = [], [], []
    row = 0
    for i, (name, start, _) in enumerate(ordered):
        while stack and ordered[stack[-1]][2] <= start:
            stack.pop()
        parents.append(stack[-1] if stack else -1)
        row += name == ROW_SPAN
        rows.append(row)
        stack.append(i)

    inside, outside = cost
    child_ns = [0] * len(ordered)
    children = [0] * len(ordered)
    descendants = [0] * len(ordered)
    for i in range(len(ordered) - 1, -1, -1):
        parent = parents[i]
        if parent >= 0:
            child_ns[parent] += ordered[i][2] - ordered[i][1]
            children[parent] += 1
            descendants[parent] += 1 + descendants[i]
    return [(name, rows[i],
             end - start - inside - descendants[i] * (inside + outside),
             end - start - child_ns[i] - inside - children[i] * outside)
            for i, (name, start, end) in enumerate(ordered)]


class Summary:
    """Per span name, over the analyzed rounds: each row's fastest self time
    and fastest inclusive time (each summed over the row's calls in one
    round), and the total self time. Row numbers must name the same
    record in every round."""

    def __init__(self) -> None:
        self.fastest_self: dict[str, dict[int, float]] = {n: {} for n in SPAN_NAMES}
        self.fastest_inclusive: dict[str, dict[int, float]] = {n: {} for n in SPAN_NAMES}
        self.total_self: dict[str, float] = dict.fromkeys(SPAN_NAMES, 0.0)

    def add(self, timed: list[tuple[str, int, float, float]]) -> None:
        own: dict[str, dict[int, float]] = {n: {} for n in SPAN_NAMES}
        inclusive: dict[str, dict[int, float]] = {n: {} for n in SPAN_NAMES}
        for name, row, duration, self_ns in timed:
            own[name][row] = own[name].get(row, 0.0) + self_ns
            inclusive[name][row] = inclusive[name].get(row, 0.0) + duration
            self.total_self[name] += self_ns
        for this_round, fastest in ((own, self.fastest_self),
                                    (inclusive, self.fastest_inclusive)):
            for name, rows in this_round.items():
                best = fastest[name]
                for row, value in rows.items():
                    best[row] = min(best.get(row, value), value)

    def self_us(self, name: str) -> float:
        """Median over the rows that call ``name`` of their fastest self time."""
        return _median_us(list(self.fastest_self[name].values()))

    def inclusive_us(self, name: str) -> float:
        """The same for the inclusive time, children included."""
        return _median_us(list(self.fastest_inclusive[name].values()))


def _median_us(values_ns: list[float]) -> float:
    return statistics.median(values_ns) / 1e3 if values_ns else 0.0
