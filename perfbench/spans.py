"""Spans around the benchmark's calls into each layer.

A span records one call: its stage name, start, end, the span that
enclosed it and the op it belongs to.  Spans stay in memory until the
run ends; :func:`self_seconds` then charges each span its duration
minus the time covered by its direct children, scaled like its op
(see calibration.py).  Untraced runs use :data:`NO_SPANS`, which takes
the same stage names and records nothing, so the traced and untraced
ops run the same code.
"""

from __future__ import annotations

from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.op = 0
        self._open: list[int] = []

    def __call__(self, name: str) -> "_Span":
        return _Span(self, name)


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        tracer = self.tracer
        parent = tracer._open[-1] if tracer._open else -1
        tracer._open.append(len(tracer.spans))
        tracer.spans.append([self.name, perf_counter(), 0.0, parent, tracer.op])

    def __exit__(self, *exc) -> None:
        self.tracer.spans[self.tracer._open.pop()][2] = perf_counter()


class _NoSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        pass

    def __exit__(self, *exc) -> None:
        pass


_NO_SPAN = _NoSpan()


def NO_SPANS(name: str) -> _NoSpan:
    return _NO_SPAN


def self_seconds(spans: list[list], op_factor: dict[int, float]) -> dict[str, float]:
    """Total self time per stage name, in seconds, each span scaled by its op's factor."""
    children = [0.0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            children[parent] += end - start
    totals: dict[str, float] = {}
    for i, (name, start, end, _parent, op) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + ((end - start) - children[i]) * op_factor[op]
    return totals
