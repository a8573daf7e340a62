"""In-memory spans around the calls into each layer of ``repro``.

The benchmark measures the program from outside: :func:`instrument` wraps
the public entry points of the ``mppdb`` and ``ff`` layers for the duration
of a traced job and restores the originals afterwards.  The benchmark opens
the spans of the layers it calls itself (``core``/``baselines`` around
``connected_components``, ``graphs``, ``analysis``) directly.

A span carries a name, start, end, parent and job id.  Spans stay in a list
until :meth:`Tracer.write` puts them in a JSON-lines file when the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import json
import time
from dataclasses import asdict, dataclass, field

from repro.ff import get_method
from repro.mppdb import Engine

#: ``Engine`` methods wrapped in traced jobs; the span is ``mppdb.<method>``.
ENGINE_CALLS = ("register_input", "ctas", "scalar", "row", "drop", "rename", "close")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; the innermost open span is the parent of a new one."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job: int | None = None
        self._ids = itertools.count()
        self._open: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1].id if self._open else None
        s = Span(next(self._ids), name, time.perf_counter(), 0.0, parent, self.job, attrs)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()
            self.spans.append(s)

    def wrap(self, name: str, fn, on_return=None):
        """``fn`` inside a span; ``on_return(span, args, result)`` adds attributes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
                if on_return is not None:
                    on_return(s, args, out)
                return out

        return traced

    def job_spans(self, job: int) -> list[Span]:
        return [s for s in self.spans if s.job == job]

    def write(self, path) -> None:
        with open(path, "w") as f:
            for s in sorted(self.spans, key=lambda s: s.start):
                f.write(json.dumps(asdict(s)) + "\n")


def _ctas_attrs(span: Span, args, rows: int) -> None:
    # Engine.ctas(self, name, sql, *, label=...): the record the engine just
    # appended carries the label and row count of this statement.
    eng = args[0]
    q = eng.stats.queries[-1]
    span.attrs.update(label=q.label, rows=rows, live_rows=eng.live_rows)


@contextlib.contextmanager
def instrument(tracer: Tracer, methods: list[str]):
    """Span every ``Engine`` statement and the ``ff`` calls of ``methods``."""
    saved = {attr: getattr(Engine, attr) for attr in ENGINE_CALLS}
    insts = [get_method(m) for m in methods]
    try:
        for attr, fn in saved.items():
            hook = _ctas_attrs if attr == "ctas" else None
            setattr(Engine, attr, tracer.wrap(f"mppdb.{attr}", fn, hook))
        for m in insts:
            # Instance attributes shadow the class methods; deleting them
            # below restores the class behaviour.
            m.prepare = tracer.wrap("ff.prepare", m.prepare)
            m.make_rep_table = tracer.wrap("ff.make_rep_table", m.make_rep_table)
        yield tracer
    finally:
        for attr, fn in saved.items():
            setattr(Engine, attr, fn)
        for m in insts:
            m.__dict__.pop("prepare", None)
            m.__dict__.pop("make_rep_table", None)


@contextlib.contextmanager
def collect_engine_stats(sink: list):
    """Append each closed engine's ``EngineStats`` to ``sink``.

    ``connected_components`` returns only the labels; the engine it owns
    holds the Table IV/V space figures, so both modes collect them here.
    """
    close = Engine.close

    @functools.wraps(close)
    def closing(self):
        close(self)
        if not sink or sink[-1] is not self.stats:
            sink.append(self.stats)

    Engine.close = closing
    try:
        yield sink
    finally:
        Engine.close = close
