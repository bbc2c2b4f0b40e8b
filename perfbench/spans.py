"""Spans around the benchmark's calls into npslab's public functions.

A span records the called function as `<module>.<function>`, its start and
end on the perf_counter clock, its parent (the workload operation that made
the call), the pass it ran in, and the work it was charged with (sorts,
subdiagrams, points, rows...).  Every span of a run shares the run id.  Spans
stay in memory and are written out once, when the run ends.
"""

import json
import time
from contextlib import contextmanager


class Untraced:
    """The call path used while measuring end-to-end metrics: no spans."""

    @contextmanager
    def operation(self, name):
        yield

    def call(self, name, work, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.pass_index = None
        self._parent = None

    @contextmanager
    def operation(self, name):
        start = time.perf_counter()
        span_id = len(self.spans)
        self.spans.append(None)  # reserved so children can name their parent
        self._parent = span_id
        try:
            yield
        finally:
            self._parent = None
            self.spans[span_id] = self._span(span_id, "op." + name, start, None, 0)

    def call(self, name, work, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span_id = len(self.spans)
            self.spans.append(self._span(span_id, name, start, self._parent, work))

    def _span(self, span_id, name, start, parent, work):
        return {"id": span_id, "name": name, "start": start, "end": time.perf_counter(),
                "parent": parent, "pass": self.pass_index, "run": self.run_id, "work": work}

    def write(self, path, header):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(header, run=self.run_id, spans=self.spans), fh)
            fh.write("\n")
